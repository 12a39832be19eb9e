"""The README's Quick start block runs and shows what the code returns."""

import contextlib
import io
import re
from pathlib import Path

import selfsim

README = Path(__file__).resolve().parents[1] / "README.md"

# expression -> its value as the README's comment on that line shows it
SHOWN_VALUES = {
    "sol.kind": "'general'",
    "sol.boundaries": "(-0.4928835942106207, -0.4928835942106207)",
    "sol.stop_reason": "'step'",
    "eval_solution(sol.profile, t=4.0, x=0.0)": "2.1215273678128828",
    "eval_solution(sol.profile, t=4.0, x=2.0 * sol.boundaries[0])": "(1.0, 2.0)",
}


def _quick_start_lines() -> list[str]:
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1).splitlines()


def test_readme_quick_start_runs_as_shown():
    lines = _quick_start_lines()
    namespace: dict = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec("\n".join(lines), namespace)

    # the comment lines right after the print loop are its output
    after = next(i for i, line in enumerate(lines) if line.lstrip().startswith("print(")) + 1
    shown = []
    for line in lines[after:]:
        if not line.startswith("# "):
            break
        shown.append(line[2:])
    assert shown and printed.getvalue().splitlines() == shown

    for expr, value in SHOWN_VALUES.items():
        assert any(
            line.startswith(expr + " ") and f"# {value}" in line for line in lines
        ), f"README no longer shows {expr} -> {value}"
        assert repr(eval(expr, namespace)) == value

    sol = namespace["sol"]
    steps = re.search(r"sol\.converged\s+# True, after (\d+) Newton steps", "\n".join(lines))
    assert steps and sol.converged and sol.iterations == int(steps.group(1))


def test_readme_intro_residual_is_the_solves():
    # the intro's thin-phase example, at the two digits it shows
    text = " ".join(README.read_text(encoding="utf-8").split())
    shown = re.search(r"\(1, 1e-7, 2\) on breakpoints \(0, 0\.5, 1, 1\.5\) balances to (\S+)\.", text)
    assert shown, "README no longer shows the thin-phase residual"
    partition = selfsim.PhasePartition((0.0, 0.5, 1.0, 1.5), (1.0, 1e-7, 2.0))
    sol = selfsim.solve_riemann(0.0, 1.5, partition)
    residual = max(abs(rec.rh_residual) for rec in sol.jumps)
    assert f"{residual:.1e}" == f"{float(shown.group(1)):.1e}"


def test_top_level_names_resolve_and_cover_the_readme_imports():
    for name in selfsim.__all__:
        assert getattr(selfsim, name, None) is not None, name
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    imported = set()
    for block in blocks:
        for group in re.findall(r"^from selfsim import (?:\(([^)]*)\)|(.+))$", block, re.M):
            imported.update(name.strip() for name in "".join(group).split(",") if name.strip())
    assert imported and imported <= set(selfsim.__all__), imported - set(selfsim.__all__)


def test_readme_scripts_section_names_every_script():
    section = README.read_text(encoding="utf-8").split("## Scripts", 1)[1].split("\n## ", 1)[0]
    scripts = sorted(path.name for path in (README.parent / "scripts").glob("*.py"))
    missing = [name for name in scripts if f"`{name}`" not in section]
    assert scripts and not missing, missing
