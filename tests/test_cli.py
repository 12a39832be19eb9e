"""Config parsing, command execution, and CSV determinism."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import selfsim
from selfsim import PhasePartition, solve_riemann
from selfsim.cli import ConfigError, main, parse_config, run
from selfsim.special import heat_step

SOLVE_TWO_PHASE = """\
# two diffusion phases, one free boundary
u_minus = 0
u_plus = 2
breakpoints = [1]
coefficients = [1, 2]
"""

# the README's three-phase problem, the middle phase degenerate
README_PROBLEM = """\
u_minus = 0
u_plus = 3
breakpoints = [1, 2]
coefficients = [1, 0, 2]
"""

SOLVE_HEAT = """\
u_minus = 0
u_plus = 2
breakpoints = []
coefficients = [1.5]
"""


def _read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_minimal_solve_config():
    config = parse_config(SOLVE_TWO_PHASE, "solve")
    assert config.command == "solve"
    assert config.u_minus == 0.0 and config.u_plus == 2.0
    assert config.breakpoints == (1.0,)
    assert config.coefficients == (1.0, 2.0)


def test_parse_reports_arity_mismatch():
    text = "u_minus = 0\nu_plus = 2\nbreakpoints = []\ncoefficients = [1, 2]\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text, "solve")
    assert "coefficients has 2 entries but breakpoints has 0" in str(err.value)
    assert "len(breakpoints) + 1 = 1" in str(err.value)


def test_parse_rejects_duplicate_key():
    text = SOLVE_TWO_PHASE + "u_minus = 1\n"
    with pytest.raises(ConfigError, match=r"line 6: duplicate key 'u_minus'"):
        parse_config(text, "solve")


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match=r"line 1: unknown key 'dx' for command 'solve'"):
        parse_config("dx = [0.1]\n", "solve")


def test_parse_rejects_malformed_lines():
    with pytest.raises(ConfigError, match=r"line 1: expected 'key = value'"):
        parse_config("just some words\n", "solve")
    with pytest.raises(ConfigError, match=r"line 2: key 'u_plus' expects a number"):
        parse_config("u_minus = 0\nu_plus = two\n", "solve")
    with pytest.raises(ConfigError, match=r"bracketed list"):
        parse_config("breakpoints = 1, 2\n", "solve")
    with pytest.raises(ConfigError, match=r"malformed list entry"):
        parse_config("coefficients = [1, x]\n", "solve")


def test_parse_rejects_bad_numeric_options():
    with pytest.raises(ConfigError, match=r"'t' must be positive"):
        parse_config(SOLVE_TWO_PHASE + "t = -1\n", "evaluate")
    with pytest.raises(ConfigError, match=r"'dx' needs positive entries"):
        parse_config(SOLVE_TWO_PHASE + "dx = [0.1, 0]\n", "validate")
    with pytest.raises(ConfigError, match=r"strictly increasing positive counts"):
        parse_config("diffusion = table.csv\ncells = [8, 4]\n", "continuum")


def test_parse_missing_required_key():
    with pytest.raises(ConfigError, match=r"missing required key 'u_plus' for command 'solve'"):
        parse_config("u_minus = 0\nbreakpoints = []\ncoefficients = [1]\n", "solve")


def test_parse_ignores_comments_and_blanks():
    text = "\n# header comment\nu_minus = 0  # trailing\n\nu_plus = 2\nbreakpoints = []\ncoefficients = [1]\n"
    config = parse_config(text, "solve")
    assert config.u_minus == 0.0


def test_parse_rejects_unknown_command():
    with pytest.raises(ConfigError, match="unknown command"):
        parse_config(SOLVE_TWO_PHASE, "minimize")


# ---------------------------------------------------------------------------
# solve / evaluate outputs
# ---------------------------------------------------------------------------


def test_solve_heat_reproduces_closed_form(tmp_path):
    config_path = tmp_path / "heat.cfg"
    config_path.write_text(SOLVE_HEAT, encoding="utf-8")
    code = main(["solve", "--config", str(config_path), "--out", str(tmp_path / "run_")])
    assert code == 0
    header, rows = _read_rows(tmp_path / "run_profile.csv")
    assert header == ["xi", "v"]
    assert len(rows) == 2001
    for xi_s, v_s in rows:
        xi, v = float(xi_s), float(v_s)
        assert abs(v - 2.0 * heat_step(xi / 1.5)) <= 1e-12
    # no free boundaries for a single arc
    _, boundary_rows = _read_rows(tmp_path / "run_boundaries.csv")
    assert boundary_rows == []


def test_solve_emits_boundary_rows_matching_diagnostics(tmp_path):
    config_path = tmp_path / "two.cfg"
    config_path.write_text(SOLVE_TWO_PHASE, encoding="utf-8")
    code = main(["solve", "--config", str(config_path), "--out", str(tmp_path / "t_")])
    assert code == 0
    header, rows = _read_rows(tmp_path / "t_boundaries.csv")
    assert header == ["slot", "xi", "classification", "residual"]
    sol = solve_riemann(0.0, 2.0, PhasePartition((0.0, 1.0, 2.0), (1.0, 2.0)))
    assert len(rows) == len(sol.jumps)
    for row, rec in zip(rows, sol.jumps):
        assert int(row[0]) == rec.slot
        assert float(row[1]) == rec.location  # repr round-trips exactly
        assert row[2] == rec.classification
        assert float(row[3]) == rec.rh_residual
    header, trace_rows = _read_rows(tmp_path / "t_trace.csv")
    assert header == ["iteration", "value", "grad_norm", "step_length"]
    assert trace_rows[0][0] == "0"
    assert float(trace_rows[0][3]) == 0.0  # starting point carries no step


def test_evaluate_samples_solution_at_time(tmp_path):
    config_path = tmp_path / "eval.cfg"
    config_path.write_text(SOLVE_TWO_PHASE + "t = 4\n", encoding="utf-8")
    code = main(["evaluate", "--config", str(config_path), "--out", str(tmp_path / "e_")])
    assert code == 0
    header, rows = _read_rows(tmp_path / "e_evaluate.csv")
    assert header == ["t", "x", "u"]
    sol = solve_riemann(0.0, 2.0, PhasePartition((0.0, 1.0, 2.0), (1.0, 2.0)))
    for t_s, x_s, u_s in rows[::100]:
        assert float(t_s) == 4.0
        x = float(x_s)
        # the right limit at x / sqrt(t), which ``sample`` gives to rounding
        assert float(u_s) == sol.profile.limits(x / 2.0)[1]
        assert abs(float(u_s) - sol.profile.sample(np.array([x / 2.0]))[0]) <= 1e-15


@pytest.mark.parametrize("breakpoints", ["[0.5, 0.5000000000000001]", "[1e-310, 0.5]"])
def test_profile_window_spans_the_boundaries_and_ten_a_max(tmp_path, breakpoints):
    # 1.2 (max |xi| + 10 a_max): both ends reach the far states, and the
    # window is tens of a_max around the boundaries (a certified box at the
    # start's objective spanned +-9.5e7 and +-3.2e155 here)
    config_path = tmp_path / "thin.cfg"
    config_path.write_text(
        f"u_minus = 0\nu_plus = 1\nbreakpoints = {breakpoints}\ncoefficients = [1, 2, 1]\n", encoding="utf-8"
    )
    assert main(["solve", "--config", str(config_path), "--out", str(tmp_path / "w_")]) == 0
    _, rows = _read_rows(tmp_path / "w_profile.csv")
    _, boundary_rows = _read_rows(tmp_path / "w_boundaries.csv")
    reach = max(abs(float(row[1])) for row in boundary_rows)
    assert float(rows[-1][0]) == -float(rows[0][0]) == 1.2 * (10.0 * 2.0 + reach)
    assert float(rows[0][1]) <= 1e-12 and float(rows[-1][1]) >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# validate / continuum outputs
# ---------------------------------------------------------------------------


def test_validate_reports_small_errors(tmp_path):
    config_path = tmp_path / "val.cfg"
    config_path.write_text(SOLVE_TWO_PHASE + "dx = [0.04, 0.02]\n", encoding="utf-8")
    code = main(["validate", "--config", str(config_path), "--out", str(tmp_path / "v_")])
    assert code == 0
    header, rows = _read_rows(tmp_path / "v_validate.csv")
    assert header == ["dx", "steps", "l1", "l1_relative", "linf_away_from_jumps"]
    assert [float(r[0]) for r in rows] == [0.04, 0.02]
    assert float(rows[-1][3]) <= 0.02
    assert float(rows[0][2]) > float(rows[1][2])  # l1 shrinks with dx


def test_validate_frozen_step_reports_zero_relative_error(tmp_path):
    # a frozen step moves no mass; the FD grid matches it exactly, so the
    # relative error is 0, not 0 / 0 = inf
    config_path = tmp_path / "frozen.cfg"
    config_path.write_text(
        "u_minus = 1\nu_plus = 3\nbreakpoints = []\ncoefficients = [0]\n", encoding="utf-8"
    )
    code = main(["validate", "--config", str(config_path), "--out", str(tmp_path / "f_")])
    assert code == 0
    header, rows = _read_rows(tmp_path / "f_validate.csv")
    assert [r[header.index("l1")] for r in rows] == ["0.0", "0.0"]
    assert [r[header.index("l1_relative")] for r in rows] == ["0.0", "0.0"]


def test_validate_runs_on_a_vanishing_coefficient(tmp_path):
    # a_max = 1e-160 overflows the FD stability bound; the integrator still
    # takes one step instead of dividing by zero steps.  The profile moves
    # no mass on the grid and the FD cells differ from it by subnormals
    # (l1 ~ 2.5e-319): matched to rounding, not infinitely wrong
    config_path = tmp_path / "tiny.cfg"
    config_path.write_text(
        "u_minus = 0\nu_plus = 1\nbreakpoints = [0.5]\ncoefficients = [1e-160, 0]\n",
        encoding="utf-8",
    )
    code = main(["validate", "--config", str(config_path), "--out", str(tmp_path / "t_")])
    assert code == 0
    header, rows = _read_rows(tmp_path / "t_validate.csv")
    assert [int(r[header.index("steps")]) for r in rows] == [1, 1]
    assert all(float(r[header.index("l1_relative")]) <= 0.02 for r in rows)


def test_validate_rejects_a_grid_beyond_memory(tmp_path, capsys):
    # dx = 1e-12 asks for 4e13 cells, beyond any address space; the work
    # bound refuses the run before the grid is allocated: an invalid
    # problem, not an internal error
    config_path = tmp_path / "fine.cfg"
    config_path.write_text(README_PROBLEM + "dx = [1e-12]\n", encoding="utf-8")
    code = main(["validate", "--config", str(config_path), "--out", str(tmp_path / "b_")])
    assert code == 1
    assert "FD run of 40000000000002 cells over" in capsys.readouterr().err
    assert not (tmp_path / "b_validate.csv").exists()


@pytest.mark.parametrize(
    "grid, message",
    [
        # 10 / 1e-320 overflows, so the cell count is not a number to allocate
        ("t = 1\ndx = [1e-320]\n", "needs more cells than a float can count"),
        # a grid of 4e4 cells, but dx^2 = 1e-326 underflows, so no time step is stable
        ("t = 1e-320\ndx = [1e-163]\n", "time step bound dx^2 / (2 a_max^2) underflows to 0"),
        # 4e151 cells over 8.9e300 steps: cells x steps passes the float range
        ("t = 1\ndx = [1e-150]\n", "more cell updates than a float can count"),
        # t / dt_bound is inf, so the step count is not a number either
        ("t = 1e300\ndx = [1e-5]\n", "more cell updates than a float can count"),
    ],
    ids=["cell-count-overflows", "time-step-underflows", "update-count-overflows", "step-count-overflows"],
)
def test_validate_rejects_a_grid_beyond_floats(tmp_path, capsys, grid, message):
    config_path = tmp_path / "extreme.cfg"
    config_path.write_text(README_PROBLEM + grid, encoding="utf-8")
    code = main(["validate", "--config", str(config_path), "--out", str(tmp_path / "b_")])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "b_validate.csv").exists()


def test_validate_running_out_of_memory_is_a_refusal(tmp_path, capsys, monkeypatch):
    # a MemoryError past fd_solve's own allocation guard exits 1, not as an
    # internal error, and leaves no file
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("selfsim.oracle.compare_profiles", out_of_memory)
    config_path = tmp_path / "problem.cfg"
    config_path.write_text(README_PROBLEM + "dx = [0.05]\n", encoding="utf-8")
    code = main(["validate", "--config", str(config_path), "--out", str(tmp_path / "m_")])
    assert code == 1
    assert capsys.readouterr().err == "error: the run ran out of memory\n"
    assert not (tmp_path / "m_validate.csv").exists()


@pytest.mark.parametrize(
    "grid, message",
    [
        # 400 002 cells over 888 888 889 steps: days of work
        ("t = 1\ndx = [1e-4]\n", "400002 cells over 888888889 steps is 3.56e+14 cell updates"),
        # 4e6 cells over 8.9e10 steps, at a dx whose square is subnormal
        ("t = 1e-300\ndx = [1e-155]\n", "4000002 cells over 88888888889 steps is 3.56e+17 cell updates"),
    ],
    ids=["fine-grid", "subnormal-dx-squared"],
)
def test_validate_refuses_an_fd_run_beyond_its_work_bound(tmp_path, capsys, grid, message):
    # refused before the grid is allocated
    config_path = tmp_path / "long.cfg"
    config_path.write_text(README_PROBLEM + grid, encoding="utf-8")
    code = main(["validate", "--config", str(config_path), "--out", str(tmp_path / "b_")])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "b_validate.csv").exists()


def test_validate_starts_no_blas_thread_pool(tmp_path):
    # a fresh validate process pins OpenBLAS to one thread before numpy
    # loads, unless the caller set the variable; the FD bytes do not depend
    # on it
    config_path = tmp_path / "problem.cfg"
    config_path.write_text(README_PROBLEM + "dx = [0.05]\n", encoding="utf-8")
    src = str(Path(selfsim.__file__).resolve().parents[1])  # the child imports this checkout
    code = (
        "import os, sys\n"
        "from selfsim.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "tasks = len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else None\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'), tasks)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    env.pop("OPENBLAS_NUM_THREADS", None)
    outputs = []
    for prefix, threads in (("unset_", None), ("three_", "3")):
        child_env = env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads}
        argv = ["validate", "--config", str(config_path), "--out", str(tmp_path / prefix)]
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=child_env
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines()[-1].split())
    (unset_var, unset_tasks), (three_var, _) = outputs
    assert (unset_var, three_var) == ("1", "3")
    if sys.platform == "linux":
        assert unset_tasks == "1"
    assert (tmp_path / "unset_validate.csv").read_bytes() == (
        tmp_path / "three_validate.csv"
    ).read_bytes()


def test_continuum_emits_refinement_table(tmp_path):
    table = tmp_path / "ramp.csv"
    table.write_text(
        "# u, a\n0.0, 0.0\n0.5, 0.0\n0.5001, 0.0002\n1.0, 1.0\n", encoding="utf-8"
    )
    config_path = tmp_path / "cont.cfg"
    config_path.write_text(f"diffusion = {table}\ncells = [8, 16, 32]\n", encoding="utf-8")
    code = main(["continuum", "--config", str(config_path), "--out", str(tmp_path / "c_")])
    assert code == 0
    header, rows = _read_rows(tmp_path / "c_continuum.csv")
    assert header == ["cells", "boundaries", "shifted_entropy", "distance_to_finest"]
    assert [int(r[0]) for r in rows] == [8, 16, 32]
    dists = [float(r[3]) for r in rows]
    assert dists[-1] == 0.0
    assert dists[0] > dists[1]


def test_continuum_rejects_malformed_table(tmp_path, capsys):
    table = tmp_path / "bad.csv"
    table.write_text("0.0, 1.0\nnot a row\n", encoding="utf-8")
    config_path = tmp_path / "cont.cfg"
    config_path.write_text(f"diffusion = {table}\n", encoding="utf-8")
    code = main(["continuum", "--config", str(config_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.csv:2" in err and "expected 'u, a'" in err


@pytest.mark.parametrize(
    "row, message",
    [
        ("0.5, x", "bad.csv:2: expected 'u, a' with two numbers"),
        ("0.5, -1", "bad.csv:2: diffusion values must be nonnegative"),
        ("1.5, 0.5", "bad.csv: sample states must be strictly increasing"),
    ],
)
def test_continuum_rejects_a_bad_table_value(tmp_path, capsys, row, message):
    table = tmp_path / "bad.csv"
    table.write_text(f"0.0, 1.0\n{row}\n1.0, 2.0\n", encoding="utf-8")
    config_path = tmp_path / "cont.cfg"
    config_path.write_text(f"diffusion = {table}\n", encoding="utf-8")
    code = main(["continuum", "--config", str(config_path), "--out", str(tmp_path / "c_")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.glob("c_*")) == []


def test_continuum_exit_2_on_missing_table(tmp_path, capsys):
    config_path = tmp_path / "cont.cfg"
    config_path.write_text(f"diffusion = {tmp_path / 'absent.csv'}\n", encoding="utf-8")
    code = main(["continuum", "--config", str(config_path), "--out", str(tmp_path / "c_")])
    assert code == 2
    assert "cannot read diffusion table" in capsys.readouterr().err
    assert list(tmp_path.glob("c_*")) == []


# ---------------------------------------------------------------------------
# exit codes, determinism, cleanup
# ---------------------------------------------------------------------------


def test_exit_2_on_config_errors(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert main(["solve", "--config", str(missing)]) == 2
    assert "cannot read config" in capsys.readouterr().err
    bad = tmp_path / "bad.cfg"
    bad.write_text("u_minus = 0\n", encoding="utf-8")
    assert main(["solve", "--config", str(bad)]) == 2
    assert "missing required key" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "evaluate", "validate"])
def test_exit_2_on_a_solver_tolerance_key(tmp_path, capsys, command):
    # the Newton stop is a constant of the solver, not a config key
    config_path = tmp_path / "cfg"
    config_path.write_text(SOLVE_TWO_PHASE + "grad_tol = 1e-12\n", encoding="utf-8")
    code = main([command, "--config", str(config_path), "--out", str(tmp_path / "g_")])
    assert code == 2
    assert f"unknown key 'grad_tol' for command '{command}'" in capsys.readouterr().err
    assert list(tmp_path.glob("g_*")) == []


@pytest.mark.parametrize(
    "command, key, raw",
    [
        ("validate", "dx", "[inf]"),
        ("validate", "dx", "[0.04, nan]"),
        ("validate", "t", "inf"),
        ("evaluate", "t", "inf"),
        ("evaluate", "t", "nan"),
    ],
)
def test_exit_2_on_non_finite_run_parameters(tmp_path, capsys, command, key, raw):
    config_path = tmp_path / "cfg"
    config_path.write_text(SOLVE_TWO_PHASE + f"{key} = {raw}\n", encoding="utf-8")
    code = main([command, "--config", str(config_path), "--out", str(tmp_path / "n_")])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert list(tmp_path.glob("n_*")) == []


def test_exit_1_on_invalid_problem(tmp_path, capsys):
    config_path = tmp_path / "flat.cfg"
    config_path.write_text(
        "u_minus = 1\nu_plus = 1\nbreakpoints = []\ncoefficients = [1]\n", encoding="utf-8"
    )
    code = main(["solve", "--config", str(config_path), "--out", str(tmp_path / "f_")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert list(tmp_path.glob("f_*")) == []


def test_exit_1_when_the_solve_does_not_converge(tmp_path, capsys):
    # ratio-sweep draw (11, 57) at lo = -30: coefficients spanning 29
    # decades stop Newton on its iteration cap
    config_path = tmp_path / "stiff.cfg"
    config_path.write_text(
        "u_minus = 1\nu_plus = 0\n"
        "breakpoints = [0.49099002707550754, 0.6949592759574624, 0.7988092110437713, "
        "0.8239322021375902, 0.9987059156205922]\n"
        "coefficients = [1.2784653121147448e-25, 1.8086017577870982e-05, 1.2643682053795904e-10, "
        "0.00034540454051713696, 2.687998323772874e-29, 6.680979659773805e-09]\n",
        encoding="utf-8",
    )
    code = main(["solve", "--config", str(config_path), "--out", str(tmp_path / "s_")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: boundary solve did not converge (stopped on max_iters)\n"
    )
    assert list(tmp_path.glob("s_*")) == []


def test_failed_run_removes_partial_files(tmp_path, monkeypatch):
    import selfsim.cli as cli_module

    real_write = cli_module._write_csv
    calls = {"n": 0}

    def flaky_write(path, header, rows):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("disk full")
        real_write(path, header, rows)

    monkeypatch.setattr(cli_module, "_write_csv", flaky_write)
    config = parse_config(SOLVE_TWO_PHASE, "solve", out_prefix=str(tmp_path / "p_"))
    with pytest.raises(RuntimeError, match="disk full"):
        run(config)
    assert list(tmp_path.glob("p_*")) == []


def test_a_write_that_fails_partway_is_removed(tmp_path, monkeypatch, capsys):
    # the second file gets 10 bytes before the disk fills: exit 2, and
    # neither it nor the first file is left behind
    real_write_text = Path.write_text
    calls = {"n": 0}

    def filling_write_text(path, data, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] < 2:
            return real_write_text(path, data, *args, **kwargs)
        real_write_text(path, data[:10], *args, **kwargs)
        raise OSError(28, "No space left on device")

    config_path = tmp_path / "two.cfg"
    config_path.write_text(SOLVE_TWO_PHASE, encoding="utf-8")
    monkeypatch.setattr(Path, "write_text", filling_write_text)
    code = main(["solve", "--config", str(config_path), "--out", str(tmp_path / "o_")])
    assert code == 2
    assert "error: cannot write output: [Errno 28] No space left on device" in capsys.readouterr().err
    assert calls["n"] == 2
    assert list(tmp_path.glob("o_*")) == []


def test_exit_2_when_outputs_cannot_be_written(tmp_path, capsys):
    config_path = tmp_path / "two.cfg"
    config_path.write_text(SOLVE_TWO_PHASE, encoding="utf-8")
    code = main(["solve", "--config", str(config_path), "--out", str(tmp_path / "missing" / "x_")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot write output:")
    assert list(tmp_path.iterdir()) == [config_path]


@pytest.mark.parametrize(
    "command, extra",
    [
        ("solve", ""),
        ("evaluate", "t = 2\n"),
        ("validate", "dx = [0.08, 0.04]\n"),
    ],
)
def test_reruns_are_byte_identical(tmp_path, command, extra):
    config_path = tmp_path / "cfg"
    config_path.write_text(SOLVE_TWO_PHASE + extra, encoding="utf-8")
    main([command, "--config", str(config_path), "--out", str(tmp_path / "one_")])
    main([command, "--config", str(config_path), "--out", str(tmp_path / "two_")])
    ones = sorted(tmp_path.glob("one_*"))
    twos = sorted(tmp_path.glob("two_*"))
    assert [p.name[4:] for p in ones] == [p.name[4:] for p in twos] and ones
    for a, b in zip(ones, twos):
        assert a.read_bytes() == b.read_bytes()


def test_continuum_rerun_byte_identical(tmp_path):
    table = tmp_path / "lin.csv"
    table.write_text("0.0, 1.0\n1.0, 2.0\n", encoding="utf-8")
    config_path = tmp_path / "cont.cfg"
    config_path.write_text(f"diffusion = {table}\ncells = [4, 8, 16]\n", encoding="utf-8")
    main(["continuum", "--config", str(config_path), "--out", str(tmp_path / "one_")])
    main(["continuum", "--config", str(config_path), "--out", str(tmp_path / "two_")])
    assert (tmp_path / "one_continuum.csv").read_bytes() == (
        tmp_path / "two_continuum.csv"
    ).read_bytes()


# the code the installed ``selfsim`` script runs, and the module entry
_ENTRIES = {
    "script": ["-c", "from selfsim.cli import process_main; process_main()"],
    "module": ["-m", "selfsim.cli"],
}


def _run_entry(entry, *argv, stdout=subprocess.PIPE, shell_prefix=()):
    # a fresh process on this checkout with stderr on a pipe and its output
    # block-buffered, so only the entry's flush before os._exit delivers it
    src = str(Path(selfsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [*shell_prefix, sys.executable, *_ENTRIES[entry], *map(str, argv)],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def _assert_solve_lists_its_paths(tmp_path, entry):
    config_path = tmp_path / "heat.cfg"
    config_path.write_text(SOLVE_HEAT, encoding="utf-8")
    prefix = tmp_path / "s_"
    proc = _run_entry(entry, "solve", "--config", config_path, "--out", prefix)
    assert (proc.returncode, proc.stderr) == (0, "")
    names = ("boundaries", "profile", "trace")
    assert proc.stdout.splitlines() == [f"{prefix}{name}.csv" for name in names]
    assert all((tmp_path / f"s_{name}.csv").exists() for name in names)


def test_console_script_runs(tmp_path):
    _assert_solve_lists_its_paths(tmp_path, "script")


def test_module_entry_runs(tmp_path):
    _assert_solve_lists_its_paths(tmp_path, "module")


@pytest.mark.parametrize("entry", _ENTRIES)
@pytest.mark.parametrize(
    "config, code, message",
    [
        (
            "u_minus = 1\nu_plus = 1\nbreakpoints = []\ncoefficients = [1]\n",
            1,
            "error: equal states: the solution is the constant; nothing to solve\n",
        ),
        (SOLVE_HEAT + "grad_tol = 1e-9\n", 2, "error: line 5: unknown key 'grad_tol' for command 'solve'\n"),
        (None, 2, "error: cannot read config: "),
    ],
    ids=["invalid-problem", "unknown-key", "missing-config"],
)
def test_process_entry_exit_codes(tmp_path, entry, config, code, message):
    config_path = tmp_path / "problem.cfg"
    if config is not None:
        config_path.write_text(config, encoding="utf-8")
    proc = _run_entry(entry, "solve", "--config", config_path, "--out", tmp_path / "e_")
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1, proc.stderr
    assert list(tmp_path.glob("e_*")) == []


def test_process_entry_keeps_argparse_exits(tmp_path):
    proc = _run_entry("module", "solve")
    assert proc.returncode == 2
    assert proc.stderr.endswith("error: the following arguments are required: --config\n")
    proc = _run_entry("module", "--help")
    assert proc.returncode == 0 and proc.stdout.startswith("usage: selfsim")


def test_process_entry_exits_120_when_stdout_cannot_be_flushed(tmp_path):
    # the reader of stdout is gone, so the buffered paths fail to flush: the
    # run succeeded, and the process exits 120 as the interpreter's exit
    # does, without the interpreter's "Exception ignored" report
    config_path = tmp_path / "heat.cfg"
    config_path.write_text(SOLVE_HEAT, encoding="utf-8")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_entry("module", "solve", "--config", config_path, "--out", tmp_path / "s_", stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (120, "")


@pytest.mark.skipif(sys.platform == "win32", reason="closes descriptor 1 through a POSIX shell")
def test_process_entry_runs_with_stdout_closed(tmp_path):
    # with descriptor 1 closed at start-up, sys.stdout is None: the paths
    # are printed nowhere, and the run still exits 0
    config_path = tmp_path / "heat.cfg"
    config_path.write_text(SOLVE_HEAT, encoding="utf-8")
    closed = ("sh", "-c", 'exec "$@" >&-', "sh")
    proc = _run_entry("module", "solve", "--config", config_path, "--out", tmp_path / "s_", shell_prefix=closed)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / "s_trace.csv").exists()


def test_cli_imports_and_solves_without_scipy(tmp_path):
    # the README problem and a 65-row banded table, run in one fresh process:
    # scipy is never loaded, numpy, the FD oracle and the erfcx_vec table stay
    # out of solve, evaluate and continuum, selfsim.continuum out of solve and
    # evaluate, and selfsim loads neither dataclasses nor inspect in any of them
    config_path = tmp_path / "problem.cfg"
    config_path.write_text(
        "u_minus = 0\nu_plus = 3\nbreakpoints = [1, 2]\ncoefficients = [1, 0, 2]\n",
        encoding="utf-8",
    )
    rows = []
    for i in range(65):
        u = i / 64
        a = 0.0 if abs(u - 0.5) <= 0.07 else 0.6 + 0.4 * math.sin(2.0 * math.pi * (u + 0.3))
        rows.append(f"{u!r}, {a!r}")
    table = tmp_path / "table.csv"
    table.write_text("\n".join(rows) + "\n", encoding="utf-8")
    continuum_path = tmp_path / "continuum.cfg"
    continuum_path.write_text(f"diffusion = {table}\n", encoding="utf-8")
    src = str(Path(selfsim.__file__).resolve().parents[1])  # the child imports this checkout
    code = (
        "import sys\n"
        "site = set(sys.modules)\n"
        "import selfsim.cli\n"
        "def absent(stage, *names):\n"
        "    for name in names + ('scipy', 'numpy', 'selfsim.oracle', 'selfsim._erfcx_table'):\n"
        "        assert name not in sys.modules, f'{name} imported by {stage}'\n"
        "    for name in ('dataclasses', 'inspect'):  # unless the site loaded it\n"
        "        assert name in site or name not in sys.modules, f'{name} imported by {stage}'\n"
        "absent('import selfsim.cli', 'selfsim.continuum')\n"
        "out, problem, table = sys.argv[1:]\n"
        "for command in ('solve', 'evaluate', 'continuum'):\n"
        "    config = table if command == 'continuum' else problem\n"
        "    argv = [command, '--config', config, '--out', out]\n"
        "    assert selfsim.cli.main(argv) == 0, command\n"
        "    absent(f'selfsim {command}', *(() if command == 'continuum' else ('selfsim.continuum',)))\n"
        "assert 'selfsim.continuum' in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "s_"), str(config_path), str(continuum_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))},
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("profile", "evaluate", "continuum"):
        assert (tmp_path / f"s_{name}.csv").exists()
