"""Regenerate the coefficient table of the array erfcx kernel with mpmath.

The kernel (``selfsim.special.erfcx_vec``) follows S. G. Johnson's Faddeeva
package: on 0 <= x < 26 it maps x to y100 = 400 / (4 + x) and evaluates, on
the piece j = floor(y100), a degree-6 polynomial in

    u = 2 y_c (x_c - x) / (4 + x) = 2 (y100 - y_c),   y_c = j + 1/2,

where x_c = 400 / y_c - 4 is the piece's centre as a double.  Taking u from
x_c - x rather than from the rounded y100 keeps u's rounding error in
proportion to u, so the map does not amplify it.  Each row of the table is
(x_c, 2 y_c, c_0, ..., c_6); the coefficients come from a Chebyshev fit
(``mpmath.chebyfit``) at 40 digits of erfcx(x(u)) over u in [-1, 1].

Usage:
    python scripts/erfcx_table.py            # rewrite src/selfsim/_erfcx_table.py
    python scripts/erfcx_table.py --check    # exit 1 if the committed table differs
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mpmath

FIRST, LAST = 13, 99  # y100 = 400 / (4 + x) spans (13.3, 100] for 0 <= x < 26
DEGREE = 6
DIGITS = 40
TARGET = Path(__file__).resolve().parents[1] / "src" / "selfsim" / "_erfcx_table.py"


def piece(j: int) -> tuple[float, ...]:
    """Row j - FIRST of the table: (x_c, 2 y_c, c_0, ..., c_DEGREE)."""
    y_c = j + 0.5
    x_c = 400.0 / y_c - 4.0  # the double the kernel subtracts from x
    two_yc = 2.0 * y_c
    with mpmath.workdps(DIGITS):
        xc, yc2 = mpmath.mpf(x_c), mpmath.mpf(two_yc)

        def erfcx_at(u):
            x = (yc2 * xc - 4 * u) / (u + yc2)  # the inverse of u(x) above
            return mpmath.erfc(x) * mpmath.exp(x * x)

        coeffs = mpmath.chebyfit(erfcx_at, [-1, 1], DEGREE + 1)  # highest degree first
        return (x_c, two_yc, *(float(c) for c in reversed(coeffs)))


def render() -> str:
    lines = [
        '"""Coefficient table of ``special.erfcx_vec``.',
        "",
        "Written by scripts/erfcx_table.py, which documents the layout; do not edit.",
        "TABLE holds one row per line, COLUMNS doubles each, in ``repr`` digits:",
        "parsing the string gives the same doubles as compiling them as literals.",
        '"""',
        "",
        f"FIRST = {FIRST}  # row r is the piece floor(400 / (4 + x)) = FIRST + r",
        f"COLUMNS = {DEGREE + 3}  # x_c, 2 y_c, c_0, ..., c_{DEGREE}",
        'TABLE = """',
    ]
    lines.extend(" ".join(repr(v) for v in piece(j)) for j in range(FIRST, LAST + 1))
    lines.append('"""')
    return "\n".join(lines) + "\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the committed table")
    args = parser.parse_args()
    text = render()
    if args.check:
        if TARGET.read_text() != text:
            print(f"{TARGET} differs from the regenerated table")
            sys.exit(1)
        print(f"{TARGET} is up to date")
        return
    TARGET.write_text(text)
    print(f"wrote {LAST - FIRST + 1} pieces to {TARGET}")


if __name__ == "__main__":
    main()
