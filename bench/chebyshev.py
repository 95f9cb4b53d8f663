#!/usr/bin/env python3
"""Write the piecewise Chebyshev table of the log moment's Lambda and Dawson's F.

Run from the repository root (needs mpmath):

    python3 bench/chebyshev.py

The near branch of ``ncmink.integrate._lambda_f`` evaluates, for |y| < CUT =
9/sqrt(2), where the far branch's asymptotic series takes over (|mu| /
sigma = 9), the even M(y) = E ln|sqrt(2) y + Z| = Lambda(y) - (gamma + ln 2)/2
and Dawson's odd F(y) at |y| (``highprec.lam`` and ``highprec.dawson``);
the log moment is then E ln|mu + sigma Z| = ln sigma + M(y) for
y = mu / (sigma sqrt 2), with the constant added here at DIGITS digits.
[0, CUT] is cut into PIECES equal pieces: with SCALE = PIECES / CUT in
double precision, piece k holds the y with k <= y SCALE < k + 1, and t =
2 (y SCALE - k) - 1 maps it onto [-1, 1].  On each piece each function is
the Chebyshev series sum_j c_j T_j(t), j = 0..DEGREE, truncated from its
DCT on NODES first-kind Chebyshev nodes taken at DIGITS digits, and each c_j
is then rounded to the nearest double.  The script checks the rounded
series, summed exactly, against the functions on GRID points per piece and
writes those fit errors, the worst |delta| / max(1, |v|), into the header
of the module, with the command, the mpmath version and the table's shape.
The output is deterministic: it depends on these constants and mpmath only.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import mpmath as mp
from highprec import dawson, lam

PIECES = 8
DEGREE = 16
DIGITS = 40
NODES = 64
GRID = 400
CUT = 9.0 / math.sqrt(2.0)
SCALE = PIECES / CUT
OUT = Path(__file__).resolve().parent.parent / "src" / "ncmink" / "_lambda_table.py"


def log_moment(y):
    """M(y) = E ln|sqrt(2) y + Z|, the log moment at sigma = 1."""
    return lam(y) - (mp.euler + mp.log(2)) / 2


def _y(k, t):
    """The y of piece k at t in [-1, 1], exactly for the double SCALE."""
    return (k + (t + 1) / 2) / mp.mpf(SCALE)


def _coefficients(f, k):
    """Chebyshev coefficients c_0..c_DEGREE of f on piece k, rounded to doubles."""
    thetas = [mp.pi * (i + mp.mpf(0.5)) / NODES for i in range(NODES)]
    values = [f(_y(k, mp.cos(theta))) for theta in thetas]
    coefficients = []
    for j in range(DEGREE + 1):
        c = 2 * mp.fsum(v * mp.cos(j * theta) for v, theta in zip(values, thetas)) / NODES
        coefficients.append(float(c / 2 if j == 0 else c))
    return coefficients


def _fit_error(f, table):
    """Worst |sum_j c_j T_j(t) - f(y)| / max(1, |f(y)|) over GRID points per piece."""
    worst = mp.mpf(0)
    for k, coefficients in enumerate(table):
        for i in range(GRID + 1):
            t = -1 + 2 * mp.mpf(i) / GRID
            series = mp.fsum(mp.mpf(c) * mp.chebyt(j, t) for j, c in enumerate(coefficients))
            v = f(_y(k, t))
            worst = max(worst, abs(series - v) / max(1, abs(v)))
    return float(worst)


def _rows(name, table):
    """``name = (row, ...)``, one line per piece."""
    rows = ["(" + ", ".join(repr(c) for c in row) + ")" for row in table]
    return [f"{name} = ({rows[0]},", *(f"    {row}," for row in rows[1:-1]), f"    {rows[-1]})"]


def main():
    mp.mp.dps = DIGITS
    functions = {"LOG_MOMENT": log_moment, "DAWSON": dawson}
    tables = {name: [_coefficients(f, k) for k in range(PIECES)] for name, f in functions.items()}
    errors = {name: _fit_error(f, tables[name]) for name, f in functions.items()}
    header = [
        '"""Piecewise Chebyshev coefficients of M(y) = E ln|sqrt(2) y + Z| and Dawson\'s F, generated.',
        "",
        f"Written by ``python3 bench/chebyshev.py`` with mpmath {mp.__version__} at {DIGITS} digits, on",
        f"[0, CUT]: {PIECES} pieces x degree {DEGREE}, from a DCT on {NODES} Chebyshev nodes per piece,",
        "each coefficient rounded to the nearest double.  M(y) = Lambda(y) - (gamma + ln 2)/2",
        "with Lambda(y) = y^2 2F2(1, 1; 3/2, 2; -y^2).  Row k of LOG_MOMENT and of DAWSON,",
        f"piece k, holds the y with k <= {PIECES} y / CUT < k + 1: it is c_0..c_{DEGREE} of",
        f"sum_j c_j T_j(t), t = 2 ({PIECES} y / CUT - k) - 1.  Fit errors, the worst",
        f"|delta| / max(1, |v|) of the rounded series summed exactly on {GRID + 1} points per",
        f"piece: M {errors['LOG_MOMENT']:.2e}, F {errors['DAWSON']:.2e}.  Do not edit: run the script again.",
        '"""',
        "",
        f"CUT = {CUT!r}",
        *_rows("LOG_MOMENT", tables["LOG_MOMENT"]),
        *_rows("DAWSON", tables["DAWSON"]),
    ]
    OUT.write_text("\n".join(header) + "\n", encoding="utf-8")
    print(f"wrote {OUT}: fit error M {errors['LOG_MOMENT']:.2e}, F {errors['DAWSON']:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
