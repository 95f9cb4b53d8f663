#!/usr/bin/env python3
"""Write the log moment's generated module: its Chebyshev table and the straight-line code that sums it.

Run from the repository root:

    python3 bench/chebyshev.py          # fit with mpmath, then write the module
    python3 bench/chebyshev.py --check  # re-emit from the committed tuples; no mpmath

The near branch of ``ncmink.pair._lambda_f`` evaluates, for |y| < CUT =
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
is then rounded to the nearest double.  The fit checks the rounded series,
summed exactly, against the functions on GRID points per piece.

The fit is the only part that needs mpmath.  ``emit`` writes the module
from the two coefficient tables, the fit errors and the mpmath version,
on plain Python floats: the tables as tuples ``LOG_MOMENT`` and ``DAWSON``,
then one function per piece, ``PIECES[k](t)``, which runs the Clenshaw
recurrence b_j = 2t b_(j+1) - b_(j+2) + c_j, j = DEGREE..1, and returns
t b_1 - b_2 + c_0 for M and for F, unrolled with the coefficients as
literals, and ``asymptotic(z)``, the far branch's series
sum_k c_k z^k of E ln|1 + eps Z| (z = eps^2), k = 0..TERMS, with
c_k = -(2k-1)!!/(2k) and its slope's (2k-1)!!, by Horner, unrolled in the
same way.  Every step is the one rounded float operation that a complex
recurrence and a complex Horner perform on each part.  The
output is deterministic: the fit depends on these constants and mpmath
only, the emitted code on the tables alone, and ``--check`` re-emits the
committed module from its own tuples and header and exits 1 on any
difference.
"""

from __future__ import annotations

import argparse
import ast
import math
import re
import sys
from pathlib import Path

PIECES = 8
DEGREE = 16
DIGITS = 40
NODES = 64
GRID = 400
# E ln|1 + eps Z| = -sum_k (2k-1)!! eps^{2k} / (2k), k = 1..TERMS, is
# asymptotic, with its smallest omitted term below 1e-18 once |mu|/sigma >= 9,
# the cut of the far branch; mu dL/dmu of term k is (2k-1)!! eps^{2k}, plus
# 1 from ln|mu|, which gives F
TERMS = 30
CUT = 9.0 / math.sqrt(2.0)
SCALE = PIECES / CUT
OUT = Path(__file__).resolve().parent.parent / "src" / "ncmink" / "_lambda_table.py"
# the header facts that --check reads back from the committed module
_FACTS = re.compile(r"with mpmath (\S+) at .*piece: M (\S+), F (\S+)\.  ", re.S)


def fit():
    """The LOG_MOMENT and DAWSON tables, their fit errors and the mpmath version."""
    import mpmath as mp
    from highprec import dawson, lam

    mp.mp.dps = DIGITS

    def log_moment(y):
        """M(y) = E ln|sqrt(2) y + Z|, the log moment at sigma = 1."""
        return lam(y) - (mp.euler + mp.log(2)) / 2

    def y_of(k, t):
        """The y of piece k at t in [-1, 1], exactly for the double SCALE."""
        return (k + (t + 1) / 2) / mp.mpf(SCALE)

    def coefficients(f, k):
        """Chebyshev coefficients c_0..c_DEGREE of f on piece k, rounded to doubles."""
        thetas = [mp.pi * (i + mp.mpf(0.5)) / NODES for i in range(NODES)]
        values = [f(y_of(k, mp.cos(theta))) for theta in thetas]
        row = []
        for j in range(DEGREE + 1):
            c = 2 * mp.fsum(v * mp.cos(j * theta) for v, theta in zip(values, thetas)) / NODES
            row.append(float(c / 2 if j == 0 else c))
        return row

    def fit_error(f, table):
        """Worst |sum_j c_j T_j(t) - f(y)| / max(1, |f(y)|) over GRID points per piece."""
        worst = mp.mpf(0)
        for k, row in enumerate(table):
            for i in range(GRID + 1):
                t = -1 + 2 * mp.mpf(i) / GRID
                series = mp.fsum(mp.mpf(c) * mp.chebyt(j, t) for j, c in enumerate(row))
                v = f(y_of(k, t))
                worst = max(worst, abs(series - v) / max(1, abs(v)))
        return float(worst)

    tables = [[coefficients(f, k) for k in range(PIECES)] for f in (log_moment, dawson)]
    errors = [fit_error(f, table) for f, table in zip((log_moment, dawson), tables)]
    return tables, errors, mp.__version__


def _rows(name, table):
    """``name = (row, ...)``, one line per piece."""
    rows = ["(" + ", ".join(repr(c) for c in row) + ")" for row in table]
    return [f"{name} = ({rows[0]},", *(f"    {row}," for row in rows[1:-1]), f"    {rows[-1]})"]


def _plus(c):
    """`` + c`` or `` - |c|``: the one rounded addition of the coefficient c."""
    return f" - {-c!r}" if c < 0.0 else f" + {c!r}"


def _piece(k, m_row, f_row):
    """Piece k's function: Clenshaw over row k of both tables, b_j alternately in (m, f) and (n, g)."""
    (m0, *m_rest), (f0, *f_rest) = m_row, f_row
    steps = list(zip(m_rest[::-1], f_rest[::-1]))
    lines = [f"def _piece_{k}(t):", "    t2 = t + t", f"    m, f = {steps[0][0]!r}, {steps[0][1]!r}"]
    lines.append(f"    n, g = m * t2{_plus(steps[1][0])}, f * t2{_plus(steps[1][1])}")
    # b_(j+1) sits in the names `last`, b_(j+2) in `before`, which b_j overwrites
    last, before = ("n", "g"), ("m", "f")
    for cm, cf in steps[2:]:
        (m1, f1), (m2, f2) = last, before
        lines.append(f"    {m2}, {f2} = {m1} * t2 - {m2}{_plus(cm)}, {f1} * t2 - {f2}{_plus(cf)}")
        last, before = before, last
    (m1, f1), (m2, f2) = last, before
    lines.append(f"    return {m1} * t - {m2}{_plus(m0)}, {f1} * t - {f2}{_plus(f0)}")
    return lines


def _asymptotic():
    """``asymptotic(z)``: the far series and its slope's series, by Horner, highest order first."""
    double_factorials = [math.prod(range(1, 2 * k, 2)) for k in range(TERMS, 0, -1)]
    # -(2k-1)!!/(2k) with the int double factorial rounded to a float first,
    # then divided by 2k, which the test's complex reference does as well
    pairs = [(-n / (2.0 * k), float(n)) for n, k in zip(double_factorials, range(TERMS, 0, -1))]
    lines = ["def asymptotic(z):", f"    m, f = {pairs[0][0]!r}, {pairs[0][1]!r}"]
    lines += [f"    m, f = m * z{_plus(cm)}, f * z{_plus(cf)}" for cm, cf in pairs[1:]]
    # k = 0: ln|mu| carries no series term, and its slope's coefficient is 1
    lines.append(f"    return m * z{_plus(0.0)}, f * z{_plus(1.0)}")
    return lines


def emit(tables, errors, version):
    """The text of the generated module, from the tables, the fit errors and the mpmath version."""
    log_moment, dawson = tables
    error_m, error_f = errors
    lines = [
        "# Code generated by bench/chebyshev.py from the tables below. DO NOT EDIT.",
        '"""Piecewise Chebyshev series of M(y) = E ln|sqrt(2) y + Z| and Dawson\'s F, and the far series, generated.',
        "",
        f"Written by ``python3 bench/chebyshev.py`` with mpmath {version} at {DIGITS} digits, on",
        f"[0, CUT]: {PIECES} pieces x degree {DEGREE}, from a DCT on {NODES} Chebyshev nodes per piece,",
        "each coefficient rounded to the nearest double.  M(y) = Lambda(y) - (gamma + ln 2)/2",
        "with Lambda(y) = y^2 2F2(1, 1; 3/2, 2; -y^2).  Row k of LOG_MOMENT and of DAWSON,",
        f"piece k, holds the y with k <= {PIECES} y / CUT < k + 1: it is c_0..c_{DEGREE} of",
        f"sum_j c_j T_j(t), t = 2 ({PIECES} y / CUT - k) - 1.  Fit errors, the worst",
        f"|delta| / max(1, |v|) of the rounded series summed exactly on {GRID + 1} points per",
        f"piece: M {error_m:.2e}, F {error_f:.2e}.  PIECES[k](t) returns (M, F) on piece k by",
        "the Clenshaw recurrence over row k, unrolled on floats; asymptotic(z) returns the",
        f"far series of E ln|1 + eps Z| in z = eps^2, k = 1..{TERMS}, and its slope, by Horner,",
        "unrolled.  Do not edit: run the script again (``--check`` compares).",
        '"""',
        "",
        f"CUT = {CUT!r}",
        *_rows("LOG_MOMENT", log_moment),
        *_rows("DAWSON", dawson),
    ]
    for k, (m_row, f_row) in enumerate(zip(log_moment, dawson)):
        lines += ["", "", *_piece(k, m_row, f_row)]
    lines += ["", "", "PIECES = (" + ", ".join(f"_piece_{k}" for k in range(PIECES)) + ")", "", "", *_asymptotic()]
    return "\n".join(lines) + "\n"


def committed(text):
    """The tables, fit errors and mpmath version that a generated module's text records."""
    values = {
        target.id: ast.literal_eval(node.value)
        for node in ast.parse(text).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("LOG_MOMENT", "DAWSON")
    }
    facts = _FACTS.search(text)
    if facts is None or len(values) != 2:
        raise ValueError(f"{OUT} does not hold the header and tables this script writes")
    version, *errors = facts.groups()
    return [values["LOG_MOMENT"], values["DAWSON"]], [float(e) for e in errors], version


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="re-emit from the committed tuples, exit 1 on any difference")
    args = parser.parse_args(argv)
    if args.check:
        text = OUT.read_text(encoding="utf-8")
        if emit(*committed(text)) != text:
            print(f"{OUT} differs from the module its own tables emit: run python3 bench/chebyshev.py")
            return 1
        print(f"{OUT} is the module its tables emit")
        return 0
    tables, errors, version = fit()
    OUT.write_text(emit(tables, errors, version), encoding="utf-8")
    print(f"wrote {OUT}: fit error M {errors[0]:.2e}, F {errors[1]:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
