"""The log pair's straight-line float code against its reference definitions, bit for bit.

Three references are kept here:

* ``reference_lambda_f``: the log moment and Dawson's F as one complex
  Clenshaw recurrence over the Chebyshev rows of ``_lambda_table`` (M's
  coefficient plus i times F's) and one complex Horner over the far series
  (the coefficient -(2k-1)!!/(2k) plus i times its slope's (2k-1)!!);
* ``reference_taylor_quotient``: the Taylor quotient as a loop over n that
  divides each odd term by the int ``math.factorial(n)``;
* ``reference_log_quadratic``: the log quadratic form as three bump pairs
  through ``_geometry``, a bump paired with itself included.

Each check compares ``float.hex`` strings, so a signed zero or a NaN that
differs fails.  The inputs are seeded, and the float path needs neither
numpy nor pytest:

    PYTHONPATH=src python3 tests/test_log_pair_bits.py

runs every check under any Python 3.10 or later.
"""

import importlib.util
import math
import random
from pathlib import Path

from ncmink._lambda_table import CUT, DAWSON, LOG_MOMENT, PIECES, asymptotic
from ncmink.geometry import _log_quadratic
from ncmink.minkowski import GaussianBump
from ncmink.pair import EULER_GAMMA, KernelKind, _bump_geometry, _lambda_f, _logabs_pair, _pair_integral, _taylor_quotient

_SPEC = importlib.util.spec_from_file_location("chebyshev", Path(__file__).resolve().parents[1] / "bench" / "chebyshev.py")
chebyshev = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(chebyshev)

_CLENSHAW = tuple(tuple(map(complex, m[::-1], f[::-1])) for m, f in zip(LOG_MOMENT, DAWSON))
_ASYMPTOTIC = (*(complex(-math.prod(range(1, 2 * k, 2)) / (2.0 * k), math.prod(range(1, 2 * k, 2))) for k in range(30, 0, -1)), 1j)
_SCALE = len(_CLENSHAW) / CUT


def _clenshaw(k, t):
    *cs, c_0 = _CLENSHAW[k]
    t2 = t + t
    b1 = b2 = 0j
    for c in cs:
        b1, b2 = c + (b1 * t2 - b2), b1
    return c_0 + (b1 * t - b2)


def _horner(z):
    total = 0j
    for c in _ASYMPTOTIC:
        total = total * z + c
    return total


def reference_lambda_f(mu, s, b):
    y = mu * s
    if abs(y) < CUT:
        u = abs(mu) * s * _SCALE
        k = min(int(u), len(_CLENSHAW) - 1)
        total = _clenshaw(k, 2.0 * (u - k) - 1.0)
        L, F = -0.5 * math.log(b) + total.real, total.imag
    else:
        w = 1.0 / (2.0 * abs(y))
        total = _horner(2.0 * (w * w))
        L, F = math.log(abs(mu)) + total.real, w * total.imag
    return L, ((y > 0.0) - (y < 0.0)) * F


def reference_taylor_quotient(h, x, f_mid):
    lower, g = h * f_mid, 1.0 - 2.0 * x * f_mid
    slope = 0.0
    for n in range(1, 20):
        if n % 2:
            slope += g / math.factorial(n)
        lower, g = h * h * g, -2.0 * x * h * g - 2.0 * n * lower
    return slope


def reference_log_quadratic(chi_p, chi_q):
    self_p, self_q, cross = (
        _pair_integral(KernelKind.LOGABS, *_bump_geometry(p, q)) for p, q in ((chi_p, chi_p), (chi_q, chi_q), (chi_p, chi_q))
    )
    return self_p + self_q - 2.0 * cross


def _bits(values):
    return tuple(map(float.hex, values))


def _assert_moments_match(mu, s, b):
    assert _bits(_lambda_f(mu, s, b)) == _bits(reference_lambda_f(mu, s, b)), (mu, s, b)


def _outcome(function, *args):
    """The bits of function(*args), or the message of the ValueError it raised."""
    try:
        return _bits([function(*args)])
    except ValueError as error:
        return str(error)


def _log_uniform(rng, low, high):
    return 10.0 ** rng.uniform(low, high)


def _mu_near(y, s, hit):
    """The mu nearest y / s, within 64 ulps, for which hit(mu) holds, or None."""
    up = down = y / s
    for _ in range(65):
        for mu in (up, down):
            if hit(mu):
                return mu
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
    return None


def _piece_inputs():
    """(mu, s, b) at t = 0 and at both edges of every piece, for 40 widths b."""
    rng = random.Random(20261022)
    found = {(k, where): 0 for k in range(len(PIECES)) for where in ("t = 0", "lower", "upper")}
    for b in [2.0, 0.5, 1e-300, 1e300, *(_log_uniform(rng, -300.0, 300.0) for _ in range(36))]:
        s = math.sqrt(0.5 * b)

        def u(mu):
            return abs(mu) * s * _SCALE

        for k in range(len(PIECES)):
            targets = {
                "t = 0": (k + 0.5, lambda mu, k=k: 2.0 * (u(mu) - k) - 1.0 == 0.0),
                "lower": (k, lambda mu, k=k: min(int(u(mu)), len(PIECES) - 1) == k and int(u(math.nextafter(mu, 0.0))) < k),
                "upper": (k + 1, lambda mu, k=k: int(u(mu)) == k and int(u(math.nextafter(mu, math.inf))) > k),
            }
            for where, (target, hit) in targets.items():
                mu = _mu_near(target / _SCALE, s, hit) if target else 0.0
                if mu is not None:
                    found[k, where] += 1
                    yield from ((mu, s, b), (-mu, s, b))
    # every piece is reached at both of its edges, and at t = 0 but for
    # piece 5: no float y has y SCALE = 5.5, so there t = 0 is checked on the
    # piece alone (next test)
    assert [key for key, count in found.items() if not count] == [(5, "t = 0")], found


def test_every_piece_at_t_zero_and_both_edges():
    for mu, s, b in _piece_inputs():
        _assert_moments_match(mu, s, b)


def test_each_generated_piece_is_its_complex_recurrence():
    rng = random.Random(7)
    ts = [-1.0, -0.0, 0.0, 1.0, math.nextafter(-1.0, 0.0), math.nextafter(1.0, 0.0), *(rng.uniform(-1.0, 1.0) for _ in range(500))]
    for k, piece in enumerate(PIECES):
        for t in ts:
            total = _clenshaw(k, t)
            assert _bits(piece(t)) == _bits((total.real, total.imag)), (k, t)


def test_the_generated_far_series_is_its_complex_horner():
    rng = random.Random(8)
    # z = 2 w^2 with w = 1 / (2 |y|) <= 1 / (2 CUT): down to underflow and 0
    z_max = 2.0 * (0.5 / CUT) ** 2
    zs = [0.0, 5e-324, z_max, *(_log_uniform(rng, -330.0, math.log10(z_max)) for _ in range(2000))]
    for z in zs:
        total = _horner(z)
        assert _bits(asymptotic(z)) == _bits((total.real, total.imag)), z


def test_moments_at_the_cut_at_zero_and_far_out():
    rng = random.Random(9)
    for b in [2.0, 1e-300, 1e300, *(_log_uniform(rng, -300.0, 300.0) for _ in range(200))]:
        s = math.sqrt(0.5 * b)
        for y in (math.nextafter(CUT, 0.0), CUT, math.nextafter(CUT, math.inf)):
            mu = _mu_near(y, s, lambda mu, y=y: abs(mu) * s == y)
            if mu is not None:
                _assert_moments_match(mu, s, b)
                _assert_moments_match(-mu, s, b)
        for mu in (0.0, -0.0):
            _assert_moments_match(mu, s, b)
    # mu = +-1e300 at s = 1: |y| = 1e300, where z = 2 w^2 underflows to 0
    _assert_moments_match(1e300, 1.0, 2.0)
    _assert_moments_match(-1e300, 1.0, 2.0)


def test_moments_on_seeded_inputs_near_and_far():
    """60 000 seeded (mu, b): b from 1e-300 to 1e300, |y| from 1e-320 to 1e300, either sign."""
    rng = random.Random(10)
    checked = 0
    while checked < 60_000:
        b = _log_uniform(rng, -300.0, 300.0)
        s = math.sqrt(0.5 * b)
        # half the inputs near (|y| < CUT), half far
        y = rng.uniform(0.0, CUT) if checked % 2 else _log_uniform(rng, math.log10(CUT), 300.0)
        if checked % 7 == 0:
            y = _log_uniform(rng, -320.0, 300.0)
        mu = rng.choice((1.0, -1.0)) * y / s
        if math.isfinite(mu):
            _assert_moments_match(mu, s, b)
            checked += 1


def test_taylor_quotient_matches_the_factorial_loop():
    rng = random.Random(11)
    for _ in range(20_000):
        h = 0.0 if rng.random() < 0.05 else min(0.3, _log_uniform(rng, -300.0, math.log10(0.3)))
        # x h <= 1, as where the pair takes the series
        x = rng.uniform(-1.0, 1.0) * (1.0 / h if h else 1e3) * rng.choice((1.0, 1e-3, 1e-8))
        f_mid = _lambda_f(x, 1.0, 2.0)[1] if rng.random() < 0.5 else rng.uniform(-1.0, 1.0)
        assert _bits([_taylor_quotient(h, x, f_mid)]) == _bits([reference_taylor_quotient(h, x, f_mid)]), (h, x, f_mid)


def test_logabs_pairs_match_the_references():
    """The package's log pair, direct and Taylor quotients, equals the one the references compose."""
    rng = random.Random(12)
    for _ in range(10_000):
        b = _log_uniform(rng, -300.0, 300.0)
        s = math.sqrt(0.5 * b)
        delta, R = (rng.choice((0.0, _log_uniform(rng, -3.0, 2.0))) / s for _ in range(2))
        if not (math.isfinite(delta) and math.isfinite(R)):
            continue
        h, x = R * s, delta * s
        (l_minus, f_minus), (l_plus, f_plus) = reference_lambda_f(delta - R, s, b), reference_lambda_f(delta + R, s, b)
        if h > 0.3 or x * h > 1.0:
            quotient = (f_plus - f_minus) / (2.0 * h)
        else:
            quotient = reference_taylor_quotient(h, x, reference_lambda_f(delta, s, b)[1])
        assert _bits([_logabs_pair(b, delta, R)]) == _bits([math.fsum((l_minus, l_plus, quotient))]), (b, delta, R)


def test_self_pairs_need_no_rows():
    """Widths 1e-150 to 1e150 and centers up to +-1e300: the width-only self pairs are the three-pair form."""
    rng = random.Random(13)
    widths = [1e-150, 1e150, 1.0, *(_log_uniform(rng, -150.0, 150.0) for _ in range(3000))]
    for a_p in widths:
        a_q = rng.choice(widths)
        center_p, center_q = ([rng.choice((-1.0, 1.0)) * _log_uniform(rng, -300.0, 300.0) for _ in range(4)] for _ in range(2))
        if rng.random() < 0.3:
            center_q = [c + rng.uniform(-1.0, 1.0) for c in center_p]
        chi_p, chi_q = GaussianBump(center_p, a_p), GaussianBump(center_q, a_q)
        for p, q in ((chi_p, chi_q), (chi_p, chi_p)):
            assert _outcome(_log_quadratic, p, q) == _outcome(reference_log_quadratic, p, q), (p, q)


def test_the_generated_module_is_what_its_tables_emit():
    """``bench/chebyshev.py --check`` passes on the committed module and fails with two statements swapped."""
    text = chebyshev.OUT.read_text(encoding="utf-8")
    assert chebyshev.emit(*chebyshev.committed(text)) == text
    assert chebyshev.main(["--check"]) == 0
    lines = text.splitlines(keepends=True)
    at = lines.index("def _piece_3(t):\n") + 5
    lines[at : at + 2] = lines[at + 1], lines[at]
    swapped = "".join(lines)
    assert swapped != text and chebyshev.emit(*chebyshev.committed(swapped)) != swapped


if __name__ == "__main__":
    import sys

    for name, check in sorted(globals().items()):
        if name.startswith("test_"):
            check()
            print(f"ok  {name}")
    print(f"all checks passed under Python {sys.version.split()[0]}")
