"""The float pair path: one pair integral of two Gaussian bumps, on Python floats.

This module imports no numpy.  It holds what the observables read
(``distance``, ``causal`` and the ``sweep`` command) and what every
kernel table of :mod:`ncmink.integrate` maps over its pairs: the kernel
kinds, the quadrature configuration and result types, and the closed
forms of the LIGHTCONE and LOGABS pair integrals.

The relative coordinate y = x - x' of two normalized bumps carries a
Gaussian of combined width b = a1 a2 / (a1 + a2) centered at the center
difference (delta, R-vector).  Both kernels depend on (t, r) only through
t - r and t + r, so their average over the relative time is closed-form,
and Stein's identity reduces the remaining radial average to erf or erfc
and Gaussian terms for the light cone, and to the Gaussian log moment
plus a Dawson difference quotient for the log kernel.  The log moment and
Dawson's integral come from one function (``_lambda_f``): near the origin
the Clenshaw sum of the Chebyshev piece that holds |y|, far from it the
asymptotic series by Horner, both generated as straight-line float code
(``_lambda_table``), and math.log, so they do not depend on numpy's SIMD
loops.  A log pair's quotient branch is chosen first and only the log
moments it reads are evaluated.  Every pair, in a kernel table or alone,
is one Python-float evaluation (``_pair_integral``) through the
process-wide memo ``_pair_cached``, so a value depends only on its own
pair.  Bumps enter as (center, width) rows, and two rows meet
in ``_geometry``, the one geometry arithmetic (no BLAS), which the
observables' one pair (``_bump_geometry``), every kernel table and the
momentum route's term pairs share: a pair's value is the same bits on
every path and on any BLAS kernel, and a frame would enter there.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from ._lambda_table import CUT, PIECES, asymptotic


class KernelKind(Enum):
    LIGHTCONE = "lightcone"
    LOGABS = "logabs"
    CONSTANT = "constant"

    # members are singletons compared by identity, so the identity hash is
    # consistent with equality, and it is C code where Enum's is Python: a
    # kind is part of every key of the pair memo
    __hash__ = object.__hash__


class Method(Enum):
    MOMENTUM = "momentum"
    MC8D = "mc8d"
    ANALYTIC = "analytic"


@dataclass(frozen=True)
class QuadratureConfig:
    """Knobs for the momentum-space quadrature and the Monte Carlo oracle.

    ``rel_tol``, ``abs_tol`` and ``max_evals`` steer the adaptive panels of
    :func:`momentum_form` only; position-space pair integrals are closed
    forms and do not read them.  ``mc_samples`` and ``seed`` drive
    :func:`mc_oracle`.
    """

    rel_tol: float = 1e-3
    abs_tol: float = 1e-10
    max_evals: int = 20_000_000
    mc_samples: int = 20_000
    seed: int = 20260809

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        # not >= rather than <, so that a NaN budget is rejected too
        if not self.max_evals >= 1:
            raise ValueError("max_evals must be at least 1")
        for name in ("mc_samples", "seed"):
            value = getattr(self, name)
            # a float count fails in range(), and a float or bool seed
            # would be truncated silently into another seed's stream
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.mc_samples < 10_000:
            raise ValueError("mc_samples must be at least 10^4 for oracle use")
        # the Philox key holds the seed as a 64-bit word, so each seed in
        # range names one stream
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed!r}")


@dataclass(frozen=True)
class QuadratureResult:
    """Value with an error estimate and provenance.

    Only :func:`momentum_form` (MOMENTUM) and :func:`mc_oracle` (MC8D)
    compute an error, an eval count or a convergence flag.  For MC8D the
    error is a 95% confidence half-width and ``evals`` the number of
    samples behind the estimate and that half-width, whether or not the
    kernel read a drawn displacement; for MOMENTUM the error is the sum of
    per-panel differences between the 15- and the 7-node Gauss-Legendre
    rules plus eps times the integrated magnitude of the cancelling sum
    over term pairs, the scale of that sum's rounding.  The closed-form
    results that keep this shape (``bilinear_form``, ``causal`` and the
    Weyl functionals ``eval_omega``, ``eval_tau``, ``causal_via_weyl``) are
    ANALYTIC: exact up to floating-point rounding, error 0, evals 0,
    converged.  The state
    functions below them (``sigma``, ``mu2``, ...) return plain numbers.
    """

    value: complex
    error_estimate: float
    method: Method
    evals: int
    converged: bool = True


def _analytic(value):
    return QuadratureResult(value, 0.0, Method.ANALYTIC, 0, True)


EULER_GAMMA = 0.5772156649015329

# pieces of the near branch per unit of |y|
_SCALE = len(PIECES) / CUT

# Below this half-width h of the Dawson difference quotient, and while
# x h <= 1 about its midpoint x, the Taylor series in h replaces the
# cancelling direct difference; 10 odd terms leave a remainder below 1e-17.
_TAYLOR_CUT = 0.3
_TAYLOR_TERMS = 10
# (2n, 2n + 2, n!) for the odd n < 2 _TAYLOR_TERMS - 1, and the last odd n!,
# as floats: a float divided by the int n! divides by n! rounded to a
# float, so these constants keep the quotient's bits
_TAYLOR_STEPS = tuple((2.0 * n, 2.0 * n + 2.0, float(math.factorial(n))) for n in range(1, 2 * _TAYLOR_TERMS - 1, 2))
_LAST_FACTORIAL = float(math.factorial(2 * _TAYLOR_TERMS - 1))
# Below this s(R + delta), which bounds |s(R - delta)| too, the light-cone
# step is an erf difference: erf(x) < erfc(x) for x < 0.477, so it rounds
# less, and erfc of two tiny arguments rounds to 1 and the step to 0.
_ERF_CUT = 0.5


def _lambda_f(mu, s, b):
    """L(mu) = E ln|mu + sigma Z| and Dawson's F(mu s) at sigma = 1/sqrt(b), s = sqrt(b/2), on Python floats.

    With y = mu s = mu / (sigma sqrt 2): near (|y| < CUT, that is
    |mu| / sigma < 9) L = ln sigma + M(y), with ln sigma
    = -ln(b)/2 from the exact b, and M(y) = E ln|sqrt(2) y + Z| =
    Lambda(y) - (gamma + ln 2)/2, Lambda(y) = y^2 2F2(1, 1; 3/2, 2; -y^2),
    even, F odd and M' = 2F: M and F come from ``PIECES[k]``, the Clenshaw
    recurrence over row k of the Chebyshev table, with k the piece that
    holds |y|.  Far, L = ln|mu| plus the asymptotic series in
    z = (sigma / mu)^2 and F = 1/(2y) times its slope, from
    ``asymptotic``, its Horner sum.  Both are generated straight-line code
    (``_lambda_table``, written by ``bench/chebyshev.py``) that keeps M and
    F, or the series and its slope, in separate floats.  Only the branch
    that is returned runs.  The code is +, -, *, /, comparisons and
    math.log, each one correctly rounded step on Python floats, so a
    moment is the same bits on any host.  Returns (L, F).
    """
    y = mu * s
    if abs(y) < CUT:
        # piece k of |y|, and t in [-1, 1]
        u = abs(mu) * s * _SCALE
        k = min(int(u), len(PIECES) - 1)
        M, F = PIECES[k](2.0 * (u - k) - 1.0)
        L = -0.5 * math.log(b) + M
    else:
        # w = 1/(2|y|) and z = (sigma / mu)^2 = 2 w^2, which does not overflow
        w = 1.0 / (2.0 * abs(y))
        series, slope = asymptotic(2.0 * (w * w))
        L, F = math.log(abs(mu)) + series, w * slope
    # F is odd: the sign of y, 0 at y = 0, times F(|y|)
    return L, ((y > 0.0) - (y < 0.0)) * F


def _lightcone_pair(b, delta, R):
    """Closed-form LIGHTCONE pair integral for delta >= 0.

    Phi(y-) + Phi(y+) - 1 - [phi(y-) - phi(y+)] / (y+ - y-) with
    y+- = sqrt(b) (delta +- R).  Since phi(y+) = phi(y-) e^(-z) with
    z = 2 b delta R, the divided difference is
    phi(y-) sqrt(b) delta (1 - e^(-z)) / z, which expm1 evaluates without
    cancelling for small z or overflowing for large z.

    The step Phi(y-) + Phi(y+) - 1 is erfc(s (R - delta))/2 -
    erfc(s (R + delta))/2, s = sqrt(b/2), except where s (R + delta) <
    ``_ERF_CUT``: there both arguments are small, erfc of each rounds to
    about 1, and the step is [erf(s (R + delta)) - erf(s (R - delta))]/2,
    which keeps its sign and relative accuracy down to width 1e-150.

    Accuracy limit, as ``bench/accuracy.py`` measures it against mpmath:
    far-spacelike pairs lose relative accuracy as delta / R falls, because
    the erfc step and the slope cancel.  Of its 1000 pairs with sqrt(b) R
    in [12, 20] and delta / R in [1e-8, 0.3], 533 are off by more than
    1e-12 relative and the worst by 2.2e-8 (absolute errors below 6e-34);
    b = 1.07e6, delta = 1.09e-6, R = 0.023 (value 5.5e-127) is off by
    3.8e-12.  Its other regimes are within 6e-13 relative.
    """
    s = math.sqrt(0.5 * b)
    lower, upper = s * (R - delta), s * (R + delta)
    step = 0.5 * (math.erf(upper) - math.erf(lower)) if upper < _ERF_CUT else 0.5 * math.erfc(lower) - 0.5 * math.erfc(upper)
    z = 2.0 * b * delta * R
    ratio = -math.expm1(-z) / z if z > 0.0 else 1.0
    u = s * (delta - R)
    # exp(-u^2) is exactly 0.0 past |u| = 27.3; testing |u| first keeps
    # u ** 2 from overflowing
    gauss = 0.0 if abs(u) > 40.0 else math.exp(-(u**2))
    slope = delta * s / math.sqrt(math.pi) * gauss * ratio
    return step - slope


def _taylor_quotient(h, x, f_mid):
    """Dawson's difference quotient [F(x + h) - F(x - h)] / 2h as its Taylor series, from F(x) alone, on floats.

    sum_j F^(2j+1)(x) h^2j / (2j+1)!, j < ``_TAYLOR_TERMS``, with the
    derivatives from F' = 1 - 2xF and F^(n+1) = -2x F^(n) - 2n F^(n-1),
    two recurrence steps per term, each term divided by the float n!.
    """
    # g = F^(n)(x) h^(n-1) and lower = F^(n-1)(x) h^n stay bounded
    lower, g = h * f_mid, 1.0 - 2.0 * x * f_mid
    hh, c = h * h, -2.0 * x * h
    slope = 0.0
    for two_n, two_n_next, factorial in _TAYLOR_STEPS:
        slope += g / factorial
        lower, g = hh * g, c * g - two_n * lower
        lower, g = hh * g, c * g - two_n_next * lower
    return slope + g / _LAST_FACTORIAL


def _logabs_pair(b, delta, R):
    """Closed-form LOGABS pair integral for delta >= 0, on Python floats.

    L(delta - R) + L(delta + R) + [F(x+) - F(x-)] / (x+ - x-), summed
    exactly rounded, with x+- = x +- h, x = delta sqrt(b/2),
    h = R sqrt(b/2), L the log moment at sigma = 1/sqrt(b) and F Dawson's
    integral.  For small h the divided difference is its Taylor series
    sum_j F^(2j+1)(x) h^2j / (2j+1)!, with the derivatives from
    F' = 1 - 2xF and F^(n+1) = -2x F^(n) - 2n F^(n-1).  The quotient's
    branch is chosen first, so only the moments it reads are evaluated:
    L and F at delta -+ R, and F at delta for the Taylor series (whose L
    there goes unread).
    """
    s = math.sqrt(0.5 * b)
    h, x = R * s, delta * s
    # the recurrence amplifies rounding by about (2 x h)^2j in term j
    direct = h > _TAYLOR_CUT or x * h > 1.0
    (l_minus, f_minus), (l_plus, f_plus) = _lambda_f(delta - R, s, b), _lambda_f(delta + R, s, b)
    quotient = (f_plus - f_minus) / (2.0 * h) if direct else _taylor_quotient(h, x, _lambda_f(delta, s, b)[1])
    return math.fsum((l_minus, l_plus, quotient))


def _reduce_2d(kind, b, delta, R):
    """Exact LIGHTCONE or LOGABS pair integral at separations delta >= 0 and R.

    The relative position has per-axis variance 1/(2b); its radius has the
    density (r/R) sqrt(b/pi) [exp(-b(r-R)^2) - exp(-b(r+R)^2)], and both
    time-averaged kernels are even in r, so the pair integral is
    E[(X/R) K(X)] with X ~ N(R, 1/(2b)).  Stein's identity
    E[(X - R) h(X)] = Var(X) E[h'(X)] turns that into the closed forms of
    ``_lightcone_pair`` and ``_logabs_pair``, exact up to rounding, on
    Python floats.  Only the memo below calls this, for both kernels.  The
    name, the ``kind`` argument and the (value, 0.0, 0, True) tuple are
    kept because the benchmark's tracer (``perfbench/tracer.py``) wraps
    this function by name and reads all three.
    """
    pair = _lightcone_pair if kind is KernelKind.LIGHTCONE else _logabs_pair
    return pair(b, delta, R), 0.0, 0, True


@lru_cache(maxsize=100_000)
def _pair_cached(kind, b, delta, R):
    """Process-wide memo of the pair integral ``_reduce_2d``, keyed on (kind, b, |delta|, R).

    The one memo for both kernels: it stores the value, a float.  A
    repeated key, within one kernel table or across tables and calls, is
    served from here; ``perfbench/`` clears and wraps it by name.
    """
    return _reduce_2d(kind, b, delta, R)[0]


def _pair_integral(kind, b, delta, R):
    """Pair integral of one pair (b, delta, R) of Python floats.

    The one way a pair is evaluated: ``integrate._kernel_table`` calls it
    for the entries of a table, and the observables for their one pair,
    so a pair's value is the same bits on either path, the sign of a zero
    included.  CONSTANT is the exact normalization 1.  LIGHTCONE with
    coincident time centers vanishes by antisymmetry (odd integrand in the
    relative time), and a negative time separation is folded to a positive
    one, which makes the antisymmetry under argument swap exact.  LOGABS
    depends on |delta| only; its self pair (delta = R = 0) is the closed
    form 1 - gamma - ln(2b).  Every other pair looks up
    (kind, b, |delta|, R) in the one process-wide memo ``_pair_cached``.
    A log pair whose spatial separation overflowed to inf raises
    ValueError, before the log moment would turn it into a value that is
    not finite.
    """
    if kind is KernelKind.LIGHTCONE:
        if delta == 0.0:
            return 0.0
        value = _pair_cached(kind, b, abs(delta), R)
        return value if delta > 0.0 else -value
    if kind is KernelKind.CONSTANT:
        return 1.0
    if delta == 0.0 and R == 0.0:
        return 1.0 - EULER_GAMMA - math.log(2.0 * b)
    if R == math.inf:
        raise ValueError("the spatial separation of the bump centers is not finite: inf")
    return _pair_cached(kind, b, abs(delta), R)


def _bump_row(bump):
    return (*bump.center.components, bump.width)


def _geometry(p, q):
    """Combined width b, time separation delta and spatial radius R of bump rows p and q.

    p and q are (t, x, y, z, width) rows of Python floats.  This is the one
    place where two bumps meet, so a frame, should one enter the pair
    integrals, enters here.  R^2 is d1 d1 + d2 d2 + d3 d3 summed left to
    right, with no BLAS: every operation is one correctly rounded IEEE step
    on floats, so R is the same bits whatever BLAS kernel the host selects,
    and an overflowing separation is inf without a warning.  Swapping p and
    q keeps b and R bit for bit and negates delta, a zero's sign aside.
    """
    t_p, x_p, y_p, z_p, a_p = p
    t_q, x_q, y_q, z_q, a_q = q
    d1, d2, d3 = x_p - x_q, y_p - y_q, z_p - z_q
    return a_p * a_q / (a_p + a_q), t_p - t_q, math.sqrt(d1 * d1 + d2 * d2 + d3 * d3)


def _bump_geometry(bump_p, bump_q):
    """``_geometry`` of two bumps."""
    return _geometry(_bump_row(bump_p), _bump_row(bump_q))
