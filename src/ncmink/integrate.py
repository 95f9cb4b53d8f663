"""Bilinear forms of Gaussian smearings against Lorentzian kernels.

Every form treated here is an 8-dimensional double integral

    B = integral f(x) K(x - x') g(x') d4x d4x'

with f, g finite sums of covector-weighted normalized Gaussians and K one of
the kernels in :mod:`ncmink.kernels`.  Three evaluation routes are provided:

* ``pair_integrals`` / ``bilinear_form``: exact closed forms.  The relative
  coordinate y = x - x' carries a Gaussian of combined width
  b = a1 a2 / (a1 + a2) centered at the center difference (delta, R-vector).
  Both kernels depend on (t, r) only through t - r and t + r, so their
  average over the relative time is closed-form, and Stein's identity
  reduces the remaining radial average to erf or erfc and Gaussian terms
  for the light cone, and to the Gaussian log moment plus a Dawson
  difference quotient for the log kernel.  The log moment and Dawson's
  integral come from one function (``_lambda_f``) whose code is the same
  for one float and for an array: a Clenshaw sum over a generated
  piecewise Chebyshev table near the origin, the asymptotic series far
  from it, and math.log per element, so they do not depend on numpy's
  SIMD loops.  The log pairs of a table are evaluated in one array pass
  with no memo, and a value depends only on its own pair; one log pair
  is evaluated on Python floats with the same bits.  Either way a pair's
  quotient branch is chosen first and only the log moments it reads are
  evaluated.  The light-cone pairs go through a process-wide memo.
  Bumps enter as (center, width) rows, the ``bump_rows`` of a smearing or
  the ``bump_arrays`` of single bumps, and ``pair_geometry`` of two rows is
  where they meet.  One pair of bumps, which is what the observables of
  :mod:`ncmink.geometry` compute, skips the arrays: ``_bump_geometry`` and
  ``_pair_integral`` take it on Python floats, through the same geometry
  arithmetic (``_geometry``, which uses no BLAS) and the same closed forms,
  so a pair's value is the same bits on either path and on any BLAS
  kernel; a frame would enter through that one geometry arithmetic.  Forms
  read their pair integrals from one kernel table over the distinct bump
  rows of their arguments, its upper triangle mirrored, and the
  coefficient times table products of all the forms of a call in one
  array pass (``_products``); ``bilinear_form`` is the one-pair case.
* ``mc_oracle``: an independent brute-force 8D Monte Carlo estimate with
  importance sampling from the bump mixtures.  It draws a component pair and
  then y = x - x' from that pair's exact law, the Gaussian convolution of
  the two bumps, and uses no reduction formula.  Sample streams are
  counter-based (Philox keyed per block), so results are bit-identical for a
  fixed seed regardless of how blocks are distributed over workers.  With a
  single pair there is nothing to draw, and a block advances its stream
  past the pair uniforms to the same place, so the estimate is the same.
  A kernel that reads no displacement (the constant one) draws none: the
  normals are the last draw of a block's stream, so nothing else moves.
* ``momentum_form``: the momentum-space route through the radial correlation
  kernel e^{-i|p|(t-t')} [1 + i|p|(t-t')] / (4|p|^3), reduced analytically to
  a single oscillatory radial integral.  It requires mean-zero smearings;
  the infrared 1/|p| piece then cancels exactly and is removed analytically
  before quadrature.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial
from itertools import accumulate, repeat

import numpy as np

from ._lambda_table import CUT, DAWSON, LOG_MOMENT
from .kernels import KernelKind, kernel_values
from .testfn import mean


# exp(-41.5) ~ 1e-18: Gaussian tails beyond this momentum are below the
# round-off floor of every tolerance used in the package.
_TAIL_EXPONENT = 41.5

_EPS = float(np.finfo(float).eps)
_MC_BLOCK_SIZE = 8192
_MAX_ROUNDS = 400


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
        if self.max_evals < 1:
            raise ValueError("max_evals must be at least 1")
        for name in ("mc_samples", "seed"):
            value = getattr(self, name)
            # a float count fails in range(), and a float or bool seed
            # would be truncated silently into another seed's stream
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.mc_samples < 10_000:
            raise ValueError("mc_samples must be at least 10^4 for oracle use")


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
    results that keep this shape (``bilinear_form``,
    ``gaussian_pair_reduce``, ``causal`` and the Weyl functionals
    ``eval_omega``, ``eval_tau``, ``causal_via_weyl``) are ANALYTIC: exact up
    to floating-point rounding, error 0, evals 0, converged.  The state
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

# E ln|1 + eps Z| = -sum_k (2k-1)!! eps^{2k} / (2k), k = 1..30: asymptotic,
# with its smallest omitted term below 1e-18 once |mu|/sigma >= 9, the cut
# of the far branch.  Each coefficient c_k carries mu dL/dmu of its term,
# (2k-1)!! (1 for k = 0, from ln|mu|), as its imaginary part, so that one
# complex Horner sums the series and its slope; highest order first.
_ASYMPTOTIC = (*(complex(-math.prod(range(1, 2 * k, 2)) / (2.0 * k), math.prod(range(1, 2 * k, 2))) for k in range(30, 0, -1)), 1j)
# the Clenshaw rows of each near piece, c_DEGREE first: M's coefficient plus
# i times F's; and, as columns, the rows of the piece of each element of an
# int array
_CLENSHAW = tuple(tuple(map(complex, m[::-1], f[::-1])) for m, f in zip(LOG_MOMENT, DAWSON))
_piece_rows = partial(np.array(_CLENSHAW).T.take, axis=1)
# Below this half-width h of the Dawson difference quotient, and while
# x h <= 1 about its midpoint x, the Taylor series in h replaces the
# cancelling direct difference; 10 odd terms leave a remainder below 1e-17.
_TAYLOR_CUT = 0.3
_TAYLOR_TERMS = 10
# Below this s(R + delta), which bounds |s(R - delta)| too, the light-cone
# step is an erf difference: erf(x) < erfc(x) for x < 0.477, so it rounds
# less, and erfc of two tiny arguments rounds to 1 and the step to 0.
_ERF_CUT = 0.5


# math.log of each element of an array: numpy's own log rounds differently
# on some hosts
_logs = np.vectorize(math.log, otypes=[float])


def _lambda_f(mu, s, b, log, rows):
    """L(mu) = E ln|mu + sigma Z| and Dawson's F(mu s) at sigma = 1/sqrt(b), s = sqrt(b/2), on floats or arrays.

    With y = mu s = mu / (sigma sqrt 2): near (|y| < CUT, that is
    |mu| / sigma < 9) L = ln sigma + M(y), with ln sigma
    = -ln(b)/2 from the exact b, and M(y) = E ln|sqrt(2) y + Z| =
    Lambda(y) - (gamma + ln 2)/2, Lambda(y) = y^2 2F2(1, 1; 3/2, 2; -y^2),
    even, F odd and M' = 2F: M and F come from one Clenshaw recurrence over
    the coefficients of the piece of the generated Chebyshev table
    (``_lambda_table``) that holds |y|.  Far, L = ln|mu| plus the
    asymptotic series in z = (sigma / mu)^2 and F = 1/(2y) times its slope,
    by Horner.  Both branches run on every element, and each is multiplied
    by 1.0 where it is selected and by 0.0 elsewhere, its argument held
    finite there: the near one reads |y| = 0 where far, so a y that
    overflowed reaches only the far one.  The code is +, -, *, /,
    comparisons and the two steps that differ between one float and an
    array, each per element: ``log``, math.log or ``_logs``, and ``rows``,
    a piece's rows (``_CLENSHAW.__getitem__``) or those of each element's
    piece (``_piece_rows``).  So floats and arrays give the same bits, on
    any host.  Returns (L, F).
    """
    y = mu * s
    near = 1.0 * (abs(y) < CUT)
    far = 1.0 - near
    # piece k of |y|, a count of comparisons (an int or an int array, 0
    # where u is nan), and t in [-1, 1]
    u = abs(near * mu) * s * (len(LOG_MOMENT) / CUT)
    k = sum(u >= edge for edge in range(1, len(LOG_MOMENT)))
    t = 2.0 * (u - k) - 1.0
    t2 = t + t
    # a complex times a real is exact per part, so M and F recur apart
    *cs, c_0 = rows(k)
    b1 = b2 = 0j
    for c in cs:
        b1, b2 = c + (b1 * t2 - b2), b1
    near_sum = c_0 + (b1 * t - b2)
    # 1/(2|y|) far, 0 near, and z = (sigma / mu)^2 = 2 w^2, which does not overflow
    w = far / (2.0 * abs(y) + near)
    z = 2.0 * (w * w)
    far_sum = 0j
    for c in _ASYMPTOTIC:
        far_sum = far_sum * z + c
    # ln b near, made ln sigma by the factor -1/2; ln|mu| far
    L = (far - 0.5 * near) * log(near * b + far * abs(mu)) + (near * near_sum.real + far_sum.real)
    # F is odd: the sign of y, 0 at y = 0, times F(|y|)
    return L, (1.0 * (y > 0.0) - (y < 0.0)) * (near * near_sum.imag + w * far_sum.imag)


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


def _half_widths(b, delta, R, sqrt):
    """s = sqrt(b/2), h = R s, x = delta s and whether the quotient is the direct difference.

    On floats or arrays alike, ``sqrt`` math.sqrt or np.sqrt to match, as
    in ``_geometry``: every step is correctly rounded, so both give the
    same bits.
    """
    s = sqrt(0.5 * b)
    h, x = R * s, delta * s
    # the recurrence amplifies rounding by about (2 x h)^2j in term j
    return s, h, x, (h > _TAYLOR_CUT) | (x * h > 1.0)


def _quotient(h, x, direct, f_minus, f_plus, f_mid):
    """Dawson's difference quotient [F(x + h) - F(x - h)] / 2h of one pair, on floats.

    The direct difference reads F(x -+ h), the Taylor series only F(x).
    """
    if direct:
        return (f_plus - f_minus) / (2.0 * h)
    # g = F^(n)(x) h^(n-1) and lower = F^(n-1)(x) h^n stay bounded
    lower, g = h * f_mid, 1.0 - 2.0 * x * f_mid
    slope = 0.0
    for n in range(1, 2 * _TAYLOR_TERMS):
        if n % 2:
            slope += g / math.factorial(n)
        lower, g = h * h * g, -2.0 * x * h * g - 2.0 * n * lower
    return slope


def _logabs_pairs(b, delta, R):
    """Closed-form LOGABS pair integrals for delta >= 0, elementwise over 1-d arrays, as a list.

    L(delta - R) + L(delta + R) + [F(x+) - F(x-)] / (x+ - x-), summed
    exactly rounded, with x+- = x +- h, x = delta sqrt(b/2),
    h = R sqrt(b/2), L the log moment at sigma = 1/sqrt(b) and F Dawson's
    integral.  For small h the divided
    difference is its Taylor series sum_j F^(2j+1)(x) h^2j / (2j+1)!, with
    the derivatives from F' = 1 - 2xF and F^(n+1) = -2x F^(n) - 2n F^(n-1).
    This is the table route: the quotient's branch of every pair is chosen
    on arrays, one ``_lambda_f`` array pass evaluates only the moments the
    quotients read, L and F at delta -+ R of every pair and F at delta of
    the Taylor ones, and the quotient is taken per pair on floats.  So a
    value depends only on its own (b, delta, R), and ``_logabs_pair``, the
    one-pair route on floats, gives the same bits.
    """
    n = len(b)
    s, h, x, direct = _half_widths(b, delta, R, np.sqrt)
    taylor = ~direct
    mus = np.concatenate([delta - R, delta + R, delta[taylor]])
    L, F = _lambda_f(mus, *(np.concatenate([v, v, v[taylor]]) for v in (s, b)), _logs, _piece_rows)
    f_mid = np.zeros(n)
    f_mid[taylor] = F[2 * n :]
    quotients = map(_quotient, h.tolist(), x.tolist(), direct.tolist(), F[:n].tolist(), F[n : 2 * n].tolist(), f_mid.tolist())
    return list(map(math.fsum, zip(L[:n].tolist(), L[n : 2 * n].tolist(), quotients)))


def _logabs_pair(b, delta, R):
    """``_logabs_pairs`` of one pair of Python floats, delta >= 0, bit for bit.

    The quotient's branch is chosen first, so only the moments it reads are
    evaluated: L and F at delta -+ R, and F at delta for the Taylor series
    (whose L there goes unread).
    """
    s, h, x, direct = _half_widths(b, delta, R, math.sqrt)
    mus = (delta - R, delta + R) if direct else (delta - R, delta + R, delta)
    (l_minus, f_minus), (l_plus, f_plus), *mid = (_lambda_f(mu, s, b, math.log, _CLENSHAW.__getitem__) for mu in mus)
    return math.fsum((l_minus, l_plus, _quotient(h, x, direct, f_minus, f_plus, mid[0][1] if mid else None)))


def _reduce_2d(kind, b, delta, R):
    """Exact LIGHTCONE pair integral at separations delta >= 0 and R.

    The relative position has per-axis variance 1/(2b); its radius has the
    density (r/R) sqrt(b/pi) [exp(-b(r-R)^2) - exp(-b(r+R)^2)], and both
    time-averaged kernels are even in r, so the pair integral is
    E[(X/R) K(X)] with X ~ N(R, 1/(2b)).  Stein's identity
    E[(X - R) h(X)] = Var(X) E[h'(X)] turns that into the closed forms of
    ``_lightcone_pair`` and ``_logabs_pairs``, exact up to rounding.  Only
    the light-cone memo below calls this, always with ``kind`` LIGHTCONE;
    the log pairs go to ``_logabs_pairs`` directly.  The ``kind`` argument,
    the name and the (value, 0.0, 0, True) tuple are kept because the
    benchmark's tracer (``perfbench/tracer.py``) wraps this function by name
    and reads all three.
    """
    return _lightcone_pair(b, delta, R), 0.0, 0, True


@lru_cache(maxsize=100_000)
def _pair_cached(b, delta, R):
    """Process-wide memo of the LIGHTCONE ``_reduce_2d``, keyed on (b, |delta|, R).

    A repeated key, within one call of ``pair_integrals`` or across calls,
    is served from here; ``perfbench/`` clears and wraps it by name.
    """
    return _reduce_2d(KernelKind.LIGHTCONE, b, delta, R)


def _pair_integral(kind, b, delta, R):
    """Pair integral of one pair (b, delta, R) of Python floats.

    The one-pair path, with no array set-up, for callers that compute one
    pair (``gaussian_pair_reduce`` and the observables); tables go through
    ``pair_integrals``, which calls this for its light-cone and closed log
    pairs, so a pair's value is the same bits on either path, the sign of
    a zero included.  CONSTANT is the exact normalization 1.  LIGHTCONE
    with coincident time centers vanishes by antisymmetry (odd integrand in
    the relative time), and a negative time separation is folded to a
    positive one, which makes the antisymmetry under argument swap exact;
    the pair looks up (b, |delta|, R) in the process-wide memo
    ``_pair_cached``.  LOGABS depends on |delta| only; its self pair
    (delta = R = 0) is the closed form 1 - gamma - ln(2b), and any other
    pair is ``_logabs_pair``: the table's arithmetic on floats, with the
    quotient's branch chosen first so that a direct difference evaluates
    two log moments and a Taylor series three.  A log pair whose spatial
    separation overflowed to inf raises ValueError, before the log moment
    would turn it into nan.
    """
    if kind is KernelKind.LIGHTCONE:
        if delta == 0.0:
            return 0.0
        value = _pair_cached(b, abs(delta), R)[0]
        return value if delta > 0.0 else -value
    if kind is KernelKind.CONSTANT:
        return 1.0
    if delta == 0.0 and R == 0.0:
        return 1.0 - EULER_GAMMA - math.log(2.0 * b)
    if R == math.inf:
        raise ValueError("the spatial separation of the bump centers is not finite: inf")
    return _logabs_pair(b, abs(delta), R)


def pair_integrals(kind, b, delta, R):
    """Pair integrals of normalized bumps, elementwise over equal-shape arrays.

    Each pair has combined width b, time separation delta and spatial
    separation R.  Every LIGHTCONE pair and every closed LOGABS self pair
    (delta = R = 0) is ``_pair_integral`` of that pair; the other LOGABS
    pairs come from one array pass of ``_logabs_pairs``, which keeps no
    memo.  Every value depends only on its own pair, never on the other
    elements of the call.
    """
    b, delta, R = (np.asarray(x, dtype=float) for x in (b, delta, R))
    if kind is KernelKind.CONSTANT:
        return np.ones(b.shape)
    if kind is KernelKind.LIGHTCONE:
        values = map(_pair_integral, repeat(kind), b.ravel().tolist(), delta.ravel().tolist(), R.ravel().tolist())
        return np.array(list(values)).reshape(b.shape)
    values = np.empty(b.shape)
    closed = (delta == 0.0) & (R == 0.0)
    values[closed] = [_pair_integral(kind, b_k, 0.0, 0.0) for b_k in b[closed].tolist()]
    rest = ~closed
    values[rest] = _logabs_pairs(b[rest], np.abs(delta[rest]), R[rest])
    return values


def bump_arrays(bumps):
    """The bump rows (n, 5) of a sequence of bumps, each (center, width).

    The layout of ``VectorSmearing.bump_rows``, the one shape in which
    ``pair_geometry`` and ``_kernel_table`` read bumps.
    """
    return np.array([_bump_row(bump) for bump in bumps], dtype=float).reshape(-1, 5)


def _bump_row(bump):
    return (*bump.center.components, bump.width)


def _geometry(p, q, sqrt):
    """Combined width b, time separation delta and spatial radius R of bumps p and q.

    p and q are (t, x, y, z, width), each entry a float or an array, the
    arrays broadcasting like numpy; ``sqrt`` is math.sqrt or np.sqrt to
    match.  This is the one place where two bumps meet, so a frame, should
    one enter the pair integrals, enters here.  R^2 is
    d1 d1 + d2 d2 + d3 d3 summed left to right, with no BLAS: every
    operation is one correctly rounded IEEE step, so floats and arrays give
    the same bits, whatever the batch and whatever BLAS kernel the host
    selects.
    """
    t_p, x_p, y_p, z_p, a_p = p
    t_q, x_q, y_q, z_q, a_q = q
    d1, d2, d3 = x_p - x_q, y_p - y_q, z_p - z_q
    return a_p * a_q / (a_p + a_q), t_p - t_q, sqrt(d1 * d1 + d2 * d2 + d3 * d3)


def pair_geometry(p, q):
    """Combined widths b and center displacements (delta t, spatial radius) of bump rows.

    p and q hold bump rows (center, width) in their last axis, of length 5,
    and broadcast like numpy.  The arithmetic is ``_geometry``, which
    ``_bump_geometry`` shares on floats: it uses no BLAS, and a frame would
    enter the pair integrals there, on both paths at once.
    """
    # the columns as the first axis; np.moveaxis would cost more than the
    # arithmetic on a small table
    p, q = (x.transpose(-1, *range(x.ndim - 1)) for x in (p, q))
    return _geometry(p, q, np.sqrt)


def _bump_geometry(bump_p, bump_q):
    """``pair_geometry`` of two bumps, as Python floats."""
    return _geometry(_bump_row(bump_p), _bump_row(bump_q), math.sqrt)


def _kernel_table(blocks, kinds):
    """Pair integrals among the distinct bumps of some blocks of bump rows, one matrix per kind.

    Each block is the bump rows (n, 5) of one smearing's terms (or of one
    bump), and bumps match on the exact bits of their row.  Returns each
    block's index array into the distinct bumps and, for each kind, the
    matrix K[i, j] of the pair integrals of distinct bumps i and j, from
    one ``pair_geometry`` over the upper triangle of their square
    (diagonal included) and one ``pair_integrals`` call.  A pair integral
    depends only on its two bumps and ``pair_geometry`` is exactly
    symmetric in them (delta changes sign), so the lower triangle mirrors
    the upper one: LOGABS as is, LIGHTCONE negated as 0.0 - v, which keeps
    +0.0 where delta = 0.  Since every value is the same function of
    (b, |delta|, R) and its sign, K[index[p], index[q]] is the pair
    integral of bumps p and q bit for bit, however the bumps are grouped,
    with one exception in the sign of a zero: a light-cone value that
    underflows to +0.0 mirrors to +0.0, where the one-pair path negates it
    to -0.0 for the swapped pair (the two compare equal).  No blocks, or
    only empty ones, give empty matrices.
    """
    # all blocks in one array: numpy calls per block would cost more than the
    # rest of the table on the many small blocks of a Weyl element
    rows = np.concatenate([np.empty((0, 5)), *blocks])
    slots = {}
    index = np.array([slots.setdefault(row.tobytes(), len(slots)) for row in rows], dtype=np.intp)
    ends = list(accumulate(map(len, blocks)))
    indices = [index[start:end] for start, end in zip([0] + ends, ends)]
    distinct = np.frombuffer(b"".join(slots), dtype=float).reshape(-1, 5)
    n = len(distinct)
    upper = np.triu_indices(n)
    geometry = pair_geometry(distinct[upper[0]], distinct[upper[1]])
    tables = []
    for kind in kinds:
        values = pair_integrals(kind, *geometry)
        table = np.empty((n, n))
        table[upper[::-1]] = 0.0 - values if kind is KernelKind.LIGHTCONE else values
        table[upper] = values
        tables.append(table)
    return indices, tables


def gaussian_pair_reduce(kind, bump_p, bump_q, cfg):
    """Scalar pair integral of two normalized bumps against a kernel.

    A value that is not finite, where a center separation overflows, raises
    ValueError rather than being reported as a converged result.
    """
    value = _pair_integral(kind, *_bump_geometry(bump_p, bump_q))
    if not math.isfinite(value):
        raise ValueError(f"the pair integral is not finite: {value!r}")
    return _analytic(value)


def _check_contraction(contraction):
    c = np.asarray(contraction, dtype=float)
    # np.allclose(c, c.T, atol=1e-12) spelled out: this runs on every form
    if c.shape != (4, 4) or not (np.abs(c - c.T) <= 1e-12 + 1e-5 * np.abs(c.T)).all():
        raise ValueError("contraction must be a symmetric 4x4 matrix")
    return c


def _term_pairs(f, g, contraction):
    """Nonzero term-pair coefficients (w v) . c . (w' v') with their (b, delta, R).

    The term table of the momentum route, and the per-pair statement of
    what ``_forms`` reads from a kernel table; pairs come in row-major
    (f term, g term) order.  With a diagonal contraction (eta, the
    identity) the product with it is exact and each coefficient is a
    four-term sum taken in index order, so it does not depend on the other
    rows of the table.
    """
    c = _check_contraction(contraction)
    rows = (f.weights[:, None] * f.covectors) @ c
    coef = (rows[:, None, :] * (g.weights[:, None] * g.covectors)[None, :, :]).sum(axis=-1)
    pairs = coef != 0.0
    b, delta, R = pair_geometry(f.bump_rows[:, None], g.bump_rows[None])
    return coef[pairs], b[pairs], delta[pairs], R[pairs]


def _contracted(blocks, contraction):
    """Blocks (index, rows) with each block's rows times the contraction.

    Each block is multiplied on its own: BLAS may round a row of a 1-row
    product differently from the same row inside a stacked product, so a
    row's contraction does not depend on the other blocks of a call.
    """
    return [(index, rows @ contraction) for index, rows in blocks]


def _products(table, left, right, entries):
    """Nonzero coefficient times table products of each entry (k, l), one list of floats per entry.

    left and right are blocks (index, rows): the weighted covector rows of
    a smearing and their bumps' indices in the kernel table, the left rows
    already contracted (``_contracted``).  Entry (k, l) holds row i of
    left[k] . row j of right[l] times table[index_i, index_j] in row-major
    (i, j) order, with the zero-coefficient pairs left out.  The pairs of
    all entries are one array pass, and each entry's coefficients come out
    as ``_term_pairs`` computes those of two smearings, whatever the other
    entries of the call.
    """
    a_index, b_index = (np.concatenate([index for index, _ in side] or [np.empty(0, np.intp)]) for side in (left, right))
    a_rows, b_rows = (np.concatenate([rows for _, rows in side] or [np.empty((0, 4))]) for side in (left, right))
    a_start, b_start = ([0, *accumulate(len(index) for index, _ in side)] for side in (left, right))
    # each entry's first pair, column count and first rows of its two blocks
    spec, ends = [], [0]
    for k, l in entries:
        m = b_start[l + 1] - b_start[l]
        spec.append((ends[-1], m, a_start[k], b_start[l]))
        ends.append(ends[-1] + (a_start[k + 1] - a_start[k]) * m)
    counts = [end - start for start, end in zip(ends, ends[1:])]
    first, m, a0, b0 = np.repeat(np.array(spec, dtype=np.intp).reshape(-1, 4), counts, axis=0).T
    row, column = np.divmod(np.arange(ends[-1]) - first, m)
    i, j = a0 + row, b0 + column
    # take gathers faster than indexing
    coef = (a_rows.take(i, axis=0) * b_rows.take(j, axis=0)).sum(axis=-1)
    pairs = np.flatnonzero(coef)
    values = (coef.take(pairs) * table[a_index.take(i.take(pairs)), b_index.take(j.take(pairs))]).tolist()
    bounds = np.searchsorted(pairs, ends).tolist()
    return [values[start:end] for start, end in zip(bounds, bounds[1:])]


def _forms(kind, fs, gs, contraction):
    """Forms of every f in fs (rows) against every g in gs (columns), as lists of floats.

    One kernel table over the bumps of fs and gs serves all of them, and
    one ``_products`` pass over it gives the products of every (f, g).
    Each value is the exactly rounded sum of its products; zero-coefficient
    pairs are left out of the sum, although their table entries are
    evaluated.  A sum that is not finite, where a center separation or a
    product overflowed, raises ValueError.
    """
    c = _check_contraction(contraction)
    smearings = (*fs, *gs)
    indices, (table,) = _kernel_table([h.bump_rows for h in smearings], (kind,))
    blocks = [(index, h.weights[:, None] * h.covectors) for index, h in zip(indices, smearings)]
    n, m = len(fs), len(gs)
    products = _products(table, _contracted(blocks[:n], c), blocks[n:], [(k, l) for k in range(n) for l in range(m)])
    sums = [math.fsum(p) for p in products]
    for value in sums:
        if not math.isfinite(value):
            raise ValueError(f"the {kind.value} form is not finite: {value!r}")
    return [sums[k * m : (k + 1) * m] for k in range(n)]


def bilinear_form(kind, f, g, contraction, cfg):
    """Sum of (w v . contraction . w' v')-weighted scalar pair integrals.

    The contraction is passed explicitly because the same scalar integrals
    serve the Minkowski, Krein and frame-summed pairings.  This is the
    one-pair case of ``_forms``.  The sum is exactly rounded, so it does not
    depend on the term order: for the diagonal contractions (eta, identity)
    swapping f and g negates a LIGHTCONE form and keeps a LOGABS form bit
    for bit.
    """
    return _analytic(_forms(kind, [f], [g], contraction)[0][0])


# ---------------------------------------------------------------------------
# Monte Carlo oracle


def _pair_table(f, g, contraction):
    """Flat tables over the component pairs (i, j) of f and g, row-major.

    Returns the importance weight of a pair's samples, the CDF of drawing
    the pair with p_ij = |w_i| |w'_j| / (sum |w| sum |w'|), and the mean
    c_i - c'_j and per-axis standard deviation sqrt(1/(2a_i) + 1/(2a'_j))
    of y = x - x' for that pair.  The CDF is divided by its own last entry,
    so it ends at exactly 1.0 and every uniform draw maps to a pair.
    """
    coeff = (
        np.sign(f.weights)[:, None]
        * np.sign(g.weights)[None, :]
        * (f.covectors @ contraction @ g.covectors.T)
        * np.abs(f.weights).sum()
        * np.abs(g.weights).sum()
    )
    cdf = np.cumsum(np.outer(np.abs(f.weights), np.abs(g.weights)))
    cdf /= cdf[-1]
    shift = (f.centers[:, None] - g.centers[None]).reshape(-1, 4)
    scale = np.sqrt(0.5 / f.widths[:, None] + 0.5 / g.widths[None]).ravel()
    return coeff.ravel(), cdf, shift, scale


def _mc_block(kind, table, seed, block, n):
    """Sum and sum of squares of the n samples of one block.

    The block's Philox stream, keyed on (seed, block), gives n uniforms
    that pick the pairs and then the 4n normals.  A one-pair table has
    nothing to pick, so its uniforms are skipped instead of drawn: Philox
    makes 4 words per counter step and a uniform takes one word, so
    advancing the counter by n // 4 and drawing n % 4 raw words leaves the
    stream where drawing the uniforms would, and the normals and the sums
    stay the same bit for bit.  The constant kernel reads no displacement,
    so its block draws no normals, and on a one-pair table it builds no
    stream at all: the normals are the last draw of the block's own
    stream, so leaving them out changes nothing before them, and its
    values are the pair coefficients times the ones the kernel would give.
    """
    coeff, cdf, shift, scale = table
    reads_y = kind is not KernelKind.CONSTANT
    if len(cdf) > 1 or reads_y:
        key = np.array([seed % 2**64, block], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
    if len(cdf) > 1:
        k = np.searchsorted(cdf, rng.random(n), side="right")
        # take gathers faster than indexing
        coeff, shift, scale = coeff.take(k), shift.take(k, axis=0), scale.take(k)
    elif reads_y:
        rng.bit_generator.advance(n // 4)
        rng.bit_generator.random_raw(n % 4)
    if reads_y:
        # y = shift + z scale per sample, in place; one pair's rows broadcast
        y = rng.standard_normal((n, 4))
        y *= scale[:, None]
        y += shift
        vals = coeff * kernel_values(kind, y)
    else:
        vals = coeff * np.ones(n)
    return float(vals.sum()), float((vals * vals).sum())


def mc_oracle(kind, f, g, contraction, cfg, workers=1):
    """Direct 8D importance-sampled estimate of the bilinear form.

    A sample draws a component pair (i, j) with probability proportional to
    |w_i| |w'_j|, the law of drawing x from the |f|-proportional bump
    mixture and x' from the |g|-proportional one, and then draws the
    relative coordinate y = x - x' from that pair's exact law: the
    convolution of the two bumps, a Gaussian with mean c_i - c'_j and
    per-axis variance 1/(2a_i) + 1/(2a'_j).  The kernel reads only y, so
    one normal draw per sample does, and no reduction formula is used.
    Samples come in blocks of ``_MC_BLOCK_SIZE``; each block returns the
    sum and the sum of squares of its values, and the totals sum those two
    columns in block order.  The per-block Philox streams are keyed on
    (seed, block index), so the estimate is deterministic for a fixed seed
    no matter how many workers process the blocks.  When f and g have one
    term each, a block skips the pair draw but not its place in the
    stream (see ``_mc_block``), so the estimate is the one the draw gives.
    The constant kernel reads no y, so its blocks draw no normals; they
    come last in each stream, so the estimate, its error and ``evals`` are
    the same bits as with the draw.
    """
    c = _check_contraction(contraction)
    if f.is_zero() or g.is_zero():
        return QuadratureResult(0.0, 0.0, Method.MC8D, 0, True)
    table = _pair_table(f, g, c)
    n = cfg.mc_samples

    def run(start):
        return _mc_block(kind, table, cfg.seed, start // _MC_BLOCK_SIZE, min(_MC_BLOCK_SIZE, n - start))

    starts = range(0, n, _MC_BLOCK_SIZE)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(run, starts))
    else:
        blocks = list(map(run, starts))
    total, total_sq = (float(np.sum(column)) for column in zip(*blocks))
    mean_val = total / n
    variance = max(0.0, (total_sq - n * mean_val**2) / max(1, n - 1))
    stderr = math.sqrt(variance / n)
    # rule-of-three floor: with (almost) no kernel hits the sample variance
    # collapses, but the 95% bound on a rare-event rate is still 3/n
    floor = 3.0 * float(np.max(np.abs(table[0]))) / n
    return QuadratureResult(mean_val, max(1.96 * stderr, floor), Method.MC8D, n, True)


# ---------------------------------------------------------------------------
# Momentum-space route


@lru_cache(maxsize=64)
def _gl_unit(order):
    """Gauss-Legendre nodes/weights mapped to the unit interval (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def _refine(integrand, x0, x1, cfg, evals_per_node=1):
    """Adaptive GL15/GL7 panel refinement of a vectorized 1D integrand.

    ``integrand`` returns its values and a non-negative magnitude at the
    nodes.  Each panel is integrated with the 15- and the 7-node
    Gauss-Legendre rule; their difference is the panel's error estimate.
    Every round halves the worst eighth of the panels (at least one, at
    most 512) until the summed estimate meets max(abs_tol, rel_tol |value|),
    which marks the result converged, or the eval budget is spent.  Each
    node costs ``evals_per_node`` evals.  The magnitude is integrated with
    the 15-node rule on the final panels.  Returns (value, error,
    magnitude, evals, converged).
    """

    def rules(a0, a1):
        xs7, w7 = _gl_unit(7)
        xs15, w15 = _gl_unit(15)
        width = a1 - a0
        nodes = a0[:, None] + width[:, None] * np.concatenate([xs7, xs15])
        vals, mags = (v.reshape(len(a0), -1) for v in integrand(nodes.ravel()))
        f7, f15 = vals[:, :7], vals[:, 7:]
        coarse = width * (f7 @ w7)
        fine = width * (f15 @ w15)
        return fine, np.abs(fine - coarse), width * (mags[:, 7:] @ w15)

    values, errors, magnitudes = rules(x0, x1)
    evals = len(x0) * 22 * evals_per_node
    converged = False
    for _ in range(_MAX_ROUNDS):
        total = complex(values.sum())
        toterr = float(errors.sum())
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        if toterr <= tol:
            converged = True
            break
        if evals >= cfg.max_evals:
            break
        order = np.argsort(errors)[::-1]
        n_refine = min(max(1, len(order) // 8), 512)
        chosen = order[:n_refine]
        keep = np.ones(len(values), dtype=bool)
        keep[chosen] = False
        mids = 0.5 * (x0[chosen] + x1[chosen])
        c0 = np.concatenate([x0[chosen], mids])
        c1 = np.concatenate([mids, x1[chosen]])
        new_vals, new_errs, new_mags = rules(c0, c1)
        evals += len(c0) * 22 * evals_per_node
        x0 = np.concatenate([x0[keep], c0])
        x1 = np.concatenate([x1[keep], c1])
        values = np.concatenate([values[keep], new_vals])
        errors = np.concatenate([errors[keep], new_errs])
        magnitudes = np.concatenate([magnitudes[keep], new_mags])
    return values.sum(), float(errors.sum()), float(magnitudes.sum()), evals, converged


def _momentum_integrand(P, coef, cpair, dt, sep):
    """Combined radial integrand sum_pairs coef * (g(P) - 1) / P, and its magnitude.

    g(P) = sinc(P sep) e^{-i P dt} (1 + i P dt + 2 c P^2) e^{-2 c P^2} has
    g(0) = 1 for every pair; subtracting 1 removes the infrared 1/P piece,
    whose total coefficient is the (vanishing) mean contraction.  The
    magnitude sum_pairs |coef (g(P) - 1)| / P scales the rounding of that
    cancelling sum.
    """
    Pm = P[:, None]
    osc = np.sinc(Pm * sep[None, :] / math.pi)
    phase = np.exp(-1j * Pm * dt[None, :])
    poly = 1.0 + 1j * Pm * dt[None, :] + 2.0 * cpair[None, :] * Pm**2
    damp = np.exp(-2.0 * cpair[None, :] * Pm**2)
    g_minus_1 = osc * phase * poly * damp - 1.0
    return (g_minus_1 @ coef) / P, (np.abs(g_minus_1) @ np.abs(coef)) / P


def momentum_form(f, g, cfg):
    """Momentum-space bilinear form built on the radial correlation kernel.

    Requires mean(f) = mean(g) = 0; otherwise the |p|^{-3} infrared
    divergence is unregulated and the form is rejected.  Returns a complex
    value; for f = g its real part reproduces -(1/16 pi^2) times the LOGABS
    position-space form.  Covectors are contracted with the identity.
    """
    coef, b, dt, sep = _term_pairs(f, g, np.eye(4))
    for name, h in (("f", f), ("g", g)):
        scale = np.abs(h.weights).sum()
        if np.max(np.abs(mean(h)), initial=0.0) > 1e-12 * max(scale, 1.0):
            raise ValueError(f"momentum_form requires mean({name}) = 0")
    if not coef.size:
        return _analytic(0.0)
    cpair = 0.25 / b

    p_max = math.sqrt(0.5 * _TAIL_EXPONENT / cpair.min())
    freq = float(np.max(np.abs(dt) + sep))
    n0 = min(4096, max(24, int(2.0 * freq * p_max / math.pi) + 1))
    # each pair's own cutoff is a panel edge: a pair whose support fits
    # inside one uniform panel can make the 7- and 15-node rules agree by
    # accident there, and refinement would stop before it resolves it
    edges = np.union1d(np.linspace(0.0, p_max, n0 + 1), np.sqrt(0.5 * _TAIL_EXPONENT / cpair))
    total, err, magnitude, evals, converged = _refine(
        lambda P: _momentum_integrand(P, coef, cpair, dt, sep),
        edges[:-1], edges[1:], cfg, evals_per_node=len(coef),
    )
    # the quadrature estimate misses the rounding of the cancelling sum over
    # term pairs, which is of order eps times the sum of their magnitudes
    err += _EPS * magnitude
    scale = 8.0 * math.pi**2
    return QuadratureResult(complex(total) / scale, err / scale, Method.MOMENTUM, evals, converged)
