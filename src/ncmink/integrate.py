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
  reduces the remaining radial average to erfc and Gaussian terms for the
  light cone, and to the noncentral chi-square log moment plus a Dawson
  difference quotient for the log kernel.  The log pairs of a call are
  evaluated in one array pass with no memo, and a value depends only on
  its own pair; the light-cone pairs go through a process-wide memo.
  Forms read their pair integrals from one kernel table over the distinct
  bumps of their arguments (the smearings' center and width columns), its
  upper triangle mirrored, and the coefficient times table products of
  all the forms of a call in one array pass (``_products``);
  ``bilinear_form`` is the one-pair case.
* ``mc_oracle``: an independent brute-force 8D Monte Carlo estimate with
  importance sampling from the bump mixtures.  It draws a component pair and
  then y = x - x' from that pair's exact law, the Gaussian convolution of
  the two bumps, and uses no reduction formula.  Sample streams are
  counter-based (Philox keyed per block), so results are bit-identical for a
  fixed seed regardless of how blocks are distributed over workers.
* ``momentum_form``: the momentum-space route through the radial correlation
  kernel e^{-i|p|(t-t')} [1 + i|p|(t-t')] / (4|p|^3), reduced analytically to
  a single oscillatory radial integral.  It requires mean-zero smearings;
  the infrared 1/|p| piece then cancels exactly and is removed analytically
  before quadrature.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate

import numpy as np

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
        if self.mc_samples < 10_000:
            raise ValueError("mc_samples must be at least 10^4 for oracle use")


@dataclass(frozen=True)
class QuadratureResult:
    """Value with an error estimate and provenance.

    Only :func:`momentum_form` (MOMENTUM) and :func:`mc_oracle` (MC8D)
    compute an error, an eval count or a convergence flag.  For MC8D the
    estimate is a 95% confidence half-width; for MOMENTUM it is the sum of
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

# psi(1/2 + j) = -gamma - 2 ln 2 + sum_{i<j} 1/(1/2 + i) (A&S 6.3.4), each
# sum exactly rounded, for the Poisson series; 128 terms cover means up to
# 40.5 to below 1e-25.
_POISSON_TERMS = 128
_PSI_HALF = np.array([
    math.fsum([-EULER_GAMMA, -2.0 * math.log(2.0)] + [1.0 / (0.5 + i) for i in range(j)])
    for j in range(_POISSON_TERMS)
])
_ORDERS = np.arange(float(_POISSON_TERMS))
_FACTORIALS = np.array([float(math.factorial(j)) for j in range(_POISSON_TERMS)])
_ODD_RECIPROCALS = 1.0 / (1.0 + 2.0 * _ORDERS)
# E ln|1 + eps Z| = -sum_k (2k-1)!! eps^{2k} / (2k), k = 1..30: asymptotic,
# with its smallest omitted term below 1e-18 once |mu|/sigma >= 9.
_ASYMPTOTIC_CUT = 9.0
_ASYMPTOTIC_COEFFS = np.concatenate(
    [[0.0], [-math.prod(range(1, 2 * k, 2)) / (2.0 * k) for k in range(1, 31)]]
)
# mu dL/dmu of that series, term by term: 1 from ln|mu|, -2k c_k from the rest
_ASYMPTOTIC_SLOPE = np.concatenate([[1.0], -2.0 * np.arange(1, 31) * _ASYMPTOTIC_COEFFS[1:]])
# the row products of each branch, one coefficient row each: the weight
# sum, the psi and the odd-reciprocal sums near, the series and its slope far
_NEAR_ROWS = np.stack([np.ones(_POISSON_TERMS), _PSI_HALF, _ODD_RECIPROCALS])
_FAR_ROWS = np.stack([_ASYMPTOTIC_COEFFS, _ASYMPTOTIC_SLOPE])
# Below this half-width h of the Dawson difference quotient, and while
# x h <= 1 about its midpoint x, the Taylor series in h replaces the
# cancelling direct difference; 10 odd terms leave a remainder below 1e-17.
_TAYLOR_CUT = 0.3
_TAYLOR_TERMS = 10
_PAIR_OFFSETS = np.array([[-1.0], [1.0], [0.0]])


def _log_moment(mu, sigma):
    """L(mu) = E ln|mu + sigma Z| and Dawson's F(mu / (sigma sqrt 2)), elementwise.

    sigma is one float for every element or an array that broadcasts to mu.
    (mu + sigma Z)^2 / sigma^2 is noncentral chi-square with one degree of
    freedom and noncentrality mu^2 / sigma^2, whose log moment is the
    Poisson mixture ln 2 + sum_j Pois(j; mu^2 / 2 sigma^2) psi(1/2 + j).
    With x = mu / (sigma sqrt 2) the same weights give Dawson's integral,
    F(x) = x sum_j Pois(j; x^2) / (1 + 2j), which is (sigma / sqrt 2) dL/dmu.
    Far from the origin the asymptotic series in (sigma / mu)^2 and its
    derivative are used.  Each row product is summed within its element
    (a matrix product would round differently as the row count changes),
    so an element's value does not depend on the other elements of the
    call.  Returns (L, F).
    """
    sigma = np.full(mu.shape, sigma)
    ratio = np.abs(mu) / sigma
    L = np.empty_like(ratio)
    F = np.empty_like(ratio)
    far = ratio >= _ASYMPTOTIC_CUT
    # each branch runs only when it has elements: on short arrays the numpy
    # call overhead of an empty branch is the cost
    far_count = np.count_nonzero(far)
    if far_count:
        mu_far, sigma_far = mu[far], sigma[far]
        series = np.vander((sigma_far / mu_far) ** 2, len(_ASYMPTOTIC_COEFFS), increasing=True)
        log_sum, slope_sum = (series[:, None] * _FAR_ROWS).sum(axis=2).T
        L[far] = np.log(np.abs(mu_far)) + log_sum
        F[far] = sigma_far / (math.sqrt(2.0) * mu_far) * slope_sum
    if far_count < mu.size:
        near = ~far
        sigma_near = sigma[near]
        m = 0.5 * ratio[near] ** 2
        # m^j / j!, the Poisson weights without their common factor exp(-m),
        # which the normalization by the weight sum removes
        w = m[:, None] ** _ORDERS / _FACTORIALS
        total, psi_sum, odd_sum = (w[:, None] * _NEAR_ROWS).sum(axis=2).T
        L[near] = np.log(sigma_near) + 0.5 * (math.log(2.0) + psi_sum / total)
        F[near] = mu[near] / (math.sqrt(2.0) * sigma_near) * odd_sum / total
    return L, F


def _lightcone_pair(b, delta, R):
    """Closed-form LIGHTCONE pair integral for delta >= 0.

    Phi(y-) + Phi(y+) - 1 - [phi(y-) - phi(y+)] / (y+ - y-) with
    y+- = sqrt(b) (delta +- R).  Since phi(y+) = phi(y-) e^(-z) with
    z = 2 b delta R, the divided difference is
    phi(y-) sqrt(b) delta (1 - e^(-z)) / z, which expm1 evaluates without
    cancelling for small z or overflowing for large z.

    Accuracy limit: far-spacelike pairs with sqrt(b) (R - delta) >= 12 and
    delta / R <= 1.4e-4 (values below 2.5e-35) lose relative accuracy,
    because the erfc step and the slope cancel.  Against 60-digit mpmath on
    4000 seeded pairs the worst such pair is off by 3.7e-12 relative
    (b = 1.07e6, delta = 1.09e-6, R = 0.023, value 2.6e-127); every other
    pair is within 1e-12.
    """
    s = math.sqrt(0.5 * b)
    step = 0.5 * math.erfc(s * (R - delta)) - 0.5 * math.erfc(s * (R + delta))
    z = 2.0 * b * delta * R
    ratio = -math.expm1(-z) / z if z > 0.0 else 1.0
    slope = delta * s / math.sqrt(math.pi) * math.exp(-((s * (delta - R)) ** 2)) * ratio
    return step - slope


def _logabs_pairs(b, delta, R):
    """Closed-form LOGABS pair integrals for delta >= 0, elementwise over 1-d arrays, as a list.

    L(delta - R) + L(delta + R) + [F(x+) - F(x-)] / (x+ - x-) with
    x+- = x +- h, x = delta sqrt(b/2), h = R sqrt(b/2), L the log moment at
    sigma = 1/sqrt(b) and F Dawson's integral.  For small h the divided
    difference is its Taylor series sum_j F^(2j+1)(x) h^2j / (2j+1)!, with
    the derivatives from F' = 1 - 2xF and F^(n+1) = -2x F^(n) - 2n F^(n-1).
    One ``_log_moment`` call serves every pair, and the quotient is taken
    per pair on floats, so a value depends only on its own (b, delta, R).
    """
    # one row per log moment argument: delta - R, delta + R and delta
    moments = _log_moment(delta + _PAIR_OFFSETS * R, 1.0 / np.sqrt(b))
    L, F = (v.T.tolist() for v in moments)
    values = []
    for (l_minus, l_plus, _), (f_minus, f_plus, f_mid), b_k, delta_k, R_k in zip(
        L, F, b.tolist(), delta.tolist(), R.tolist()
    ):
        s = math.sqrt(0.5 * b_k)
        h, x = R_k * s, delta_k * s
        # the recurrence amplifies rounding by about (2 x h)^2j in term j
        if h > _TAYLOR_CUT or x * h > 1.0:
            values.append(l_minus + l_plus + (f_plus - f_minus) / (2.0 * h))
            continue
        # g = F^(n)(x) h^(n-1) and lower = F^(n-1)(x) h^n stay bounded
        lower, g = h * f_mid, 1.0 - 2.0 * x * f_mid
        slope = 0.0
        for n in range(1, 2 * _TAYLOR_TERMS):
            if n % 2:
                slope += g / math.factorial(n)
            lower, g = h * h * g, -2.0 * x * h * g - 2.0 * n * lower
        values.append(l_minus + l_plus + slope)
    return values


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


def pair_integrals(kind, b, delta, R):
    """Pair integrals of normalized bumps, elementwise over equal-shape arrays.

    Each pair has combined width b, time separation delta and spatial
    separation R.  CONSTANT is the exact normalization 1.  LOGABS depends
    on |delta| only; its self pair (delta = R = 0) is 1 - gamma - ln(2b),
    and every other pair comes from one array pass of ``_logabs_pairs``,
    which keeps no memo.  LIGHTCONE with coincident time centers vanishes
    by antisymmetry (odd integrand in the relative time), and negative time
    separations are folded to positive ones, which makes the antisymmetry
    under argument swap exact; each remaining pair looks up its
    (b, |delta|, R) in the process-wide memo ``_pair_cached``, which
    evaluates a key once in closed form.  Every value depends only on its
    own pair, never on the other elements of the call.
    """
    b, delta, R = (np.asarray(x, dtype=float) for x in (b, delta, R))
    values = np.zeros(b.shape)
    if kind is KernelKind.CONSTANT:
        return values + 1.0
    if kind is KernelKind.LOGABS:
        closed = (delta == 0.0) & (R == 0.0)
        values[closed] = 1.0 - EULER_GAMMA - np.log(2.0 * b[closed])
        rest = ~closed
        values[rest] = _logabs_pairs(b[rest], np.abs(delta[rest]), R[rest])
        return values
    rest = delta != 0.0
    keys = zip(b[rest].tolist(), np.abs(delta[rest]).tolist(), R[rest].tolist())
    values[rest] = [_pair_cached(*key)[0] for key in keys]
    values *= np.sign(delta)
    return values


def bump_arrays(bumps):
    """Centers (n, 4) and widths (n,) of a sequence of bumps."""
    centers = np.array([bump.center.components for bump in bumps], dtype=float)
    return centers.reshape(-1, 4), np.array([bump.width for bump in bumps], dtype=float)


def pair_geometry(centers_p, widths_p, centers_q, widths_q):
    """Combined widths b and center displacements (delta t, spatial radius).

    Broadcasts like numpy: centers have shape (..., 4) and widths the
    matching shape (...).
    """
    b = widths_p * widths_q / (widths_p + widths_q)
    d = centers_p - centers_q
    # R^2 as one dot product per pair, the way np.linalg.norm takes it for a
    # single vector, so R does not depend on how the pairs are batched
    spatial = d[..., 1:]
    return b, d[..., 0], np.sqrt((spatial[..., None, :] @ spatial[..., :, None])[..., 0, 0])


def _kernel_table(blocks, kinds):
    """Pair integrals among the distinct bumps of some blocks of bumps, one matrix per kind.

    Each block is the centers (n, 4) and widths (n,) of one smearing's terms
    (or of one bump), and bumps match on the exact bits of (center, width).
    Returns each block's index array into the distinct bumps and, for each
    kind, the matrix K[i, j] of the pair integrals of distinct bumps i and
    j, from one ``pair_geometry`` over the upper triangle of their square
    (diagonal included) and one ``pair_integrals`` call.  A pair integral
    depends only on its two bumps and ``pair_geometry`` is exactly
    symmetric in them (delta changes sign), so the lower triangle mirrors
    the upper one: LOGABS as is, LIGHTCONE negated as 0.0 - v, which keeps
    +0.0 where delta = 0.  Since every value is the same function of
    (b, |delta|, R) and its sign, K[index[p], index[q]] is the pair
    integral of bumps p and q bit for bit, however the bumps are grouped.
    No blocks, or only empty ones, give empty matrices.
    """
    # all blocks in one array: numpy calls per block would cost more than the
    # rest of the table on the many small blocks of a Weyl element
    empty = (np.empty((0, 4)), np.empty(0))
    rows = np.column_stack([np.concatenate(part) for part in zip(empty, *blocks)])
    slots = {}
    index = np.array([slots.setdefault(row.tobytes(), len(slots)) for row in rows], dtype=np.intp)
    ends = list(accumulate(len(widths) for _, widths in blocks))
    indices = [index[start:end] for start, end in zip([0] + ends, ends)]
    distinct = np.frombuffer(b"".join(slots), dtype=float).reshape(-1, 5)
    c, a = distinct[:, :4], distinct[:, 4]
    upper = np.triu_indices(len(a))
    geometry = pair_geometry(c[upper[0]], a[upper[0]], c[upper[1]], a[upper[1]])
    tables = []
    for kind in kinds:
        values = pair_integrals(kind, *geometry)
        table = np.empty((len(a), len(a)))
        table[upper[::-1]] = 0.0 - values if kind is KernelKind.LIGHTCONE else values
        table[upper] = values
        tables.append(table)
    return indices, tables


def gaussian_pair_reduce(kind, bump_p, bump_q, cfg):
    """Scalar pair integral of two normalized bumps against a kernel."""
    centers, widths = bump_arrays([bump_p, bump_q])
    geometry = pair_geometry(centers[:1], widths[:1], centers[1:], widths[1:])
    return _analytic(float(pair_integrals(kind, *geometry)[0]))


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
    b, delta, R = pair_geometry(f.centers[:, None], f.widths[:, None], g.centers[None], g.widths[None])
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
    evaluated.
    """
    c = _check_contraction(contraction)
    smearings = (*fs, *gs)
    indices, (table,) = _kernel_table([(h.centers, h.widths) for h in smearings], (kind,))
    blocks = [(index, h.weights[:, None] * h.covectors) for index, h in zip(indices, smearings)]
    n, m = len(fs), len(gs)
    products = _products(table, _contracted(blocks[:n], c), blocks[n:], [(k, l) for k in range(n) for l in range(m)])
    sums = [math.fsum(p) for p in products]
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
    key = np.array([seed % 2**64, block], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    coeff, cdf, shift, scale = table
    k = np.searchsorted(cdf, rng.random(n), side="right")
    # y = shift + z scale per pair, in place; take gathers faster than indexing
    y = rng.standard_normal((n, 4))
    y *= scale.take(k)[:, None]
    y += shift.take(k, axis=0)
    vals = coeff.take(k) * kernel_values(kind, y)
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
    The per-block Philox streams are keyed on (seed, block index), so the
    estimate is deterministic for a fixed seed no matter how many workers
    process the blocks.
    """
    c = _check_contraction(contraction)
    if f.is_zero() or g.is_zero():
        return QuadratureResult(0.0, 0.0, Method.MC8D, 0, True)
    table = _pair_table(f, g, c)
    n = cfg.mc_samples
    nblocks = (n + _MC_BLOCK_SIZE - 1) // _MC_BLOCK_SIZE
    sizes = [min(_MC_BLOCK_SIZE, n - b * _MC_BLOCK_SIZE) for b in range(nblocks)]
    sums = np.zeros(nblocks)
    sumsqs = np.zeros(nblocks)

    def run(b):
        sums[b], sumsqs[b] = _mc_block(kind, table, cfg.seed, b, sizes[b])

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, range(nblocks)))
    else:
        for b in range(nblocks):
            run(b)
    total = float(np.sum(sums))
    total_sq = float(np.sum(sumsqs))
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
