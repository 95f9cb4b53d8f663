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
  difference quotient for the log kernel.  A form collects every term pair
  first, so each distinct pair is evaluated once.
* ``mc_oracle``: an independent brute-force 8D Monte Carlo estimate with
  importance sampling from the bump mixtures.  Sample streams are
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
# Below this half-width h of the Dawson difference quotient, and while
# x h <= 1 about its midpoint x, the Taylor series in h replaces the
# cancelling direct difference; 10 odd terms leave a remainder below 1e-17.
_TAYLOR_CUT = 0.3
_TAYLOR_TERMS = 10


def _log_moment(mu, sigma):
    """L(mu) = E ln|mu + sigma Z| and Dawson's F(mu / (sigma sqrt 2)), elementwise.

    (mu + sigma Z)^2 / sigma^2 is noncentral chi-square with one degree of
    freedom and noncentrality mu^2 / sigma^2, whose log moment is the
    Poisson mixture ln 2 + sum_j Pois(j; mu^2 / 2 sigma^2) psi(1/2 + j).
    With x = mu / (sigma sqrt 2) the same weights give Dawson's integral,
    F(x) = x sum_j Pois(j; x^2) / (1 + 2j), which is (sigma / sqrt 2) dL/dmu.
    Far from the origin the asymptotic series in (sigma / mu)^2 and its
    derivative are used.  Returns (L, F).
    """
    ratio = np.abs(mu) / sigma
    L = np.empty_like(ratio)
    F = np.empty_like(ratio)
    far = ratio >= _ASYMPTOTIC_CUT
    series = np.vander((sigma / mu[far]) ** 2, len(_ASYMPTOTIC_COEFFS), increasing=True)
    L[far] = np.log(np.abs(mu[far])) + series @ _ASYMPTOTIC_COEFFS
    F[far] = sigma / (math.sqrt(2.0) * mu[far]) * (series @ _ASYMPTOTIC_SLOPE)
    m = 0.5 * ratio[~far, None] ** 2
    # m^j / j!, the Poisson weights without their common factor exp(-m),
    # which the normalization by the weight sum removes
    w = m**_ORDERS / _FACTORIALS
    total = w.sum(axis=1)
    L[~far] = math.log(sigma) + 0.5 * (math.log(2.0) + (w @ _PSI_HALF) / total)
    F[~far] = mu[~far] / (math.sqrt(2.0) * sigma) * (w @ _ODD_RECIPROCALS) / total
    return L, F


def _lightcone_pair(b, delta, R):
    """Closed-form LIGHTCONE pair integral for delta >= 0.

    Phi(y-) + Phi(y+) - 1 - [phi(y-) - phi(y+)] / (y+ - y-) with
    y+- = sqrt(b) (delta +- R).  Since phi(y+) = phi(y-) e^(-z) with
    z = 2 b delta R, the divided difference is
    phi(y-) sqrt(b) delta (1 - e^(-z)) / z, which expm1 evaluates without
    cancelling for small z or overflowing for large z.
    """
    s = math.sqrt(0.5 * b)
    step = 0.5 * math.erfc(s * (R - delta)) - 0.5 * math.erfc(s * (R + delta))
    z = 2.0 * b * delta * R
    ratio = -math.expm1(-z) / z if z > 0.0 else 1.0
    slope = delta * s / math.sqrt(math.pi) * math.exp(-((s * (delta - R)) ** 2)) * ratio
    return step - slope


def _logabs_pair(b, delta, R):
    """Closed-form LOGABS pair integral.

    L(delta - R) + L(delta + R) + [F(x+) - F(x-)] / (x+ - x-) with
    x+- = x +- h, x = delta sqrt(b/2), h = R sqrt(b/2), L the log moment at
    sigma = 1/sqrt(b) and F Dawson's integral.  For small h the divided
    difference is its Taylor series sum_j F^(2j+1)(x) h^2j / (2j+1)!, with
    the derivatives from F' = 1 - 2xF and F^(n+1) = -2x F^(n) - 2n F^(n-1).
    """
    sigma = 1.0 / math.sqrt(b)
    (l_minus, l_plus, _), (f_minus, f_plus, f_mid) = (
        v.tolist() for v in _log_moment(np.array([delta - R, delta + R, delta]), sigma)
    )
    s = math.sqrt(0.5 * b)
    h, x = R * s, delta * s
    # the recurrence amplifies rounding by about (2 x h)^2j in term j
    if h > _TAYLOR_CUT or x * h > 1.0:
        return l_minus + l_plus + (f_plus - f_minus) / (2.0 * h)
    # g = F^(n)(x) h^(n-1) and lower = F^(n-1)(x) h^n stay bounded
    lower, g = h * f_mid, 1.0 - 2.0 * x * f_mid
    slope = 0.0
    for n in range(1, 2 * _TAYLOR_TERMS):
        if n % 2:
            slope += g / math.factorial(n)
        lower, g = h * h * g, -2.0 * x * h * g - 2.0 * n * lower
    return l_minus + l_plus + slope


def _reduce_2d(kind, b, delta, R):
    """Exact LIGHTCONE or LOGABS pair integral at separations delta >= 0 and R.

    The relative position has per-axis variance 1/(2b); its radius has the
    density (r/R) sqrt(b/pi) [exp(-b(r-R)^2) - exp(-b(r+R)^2)], and both
    time-averaged kernels are even in r, so the pair integral is
    E[(X/R) K(X)] with X ~ N(R, 1/(2b)).  Stein's identity
    E[(X - R) h(X)] = Var(X) E[h'(X)] turns that into the closed forms of
    ``_lightcone_pair`` and ``_logabs_pair``, exact up to rounding.
    Returns (value, 0.0, 0, True): the error and eval slots are kept because
    the benchmark's tracer (``perfbench/tracer.py``) wraps this function by
    name and reads them.
    """
    pair = _lightcone_pair if kind is KernelKind.LIGHTCONE else _logabs_pair
    return pair(b, delta, R), 0.0, 0, True


@lru_cache(maxsize=100_000)
def _pair_cached(kind_value, b, delta, R):
    """Process-wide memo of ``_reduce_2d``; ``perfbench/`` uses it by name."""
    return _reduce_2d(KernelKind(kind_value), b, delta, R)


def pair_integrals(kind, b, delta, R):
    """Pair integrals of normalized bumps, elementwise over equal-shape arrays.

    Each pair has combined width b, time separation delta and spatial
    separation R.  CONSTANT is the exact normalization 1.  LIGHTCONE with
    coincident time centers vanishes by antisymmetry (odd integrand in the
    relative time), and negative time separations are folded to positive
    ones, which makes the antisymmetry under argument swap exact.  LOGABS
    depends on |delta| only, and its self pair (delta = R = 0) is
    1 - gamma - ln(2b).  The remaining pairs are collapsed to their
    distinct (b, |delta|, R) and each is evaluated once in closed form.
    """
    b, delta, R = (np.asarray(x, dtype=float) for x in (b, delta, R))
    values = np.zeros(b.shape)
    if kind is KernelKind.CONSTANT:
        return values + 1.0
    if kind is KernelKind.LOGABS:
        closed = (delta == 0.0) & (R == 0.0)
        values[closed] = 1.0 - EULER_GAMMA - np.log(2.0 * b[closed])
    else:
        closed = delta == 0.0
    rest = ~closed
    keys = list(zip(b[rest].tolist(), np.abs(delta[rest]).tolist(), R[rest].tolist()))
    done = {key: _pair_cached(kind.value, *key)[0] for key in dict.fromkeys(keys)}
    values[rest] = [done[key] for key in keys]
    if kind is KernelKind.LIGHTCONE:
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


def gaussian_pair_reduce(kind, bump_p, bump_q, cfg):
    """Scalar pair integral of two normalized bumps against a kernel."""
    geometry = pair_geometry(*bump_arrays([bump_p]), *bump_arrays([bump_q]))
    return _analytic(float(pair_integrals(kind, *geometry)[0]))


def _check_contraction(contraction):
    c = np.asarray(contraction, dtype=float)
    # np.allclose(c, c.T, atol=1e-12) spelled out: this runs on every form
    if c.shape != (4, 4) or not (np.abs(c - c.T) <= 1e-12 + 1e-5 * np.abs(c.T)).all():
        raise ValueError("contraction must be a symmetric 4x4 matrix")
    return c


def smearing_arrays(f):
    """Centers (n, 4), widths (n,), weights (n,) and covectors (n, 4) of f's terms."""
    centers, widths = bump_arrays([t.bump for t in f.terms])
    covectors = np.array([t.covector for t in f.terms], dtype=float).reshape(-1, 4)
    return centers, widths, np.array([t.weight for t in f.terms], dtype=float), covectors


def pair_coefficients(left, contraction, right):
    """Coefficients left_i . contraction . right_j of weighted covector rows, shape (n, m).

    With a diagonal contraction (eta, the identity) the product with it is
    exact and each entry is a four-term sum taken in index order, so an
    entry does not depend on the other rows of the table.
    """
    return ((left @ contraction)[:, None, :] * right[None, :, :]).sum(axis=-1)


def _term_pairs(f, g, contraction):
    """Nonzero term-pair coefficients (w v) . c . (w' v') with their (b, delta, R).

    The one term table of the reduced and momentum routes; pairs come in
    row-major (f term, g term) order.
    """
    c = _check_contraction(contraction)
    cf, af, wf, vf = smearing_arrays(f)
    cg, ag, wg, vg = smearing_arrays(g)
    coef = pair_coefficients(wf[:, None] * vf, c, wg[:, None] * vg)
    pairs = coef != 0.0
    b, delta, R = pair_geometry(cf[:, None], af[:, None], cg[None], ag[None])
    return coef[pairs], b[pairs], delta[pairs], R[pairs]


def bilinear_form(kind, f, g, contraction, cfg):
    """Sum of (w v . contraction . w' v')-weighted scalar pair integrals.

    The contraction is passed explicitly because the same cached scalar
    integrals serve the Minkowski, Krein and frame-summed pairings.  Term
    pairs with a zero coefficient are not evaluated.  The sum is exactly
    rounded, so it does not depend on the term order: for the diagonal
    contractions (eta, identity) swapping f and g negates a LIGHTCONE form
    and keeps a LOGABS form bit for bit.
    """
    coef, b, delta, R = _term_pairs(f, g, contraction)
    return _analytic(math.fsum(coef * pair_integrals(kind, b, delta, R)))


# ---------------------------------------------------------------------------
# Monte Carlo oracle


def _mixture(f):
    """f's bump mixture, sampled in proportion to |weight|, and f's covectors."""
    centers, widths, weights, covectors = smearing_arrays(f)
    cdf = np.cumsum(np.abs(weights) / np.abs(weights).sum())
    return (weights, centers, 1.0 / np.sqrt(2.0 * widths), cdf), covectors


def _mc_block(kind, pair_coeff, fmix, gmix, seed, block, n):
    key = np.array([seed % 2**64, block], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    _, fc, fs, fcum = fmix
    _, gc, gs, gcum = gmix
    i = np.searchsorted(fcum, rng.random(n), side="right")
    j = np.searchsorted(gcum, rng.random(n), side="right")
    x = fc[i] + rng.standard_normal((n, 4)) * fs[i][:, None]
    xp = gc[j] + rng.standard_normal((n, 4)) * gs[j][:, None]
    vals = pair_coeff[i, j] * kernel_values(kind, x - xp)
    return float(vals.sum()), float((vals * vals).sum())


def mc_oracle(kind, f, g, contraction, cfg, workers=1):
    """Direct 8D importance-sampled estimate of the bilinear form.

    Samples x from the |f|-proportional bump mixture and x' from the
    |g|-proportional one.  The per-block Philox streams are keyed on
    (seed, block index), so the estimate is deterministic for a fixed seed
    no matter how many workers process the blocks.
    """
    c = _check_contraction(contraction)
    if f.is_zero() or g.is_zero():
        return QuadratureResult(0.0, 0.0, Method.MC8D, 0, True)
    fmix, vf = _mixture(f)
    gmix, vg = _mixture(g)
    fw, gw = fmix[0], gmix[0]
    pair_coeff = (
        np.sign(fw)[:, None]
        * np.sign(gw)[None, :]
        * (vf @ c @ vg.T)
        * np.abs(fw).sum()
        * np.abs(gw).sum()
    )
    n = cfg.mc_samples
    nblocks = (n + _MC_BLOCK_SIZE - 1) // _MC_BLOCK_SIZE
    sizes = [min(_MC_BLOCK_SIZE, n - b * _MC_BLOCK_SIZE) for b in range(nblocks)]
    sums = np.zeros(nblocks)
    sumsqs = np.zeros(nblocks)

    def run(b):
        sums[b], sumsqs[b] = _mc_block(
            kind, pair_coeff, fmix, gmix, cfg.seed, b, sizes[b]
        )

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
    floor = 3.0 * float(np.max(np.abs(pair_coeff))) / n
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
        scale = np.abs(smearing_arrays(h)[2]).sum()
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
