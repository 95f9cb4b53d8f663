"""Bilinear forms of Gaussian smearings against Lorentzian kernels.

Every form treated here is an 8-dimensional double integral

    B = integral f(x) K(x - x') g(x') d4x d4x'

with f, g finite sums of covector-weighted normalized Gaussians and K one of
the kernels in :mod:`ncmink.kernels`.  Three evaluation routes are provided:

* ``gaussian_pair_reduce`` / ``bilinear_form``: analytic reduction to a 1D
  integral plus adaptive panel quadrature.  The relative coordinate
  y = x - x' carries a Gaussian of combined width b = a1 a2 / (a1 + a2)
  centered at the center difference (delta, R-vector), and its angular
  average over the 2-sphere is exp(-b (r^2 + R^2)) sinh(2 b r R) / (2 b r R).
  Both kernels depend on (t, r) only through t - r and t + r, so the average
  over the relative time t ~ N(delta, 1/(2b)) is closed-form too: erfc
  differences for the light cone, the noncentral chi-square log moment for
  the log kernel.  What remains is an analytic integrand in r, integrated
  with GL15/GL7 panels over the Gaussian tail window around R.
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
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .kernels import KernelKind
from .testfn import mean

WORKERS_ENV_VAR = "NCMINK_WORKERS"

# exp(-41.5) ~ 1e-18: Gaussian tails beyond this radius are below the
# round-off floor of every tolerance used in the package.
_TAIL_EXPONENT = 41.5

_MC_BLOCK_SIZE = 8192
_MAX_ROUNDS = 400


class Method(Enum):
    REDUCED2D = "reduced2d"
    MC8D = "mc8d"
    ANALYTIC = "analytic"


@dataclass(frozen=True)
class QuadratureConfig:
    """Knobs for the deterministic quadrature and the Monte Carlo oracle."""

    rel_tol: float = 1e-3
    abs_tol: float = 1e-10
    max_evals: int = 20_000_000
    mc_samples: int = 20_000
    seed: int = 20260809

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.mc_samples < 10_000:
            raise ValueError("mc_samples must be at least 10^4 for oracle use")


@dataclass(frozen=True)
class QuadratureResult:
    """Value with an error estimate and provenance.

    For MC8D the estimate is a 95% confidence half-width; for REDUCED2D it
    is the sum of per-panel differences between the 15- and the 7-node
    Gauss-Legendre rules.
    ANALYTIC results carry error 0.
    """

    value: complex
    error_estimate: float
    method: Method
    evals: int
    converged: bool = True


def _analytic(value):
    return QuadratureResult(value, 0.0, Method.ANALYTIC, 0, True)


@lru_cache(maxsize=64)
def _gl_unit(order):
    """Gauss-Legendre nodes/weights mapped to the unit interval (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def _radial_factor(b, R, r):
    """Angular average of the displaced Gaussian times the r^2 measure.

    Returns r/R * (exp(-b(r-R)^2) - exp(-b(r+R)^2)), which equals
    4 b r^2 exp(-b(r^2+R^2)) sinhc(2 b r R); the series branch keeps the
    expression stable when 2 b r R underflows the difference.
    """
    r = np.maximum(r, 0.0)
    if R == 0.0:
        return 4.0 * b * r * r * np.exp(-b * r * r)
    z = 2.0 * b * r * R
    small = z < 1e-4
    direct = (r / R) * (np.exp(-b * (r - R) ** 2) - np.exp(-b * (r + R) ** 2))
    series = 4.0 * b * r * r * np.exp(-b * (r * r + R * R)) * (1.0 + z * z / 6.0)
    return np.where(small, series, direct)


# psi(1/2 + j) = -gamma - 2 ln 2 + sum_{i<j} 1/(1/2 + i) (A&S 6.3.4) and ln j!
# for the Poisson series; 128 terms cover means up to 40.5 to below 1e-25.
_POISSON_TERMS = 128
_PSI_HALF = -0.5772156649015329 - 2.0 * math.log(2.0) + np.concatenate(
    [[0.0], np.cumsum(1.0 / (0.5 + np.arange(_POISSON_TERMS - 1)))]
)
_LOG_FACTORIAL = np.array([math.lgamma(j + 1.0) for j in range(_POISSON_TERMS)])
# E ln|1 + eps Z| = -sum_k (2k-1)!! eps^{2k} / (2k), k = 1..30: asymptotic,
# with its smallest omitted term below 1e-18 once |mu|/sigma >= 9.
_ASYMPTOTIC_CUT = 9.0
_ASYMPTOTIC_COEFFS = np.concatenate(
    [[0.0], [-math.prod(range(1, 2 * k, 2)) / (2.0 * k) for k in range(1, 31)]]
)
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _log_moment(mu, sigma):
    """L(mu) = E ln|mu + sigma Z| for a standard normal Z, elementwise in mu.

    (mu + sigma Z)^2 / sigma^2 is noncentral chi-square with one degree of
    freedom and noncentrality mu^2 / sigma^2, whose log moment is the
    Poisson mixture ln 2 + sum_j Pois(j; mu^2 / 2 sigma^2) psi(1/2 + j).
    Far from the origin the asymptotic series in (sigma / mu)^2 is used.
    """
    ratio = np.abs(mu) / sigma
    out = np.empty_like(ratio)
    far = ratio >= _ASYMPTOTIC_CUT
    series = np.vander((sigma / mu[far]) ** 2, len(_ASYMPTOTIC_COEFFS), increasing=True)
    out[far] = np.log(np.abs(mu[far])) + series @ _ASYMPTOTIC_COEFFS
    m = 0.5 * ratio[~far, None] ** 2
    w = np.exp(np.arange(_POISSON_TERMS) * np.log(np.maximum(m, 1e-300)) - m - _LOG_FACTORIAL)
    # normalizing by the weight sum cancels the rounding of -m and ln j!
    mix = (w @ _PSI_HALF) / w.sum(axis=1)
    out[~far] = math.log(sigma) + 0.5 * (math.log(2.0) + mix)
    return out


def _time_averaged_kernel(kind, b, delta, r):
    """Kernel averaged over the relative time t ~ N(delta, 1/(2b)) at radius r.

    Both kernels depend on (t, r) through t - r and t + r only: the light
    cone kernel is sgn(t) on |t| > r and the log kernel is
    ln|t - r| + ln|t + r|, so the Gaussian time average is closed-form.
    """
    if kind is KernelKind.LIGHTCONE:
        e = _erfc(math.sqrt(b) * np.concatenate([r - delta, r + delta])).astype(float)
        return 0.5 * (e[: len(r)] - e[len(r) :])
    if kind is KernelKind.LOGABS:
        sigma = math.sqrt(0.5 / b)
        both = _log_moment(np.concatenate([delta - r, delta + r]), sigma)
        return both[: len(r)] + both[len(r) :]
    return np.ones_like(r)


def _refine(integrand, x0, x1, cfg, evals_per_node=1):
    """Adaptive GL15/GL7 panel refinement of a vectorized 1D integrand.

    Each panel is integrated with the 15- and the 7-node Gauss-Legendre
    rule; their difference is the panel's error estimate.  Every round
    halves the worst eighth of the panels (at least one, at most 512) until
    the summed estimate meets max(abs_tol, rel_tol |value|), which marks
    the result converged, or the eval budget is spent.  Each node costs
    ``evals_per_node`` evals.  Returns (value, error, evals, converged).
    """

    def rules(a0, a1):
        xs7, w7 = _gl_unit(7)
        xs15, w15 = _gl_unit(15)
        width = a1 - a0
        nodes = a0[:, None] + width[:, None] * np.concatenate([xs7, xs15])
        vals = integrand(nodes.ravel()).reshape(len(a0), -1)
        f7, f15 = vals[:, :7], vals[:, 7:]
        coarse = width * (f7 @ w7)
        fine = width * (f15 @ w15)
        return fine, np.abs(fine - coarse)

    values, errors = rules(x0, x1)
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
        new_vals, new_errs = rules(c0, c1)
        evals += len(c0) * 22 * evals_per_node
        x0 = np.concatenate([x0[keep], c0])
        x1 = np.concatenate([x1[keep], c1])
        values = np.concatenate([values[keep], new_vals])
        errors = np.concatenate([errors[keep], new_errs])
    return values.sum(), float(errors.sum()), evals, converged


def _reduce_2d(kind, b, delta, R, cfg):
    """Pair integral: sqrt(b/pi) rho(r) times the time-averaged kernel, over r.

    Starts from 4 panels on the radial tail window [max(0, R - hw), R + hw].
    The name predates the closed-form time integral; the benchmark's tracer
    (``perfbench/tracer.py``) wraps this function by name, so it is kept.
    """
    hw = math.sqrt(_TAIL_EXPONENT / b)
    norm = math.sqrt(b / math.pi)

    def integrand(r):
        return norm * _radial_factor(b, R, r) * _time_averaged_kernel(kind, b, delta, r)

    edges = np.linspace(max(0.0, R - hw), R + hw, 5)
    value, err, evals, converged = _refine(integrand, edges[:-1], edges[1:], cfg)
    return float(value), err, evals, converged


@lru_cache(maxsize=100_000)
def _pair_cached(kind_value, b, delta, R, rel_tol, abs_tol, max_evals):
    """Process-wide memo of ``_reduce_2d``; ``perfbench/`` uses it by name."""
    cfg = QuadratureConfig(rel_tol=rel_tol, abs_tol=abs_tol, max_evals=max_evals)
    return _reduce_2d(KernelKind(kind_value), b, delta, R, cfg)


def pair_geometry(bump_p, bump_q):
    """Combined width b and center displacement (delta t, spatial radius)."""
    a1, a2 = bump_p.width, bump_q.width
    b = a1 * a2 / (a1 + a2)
    d = bump_p.center.array - bump_q.center.array
    return b, float(d[0]), float(np.linalg.norm(d[1:]))


def gaussian_pair_reduce(kind, bump_p, bump_q, cfg):
    """Scalar pair integral of two normalized bumps against a kernel.

    CONSTANT is the exact normalization 1.  LIGHTCONE with coincident time
    centers vanishes by antisymmetry (odd integrand in the relative time),
    and negative time separations are folded to positive ones, which makes
    the numeric antisymmetry under argument swap exact.  LOGABS depends on
    |delta| only.
    """
    if kind is KernelKind.CONSTANT:
        return _analytic(1.0)
    b, delta, R = pair_geometry(bump_p, bump_q)
    if kind is KernelKind.LIGHTCONE and delta == 0.0:
        return _analytic(0.0)
    sign = -1.0 if (kind is KernelKind.LIGHTCONE and delta < 0.0) else 1.0
    value, err, evals, conv = _pair_cached(
        kind.value, b, abs(delta), R, cfg.rel_tol, cfg.abs_tol, cfg.max_evals
    )
    return QuadratureResult(sign * value, err, Method.REDUCED2D, evals, conv)


def _check_contraction(contraction):
    c = np.asarray(contraction, dtype=float)
    if c.shape != (4, 4) or not np.allclose(c, c.T, atol=1e-12):
        raise ValueError("contraction must be a symmetric 4x4 matrix")
    return c


def bilinear_form(kind, f, g, contraction, cfg):
    """Sum of (v . contraction . w)-weighted scalar pair integrals.

    The contraction is passed explicitly because the same cached scalar
    integrals serve the Minkowski, Krein and frame-summed pairings.
    """
    c = _check_contraction(contraction)
    value, err, evals = 0.0, 0.0, 0
    converged = True
    for tf in f.terms:
        for tg in g.terms:
            coef = tf.weight * tg.weight * float(np.array(tf.covector) @ c @ tg.covector)
            if coef == 0.0:
                continue
            r = gaussian_pair_reduce(kind, tf.bump, tg.bump, cfg)
            value += coef * r.value
            err += abs(coef) * r.error_estimate
            evals += r.evals
            converged = converged and r.converged
    method = Method.REDUCED2D if evals else Method.ANALYTIC
    return QuadratureResult(value, err, method, evals, converged)


# ---------------------------------------------------------------------------
# Monte Carlo oracle


def worker_count(workers=None):
    if workers is not None:
        return max(1, int(workers))
    return max(1, int(os.environ.get(WORKERS_ENV_VAR, "1")))


def _mixture(f):
    weights = np.array([t.weight for t in f.terms])
    centers = np.array([t.bump.center.components for t in f.terms])
    scales = 1.0 / np.sqrt(2.0 * np.array([t.bump.width for t in f.terms]))
    probs = np.abs(weights) / np.abs(weights).sum()
    return weights, centers, scales, np.cumsum(probs)


def _mc_block(kind, pair_coeff, fmix, gmix, seed, block, n):
    key = np.array([seed % 2**64, block], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    _, fc, fs, fcum = fmix
    _, gc, gs, gcum = gmix
    i = np.searchsorted(fcum, rng.random(n), side="right")
    j = np.searchsorted(gcum, rng.random(n), side="right")
    x = fc[i] + rng.standard_normal((n, 4)) * fs[i][:, None]
    xp = gc[j] + rng.standard_normal((n, 4)) * gs[j][:, None]
    y = x - xp
    s = -y[:, 0] ** 2 + y[:, 1] ** 2 + y[:, 2] ** 2 + y[:, 3] ** 2
    if kind is KernelKind.LIGHTCONE:
        k = np.where(s < 0.0, np.sign(y[:, 0]), 0.0)
    elif kind is KernelKind.LOGABS:
        # exact null hits have measure zero; drop them instead of -inf
        k = np.where(s == 0.0, 0.0, np.log(np.abs(np.where(s == 0.0, 1.0, s))))
    else:
        k = np.ones(n)
    vals = pair_coeff[i, j] * k
    return float(vals.sum()), float((vals * vals).sum())


def mc_oracle(kind, f, g, contraction, cfg, workers=None):
    """Direct 8D importance-sampled estimate of the bilinear form.

    Samples x from the |f|-proportional bump mixture and x' from the
    |g|-proportional one.  The per-block Philox streams are keyed on
    (seed, block index), so the estimate is deterministic for a fixed seed
    no matter how many workers process the blocks.
    """
    c = _check_contraction(contraction)
    if f.is_zero() or g.is_zero():
        return QuadratureResult(0.0, 0.0, Method.MC8D, 0, True)
    fmix = _mixture(f)
    gmix = _mixture(g)
    fw, gw = fmix[0], gmix[0]
    vf = np.array([t.covector for t in f.terms])
    vg = np.array([t.covector for t in g.terms])
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

    nworkers = worker_count(workers)
    if nworkers > 1:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
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


def _momentum_integrand(P, coef, cpair, dt, sep):
    """Combined radial integrand sum_pairs coef * (g(P) - 1) / P.

    g(P) = sinc(P sep) e^{-i P dt} (1 + i P dt + 2 c P^2) e^{-2 c P^2} has
    g(0) = 1 for every pair; subtracting 1 removes the infrared 1/P piece,
    whose total coefficient is the (vanishing) mean contraction.
    """
    Pm = P[:, None]
    osc = np.sinc(Pm * sep[None, :] / math.pi)
    phase = np.exp(-1j * Pm * dt[None, :])
    poly = 1.0 + 1j * Pm * dt[None, :] + 2.0 * cpair[None, :] * Pm**2
    damp = np.exp(-2.0 * cpair[None, :] * Pm**2)
    g = osc * phase * poly * damp
    return ((g - 1.0) @ coef) / P


def momentum_form(f, g, cfg, contraction=None):
    """Momentum-space bilinear form built on the radial correlation kernel.

    Requires mean(f) = mean(g) = 0; otherwise the |p|^{-3} infrared
    divergence is unregulated and the form is rejected.  Returns a complex
    value; for f = g its real part reproduces -(1/16 pi^2) times the LOGABS
    position-space form.
    """
    c = np.eye(4) if contraction is None else _check_contraction(contraction)
    scale_f = sum(abs(t.weight) for t in f.terms)
    scale_g = sum(abs(t.weight) for t in g.terms)
    if np.max(np.abs(mean(f)), initial=0.0) > 1e-12 * max(scale_f, 1.0):
        raise ValueError("momentum_form requires mean(f) = 0")
    if np.max(np.abs(mean(g)), initial=0.0) > 1e-12 * max(scale_g, 1.0):
        raise ValueError("momentum_form requires mean(g) = 0")
    if f.is_zero() or g.is_zero():
        return _analytic(0.0)

    coef, cpair, dt, sep = [], [], [], []
    for tf in f.terms:
        for tg in g.terms:
            w = tf.weight * tg.weight * float(np.array(tf.covector) @ c @ tg.covector)
            if w == 0.0:
                continue
            coef.append(w)
            cpair.append(0.25 / tf.bump.width + 0.25 / tg.bump.width)
            d = tf.bump.center.array - tg.bump.center.array
            dt.append(d[0])
            sep.append(float(np.linalg.norm(d[1:])))
    if not coef:
        return _analytic(0.0)
    coef = np.array(coef)
    cpair = np.array(cpair)
    dt = np.array(dt)
    sep = np.array(sep)

    p_max = math.sqrt(0.5 * _TAIL_EXPONENT / cpair.min())
    freq = float(np.max(np.abs(dt) + sep))
    n0 = min(4096, max(24, int(2.0 * freq * p_max / math.pi) + 1))
    edges = np.linspace(0.0, p_max, n0 + 1)
    total, err, evals, converged = _refine(
        lambda P: _momentum_integrand(P, coef, cpair, dt, sep),
        edges[:-1], edges[1:], cfg, evals_per_node=len(coef),
    )
    scale = 8.0 * math.pi**2
    return QuadratureResult(complex(total) / scale, err / scale, Method.REDUCED2D, evals, converged)
