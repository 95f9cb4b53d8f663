"""Bilinear forms of Gaussian smearings against Lorentzian kernels.

Every form treated here is an 8-dimensional double integral

    B = integral f(x) K(x - x') g(x') d4x d4x'

with f, g finite sums of covector-weighted normalized Gaussians and K, a
function of y = x - x' only, one of the kinds of ``pair.KernelKind``: the
antisymmetric light-cone kernel sgn(t-t') Theta[-(x-x')^2], the symmetric
logarithm ln|(x-x')^2|, or the constant kernel of the normalization
checks.  Three evaluation routes are provided:

* ``bilinear_form``: exact closed forms.  Each pair of bumps is one
  evaluation (``_pair_integral``) on the float pair path of
  :mod:`ncmink.pair`, which imports no numpy and which the observables
  call for their one pair; the names of it used here are imported.  Forms
  read their pair integrals from one kernel table (``_kernel_table``) over
  the distinct bump rows of their arguments, each upper-triangle pair
  evaluated once and its swap folded as the one-pair path folds it, and
  the coefficient times table products of all the forms of a call in one
  array pass (``_products``); ``bilinear_form`` is the one-pair case.  Every
  covector coefficient, here and in the other two routes, is
  ``testfn.contract``: sums in index order on numpy's elementwise
  operations, with no BLAS.
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
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from itertools import accumulate

import numpy as np

# the float pair path; _reduce_2d and _pair_cached are bound here too,
# because the benchmark's tracer reads them from this module
from .pair import (
    KernelKind,
    Method,
    QuadratureResult,
    _analytic,
    _geometry,
    _pair_cached,
    _pair_integral,
    _reduce_2d,
)
from .testfn import contract, mean


# exp(-41.5) ~ 1e-18: Gaussian tails beyond this momentum are below the
# round-off floor of every tolerance used in the package.
_TAIL_EXPONENT = 41.5

_EPS = sys.float_info.epsilon
_MC_BLOCK_SIZE = 8192
_MAX_ROUNDS = 400


def _kernel_table(blocks, kinds):
    """Pair integrals among the distinct bumps of some blocks of bump rows, one matrix per kind.

    Each block is the bump rows, (t, x, y, z, width) tuples of Python
    floats, of one smearing's terms (or of one bump), and bumps match on
    the value of their row in a dict.  Returns each block's list of
    indices into the distinct bumps and, for each kind, the matrix K[i, j]
    of the pair integrals of distinct bumps i and j.  Each pair of the
    upper triangle (diagonal included) is one ``_geometry`` call on Python
    floats and one ``_pair_integral`` call per kind.  The swapped pair has
    the same b and R and delta negated, so its entry is the one-pair
    path's fold of the same value: LOGABS as is, LIGHTCONE negated unless
    delta = 0, where it is +0.0.  So K[index[p], index[q]] is the pair
    integral of bumps p and q bit for bit, the sign of a zero included,
    however the bumps are grouped.  That holds also for a bump and its twin that differs only in
    the sign of a zero coordinate, which match on value and share a slot:
    paired with any bump, the twins give the same b and R and the same
    delta or a delta that is +-0.0, LOGABS reads |delta|, and a LIGHTCONE
    pair at delta = +-0.0 is +0.0 on both paths.  No blocks, or only empty
    ones, give empty matrices.
    """
    slots = {}
    indices = [[slots.setdefault(row, len(slots)) for row in block] for block in blocks]
    distinct = list(slots)
    n = len(distinct)
    pairs = [(i, j, *_geometry(distinct[i], distinct[j])) for i in range(n) for j in range(i, n)]
    tables = []
    for kind in kinds:
        table = [[0.0] * n for _ in range(n)]
        for i, j, b, delta, R in pairs:
            table[i][j] = value = _pair_integral(kind, b, delta, R)
            table[j][i] = -value if kind is KernelKind.LIGHTCONE and delta != 0.0 else value
        tables.append(np.array(table).reshape(n, n))
    return indices, tables


def _check_contraction(contraction):
    """A contraction from outside the package as a float array; ValueError unless symmetric 4x4."""
    c = np.asarray(contraction, dtype=float)
    # np.allclose(c, c.T, atol=1e-12) spelled out
    if c.shape != (4, 4) or not (np.abs(c - c.T) <= 1e-12 + 1e-5 * np.abs(c.T)).all():
        raise ValueError("contraction must be a symmetric 4x4 matrix")
    return c


def _term_pairs(f, g, contraction):
    """Nonzero term-pair coefficients (w v) . c . (w' v') with their (b, delta, R).

    The term table of the momentum route, and the per-pair statement of
    what ``_forms`` reads from a kernel table, whose zero-coefficient
    pairs add only signed zeros; pairs come in row-major (f term, g term)
    order.  Each coefficient is f's weighted row, read
    from ``weighted_rows``, contracted with c, then with g's, both
    ``contract`` sums in index order, so it does not depend on the other
    rows of the table.  Each pair's (b, delta, R) is ``_geometry`` of its
    two bump rows on Python floats, as in a kernel table.  The contraction
    is a 4x4 float array that is not checked here: the caller,
    ``momentum_form``, passes the identity.
    """
    left, right = (np.array(h.weighted_rows, dtype=float).reshape(-1, 4) for h in (f, g))
    coef = contract(contract(left, contraction), right.T)
    i, j = np.nonzero(coef)
    p, q = f.bump_rows, g.bump_rows
    b, delta, R = np.array([_geometry(p[k], q[l]) for k, l in zip(i.tolist(), j.tolist())]).reshape(-1, 3).T
    return coef[i, j], b, delta, R


def _stack(indices, blocks):
    """Blocks stacked for ``_products``: (index, rows, starts).

    indices holds each block's list of bump indices into the kernel
    tables and blocks its weighted covector rows (lists of floats); starts
    is the first stacked row of each block, with the row count last.
    """
    index = np.array([i for block in indices for i in block], dtype=np.intp)
    rows = np.array([row for block in blocks for row in block], dtype=float).reshape(-1, 4)
    return index, rows, [0, *accumulate(map(len, blocks))]


def _products(tables, stack, entries, contraction):
    """Coefficient times table products of each entry (k, l), for each table, as lists of floats.

    stack is a stack of blocks (``_stack``), and both blocks of an entry
    are read from it.  Its rows are contracted in one ``contract`` call
    with the 4x4 contraction c.  Entry (k, l) holds row i of block k . c .
    row j of block l times table[index_i, index_j] for every pair (i, j),
    in row-major order.  A zero coefficient gives a product that is a
    signed zero wherever its table entry is finite, which an exactly
    rounded sum leaves as it is (``math.fsum`` of zeros is +0.0).  The
    pairs of all entries are one array pass, each coefficient is computed
    once for all the tables, and each entry's coefficients come out as
    ``_term_pairs`` computes those of two smearings, whatever the other
    rows of the stack and entries of the call.  Returns one list of
    entries per table.
    """
    index, rows, starts = stack
    # each entry's first pair, column count and first rows of its two blocks
    spec, ends = [], [0]
    for k, l in entries:
        m = starts[l + 1] - starts[l]
        spec.append((ends[-1], m, starts[k], starts[l]))
        ends.append(ends[-1] + (starts[k + 1] - starts[k]) * m)
    counts = [end - start for start, end in zip(ends, ends[1:])]
    first, m, a0, b0 = np.repeat(np.array(spec, dtype=np.intp).reshape(-1, 4), counts, axis=0).T
    row, column = np.divmod(np.arange(ends[-1]) - first, m)
    i, j = a0 + row, b0 + column
    # take gathers faster than indexing
    coef = contract(contract(rows, contraction).take(i, axis=0), rows.take(j, axis=0)[..., None])[..., 0]
    i, j = index.take(i), index.take(j)
    values = [(coef * table[i, j]).tolist() for table in tables]
    return [[products[start:end] for start, end in zip(ends, ends[1:])] for products in values]


def _forms(kind, fs, gs, contraction):
    """Forms of every f in fs (rows) against every g in gs (columns), as lists of floats.

    One kernel table over the bumps of fs and gs serves all of them, and
    one ``_products`` pass over it, on one stack of the blocks of fs and
    then gs read from ``key``, gives the products of every (f, g).  Each
    value is the exactly rounded sum of its products, a zero-coefficient
    pair's signed zero among them.  A sum that is not finite, where a
    center separation or a product overflowed, raises ValueError.  The
    contraction is a symmetric 4x4 float array that is not checked here:
    ``bilinear_form`` checks its caller's, and ``WeylCalculus`` passes eta
    or a Krein matrix.
    """
    smearings = (*fs, *gs)
    indices, tables = _kernel_table([h.bump_rows for h in smearings], (kind,))
    stack = _stack(indices, [h.weighted_rows for h in smearings])
    n, m = len(fs), len(gs)
    (products,) = _products(tables, stack, [(k, n + l) for k in range(n) for l in range(m)], contraction)
    sums = [math.fsum(p) for p in products]
    for value in sums:
        if not math.isfinite(value):
            raise ValueError(f"the {kind.value} form is not finite: {value!r}")
    return [sums[k * m : (k + 1) * m] for k in range(n)]


def bilinear_form(kind, f, g, contraction, cfg):
    """Sum of (w v . contraction . w' v')-weighted scalar pair integrals.

    The contraction is passed explicitly because the same scalar integrals
    serve the Minkowski, Krein and frame-summed pairings; one that is not
    a symmetric 4x4 matrix raises ValueError.  This is the one-pair case
    of ``_forms``.  The sum is exactly rounded, so it does not depend on
    the term order: for the diagonal contractions (eta, identity) swapping
    f and g negates a LIGHTCONE form and keeps a LOGABS form bit for bit.
    """
    return _analytic(_forms(kind, [f], [g], _check_contraction(contraction))[0][0])


# ---------------------------------------------------------------------------
# Monte Carlo oracle


def _pair_table(f, g, contraction):
    """Flat tables over the component pairs (i, j) of f and g, row-major.

    Each smearing's ``key`` becomes one (n, 10) array, whose columns are
    the covectors, centers, widths and weights.  Returns the importance
    weight of a pair's samples, the CDF of drawing the pair with
    p_ij = |w_i| |w'_j| / (sum |w| sum |w'|), and the mean c_i - c'_j and
    per-axis standard deviation sqrt(1/(2a_i) + 1/(2a'_j)) of y = x - x'
    for that pair.  The CDF is divided by its own last entry,
    so it ends at exactly 1.0 and every uniform draw maps to a pair.
    """
    a, b = (np.array(h.key, dtype=float).reshape(-1, 10) for h in (f, g))
    coeff = (
        np.sign(a[:, 9])[:, None]
        * np.sign(b[:, 9])[None, :]
        * contract(contract(a[:, :4], contraction), b[:, :4].T)
        * np.abs(a[:, 9]).sum()
        * np.abs(b[:, 9]).sum()
    )
    cdf = np.cumsum(np.outer(np.abs(a[:, 9]), np.abs(b[:, 9])))
    cdf /= cdf[-1]
    shift = (a[:, None, 4:8] - b[None, :, 4:8]).reshape(-1, 4)
    scale = np.sqrt(0.5 / a[:, None, 8] + 0.5 / b[None, :, 8]).ravel()
    return coeff.ravel(), cdf, shift, scale


def _kernel_values(kind, y):
    """The LIGHTCONE or LOGABS kernel at the displacements y = x - x', a float array of shape (n, 4).

    Boundary conventions: sgn(0) = 0, and both kernels are 0 at exactly
    null separation (coincident points included).  This keeps the light-cone
    kernel exactly antisymmetric; the null set has measure zero in every
    integral, so the convention cannot affect results.  The closed-form
    pair integrals never evaluate a kernel pointwise; the Monte Carlo
    blocks read it on their samples.
    """
    s = -y[:, 0] ** 2 + y[:, 1] ** 2 + y[:, 2] ** 2 + y[:, 3] ** 2
    if kind is KernelKind.LIGHTCONE:
        return np.where(s < 0.0, np.sign(y[:, 0]), 0.0)
    return np.where(s == 0.0, 0.0, np.log(np.abs(np.where(s == 0.0, 1.0, s))))


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
        key = np.array([seed, block], dtype=np.uint64)
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
        vals = coeff * _kernel_values(kind, y)
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


def _refine(integrand, x0, x1, cfg, evals_per_node):
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
        coarse = width * (f7 * w7).sum(axis=1)
        fine = width * (f15 * w15).sum(axis=1)
        return fine, np.abs(fine - coarse), width * (mags[:, 7:] * w15).sum(axis=1)

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
    # a row per term pair, so the sums over pairs add whole rows in pair order
    Pm = P[None, :]
    osc = np.sinc(Pm * sep[:, None] / math.pi)
    phase = np.exp(-1j * Pm * dt[:, None])
    poly = 1.0 + 1j * Pm * dt[:, None] + 2.0 * cpair[:, None] * Pm**2
    damp = np.exp(-2.0 * cpair[:, None] * Pm**2)
    g_minus_1 = osc * phase * poly * damp - 1.0
    return (g_minus_1 * coef[:, None]).sum(axis=0) / P, (np.abs(g_minus_1) * np.abs(coef)[:, None]).sum(axis=0) / P


def momentum_form(f, g, cfg):
    """Momentum-space bilinear form built on the radial correlation kernel.

    Requires mean(f) = mean(g) = 0; otherwise the |p|^{-3} infrared
    divergence is unregulated and the form is rejected.  Returns a complex
    value; for f = g its real part reproduces -(1/16 pi^2) times the LOGABS
    position-space form.  Covectors are contracted with the identity.
    """
    coef, b, dt, sep = _term_pairs(f, g, np.eye(4))
    for name, h in (("f", f), ("g", g)):
        scale = np.abs([row[9] for row in h.key]).sum()
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
