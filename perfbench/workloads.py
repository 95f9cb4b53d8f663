"""Seeded inputs, one op and its output check for each benchmark workload.

Every workload is a closed loop with one client: the next op starts when
the previous op has returned.  The inputs of op ``i`` are a pure function
of ``(seed, workload, i)``.  ``ncmink`` is reached only through attribute
lookups on its modules at call time, so the tracer in ``tracer.py`` can
swap its public functions for timed wrappers.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in ``README.md`` next to this file.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

import ncmink as nc
from ncmink import integrate as nc_integrate

#: Planck length of the observables workload: the CLI default, so kappa > 0.
OBSERVABLES_CONSTANTS = nc.PhysicalConstants(planck_length=1.0)

#: State of the verify-gram suite: Planck-scale coupling keeps the state
#: moments O(1), which is where the positivity certificate is informative.
STATE_CONSTANTS = nc.PhysicalConstants(planck_length=0.1)
STATE_PARAMS = nc.DMStateParams(
    state_alpha=1.0,
    psi=nc.GaussianBump((0.1, 0.0, 0.2, 0.0), 25.0),
    constants=STATE_CONSTANTS,
)

#: Quadrature tolerances stay at the defaults, which are the CLI defaults.
CFG = nc.QuadratureConfig()

#: 16 Philox blocks of 8192 samples.
MC_SAMPLES = 131_072
ORACLE_KINDS = (nc.KernelKind.LIGHTCONE, nc.KernelKind.LOGABS, nc.KernelKind.CONSTANT)
FOURIER_REL_TOL = 0.01

#: Bound before the tracer can rebind the module attribute to its wrapper.
_PAIR_CACHE = nc_integrate._pair_cached


def cold_start():
    """Forget every pair integral: each pass pays what one CLI call pays."""
    _PAIR_CACHE.cache_clear()


def _rng(seed, workload_id, index):
    return np.random.default_rng([seed, workload_id, index])


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _unit_vector(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _failure(ok, message, exact=True):
    """None when the check holds, else (message, exact).

    An exact check holds for every input on a correct program, so its
    failure makes the run incorrect.  An inexact one certifies a property
    that can fail for a correct program: a statistical agreement test, or
    state positivity once a clipped-log cutoff activates.  Both kinds count
    as failed ops.
    """
    return None if ok else (message, exact)


def exception_failure(exc):
    """An op that raises fails; only a positivity verdict is inexact."""
    return repr(exc), not isinstance(exc, nc.PositivityError)


# ---------------------------------------------------------------------------
# observables: distance + causal on a fresh pair of localized points

SEPARATIONS = ("timelike", "spacelike", "near-null")


@dataclass(frozen=True)
class PointPair:
    p: nc.GaussianBump
    q: nc.GaussianBump
    separation: str


def observables_input(seed, index):
    """Widths log-uniform on [1, 1e8]; separation kinds in equal shares."""
    rng = _rng(seed, 0, index)
    separation = SEPARATIONS[index % 3]
    width_p, width_q = _log_uniform(rng, 1.0, 1e8), _log_uniform(rng, 1.0, 1e8)
    r = _log_uniform(rng, 1e-2, 10.0)
    if separation == "timelike":
        dt = r * rng.uniform(1.5, 3.0)
    elif separation == "spacelike":
        dt = r * rng.uniform(0.0, 0.67)
    else:
        dt = r * (1.0 + rng.choice([-1e-3, 1e-3]))
    dt *= rng.choice([-1.0, 1.0])
    q = rng.normal(size=4)
    p = q + np.concatenate([[dt], r * _unit_vector(rng)])
    return PointPair(
        nc.GaussianBump(tuple(p), width_p), nc.GaussianBump(tuple(q), width_q), separation
    )


def observables_op(ctx, pair):
    d = nc.distance(pair.p, pair.q, OBSERVABLES_CONSTANTS, CFG)
    c = nc.causal(pair.p, pair.q, CFG)
    return d, c


def _interval(p, q):
    """(p - q)^2 in the operation order of minkowski_interval."""
    d = [a - b for a, b in zip(p.center.components, q.center.components)]
    return -d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + d[3] * d[3]


def observables_check(ctx, pair, out):
    d, c = out
    swapped = nc.causal(pair.q, pair.p, CFG)
    return (
        _failure(d.converged and c.converged and swapped.converged, "not converged")
        or _failure(abs(c.value) <= 1.0 + 2.0 * c.error_estimate, f"|C| = {abs(c.value)!r} > 1 + 2 err")
        or _failure(swapped.value == -c.value, "causal(q, p) != -causal(p, q)")
        or _failure(d.classical == _interval(pair.p, pair.q), "classical term != (p - q)^2")
        or _failure(d.quantum + 2.0 * d.error >= 0.0, f"quantum {d.quantum!r} < -2 err")
    )


def observables_result(out):
    d, c = out
    return (d.classical, d.quantum, d.error, c.value, c.error_estimate)


# ---------------------------------------------------------------------------
# state: Gram certificate of a family plus omega(a* a) on one element


@dataclass(frozen=True)
class StateCase:
    family: tuple
    element: nc.WeylElement


def _multi_covector_smearing(rng, nterms):
    terms = []
    for _ in range(nterms):
        v = tuple(rng.normal(size=4))
        bump = nc.GaussianBump(tuple(rng.normal(scale=0.6, size=4)), rng.uniform(8.0, 40.0))
        terms.append((v, bump, rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])))
    return nc.VectorSmearing(tuple(terms))


def _family_shapes():
    """Every family shape with its cumulative probability, cheapest first.

    A shape is the tuple of per-member term counts.  The family size is
    uniform on 2-5 and each member's term count uniform on 1-3, so a shape of
    size s has probability 1/4 * 3**-s.  Shapes are ordered by their total
    term count, which sets an op's cost.
    """
    shapes = sorted(
        (sum(counts), counts)
        for size in range(2, 6)
        for counts in itertools.product((1, 2, 3), repeat=size)
    )
    return [counts for _, counts in shapes], np.cumsum([0.25 * 3.0 ** -len(c) for _, c in shapes])


FAMILY_SHAPES, FAMILY_SHAPE_CDF = _family_shapes()

#: Distinct state inputs per pass: one per probability stratum of the shapes.
STATE_OPS = 160


def state_input(seed, index):
    """A family of 2-5 smearings of 1-3 terms each, and one element built on it.

    The shape is drawn by stratified sampling: input i takes the shape at
    the CDF point (k + u) / STATE_OPS, with k a seeded permutation of the
    strata and u uniform.  Each input alone is distributed as a family of
    independently drawn size and term counts, and every shape can occur,
    but a pass always holds a representative mix of cheap and costly
    shapes, so a run's cost varies less by seed.
    """
    strata = _rng(seed, 3, 0).permutation(STATE_OPS)
    rng = _rng(seed, 1, index)
    u = (strata[index % STATE_OPS] + rng.uniform()) / STATE_OPS
    shape = FAMILY_SHAPES[
        min(int(np.searchsorted(FAMILY_SHAPE_CDF, u, side="right")), len(FAMILY_SHAPES) - 1)
    ]
    family = tuple(_multi_covector_smearing(rng, nterms) for nterms in shape)
    coeffs = {f: complex(rng.normal(), rng.normal()) for f in family}
    return StateCase(family, nc.WeylElement.from_dict(coeffs))


def state_op(ctx, case):
    rep_n, rep_m = nc.gram_check(list(case.family), STATE_PARAMS, CFG)
    calc = ctx.calculus
    omega = calc.eval_omega(calc.mul(calc.star(case.element), case.element), STATE_PARAMS)
    return rep_n, rep_m, omega


def state_check(ctx, case, out):
    rep_n, rep_m, omega = out
    budget = max(2.0 * omega.error_estimate, 1e-9)
    return (
        _failure(omega.converged, "omega not converged")
        or _failure(rep_n.is_psd, f"N not PSD: min eigenvalue {rep_n.min_eigenvalue!r}", False)
        or _failure(rep_m.is_psd, f"M not PSD: min eigenvalue {rep_m.min_eigenvalue!r}", False)
        or _failure(omega.value.real >= -budget, f"Re omega(a*a) = {omega.value.real!r} < -{budget!r}", False)
        or _failure(abs(omega.value.imag) <= budget, f"|Im omega(a*a)| = {abs(omega.value.imag)!r} > {budget!r}", False)
    )


def state_result(out):
    rep_n, rep_m, omega = out
    return (rep_n.min_eigenvalue, rep_m.min_eigenvalue, omega.value, omega.error_estimate)


# ---------------------------------------------------------------------------
# oracle: Monte Carlo and momentum-space cross-checks of the reduced forms


@dataclass(frozen=True)
class OracleCase:
    kind: nc.KernelKind | None  # None marks the momentum-space op
    f: nc.VectorSmearing
    g: nc.VectorSmearing
    mc_seed: int


def oracle_input(seed, index):
    """Ops 0, 1, 2 of every four run the MC oracle, op 3 the momentum route."""
    rng = _rng(seed, 2, index)
    mc_seed = int(rng.integers(2**62))
    if index % 4 < 3:
        f, g = (
            nc.scalar_smearing(
                nc.GaussianBump(tuple(rng.normal(size=4)), _log_uniform(rng, 4.0, 2e3))
            )
            for _ in range(2)
        )
        return OracleCase(ORACLE_KINDS[index % 4], f, g, mc_seed)
    width = _log_uniform(rng, 20.0, 400.0)
    lead, lag = 1.0, 0.5 * rng.uniform()
    dt, dx = (lead, lag) if rng.uniform() < 0.5 else (lag, lead)  # timelike or spacelike
    offset = _log_uniform(rng, 0.3, 2.0) * np.concatenate([[dt], dx * _unit_vector(rng)])
    q = rng.normal(size=4)
    f = nc.scalar_smearing(nc.GaussianBump(tuple(q + offset), width)) + nc.scalar_smearing(
        nc.GaussianBump(tuple(q), width), -1.0
    )
    return OracleCase(None, f, f, mc_seed)


def oracle_op(ctx, case):
    identity = nc.IDENTITY
    if case.kind is None:
        m = nc.momentum_form(case.f, case.g, CFG)
        log_form = nc.bilinear_form(nc.KernelKind.LOGABS, case.f, case.g, identity, CFG)
        return log_form, m
    det = nc.bilinear_form(case.kind, case.f, case.g, identity, CFG)
    mc_cfg = nc.QuadratureConfig(mc_samples=MC_SAMPLES, seed=case.mc_seed)
    mc = nc.mc_oracle(case.kind, case.f, case.g, identity, mc_cfg, workers=ctx.workers)
    return det, mc


def oracle_check(ctx, case, out):
    det, other = out
    if not (det.converged and other.converged):
        return "not converged", True
    if case.kind is None:
        expected = -det.value / (16.0 * math.pi**2)
        return _failure(
            abs(other.value.real - expected) <= FOURIER_REL_TOL * abs(expected),
            f"Fourier identity off by {abs(other.value.real - expected) / abs(expected):.3%}",
        )
    combined = 2.0 * (det.error_estimate + other.error_estimate)
    return _failure(
        abs(det.value - other.value) <= combined,
        f"|det - mc| = {abs(det.value - other.value)!r} > {combined!r}",
        False,
    )


def oracle_result(out):
    det, other = out
    return (det.value, det.error_estimate, other.value, other.error_estimate)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make_input: object
    op: object
    check: object
    result: object
    #: distinct inputs per pass
    ops: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("observables", observables_input, observables_op, observables_check, observables_result, 300),
        Workload("state", state_input, state_op, state_check, state_result, STATE_OPS),
        Workload("oracle", oracle_input, oracle_op, oracle_check, oracle_result, 20),
    )
}


class RunContext:
    """Per-pass state: a cold pair cache, a fresh WeylCalculus, the MC worker count."""

    def __init__(self, workers):
        cold_start()
        self.workers = workers
        self.calculus = nc.WeylCalculus(STATE_CONSTANTS, CFG, u=STATE_PARAMS.u, pairing="krein")

