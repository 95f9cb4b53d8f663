"""Verification suites reproducing the closed-form limits of the theory.

Each suite returns a plain dict report with one entry per check:
name, expected, computed, tolerance and verdict.  A tolerance of None marks
an informational row that does not influence the suite verdict.

The ``minvar`` suite needs a remark.  The published additive constant of
the narrow-width log-form limit is 4(1-gamma); exact evaluation of the
reduction integrals and an independent Monte Carlo of the defining double
integral both give 2(1-gamma) instead (the published proof loses a factor
4 when passing to null coordinates).  The suite therefore checks the
published target, which fails by construction at the stated tolerance, and
carries companion rows against the corrected constant that demonstrate the
quadrature itself converges.  The same discrepancy propagates to the
Planck-width distance family: the width constant making the quoted
closed-form correction exact is e^{1-gamma}/4, not e^{2(1-gamma)}/4.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import distance, distance_alpha
from .integrate import bilinear_form, momentum_form
from .minkowski import DMStateParams, GaussianBump, PhysicalConstants
from .pair import EULER_GAMMA, KernelKind
from .state import gram_check, krein_J, sigma
from .testfn import IDENTITY, scalar_smearing, single_term
from .weyl import WeylCalculus, WeylElement

#: Published narrow-width constant of the log quadratic form.
MINVAR_CONSTANT_PUBLISHED = 4.0 * (1.0 - EULER_GAMMA)
#: Constant the reduction integrals actually produce (see module docstring).
MINVAR_CONSTANT_CORRECTED = 2.0 * (1.0 - EULER_GAMMA)

#: Width-family constants a = 2 c / l^2 for the Planck-localized bumps.
FAMILY_C_PUBLISHED = math.exp(2.0 * (1.0 - EULER_GAMMA)) / 4.0
FAMILY_C_CORRECTED = math.exp(1.0 - EULER_GAMMA) / 4.0


def _check(name, expected, computed, tolerance, relative=True):
    if tolerance is None:
        passed = True
    elif relative:
        passed = abs(computed - expected) <= tolerance * abs(expected)
    else:
        passed = abs(computed - expected) <= tolerance
    return {
        "name": name,
        "expected": expected,
        "computed": computed,
        "tolerance": tolerance,
        "passed": bool(passed),
    }


def _nonnegative(name, computed, tolerance):
    """A row that reports ``computed`` and passes when it is >= -tolerance."""
    row = _check(name, 0.0, float(computed), tolerance, relative=False)
    return dict(row, passed=bool(computed >= -tolerance))


def _report(suite, checks):
    return {
        "suite": suite,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


def _difference_profile(p, q, width):
    return scalar_smearing(GaussianBump(p, width)) + scalar_smearing(
        GaussianBump(q, width), -1.0
    )


def log_quadratic_form(p, q, width, cfg):
    f = _difference_profile(p, q, width)
    return bilinear_form(KernelKind.LOGABS, f, f, IDENTITY, cfg)


def verify_minvar(cfg):
    """Narrow-width limit of the log quadratic form for chi_p - chi_q."""
    checks = []
    p, q = (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)  # |(p-q)^2| = 1
    for width in (1e2, 1e3, 1e4):
        r = log_quadratic_form(p, q, width, cfg)
        published = -2.0 * math.log(width) + MINVAR_CONSTANT_PUBLISHED
        corrected = -2.0 * math.log(width) + MINVAR_CONSTANT_CORRECTED
        tol = 0.02 if width == 1e4 else None
        checks.append(_check(f"log form a={width:g} vs published 4(1-gamma)", published, r.value, tol))
        checks.append(_check(f"log form a={width:g} vs corrected 2(1-gamma)", corrected, r.value, tol))
    return _report("minvar", checks)


def verify_fourier(cfg):
    """Momentum-space form against -(1/16 pi^2) times the position-space log form.

    A row passes when the momentum quadrature converged and its value is
    within 1% of the position-space one.
    """
    configs = [
        ("timelike dt=1", (1.0, 0, 0, 0), 50.0),
        ("timelike dt=2", (2.0, 0.3, 0, 0), 80.0),
        ("timelike dt=0.5", (0.5, 0.1, 0.1, 0), 200.0),
        ("spacelike dx=1", (0, 1.0, 0, 0), 50.0),
        ("spacelike dx=0.7", (0, 0.5, 0.5, 0), 120.0),
        ("spacelike dx=2", (0, 0, 1.5, 1.3), 60.0),
    ]
    checks = []
    for name, p, width in configs:
        f = _difference_profile(p, (0.0, 0.0, 0.0, 0.0), width)
        m = momentum_form(f, f, cfg)
        logf = bilinear_form(KernelKind.LOGABS, f, f, IDENTITY, cfg)
        expected = -logf.value / (16.0 * math.pi**2)
        # a value within tolerance passes only if its quadrature converged
        row = _check(f"fourier {name}", expected, m.value.real, 0.01)
        checks.append(dict(row, passed=row["passed"] and m.converged))
    return _report("fourier", checks)


def _random_smearing(rng):
    v = rng.normal(size=4)
    center = rng.normal(scale=0.8, size=4)
    width = rng.uniform(8.0, 40.0)
    weight = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
    return single_term(tuple(v), GaussianBump(tuple(center), width), weight)


def verify_gram(cfg, families=50, elements=100):
    """State positivity: Gram matrices PSD and omega(a* a) >= 0.

    The random families and elements are drawn from ``cfg.seed``.
    """
    rng = np.random.default_rng(cfg.seed)
    constants = PhysicalConstants(planck_length=0.1)
    psi = GaussianBump((0.1, 0.0, 0.2, 0.0), 25.0)
    params = DMStateParams(state_alpha=1.0, psi=psi, constants=constants)
    checks = []

    worst_n, worst_m = np.inf, np.inf
    for _ in range(families):
        family = [_random_smearing(rng) for _ in range(int(rng.integers(2, 6)))]
        rep_n, rep_m = gram_check(family, params, cfg)
        norm_n = max(abs(rep_n.min_eigenvalue), np.abs(rep_n.matrix).max(), 1e-300)
        norm_m = max(abs(rep_m.min_eigenvalue), np.abs(rep_m.matrix).max(), 1e-300)
        worst_n = min(worst_n, rep_n.min_eigenvalue / norm_n)
        worst_m = min(worst_m, rep_m.min_eigenvalue / norm_m)
    checks.append(_nonnegative(f"N matrices: worst normalized min eigenvalue ({families} families)", worst_n, 1e-10))
    checks.append(_nonnegative(f"M matrices: worst normalized min eigenvalue ({families} families)", worst_m, 1e-10))

    pool = [_random_smearing(rng) for _ in range(8)]
    calc = WeylCalculus(constants, cfg, u=params.u, pairing="krein")
    worst_re, worst_im = np.inf, 0.0
    for _ in range(elements):
        picks = rng.choice(len(pool), size=4, replace=False)
        a = WeylElement.from_dict(
            {pool[k]: complex(rng.normal(), rng.normal()) for k in picks}
        )
        om = calc.eval_omega(calc.mul(calc.star(a), a), params)
        worst_re = min(worst_re, om.value.real)
        worst_im = max(worst_im, abs(om.value.imag))
    checks.append(_nonnegative(f"omega(a*a) worst real part ({elements} elements)", worst_re, 1e-9))
    checks.append(_check(f"omega(a*a) worst |imag| ({elements} elements)", 0.0, worst_im, 1e-9, relative=False))
    return _report("gram", checks)


def _cocycle_gap(calc, *factors):
    """|c - c'| of the coefficients of (W(f) W(g)) W(h) and W(f) (W(g) W(h)), or inf when they differ.

    The cocycle asserts the phase, so the coefficients are compared once
    both products are single-term elements whose key rows agree in
    covector, center and width.  Their weights may differ by the rounding
    of the merge: a weight is the sum of the factors' weights on its row,
    at most one per factor, added in the order of its grouping, two
    additions that each round by at most eps/2 of a partial sum bounded by
    S, the sum of the magnitudes of all the factors' weights.  So the two
    weights differ by at most (2 eps + eps^2 / 2) S, and 4 eps S allows
    for that and for the rounding of the bound itself.
    """
    wf, wg, wh = map(WeylElement.generator, factors)
    left, right = calc.mul(calc.mul(wf, wg), wh), calc.mul(wf, calc.mul(wg, wh))
    if len(left.terms) != 1 or len(right.terms) != 1:
        return math.inf
    (x, a), (y, b) = left.terms[0], right.terms[0]
    bound = 4.0 * math.ulp(1.0) * sum(abs(row[9]) for f in factors for row in f.key)
    same = len(x.key) == len(y.key) and all(p[:9] == q[:9] and abs(p[9] - q[9]) <= bound for p, q in zip(x.key, y.key))
    return abs(a - b) if same else math.inf


def verify_weyl(cfg):
    """Algebraic exactness: involutions, cocycle associativity, sigma identities.

    The random smearings are drawn from ``cfg.seed``.
    """
    rng = np.random.default_rng(cfg.seed)
    constants = PhysicalConstants(planck_length=0.1)
    checks = []

    exact_j = True
    exact_star = True
    for _ in range(20):
        f = _random_smearing(rng)
        exact_j = exact_j and krein_J(krein_J(f)) == f
        a = WeylElement.generator(f, complex(rng.normal(), rng.normal()))
        exact_star = exact_star and a.star().star() == a
    checks.append(_check("J(J(f)) = f exactly (20 random)", 1.0, float(exact_j), 0.0, relative=False))
    checks.append(_check("star(star(a)) = a exactly (20 random)", 1.0, float(exact_star), 0.0, relative=False))

    worst_antisym, worst_fjf = 0.0, 0.0
    for _ in range(20):
        f, g = _random_smearing(rng), _random_smearing(rng)
        worst_antisym = max(worst_antisym, abs(sigma(f, g, constants, cfg) + sigma(g, f, constants, cfg)))
        worst_fjf = max(worst_fjf, abs(sigma(f, krein_J(f), constants, cfg)))
    checks.append(_check("sigma antisymmetry (20 random pairs)", 0.0, worst_antisym, 1e-12, relative=False))
    checks.append(_check("sigma(f, Jf) = 0 (20 random)", 0.0, worst_fjf, 1e-12, relative=False))

    for pairing in ("plain", "krein"):
        calc = WeylCalculus(constants, cfg, pairing=pairing)
        worst = max(_cocycle_gap(calc, *(_random_smearing(rng) for _ in range(3))) for _ in range(50))
        checks.append(_check(f"cocycle associativity, {pairing} pairing (50 triples)", 0.0, worst, 1e-12, relative=False))

    f = _random_smearing(rng)
    calc = WeylCalculus(constants, cfg, pairing="plain")
    inv = calc.mul(WeylElement.generator(f), WeylElement.generator(-f))
    is_unit = len(inv.terms) == 1 and inv.terms[0][0].is_zero()
    checks.append(_check("W(f) W(-f) = unit", 1.0, float(is_unit and abs(inv.terms[0][1] - 1.0) < 1e-14), 0.0, relative=False))
    return _report("weyl", checks)


def verify_alpha_limit(cfg):
    """Regulator limit of the distance: convergence and psi independence."""
    constants = PhysicalConstants(planck_length=0.05)
    width = 400.0
    chi_p = GaussianBump((1.2, 0.2, 0.0, 0.0), width)
    chi_q = GaussianBump((0.0, 0.0, 0.0, 0.0), width)
    psi_a = GaussianBump((0.4, 0.0, 0.0, 0.0), 60.0)
    psi_b = GaussianBump((-0.3, 0.5, 0.0, 0.0), 25.0)
    limit = distance(chi_p, chi_q, constants, cfg)
    checks = []

    totals = []
    for alpha in (1e2, 1e4, 1e6):
        params = DMStateParams(state_alpha=alpha, psi=psi_a, constants=constants)
        totals.append(distance_alpha(chi_p, chi_q, params, cfg).total)
    gaps = [abs(t - limit.total) for t in totals]
    checks.append(_check("alpha sweep monotone toward limit", 1.0, float(gaps[0] >= gaps[1] >= gaps[2]), 0.0, relative=False))
    checks.append(_check("alpha=1e6 relative gap to limit", 0.0, gaps[2] / abs(limit.total), 1e-3, relative=False))

    params_b = DMStateParams(state_alpha=1e6, psi=psi_b, constants=constants)
    total_b = distance_alpha(chi_p, chi_q, params_b, cfg).total
    checks.append(_check("psi independence at alpha=1e6 (relative)", 0.0, abs(total_b - totals[-1]) / abs(limit.total), 1e-3, relative=False))
    return _report("alpha-limit", checks)


SUITES = {
    "minvar": verify_minvar,
    "fourier": verify_fourier,
    "gram": verify_gram,
    "weyl": verify_weyl,
    "alpha-limit": verify_alpha_limit,
}
