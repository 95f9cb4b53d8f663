"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 1 and the closed-form clause of criterion 4 assert published
closed-form targets whose additive constant is internally inconsistent in
the source derivation (the narrow-width log-form constant; see
ncmink.verify).  They are implemented verbatim at their stated tolerances
and fail honestly; the *_corrected_companion tests prove the quadrature
converges to the constant the defining integrals actually produce, which
localizes the defect to the published value rather than this
implementation.  Run with `pytest -v tests/test_acceptance.py`.
"""

import math
import time

import numpy as np
import pytest

from conftest import random_bump
from ncmink import (
    DMStateParams,
    ETA,
    GaussianBump,
    KernelKind,
    PhysicalConstants,
    QuadratureConfig,
    bilinear_form,
    causal,
    distance,
    gaussian_pair_reduce,
    mc_oracle,
    minkowski_interval,
    momentum_form,
)
from ncmink.testfn import scalar_smearing
from ncmink.verify import (
    FAMILY_C_CORRECTED,
    FAMILY_C_PUBLISHED,
    MINVAR_CONSTANT_CORRECTED,
    MINVAR_CONSTANT_PUBLISHED,
    log_quadratic_form,
    verify_alpha_limit,
    verify_gram,
    verify_weyl,
)

CFG = QuadratureConfig()
I4 = np.eye(4)


def report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


def minvar_values():
    p, q = (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)
    values = {}
    for width in (1e2, 1e3, 1e4):
        values[width] = log_quadratic_form(p, q, width, CFG).value
    return values


def test_criterion_1_minimal_variance_published_constant():
    """Log quadratic form vs -2 ln(a |s|) + 4(1-gamma), rel err < 2% at a=1e4, < 60 s."""
    start = time.time()
    values = minvar_values()
    elapsed = time.time() - start
    target = -2.0 * math.log(1e4) + MINVAR_CONSTANT_PUBLISHED
    rel = abs(values[1e4] - target) / abs(target)
    ok = rel < 0.02 and elapsed < 60.0
    report(
        "1 (narrow-width log-form limit, published constant)",
        ok,
        f"Q(1e4)={values[1e4]:.6f} target={target:.6f} rel={rel:.2%} runtime={elapsed:.1f}s",
    )
    assert elapsed < 60.0
    assert rel < 0.02, (
        f"published constant 4(1-gamma) is off by 2(1-gamma); computed {values[1e4]:.6f}, "
        f"published target {target:.6f}"
    )


def test_criterion_1_corrected_companion():
    """Same form vs the corrected constant 2(1-gamma): convergence across widths."""
    values = minvar_values()
    worst = 0.0
    for width, value in values.items():
        target = -2.0 * math.log(width) + MINVAR_CONSTANT_CORRECTED
        worst = max(worst, abs(value - target) / abs(target))
    ok = worst < 0.02
    report("1-companion (corrected constant)", ok, f"worst rel error {worst:.2%}")
    assert ok


def test_criterion_2_fourier_log_identity():
    """Re(momentum form) = -(1/16 pi^2) LOGABS form within 1%, six configs, < 120 s."""
    start = time.time()
    offsets = [
        (1.0, 0, 0, 0),
        (1.5, 0.2, 0, 0),
        (0.6, 0.1, 0.1, 0),
        (0, 1.0, 0, 0),
        (0, 0.5, 0.5, 0),
        (0, 0, 1.2, 0.9),
    ]
    worst = 0.0
    for offset in offsets:
        width = 80.0
        f = scalar_smearing(GaussianBump(offset, width)) + scalar_smearing(
            GaussianBump((0, 0, 0, 0), width), -1.0
        )
        m = momentum_form(f, f, CFG)
        logf = bilinear_form(KernelKind.LOGABS, f, f, I4, CFG)
        expected = -logf.value / (16.0 * math.pi**2)
        agree = abs(m.value.real - expected) <= max(
            0.01 * abs(expected), m.error_estimate + logf.error_estimate / (16 * math.pi**2)
        )
        worst = max(worst, abs(m.value.real - expected) / abs(expected))
        assert agree, (offset, m.value.real, expected)
    elapsed = time.time() - start
    ok = elapsed < 120.0
    report("2 (Fourier/log identity)", ok, f"worst rel {worst:.2e}, runtime={elapsed:.1f}s")
    assert ok


def test_criterion_3_causal_bound_and_limits():
    """|C| <= 1 + 2 err on 1000 random pairs; sharp limits within 1e-3; antisymmetry."""
    rng = np.random.default_rng(314)
    worst_excess = -1.0
    worst_asym = 0.0
    for _ in range(1000):
        chi_p = random_bump(rng, width_lo=2.0, width_hi=2e4)
        chi_q = random_bump(rng, width_lo=2.0, width_hi=2e4)
        fwd = causal(chi_p, chi_q, CFG)
        bwd = causal(chi_q, chi_p, CFG)
        worst_excess = max(worst_excess, abs(fwd.value) - (1.0 + 2.0 * fwd.error_estimate))
        worst_asym = max(
            worst_asym,
            abs(fwd.value + bwd.value) - (fwd.error_estimate + bwd.error_estimate),
        )
    bound_ok = worst_excess <= 0.0
    asym_ok = worst_asym <= 0.0

    narrow = 1e4
    origin = GaussianBump((0, 0, 0, 0), narrow)
    limits = {
        "future": (GaussianBump((1, 0, 0, 0), narrow), 1.0),
        "past": (GaussianBump((-0.8, 0.3, 0, 0), narrow), -1.0),
        "spacelike": (GaussianBump((0.2, 1.5, 0, 0), narrow), 0.0),
    }
    limits_ok = True
    for name, (bump, expected) in limits.items():
        value = causal(bump, origin, CFG).value
        limits_ok = limits_ok and abs(value - expected) < 1e-3
    ok = bound_ok and asym_ok and limits_ok
    report(
        "3 (causal bound and limits)",
        ok,
        f"worst bound excess {worst_excess:.2e}, worst antisymmetry excess {worst_asym:.2e}, sharp limits ok={limits_ok}",
    )
    assert ok


def test_criterion_4_classical_limit_and_quantum_positivity():
    """kappa = 0 gives exactly (p-q)^2; quantum part >= 0 on 200 random configs."""
    rng = np.random.default_rng(1234)
    classical_ok = True
    constants0 = PhysicalConstants(0.0)
    constants = PhysicalConstants(0.05)
    worst_quantum = np.inf
    for _ in range(200):
        chi_p = random_bump(rng, width_lo=4.0, width_hi=4e3)
        chi_q = random_bump(rng, width_lo=4.0, width_hi=4e3)
        free = distance(chi_p, chi_q, constants0, CFG)
        expected = minkowski_interval(chi_p.center, chi_q.center)
        classical_ok = classical_ok and free.total == expected and free.quantum == 0.0
        full = distance(chi_p, chi_q, constants, CFG)
        worst_quantum = min(worst_quantum, full.quantum + 2.0 * full.error)
    ok = classical_ok and worst_quantum >= 0.0
    report(
        "4a (classical limit exact, quantum positive)",
        ok,
        f"classical exact={classical_ok}, min(quantum + 2 err)={worst_quantum:.2e}",
    )
    assert ok


def _closed_form_sweep(family_constant):
    ell = 1e-2
    constants = PhysicalConstants(ell)
    width = 2.0 * family_constant / ell**2
    worst = 0.0
    for ratio in np.geomspace(10.0, 1e4, 7):
        sep = math.sqrt(ratio) * ell
        chi_p = GaussianBump((0.0, sep, 0.0, 0.0), width)
        chi_q = GaussianBump((0.0, 0.0, 0.0, 0.0), width)
        result = distance(chi_p, chi_q, constants, CFG)
        closed = constants.kappa_sq / (2.0 * math.pi**2) * math.log(ratio / 2.0)
        worst = max(worst, abs(result.quantum - closed) / abs(closed))
    return worst


def test_criterion_4_closed_form_published_family():
    """Quantum part vs (kappa^2/2 pi^2) ln(|s|/2 l^2) within 5%, c = e^{2(1-gamma)}/4."""
    worst = _closed_form_sweep(FAMILY_C_PUBLISHED)
    ok = worst < 0.05
    report(
        "4b (closed form, published family constant)",
        ok,
        f"worst rel deviation {worst:.2%} over |s|/l^2 in [10, 1e4]",
    )
    assert ok, (
        "the published family constant inherits the 4(1-gamma) defect; "
        f"worst deviation {worst:.2%}"
    )


def test_criterion_4_closed_form_corrected_companion():
    """Same sweep with the corrected family constant c = e^{1-gamma}/4."""
    worst = _closed_form_sweep(FAMILY_C_CORRECTED)
    ok = worst < 0.05
    report("4b-companion (corrected family constant)", ok, f"worst rel deviation {worst:.2%}")
    assert ok


def test_criterion_5_alpha_limit_and_psi_independence():
    rep = verify_alpha_limit(CFG)
    detail = "; ".join(f"{c['name']}={c['computed']:.2e}" for c in rep["checks"][1:])
    report("5 (alpha limit, psi independence)", rep["passed"], detail)
    assert rep["passed"], rep


def test_criterion_6_state_positivity():
    rep = verify_gram(CFG, families=50, elements=100)
    detail = "; ".join(f"{c['name'].split('(')[0].strip()}: {c['computed']:.2e}" for c in rep["checks"])
    report("6 (state positivity: Gram + omega)", rep["passed"], detail)
    assert rep["passed"], rep


def test_criterion_7_algebraic_exactness():
    rep = verify_weyl(CFG, triples=50)
    failed = [c["name"] for c in rep["checks"] if not c["passed"]]
    report("7 (algebraic exactness)", rep["passed"], f"failed checks: {failed or 'none'}")
    assert rep["passed"], rep


def test_criterion_8_oracle_equivalence_and_determinism():
    """Reduced 2D vs 8D MC within 2x combined errors on 200 configs; MC bit-stable."""
    rng = np.random.default_rng(2718)
    mc_cfg = QuadratureConfig(mc_samples=20_000, seed=99)
    kinds = (KernelKind.LIGHTCONE, KernelKind.LOGABS, KernelKind.CONSTANT)
    worst = -np.inf
    for k in range(200):
        kind = kinds[k % 3]
        f = scalar_smearing(random_bump(rng, width_lo=4.0, width_hi=2e3))
        g = scalar_smearing(random_bump(rng, width_lo=4.0, width_hi=2e3))
        det = bilinear_form(kind, f, g, I4, CFG)
        mc = mc_oracle(kind, f, g, I4, mc_cfg)
        combined = 2.0 * (det.error_estimate + mc.error_estimate)
        worst = max(worst, abs(det.value - mc.value) - combined)
    agree_ok = worst <= 0.0

    f = scalar_smearing(GaussianBump((1, 0, 0, 0), 40.0)) + scalar_smearing(
        GaussianBump((0, 0, 0, 0), 40.0), -1.0
    )
    runs = [
        mc_oracle(KernelKind.LOGABS, f, f, I4, mc_cfg, workers=w).value
        for w in (1, 2, 4, 8)
    ]
    determinism_ok = all(value == runs[0] for value in runs)
    ok = agree_ok and determinism_ok
    report(
        "8 (oracle equivalence + MC determinism)",
        ok,
        f"worst |diff| - 2(err_det + err_mc) = {worst:.2e}; bit-identical across workers={determinism_ok}",
    )
    assert ok
