import math

import numpy as np
import pytest

from conftest import random_bump
from ncmink import (
    ETA,
    GaussianBump,
    KernelKind,
    Method,
    QuadratureConfig,
    bilinear_form,
    gaussian_pair_reduce,
    mc_oracle,
    momentum_form,
)
from ncmink.testfn import scalar_smearing, single_term
from ncmink.verify import MINVAR_CONSTANT_CORRECTED

I4 = np.eye(4)
EULER_GAMMA = 0.5772156649015329


def test_constant_kernel_is_exact():
    r = gaussian_pair_reduce(
        KernelKind.CONSTANT,
        GaussianBump((1, 2, 3, 4), 2.0),
        GaussianBump((0, 0, 0, 0), 9.0),
        QuadratureConfig(),
    )
    assert r.value == 1.0
    assert r.error_estimate == 0.0
    assert r.method is Method.ANALYTIC


def test_constant_normalization_through_panels(tight_cfg):
    """The reduced pair weight must integrate to 1; checked without the analytic shortcut."""
    from ncmink.integrate import _reduce_2d

    for b, delta, radius in [(5000.0, 0.0, 0.0), (50.0, 0.7, 1.3), (8.0, -0.4, 0.1)]:
        value, err, _, converged = _reduce_2d(KernelKind.CONSTANT, b, delta, radius, tight_cfg)
        assert converged
        assert value == pytest.approx(1.0, abs=max(1e-8, 2 * err))


# (kind, b, delta, R, value) of the reduced pair integral with combined
# width b, time separation delta and spatial separation R.  Computed once
# with mpmath 1.3.0 at 22-30 digits by nested tanh-sinh quadrature of the
# (t, r) form over +-14 sigma windows, sigma^2 = 1/(2b): the time average
# numerically with breakpoints at t = +-r for LOGABS, through mpmath.erfc
# for LIGHTCONE.  Rows: near-null delta = R (1 -+ 1e-3) for b from 1e-2 to
# 1e8, separations far past the tails (R = 10 against a tail window of
# 0.064), and R = 0 pairs; the LOGABS self pairs equal 1 - gamma - ln(2b).
# The 1e-24 row sits below abs_tol and only checks that no garbage appears.
PAIR_REFERENCES = [
    (KernelKind.LIGHTCONE, 0.01, 0.999, 1.0, 0.03972188327860468),
    (KernelKind.LIGHTCONE, 0.01, 1.001, 1.0, 0.03980167173481268),
    (KernelKind.LIGHTCONE, 1.0, 0.999, 1.0, 0.3043753551135838),
    (KernelKind.LIGHTCONE, 1.0, 1.001, 1.0, 0.3051732395773999),
    (KernelKind.LIGHTCONE, 1e4, 0.999, 1.0, 0.45818739998558594),
    (KernelKind.LIGHTCONE, 1e4, 1.001, 1.0, 0.5378430745396395),
    (KernelKind.LIGHTCONE, 1e8, 0.999, 1.0, 7.616005724846541e-24),
    (KernelKind.LIGHTCONE, 1e8, 1.001, 1.0, 1.0),
    (KernelKind.LOGABS, 0.01, 0.999, 1.0, 4.341447441842344),
    (KernelKind.LOGABS, 0.01, 1.001, 1.0, 4.341447441842475),
    (KernelKind.LOGABS, 1.0, 0.999, 1.0, 0.20516481541542744),
    (KernelKind.LOGABS, 1.0, 1.001, 1.0, 0.20516481584208607),
    (KernelKind.LOGABS, 1e4, 0.999, 1.0, -4.542202038619644),
    (KernelKind.LOGABS, 1e4, 1.001, 1.0, -4.542198711860126),
    (KernelKind.LOGABS, 1e8, 0.999, 1.0, -6.220180812310857),
    (KernelKind.LOGABS, 1e8, 1.001, 1.0, -6.2191909153892),
    (KernelKind.LIGHTCONE, 1e4, 4.0, 10.0, 0.0),
    (KernelKind.LIGHTCONE, 1e4, 25.0, 10.0, 1.0),
    (KernelKind.LOGABS, 1e4, 4.0, 10.0, 4.4308163453250895),
    (KernelKind.LOGABS, 1e4, 25.0, 10.0, 6.2633978090765945),
    (KernelKind.LIGHTCONE, 1e4, 0.01, 0.0, 0.44071876761794254),
    (KernelKind.LOGABS, 0.01, 0.0, 0.0, 4.334807340526613),
    (KernelKind.LOGABS, 1.0, 0.0, 0.0, -0.27036284546147815),
    (KernelKind.LOGABS, 1e4, 0.0, 0.0, -9.48070321743766),
    (KernelKind.LOGABS, 1e8, 0.0, 0.0, -18.691043589413844),
]


@pytest.mark.parametrize("kind, b, delta, radius, reference", PAIR_REFERENCES)
def test_pair_integral_matches_high_precision_reference(kind, b, delta, radius, reference):
    # two bumps of width 2b have combined width b
    bp = GaussianBump((delta, radius, 0, 0), 2.0 * b)
    bq = GaussianBump((0, 0, 0, 0), 2.0 * b)
    for config in (QuadratureConfig(), QuadratureConfig(rel_tol=1e-10, abs_tol=1e-14)):
        r = gaussian_pair_reduce(kind, bp, bq, config)
        assert r.converged
        assert abs(r.value - reference) <= max(r.error_estimate, 1e-14)
    assert abs(r.value - reference) <= 1e-12 * max(1.0, abs(reference))


def test_lightcone_coincident_times_vanishes(cfg):
    r = gaussian_pair_reduce(
        KernelKind.LIGHTCONE,
        GaussianBump((0, 1, 0, 0), 100.0),
        GaussianBump((0, 0, 0, 0), 100.0),
        cfg,
    )
    assert r.value == 0.0
    assert r.method is Method.ANALYTIC


def test_lightcone_sharp_localization(cfg):
    bp = GaussianBump((1, 0, 0, 0), 1e4)
    bq = GaussianBump((0, 0, 0, 0), 1e4)
    r = gaussian_pair_reduce(KernelKind.LIGHTCONE, bp, bq, cfg)
    assert r.value == pytest.approx(1.0, abs=1e-3)
    assert gaussian_pair_reduce(KernelKind.LIGHTCONE, bq, bp, cfg).value == -r.value


def test_lightcone_swap_antisymmetry_is_exact(cfg):
    rng = np.random.default_rng(17)
    for _ in range(30):
        bp, bq = random_bump(rng), random_bump(rng)
        forward = gaussian_pair_reduce(KernelKind.LIGHTCONE, bp, bq, cfg)
        backward = gaussian_pair_reduce(KernelKind.LIGHTCONE, bq, bp, cfg)
        assert forward.value == -backward.value


def test_logabs_swap_symmetry_is_exact(cfg):
    rng = np.random.default_rng(18)
    for _ in range(10):
        bp, bq = random_bump(rng), random_bump(rng)
        assert (
            gaussian_pair_reduce(KernelKind.LOGABS, bp, bq, cfg).value
            == gaussian_pair_reduce(KernelKind.LOGABS, bq, bp, cfg).value
        )


@pytest.mark.parametrize("width", [10.0, 1e2, 1e4])
def test_logabs_self_pair_scaling_identity(width, tight_cfg):
    """Self pair + ln(width) is width-independent: the scaling map is exact.

    The constant 1-gamma was frozen from two independent oracles: 30-digit
    adaptive quadrature of the reduced 2D integral (mpmath) and a 4e6-sample
    Monte Carlo of the defining double integral; the difference-profile
    quadratic form inherits twice this value.
    """
    bump = GaussianBump((0.3, -0.2, 0.1, 0.0), width)
    r = gaussian_pair_reduce(KernelKind.LOGABS, bump, bump, tight_cfg)
    assert r.converged
    assert r.value + math.log(width) == pytest.approx(
        0.5 * MINVAR_CONSTANT_CORRECTED, abs=5e-4
    )


def test_logabs_difference_form_asymptote(cfg):
    """Difference-profile quadratic form against the narrow-width asymptote."""
    width = 1e4
    f = scalar_smearing(GaussianBump((0, 1, 0, 0), width)) + scalar_smearing(
        GaussianBump((0, 0, 0, 0), width), -1.0
    )
    q = bilinear_form(KernelKind.LOGABS, f, f, I4, cfg)
    asymptote = -2.0 * math.log(width) + MINVAR_CONSTANT_CORRECTED
    assert q.value == pytest.approx(asymptote, rel=2e-3)


def test_bilinear_constant_means_factor_out(cfg):
    bump = GaussianBump((0.4, 0, 0, 0), 11.0)
    f = single_term((1, 0, 0, 0), bump, 1.0)
    r = bilinear_form(KernelKind.CONSTANT, f, f, ETA, cfg)
    assert r.value == -1.0
    assert r.method is Method.ANALYTIC


def test_bilinear_lightcone_diagonal_vanishes(cfg):
    rng = np.random.default_rng(23)
    for _ in range(5):
        f = single_term(tuple(rng.normal(size=4)), random_bump(rng), 1.2) + single_term(
            tuple(rng.normal(size=4)), random_bump(rng), -0.4
        )
        r = bilinear_form(KernelKind.LIGHTCONE, f, f, ETA, cfg)
        assert abs(r.value) <= max(r.error_estimate, 1e-12)


def test_bilinear_rejects_asymmetric_contraction(cfg):
    f = scalar_smearing(GaussianBump((0, 0, 0, 0), 4.0))
    bad = np.eye(4)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        bilinear_form(KernelKind.CONSTANT, f, f, bad, cfg)


def test_mc_constant_kernel():
    f = scalar_smearing(GaussianBump((0.5, 0.1, 0, 0), 6.0))
    r = mc_oracle(KernelKind.CONSTANT, f, f, I4, QuadratureConfig())
    assert r.value == pytest.approx(1.0)
    assert r.method is Method.MC8D


def test_mc_agrees_with_reduction(cfg):
    rng = np.random.default_rng(29)
    mc_cfg = QuadratureConfig(mc_samples=40_000, seed=5)
    for kind in (KernelKind.LIGHTCONE, KernelKind.LOGABS):
        for _ in range(10):
            f = single_term(tuple(rng.normal(size=4)), random_bump(rng), 1.0)
            g = single_term(tuple(rng.normal(size=4)), random_bump(rng), 1.0)
            det = bilinear_form(kind, f, g, ETA, cfg)
            mc = mc_oracle(kind, f, g, ETA, mc_cfg)
            combined = 2.0 * (det.error_estimate + mc.error_estimate)
            assert abs(det.value - mc.value) <= max(combined, 1e-9)


@pytest.mark.parametrize(
    "center_p, width_p, center_q, width_q, kind",
    [
        # extreme width asymmetry
        ((0.5, 0.2, 0, 0), 2.0, (0, 0, 0, 0), 1e4, KernelKind.LOGABS),
        # bulk centered exactly on the null ray
        ((1.0, 1.0, 0, 0), 200.0, (0, 0, 0, 0), 200.0, KernelKind.LOGABS),
        ((1.0, 1.0, 0, 0), 200.0, (0, 0, 0, 0), 200.0, KernelKind.LIGHTCONE),
        # wide bumps in the positive-log regime
        ((0.3, 0, 0, 0), 0.5, (0, 0.2, 0, 0), 0.8, KernelKind.LOGABS),
    ],
)
def test_mc_agrees_on_adversarial_configs(center_p, width_p, center_q, width_q, kind, tight_cfg):
    f = scalar_smearing(GaussianBump(center_p, width_p))
    g = scalar_smearing(GaussianBump(center_q, width_q))
    det = bilinear_form(kind, f, g, I4, tight_cfg)
    mc = mc_oracle(kind, f, g, I4, QuadratureConfig(mc_samples=400_000, seed=515))
    assert det.converged
    combined = 2.0 * (det.error_estimate + mc.error_estimate)
    assert abs(det.value - mc.value) <= combined


def test_mc_deterministic_across_workers_and_runs():
    f = scalar_smearing(GaussianBump((1, 0, 0, 0), 30.0)) + scalar_smearing(
        GaussianBump((0, 0, 0, 0), 30.0), -1.0
    )
    cfg = QuadratureConfig(mc_samples=50_000, seed=77)
    base = mc_oracle(KernelKind.LOGABS, f, f, I4, cfg, workers=1)
    for workers in (2, 4):
        again = mc_oracle(KernelKind.LOGABS, f, f, I4, cfg, workers=workers)
        assert again.value == base.value
        assert again.error_estimate == base.error_estimate
    rerun = mc_oracle(KernelKind.LOGABS, f, f, I4, cfg, workers=3)
    assert rerun.value == base.value
    other_seed = mc_oracle(
        KernelKind.LOGABS, f, f, I4, QuadratureConfig(mc_samples=50_000, seed=78)
    )
    assert other_seed.value != base.value


def test_momentum_form_matches_position_space(tight_cfg):
    for p in [(1.0, 0, 0, 0), (0, 1.0, 0, 0)]:
        f = scalar_smearing(GaussianBump(p, 60.0)) + scalar_smearing(
            GaussianBump((0, 0, 0, 0), 60.0), -1.0
        )
        m = momentum_form(f, f, tight_cfg)
        logf = bilinear_form(KernelKind.LOGABS, f, f, I4, tight_cfg)
        assert m.value.real == pytest.approx(
            -logf.value / (16.0 * math.pi**2), rel=1e-3
        )
        assert abs(m.value.imag) <= 10 * m.error_estimate + 1e-12


def test_momentum_form_rejects_nonzero_mean(cfg):
    f = scalar_smearing(GaussianBump((0, 0, 0, 0), 4.0))
    with pytest.raises(ValueError, match="mean"):
        momentum_form(f, f, cfg)


def test_momentum_form_zero_smearing(cfg):
    from ncmink.testfn import ZERO_SMEARING

    r = momentum_form(ZERO_SMEARING, ZERO_SMEARING, cfg)
    assert r.value == 0.0
    assert r.method is Method.ANALYTIC


def test_budget_exhaustion_flags_nonconverged():
    # 100 evals stop the refinement after its first round: the 4 initial
    # panels cost 88 evals and one split round 44 more.
    starved = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-16, max_evals=100)
    bump = GaussianBump((0, 0, 0, 0), 1e4)
    r = gaussian_pair_reduce(KernelKind.LOGABS, bump, bump, starved)
    assert not r.converged
    assert r.evals >= starved.max_evals
    assert r.error_estimate > max(starved.abs_tol, starved.rel_tol * abs(r.value))


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(mc_samples=100)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=-1e-3)
