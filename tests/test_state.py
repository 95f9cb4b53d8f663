import math

import numpy as np
import pytest

from conftest import random_smearing
from ncmink import (
    DMStateParams,
    ETA,
    GaussianBump,
    KernelKind,
    PhysicalConstants,
    QuadratureConfig,
    bilinear_form,
    dm_bilinear,
    gram_check,
    krein_J,
    log_minus_form,
    mc_oracle,
    mu2,
    pair_condition,
    sigma,
    sigma_indexed,
)
from ncmink.testfn import project_psi, scalar_smearing, single_term


def e0_smearing(bump, weight=1.0):
    return single_term((1.0, 0.0, 0.0, 0.0), bump, weight)


def test_sigma_diagonal_vanishes(cfg, constants):
    f = e0_smearing(GaussianBump((0.5, 0, 0, 0), 20.0))
    assert sigma(f, f, constants, cfg).value == 0.0


def test_sigma_spacelike_vanishes(cfg, constants):
    kappa_sq = constants.kappa_sq
    f = single_term((0.3, 1.0, -0.2, 0.0), GaussianBump((0.0, 2.0, 0, 0), 400.0), 1.0)
    g = single_term((1.0, 0.5, 0.0, 0.7), GaussianBump((0.2, 0, 0, 0), 400.0), 1.0)
    r = sigma(f, g, constants, cfg)
    assert abs(r.value) <= 1e-3 * kappa_sq


def test_sigma_timelike_limit(cfg, constants):
    f = e0_smearing(GaussianBump((1, 0, 0, 0), 1e4))
    g = e0_smearing(GaussianBump((0, 0, 0, 0), 1e4))
    r = sigma(f, g, constants, cfg)
    assert r.value == pytest.approx(constants.kappa_sq / (8.0 * math.pi), rel=1e-3)


def test_sigma_antisymmetry(cfg, constants):
    rng = np.random.default_rng(31)
    for _ in range(20):
        f, g = random_smearing(rng), random_smearing(rng)
        s_fg = sigma(f, g, constants, cfg)
        s_gf = sigma(g, f, constants, cfg)
        assert s_fg.value == -s_gf.value


def test_sigma_indexed_spacelike_and_kernel(cfg, constants):
    psi = GaussianBump((0, 0, 0, 0), 400.0)
    far_spacelike = single_term((1.0, -0.5, 2.0, 0.0), GaussianBump((0, 3, 0, 0), 400.0), 1.0)
    comps, err, _, _ = sigma_indexed(far_spacelike, psi, constants, cfg)
    assert np.max(np.abs(comps)) <= max(5 * err, 1e-6)
    # psi against itself sits at coincident time centers: exact zero
    comps, _, _, _ = sigma_indexed(single_term((1, 2, 3, 4), psi, 1.0), psi, constants, cfg)
    assert np.array_equal(comps, np.zeros(4))


def test_sigma_indexed_far_future(cfg, constants):
    """Sharp-localization limit, cross-checked against the Monte Carlo oracle."""
    psi = GaussianBump((0, 0, 0, 0), 1e4)
    bump = GaussianBump((2.0, 0, 0, 0), 1e4)
    f = e0_smearing(bump)
    comps, err, _, _ = sigma_indexed(f, psi, constants, cfg)
    scale = constants.kappa_sq / (8.0 * math.pi)
    assert comps[0] == pytest.approx(-scale, rel=1e-3)
    assert np.allclose(comps[1:], 0.0)
    mc = mc_oracle(
        KernelKind.LIGHTCONE,
        scalar_smearing(bump),
        scalar_smearing(psi),
        np.eye(4),
        QuadratureConfig(mc_samples=100_000),
    )
    assert comps[0] == pytest.approx(-scale * mc.value, abs=5 * scale * mc.error_estimate + err)


def test_krein_J_examples():
    bump = GaussianBump((0, 0, 0, 0), 2.0)
    f_time = single_term((1, 0, 0, 0), bump, 1.0)
    assert krein_J(f_time).terms[0].covector == (-1.0, 0.0, 0.0, 0.0)
    f_space = single_term((0, 1, 0, 0), bump, 1.0)
    assert krein_J(f_space) == f_space


def test_krein_J_is_involutive():
    rng = np.random.default_rng(37)
    # rest frame: the map is a signature flip, so the double application is exact
    for _ in range(10):
        f = random_smearing(rng)
        assert krein_J(krein_J(f)) == f
    # boosted frames are exact up to the floating matrix product
    boost = np.array([0.4, -0.2, 0.1])
    u = tuple(np.concatenate([[math.sqrt(1 + boost @ boost)], boost]))
    for _ in range(10):
        f = random_smearing(rng)
        back = krein_J(krein_J(f, u), u)
        for t_new, t_old in zip(back.terms, f.terms):
            assert np.allclose(t_new.covector, t_old.covector, atol=1e-14)


def test_log_minus_clips_positive_forms(cfg):
    # widths below e^{1-gamma} make the self log form positive: min[Q, 0] = 0
    wide = scalar_smearing(GaussianBump((0, 0, 0, 0), 1.0))
    plain = bilinear_form(KernelKind.LOGABS, wide, wide, np.eye(4), cfg)
    assert plain.value > 0.0
    clipped = log_minus_form(wide, wide, np.eye(4), cfg)
    assert clipped.value == 0.0


def test_log_minus_matches_unclipped_in_negative_regime(cfg):
    narrow = scalar_smearing(GaussianBump((0, 1, 0, 0), 1e3)) + scalar_smearing(
        GaussianBump((0, 0, 0, 0), 1e3), -1.0
    )
    plain = bilinear_form(KernelKind.LOGABS, narrow, narrow, np.eye(4), cfg)
    assert plain.value < 0.0
    clipped = log_minus_form(narrow, narrow, np.eye(4), cfg)
    assert clipped.value == plain.value


def test_dm_bilinear_imaginary_part_is_half_sigma(cfg, params, constants):
    rng = np.random.default_rng(41)
    f, g = random_smearing(rng), random_smearing(rng)
    d = dm_bilinear(f, g, params, cfg)
    s = sigma(f, g, constants, cfg)
    assert d.value.imag == pytest.approx(0.5 * s.value, abs=1e-15)
    assert dm_bilinear(f, f, params, cfg).value.imag == 0.0


def test_dm_bilinear_evals_sum_its_parts(cfg, params, constants):
    rng = np.random.default_rng(47)
    f, g = random_smearing(rng), random_smearing(rng)
    d = dm_bilinear(f, g, params, cfg)
    log_term = log_minus_form(project_psi(f, params.psi), project_psi(g, params.psi), ETA, cfg)
    parts = [log_term.evals, sigma(f, g, constants, cfg).evals]
    parts += [sigma_indexed(h, params.psi, constants, cfg)[2] for h in (f, g)]
    assert all(parts)
    assert d.evals == sum(parts)


def test_dm_bilinear_hermiticity(cfg, params):
    rng = np.random.default_rng(43)
    for _ in range(5):
        f, g = random_smearing(rng), random_smearing(rng)
        d_fg = dm_bilinear(f, g, params, cfg)
        d_gf = dm_bilinear(g, f, params, cfg)
        budget = 2 * (d_fg.error_estimate + d_gf.error_estimate) + 1e-12
        assert abs(d_fg.value - d_gf.value.conjugate()) <= budget


def test_dm_bilinear_mean_term_isolation(cfg, constants):
    """Slope of Delta(f,f) in state_alpha recovers kappa^2 fbar.eta.fbar.

    psi is spacelike to f so the sigma(f,psi) regulator term vanishes and
    the alpha dependence is purely linear.
    """
    psi = GaussianBump((0.0, 3.0, 0.0, 0.0), 400.0)
    f = e0_smearing(GaussianBump((0.0, 0.0, 0.0, 0.0), 400.0))  # mean (1,0,0,0)
    values = []
    for alpha in (1.0, 2.0):
        p = DMStateParams(state_alpha=alpha, psi=psi, constants=constants)
        values.append(dm_bilinear(f, f, p, cfg).value.real)
    slope = values[1] - values[0]
    assert slope == pytest.approx(-constants.kappa_sq, rel=1e-9)


def test_dm_bilinear_classical_limit(cfg):
    params0 = DMStateParams(
        state_alpha=2.0,
        psi=GaussianBump((0, 0, 0, 0), 10.0),
        constants=PhysicalConstants(0.0),
    )
    f = e0_smearing(GaussianBump((1, 0, 0, 0), 5.0))
    assert dm_bilinear(f, f, params0, cfg).value == 0.0


def test_mu2_zero_and_scaling(cfg, params):
    from ncmink.testfn import ZERO_SMEARING

    assert mu2(ZERO_SMEARING, ZERO_SMEARING, params, cfg).value == 0.0
    rng = np.random.default_rng(47)
    f = random_smearing(rng)
    base = mu2(f, f, params, cfg).value.real
    scaled = mu2(f.scaled(2.5), f.scaled(2.5), params, cfg).value.real
    assert scaled == pytest.approx(2.5**2 * base, rel=1e-9)


def test_mu2_positive_on_randoms(cfg, params):
    rng = np.random.default_rng(53)
    for _ in range(20):
        f = random_smearing(rng)
        m = mu2(f, f, params, cfg)
        assert m.value.real >= -2.0 * m.error_estimate
        assert abs(m.value.imag) <= 2.0 * m.error_estimate + 1e-12


def test_gram_singleton_and_spacelike_family(cfg, params):
    f = e0_smearing(GaussianBump((0.2, 0, 0, 0), 20.0))
    rep_n, rep_m = gram_check([f], params, cfg)
    assert rep_n.is_psd and rep_m.is_psd
    # mutually spacelike narrow smearings: N is real within quadrature error
    family = [
        single_term((1.0, 0.4, 0, 0), GaussianBump((0, 0, 0, 0), 900.0), 1.0),
        single_term((0.2, 1.0, 0, 0), GaussianBump((0, 2.5, 0, 0), 900.0), 1.0),
        single_term((0, 0.3, 1.0, 0), GaussianBump((0, 0, 2.5, 0), 900.0), 1.0),
    ]
    spaced_params = DMStateParams(
        state_alpha=params.state_alpha,
        psi=GaussianBump((0.0, 0.0, 0.0, 2.5), 900.0),
        constants=params.constants,
    )
    rep_n, rep_m = gram_check(family, spaced_params, cfg)
    assert np.max(np.abs(rep_n.matrix.imag)) < 1e-6
    assert rep_n.is_psd and rep_m.is_psd


def test_gram_random_families(cfg, params):
    rng = np.random.default_rng(59)
    for _ in range(5):
        family = [random_smearing(rng) for _ in range(int(rng.integers(2, 5)))]
        rep_n, rep_m = gram_check(family, params, cfg)
        assert rep_n.is_psd, rep_n.min_eigenvalue
        assert rep_m.is_psd, rep_m.min_eigenvalue


def test_pair_condition(cfg, params):
    rng = np.random.default_rng(61)
    f = random_smearing(rng)
    ok, margin = pair_condition(f, f, params, cfg)
    assert ok and margin >= 0.0
    g = random_smearing(rng)
    ok, margin = pair_condition(f, g, params, cfg)
    assert margin >= -1e-9


def test_params_validation(constants):
    psi = GaussianBump((0, 0, 0, 0), 2.0)
    with pytest.raises(ValueError):
        DMStateParams(state_alpha=0.0, psi=psi, constants=constants)
    with pytest.raises(ValueError):
        DMStateParams(state_alpha=1.0, psi=psi, constants=constants, u=(0, 1, 0, 0))
