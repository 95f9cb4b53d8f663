import cmath
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import bump_pool, pair_values, random_smearing, table_smearing
from ncmink import (
    ETA,
    DMStateParams,
    GaussianBump,
    GramReport,
    KernelKind,
    PhysicalConstants,
    PositivityError,
    QuadratureConfig,
    WeylCalculus,
    WeylElement,
    bilinear_form,
    dm_bilinear,
    gram_check,
    krein_J,
    mc_oracle,
    mean,
    mu2,
    sigma,
)
from ncmink import state
from ncmink.state import diagonal_moments, log_minus_form, sigma_indexed
from ncmink.integrate import _term_pairs
from ncmink.pair import _bump_geometry, _pair_integral
from ncmink.testfn import ZERO_SMEARING, contract, project_psi, scalar_smearing, single_term


def e0_smearing(bump, weight=1.0):
    return single_term((1.0, 0.0, 0.0, 0.0), bump, weight)


def test_a_state_value_that_is_not_finite_raises(cfg, params):
    """Bumps at t = +-1e308 overflow the kernel table's delta, so a value of
    the form is nan: gram_check reported a non-Hermitian N, and mu2 and
    Delta returned nan.  Each must name the entry that is not finite."""
    f, g = (scalar_smearing(GaussianBump((t, 0, 0, 0), 1.0)) for t in (1e308, -1e308))
    with pytest.raises(ValueError, match=r"^mu2\(f_0, f_1\) is not finite: \(nan\+nanj\)$"):
        gram_check([f, g], params, cfg)
    with pytest.raises(ValueError, match=r"^mu2\(f_0, f_0\) is not finite: \(nan\+nanj\)$"):
        gram_check([f - g], params, cfg)
    with pytest.raises(ValueError, match=r"^Delta\(f_0, f_1\) is not finite: \(nan\+nanj\)$"):
        dm_bilinear(f, g, params, cfg)


def test_a_krein_map_that_overflows_raises(boosted_params):
    """J f of a covector near the float range overflows in a boosted frame;
    it must be a ValueError naming the covector, with no numpy warning first."""
    f = single_term((1e308, 1e308, 0.0, 0.0), GaussianBump((0, 0, 0, 0), 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^covector \[1e\+308, 1e\+308, 0\.0, 0\.0\] maps to non-finite entries"):
            krein_J(f, boosted_params.u)
        with pytest.raises(ValueError, match="maps to non-finite entries"):
            f.map_covectors(np.full((4, 4), np.inf))
    # the rest frame's J only flips the time component, which stays finite
    assert krein_J(f).rows[0, :4].tolist() == [-1e308, 1e308, 0.0, 0.0]


def test_sigma_diagonal_vanishes(cfg, constants):
    f = e0_smearing(GaussianBump((0.5, 0, 0, 0), 20.0))
    assert sigma(f, f, constants, cfg) == 0.0


def test_sigma_spacelike_vanishes(cfg, constants):
    kappa_sq = constants.kappa_sq
    f = single_term((0.3, 1.0, -0.2, 0.0), GaussianBump((0.0, 2.0, 0, 0), 400.0), 1.0)
    g = single_term((1.0, 0.5, 0.0, 0.7), GaussianBump((0.2, 0, 0, 0), 400.0), 1.0)
    assert abs(sigma(f, g, constants, cfg)) <= 1e-3 * kappa_sq


def test_sigma_timelike_limit(cfg, constants):
    f = e0_smearing(GaussianBump((1, 0, 0, 0), 1e4))
    g = e0_smearing(GaussianBump((0, 0, 0, 0), 1e4))
    assert sigma(f, g, constants, cfg) == pytest.approx(constants.kappa_sq / (8.0 * math.pi), rel=1e-3)


def test_sigma_antisymmetry(cfg, constants):
    rng = np.random.default_rng(31)
    for _ in range(20):
        f, g = random_smearing(rng), random_smearing(rng)
        assert sigma(f, g, constants, cfg) == -sigma(g, f, constants, cfg)


def test_sigma_indexed_spacelike_and_kernel(cfg, constants):
    psi = GaussianBump((0, 0, 0, 0), 400.0)
    far_spacelike = single_term((1.0, -0.5, 2.0, 0.0), GaussianBump((0, 3, 0, 0), 400.0), 1.0)
    comps = sigma_indexed(far_spacelike, psi, constants, cfg)
    assert np.max(np.abs(comps)) <= 1e-6
    # psi against itself sits at coincident time centers: exact zero
    comps = sigma_indexed(single_term((1, 2, 3, 4), psi, 1.0), psi, constants, cfg)
    assert np.array_equal(comps, np.zeros(4))


def test_sigma_indexed_far_future(cfg, constants):
    """Sharp-localization limit, cross-checked against the Monte Carlo oracle."""
    psi = GaussianBump((0, 0, 0, 0), 1e4)
    bump = GaussianBump((2.0, 0, 0, 0), 1e4)
    f = e0_smearing(bump)
    comps = sigma_indexed(f, psi, constants, cfg)
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
    assert comps[0] == pytest.approx(-scale * mc.value, abs=5 * scale * mc.error_estimate)


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
    assert log_minus_form(wide, wide, np.eye(4), cfg) == 0.0


def test_log_minus_matches_unclipped_in_negative_regime(cfg):
    narrow = scalar_smearing(GaussianBump((0, 1, 0, 0), 1e3)) + scalar_smearing(
        GaussianBump((0, 0, 0, 0), 1e3), -1.0
    )
    plain = bilinear_form(KernelKind.LOGABS, narrow, narrow, np.eye(4), cfg)
    assert plain.value < 0.0
    assert log_minus_form(narrow, narrow, np.eye(4), cfg) == plain.value


def test_dm_bilinear_imaginary_part_is_half_sigma(cfg, params, constants):
    rng = np.random.default_rng(41)
    f, g = random_smearing(rng), random_smearing(rng)
    d = dm_bilinear(f, g, params, cfg)
    s = sigma(f, g, constants, cfg)
    assert d.imag == pytest.approx(0.5 * s, abs=1e-15)
    assert dm_bilinear(f, f, params, cfg).imag == 0.0


def test_dm_bilinear_hermiticity(cfg, params):
    rng = np.random.default_rng(43)
    for _ in range(5):
        f, g = random_smearing(rng), random_smearing(rng)
        d_fg = dm_bilinear(f, g, params, cfg)
        d_gf = dm_bilinear(g, f, params, cfg)
        assert abs(d_fg - d_gf.conjugate()) <= 1e-12


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
        values.append(dm_bilinear(f, f, p, cfg).real)
    slope = values[1] - values[0]
    assert slope == pytest.approx(-constants.kappa_sq, rel=1e-9)


def test_dm_bilinear_classical_limit(cfg):
    params0 = DMStateParams(
        state_alpha=2.0,
        psi=GaussianBump((0, 0, 0, 0), 10.0),
        constants=PhysicalConstants(0.0),
    )
    f = e0_smearing(GaussianBump((1, 0, 0, 0), 5.0))
    assert dm_bilinear(f, f, params0, cfg) == 0.0


def test_mu2_zero_and_scaling(cfg, params):
    from ncmink.testfn import ZERO_SMEARING

    assert mu2(ZERO_SMEARING, ZERO_SMEARING, params, cfg) == 0.0
    rng = np.random.default_rng(47)
    f = random_smearing(rng)
    base = mu2(f, f, params, cfg).real
    scaled = mu2(f.scaled(2.5), f.scaled(2.5), params, cfg).real
    assert scaled == pytest.approx(2.5**2 * base, rel=1e-9)


def test_mu2_positive_on_randoms(cfg, params):
    rng = np.random.default_rng(53)
    for _ in range(20):
        f = random_smearing(rng)
        m = mu2(f, f, params, cfg)
        assert m.real >= 0.0
        assert abs(m.imag) <= 1e-12


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


def test_gram_empty_family(cfg, params):
    for report in gram_check([], params, cfg):
        assert report.is_psd
        assert report.min_eigenvalue == 0.0
        assert report.matrix.shape == (0, 0)


def test_gram_random_families(cfg, params):
    rng = np.random.default_rng(59)
    for _ in range(5):
        family = [random_smearing(rng) for _ in range(int(rng.integers(2, 5)))]
        rep_n, rep_m = gram_check(family, params, cfg)
        assert rep_n.is_psd, rep_n.min_eigenvalue
        assert rep_m.is_psd, rep_m.min_eigenvalue


def test_gram_report_rejects_a_non_hermitian_matrix():
    with pytest.raises(ValueError, match="N matrix is not Hermitian"):
        GramReport.from_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]), "N")


def test_params_validation(constants):
    psi = GaussianBump((0, 0, 0, 0), 2.0)
    with pytest.raises(ValueError):
        DMStateParams(state_alpha=0.0, psi=psi, constants=constants)
    with pytest.raises(ValueError):
        DMStateParams(state_alpha=1.0, psi=psi, constants=constants, u=(0, 1, 0, 0))


# ---------------------------------------------------------------------------
# The one-table route of dm_bilinear, mu2 and gram_check against the
# composition of the public functions that define the form.


def eta_dot(a, b):
    """a eta b through the package's one covector contraction, as the state takes it."""
    return float(contract(contract(a, ETA), b[:, None])[0])


def composed_dm_bilinear(f, g, params, cfg):
    """Delta_{alpha,psi}(f, g) composed term by term, as the definition reads."""
    kappa_sq = params.constants.kappa_sq
    pf = project_psi(f, params.psi)
    pg = project_psi(g, params.psi)
    log_term = log_minus_form(pf, pg, ETA, cfg)
    log_scale = kappa_sq / (16.0 * math.pi**2)
    mean_term = params.state_alpha * kappa_sq * eta_dot(mean(f), mean(g))
    sf = sigma_indexed(f, params.psi, params.constants, cfg)
    sg = sigma_indexed(g, params.psi, params.constants, cfg)
    reg_scale = 1.0 / (4.0 * params.state_alpha * kappa_sq)
    reg_term = reg_scale * eta_dot(sf, sg)
    sig = sigma(f, g, params.constants, cfg)
    return -log_scale * log_term + mean_term + reg_term + 0.5j * sig


def composed_magnitude(f, g, params):
    """Sum of |coefficient x pair integral| over every product the form adds, scaled."""

    def total(kind, a, b):
        coef, bb, delta, R = _term_pairs(a, b, ETA)
        return math.fsum(np.abs(coef * pair_values(kind, bb, delta, R)))

    def abs_sigma_indexed(h):
        values = np.array([_pair_integral(KernelKind.LIGHTCONE, *_bump_geometry(t.bump, params.psi)) for t in h.terms])
        return np.abs(values) @ np.abs(h.weights[:, None] * h.covectors)

    kappa_sq = params.constants.kappa_sq
    scale = kappa_sq / (8.0 * math.pi)
    pf, pg = project_psi(f, params.psi), project_psi(g, params.psi)
    log_part = kappa_sq / (64.0 * math.pi**2) * (
        total(KernelKind.LOGABS, pf + pg, pf + pg) + total(KernelKind.LOGABS, pf - pg, pf - pg)
    )
    mean_part = params.state_alpha * kappa_sq * float(np.abs(mean(f)) @ np.abs(mean(g)))
    reg_part = scale**2 * float(abs_sigma_indexed(f) @ abs_sigma_indexed(g)) / (
        4.0 * params.state_alpha * kappa_sq
    )
    return log_part + mean_part + reg_part + 0.5 * scale * total(KernelKind.LIGHTCONE, f, g)


def test_one_table_matches_composition_bit_for_bit(cfg, params):
    assert params.u == (1.0, 0.0, 0.0, 0.0)
    rng = np.random.default_rng(71)
    pool = bump_pool(rng, params.psi)
    shared_terms = zero_time = 0
    for i in range(40):
        f = table_smearing(rng, pool)
        g = f if i % 4 == 0 else table_smearing(rng, pool)
        shared_terms += len((project_psi(f, params.psi) + project_psi(g, params.psi)).terms) < len(f.terms) + len(g.terms) + 2
        zero_time += any(t.covector[0] == 0.0 for t in f.terms)
        assert dm_bilinear(f, g, params, cfg) == composed_dm_bilinear(f, g, params, cfg)
        assert mu2(f, g, params, cfg) == composed_dm_bilinear(f, krein_J(g, params.u), params, cfg)
    # the draw exercises merged terms and zero time components
    assert shared_terms >= 10 and zero_time >= 10


def test_sums_of_the_form_are_exactly_rounded(cfg, params):
    """Time components 1e16, 1 and -1e16 on distinct bumps sum to exactly 1.

    A sum in term order loses the 1 (1e16 + 1 rounds to 1e16), so the mean,
    sigma(f, psi) and with them the real part of Delta would read 0 or a
    wrong value.  The outer bumps mirror each other about psi, so their
    light-cone values against psi are equal and cancel exactly as well.
    Q(Pf +- Pg) are both positive here, so the clipped log term is exactly
    0 and the real part of Delta is the mean and regulator terms alone.
    """
    e0 = (1.0, 0.0, 0.0, 0.0)
    bumps = [GaussianBump((0.5, -0.3, 0, 0), 20.0), GaussianBump((0.5, 0, 0.1, 0), 30.0), GaussianBump((0.5, 0.3, 0, 0), 20.0)]
    weights = [1e16, 1.0, -1e16]
    f = sum((single_term(e0, bump, w) for bump, w in zip(bumps[1:], weights[1:])), single_term(e0, bumps[0], weights[0]))
    g = single_term(e0, GaussianBump((-0.4, 0.1, 0, 0), 25.0), 1.0)
    assert [t.weight for t in f.terms] == weights
    assert np.array_equal(mean(f), [1.0, 0.0, 0.0, 0.0])

    kappa_sq = params.constants.kappa_sq
    scale = kappa_sq / (8.0 * math.pi)

    def exact_sigma_indexed(h):
        values = np.array([_pair_integral(KernelKind.LIGHTCONE, *_bump_geometry(t.bump, params.psi)) for t in h.terms])
        return -scale * np.array([math.fsum(values * h.weights * column) for column in h.covectors.T])

    sf, sg = exact_sigma_indexed(f), exact_sigma_indexed(g)
    assert sf[0] != 0.0 and np.array_equal(sigma_indexed(f, params.psi, params.constants, cfg), sf)
    assert log_minus_form(project_psi(f, params.psi), project_psi(g, params.psi), ETA, cfg) == 0.0
    mean_term = params.state_alpha * kappa_sq * eta_dot(mean(f), mean(g))
    reg_term = 1.0 / (4.0 * params.state_alpha * kappa_sq) * eta_dot(sf, sg)
    expected = mean_term + reg_term + 0.5j * sigma(f, g, params.constants, cfg)
    assert expected.real != 0.0 and dm_bilinear(f, g, params, cfg) == expected


@pytest.fixture(scope="module")
def boosted_params(params):
    """The state of ``params`` with its Krein involution built on a boosted u."""
    boost = np.array([0.4, -0.2, 0.1])
    return replace(params, u=tuple(np.concatenate([[math.sqrt(1 + boost @ boost)], boost])))


def test_one_table_matches_composition_in_a_boosted_frame(cfg, boosted_params):
    params = boosted_params
    eps = np.finfo(float).eps
    rng = np.random.default_rng(73)
    pool = bump_pool(rng, params.psi)
    for i in range(20):
        f = table_smearing(rng, pool)
        g = f if i % 4 == 0 else table_smearing(rng, pool)
        jg = krein_J(g, params.u)
        bound = 8.0 * eps * composed_magnitude(f, jg, params)
        assert abs(mu2(f, g, params, cfg) - composed_dm_bilinear(f, jg, params, cfg)) <= bound
        bound = 8.0 * eps * composed_magnitude(f, g, params)
        assert abs(dm_bilinear(f, g, params, cfg) - composed_dm_bilinear(f, g, params, cfg)) <= bound


def test_gram_matrix_entries_are_mu2(cfg, params, boosted_params):
    """N's upper triangle is mu2, its lower one the conjugate, its diagonal mu2 itself.

    In the rest frame mu2(f, f) is exactly real, so the diagonal also equals
    its conjugate.  In the boosted frame some mu2(f, f) carry an imaginary
    rounding, so a diagonal overwritten by its own conjugate shows there.
    """
    rng = np.random.default_rng(79)
    for state_params in (params, boosted_params):
        pool = bump_pool(rng, state_params.psi)
        family = [table_smearing(rng, pool) for _ in range(4)]
        family.append(family[1])  # a repeated member is guarded like a diagonal entry
        N = gram_check(family, state_params, cfg)[0].matrix
        for k in range(len(family)):
            for l in range(k, len(family)):
                value = mu2(family[k], family[l], state_params, cfg)
                assert N[k, l] == value
                if l != k or state_params is params:
                    assert N[l, k] == value.conjugate()
    # the boosted family has a diagonal whose conjugate differs from it
    assert (np.diag(N).imag != 0.0).any()


def test_diagonal_moments_are_mu2_and_delta_of_each_smearing(cfg, params, boosted_params):
    """One table for all smearings gives each one's own mu2(f, f) and Delta(f, f).

    The list repeats a member and holds the zero smearing in the middle,
    whose moment is exactly 0.0 and not evaluated.
    """
    rng = np.random.default_rng(89)
    for state_params in (params, boosted_params):
        pool = bump_pool(rng, state_params.psi)
        fs = [table_smearing(rng, pool) for _ in range(3)]
        smearings = [fs[0], fs[1], ZERO_SMEARING, fs[2], fs[1]]
        live = [f for f in smearings if not f.is_zero()]
        twisted = diagonal_moments(smearings, state_params)
        plain = diagonal_moments(smearings, state_params, twisted=False)
        for moments in (twisted, plain):
            assert type(moments[2]) is float and moments[2] == 0.0
            del moments[2]
        assert twisted == [mu2(f, f, state_params, cfg) for f in live]
        assert plain == [dm_bilinear(f, f, state_params, cfg) for f in live]


@pytest.mark.parametrize(
    "value, message", [(-1e-3 + 0.0j, "negative beyond budget"), (0.5 + 1e-3j, "exceeds error budget")]
)
def test_diagonal_positivity_guard(cfg, params, monkeypatch, value, message):
    rng = np.random.default_rng(83)
    f, g = random_smearing(rng), random_smearing(rng)
    monkeypatch.setattr(state, "_two_point", lambda f, g, tables, params: value)
    with pytest.raises(PositivityError, match=message):
        mu2(f, f, params, cfg)
    with pytest.raises(PositivityError, match=message):
        gram_check([f, g], params, cfg)
    # only diagonal entries are guarded
    assert mu2(f, g, params, cfg) == value
    # as in mu2, the guard follows f_k == f_l, not k == l: entry (0, 1) of a
    # repeated member raises although entry (0, 0) passed
    entries = iter([1.0 + 0.0j, value])
    monkeypatch.setattr(state, "_two_point", lambda f, g, tables, params: next(entries))
    with pytest.raises(PositivityError, match=message):
        gram_check([f, f], params, cfg)


def test_a_value_does_not_depend_on_its_call_in_a_boosted_frame(cfg, boosted_params):
    """mu2, a second moment and a product's sigma read the same bits in every call that holds them.

    The Krein matrix of a boosted u is not diagonal, so every product of
    a row with it rounds; a value still must not depend on how many other
    smearings share its call, 1-term smearings among them.
    """
    params = boosted_params
    rng = np.random.default_rng(107)
    pool = bump_pool(rng, params.psi)
    singles = [single_term(tuple(rng.normal(size=4)), pool[int(rng.integers(len(pool)))], 1.5) for _ in range(10)]
    smearings = singles + [table_smearing(rng, pool) for _ in range(20)]
    rng.shuffle(smearings)
    family = smearings[:2] + [singles[0], singles[1], smearings[2]]
    N = gram_check(family, params, cfg)[0].matrix
    for k in range(len(family)):
        for l in range(k, len(family)):
            assert mu2(family[k], family[l], params, cfg) == N[k, l]
    moments = diagonal_moments(smearings, params)
    assert moments == [diagonal_moments([f], params)[0] for f in smearings]
    # at the CLI's Planck length a phase exp(-i s / 2) keeps the last bits of s
    calc = WeylCalculus(PhysicalConstants(planck_length=1.0), cfg, u=params.u, pairing="krein")
    fs, gs = smearings[:12], smearings[12:]
    A = sum((WeylElement.generator(f, complex(*rng.normal(size=2))) for f in fs[1:]), WeylElement.generator(fs[0]))
    B = sum((WeylElement.generator(g, complex(*rng.normal(size=2))) for g in gs[1:]), WeylElement.generator(gs[0]))
    product = calc.mul(A, B).coefficients()
    for f, a in A.terms:
        for g, b in B.terms:
            assert product[f + g] == 0.0 + a * b * cmath.exp(-0.5j * calc._sigmas([f], [g])[0][0])
    assert len(product) == len(A.terms) * len(B.terms)


@pytest.mark.parametrize("frame", ["rest", "boosted"])
def test_a_smearing_and_its_negation_share_one_moment(cfg, params, boosted_params, monkeypatch, frame):
    """diagonal_moments evaluates f and -f once, with the bits each would have alone.

    The list [f, -f, g, 0, -g] makes two calls of ``_two_point``; every
    value is the one of a singleton call, twisted and untwisted, and the
    zero smearing's is exactly 0.0.  A bad twisted value raises on
    whichever of f and -f comes first, the one evaluated.
    """
    params = boosted_params if frame == "boosted" else params
    rng = np.random.default_rng(109)
    pool = bump_pool(rng, params.psi)
    f, g = table_smearing(rng, pool), table_smearing(rng, pool)
    smearings = [f, -f, g, ZERO_SMEARING, -g]
    two_point = state._two_point
    blocks = []

    def counted(*args):
        blocks.append(args[0])
        return two_point(*args)

    monkeypatch.setattr(state, "_two_point", counted)
    for twisted in (True, False):
        blocks.clear()
        moments = diagonal_moments(smearings, params, twisted)
        assert len(blocks) == 2
        assert type(moments[3]) is float and moments[3] == 0.0
        assert moments == [diagonal_moments([h], params, twisted)[0] if not h.is_zero() else 0.0 for h in smearings]
        assert moments[0] == moments[1] and moments[2] == moments[4]

    def bad(*args):
        blocks.append(args[0])
        return -1e-3 + 0.0j

    monkeypatch.setattr(state, "_two_point", bad)
    for first in (f, -f):
        blocks.clear()
        with pytest.raises(PositivityError, match="negative beyond budget"):
            diagonal_moments([first, -first], params)
        assert len(blocks) == 1 and np.array_equal(blocks[0].mean, -mean(first))
