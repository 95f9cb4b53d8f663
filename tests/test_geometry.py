import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import bump_rows, pair_value, pair_values, random_bump
from ncmink import (
    ETA,
    IDENTITY,
    DMStateParams,
    GaussianBump,
    KernelKind,
    PhysicalConstants,
    QuadratureConfig,
    VectorSmearing,
    WeylCalculus,
    WeylElement,
    bilinear_form,
    causal,
    causal_via_weyl,
    classical_term,
    classify_causal,
    corrected_synge,
    distance,
    distance_alpha,
    gram_check,
    krein_J,
    krein_matrix,
    mc_oracle,
    minkowski_interval,
    momentum_form,
    scalar_smearing,
)
from ncmink.integrate import _kernel_table
from ncmink.verify import FAMILY_C_CORRECTED

EULER_GAMMA = 0.5772156649015329


def planck_family(ell, separation_vec, constant=FAMILY_C_CORRECTED):
    width = 2.0 * constant / ell**2
    return GaussianBump(separation_vec, width), GaussianBump((0, 0, 0, 0), width)


def test_classical_term_examples():
    for widths in ((3.0, 3.0), (1.0, 40.0)):
        p = GaussianBump((1, 0, 0, 0), widths[0])
        q = GaussianBump((0, 0, 0, 0), widths[1])
        assert classical_term(p, q) == -1.0
        assert classical_term(p, p) == 0.0
    p = GaussianBump((0, 3, 0, 0), 2.0)
    q = GaussianBump((0, 0, 0, 0), 5.0)
    assert classical_term(p, q) == 9.0


def test_coincident_bumps(cfg):
    bump = GaussianBump((1, 2, 0, 0), 4.0)
    assert classical_term(bump, bump) == 0.0
    assert causal(bump, bump, cfg).value == 0.0


def test_distance_classical_limit(cfg):
    constants0 = PhysicalConstants(0.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        chi_p, chi_q = random_bump(rng), random_bump(rng)
        result = distance(chi_p, chi_q, constants0, cfg)
        expected = minkowski_interval(chi_p.center, chi_q.center)
        assert result.classical == expected
        assert result.quantum == 0.0
        assert result.total == expected
        assert result.error == 0.0


def test_distance_quantum_positive(cfg):
    constants = PhysicalConstants(0.05)
    rng = np.random.default_rng(5)
    for _ in range(20):
        chi_p, chi_q = random_bump(rng), random_bump(rng)
        result = distance(chi_p, chi_q, constants, cfg)
        assert result.quantum >= -2.0 * result.error
        assert result.total == result.classical + result.quantum


def test_distance_vanishing_log_argument(cfg):
    """|interval| = 2 l^2 makes the asymptotic log argument 1: correction suppressed.

    At this point the width-family combination a|s| is ~1.5 for any l, so a
    finite-width remnant survives; the frozen bounds come from direct
    evaluation (|min Q| = 0.912 here vs 7.82 two decades further out).
    """
    ell = 0.05
    constants = PhysicalConstants(ell)
    at_unity = planck_family(ell, (0.0, math.sqrt(2.0) * ell, 0.0, 0.0))
    near_zero = distance(*at_unity, constants, cfg)
    two_decades = planck_family(ell, (0.0, math.sqrt(200.0) * ell, 0.0, 0.0))
    reference = distance(*two_decades, constants, cfg)
    assert near_zero.quantum <= 0.15 * reference.quantum
    log_factor = near_zero.quantum * 4.0 * math.pi**2 / constants.kappa_sq
    assert log_factor == pytest.approx(0.912, abs=0.05)


def test_distance_matches_closed_form_on_corrected_family(cfg):
    """Planck-width family against (kappa^2/2 pi^2) ln(|s| / 2 l^2).

    The family constant e^{1-gamma}/4 makes the closed form the exact
    narrow-width limit (see the verify module docstring on the published
    constant), so the whole window is covered at the 5% level.
    """
    ell = 1e-2
    constants = PhysicalConstants(ell)
    for ratio in (10.0, 1e2, 1e3, 1e4):
        sep = math.sqrt(ratio) * ell
        chi_p, chi_q = planck_family(ell, (0.0, sep, 0.0, 0.0))
        result = distance(chi_p, chi_q, constants, cfg)
        closed = constants.kappa_sq / (2.0 * math.pi**2) * math.log(ratio / 2.0)
        assert result.quantum == pytest.approx(closed, rel=0.05)


def test_distance_alpha_drops_to_classical_for_zero_kappa(cfg):
    params = DMStateParams(
        state_alpha=10.0,
        psi=GaussianBump((0, 0, 0, 0), 10.0),
        constants=PhysicalConstants(0.0),
    )
    chi_p = GaussianBump((2, 0, 0, 0), 50.0)
    chi_q = GaussianBump((0, 0, 0, 0), 50.0)
    result = distance_alpha(chi_p, chi_q, params, cfg)
    assert result.total == -4.0
    assert result.quantum == 0.0


def test_distance_alpha_converges_and_psi_independent(cfg):
    constants = PhysicalConstants(0.05)
    chi_p = GaussianBump((1.2, 0.2, 0, 0), 400.0)
    chi_q = GaussianBump((0, 0, 0, 0), 400.0)
    psi_a = GaussianBump((0.4, 0, 0, 0), 60.0)
    psi_b = GaussianBump((-0.3, 0.5, 0, 0), 25.0)
    limit = distance(chi_p, chi_q, constants, cfg)
    gaps = []
    for alpha in (1e2, 1e4, 1e6):
        params = DMStateParams(state_alpha=alpha, psi=psi_a, constants=constants)
        gaps.append(abs(distance_alpha(chi_p, chi_q, params, cfg).total - limit.total))
    assert gaps[0] >= gaps[1] >= gaps[2]
    assert gaps[2] <= 1e-3 * abs(limit.total)
    params_b = DMStateParams(state_alpha=1e6, psi=psi_b, constants=constants)
    total_b = distance_alpha(chi_p, chi_q, params_b, cfg).total
    params_a = DMStateParams(state_alpha=1e6, psi=psi_a, constants=constants)
    total_a = distance_alpha(chi_p, chi_q, params_a, cfg).total
    assert abs(total_b - total_a) <= 1e-3 * abs(limit.total)


@pytest.mark.parametrize("config", ["cfg", "tight_cfg"])
def test_distance_alpha_is_distance_plus_regulator(config, request):
    """Bit for bit: the limit plus kappa^2 Lambda^2 / (64 pi^2 alpha)."""
    cfg = request.getfixturevalue(config)
    rng = np.random.default_rng(23)
    for _ in range(20):
        chi_p, chi_q, psi = random_bump(rng), random_bump(rng), random_bump(rng)
        constants = PhysicalConstants(float(rng.uniform(0.01, 1.0)))
        params = DMStateParams(float(10.0 ** rng.uniform(0, 6)), psi, constants)
        lam = pair_value(KernelKind.LIGHTCONE, chi_p, psi) - pair_value(KernelKind.LIGHTCONE, chi_q, psi)
        reg_scale = constants.kappa_sq / (64.0 * math.pi**2 * params.state_alpha)
        limit = distance(chi_p, chi_q, constants, cfg)
        result = distance_alpha(chi_p, chi_q, params, cfg)
        assert result.classical == limit.classical
        assert result.quantum == limit.quantum + reg_scale * lam * lam
        assert result.error == limit.error
        assert result.converged == limit.converged


def test_corrected_synge_closed_form():
    constants = PhysicalConstants(1.0)
    assert corrected_synge((2, 0, 0, 0), (0, 0, 0, 0), constants) == pytest.approx(2.0 * -2.0 + (8 / math.pi) * math.log(2.0))
    s = math.sqrt(2.0 * math.e)
    assert corrected_synge((0, s, 0, 0), (0, 0, 0, 0), constants) == pytest.approx(
        2.0 * math.e + 8.0 / math.pi
    )
    assert corrected_synge((0, 1, 0, 0), (0, 0, 0, 0), PhysicalConstants(0.0)) == 1.0
    with pytest.raises(ValueError):
        corrected_synge((1, 1, 0, 0), (0, 0, 0, 0), constants)


def test_corrected_synge_cross_validates_distance(cfg):
    """Closed form against full quadrature on the corrected Planck family."""
    ell = 1e-2
    constants = PhysicalConstants(ell)
    for ratio in (20.0, 2e2, 2e3, 2e4):  # |sigma| / l^2 in [10, 1e4]
        sep = math.sqrt(ratio) * ell
        chi_p, chi_q = planck_family(ell, (0.0, sep, 0.0, 0.0))
        full = distance(chi_p, chi_q, constants, cfg).total
        closed = corrected_synge((0.0, sep, 0.0, 0.0), (0, 0, 0, 0), constants)
        assert closed == pytest.approx(full, rel=0.05)


def test_causal_identical_bumps(cfg):
    bump = GaussianBump((0.3, 1.0, 0, 0), 7.0)
    assert causal(bump, bump, cfg).value == 0.0


def test_causal_sharp_limits(cfg):
    narrow = 1e4
    future = causal(GaussianBump((1, 0, 0, 0), narrow), GaussianBump((0, 0, 0, 0), narrow), cfg)
    assert future.value == pytest.approx(1.0, abs=1e-3)
    past = causal(GaussianBump((-1, 0, 0, 0), narrow), GaussianBump((0, 0, 0, 0), narrow), cfg)
    assert past.value == pytest.approx(-1.0, abs=1e-3)
    spacelike = causal(GaussianBump((0, 2, 0, 0), narrow), GaussianBump((0, 0, 0, 0), narrow), cfg)
    assert spacelike.value == pytest.approx(0.0, abs=1e-3)


def test_causal_near_cone_is_fuzzy(cfg):
    """Frozen band derived from a 1e6-sample Monte Carlo run (0.6119 +- 0.001)."""
    value = causal(
        GaussianBump((1.05, 1, 0, 0), 100.0), GaussianBump((0, 0, 0, 0), 100.0), cfg
    )
    assert 0.0 < value.value < 1.0
    assert value.value == pytest.approx(0.6117, abs=5e-3)


def test_causal_antisymmetry_and_bound(cfg):
    rng = np.random.default_rng(7)
    for _ in range(100):
        chi_p, chi_q = random_bump(rng), random_bump(rng)
        forward = causal(chi_p, chi_q, cfg)
        backward = causal(chi_q, chi_p, cfg)
        assert forward.value == -backward.value
        assert abs(forward.value) <= 1.0 + 2.0 * forward.error_estimate


def test_localization_consistency(cfg):
    p_vec, q_vec = (0.6, 0.1, 0.2, 0.0), (0.0, 0.0, 0.0, 0.0)
    interval = minkowski_interval(p_vec, q_vec)
    widths = (1e2, 1e3, 1e4)
    values = []
    for width in widths:
        chi_p = GaussianBump(p_vec, width)
        chi_q = GaussianBump(q_vec, width)
        assert distance(chi_p, chi_q, PhysicalConstants(0.0), cfg).classical == interval
        values.append(causal(chi_p, chi_q, cfg).value)
    assert abs(values[-1] - 1.0) < abs(values[0] - 1.0)
    assert values[-1] == pytest.approx(1.0, abs=1e-3)


def test_causal_via_weyl_matches_reduced(cfg, params):
    rng = np.random.default_rng(11)
    for _ in range(5):
        chi_p = random_bump(rng, width_lo=20.0, width_hi=200.0)
        chi_q = random_bump(rng, width_lo=20.0, width_hi=200.0)
        direct = causal(chi_p, chi_q, cfg)
        via = causal_via_weyl(chi_p, chi_q, params, cfg)
        budget = 2.0 * (direct.error_estimate + via.error_estimate) + 1e-12
        assert abs(direct.value - via.value) <= budget
        assert type(via.value) is float


def test_causal_via_weyl_kappa_independent(cfg):
    chi_p = GaussianBump((0.8, 0.2, 0, 0), 60.0)
    chi_q = GaussianBump((0, 0, 0, 0), 60.0)
    values = []
    for kappa_sq in (16.0 * math.pi, 1.0):
        constants = PhysicalConstants.from_kappa_sq(kappa_sq)
        params = DMStateParams(
            state_alpha=1.0, psi=GaussianBump((0, 0, 0, 0), 25.0), constants=constants
        )
        values.append(causal_via_weyl(chi_p, chi_q, params, cfg).value)
    assert values[0] == pytest.approx(values[1], rel=1e-12)


def test_causal_via_weyl_needs_kappa(cfg):
    params0 = DMStateParams(
        state_alpha=1.0, psi=GaussianBump((0, 0, 0, 0), 25.0), constants=PhysicalConstants(0.0)
    )
    bump = GaussianBump((0.5, 0, 0, 0), 50.0)
    with pytest.raises(ValueError, match="kappa > 0"):
        causal_via_weyl(bump, bump, params0, cfg)


def test_causal_via_weyl_coincident_is_zero(cfg, params):
    bump = GaussianBump((0.5, 0, 0, 0), 50.0)
    assert causal_via_weyl(bump, bump, params, cfg).value == 0.0


@pytest.mark.parametrize("width", [1e-150, 1e150])
def test_observables_are_finite_at_the_width_range_ends(cfg, constants, width):
    """At both ends of the accepted width range the combined width of a pair is finite."""
    q = GaussianBump((0, 0, 0, 0), width)
    for p in ((1, 0, 0, 0), (0, 1, 0, 0), (1, 0.5, 0, 0), (0, 0, 0, 0)):
        chi_p = GaussianBump(p, width)
        dist = distance(chi_p, q, constants, cfg)
        value = causal(chi_p, q, cfg).value
        assert math.isfinite(dist.quantum) and math.isfinite(dist.total) and dist.converged
        assert math.isfinite(value) and abs(value) <= 1.0


def test_a_correction_that_is_not_finite_raises(cfg):
    """An overflowed correction is an error, not a converged inf or nan."""
    constants = PhysicalConstants.from_kappa_sq(1e308)
    chi_p = GaussianBump((1, 0, 0, 0), 1e150)
    chi_q = GaussianBump((0, 0, 0, 0), 1e150)
    with pytest.raises(ValueError, match="quantum correction of the distance is not finite: inf"):
        distance(chi_p, chi_q, constants, cfg)
    # the regulator term overflows at a tiny alpha, and for coincident bumps
    # it is inf * 0
    psi = GaussianBump((0, 0, 0, 0), 25.0)
    params = DMStateParams(state_alpha=1e-300, psi=psi, constants=constants)
    shifted = GaussianBump((1, 0, 0, 0), 1e4)
    bump = GaussianBump((0, 0, 0, 0), 1e4)
    for p, value in ((shifted, "inf"), (bump, "nan")):
        with pytest.raises(ValueError, match=f"quantum correction of the distance is not finite: {value}"):
            distance_alpha(p, bump, params, cfg)
    # a large correction that stays finite is still a result
    assert math.isfinite(distance(GaussianBump((1, 0, 0, 0), 1e4), bump, constants, cfg).quantum)


def test_an_interval_past_the_float_range_raises(cfg, constants, params):
    """Centers 1e200 apart square past the float range: an error, not a converged -inf."""
    chi_p = GaussianBump((1e200, 0, 0, 0), 1e4)
    chi_q = GaussianBump((0, 0, 0, 0), 1e4)
    with pytest.raises(ValueError, match=r"interval \(p - q\)\^2 of the centers is not finite: -inf"):
        distance(chi_p, chi_q, constants, cfg)
    with pytest.raises(ValueError, match=r"interval \(p - q\)\^2 of the centers is not finite: -inf"):
        distance_alpha(chi_p, chi_q, params, cfg)


def test_causal_past_the_gaussian_tail_is_the_sharp_value(cfg):
    """A time separation whose Gaussian factor exp(-s^2 (delta - R)^2) has an
    overflowing exponent gives that factor 0, so the value is the step alone."""
    for width, t in ((1e4, 1e200), (1e150, 1e80)):
        q = GaussianBump((0, 0, 0, 0), width)
        assert causal(GaussianBump((t, 0, 0, 0), width), q, cfg).value == 1.0
        assert causal(GaussianBump((-t, 0, 0, 0), width), q, cfg).value == -1.0
    # delta s itself overflows, and the slope is inf * 0
    q = GaussianBump((0, 0, 0, 0), 1e150)
    with pytest.raises(ValueError, match="the causal functional is not finite: nan"):
        causal(GaussianBump((1e250, 0, 0, 0), 1e150), q, cfg)


def test_classify_causal_bands():
    """The band is fixed at 3e-12 around 0, +1 and -1: a closed form carries no error."""
    assert classify_causal(0.0) == "spacelike"
    assert classify_causal(2.9e-12) == "spacelike"
    assert classify_causal(1.0 - 2.9e-12) == "future"
    assert classify_causal(-1.0 + 2.9e-12) == "past"
    for value in (3.1e-12, -3.1e-12, 1.0 - 3.1e-12, -1.0 + 3.1e-12, 1e-7, 0.4):
        assert classify_causal(value) == "fuzzy"


def _observables_digest(n=2000):
    """sha256 of distance, distance_alpha and causal on n seeded bump pairs.

    Centers and widths are drawn directly, the powers of ten on Python
    floats; the near-null half of the pairs scales a spatial direction v by
    1 / sqrt(v . v) summed on Python floats, so the inputs pass through no
    BLAS and no SIMD loop of numpy.
    """
    rng = np.random.default_rng(86)
    constants = PhysicalConstants(planck_length=1.0)
    params = DMStateParams(state_alpha=1.0, psi=GaussianBump((0.1, 0.0, 0.2, 0.0), 25.0), constants=constants)
    cfg = QuadratureConfig()
    values = []
    for k in range(n):
        q = rng.normal(size=4).tolist()
        width_p, width_q = (10.0**u for u in rng.uniform(0.0, 4.0, 2).tolist())
        scale = 10.0 ** float(rng.uniform(-2.0, 1.0))
        if k % 2:
            v = rng.normal(size=3).tolist()
            norm = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
            offset = [scale * (1.0 + 1e-3 * rng.normal()), *(scale * x / norm for x in v)]
        else:
            offset = (scale * rng.normal(size=4)).tolist()
        chi_p = GaussianBump([x + dx for x, dx in zip(q, offset)], width_p)
        chi_q = GaussianBump(q, width_q)
        d = distance(chi_p, chi_q, constants, cfg)
        values += [d.classical, d.quantum, distance_alpha(chi_p, chi_q, params, cfg).quantum]
        values.append(causal(chi_p, chi_q, cfg).value)
    return hashlib.sha256(np.array(values).tobytes()).hexdigest()


def _logabs_table_digest(n=4000):
    """sha256 of ``_pair_integral`` over one seeded LOGABS sweep, every branch of the log pair.

    The sweep of ``test_integrate.test_logabs_pairs_are_even_in_delta``:
    the Taylor and the direct quotient, near and far log moments, R = 0 and
    delta = 0.
    """
    rng = np.random.default_rng(84)

    def powers_of_ten(low, high):
        return np.array([10.0**u for u in rng.uniform(low, high, n).tolist()])

    b = powers_of_ten(-2.0, 8.0)
    scale = 1.0 / np.sqrt(b)
    delta = scale * np.abs(rng.normal(size=n)) * powers_of_ten(-2.0, 1.5)
    radius = scale * powers_of_ten(-3.0, 1.5)
    radius[::10] = 0.0
    delta[5::10] = 0.0
    return hashlib.sha256(pair_values(KernelKind.LOGABS, b, delta, radius).tobytes()).hexdigest()


def _kernel_table_digest(n=40):
    """sha256 of the LOGABS and LIGHTCONE kernel tables of n seeded bumps.

    Widths are log-uniform on [1e-150, 1e150], the powers of ten on Python
    floats.  Every fourth bump shares the center of the one before it
    (a coincident pair, delta = R = 0) and every fourth the time component
    of the one before it (delta = 0, R > 0), and the last bump repeats the
    first, so it reads the same distinct bump.
    """
    rng = np.random.default_rng(87)
    bumps = []
    for k in range(n - 1):
        center = rng.normal(size=4).tolist()
        if k % 4 == 1:
            center = bumps[-1].center.components
        elif k % 4 == 3:
            center[0] = bumps[-1].center.components[0]
        bumps.append(GaussianBump(center, 10.0 ** float(rng.uniform(-150.0, 150.0))))
    bumps.append(bumps[0])
    _, tables = _kernel_table([bump_rows(bumps)], (KernelKind.LOGABS, KernelKind.LIGHTCONE))
    return hashlib.sha256(b"".join(table.tobytes() for table in tables)).hexdigest()


def _smearings(rng, pool, n):
    """n smearings of 1-4 terms on a shared bump pool, built on Python floats.

    Covector sizes span four decades and weights take either sign, as in
    ``conftest.table_smearing``.
    """
    smearings = []
    for _ in range(n):
        terms = []
        for _ in range(int(rng.integers(1, 5))):
            size = 10.0 ** float(rng.uniform(-2.0, 2.0))
            covector = [size * x for x in rng.normal(size=4).tolist()]
            weight = float(rng.uniform(0.5, 2.0)) * float(rng.choice([-1.0, 1.0]))
            terms.append((covector, pool[int(rng.integers(len(pool)))], weight))
        smearings.append(VectorSmearing(terms))
    return smearings


def _forms_and_state_digest():
    """sha256 of forms, the Krein map and the state in a boosted frame.

    On seeded smearings over a pool of five bumps, built on Python floats:
    LOGABS and LIGHTCONE ``bilinear_form`` under eta and under the Krein
    matrix of a boosted u, the rows of ``krein_J`` at that u, the
    ``gram_check`` N bytes of a five-member family and ``eval_omega(a* a)``
    of an element on it, and ``mc_oracle`` of every kernel on multi-term
    smearings, so its pair draw runs.  M is left out: it is np.exp of N.
    """
    rng = np.random.default_rng(88)
    boost = rng.normal(scale=0.5, size=3).tolist()
    u = (math.sqrt(1.0 + boost[0] * boost[0] + boost[1] * boost[1] + boost[2] * boost[2]), *boost)
    psi = GaussianBump((0.1, 0.0, 0.2, 0.0), 25.0)
    pool = [GaussianBump(rng.normal(scale=0.6, size=4).tolist(), 10.0 ** float(rng.uniform(0.9, 1.6))) for _ in range(4)]
    smearings = _smearings(rng, pool + [psi], 10)
    cfg = QuadratureConfig()
    values = []
    for f, g in zip(smearings[::2], smearings[1::2]):
        for kind in (KernelKind.LOGABS, KernelKind.LIGHTCONE):
            values += [bilinear_form(kind, f, g, c, cfg).value for c in (ETA, krein_matrix(u))]
        values += krein_J(f, u).rows.ravel().tolist()
    for k, kind in enumerate(KernelKind):
        mc_cfg = QuadratureConfig(mc_samples=10_000, seed=90 + k)
        result = mc_oracle(kind, smearings[k], smearings[k + 1], IDENTITY, mc_cfg)
        values += [result.value, result.error_estimate]
    constants = PhysicalConstants(planck_length=0.1)
    params = DMStateParams(state_alpha=1.0, psi=psi, constants=constants, u=u)
    family = smearings[:5]
    values += gram_check(family, params, cfg)[0].matrix.view(float).ravel().tolist()
    calc = WeylCalculus(constants, cfg, u=u, pairing="krein")
    a = sum((WeylElement.generator(f, complex(*rng.normal(size=2).tolist())) for f in family[1:]), WeylElement.generator(family[0]))
    omega = calc.eval_omega(calc.mul(calc.star(a), a), params).value
    values += [omega.real, omega.imag]
    return hashlib.sha256(np.array(values).tobytes()).hexdigest()


def _momentum_digest():
    """sha256 of ``momentum_form`` on seeded mean-zero smearings.

    Its integrand takes np.exp and np.sinc, which follow numpy's SIMD
    dispatch, so this digest is compared under other OpenBLAS kernels only.
    """
    rng = np.random.default_rng(89)
    values = []
    for _ in range(3):
        bumps = [GaussianBump(rng.normal(scale=0.5, size=4).tolist(), 10.0 ** float(rng.uniform(1.3, 2.6))) for _ in range(4)]
        f = scalar_smearing(bumps[0]) - scalar_smearing(bumps[1])
        g = scalar_smearing(bumps[2], 0.5) - scalar_smearing(bumps[3], 0.5)
        value = momentum_form(f, g, QuadratureConfig()).value
        values += [value.real, value.imag]
    return hashlib.sha256(np.array(values).tobytes()).hexdigest()


def _digests():
    return {
        "observables": _observables_digest(),
        "logabs table": _logabs_table_digest(),
        "kernel tables": _kernel_table_digest(),
        "forms and state": _forms_and_state_digest(),
        "momentum": _momentum_digest(),
    }


@pytest.fixture(scope="module")
def digests():
    return _digests()


# each variant's environment and the digests that must not move under it
HOST_VARIANTS = {
    "Haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, None),
    "Sandybridge": ({"OPENBLAS_CORETYPE": "Sandybridge"}, None),
    "AVX2": ({"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR,AVX512_ICL,X86_V4"}, "momentum"),
}


@pytest.mark.parametrize("variant", HOST_VARIANTS)
def test_observables_do_not_depend_on_the_blas_kernel_or_simd_dispatch(digests, variant):
    """distance, distance_alpha, causal, a LOGABS table, the kernel tables of
    both kinds, forms, the Krein map, the state's N and omega, and the
    Monte Carlo oracle give the same bits under another OpenBLAS kernel and
    under numpy's AVX2 loops; the momentum route under another OpenBLAS
    kernel only.

    OPENBLAS_CORETYPE picks the kernel when an OpenBLAS built with
    DYNAMIC_ARCH loads; NPY_DISABLE_CPU_FEATURES switches off numpy's
    AVX512 dispatch, whose transcendental loops round differently from its
    AVX2 ones.  The momentum route's np.exp and np.sinc are such loops, so
    its digest is not compared under AVX2.  A build without DYNAMIC_ARCH,
    or a host or numpy build without those AVX512 features, runs what it
    has: the subprocess then computes what the test process does, and the
    test passes trivially.
    """
    env_vars, simd_dependent = HOST_VARIANTS[variant]
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests), str(tests.parent / "src")])
    env = {**os.environ, **env_vars, "PYTHONPATH": path}
    code = "import json, test_geometry; print(json.dumps(test_geometry._digests()))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300, check=True)
    expected = {name: value for name, value in digests.items() if name != simd_dependent}
    assert {name: value for name, value in json.loads(run.stdout).items() if name != simd_dependent} == expected
