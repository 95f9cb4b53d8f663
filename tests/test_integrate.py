import math

import numpy as np
import pytest

from conftest import random_bump
from ncmink import (
    ETA,
    DistanceBreakdown,
    GaussianBump,
    KernelKind,
    Method,
    QuadratureConfig,
    WeylCalculus,
    WeylElement,
    bilinear_form,
    causal,
    causal_via_weyl,
    distance,
    dm_bilinear,
    gaussian_pair_reduce,
    krein_matrix,
    mc_oracle,
    momentum_form,
    mu2,
)
from ncmink.integrate import (
    _forms,
    _kernel_table,
    _lightcone_pair,
    _log_moment,
    _logabs_pairs,
    _pair_cached,
    _pair_table,
    _term_pairs,
    bump_arrays,
    pair_integrals,
)
from ncmink.state import sigma_indexed
from ncmink.testfn import VectorSmearing, scalar_smearing, single_term
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


# (kind, b, delta, R, value) of the pair integral with combined width b,
# time separation delta and spatial separation R.  Computed once with
# mpmath 1.3.0 at 22-30 digits (50 where sqrt(b) R < 1e-3) by nested
# tanh-sinh quadrature of the (t, r) form over +-14 sigma windows,
# sigma^2 = 1/(2b): the time average numerically with breakpoints at t = +-r
# for LOGABS, through mpmath.erfc for LIGHTCONE; never from the closed forms.
# Rows: near-null delta = R (1 -+ 1e-3) for b from 1e-2 to 1e8, separations
# far past the tails (R = 10 against a tail window of 0.064), and R = 0
# pairs; the LOGABS self pairs equal 1 - gamma - ln(2b).  Then the branches
# of the closed forms: LOGABS at R = 0 with delta != 0 (time-direction
# sweeps); sqrt(b) R = 1e-9 and 1e-4; the Dawson quotient's half-width
# h = R sqrt(b/2) either side of its Taylor cut 0.3, x h either side of 1,
# and x h = 15 and 212 below the cut, where the Taylor recurrence would
# amplify rounding past 1e-6; LIGHTCONE either side of b delta R = 1, where
# an earlier form switched from a sinh quotient to a Gaussian gap, far past
# sinh's overflow (b delta R = 903 and 2.5e7), and a spacelike tail.
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
    (KernelKind.LOGABS, 1e4, 0.01, 0.0, -9.352110467852647),
    (KernelKind.LOGABS, 1.0, 2.5, 0.0, 1.3557909441143927),
    (KernelKind.LOGABS, 1e4, 0.02, 1e-11, -8.449612798959224),
    (KernelKind.LOGABS, 1e4, 0.02, 1e-6, -8.449612800558945),
    (KernelKind.LOGABS, 1e4, 0.02, 0.0042, -8.476108823809964),
    (KernelKind.LOGABS, 1e4, 0.02, 0.0043, -8.477299570753638),
    (KernelKind.LOGABS, 1e4, 0.1, 0.00198, -4.626050507196092),
    (KernelKind.LOGABS, 1e4, 0.1, 0.00202, -4.626067198242539),
    (KernelKind.LOGABS, 1e4, 1.0, 0.003, -0.00020904866281393154),
    (KernelKind.LOGABS, 1e8, 1.0, 4.24e-6, -2.0017978050719285e-08),
    (KernelKind.LIGHTCONE, 1e4, 0.02, 1e-11, 0.8465178030772655),
    (KernelKind.LIGHTCONE, 1e4, 0.02, 1e-6, 0.8465178018174763),
    (KernelKind.LIGHTCONE, 1e4, 0.02, 0.004995, 0.8150568607204923),
    (KernelKind.LIGHTCONE, 1e4, 0.02, 0.005005, 0.8149307528715074),
    (KernelKind.LIGHTCONE, 1e6, 0.0301, 0.03, 0.5332119614857452),
    (KernelKind.LIGHTCONE, 1e8, 0.5, 0.4999, 0.8413205441556818),
    (KernelKind.LIGHTCONE, 1.0, 0.5, 6.0, 9.996848729719421e-09),
]

# Far-spacelike LIGHTCONE pairs whose value comes from radii near the
# midpoint (R + delta) / 2, many widths away from R.  Same mpmath route as
# above, with the radial integral over [0, R + 14 sigma] and breakpoints
# every sigma/4 within 12 sigma of the midpoint.  These came from the
# benchmark's observables inputs (seed 101, ops 76 and 31).
LIGHTCONE_TAIL_REFERENCES = [
    (2.2401827090816737, 1.4218617817541017, 8.860790312844983, 2.4714246874047318e-29),
    (790.728465863948, 0.06935323271420918, 0.7751079732430916, 3.259582168958684e-88),
]


@pytest.mark.parametrize("kind, b, delta, radius, reference", PAIR_REFERENCES)
def test_pair_integral_matches_high_precision_reference(kind, b, delta, radius, reference, cfg):
    # two bumps of width 2b have combined width b
    bp = GaussianBump((delta, radius, 0, 0), 2.0 * b)
    bq = GaussianBump((0, 0, 0, 0), 2.0 * b)
    r = gaussian_pair_reduce(kind, bp, bq, cfg)
    assert (r.method, r.error_estimate, r.evals, r.converged) == (Method.ANALYTIC, 0.0, 0, True)
    assert abs(r.value - reference) <= 1e-14 * max(1.0, abs(reference))


@pytest.mark.parametrize("b, delta, radius, reference", LIGHTCONE_TAIL_REFERENCES)
def test_lightcone_spacelike_tail_is_relatively_accurate(b, delta, radius, reference):
    (value,) = pair_integrals(KernelKind.LIGHTCONE, [b], [delta], [radius])
    assert abs(value - reference) <= 1e-12 * reference


def _dense_radial_rule(kind, b, delta, R):
    """The pair integral as a radial integral, by a dense fixed Gauss-Legendre rule.

    sqrt(b/pi) times the integral over r of (r/R) [exp(-b(r-R)^2) - exp(-b(r+R)^2)]
    (4 b r^2 exp(-b r^2) at R = 0) against the kernel averaged over the
    relative time t ~ N(delta, 1/(2b)): half an erfc difference for the light
    cone, L(delta - r) + L(delta + r) for the log kernel.  64 panels of 20
    nodes cover the Gaussian window R +- sqrt(41.5 / b).
    """
    half = math.sqrt(41.5 / b)
    edges = np.linspace(max(0.0, R - half), R + half, 65)
    x, w = np.polynomial.legendre.leggauss(20)
    mids, halves = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    r = (mids[:, None] + halves[:, None] * x).ravel()
    weights = (halves[:, None] * w).ravel()
    if R == 0.0:
        radial = 4.0 * b * r * r * np.exp(-b * r * r)
    else:
        radial = (r / R) * (np.exp(-b * (r - R) ** 2) - np.exp(-b * (r + R) ** 2))
    if kind is KernelKind.LIGHTCONE:
        root_b = math.sqrt(b)
        time_average = np.array(
            [0.5 * (math.erfc(root_b * (ri - delta)) - math.erfc(root_b * (ri + delta))) for ri in r]
        )
    else:
        sigma = math.sqrt(0.5 / b)
        time_average = _log_moment(delta - r, sigma)[0] + _log_moment(delta + r, sigma)[0]
    return math.sqrt(b / math.pi) * float(weights @ (radial * time_average))


@pytest.mark.parametrize("kind", [KernelKind.LIGHTCONE, KernelKind.LOGABS], ids=lambda k: k.name.lower())
def test_pair_integrals_match_dense_radial_rule(kind):
    rng = np.random.default_rng(83)
    n = 100
    b = 10.0 ** rng.uniform(-2.0, 8.0, n)
    scale = 1.0 / np.sqrt(b)
    delta = scale * np.abs(rng.normal(size=n)) * 10.0 ** rng.uniform(-1.0, 1.0, n)
    radius = scale * 10.0 ** rng.uniform(-2.0, 1.0, n)
    radius[::10] = 0.0
    near_null = slice(5, None, 10)
    radius[near_null] = delta[near_null] * (1.0 + 1e-3 * rng.normal(size=10))
    values = pair_integrals(kind, b, delta, radius)
    for value, args in zip(values, zip(b, delta, radius)):
        reference = _dense_radial_rule(kind, *args)
        assert abs(value - reference) <= 1e-13 * max(1.0, abs(reference)), args


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


def test_kernel_table_reads_every_row_pair_bit_for_bit(cfg):
    """Rows match on center and width together; repeats share one distinct bump.

    The rows come in blocks, an empty one among them, and each block gets
    its own indices into the one table.  No blocks give empty tables.
    """
    rng = np.random.default_rng(19)
    base = [random_bump(rng) for _ in range(3)]
    same_center = GaussianBump(base[0].center, 2.0 * base[0].width)
    same_width = GaussianBump(base[1].center.components[::-1], base[1].width)
    bumps = [base[0], same_center, base[1], base[0], same_width, base[2], base[1]]
    kinds = (KernelKind.LOGABS, KernelKind.LIGHTCONE)
    blocks = [bumps[:2], [], bumps[2:5], bumps[5:]]
    indices, tables = _kernel_table([bump_arrays(block) for block in blocks], kinds)
    assert [block.tolist() for block in indices] == [[0, 1], [], [2, 0, 3], [4, 2]]
    index = np.concatenate(indices)
    for kind, table in zip(kinds, tables):
        assert table.shape == (5, 5)
        for p, bp in enumerate(bumps):
            for q, bq in enumerate(bumps):
                assert table[index[p], index[q]] == gaussian_pair_reduce(kind, bp, bq, cfg).value
    indices, tables = _kernel_table([], kinds)
    assert indices == [] and [table.shape for table in tables] == [(0, 0), (0, 0)]


def test_log_moment_branches_are_independent():
    """A mixed array gives each branch what a call on that branch alone gives.

    A call whose elements all sit in one branch skips the other one.
    """
    sigma = 0.3
    mu = sigma * np.array([-20.0, -9.0, -8.999, -1.0, 0.0, 0.5, 8.5, 9.0, 40.0])
    far = np.abs(mu) / sigma >= 9.0
    assert far.tolist() == [True, True, False, False, False, False, False, True, True]
    mixed = _log_moment(mu, sigma)
    for branch in (far, ~far):
        alone = _log_moment(mu[branch], sigma)
        assert [v[branch].tolist() for v in mixed] == [v.tolist() for v in alone]


def test_log_moment_does_not_depend_on_the_batch():
    """An element's L and F are those of a call on it alone, with one sigma or one per element.

    The row products are summed within each element.  As one matrix product
    they rounded by the row count: F at mu = -8.999 sigma, sigma = 0.3, took
    another last bit inside a call with four other near elements than alone.
    """
    sigma = 0.3
    mu = sigma * np.array([-8.999, -1.0, 0.0, 0.5, 8.5, 9.0, -20.0])
    batch = _log_moment(mu, sigma)
    per_element = _log_moment(mu, np.full(len(mu), sigma))
    for k in range(len(mu)):
        alone = _log_moment(mu[k : k + 1], sigma)
        assert [v[k] for v in batch] == [v[k] for v in per_element] == [v[0] for v in alone]


def test_logabs_pairs_do_not_depend_on_the_batch():
    """4000 seeded pairs in one call give each pair's one-pair value bit for bit, in any order.

    The sweep spans the Taylor and the direct quotient, the near and the far
    log moment, R = 0 and delta = 0; it ends with the pair whose delta - R
    sits at -8.999 sigma, sigma = 1/sqrt(b) ~ 0.3, next to a near pair.
    """
    rng = np.random.default_rng(84)
    n = 4000
    b = 10.0 ** rng.uniform(-2.0, 8.0, n)
    scale = 1.0 / np.sqrt(b)
    delta = scale * np.abs(rng.normal(size=n)) * 10.0 ** rng.uniform(-2.0, 1.5, n)
    radius = scale * 10.0 ** rng.uniform(-3.0, 1.5, n)
    radius[::10] = 0.0
    delta[5::10] = 0.0
    b[-2:] = 1.0 / 0.09
    sigma = 1.0 / math.sqrt(b[-1])
    delta[-2:], radius[-2:] = (0.0, 0.5 * sigma), (8.999 * sigma, 0.5 * sigma)
    batch = _logabs_pairs(b, delta, radius)
    one_pair = [
        _logabs_pairs(np.array([b_k]), np.array([delta_k]), np.array([radius_k]))[0]
        for b_k, delta_k, radius_k in zip(b.tolist(), delta.tolist(), radius.tolist())
    ]
    assert batch == one_pair
    order = rng.permutation(n)
    assert _logabs_pairs(b[order], delta[order], radius[order]) == [batch[k] for k in order]
    assert pair_integrals(KernelKind.LOGABS, b[-2:], delta[-2:], radius[-2:]).tolist() == batch[-2:]


def test_the_memo_serves_a_repeated_lightcone_key():
    """Repeated and sign-flipped copies of three pairs in one call: three misses, each copy its pair's bits."""
    b = np.array([2.0, 50.0, 1e4])
    delta = np.array([0.3, 1.0, 0.02])
    radius = np.array([0.1, 0.5, 0.0])
    copies = [0, 1, 2, 0, 2, 1, 1, 0, 2]
    signs = np.array([1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0])
    _pair_cached.cache_clear()
    values = pair_integrals(KernelKind.LIGHTCONE, b[copies], signs * delta[copies], radius[copies])
    assert _pair_cached.cache_info().misses == 3
    alone = [_lightcone_pair(*pair) for pair in zip(b.tolist(), delta.tolist(), radius.tolist())]
    assert all(value != 0.0 for value in alone)
    assert values.tolist() == [alone[k] if sign > 0.0 else -alone[k] for k, sign in zip(copies, signs)]


def test_lightcone_kernel_table_is_exactly_antisymmetric():
    """The mirrored LIGHTCONE table is -K^T bit for bit, with +0.0 wherever the time centers coincide."""
    rng = np.random.default_rng(20)
    bumps = [random_bump(rng) for _ in range(8)]
    bumps.append(GaussianBump((bumps[0].center.components[0], *rng.normal(size=3)), 30.0))
    bumps.append(GaussianBump(bumps[1].center, 70.0))
    (index,), (table,) = _kernel_table([bump_arrays(bumps)], (KernelKind.LIGHTCONE,))
    assert index.tolist() == list(range(len(bumps)))
    assert (table == -table.T).all()
    times = np.array([bump.center.components[0] for bump in bumps])
    coincident = times[:, None] == times[None, :]
    assert coincident.sum() == len(bumps) + 4
    assert (table[coincident] == 0.0).all() and not np.signbit(table[coincident]).any()


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


def _mixture(rows):
    return VectorSmearing([((1, 0, 0, 0), GaussianBump(c, a), w) for c, a, w in rows])


def test_mc_pair_cdf_ends_at_one():
    """A cumsum of these normalized weights ends at 0.9999999999999999, below
    the largest uniform draw; the pair CDF must still map that draw to the
    last pair instead of one past it."""
    weights = [0.5041077502552221, 1.786106414881354, 0.5503783629581965]
    assert np.cumsum(np.abs(weights) / np.sum(np.abs(weights)))[-1] < 1.0
    f = _mixture([((0.1 * k, 0, 0, 0), 10.0, w) for k, w in enumerate(weights)])
    g = _mixture([((0, 0, 0, 0), 20.0, 1.0)])
    for left, right in ((f, g), (g, f), (f, f)):
        _, cdf, _, _ = _pair_table(left, right, I4)
        assert cdf[-1] == 1.0
        assert np.searchsorted(cdf, np.nextafter(1.0, 0.0), side="right") == len(cdf) - 1


@pytest.mark.parametrize("kind", [KernelKind.LIGHTCONE, KernelKind.LOGABS])
def test_mc_agrees_on_mixtures_of_unequal_widths(kind, cfg):
    """2 x 3 terms of mixed sign with widths 8 to 120: each pair draws its
    own relative-coordinate law, so a wrong pair index or a wrong combined
    width moves the estimate by many standard errors."""
    f = _mixture([((0.3, 0.1, 0.0, 0.0), 8.0, 1.0), ((0.0, 0.2, 0.1, 0.0), 120.0, -0.6)])
    g = _mixture(
        [
            ((0.0, 0.0, 0.0, 0.0), 15.0, 0.8),
            ((0.1, 0.3, 0.0, 0.1), 60.0, -1.2),
            ((-0.2, 0.0, 0.1, 0.0), 30.0, 0.5),
        ]
    )
    det = bilinear_form(kind, f, g, I4, cfg)
    mc = mc_oracle(kind, f, g, I4, QuadratureConfig(mc_samples=200_000, seed=4242))
    assert abs(det.value - mc.value) <= 2.0 * (det.error_estimate + mc.error_estimate)


def test_momentum_form_matches_position_space(tight_cfg):
    for p in [(1.0, 0, 0, 0), (0, 1.0, 0, 0)]:
        f = scalar_smearing(GaussianBump(p, 60.0)) + scalar_smearing(
            GaussianBump((0, 0, 0, 0), 60.0), -1.0
        )
        m = momentum_form(f, f, tight_cfg)
        logf = bilinear_form(KernelKind.LOGABS, f, f, I4, tight_cfg)
        assert m.method is Method.MOMENTUM
        assert logf.method is Method.ANALYTIC
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


def mean_zero_smearing(rng):
    """1-2 random terms plus one term on its own bump that cancels their mean."""
    terms, total = [], np.zeros(4)
    for _ in range(int(rng.integers(1, 3)) + 1):
        v = rng.normal(size=4)
        weight = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        terms.append((tuple(v), random_bump(rng, 0.6, 8.0, 40.0), weight))
        total += weight * v
    terms[-1] = (tuple(total - terms[-1][2] * np.array(terms[-1][0])), terms[-1][1], -1.0)
    return VectorSmearing(tuple(terms))


def test_momentum_error_covers_rounding_of_the_pair_sum(monkeypatch):
    """Summing the term pairs in reverse order moves the value by less than the reported error.

    The quadrature part of the estimate does not see that rounding: at
    rel_tol 1e-6 it alone was below the shift on this draw, by up to 1.9x.
    """
    from ncmink import integrate

    cfg = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-16)
    forward = integrate._term_pairs

    def reverse(f, g, contraction):
        return tuple(a[::-1] for a in forward(f, g, contraction))

    rng = np.random.default_rng(7)
    for i in range(30):
        f = mean_zero_smearing(rng)
        g = f if i % 2 else mean_zero_smearing(rng)
        monkeypatch.setattr(integrate, "_term_pairs", forward)
        result = momentum_form(f, g, cfg)
        monkeypatch.setattr(integrate, "_term_pairs", reverse)
        reversed_value = momentum_form(f, g, cfg).value
        assert abs(result.value - reversed_value) <= result.error_estimate


def test_budget_exhaustion_flags_nonconverged():
    # momentum_form is the one adaptive route left.  Its initial panels span
    # the narrow bump's momentum range and under-resolve the wide one's, and
    # 100 evals stop it there: the panels alone cost 22 evals per term pair.
    starved = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-16, max_evals=100)
    f = scalar_smearing(GaussianBump((0.01, 0.02, 0, 0), 1e4)) + scalar_smearing(
        GaussianBump((0, 0, 0, 0), 4.0), -1.0
    )
    r = momentum_form(f, f, starved)
    assert not r.converged
    assert r.evals >= starved.max_evals
    assert r.error_estimate > max(starved.abs_tol, starved.rel_tol * abs(r.value))


def _mixed_width_profile():
    """Difference profile whose narrow-width pairs all lie inside the first uniform momentum panel."""
    d = (-0.008048220935472904, 0.012011772538134808, -0.0028120212390088883, -0.011511668328304149)
    f = scalar_smearing(GaussianBump(d, 1.0907588769597651)) + scalar_smearing(
        GaussianBump((0, 0, 0, 0), 289464.5405263968), -1.0
    )
    closed = -bilinear_form(KernelKind.LOGABS, f, f, I4, QuadratureConfig()).value / (16.0 * math.pi**2)
    return f, closed


def test_momentum_error_bounds_a_pair_inside_one_uniform_panel():
    """Every pair's own cutoff is a panel edge, so its support is resolved.

    On the uniform grid alone the 7- and 15-node rules agreed by accident on
    this input: it reported error 5.6e-5 and converged for an actual 1.88e-4.
    The added term is the rounding of the closed form.
    """
    f, closed = _mixed_width_profile()
    m = momentum_form(f, f, QuadratureConfig())
    assert m.converged
    assert m.error_estimate + 4e-16 * abs(closed) >= abs(m.value.real - closed)


def test_tighter_tolerance_refines_the_momentum_panels():
    f, closed = _mixed_width_profile()
    loose = momentum_form(f, f, QuadratureConfig(rel_tol=1e-3, abs_tol=1e-16))
    tight = momentum_form(f, f, QuadratureConfig(rel_tol=1e-10, abs_tol=1e-16))
    assert tight.evals > loose.evals
    assert loose.converged and tight.converged
    assert abs(tight.value.real - closed) <= tight.error_estimate


def test_mc_oracle_on_a_zero_smearing_costs_nothing():
    from ncmink.testfn import ZERO_SMEARING

    f = scalar_smearing(GaussianBump((0.5, 0.1, 0, 0), 6.0))
    for left, right in ((ZERO_SMEARING, f), (f, ZERO_SMEARING)):
        r = mc_oracle(KernelKind.LOGABS, left, right, I4, QuadratureConfig())
        assert (r.value, r.error_estimate, r.evals) == (0.0, 0.0, 0)


@pytest.mark.parametrize("b", [1e-2, 1.0, 1e4, 1e8])
def test_logabs_self_pair_rule_matches_closed_form(b):
    """The general closed form at delta = R = 0, which forms shortcut to 1 - gamma - ln(2b)."""
    (value,) = _logabs_pairs(np.array([b]), np.array([0.0]), np.array([0.0]))
    expected = 1.0 - EULER_GAMMA - math.log(2.0 * b)
    assert abs(value - expected) <= 1e-14 * max(1.0, abs(expected))


def test_logabs_self_pair_is_analytic(cfg):
    bump = GaussianBump((0.3, -0.2, 0.1, 0.0), 40.0)
    r = gaussian_pair_reduce(KernelKind.LOGABS, bump, bump, cfg)
    assert r.value == 1.0 - EULER_GAMMA - math.log(40.0)
    assert r.error_estimate == 0.0
    assert r.evals == 0
    assert r.method is Method.ANALYTIC


def _random_multi_smearing(rng, bumps, nterms):
    """Terms drawn with replacement from a shared bump pool, so forms see self pairs."""
    return VectorSmearing(
        tuple(
            (
                tuple(rng.normal(size=4)),
                bumps[rng.integers(len(bumps))],
                float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])),
            )
            for _ in range(nterms)
        )
    )


def _term_by_term_form(kind, f, g, contraction, cfg):
    value, evals = 0.0, 0
    for tf in f.terms:
        for tg in g.terms:
            coef = tf.weight * tg.weight * float(np.array(tf.covector) @ contraction @ tg.covector)
            if coef != 0.0:
                r = gaussian_pair_reduce(kind, tf.bump, tg.bump, cfg)
                value += coef * r.value
                evals += r.evals
    return value, evals


@pytest.mark.parametrize("contraction", [ETA, I4], ids=["eta", "identity"])
@pytest.mark.parametrize("kind", list(KernelKind), ids=lambda k: k.name.lower())
def test_bilinear_form_matches_term_by_term_loop(kind, contraction, cfg):
    rng = np.random.default_rng(61)
    bumps = [random_bump(rng, center_scale=0.5, width_lo=5.0, width_hi=500.0) for _ in range(4)]
    for _ in range(6):
        f = _random_multi_smearing(rng, bumps, int(rng.integers(1, 5)))
        g = _random_multi_smearing(rng, bumps, int(rng.integers(1, 5)))
        for a, b in ((f, g), (f, f)):
            form = bilinear_form(kind, a, b, contraction, cfg)
            reference, reference_evals = _term_by_term_form(kind, a, b, contraction, cfg)
            scale = sum(
                abs(ta.weight * tb.weight) * np.abs(ta.covector) @ np.abs(tb.covector)
                for ta in a.terms
                for tb in b.terms
            )
            assert abs(form.value - reference) <= 1e-13 * scale
            assert form.converged
            assert form.evals <= reference_evals
        swapped = bilinear_form(kind, g, f, contraction, cfg).value
        forward = bilinear_form(kind, f, g, contraction, cfg).value
        assert swapped == (-forward if kind is KernelKind.LIGHTCONE else forward)
    if kind is KernelKind.LIGHTCONE:
        assert bilinear_form(kind, f, f, contraction, cfg).value == 0.0


_BOOST = np.array([0.4, -0.2, 0.1])
_KREIN_BOOSTED = krein_matrix(tuple(np.concatenate([[math.sqrt(1 + _BOOST @ _BOOST)], _BOOST])))


@pytest.mark.parametrize("contraction", [ETA, I4, _KREIN_BOOSTED], ids=["eta", "identity", "krein-boosted"])
@pytest.mark.parametrize("kind", list(KernelKind), ids=lambda k: k.name.lower())
def test_forms_read_the_table_as_the_per_pair_sum(kind, contraction, cfg):
    """The kernel-table route sums exactly the products of the per-pair statement ``_term_pairs``.

    ``_forms`` of [f, g] against [g, f] gives each of its four forms bit for
    bit as that sum and as the one-pair ``bilinear_form``.  Smearings share
    a bump pool: repeated bumps, two bumps at one time center, and
    covectors orthogonal under the contraction, whose term pairs have
    coefficient exactly 0 and are left out of both sums.
    """
    rng = np.random.default_rng(101)
    pool = [random_bump(rng, 0.6, 8.0, 40.0) for _ in range(3)]
    t0 = pool[0].center.components[0]
    pool.append(GaussianBump((t0, *rng.normal(scale=0.6, size=3)), 17.0))
    # (w_1, w_2) = (c_02, -c_01) makes e_0 . c . w vanish exactly; scaling
    # by powers of two keeps it exact
    c = np.asarray(contraction)
    covectors = [(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0), tuple(rng.normal(size=4))]
    if c[0, 1] or c[0, 2]:
        covectors.append((0.0, c[0, 2], -c[0, 1], 0.0))
    zero_pairs = coincident = 0
    for _ in range(12):
        f, g = (
            VectorSmearing(
                tuple(
                    (
                        covectors[rng.integers(len(covectors))],
                        pool[rng.integers(len(pool))],
                        float(rng.choice([-2.0, -0.5, 1.0, 4.0])),
                    )
                    for _ in range(int(rng.integers(1, 5)))
                )
            )
            for _ in range(2)
        )
        (fg, ff), (gg, gf) = _forms(kind, [f, g], [g, f], contraction)
        for (a, b), value in zip(((f, g), (f, f), (g, g), (g, f)), (fg, ff, gg, gf)):
            coef, bb, delta, R = _term_pairs(a, b, contraction)
            expected = math.fsum(coef * pair_integrals(kind, bb, delta, R))
            assert value == expected == bilinear_form(kind, a, b, contraction, cfg).value
            zero_pairs += len(a.terms) * len(b.terms) - len(coef)
            coincident += int(((delta == 0.0) & (R > 0.0)).sum())
    assert zero_pairs >= 5 and coincident >= 5


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(mc_samples=100)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=-1e-3)


_BUMP_P = GaussianBump((0.6, 0.3, 0.1, 0.0), 30.0)
_BUMP_Q = GaussianBump((0.0, 0.1, -0.2, 0.05), 45.0)
_F = single_term((1.0, 0.2, -0.3, 0.1), _BUMP_P, 1.0) + single_term(
    (0.1, 0.5, 0.0, -0.2), _BUMP_Q, -0.7
)
_G = single_term((0.3, -0.1, 0.4, 0.2), _BUMP_Q, 1.3)


def _on_weyl_square(functional, pairing):
    """Route evaluating ``functional`` on a* a for a two-generator element a."""

    def run(cfg, params):
        calc = WeylCalculus(params.constants, cfg, u=params.u, pairing=pairing)
        element = WeylElement.generator(_F, 0.8) + WeylElement.generator(_G, -0.5j)
        return getattr(calc, functional)(calc.mul(element.star(), element), params)

    return run


POSITION_SPACE_ROUTES = {
    "distance": lambda cfg, params: distance(_BUMP_P, _BUMP_Q, params.constants, cfg),
    "causal": lambda cfg, params: causal(_BUMP_P, _BUMP_Q, cfg),
    "bilinear_form": lambda cfg, params: bilinear_form(KernelKind.LOGABS, _F, _G, ETA, cfg),
    "sigma_indexed": lambda cfg, params: sigma_indexed(_F, params.psi, params.constants, cfg),
    "dm_bilinear": lambda cfg, params: dm_bilinear(_F, _G, params, cfg),
    "mu2": lambda cfg, params: mu2(_F, _F, params, cfg),
    "eval_omega": _on_weyl_square("eval_omega", "krein"),
    "eval_tau": _on_weyl_square("eval_tau", "plain"),
    "causal_via_weyl": lambda cfg, params: causal_via_weyl(_BUMP_P, _BUMP_Q, params, cfg),
}


def _report(result):
    """Value and whichever provenance fields the result's shape carries."""
    if isinstance(result, DistanceBreakdown):
        return {
            "value": (result.classical, result.quantum),
            "error": result.error,
            "converged": result.converged,
        }
    if isinstance(result, np.ndarray):  # sigma_indexed: plain components
        return {"value": result.tolist()}
    if isinstance(result, complex):  # dm_bilinear, mu2: plain values
        return {"value": result}
    return {
        "value": result.value,
        "error": result.error_estimate,
        "evals": result.evals,
        "converged": result.converged,
        "method": result.method,
    }


@pytest.mark.parametrize("route", list(POSITION_SPACE_ROUTES))
def test_position_space_results_are_exact_under_any_budget(route, params):
    """Closed-form pair integrals: no tolerance or budget reaches these results."""
    starved = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-16, max_evals=100)
    reports = []
    for config in (QuadratureConfig(), starved):
        _pair_cached.cache_clear()  # recompute every pair under each config
        reports.append(_report(POSITION_SPACE_ROUTES[route](config, params)))
    assert reports[0] == reports[1]
    exact = {"error": 0.0, "evals": 0, "converged": True, "method": Method.ANALYTIC}
    provenance = {key: value for key, value in reports[0].items() if key != "value"}
    assert provenance == {key: exact[key] for key in provenance}
