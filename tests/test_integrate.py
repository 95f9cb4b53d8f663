import itertools
import math

import numpy as np
import pytest

from conftest import bump_rows, pair_value, pair_values, random_bump
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
    krein_matrix,
    mc_oracle,
    momentum_form,
    mu2,
)
from ncmink import integrate
from ncmink.integrate import (
    _forms,
    _geometry,
    _kernel_table,
    _kernel_values,
    _mc_block,
    _pair_cached,
    _pair_integral,
    _pair_table,
    _term_pairs,
)
from ncmink._lambda_table import CUT, LOG_MOMENT
from ncmink.pair import _bump_geometry, _lambda_f, _lightcone_pair, _logabs_pair
from ncmink.state import sigma_indexed
from ncmink.testfn import VectorSmearing, scalar_smearing, single_term
from ncmink.verify import MINVAR_CONSTANT_CORRECTED

I4 = np.eye(4)
EULER_GAMMA = 0.5772156649015329


def test_constant_kernel_is_exact():
    assert pair_value(KernelKind.CONSTANT, GaussianBump((1, 2, 3, 4), 2.0), GaussianBump((0, 0, 0, 0), 9.0)) == 1.0


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

# LIGHTCONE pairs whose erfc step alone would cancel.  The first two are
# far-spacelike, their value from radii near the midpoint (R + delta) / 2,
# many widths away from R: same mpmath route as above, with the radial
# integral over [0, R + 14 sigma] and breakpoints every sigma/4 within
# 12 sigma of the midpoint; they came from the benchmark's observables
# inputs (seed 101, ops 76 and 31).  The last two have both erfc arguments
# s (R -+ delta), s = sqrt(b/2), small: bumps of width 1e-150 at
# p - q = (1, 0.5, 0, 0), where the erfc step rounded to 0 and the value
# to the wrong sign, and the worst small-s(R + delta) pair of an earlier
# 4000-pair mpmath sweep, off by 6.4e-10 with that step.  Their values are
# ``highprec.lightcone_pair`` (bench/) at ``highprec.digits(b)`` digits,
# 116 and 41, and agree to 20 digits at 40 digits more.
LIGHTCONE_TAIL_REFERENCES = [
    (2.2401827090816737, 1.4218617817541017, 8.860790312844983, 2.4714246874047318e-29),
    (790.728465863948, 0.06935323271420918, 0.7751079732430916, 3.259582168958684e-88),
    (5e-151, 1.0, 0.5, 2.820947917738781e-76),
    (0.0322, 3.47e-7, 2.77e-3, 2.484090550721902e-08),
]


@pytest.mark.parametrize("kind, b, delta, radius, reference", PAIR_REFERENCES)
def test_pair_integral_matches_high_precision_reference(kind, b, delta, radius, reference):
    # two bumps of width 2b have combined width b
    bp = GaussianBump((delta, radius, 0, 0), 2.0 * b)
    bq = GaussianBump((0, 0, 0, 0), 2.0 * b)
    assert abs(pair_value(kind, bp, bq) - reference) <= 1e-14 * max(1.0, abs(reference))


@pytest.mark.parametrize("b, delta, radius, reference", LIGHTCONE_TAIL_REFERENCES)
def test_lightcone_spacelike_tail_is_relatively_accurate(b, delta, radius, reference):
    value = _pair_integral(KernelKind.LIGHTCONE, b, delta, radius)
    assert abs(value - reference) <= 1e-12 * reference


def test_causal_keeps_the_time_orientation_of_wide_bumps(cfg):
    """sign C = sign delta for 300 seeded pairs of equal widths from 1e-150 to 1.

    Centers are standard normal, so s (R + delta) runs from below 1e-75 to
    a few.  Where both erfc arguments are tiny the erfc step rounded to 0
    and the slope alone gave the sign, negated.
    """
    rng = np.random.default_rng(88)
    for _ in range(300):
        width = 10.0 ** float(rng.uniform(-150.0, 0.0))
        p, q = rng.normal(size=(2, 4)).tolist()
        value = causal(GaussianBump(p, width), GaussianBump(q, width), cfg).value
        assert value != 0.0 and math.copysign(1.0, value) == math.copysign(1.0, p[0] - q[0]), (width, p, q)


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
        # the relative time has variance 1/(2b): the log moment at 2b, s = sqrt(b)
        s = math.sqrt(b)
        time_average = np.array([_lambda_f(delta - ri, s, 2.0 * b)[0] + _lambda_f(delta + ri, s, 2.0 * b)[0] for ri in r.tolist()])
    return math.sqrt(b / math.pi) * float(weights @ (radial * time_average))


@pytest.mark.parametrize("kind", [KernelKind.LIGHTCONE, KernelKind.LOGABS], ids=lambda k: k.name.lower())
def test_pair_integral_matches_dense_radial_rule(kind):
    rng = np.random.default_rng(83)
    n = 100
    b = 10.0 ** rng.uniform(-2.0, 8.0, n)
    scale = 1.0 / np.sqrt(b)
    delta = scale * np.abs(rng.normal(size=n)) * 10.0 ** rng.uniform(-1.0, 1.0, n)
    radius = scale * 10.0 ** rng.uniform(-2.0, 1.0, n)
    radius[::10] = 0.0
    near_null = slice(5, None, 10)
    radius[near_null] = delta[near_null] * (1.0 + 1e-3 * rng.normal(size=10))
    for args in zip(b.tolist(), delta.tolist(), radius.tolist()):
        value = _pair_integral(kind, *args)
        reference = _dense_radial_rule(kind, *args)
        assert abs(value - reference) <= 1e-13 * max(1.0, abs(reference)), args


def test_lightcone_coincident_times_vanishes():
    assert pair_value(KernelKind.LIGHTCONE, GaussianBump((0, 1, 0, 0), 100.0), GaussianBump((0, 0, 0, 0), 100.0)) == 0.0


def test_lightcone_sharp_localization():
    bp = GaussianBump((1, 0, 0, 0), 1e4)
    bq = GaussianBump((0, 0, 0, 0), 1e4)
    value = pair_value(KernelKind.LIGHTCONE, bp, bq)
    assert value == pytest.approx(1.0, abs=1e-3)
    assert pair_value(KernelKind.LIGHTCONE, bq, bp) == -value


def test_lightcone_swap_antisymmetry_is_exact():
    rng = np.random.default_rng(17)
    for _ in range(30):
        bp, bq = random_bump(rng), random_bump(rng)
        assert pair_value(KernelKind.LIGHTCONE, bp, bq) == -pair_value(KernelKind.LIGHTCONE, bq, bp)


@pytest.mark.parametrize("kind", [KernelKind.LOGABS, KernelKind.LIGHTCONE])
def test_a_pair_integral_that_is_not_finite_raises(kind, cfg):
    """Time centers at -+1e308 overflow delta to inf, which makes the pair
    integral nan; a form that reads it must be an error, not a converged
    result."""
    bp, bq = GaussianBump((1e308, 0, 0, 0), 1.0), GaussianBump((-1e308, 0, 0, 0), 1.0)
    with pytest.raises(ValueError, match=f"the {kind.value} form is not finite: nan"):
        bilinear_form(kind, scalar_smearing(bp), scalar_smearing(bq), ETA, cfg)


@pytest.mark.parametrize("kind", [KernelKind.LOGABS, KernelKind.LIGHTCONE])
def test_a_zero_coefficient_reads_its_pair_integral_too(kind, cfg):
    """Every pair of a form is a product, so a pair of e0 and e1, whose
    coefficient under eta is 0, at time centers -+1e308 is 0 times nan: the
    form is not finite and raises, as it does for a nonzero coefficient and
    as the table does for a spatial separation that overflows."""
    f = single_term((1, 0, 0, 0), GaussianBump((1e308, 0, 0, 0), 1.0))
    g = single_term((0, 1, 0, 0), GaussianBump((-1e308, 0, 0, 0), 1.0))
    with pytest.raises(ValueError, match=f"the {kind.value} form is not finite: nan"):
        bilinear_form(kind, f, g, ETA, cfg)


def test_logabs_swap_symmetry_is_exact():
    rng = np.random.default_rng(18)
    for _ in range(10):
        bp, bq = random_bump(rng), random_bump(rng)
        assert pair_value(KernelKind.LOGABS, bp, bq) == pair_value(KernelKind.LOGABS, bq, bp)


def test_kernel_table_reads_every_row_pair_bit_for_bit():
    """Rows match on center and width together; repeats share one distinct bump.

    The rows come in blocks, an empty one among them, and each block gets
    its own indices into the one table.  No blocks give empty tables.  Each
    entry equals the one-pair value on floats, the sign of a zero included,
    also for time components +0.0 and -0.0 (delta = -0.0), coincident bumps
    across the width range (closed log pairs of b from 5e-151 to 5e149),
    delta < 0, log pairs whose three log moments, at delta - R, delta + R
    and delta, are all near (|mu| / sigma < 9), all far or mixed, and a
    light-cone pair that underflows to +0.0, whose swap the one-pair fold
    negates to -0.0.
    """
    rng = np.random.default_rng(19)
    base = [random_bump(rng) for _ in range(3)]
    same_center = GaussianBump(base[0].center, 2.0 * base[0].width)
    same_width = GaussianBump(base[1].center.components[::-1], base[1].width)
    bumps = [base[0], same_center, base[1], base[0], same_width, base[2], base[1]]
    signed_zeros = [GaussianBump((0.0, 0.1, 0, 0), 30.0), GaussianBump((-0.0, 0.2, 0, 0), 40.0)]
    assert math.copysign(1.0, _bump_geometry(*signed_zeros[::-1])[1]) == -1.0
    coincident = [GaussianBump((0.3, -0.2, 0.1, 0), width) for width in (1e-150, 1e-20, 1.0, 1e20, 1e150)]
    later = [GaussianBump((t, 0.1, -0.1, 0), 50.0) for t in (0.5, 1.0, 2.0)]
    # combined width b = 1, so sigma = 1: (delta, R) all near, all far, mixed
    origin = GaussianBump((0, 0, 0, 0), 2.0)
    moments = [GaussianBump((delta, R, 0, 0), 2.0) for delta, R in ((0.5, 0.3), (30.0, 10.0), (10.0, 9.5))] + [origin]
    # b = 50, delta = 0.001, R = 30: the light-cone value underflows to +0.0
    underflow = [GaussianBump((0.001, 30, 0, 0), 100.0), GaussianBump((0, 0, 0, 0), 100.0)]
    kinds = (KernelKind.LOGABS, KernelKind.LIGHTCONE)
    blocks = [bumps[:2], [], bumps[2:5], bumps[5:], signed_zeros, coincident, later, moments, underflow]
    indices, tables = _kernel_table([bump_rows(block) for block in blocks], kinds)
    assert indices[:4] == [[0, 1], [], [2, 0, 3], [4, 2]]
    bumps = [bump for block in blocks for bump in block]
    index = [i for block in indices for i in block]
    for kind, table in zip(kinds, tables):
        assert table.shape == (21, 21)
        for p, bp in enumerate(bumps):
            for q, bq in enumerate(bumps):
                entry, value = table[index[p], index[q]], pair_value(kind, bp, bq)
                assert entry == value and math.copysign(1.0, entry) == math.copysign(1.0, value)
    # the underflowing pair: the upper triangle holds +0.0, and the mirrored
    # entry the one-pair fold of the swapped pair, -(+0.0) = -0.0
    ahead, behind = index[-2:]
    assert ahead < behind
    lightcone = tables[1]
    assert math.copysign(1.0, lightcone[ahead, behind]) == 1.0 and lightcone[ahead, behind] == 0.0
    assert math.copysign(1.0, lightcone[behind, ahead]) == -1.0 and lightcone[behind, ahead] == 0.0
    indices, tables = _kernel_table([], kinds)
    assert indices == [] and [table.shape for table in tables] == [(0, 0), (0, 0)]


def test_kernel_table_of_signed_zero_twins_reads_every_pair_bit_for_bit():
    """A bump and its twin with a zero coordinate's sign flipped match on value and share a slot.

    Paired with any bump, the twins give the same b and R and the same
    delta or +-0.0, so every entry is still the one-pair value of its two
    bumps, the sign of a zero included.
    """
    rng = np.random.default_rng(21)
    bumps = []
    for k in range(8):
        center = rng.normal(size=4)
        center[rng.permutation(4)[: 1 + k % 3]] = 0.0
        twin = [-0.0 if x == 0.0 else float(x) for x in center]
        width = float(rng.uniform(5.0, 50.0))
        bumps += [GaussianBump(center.tolist(), width), GaussianBump(twin, width)]
    kinds = (KernelKind.LOGABS, KernelKind.LIGHTCONE)
    (index,), tables = _kernel_table([bump_rows(bumps)], kinds)
    for kind, table in zip(kinds, tables):
        for p, bp in enumerate(bumps):
            for q, bq in enumerate(bumps):
                entry, value = table[index[p], index[q]], pair_value(kind, bp, bq)
                assert entry == value and math.copysign(1.0, entry) == math.copysign(1.0, value)


def test_pair_geometry_radius_is_the_explicit_sum():
    """R is sqrt(d1 d1 + d2 d2 + d3 d3) summed left to right, as on floats, whichever row is first.

    A BLAS dot product, which the host's kernel selects, rounds some of
    these sums differently.  Swapping the rows keeps b and R bit for bit and
    negates delta; a separation too large to square gives R = inf.
    """
    rng = np.random.default_rng(85)
    n = 2000
    centers = rng.normal(size=(2, n, 4)) * 10.0 ** rng.uniform(-3.0, 3.0, (2, n, 1))
    p, q = np.concatenate([centers, rng.uniform(1.0, 1e4, (2, n, 1))], axis=2)
    for row_p, row_q in zip(p.tolist(), q.tolist()):
        (t_p, x_p, y_p, z_p, a_p), (t_q, x_q, y_q, z_q, a_q) = row_p, row_q
        d1, d2, d3 = x_p - x_q, y_p - y_q, z_p - z_q
        expected = (a_p * a_q / (a_p + a_q), t_p - t_q, math.sqrt(d1 * d1 + d2 * d2 + d3 * d3))
        assert _geometry(row_p, row_q) == expected
        b, delta, radius = _geometry(row_q, row_p)
        assert (b, -delta, radius) == expected
    assert _geometry([0.0, 1e200, 0.0, 0.0, 1.0], [0.0, -1e200, 0.0, 0.0, 1.0])[2] == math.inf


@pytest.mark.parametrize("sigma", [0.3, 1.0, 7.0])
def test_log_moment_joins_at_every_piece_edge(sigma):
    """The sides of each edge of the Chebyshev pieces and of the near/far cut join.

    About each edge y = k CUT / 8, k = 0..8, of either sign, mu runs over
    the nine floats from four ulps below to four above y / s, s = sqrt(b/2), so
    the piece (k >= 1) or branch (k = 8) of |y| changes within the run.
    Neighbours one ulp apart differ by less than 1e-15 max(1, |v|).
    """
    pieces = len(LOG_MOMENT)
    b = 1.0 / (sigma * sigma)
    s = math.sqrt(0.5 * b)
    for k, sign in itertools.product(range(pieces + 1), (1.0, -1.0)):
        mu = [sign * k * CUT / pieces / s]
        for _ in range(4):
            mu = [math.nextafter(mu[0], -math.inf), *mu, math.nextafter(mu[-1], math.inf)]
        y = np.abs(np.array(mu) * s)
        below = y < CUT if k == pieces else y * (pieces / CUT) < k
        assert k == 0 or 0 < below.sum() < len(mu)
        for values in zip(*(_lambda_f(m, s, b) for m in mu)):
            for left, right in zip(values, values[1:]):
                assert abs(left - right) <= 1e-15 * max(1.0, abs(left))


def test_logabs_pairs_are_even_in_delta():
    """4000 seeded pairs give the closed form at |delta| bit for bit, at either sign of delta.

    The sweep spans the Taylor and the direct quotient, the near and the far
    log moment, R = 0 and delta = 0; it ends with the pair whose delta - R
    sits at -8.999 sigma, sigma = 1/sqrt(b) ~ 0.3, next to a near pair.
    The memo is cleared before each sign, so every pair evaluates afresh.
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
    # no pair has delta = R = 0, so none takes the self pair's shortcut
    closed_forms = [_logabs_pair(*pair) for pair in zip(b.tolist(), delta.tolist(), radius.tolist())]
    for sign in (1.0, -1.0):
        _pair_cached.cache_clear()
        assert pair_values(KernelKind.LOGABS, b, sign * delta, radius).tolist() == closed_forms
    # the closed self pair, at either zero
    b_0 = float(b[0])
    closed = [_pair_integral(KernelKind.LOGABS, b_0, zero, 0.0) for zero in (0.0, -0.0)]
    assert closed == [1.0 - EULER_GAMMA - math.log(2.0 * b_0)] * 2


@pytest.mark.parametrize("delta, radius, moments", [(0.03, 0.02, 2), (0.05, 0.045, 2), (0.001, 0.002, 3), (0.1, 1e-4, 3)])
def test_a_log_pair_evaluates_only_the_moments_its_quotient_reads(monkeypatch, delta, radius, moments):
    """A direct-quotient pair evaluates L and F at delta -+ R, two moments; a
    Taylor pair adds F at delta, three.  Near and far moments both count, on
    the one-pair route and in the kernel table of two bumps, whose self
    pairs are closed forms, and both give the same bits; a repeated pair
    is served by the memo and evaluates none."""
    b = 1e4
    rows = []
    lambda_f = _lambda_f

    def counting(mu, *args):
        rows.append(mu)
        return lambda_f(mu, *args)

    monkeypatch.setattr("ncmink.pair._lambda_f", counting)
    # two bumps of width 2b have combined width b
    bumps = [GaussianBump((delta, radius, 0, 0), 2.0 * b), GaussianBump((0, 0, 0, 0), 2.0 * b)]
    _pair_cached.cache_clear()
    _, (table,) = _kernel_table([bump_rows(bumps)], (KernelKind.LOGABS,))
    assert len(rows) == moments
    rows.clear()
    _pair_cached.cache_clear()
    assert _pair_integral(KernelKind.LOGABS, b, delta, radius) == table[0, 1]
    assert len(rows) == moments
    rows.clear()
    assert _pair_integral(KernelKind.LOGABS, b, delta, radius) == table[0, 1]
    assert rows == []


@pytest.mark.parametrize(
    "kind, pair, odd", [(KernelKind.LIGHTCONE, _lightcone_pair, True), (KernelKind.LOGABS, _logabs_pair, False)], ids=["lightcone", "logabs"]
)
def test_the_memo_serves_a_repeated_key(kind, pair, odd):
    """Repeated and sign-flipped copies of three pairs, one after another:
    three misses, each copy its pair's bits, negated for the odd light cone."""
    b = np.array([2.0, 50.0, 1e4])
    delta = np.array([0.3, 1.0, 0.02])
    radius = np.array([0.1, 0.5, 0.0])
    copies = [0, 1, 2, 0, 2, 1, 1, 0, 2]
    signs = np.array([1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0])
    _pair_cached.cache_clear()
    values = pair_values(kind, b[copies], signs * delta[copies], radius[copies])
    assert _pair_cached.cache_info().misses == 3
    alone = [pair(*p) for p in zip(b.tolist(), delta.tolist(), radius.tolist())]
    assert all(value != 0.0 for value in alone)
    assert values.tolist() == [-alone[k] if odd and sign < 0.0 else alone[k] for k, sign in zip(copies, signs)]


def test_lightcone_kernel_table_is_exactly_antisymmetric():
    """The mirrored LIGHTCONE table is -K^T bit for bit, with +0.0 wherever the time centers coincide."""
    rng = np.random.default_rng(20)
    bumps = [random_bump(rng) for _ in range(8)]
    bumps.append(GaussianBump((bumps[0].center.components[0], *rng.normal(size=3)), 30.0))
    bumps.append(GaussianBump(bumps[1].center, 70.0))
    (index,), (table,) = _kernel_table([bump_rows(bumps)], (KernelKind.LIGHTCONE,))
    assert index == list(range(len(bumps)))
    assert (table == -table.T).all()
    times = np.array([bump.center.components[0] for bump in bumps])
    coincident = times[:, None] == times[None, :]
    assert coincident.sum() == len(bumps) + 4
    assert (table[coincident] == 0.0).all() and not np.signbit(table[coincident]).any()


@pytest.mark.parametrize("width", [10.0, 1e2, 1e4])
def test_logabs_self_pair_scaling_identity(width):
    """Self pair + ln(width) is width-independent: the scaling map is exact.

    The constant 1-gamma was frozen from two independent oracles: 30-digit
    adaptive quadrature of the reduced 2D integral (mpmath) and a 4e6-sample
    Monte Carlo of the defining double integral; the difference-profile
    quadratic form inherits twice this value.
    """
    bump = GaussianBump((0.3, -0.2, 0.1, 0.0), width)
    value = pair_value(KernelKind.LOGABS, bump, bump)
    assert value + math.log(width) == pytest.approx(
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


@pytest.mark.parametrize("form", [bilinear_form, mc_oracle], ids=["bilinear_form", "mc_oracle"])
def test_bilinear_rejects_asymmetric_contraction(form, cfg):
    """The two entries that take a contraction from outside the package check it."""
    f = scalar_smearing(GaussianBump((0, 0, 0, 0), 4.0))
    bad = np.eye(4)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric 4x4"):
        form(KernelKind.CONSTANT, f, f, bad, cfg)


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


def _drawn_block(kind, table, seed, block, n):
    """A block that draws its n pair uniforms whatever the table: the uniforms, then the normals."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))
    coeff, cdf, shift, scale = table
    k = np.searchsorted(cdf, rng.random(n), side="right")
    y = rng.standard_normal((n, 4))
    y *= scale.take(k)[:, None]
    y += shift.take(k, axis=0)
    vals = coeff.take(k) * (np.ones(n) if kind is KernelKind.CONSTANT else _kernel_values(kind, y))
    return float(vals.sum()), float((vals * vals).sum())


@pytest.mark.parametrize("kind", list(KernelKind))
def test_a_one_pair_block_skips_exactly_its_uniforms(kind):
    """Philox makes 4 words per counter step and a uniform takes one, so block
    sizes that are not a multiple of 4 end inside a step; the skip must leave
    the stream there too, and the normals and sums stay those of the draw."""
    f = scalar_smearing(GaussianBump((0.4, 0.1, -0.2, 0.0), 30.0))
    g = scalar_smearing(GaussianBump((0.0, 0.3, 0.0, 0.1), 55.0))
    table = _pair_table(f, g, I4)
    assert len(table[1]) == 1
    for n in (1, 2, 3, 4, 1809, 8192):
        assert _mc_block(kind, table, 2**63 + 5, 7, n) == _drawn_block(kind, table, 2**63 + 5, 7, n)
    # 10_001 samples: one full block and a last block of 1809
    cfg = QuadratureConfig(mc_samples=10_001, seed=91)
    one, two = (mc_oracle(kind, f, g, I4, cfg, workers=workers) for workers in (1, 2))
    assert (one.value, one.error_estimate) == (two.value, two.error_estimate)
    sums = [_drawn_block(kind, table, 91, block, n)[0] for block, n in enumerate((8192, 1809))]
    assert one.value == float(np.sum(sums)) / 10_001


def _mixture(rows):
    return VectorSmearing([((1, 0, 0, 0), GaussianBump(c, a), w) for c, a, w in rows])


def _two_by_three():
    """2 x 3 terms of mixed sign with widths 8 to 120."""
    f = _mixture([((0.3, 0.1, 0.0, 0.0), 8.0, 1.0), ((0.0, 0.2, 0.1, 0.0), 120.0, -0.6)])
    g = _mixture(
        [
            ((0.0, 0.0, 0.0, 0.0), 15.0, 0.8),
            ((0.1, 0.3, 0.0, 0.1), 60.0, -1.2),
            ((-0.2, 0.0, 0.1, 0.0), 30.0, 0.5),
        ]
    )
    return f, g


@pytest.mark.parametrize("kind", list(KernelKind))
def test_a_multi_pair_block_sums_what_the_draw_gives(kind):
    """A constant-kernel block draws its pair uniforms but no normals; its
    sums must still be those of the block that draws both, and the estimate
    with a partial last block must not depend on the worker count."""
    f, g = _two_by_three()
    table = _pair_table(f, g, I4)
    assert len(table[1]) == 6
    for n in (1, 2, 3, 4, 1809, 8192):
        assert _mc_block(kind, table, 2**63 + 5, 7, n) == _drawn_block(kind, table, 2**63 + 5, 7, n)
    cfg = QuadratureConfig(mc_samples=10_001, seed=91)
    one, two = (mc_oracle(kind, f, g, I4, cfg, workers=workers) for workers in (1, 2))
    assert (one.value, one.error_estimate, one.evals) == (two.value, two.error_estimate, two.evals)
    sums = [_drawn_block(kind, table, 91, block, n)[0] for block, n in enumerate((8192, 1809))]
    assert one.value == float(np.sum(sums)) / 10_001


def test_the_constant_kernel_reads_no_displacement(monkeypatch):
    """The constant kernel's values do not depend on y, so its blocks must
    not evaluate the kernel on drawn displacements at all."""
    reads = []

    def guarded(kind, y):
        if kind is KernelKind.CONSTANT:
            raise AssertionError("the constant kernel was evaluated on drawn displacements")
        reads.append(kind)
        return _kernel_values(kind, y)

    monkeypatch.setattr("ncmink.integrate._kernel_values", guarded)
    cfg = QuadratureConfig(mc_samples=10_001, seed=91)
    one_pair = (
        scalar_smearing(GaussianBump((0.4, 0.1, -0.2, 0.0), 30.0)),
        scalar_smearing(GaussianBump((0.0, 0.3, 0.0, 0.1), 55.0), -2.0),
    )
    for f, g in (one_pair, _two_by_three()):
        r = mc_oracle(KernelKind.CONSTANT, f, g, I4, cfg)
        assert r.evals == 10_001 and r.method is Method.MC8D
        assert abs(r.value - bilinear_form(KernelKind.CONSTANT, f, g, I4, cfg).value) <= 2.0 * r.error_estimate
    mc_oracle(KernelKind.LOGABS, *one_pair, I4, cfg)
    assert reads == [KernelKind.LOGABS, KernelKind.LOGABS]


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
    f, g = _two_by_three()
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
    value = _logabs_pair(b, 0.0, 0.0)
    expected = 1.0 - EULER_GAMMA - math.log(2.0 * b)
    assert abs(value - expected) <= 1e-14 * max(1.0, abs(expected))


def test_logabs_self_pair_is_analytic():
    bump = GaussianBump((0.3, -0.2, 0.1, 0.0), 40.0)
    assert pair_value(KernelKind.LOGABS, bump, bump) == 1.0 - EULER_GAMMA - math.log(40.0)


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


def _term_by_term_form(kind, f, g, contraction):
    value = 0.0
    for tf in f.terms:
        for tg in g.terms:
            coef = tf.weight * tg.weight * float(np.array(tf.covector) @ contraction @ tg.covector)
            if coef != 0.0:
                value += coef * pair_value(kind, tf.bump, tg.bump)
    return value


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
            reference = _term_by_term_form(kind, a, b, contraction)
            scale = sum(
                abs(ta.weight * tb.weight) * np.abs(ta.covector) @ np.abs(tb.covector)
                for ta in a.terms
                for tb in b.terms
            )
            assert abs(form.value - reference) <= 1e-13 * scale
            assert form.converged
            assert form.evals == 0
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
            expected = math.fsum(coef * pair_values(kind, bb, delta, R))
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
    # a float count would fail in range(); a float or bool seed would be
    # truncated into seed 7's or seed 1's stream
    for bad in ({"mc_samples": 2e4}, {"mc_samples": True}, {"seed": 7.5}, {"seed": True}, {"seed": "7"}):
        with pytest.raises(ValueError, match="must be an integer"):
            QuadratureConfig(**bad)
    assert QuadratureConfig(mc_samples=np.int64(20_000), seed=np.uint64(7)).seed == 7
    # nan < 1 is False: a NaN budget would pass a < test, and evals >= nan
    # would never stop the refinement
    with pytest.raises(ValueError, match="max_evals"):
        QuadratureConfig(max_evals=float("nan"))
    assert QuadratureConfig(max_evals=1e6).max_evals == 1e6


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
