import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import bump_pool, random_smearing, table_smearing
from test_state import composed_dm_bilinear, composed_magnitude
from ncmink import (
    DMStateParams,
    GaussianBump,
    KernelKind,
    PhysicalConstants,
    PositivityError,
    WeylCalculus,
    WeylElement,
    bilinear_form,
    frame_smearings,
    gram_check,
    krein_J,
    krein_matrix,
    moment1,
    mu2,
    sigma,
)
from ncmink import integrate, pair, state
from ncmink.testfn import single_term


@pytest.fixture(scope="module")
def calc(constants, cfg):
    return WeylCalculus(constants, cfg, pairing="krein")


def test_inverse_pair_gives_unit(calc):
    rng = np.random.default_rng(3)
    f = random_smearing(rng)
    product = calc.mul(WeylElement.generator(f), WeylElement.generator(-f))
    assert len(product.terms) == 1
    smearing, coeff = product.terms[0]
    assert smearing.is_zero()
    assert coeff == 1.0 + 0.0j


def test_unit_is_neutral(calc):
    rng = np.random.default_rng(5)
    g = WeylElement.generator(random_smearing(rng))
    assert calc.mul(WeylElement.unit(), g) == g
    assert calc.mul(g, WeylElement.unit()) == g


def test_spacelike_pair_commutes(cfg, constants):
    calc = WeylCalculus(constants, cfg, pairing="plain")
    f = single_term((1, 0.3, 0, 0), GaussianBump((0, 2.0, 0, 0), 900.0), 1.0)
    g = single_term((0.5, 1, 0, 0), GaussianBump((0.1, 0, 0, 0), 900.0), 1.0)
    product = calc.mul(WeylElement.generator(f), WeylElement.generator(g))
    phase = product.terms[0][1]
    assert abs(phase - 1.0) <= 1e-9


def test_star_involution():
    rng = np.random.default_rng(7)
    f, g = random_smearing(rng), random_smearing(rng)
    a = WeylElement.generator(f, 0.3 - 1.2j) + WeylElement.generator(g, 2.0j)
    assert a.star().star() == a
    assert WeylElement.unit().star() == WeylElement.unit()
    c = 1.5 - 0.5j
    starred = WeylElement.generator(f, c).star()
    assert starred.terms[0][0] == -f
    assert starred.terms[0][1] == c.conjugate()


def test_star_antimultiplicative(calc):
    rng = np.random.default_rng(11)
    a = WeylElement.generator(random_smearing(rng), 1.1 - 0.2j)
    b = WeylElement.generator(random_smearing(rng), 0.4 + 0.9j)
    left = calc.mul(a, b).star()
    right = calc.mul(b.star(), a.star())
    assert tuple(f for f, _ in left.terms) == tuple(f for f, _ in right.terms)
    for (_, cl), (_, cr) in zip(left.terms, right.terms):
        assert abs(cl - cr) <= 1e-12


def test_cocycle_associativity(calc):
    rng = np.random.default_rng(13)
    for _ in range(30):
        f, g, h = (random_smearing(rng) for _ in range(3))
        wf, wg, wh = (WeylElement.generator(x) for x in (f, g, h))
        left = calc.mul(calc.mul(wf, wg), wh)
        right = calc.mul(wf, calc.mul(wg, wh))
        assert tuple(x for x, _ in left.terms) == tuple(x for x, _ in right.terms)
        assert abs(left.terms[0][1] - right.terms[0][1]) <= 1e-12


def test_omega_normalization_and_modulus(calc, params):
    assert calc.eval_omega(WeylElement.unit(), params).value == 1.0 + 0.0j
    rng = np.random.default_rng(17)
    for _ in range(5):
        f = random_smearing(rng)
        value = calc.eval_omega(WeylElement.generator(f), params).value
        assert abs(value) <= 1.0 + 1e-12


def test_omega_positivity_on_squares(calc, params):
    rng = np.random.default_rng(19)
    pool = [random_smearing(rng) for _ in range(6)]
    for _ in range(10):
        picks = rng.choice(len(pool), size=3, replace=False)
        a = WeylElement.from_dict(
            {pool[k]: complex(rng.normal(), rng.normal()) for k in picks}
        )
        om = calc.eval_omega(calc.mul(calc.star(a), a), params)
        assert om.value.real >= -2.0 * om.error_estimate
        assert abs(om.value.imag) <= 2.0 * om.error_estimate + 1e-12


def test_tau_normalization_and_unbounded_modulus(calc, constants, cfg):
    params_large_alpha = DMStateParams(
        state_alpha=50.0,
        psi=GaussianBump((0.0, 3.0, 0.0, 0.0), 400.0),
        constants=constants,
    )
    assert calc.eval_tau(WeylElement.unit(), params_large_alpha).value == 1.0 + 0.0j
    # timelike mean with a large regulator drives Delta(f, f) negative
    f = single_term((1, 0, 0, 0), GaussianBump((0, 0, 0, 0), 400.0), 1.0)
    tau = calc.eval_tau(WeylElement.generator(f), params_large_alpha)
    assert abs(tau.value) > 1.0


def test_triple_product_phase_recovers_sigma(cfg, constants, params):
    """tau on W(f) W(g) W(-f-g) is the pure phase exp[-(i/2) sigma(f, g)]."""
    calc = WeylCalculus(constants, cfg, pairing="plain")
    rng = np.random.default_rng(23)
    for _ in range(5):
        f, g = random_smearing(rng), random_smearing(rng)
        triple = calc.mul(
            calc.mul(WeylElement.generator(f), WeylElement.generator(g)),
            WeylElement.generator(-(f + g)),
        )
        tau = calc.eval_tau(triple, params)
        s = sigma(f, g, constants, cfg)
        assert abs(cmath.phase(tau.value) - (-0.5 * s)) <= 1e-12
        assert abs(abs(tau.value) - 1.0) <= 1e-12


def test_classical_limit_is_pure_phase(cfg):
    constants0 = PhysicalConstants(0.0)
    params0 = DMStateParams(
        state_alpha=1.0, psi=GaussianBump((0, 0, 0, 0), 10.0), constants=constants0
    )
    calc0 = WeylCalculus(constants0, cfg, pairing="krein")
    rng = np.random.default_rng(29)
    for _ in range(5):
        f = random_smearing(rng)
        value = calc0.eval_omega(WeylElement.generator(f), params0).value
        assert value == cmath.exp(1j * moment1(f))


def test_shared_calculus_follows_the_state(cfg, constants, params):
    """One calculus evaluated under several states matches a fresh one per state."""
    rng = np.random.default_rng(37)
    a = WeylElement.generator(random_smearing(rng), 0.8) + WeylElement.generator(
        random_smearing(rng), -0.5j
    )
    element = WeylCalculus(constants, cfg).mul(a.star(), a)
    shared = WeylCalculus(constants, cfg)
    states = (
        params,
        replace(params, state_alpha=100.0),
        replace(params, constants=PhysicalConstants(planck_length=0.2)),
    )
    for state in states:
        fresh = WeylCalculus(constants, cfg).eval_omega(element, state)
        assert shared.eval_omega(element, state) == fresh


def test_pairing_flag_validation(cfg, constants):
    with pytest.raises(ValueError):
        WeylCalculus(constants, cfg, pairing="twisted")


def test_krein_pairing_halves_the_frame_contracted_sigma(cfg, constants):
    """Over the frame smearings, sum_a w_a s_krein(f_a, g_a) = 1/2 sum_a w_a s_plain(f_a, g_a)."""
    fs = frame_smearings(GaussianBump((1.0, 0.1, 0, 0), 80.0))
    gs = frame_smearings(GaussianBump((0, 0, 0, 0), 80.0))

    def contracted(pairing):
        calc = WeylCalculus(constants, cfg, pairing=pairing)
        return sum(w * calc._sigmas([f], [g])[0][0] for f, g, w in zip(fs, gs, (-1.0, 1.0, 1.0, 1.0)))

    plain = contracted("plain")
    assert plain != 0.0
    assert contracted("krein") == pytest.approx(0.5 * plain, rel=1e-12)


def test_sigma_value_is_antisymmetric_and_zero_on_the_diagonal(cfg, constants):
    rng = np.random.default_rng(41)
    for pairing in ("plain", "krein"):
        calc = WeylCalculus(constants, cfg, pairing=pairing)
        for _ in range(5):
            f, g = random_smearing(rng), random_smearing(rng)
            assert calc._sigmas([f], [g])[0][0] == -calc._sigmas([g], [f])[0][0]
            assert calc._sigmas([f], [f])[0][0] == 0.0


@pytest.mark.parametrize("pairing", ["plain", "krein"])
def test_zero_element_through_the_product(cfg, constants, params, pairing):
    """The empty element times anything is empty, and both functionals give it 0."""
    calc = WeylCalculus(constants, cfg, u=params.u, pairing=pairing)
    z = WeylElement.from_dict({})
    a = WeylElement.generator(random_smearing(np.random.default_rng(47)), 0.5j) + WeylElement.unit()
    for product in (calc.mul(z, z), calc.mul(z, a), calc.mul(a, z)):
        assert product.terms == ()
    assert calc.eval_omega(z, params).value == 0.0
    assert calc.eval_tau(z, params).value == 0.0


def test_from_dict_orders_terms_by_per_term_covector_center_width_weight():
    """Elements sort their smearings term by term on (covector, center, width, weight).

    Inside a smearing the terms sort by (center, width, covector), so the
    element order is not the smearing order of the first terms' bumps.
    """
    early, late = GaussianBump((-1, 0, 0, 0), 2.0), GaussianBump((1, 0, 0, 0), 2.0)
    wide = GaussianBump((-1, 0, 0, 0), 3.0)
    expected = [
        single_term((0, 1, 0, 0), late, 1.0),  # covector first: (0, 1) before (1, 0)
        single_term((1, 0, 0, 0), early, 2.0),  # a prefix of the next one
        single_term((1, 0, 0, 0), early, 2.0) + single_term((1, 0, 0, 0), late, 1.0),
        single_term((1, 0, 0, 0), early, 2.0) + single_term((1, 0, 0, 0), late, 3.0),
        single_term((1, 0, 0, 0), early, 5.0),  # weight, before a second term
        single_term((1, 0, 0, 0), wide, -1.0),  # width
        single_term((1, 0, 0, 0), late, -2.0),  # center
    ]
    for shuffle in (expected[::-1], expected[2::3] + expected[::3] + expected[1::3]):
        element = WeylElement.from_dict({f: 1.0 + k for k, f in enumerate(shuffle)})
        assert [f for f, _ in element.terms] == expected


def test_scalar_multiple_and_difference(calc, params):
    """a - a has no terms; c a scales each coefficient by exactly c, 0 a has
    no terms, and omega(c a) is c omega(a) up to the rounding of its terms."""
    rng = np.random.default_rng(43)
    a = WeylElement.generator(random_smearing(rng), 0.3 - 1.2j) + WeylElement.generator(
        random_smearing(rng), 2.0j
    )
    assert (a - a).terms == ()
    assert (0 * a).terms == ()
    omega = calc.eval_omega(a, params).value
    # each term of omega has modulus at most its coefficient's
    bound = 1e-15 * math.fsum(abs(c) for _, c in a.terms)
    for scalar in (2, -0.7 + 1.3j):
        scaled = scalar * a
        assert [f for f, _ in scaled.terms] == [f for f, _ in a.terms]
        assert [c for _, c in scaled.terms] == [scalar * c for _, c in a.terms]
        assert abs(calc.eval_omega(scaled, params).value - scalar * omega) <= abs(scalar) * bound


# ---------------------------------------------------------------------------
# Products and omega read one kernel table per call; the references below
# evaluate each product phase and each second moment on its own.


def square_on_a_table_family(rng, psi):
    """a* a for a on four members over shared bumps, one member repeated.

    The members are scaled so that the second moments of a* a's terms
    span 1e-2 to 1e2 and every term of omega shows in the sum.
    """
    pool = bump_pool(rng, psi)
    family = [table_smearing(rng, pool).scaled(0.03) for _ in range(4)]
    family.append(family[1])
    a = WeylElement.from_dict({})
    for f in family:
        a = a + WeylElement.generator(f, complex(rng.normal(), rng.normal()))
    return a


def test_omega_after_the_gram_check_of_its_family_evaluates_no_log_moment(cfg, constants, params, monkeypatch):
    """The table of omega(a* a) holds the bumps of a's family and psi, whose
    gram_check has just evaluated every log pair among them, so the one
    pair memo serves all of its log pairs and no log moment is evaluated."""
    rng = np.random.default_rng(97)
    pool = bump_pool(rng, params.psi)
    family = [table_smearing(rng, pool) for _ in range(4)]
    a = WeylElement.from_dict({f: complex(rng.normal(), rng.normal()) for f in family})
    calc = WeylCalculus(constants, cfg, u=params.u)
    moments = []
    lambda_f = pair._lambda_f

    def counting(*args):
        moments.append(args)
        return lambda_f(*args)

    monkeypatch.setattr(pair, "_lambda_f", counting)
    integrate._pair_cached.cache_clear()
    gram_check(family, params, cfg)
    assert moments
    moments.clear()
    calc.eval_omega(calc.mul(calc.star(a), a), params)
    assert moments == []


def term_by_term_square(a, constants, cfg, u):
    """Coefficients of a* a from one bilinear_form sigma per term pair."""
    scale = -constants.kappa_sq / (8.0 * math.pi)
    coeffs = {}
    for f, alpha in a.star().terms:
        for g, beta in a.terms:
            s = 0.0 if f == g else scale * bilinear_form(KernelKind.LIGHTCONE, f, g, krein_matrix(u), cfg).value
            coeffs[f + g] = coeffs.get(f + g, 0.0) + alpha * beta * cmath.exp(-0.5j * s)
    return WeylElement.from_dict(coeffs)


def exact_sum(terms):
    """The sum of complex terms with the real and the imaginary parts each exactly rounded."""
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def test_omega_of_a_square_is_exactly_real_in_the_rest_frame(cfg, constants, params):
    # the +- terms of a* a are exact conjugates when u = (1, 0, 0, 0), so their
    # imaginary parts cancel exactly in an exactly rounded sum
    assert params.u == (1.0, 0.0, 0.0, 0.0)
    calc = WeylCalculus(constants, cfg, u=params.u)
    rng = np.random.default_rng(83)
    for _ in range(8):
        a = square_on_a_table_family(rng, params.psi)
        assert calc.eval_omega(calc.mul(calc.star(a), a), params).value.imag == 0.0


def test_omega_of_a_square_matches_per_term_evaluation_bit_for_bit(cfg, constants, params):
    assert params.u == (1.0, 0.0, 0.0, 0.0)
    calc = WeylCalculus(constants, cfg, u=params.u)
    rng = np.random.default_rng(89)
    for _ in range(8):
        a = square_on_a_table_family(rng, params.psi)
        product = calc.mul(calc.star(a), a)
        expected = term_by_term_square(a, constants, cfg, params.u)
        assert product == expected
        terms = [c * cmath.exp(1j * moment1(h) - 0.5 * mu2(h, h, params, cfg).real) for h, c in expected.terms]
        assert calc.eval_omega(product, params).value == exact_sum(terms)


def test_omega_of_a_square_matches_the_composition_in_a_boosted_frame(cfg, constants):
    boost = np.array([0.4, -0.2, 0.1])
    u = tuple(np.concatenate([[math.sqrt(1 + boost @ boost)], boost]))
    psi = GaussianBump((0.1, 0.0, 0.2, 0.0), 25.0)
    params = DMStateParams(state_alpha=1.0, psi=psi, constants=constants, u=u)
    calc = WeylCalculus(constants, cfg, u=u)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(97)
    for _ in range(4):
        a = square_on_a_table_family(rng, psi)
        product = calc.mul(calc.star(a), a)
        assert product == term_by_term_square(a, constants, cfg, u)
        terms, bound = [], 0.0
        for h, c in product.terms:
            jh = krein_J(h, u)
            terms.append(c * cmath.exp(1j * moment1(h) - 0.5 * composed_dm_bilinear(h, jh, params, cfg).real))
            # a second moment moves by at most 8 eps composed_magnitude (the
            # one-table boosted bound), its term by half that times |term|
            bound += abs(terms[-1]) * 0.5 * 8.0 * eps * composed_magnitude(h, jh, params)
        assert abs(calc.eval_omega(product, params).value - exact_sum(terms)) <= bound


@pytest.mark.parametrize(
    "value, message", [(-1e-3 + 0.0j, "negative beyond budget"), (0.5 + 1e-3j, "exceeds error budget")]
)
def test_omega_guards_every_second_moment(calc, params, monkeypatch, value, message):
    rng = np.random.default_rng(101)
    f, g = random_smearing(rng), random_smearing(rng)
    a = WeylElement.generator(f, 0.7) + WeylElement.generator(g, -0.2j)
    monkeypatch.setattr(state, "_two_point", lambda f, g, tables, params: value)
    with pytest.raises(PositivityError, match=message):
        calc.eval_omega(a, params)


def test_omega_gives_the_unit_term_exp_zero(calc, params, monkeypatch):
    rng = np.random.default_rng(103)
    f = random_smearing(rng)
    a = WeylElement.unit() + WeylElement.generator(f, 0.4 - 0.3j)
    # mu2(f, f) = 0.5; the unit term is not evaluated, so a bad value would not reach it
    monkeypatch.setattr(state, "_two_point", lambda f, g, tables, params: 0.5 + 0.0j)
    expected = 0.0j + 1.0 * cmath.exp(0.0j) + (0.4 - 0.3j) * cmath.exp(1j * moment1(f) - 0.25)
    assert calc.eval_omega(a, params).value == expected
    monkeypatch.setattr(state, "_two_point", lambda f, g, tables, params: -1.0 + 0.0j)
    assert calc.eval_omega(WeylElement.unit(), params).value == 1.0 + 0.0j
