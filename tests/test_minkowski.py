import math
import warnings

import numpy as np
import pytest

from ncmink import (
    ETA,
    DMStateParams,
    PhysicalConstants,
    GaussianBump,
    SpacetimePoint,
    frame_smearings,
    krein_covector_map,
    krein_matrix,
    minkowski_interval,
    synge,
)
from ncmink.minkowski import as_components, validate_unit_timelike
from ncmink.testfn import contract


@pytest.mark.parametrize(
    "p, q, expected",
    [
        ((1, 0, 0, 0), (0, 0, 0, 0), -1.0),
        ((0, 1, 0, 0), (0, 0, 0, 0), 1.0),
        ((1, 1, 0, 0), (0, 0, 0, 0), 0.0),
    ],
)
def test_interval_examples(p, q, expected):
    assert minkowski_interval(p, q) == expected


@pytest.mark.parametrize(
    "p, q, expected",
    [
        ((2, 0, 0, 0), (0, 0, 0, 0), -2.0),
        ((1, 2, 3, 4), (1, 2, 3, 4), 0.0),
        ((0, 2, 0, 0), (0, 0, 0, 0), 2.0),
    ],
)
def test_synge_examples(p, q, expected):
    assert synge(p, q) == expected


def test_interval_symmetry_and_translation_invariance():
    rng = np.random.default_rng(42)
    for _ in range(200):
        p, q, shift = rng.normal(size=(3, 4))
        assert minkowski_interval(p, q) == minkowski_interval(q, p)
        assert minkowski_interval(p + shift, q + shift) == pytest.approx(
            minkowski_interval(p, q), abs=1e-12
        )


def test_interval_is_the_float_expression_and_overflows_without_a_warning():
    """The interval keeps the bits of the numpy scalar expression in the same
    order, and past the float range it is inf or nan, with no warning."""
    rng = np.random.default_rng(7)
    for p, q in rng.normal(scale=10.0, size=(500, 2, 4)):
        d = p - q
        expected = float(-d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + d[3] * d[3])
        assert minkowski_interval(p, q).hex() == expected.hex()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert minkowski_interval((1e200, 0, 0, 0), (0, 0, 0, 0)) == -math.inf
        assert math.isnan(minkowski_interval((1e200, 1e200, 0, 0), (0, 0, 0, 0)))


def test_point_rejects_bad_input():
    with pytest.raises(ValueError):
        SpacetimePoint((1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        SpacetimePoint((1.0, float("nan"), 0.0, 0.0))


@pytest.mark.parametrize(
    "value, message",
    [
        ((1.0, 2.0, 3.0), "needs exactly 4 components"),
        ((1, 2, 3), "needs exactly 4 components"),
        ((1.0, float("nan"), 0.0, 0.0), "has non-finite entries"),
        ((0.0, 0.0, float("inf"), 0.0), "has non-finite entries"),
        ((np.float64(-np.inf), 0.0, 0.0, 1), "has non-finite entries"),
    ],
)
def test_as_components_rejects_bad_tuples(value, message):
    with pytest.raises(ValueError, match=f"covector {message}"):
        as_components(value, "covector")


def test_as_components_plain_tuples_become_floats():
    comps = as_components((1, np.float64(2.5), 3.0, -0))
    assert comps == (1.0, 2.5, 3.0, 0.0)
    assert all(type(c) is float for c in comps)


def test_as_components_converts_as_numpy_does():
    """Tuples, lists and 1-D arrays of floats, numpy scalars, ints and bools
    give the floats of numpy's conversion to float64, bit for bit."""
    rng = np.random.default_rng(41)
    kinds = (
        lambda x: float(x),
        lambda x: np.float64(x),
        lambda x: np.float32(x),
        lambda x: int(x * 1e6),
        # past 2^53: the conversion rounds
        lambda x: int(x * 1e15),
        lambda x: np.int64(x * 1e12),
        lambda x: bool(x > 0.0),
        lambda x: np.bool_(x > 0.0),
    )
    for _ in range(200):
        entries = [kinds[k](x) for k, x in zip(rng.integers(len(kinds), size=4), rng.normal(scale=1e3, size=4))]
        # the last is a 1-D array of the first entry's dtype: int, bool or float32
        for value in (tuple(entries), entries, np.asarray(entries, dtype=float), np.asarray(entries[:1] * 4)):
            comps = as_components(value, "covector")
            assert [c.hex() for c in comps] == [c.hex() for c in np.asarray(value, dtype=float).tolist()]
            assert all(type(c) is float for c in comps)


@pytest.mark.parametrize(
    "value, message",
    [
        ("1234", "needs exactly 4 components"),
        (b"1234", "needs exactly 4 components"),
        (1.0, "needs exactly 4 components"),
        (np.float64(1.0), "needs exactly 4 components"),
        (np.array(1.0), "needs exactly 4 components"),
        ([[1.0, 2.0], [3.0, 4.0]], "needs exactly 4 components"),
        (((1.0,), (2.0,), (3.0,), (4.0,)), "needs exactly 4 components"),
        (np.zeros((2, 2)), "needs exactly 4 components"),
        (np.zeros((1, 4)), "needs exactly 4 components"),
        ([], "needs exactly 4 components"),
        ((1.0, 2.0, 3.0, 4.0, 5.0), "needs exactly 4 components"),
        (np.zeros(5), "needs exactly 4 components"),
        ([0.0, 0.0, 0.0, float("-inf")], "has non-finite entries"),
        (np.array([0.0, np.nan, 0.0, 0.0]), "has non-finite entries"),
    ],
)
def test_as_components_rejects_what_is_not_four_finite_numbers(value, message):
    """A string is not read character by character, nor a nested sequence flattened."""
    with pytest.raises(ValueError, match=f"^covector {message}"):
        as_components(value, "covector")


def test_krein_matrix_rest_frame():
    assert np.array_equal(krein_matrix((1, 0, 0, 0)), np.eye(4))


def test_krein_matrix_boosted_positive_definite():
    beta = 1.0
    u = (math.cosh(beta), math.sinh(beta), 0.0, 0.0)
    eigs = np.linalg.eigvalsh(krein_matrix(u))
    assert np.all(eigs > 0.0)


def test_krein_involution_property():
    rng = np.random.default_rng(3)
    for _ in range(20):
        boost = rng.normal(scale=0.8, size=3)
        u = np.concatenate([[math.sqrt(1.0 + boost @ boost)], boost])
        j = krein_covector_map(u)
        assert np.allclose(j @ j, np.eye(4), atol=1e-12)
        # mixed-index map and the upper-index matrix agree through eta
        assert np.allclose(ETA @ j, krein_matrix(u), atol=1e-12)


def test_krein_matrix_dominates_eta():
    rng = np.random.default_rng(11)
    boost = np.array([0.3, -0.5, 0.2])
    u = np.concatenate([[math.sqrt(1.0 + boost @ boost)], boost])
    k = krein_matrix(u)
    for _ in range(1000):
        alpha = rng.normal(size=4)
        assert alpha @ k @ alpha >= abs(alpha @ ETA @ alpha) - 1e-12


def test_krein_matrix_rejects_bad_u():
    with pytest.raises(ValueError):
        krein_matrix((1.0, 1.0, 0.0, 0.0))  # null
    with pytest.raises(ValueError):
        krein_matrix((0.0, 1.0, 0.0, 0.0))  # spacelike
    with pytest.raises(ValueError):
        krein_matrix((2.0, 0.0, 0.0, 0.0))  # timelike but not unit
    validate_unit_timelike((1.0, 0.0, 0.0, 0.0))


def _boosted_u(rng, scale=0.8):
    boost = rng.normal(scale=scale, size=3).tolist()
    return (math.sqrt(1.0 + boost[0] * boost[0] + boost[1] * boost[1] + boost[2] * boost[2]), *boost)


def test_contract_is_the_left_to_right_sum():
    """Entry j of a row is ((r_0 m_0j + r_1 m_1j) + r_2 m_2j) + r_3 m_3j from +0.0, bit for bit.

    Checked on seeded rows spanning twelve decades under the Krein matrix
    of a boosted u, with one matrix for all rows and with one per row.
    """
    rng = np.random.default_rng(17)
    rows = rng.normal(size=(200, 4)) * 10.0 ** rng.uniform(-6.0, 6.0, size=(200, 4))
    rows[::7, 2] = 0.0
    matrices = np.array([krein_matrix(_boosted_u(rng)) for _ in range(200)])

    def by_hand(row, m):
        return [0.0 + row[0] * m[0][j] + row[1] * m[1][j] + row[2] * m[2][j] + row[3] * m[3][j] for j in range(4)]

    expected = np.array([by_hand(row, matrices[0].tolist()) for row in rows.tolist()])
    assert contract(rows, matrices[0]).tobytes() == expected.tobytes()
    expected = np.array([by_hand(row, m) for row, m in zip(rows.tolist(), matrices.tolist())])
    assert contract(rows, matrices).tobytes() == expected.tobytes()


def test_contract_of_a_row_does_not_depend_on_its_stack():
    """A row contracted alone, as a 1-row stack or among others gives the same bits."""
    rng = np.random.default_rng(19)
    rows = rng.normal(size=(64, 4)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(64, 4))
    m = krein_matrix(_boosted_u(rng))
    stacked = contract(rows, m)
    for k, row in enumerate(rows):
        assert contract(row, m).tobytes() == contract(rows[k : k + 1], m)[0].tobytes() == stacked[k].tobytes()
    # the dot products of two stacks, a column per row, are those of each pair
    dots = contract(stacked, rows[::-1, :, None])[:, 0]
    assert all(dots[k] == contract(stacked[k], rows[-1 - k][:, None])[0] for k in range(len(rows)))


def test_contract_with_eta_and_the_identity_is_exact():
    rng = np.random.default_rng(23)
    rows = rng.normal(size=(100, 4)) * 10.0 ** rng.uniform(-100.0, 100.0, size=(100, 4))
    assert np.array_equal(contract(rows, ETA), rows * [-1.0, 1.0, 1.0, 1.0])
    assert np.array_equal(contract(rows, np.eye(4)), rows)


def test_krein_covector_map_is_eta_times_the_krein_matrix_bit_for_bit():
    """J = eta K keeps the bits of delta + 2 u_lower u^T, signed zeros included."""
    rng = np.random.default_rng(29)
    for k in range(200):
        u = _boosted_u(rng, scale=10.0 ** rng.uniform(-3.0, 1.0))
        if k % 5 == 0:
            u = (math.sqrt(1.0 + u[1] * u[1]), u[1], 0.0, 0.0)
        u_lower = np.array([-u[0], *u[1:]])
        expected = np.eye(4) + 2.0 * np.outer(u_lower, u)
        assert krein_covector_map(u).tobytes() == expected.tobytes()


@pytest.mark.parametrize("u", [(1e200, 1e200, 0.0, 0.0), (1e155, 0.0, 1e155, 0.0), (1.0, 1e308, 1e308, 0.0)])
def test_a_u_whose_norm_overflows_is_rejected_without_a_warning(u):
    """eta(u, u) overflows to nan or inf; nan compares false with any bound, so
    a test written as norm - (-1) > tol would accept it."""
    chi = GaussianBump((0, 0, 0, 0), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (validate_unit_timelike, krein_matrix, krein_covector_map):
            with pytest.raises(ValueError, match="u must be unit timelike"):
                build(u)
        with pytest.raises(ValueError, match="u must be unit timelike"):
            DMStateParams(state_alpha=1.0, psi=chi, u=u)


def test_default_frame_identity():
    # the rest frame's unit covectors, as frame_smearings places them, are orthonormal
    chi = GaussianBump((0, 0, 0, 0), 1.0)
    basis = np.array([f.covectors[0] for f in frame_smearings(chi)])
    assert np.array_equal(basis @ ETA @ basis.T, ETA)
    total = 0.0
    for a in range(4):
        for b in range(4):
            eta_ab = ETA[a, b]
            total += eta_ab * basis[a] @ ETA @ basis[b]
    assert total == 4.0


def test_constants_linkage():
    c = PhysicalConstants()
    assert c.kappa_sq == pytest.approx(16.0 * math.pi)
    c2 = PhysicalConstants.from_kappa_sq(1.0)
    assert c2.kappa_sq == pytest.approx(1.0)
    assert PhysicalConstants(0.0).kappa_sq == 0.0
    with pytest.raises(ValueError):
        PhysicalConstants(-1.0)
    with pytest.raises(ValueError):
        PhysicalConstants.from_kappa_sq(-0.5)


@pytest.mark.parametrize("planck_length", [1e200, 1e154, 1.9e153, math.inf, math.nan, -1e-300])
def test_constants_reject_a_length_whose_kappa_sq_is_not_finite(planck_length):
    """1e200 squares past the float range, 1.9e153 squares inside it but 16 pi l^2 does not."""
    with pytest.raises(ValueError, match="^planck_length must be finite and non-negative"):
        PhysicalConstants(planck_length)
