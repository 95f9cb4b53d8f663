import math

import numpy as np
import pytest

from ncmink import (
    DEFAULT_FRAME,
    ETA,
    FourCovector,
    Frame,
    PhysicalConstants,
    SpacetimePoint,
    krein_covector_map,
    krein_matrix,
    minkowski_interval,
    synge,
)
from ncmink.minkowski import as_components, validate_unit_timelike


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
    with pytest.raises(ValueError, match=message):
        FourCovector(value)


def test_as_components_plain_tuples_become_floats():
    comps = as_components((1, np.float64(2.5), 3.0, -0))
    assert comps == (1.0, 2.5, 3.0, 0.0)
    assert all(type(c) is float for c in comps)


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


def test_default_frame_identity():
    basis = np.array([c.components for c in DEFAULT_FRAME.covectors])
    total = 0.0
    for a in range(4):
        for b in range(4):
            eta_ab = ETA[a, b]
            total += eta_ab * basis[a] @ ETA @ basis[b]
    assert total == 4.0


def test_frame_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        Frame(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 1, 1)))


def test_frame_needs_four_covectors():
    with pytest.raises(ValueError, match="four covectors"):
        Frame(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)))


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
