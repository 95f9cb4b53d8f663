import json
import math

import numpy as np
import pytest

from ncmink import (
    DEFAULT_FRAME,
    GaussianBump,
    evaluate,
    frame_smearings,
    mean,
    moment1,
    smearing_from_json,
    smearing_to_json,
)
from ncmink.testfn import VectorSmearing, ZERO_SMEARING, project_psi, single_term


def test_bump_normalization_constant():
    bump = GaussianBump((0, 0, 0, 0), 3.0)
    assert bump.norm_constant == pytest.approx((3.0 / math.pi) ** 2)
    assert bump.profile(np.zeros(4)) == pytest.approx(bump.norm_constant)


def test_bump_mean_is_one():
    # analytic normalization against a numeric lattice integral
    bump = GaussianBump((0.2, -0.1, 0.0, 0.3), 4.0)
    xs = np.linspace(-2.5, 2.5, 41)
    grid = np.stack(np.meshgrid(*(xs,) * 4, indexing="ij"), axis=-1).reshape(-1, 4)
    total = bump.profile(grid).sum() * (xs[1] - xs[0]) ** 4
    assert total == pytest.approx(1.0, rel=1e-3)


def test_bump_rejects_bad_width():
    with pytest.raises(ValueError):
        GaussianBump((0, 0, 0, 0), 0.0)
    with pytest.raises(ValueError):
        GaussianBump((0, 0, 0, 0), -2.0)


def test_evaluate_peak_value():
    bump = GaussianBump((1, 2, 0, 0), 5.0)
    f = single_term((1, 0, 0, 0), bump, 1.0)
    assert evaluate(f, (1, 2, 0, 0)).components[0] == pytest.approx(bump.norm_constant)


def test_evaluate_empty_and_cancellation():
    assert evaluate(ZERO_SMEARING, (0, 0, 0, 0)).components == (0, 0, 0, 0)
    bump = GaussianBump((0, 0, 0, 0), 2.0)
    f = single_term((1, 1, 0, 0), bump, 1.0) + single_term((1, 1, 0, 0), bump, -1.0)
    assert f.is_zero()


def test_mean_examples():
    bump = GaussianBump((0.5, 0, 0, 0), 7.0)
    assert np.array_equal(mean(single_term((1, 0, 0, 0), bump, 1.0)), [1, 0, 0, 0])
    other = GaussianBump((0, 1, 0, 0), 9.0)
    diff = single_term((1, 0, 0, 0), bump, 1.0) + single_term((1, 0, 0, 0), other, -1.0)
    assert np.array_equal(mean(diff), [0, 0, 0, 0])
    assert np.array_equal(mean(single_term((0, 1, 0, 0), bump, 2.5)), [0, 2.5, 0, 0])


def test_moment1_examples():
    bump = GaussianBump((1, 2, 0, 0), 3.0)
    assert moment1(single_term((1, 0, 0, 0), bump, 1.0)) == pytest.approx(1.0)
    assert moment1(single_term((0, 1, 0, 0), bump, 1.0)) == pytest.approx(2.0)
    # difference of frame smearings picks out the center difference
    other = GaussianBump((0, 0, 0, 0), 3.0)
    f = single_term((0, 1, 0, 0), bump, 1.0) + single_term((0, 1, 0, 0), other, -1.0)
    assert moment1(f) == pytest.approx(2.0)


def test_moment1_linearity():
    rng = np.random.default_rng(5)
    bumps = [GaussianBump(tuple(rng.normal(size=4)), 2.0 + k) for k in range(3)]
    f = single_term(tuple(rng.normal(size=4)), bumps[0], 1.3)
    g = single_term(tuple(rng.normal(size=4)), bumps[1], -0.7)
    assert moment1(f + g) == pytest.approx(moment1(f) + moment1(g), abs=1e-12)
    assert moment1(f.scaled(2.5)) == pytest.approx(2.5 * moment1(f), abs=1e-12)


def test_project_psi_examples():
    psi = GaussianBump((0, 0, 0, 0), 2.0)
    chi = GaussianBump((1, 0, 0, 0), 3.0)
    # already mean-free: unchanged
    f0 = single_term((1, 0, 0, 0), chi, 1.0) + single_term((1, 0, 0, 0), psi, -1.0)
    assert project_psi(f0, psi) == f0
    # multiples of psi are the kernel
    assert project_psi(single_term((0.3, -1, 0, 2), psi, 1.0), psi).is_zero()
    # direct substitution
    f = single_term((1, 0, 0, 0), chi, 1.0)
    expected = f + single_term((1, 0, 0, 0), psi, -1.0)
    assert project_psi(f, psi) == expected


def test_project_psi_mean_zero_and_idempotent():
    rng = np.random.default_rng(8)
    psi = GaussianBump((0.1, 0.2, 0, 0), 4.0)
    for _ in range(25):
        terms = tuple(
            (tuple(rng.normal(size=4)), GaussianBump(tuple(rng.normal(size=4)), float(rng.uniform(1, 9))), float(rng.normal()))
            for _ in range(int(rng.integers(1, 4)))
        )
        f = VectorSmearing(terms)
        projected = project_psi(f, psi)
        scale = sum(abs(t.weight) for t in f.terms) + 1.0
        # reordered float sums leave at most machine-precision residue
        assert np.max(np.abs(mean(projected))) <= 1e-13 * scale
        twice = project_psi(projected, psi)
        residue = [
            abs(t.weight) * np.max(np.abs(t.covector))
            for t in twice.terms
            if t not in projected.terms
        ]
        assert np.max(residue, initial=0.0) <= 1e-13 * scale


def test_project_psi_exact_on_matched_covector_differences():
    # mean-1 bump differences with one shared covector cancel exactly, so
    # the projector acts as the identity at the representation level
    psi = GaussianBump((0.1, 0.2, 0, 0), 4.0)
    chi_p = GaussianBump((1.0, 0, 0, 0), 25.0)
    chi_q = GaussianBump((0.0, 0.5, 0, 0), 30.0)
    v = (0.3, -1.2, 0.7, 0.1)
    diff = single_term(v, chi_p, 1.0) + single_term(v, chi_q, -1.0)
    assert np.array_equal(mean(diff), np.zeros(4))
    assert project_psi(diff, psi) == diff


def test_frame_smearings():
    chi = GaussianBump((0, 0, 0, 0), 6.0)
    smearings = frame_smearings(chi, DEFAULT_FRAME)
    assert len(smearings) == 4
    for a, f in enumerate(smearings):
        expected = np.eye(4)[a]
        assert np.array_equal(mean(f), expected)
        assert np.allclose(
            evaluate(f, (0, 0, 0, 0)).array, expected * chi.norm_constant
        )


def test_canonicalization_merges_and_sorts():
    bump = GaussianBump((0, 0, 0, 0), 2.0)
    f = VectorSmearing((((1, 0, 0, 0), bump, 1.0), ((1, 0, 0, 0), bump, 2.0)))
    assert len(f.terms) == 1 and f.terms[0].weight == 3.0
    g = f + f.scaled(-1.0)
    assert g.is_zero()
    assert hash(f) == hash(VectorSmearing(f.terms))


def test_json_round_trip():
    f = single_term((1, 0, -2, 0), GaussianBump((0.5, 0, 0, 0), 3.0), 1.5) + single_term(
        (0, 1, 0, 0), GaussianBump((0, 0, 0, 0), 7.0), -0.5
    )
    doc = smearing_to_json(f)
    assert smearing_from_json(json.dumps(doc)) == f
