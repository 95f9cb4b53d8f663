import json
import math

import numpy as np
import pytest

from conftest import bump_rows
from ncmink import (
    ETA,
    GaussianBump,
    KernelKind,
    WeylCalculus,
    WeylElement,
    frame_smearings,
    gram_check,
    mean,
    moment1,
    smearing_from_json,
    smearing_to_json,
)
from ncmink.integrate import _forms
from ncmink.minkowski import as_components
from ncmink.testfn import VectorSmearing, ZERO_SMEARING, project_psi, single_term


def test_bump_rejects_bad_width():
    # outside [1e-150, 1e150] a product a a' of two widths can overflow or
    # leave the normal range
    for width in (0.0, -2.0, 1e155, 1e-300, math.nextafter(1e-150, 0.0), math.nextafter(1e150, math.inf)):
        with pytest.raises(ValueError, match="^width must be positive and finite"):
            GaussianBump((0, 0, 0, 0), width)


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
    smearings = frame_smearings(chi)
    assert len(smearings) == 4
    for a, f in enumerate(smearings):
        expected = np.eye(4)[a]
        assert np.array_equal(mean(f), expected)
        # one term: covector e^(a) on chi with weight 1
        assert f.rows.tolist() == [[*expected, *chi.center.components, chi.width, 1.0]]


def test_canonicalization_merges_and_sorts():
    bump = GaussianBump((0, 0, 0, 0), 2.0)
    f = VectorSmearing((((1, 0, 0, 0), bump, 1.0), ((1, 0, 0, 0), bump, 2.0)))
    assert len(f.terms) == 1 and f.terms[0].weight == 3.0
    g = f + f.scaled(-1.0)
    assert g.is_zero()
    assert hash(f) == hash(VectorSmearing(f.terms))
    # one read-only row per term: (covector, center, width, weight)
    assert f.rows.tolist() == [[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 3.0]]
    for view in (f.rows, f.covectors, f.centers, f.widths, f.weights):
        with pytest.raises(ValueError, match="read-only"):
            view[...] = 0.0
    with pytest.raises(TypeError):
        f.bump_rows[0] = (0.0, 0.0, 0.0, 0.0, 1.0)
    # terms sort by (center, width, covector), whatever the input order
    late, wide = GaussianBump((1, -5, 0, 0), 1.0), GaussianBump((0, 0, 0, 0), 3.0)
    terms = [((0, 1, 0, 0), late, 1.0), ((0, 0, 0, 1), wide, 1.0), ((0, 1, 0, 0), bump, 1.0), ((1, 0, 0, 0), bump, 1.0)]
    expected = [terms[2], terms[3], terms[1], terms[0]]
    for order in (terms, terms[::-1]):
        h = VectorSmearing(order)
        assert [(t.covector, t.bump) for t in h.terms] == [(as_components(v), b) for v, b, _ in expected]
        # a bump row is (center, width)
        assert h.bump_rows == bump_rows([t.bump for t in h.terms])
    # -0.0 and 0.0 are one term: it keeps the first occurrence's bits, and
    # smearings that differ only in the sign of a zero are equal
    first = VectorSmearing((((-0.0, 1, 0, 0), GaussianBump((0.0, -0.0, 0, 0), 2.0), 1.0), ((0.0, 1, 0, 0), bump, 2.0)))
    second = VectorSmearing((((0.0, 1, 0, 0), bump, 1.0), ((-0.0, 1, 0, 0), GaussianBump((0.0, -0.0, 0, 0), 2.0), 2.0)))
    signs = [math.copysign(1.0, x) for x in first.rows[0, :6]]
    assert first.rows.shape == (1, 10) and first.weights[0] == 3.0 and signs == [-1, 1, 1, 1, 1, -1]
    assert math.copysign(1.0, second.rows[0, 0]) == 1.0
    assert first == second and hash(first) == hash(second)


def test_duplicate_terms_merge_in_input_order():
    """Weights of duplicate terms are summed one by one, in input order.

    1 + 2^-53 rounds back to 1, so the running sum of [1, 2^-53, ...] is 1,
    while that of [2^-53, ..., 1] keeps the small weights, and so does
    numpy's pairwise sum of the first order.
    """
    bump = GaussianBump((0.5, 0, 0, 0), 2.0)
    other = GaussianBump((0.0, 0, 0, 0), 3.0)
    small = [2.0**-53] * 11
    orders = ([1.0] + small, small + [1.0])
    sums = []
    for weights in orders:
        running = 0.0
        for w in weights:
            running += w
        sums.append(running)
        terms = [((1, 2, 0, 0), bump, w) for w in weights]
        # a term on another bump between the duplicates
        f = VectorSmearing(terms[:5] + [((1, 2, 0, 0), other, 1.0)] + terms[5:])
        assert f.rows.shape == (2, 10) and f.weights[1] == running
    assert sums[0] == 1.0 and sums[1] > 1.0
    assert np.add.reduce(np.array(orders[0])) > 1.0


def _lexsort_canonical(rows):
    """The canonical rows of (n, 10) rows in input order, by the np.lexsort algorithm.

    The reference for ``VectorSmearing``'s stable Python sort: the rows
    sort by (center, width, covector) in one np.lexsort, equal terms merge
    into their first row with the weights summed one by one, and zero
    weights and zero covectors are pruned.
    """
    rows = np.array(rows, dtype=float).reshape(-1, 10)
    listed = rows[np.lexsort(rows.T[[3, 2, 1, 0, 8, 7, 6, 5, 4]])].tolist()
    merged = listed[:1]
    for row in listed[1:]:
        if row[:9] == merged[-1][:9]:
            merged[-1][9] += row[9]
        else:
            merged.append(row)
    return np.array([row for row in merged if row[9] != 0.0 and any(row[:4])], dtype=float).reshape(-1, 10)


def _assert_canonical(f, expected):
    """f's rows are expected bit for bit, and its key is the same floats, the sign of a zero included."""
    assert f.rows.tobytes() == expected.tobytes()
    assert repr(f.key) == repr(tuple(map(tuple, expected.tolist())))
    assert all(type(x) is float for row in f.key for x in row)


def test_canonical_form_matches_the_lexsort_reference():
    """Repeated (covector, center, width) triples, zero weights and covectors, signed zeros and weights that cancel."""
    rng = np.random.default_rng(32)
    covectors = [(1, 0, 0, 0), (0, -0.0, 1, 0), (0.5, -2, 0, 3), (0, 0, 0, 0), (-0.0, 0, -0.0, 0)]
    centers = [(0, 0, 0, 0), (-0.0, 0, 0, 0), (1, -0.0, 2, 0), (1, 0, 2, 0), (-1, 0, 0, 0)]
    widths = [1.0, 2.0]
    weights = [1.0, -1.0, 0.0, -0.0, 0.5, 2.0**-53, 3.0]

    def draw():
        n = int(rng.integers(0, 12))
        picks = [[int(rng.integers(len(pool))) for pool in (covectors, centers, widths, weights)] for _ in range(n)]
        return [(covectors[v], GaussianBump(centers[x], widths[a]), weights[w]) for v, x, a, w in picks]

    def reference(terms):
        return _lexsort_canonical([[*v, *bump.center.components, bump.width, w] for v, bump, w in terms])

    for _ in range(200):
        f_terms, g_terms = draw(), draw()
        f, g = VectorSmearing(f_terms), VectorSmearing(g_terms)
        _assert_canonical(f, reference(f_terms))
        _assert_canonical(g, reference(g_terms))
        _assert_canonical(f + g, _lexsort_canonical(np.concatenate((f.rows, g.rows))))
        for c in (2.0, -1.0, 0.0, -0.0, 0.1, 1e-300):
            scaled = f.rows * np.array([1.0] * 9 + [c])
            _assert_canonical(f.scaled(c), _lexsort_canonical(scaled))
        _assert_canonical(-f, _lexsort_canonical(f.rows * np.array([1.0] * 9 + [-1.0])))


def test_scaling_that_overflows_raises_without_a_warning():
    """The product of the weights overflows to inf on floats; pyproject turns any warning into an error."""
    f = single_term((1, 0, 0, 0), GaussianBump((0, 0, 0, 0), 2.0), 1e10)
    with pytest.raises(ValueError, match="weights must be finite"):
        f.scaled(1e300)


def test_zero_smearing_is_an_empty_array(params, cfg):
    assert ZERO_SMEARING.rows.shape == (0, 10) and ZERO_SMEARING.is_zero()
    assert VectorSmearing(()) == ZERO_SMEARING and ZERO_SMEARING.scaled(2.0) == ZERO_SMEARING
    assert np.array_equal(mean(ZERO_SMEARING), np.zeros(4)) and moment1(ZERO_SMEARING) == 0.0
    f = single_term((1, 0.5, 0, 0), GaussianBump((0.2, 0, 0, 0), 10.0), 1.0)
    for kind in KernelKind:
        assert _forms(kind, [ZERO_SMEARING, f], [ZERO_SMEARING, f], ETA)[0] == [0.0, 0.0]
    rep_n, rep_m = gram_check([ZERO_SMEARING, f], params, cfg)
    assert rep_n.matrix[0].tolist() == [0.0, 0.0] and rep_n.is_psd and rep_m.is_psd
    calc = WeylCalculus(params.constants, cfg)
    assert calc.eval_omega(WeylElement.generator(ZERO_SMEARING, 2.0), params).value == 2.0


@pytest.mark.parametrize(
    "weights",
    [[math.nan], [math.inf], [-math.inf], [1e308, 1e308]],
    ids=["nan", "inf", "minus-inf", "overflowing-merge"],
)
def test_smearing_rejects_non_finite_weights(weights):
    """A non-finite merged weight would give nan second moments without a PositivityError."""
    bump = GaussianBump((0, 0, 0, 0), 2.0)
    with pytest.raises(ValueError, match="weights must be finite"):
        VectorSmearing(tuple(((1, 0, 0, 0), bump, w) for w in weights))


def test_json_round_trip():
    f = single_term((1, 0, -2, 0), GaussianBump((0.5, 0, 0, 0), 3.0), 1.5) + single_term(
        (0, 1, 0, 0), GaussianBump((0, 0, 0, 0), 7.0), -0.5
    )
    doc = smearing_to_json(f)
    assert smearing_from_json(json.dumps(doc)) == f


_TERM = {"v": [1, 0, 0, 0], "center": [0, 0, 0, 0], "width": 2.0}


@pytest.mark.parametrize(
    "doc, message",
    [
        ([{**_TERM, "wieght": 3.0}], r"unknown smearing key smearing\[0\]\.wieght"),
        ([_TERM, {"center": [0, 0, 0, 0], "width": 2.0}], r"missing smearing key smearing\[1\]\.v"),
        (_TERM, "must be a JSON list"),
        ([[1, 0, 0, 0]], r"smearing\[0\] must be a JSON object"),
        ([_TERM, {**_TERM, "width": True}], r"smearing key smearing\[1\]\.width must be a number"),
        ([{**_TERM, "width": "2"}], r"smearing key smearing\[0\]\.width must be a number"),
        ([{**_TERM, "width": None}], r"smearing key smearing\[0\]\.width must be a number"),
        ([{**_TERM, "weight": None}], r"smearing key smearing\[0\]\.weight must be a number"),
        ([{**_TERM, "weight": False}], r"smearing key smearing\[0\]\.weight must be a number"),
        ([{**_TERM, "weight": "1.5"}], r"smearing key smearing\[0\]\.weight must be a number"),
        ([{**_TERM, "v": [1, None, 0, 0]}], r"smearing key smearing\[0\]\.v must be a list of numbers"),
        ([{**_TERM, "v": [1, 0, True, 0]}], r"smearing key smearing\[0\]\.v must be a list of numbers"),
        ([{**_TERM, "v": "1,0,0,0"}], r"smearing key smearing\[0\]\.v must be a list of numbers"),
        ([{**_TERM, "center": None}], r"smearing key smearing\[0\]\.center must be a list of numbers"),
        ([{**_TERM, "center": [0, 0, False, 0]}], r"smearing key smearing\[0\]\.center must be a list of numbers"),
        ([{**_TERM, "center": [0, "0", 0, 0]}], r"smearing key smearing\[0\]\.center must be a list of numbers"),
    ],
    ids=[
        "misspelt-weight",
        "missing-v",
        "not-a-list",
        "entry-not-an-object",
        "width-true",
        "width-string",
        "width-null",
        "weight-null",
        "weight-false",
        "weight-string",
        "v-null-component",
        "v-true-component",
        "v-string",
        "center-null",
        "center-false-component",
        "center-string-component",
    ],
)
def test_json_rejects_what_it_would_drop(doc, message):
    """A misspelt key is not read as the default weight, and bad shapes and non-numbers are ValueErrors."""
    for form in (doc, json.dumps(doc)):
        with pytest.raises(ValueError, match=message):
            smearing_from_json(form)


def _entry(v="[1, 0, 0, 0]", center="[0, 0, 0, 0]", width="2", weight="1"):
    """One JSON entry, written as text so that literals such as 1e309 reach the parser."""
    return f'{{"v": {v}, "center": {center}, "width": {width}, "weight": {weight}}}'


@pytest.mark.parametrize(
    "text, message",
    [
        (f"[{_entry(v='[1, 0, 0]')}]", r"smearing\[0\]\.v: covector needs exactly 4"),
        (f"[{_entry(width='-1')}]", r"smearing\[0\]\.width: width must be positive"),
        (f"[{_entry(v='[1e309, 0, 0, 0]')}]", r"smearing\[0\]\.v: covector has non-finite"),
        (f"[{_entry(center='[0, 0, 0, 0, 0]')}]", r"smearing\[0\]\.center: center needs exactly 4"),
        (f"[{_entry(width='0')}]", r"smearing\[0\]\.width: width must be positive"),
        (f"[{_entry(width='1e400')}]", r"smearing\[0\]\.width: width must be positive"),
        (f"[{_entry(width='1' + '0' * 400)}]", r"smearing\[0\]\.width: int too large"),
        (f"[{_entry(weight='-1e309')}]", r"smearing\[0\]\.weight: must be finite"),
        (f"[{_entry()}, {_entry(center='[0, 0, 0]')}]", r"smearing\[1\]\.center: center needs exactly 4"),
        (f"[{_entry(width='1e155')}]", r"smearing\[0\]\.width: width must be positive"),
        (f"[{_entry(width='1e-300')}]", r"smearing\[0\]\.width: width must be positive"),
    ],
    ids=[
        "v-three-components",
        "width-negative",
        "v-overflows",
        "center-five-components",
        "width-zero",
        "width-overflows",
        "width-huge-integer",
        "weight-overflows",
        "second-entry-center",
        "width-above-range",
        "width-below-range",
    ],
)
def test_json_names_the_entry_and_key_of_a_bad_shape_or_range(text, message):
    """A value of the right type but the wrong shape or range is reported with its entry and key."""
    with pytest.raises(ValueError, match=message):
        smearing_from_json(text)
