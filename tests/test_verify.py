import itertools
import math

import pytest

from ncmink import GaussianBump, PhysicalConstants, QuadratureConfig, WeylCalculus, WeylElement, verify
from ncmink.testfn import single_term
from ncmink.verify import verify_gram


def _rows(seed):
    report = verify_gram(QuadratureConfig(seed=seed), families=2, elements=2)
    # the omega rows carry a seed-dependent error budget as their tolerance
    return [(check["computed"], check["tolerance"]) for check in report["checks"]]


def test_verify_gram_draws_from_the_config_seed():
    first = _rows(11)
    assert first == _rows(11)
    assert first != _rows(12)


def test_verify_gram_reports_its_margins():
    report = verify_gram(QuadratureConfig(), families=2, elements=2)
    n_row, m_row, re_row = report["checks"][:3]
    # passing rows report how far they cleared zero
    assert n_row["computed"] > 0.0 and n_row["passed"]
    assert m_row["computed"] > 0.0 and m_row["passed"]
    assert re_row["computed"] > 0.0 and re_row["passed"]


def test_verify_weyl_passes_when_a_triple_regroups_by_merge_rounding(monkeypatch):
    """Duplicate terms sum their weights in input order, so on one bump and
    covector (1 + 2^-53) + 2^-53 and 1 + (2^-53 + 2^-53) are two smearings,
    one ulp apart in their weight.  The cocycle asserts the phase, so both
    associativity rows compare the coefficients and pass, and so does the
    suite."""
    bump = GaussianBump((0, 0, 0, 0), 20.0)
    f, g, h = (single_term((1, 0, 0, 0), bump, w) for w in (1.0, 2.0**-53, 2.0**-53))
    calc = WeylCalculus(PhysicalConstants(planck_length=0.1), QuadratureConfig(), pairing="plain")
    left = calc.mul(calc.mul(*map(WeylElement.generator, (f, g))), WeylElement.generator(h))
    right = calc.mul(WeylElement.generator(f), calc.mul(*map(WeylElement.generator, (g, h))))
    assert [x.terms[0][0].key[0][9] for x in (left, right)] == [1.0, 1.0 + 2.0**-52]
    weights = itertools.cycle([1.0, 2.0**-53, 2.0**-53])
    monkeypatch.setattr(verify, "_random_smearing", lambda rng: single_term((1, 0, 0, 0), bump, next(weights)))
    report = verify.verify_weyl(QuadratureConfig())
    rows = report["checks"]
    assert [row["name"] for row in rows[4:6]] == [f"cocycle associativity, {p} pairing (50 triples)" for p in ("plain", "krein")]
    assert [row["computed"] for row in rows[4:6]] == [0.0, 0.0]
    assert all(row["passed"] for row in rows)
    assert report["passed"]


_MUL = WeylCalculus.mul


def _scaled_mul(self, a, b):
    return WeylElement.from_dict({f.scaled(1.0 + 1e-9): c for f, c in _MUL(self, a, b).terms})


def _two_term_mul(self, a, b):
    terms = _MUL(self, a, b).terms
    return WeylElement.from_dict({**dict(terms), **{f.scaled(2.0): 1e-9 * c for f, c in terms if not f.is_zero()}})


@pytest.mark.parametrize("mul", [_scaled_mul, _two_term_mul], ids=["scaled", "two-term"])
def test_verify_weyl_fails_when_the_groupings_are_different_smearings(mul, monkeypatch):
    """A product that scales its smearing by 1 + 1e-9 makes (f g) h and
    f (g h) weigh f's and h's terms differently, far beyond merge rounding,
    and one that adds a second term, W(2 (f + g)), makes neither grouping
    a single-term element: either way both associativity rows report inf
    and fail, and so does the suite.  W(f) W(-f) is still the unit."""
    monkeypatch.setattr(WeylCalculus, "mul", mul)
    report = verify.verify_weyl(QuadratureConfig())
    rows = report["checks"]
    assert [row["computed"] for row in rows[4:6]] == [math.inf, math.inf]
    assert [row["passed"] for row in rows] == [True] * 4 + [False, False, True]
    assert not report["passed"]
