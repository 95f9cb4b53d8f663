import numpy as np
import pytest

from ncmink import DMStateParams, GaussianBump, PhysicalConstants, QuadratureConfig, VectorSmearing
from ncmink.pair import _bump_geometry, _bump_row, _pair_integral
from ncmink.testfn import single_term

@pytest.fixture(scope="session")
def cfg():
    return QuadratureConfig()


@pytest.fixture(scope="session")
def tight_cfg():
    return QuadratureConfig(rel_tol=1e-6, abs_tol=1e-12)


@pytest.fixture(scope="session")
def constants():
    # Planck-scale coupling keeps state moments O(1) in the random tests.
    return PhysicalConstants(planck_length=0.1)


@pytest.fixture(scope="session")
def params(constants):
    psi = GaussianBump((0.1, 0.0, 0.2, 0.0), 25.0)
    return DMStateParams(state_alpha=1.0, psi=psi, constants=constants)


def random_smearing(rng, center_scale=0.6, width_lo=8.0, width_hi=40.0):
    """Single-term smearing in the regime where the log forms stay negative."""
    v = tuple(rng.normal(size=4))
    center = tuple(rng.normal(scale=center_scale, size=4))
    width = float(rng.uniform(width_lo, width_hi))
    weight = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
    return single_term(v, GaussianBump(center, width), weight)


def random_bump(rng, center_scale=1.0, width_lo=5.0, width_hi=5e3):
    center = tuple(rng.normal(scale=center_scale, size=4))
    width = float(np.exp(rng.uniform(np.log(width_lo), np.log(width_hi))))
    return GaussianBump(center, width)


def table_smearing(rng, pool):
    """1-4 terms on a shared bump pool, so one bump can carry several covectors.

    Covector sizes span four decades, so the order in which a bump's terms
    are summed shows in the last bits.  About a third of the covectors have
    a zero time component: the rest-frame Krein map keeps those, so f and
    J f share terms that merge in Pf + PJf.
    """
    terms = []
    for _ in range(int(rng.integers(1, 5))):
        v = rng.normal(size=4) * 10.0 ** rng.uniform(-2.0, 2.0)
        if rng.uniform() < 0.35:
            v[0] = 0.0
        weight = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        terms.append((tuple(v), pool[int(rng.integers(len(pool)))], weight))
    return VectorSmearing(tuple(terms))


def bump_pool(rng, psi):
    pool = [GaussianBump(tuple(rng.normal(scale=0.6, size=4)), rng.uniform(8.0, 40.0)) for _ in range(3)]
    return pool + [psi]


def pair_value(kind, bump_p, bump_q):
    """The pair integral of two bumps: ``_pair_integral`` at their ``_bump_geometry``."""
    return _pair_integral(kind, *_bump_geometry(bump_p, bump_q))


def pair_values(kind, b, delta, R):
    """``_pair_integral`` of each pair of the equal-length arrays b, delta and R, as an array."""
    return np.array([_pair_integral(kind, *pair) for pair in zip(b.tolist(), delta.tolist(), R.tolist())])


def bump_rows(bumps):
    """The bump rows of a sequence of bumps, each a (t, x, y, z, width) tuple: the rows kernel tables read."""
    return tuple(_bump_row(bump) for bump in bumps)
