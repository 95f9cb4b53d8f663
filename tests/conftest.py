import numpy as np
import pytest

from ncmink import DMStateParams, GaussianBump, PhysicalConstants, QuadratureConfig, VectorSmearing
from ncmink.testfn import single_term

#: numpy's warnings on an overflowing kernel-table geometry, which come before
#: a form or a state value is checked: delta overflows in the subtraction, and
#: a log pair's half widths multiply that inf by 0
TABLE_OVERFLOW = "overflow encountered in subtract|invalid value encountered in multiply"


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
