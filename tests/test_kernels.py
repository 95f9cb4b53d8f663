import math

import numpy as np
import pytest

from ncmink import KernelKind, NullSeparationError, lightcone, log_abs
from ncmink.kernels import kernel_values


def test_kernel_kinds():
    assert {k.value for k in KernelKind} == {"lightcone", "logabs", "constant"}


@pytest.mark.parametrize(
    "x, xp, expected",
    [
        ((1, 0, 0, 0), (0, 0, 0, 0), 1),
        ((0, 2, 0, 0), (0, 0, 0, 0), 0),
        ((-1, 0, 0, 0), (0, 0, 0, 0), -1),
        ((1, 1, 0, 0), (0, 0, 0, 0), 0),  # exactly null
        ((0, 0, 0, 0), (0, 0, 0, 0), 0),  # coincident
    ],
)
def test_lightcone_examples(x, xp, expected):
    assert lightcone(x, xp) == expected


def test_lightcone_antisymmetry():
    rng = np.random.default_rng(1)
    for _ in range(300):
        x, xp = rng.normal(size=(2, 4))
        assert lightcone(x, xp) == -lightcone(xp, x)


def test_log_abs_examples():
    e = math.sqrt(math.e)
    assert log_abs((0, e, 0, 0), (0, 0, 0, 0)) == pytest.approx(1.0)
    assert log_abs((1, 0, 0, 0), (0, 0, 0, 0)) == pytest.approx(0.0)
    assert log_abs((0, 1, 0, 0), (0, 0, 0, 0)) == pytest.approx(0.0)


def test_log_abs_null_raises():
    with pytest.raises(NullSeparationError):
        log_abs((1, 1, 0, 0), (0, 0, 0, 0))
    with pytest.raises(NullSeparationError):
        log_abs((0, 0, 0, 0), (0, 0, 0, 0))


def test_kernels_depend_only_on_difference():
    rng = np.random.default_rng(2)
    for _ in range(100):
        x, xp, shift = rng.normal(size=(3, 4))
        assert lightcone(x + shift, xp + shift) == lightcone(x, xp)
        assert log_abs(x + shift, xp + shift) == pytest.approx(log_abs(x, xp))
        assert log_abs(x, xp) == pytest.approx(log_abs(xp, x))


def test_kernel_values_match_pointwise_kernels():
    rng = np.random.default_rng(3)
    x, xp = rng.normal(size=(2, 200, 4))
    light = kernel_values(KernelKind.LIGHTCONE, x - xp)
    logs = kernel_values(KernelKind.LOGABS, x - xp)
    assert light.tolist() == [lightcone(a, b) for a, b in zip(x, xp)]
    assert logs.tolist() == [log_abs(a, b) for a, b in zip(x, xp)]


def test_kernel_values_on_null_and_coincident_rows():
    y = np.array([[1.0, 1.0, 0.0, 0.0], [-2.0, 0.0, 2.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    assert kernel_values(KernelKind.LIGHTCONE, y).tolist() == [0.0, 0.0, 0.0]
    assert kernel_values(KernelKind.LOGABS, y).tolist() == [0.0, 0.0, 0.0]
    for row in y:
        with pytest.raises(NullSeparationError):
            log_abs(row, (0, 0, 0, 0))
    assert kernel_values(KernelKind.CONSTANT, y).tolist() == [1.0, 1.0, 1.0]
