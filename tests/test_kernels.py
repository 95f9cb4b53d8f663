import math

import numpy as np
import pytest

from ncmink import KernelKind
from ncmink.kernels import kernel_values


def test_kernel_kinds():
    assert {k.value for k in KernelKind} == {"lightcone", "logabs", "constant"}


@pytest.mark.parametrize(
    "y, expected",
    [
        ((1, 0, 0, 0), 1.0),
        ((0, 2, 0, 0), 0.0),
        ((-1, 0, 0, 0), -1.0),
        ((1, 1, 0, 0), 0.0),  # exactly null
        ((0, 0, 0, 0), 0.0),  # coincident
    ],
)
def test_lightcone_examples(y, expected):
    assert kernel_values(KernelKind.LIGHTCONE, [y]).tolist() == [expected]


def test_lightcone_antisymmetry():
    y = np.random.default_rng(1).normal(size=(300, 4))
    assert kernel_values(KernelKind.LIGHTCONE, y).tolist() == (-kernel_values(KernelKind.LIGHTCONE, -y)).tolist()


def test_log_abs_examples():
    e = math.sqrt(math.e)
    y = [(0, e, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)]
    assert kernel_values(KernelKind.LOGABS, y) == pytest.approx([1.0, 0.0, 0.0])


def test_kernels_depend_only_on_difference():
    x, xp, shift = np.random.default_rng(2).normal(size=(3, 100, 4))
    for kind in (KernelKind.LIGHTCONE, KernelKind.LOGABS):
        shifted = kernel_values(kind, (x + shift) - (xp + shift))
        assert shifted == pytest.approx(kernel_values(kind, x - xp))
    assert kernel_values(KernelKind.LOGABS, xp - x).tolist() == kernel_values(KernelKind.LOGABS, x - xp).tolist()


def test_kernel_values_on_null_and_coincident_rows():
    y = np.array([[1.0, 1.0, 0.0, 0.0], [-2.0, 0.0, 2.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    assert kernel_values(KernelKind.LIGHTCONE, y).tolist() == [0.0, 0.0, 0.0]
    assert kernel_values(KernelKind.LOGABS, y).tolist() == [0.0, 0.0, 0.0]
    assert kernel_values(KernelKind.CONSTANT, y).tolist() == [1.0, 1.0, 1.0]
