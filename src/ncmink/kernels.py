"""Translation-invariant Lorentzian kernels, vectorized over displacements.

Two distributional kernels drive every bilinear form in the package: the
antisymmetric light-cone kernel sgn(t-t') Theta[-(x-x')^2] and the symmetric
logarithm ln|(x-x')^2|, plus the trivial constant kernel used for
normalization checks.  ``kernel_values`` is their one definition; the
closed-form pair integrals in :mod:`ncmink.integrate` never evaluate a
kernel pointwise, and the Monte Carlo oracle reads it on its samples.
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class KernelKind(Enum):
    LIGHTCONE = "lightcone"
    LOGABS = "logabs"
    CONSTANT = "constant"


def kernel_values(kind, y):
    """Kernel values at displacements y = x - x' of shape (n, 4).

    Boundary conventions: sgn(0) = 0, and both kernels are 0 at exactly
    null separation (coincident points included).  This keeps the light-cone
    kernel exactly antisymmetric; the null set has measure zero in every
    integral, so the convention cannot affect results.  The constant kernel
    reads no displacement, so it returns before the interval is taken.
    """
    y = np.asarray(y, dtype=float)
    if kind is KernelKind.CONSTANT:
        return np.ones(len(y))
    s = -y[:, 0] ** 2 + y[:, 1] ** 2 + y[:, 2] ** 2 + y[:, 3] ** 2
    if kind is KernelKind.LIGHTCONE:
        return np.where(s < 0.0, np.sign(y[:, 0]), 0.0)
    return np.where(s == 0.0, 0.0, np.log(np.abs(np.where(s == 0.0, 1.0, s))))
