"""Translation-invariant Lorentzian kernels, vectorized over displacements.

Two distributional kernels drive every bilinear form in the package: the
antisymmetric light-cone kernel sgn(t-t') Theta[-(x-x')^2] and the symmetric
logarithm ln|(x-x')^2|, plus the trivial constant kernel used for
normalization checks.  ``kernel_values`` is their one definition; the
pointwise ``lightcone`` and ``log_abs`` are its one-row case.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .minkowski import as_components


class KernelKind(Enum):
    LIGHTCONE = "lightcone"
    LOGABS = "logabs"
    CONSTANT = "constant"


class NullSeparationError(ValueError):
    """Raised when a kernel with an integrable singularity is evaluated on the cone.

    Callers integrating LOGABS must use the singularity-aware quadrature in
    :mod:`ncmink.integrate`; a pointwise value on the null cone does not exist.
    """


def _interval(y):
    """Squared intervals -y_t^2 + |y_vec|^2 of displacement rows y (n, 4)."""
    return -y[:, 0] ** 2 + y[:, 1] ** 2 + y[:, 2] ** 2 + y[:, 3] ** 2


def kernel_values(kind, y):
    """Kernel values at displacements y = x - x' of shape (n, 4).

    Boundary conventions: sgn(0) = 0, and both kernels are 0 at exactly
    null separation (coincident points included).  This keeps the light-cone
    kernel exactly antisymmetric; the null set has measure zero in every
    integral, so the convention cannot affect results.
    """
    y = np.asarray(y, dtype=float)
    s = _interval(y)
    if kind is KernelKind.LIGHTCONE:
        return np.where(s < 0.0, np.sign(y[:, 0]), 0.0)
    if kind is KernelKind.LOGABS:
        return np.where(s == 0.0, 0.0, np.log(np.abs(np.where(s == 0.0, 1.0, s))))
    return np.ones(len(y))


def _displacement(x, xp):
    return np.array([as_components(x)]) - np.array([as_components(xp)])


def lightcone(x, xp):
    """sgn(t-t') Theta[-(x-x')^2] with values in {-1, 0, +1}."""
    return int(kernel_values(KernelKind.LIGHTCONE, _displacement(x, xp))[0])


def log_abs(x, xp):
    """ln|(x-x')^2|; raises NullSeparationError exactly on the cone."""
    y = _displacement(x, xp)
    if _interval(y)[0] == 0.0:
        raise NullSeparationError("ln|(x-x')^2| is singular at null separation")
    return float(kernel_values(KernelKind.LOGABS, y)[0])
