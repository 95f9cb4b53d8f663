"""Minkowski geometry: events, covectors, frames and exact interval arithmetic.

Conventions used throughout the package: metric signature (-,+,+,+),
Cartesian coordinates x = (t, x, y, z) with c = 1, so every coordinate
carries units of length.  The squared interval of a displacement d is
d^2 = -d_t^2 + |d_vec|^2 (negative inside the light cone).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Minkowski metric; numerically identical for upper and lower index pairs.
ETA = np.diag([-1.0, 1.0, 1.0, 1.0])
ETA.setflags(write=False)

# Euclidean contraction, handy for scalar-profile quadratic forms where the
# covector bookkeeping should drop out.
IDENTITY = np.eye(4)
IDENTITY.setflags(write=False)

UNIT_TIMELIKE_TOL = 1e-12


def as_components(value, what="4-vector"):
    """Coerce a point/covector/sequence to a plain tuple of 4 finite floats."""
    if isinstance(value, (SpacetimePoint, FourCovector)):
        return value.components
    # plain 4-tuples of numbers take a pure-Python path; anything it does not
    # accept falls through to the numpy checks, which raise the errors
    if (
        isinstance(value, tuple)
        and len(value) == 4
        and all(isinstance(c, (int, float)) for c in value)
    ):
        comps = tuple(map(float, value))
        if all(map(math.isfinite, comps)):
            return comps
    arr = np.asarray(value, dtype=float).reshape(-1)
    if arr.shape != (4,):
        raise ValueError(f"{what} needs exactly 4 components, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} has non-finite entries: {arr!r}")
    return tuple(float(c) for c in arr)


@dataclass(frozen=True)
class SpacetimePoint:
    """Event with coordinates (t, x, y, z)."""

    components: tuple

    def __init__(self, components):
        object.__setattr__(self, "components", as_components(components, "SpacetimePoint"))


@dataclass(frozen=True)
class FourCovector:
    """Dual vector with lower index components v_mu."""

    components: tuple

    def __init__(self, components):
        object.__setattr__(self, "components", as_components(components, "FourCovector"))


@dataclass(frozen=True)
class Frame:
    """Orthonormal Lorentzian frame of four covectors e^(a), a = 0..3.

    Orthonormality means e^(a) . eta^{-1} . e^(b) = eta^{ab} with the
    signature weights eta_aa = (-1, +1, +1, +1).
    """

    covectors: tuple

    def __init__(self, covectors):
        covs = tuple(
            c if isinstance(c, FourCovector) else FourCovector(c) for c in covectors
        )
        if len(covs) != 4:
            raise ValueError("a frame needs exactly four covectors")
        basis = np.array([c.components for c in covs])
        gram = basis @ ETA @ basis.T
        if not np.allclose(gram, ETA, atol=1e-12):
            raise ValueError("frame covectors are not orthonormal")
        object.__setattr__(self, "covectors", covs)

    @property
    def signature(self):
        return (-1.0, 1.0, 1.0, 1.0)


#: Default frame e_mu^(a) = delta_mu^a.
DEFAULT_FRAME = Frame(tuple(np.eye(4)))


@dataclass(frozen=True)
class PhysicalConstants:
    """Planck length and the derived coupling kappa^2 = 16 pi l^2.

    The linkage is enforced by construction: kappa_sq is always computed
    from planck_length, and :meth:`from_kappa_sq` inverts it.  The default
    uses natural units l = 1; l = 0 gives the classical (commutative) limit.
    """

    planck_length: float = 1.0

    def __post_init__(self):
        # a length whose kappa^2 overflows is rejected too: every observable
        # scales with kappa^2
        try:
            valid = self.planck_length >= 0.0 and math.isfinite(self.kappa_sq)
        except OverflowError:
            valid = False
        if not valid:
            raise ValueError("planck_length must be finite and non-negative, with a finite kappa^2")

    @property
    def kappa_sq(self):
        return 16.0 * math.pi * self.planck_length**2

    @classmethod
    def from_kappa_sq(cls, kappa_sq):
        if kappa_sq < 0.0:
            raise ValueError("kappa_sq must be non-negative")
        return cls(planck_length=math.sqrt(kappa_sq / (16.0 * math.pi)))


def minkowski_interval(p, q):
    """Signed squared interval (p - q)^2 = -(dt)^2 + |dx|^2.

    Negative for timelike, positive for spacelike and zero for null
    separations.  Symmetric in (p, q) and translation invariant.
    """
    pc = as_components(p, "point p")
    qc = as_components(q, "point q")
    d = np.array(pc) - np.array(qc)
    return float(-d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + d[3] * d[3])


def synge(p, q):
    """Synge world function: half the signed squared interval."""
    return 0.5 * minkowski_interval(p, q)


def validate_unit_timelike(u):
    """Check that u (upper index) is timelike with eta(u, u) = -1."""
    uc = np.array(as_components(u, "vector u"))
    norm = float(uc @ ETA @ uc)
    if abs(norm + 1.0) > UNIT_TIMELIKE_TOL:
        raise ValueError(f"u must be unit timelike, got eta(u,u) = {norm!r}")
    return uc


def krein_matrix(u):
    """Positive definite matrix eta^{mu nu} + 2 u^mu u^nu for unit timelike u.

    The quadratic form dominates |a . eta . a| for every covector a, which
    is what makes it suitable as the fundamental symmetry of the auxiliary
    positive scalar product.
    """
    uc = validate_unit_timelike(u)
    return ETA + 2.0 * np.outer(uc, uc)


def krein_covector_map(u):
    """Mixed-index involution J_mu^nu = delta_mu^nu + 2 u_mu u^nu.

    Acts on covector components; satisfies J @ J = identity exactly up to
    floating point, and eta^{mu rho} J_rho^nu = krein_matrix(u).
    """
    uc = validate_unit_timelike(u)
    u_lower = ETA @ uc
    return np.eye(4) + 2.0 * np.outer(u_lower, uc)
