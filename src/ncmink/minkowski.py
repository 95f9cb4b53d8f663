"""Minkowski geometry on Python floats: events, the interval, constants, bumps and the state's parameters.

Conventions used throughout the package: metric signature (-,+,+,+),
Cartesian coordinates x = (t, x, y, z) with c = 1, so every coordinate
carries units of length.  The squared interval of a displacement d is
d^2 = -d_t^2 + |d_vec|^2 (negative inside the light cone).  A covector is
four floats, its lower index components v_mu in these coordinates; the
frame smearings are the rest frame's unit covectors, and the only other
frame is the timelike u of the Krein involution.

This module imports no numpy: points, bumps, constants and the state's
parameters are Python floats, and with :mod:`ncmink.pair` and
:mod:`ncmink.geometry` they are the whole float path of the ``distance``,
``causal`` and ``sweep`` commands.  The metric as a matrix, ``ETA``, and
the Krein matrices live in :mod:`ncmink.testfn`, with the smearings that
read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

UNIT_TIMELIKE_TOL = 1e-12


def as_components(value, what="4-vector"):
    """Coerce a point or a sequence to a plain tuple of 4 finite floats.

    A point gives its components; anything else, a covector included, is a
    flat sequence of 4 numbers (a tuple, a list or a 1-D array), each
    converted by ``float``, which rounds as numpy's conversion to float64
    does.  A string or bytes, a scalar, a nested sequence, another length
    or a non-finite entry raises ValueError naming ``what``.
    """
    if isinstance(value, SpacetimePoint):
        return value.components
    try:
        # a string or bytes is a sequence of characters, not of numbers
        components = () if isinstance(value, (str, bytes)) else tuple(map(float, value))
    except TypeError:
        components = ()
    if len(components) != 4:
        raise ValueError(f"{what} needs exactly 4 components, got {value!r}")
    if not all(map(math.isfinite, components)):
        raise ValueError(f"{what} has non-finite entries: {components!r}")
    return components


@dataclass(frozen=True)
class SpacetimePoint:
    """Event with coordinates (t, x, y, z)."""

    components: tuple

    def __init__(self, components):
        object.__setattr__(self, "components", as_components(components, "SpacetimePoint"))


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


def _square(d):
    """eta(d, d) = -d_t^2 + |d_vec|^2 of four floats, summed left to right."""
    return -d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + d[3] * d[3]


def minkowski_interval(p, q):
    """Signed squared interval (p - q)^2 = -(dt)^2 + |dx|^2.

    Negative for timelike, positive for spacelike and zero for null
    separations.  Symmetric in (p, q) and translation invariant.  Taken on
    Python floats, so an interval past the float range is inf or nan
    without a warning; :func:`ncmink.geometry.distance` rejects it.
    """
    pc = as_components(p, "point p")
    qc = as_components(q, "point q")
    return _square([a - b for a, b in zip(pc, qc)])


def synge(p, q):
    """Synge world function: half the signed squared interval."""
    return 0.5 * minkowski_interval(p, q)


def validate_unit_timelike(u):
    """Check that u (upper index) is timelike with eta(u, u) = -1.

    u is converted once, and eta(u, u) is taken on the converted floats,
    the bits of its interval from the origin.  A u whose square overflows
    reads nan or inf without a warning and is rejected: no comparison with
    nan is true.
    """
    uc = as_components(u, "vector u")
    norm = _square(uc)
    if not abs(norm + 1.0) <= UNIT_TIMELIKE_TOL:
        raise ValueError(f"u must be unit timelike, got eta(u,u) = {norm!r}")
    return uc


@dataclass(frozen=True)
class GaussianBump:
    """Normalized Gaussian profile (a/pi)^2 exp[-a sum_mu (x-p)_mu^2].

    The exponent uses the Euclidean sum over all four coordinates; `width`
    is the exponent coefficient a, so the per-axis variance is 1/(2a) and
    the integral over spacetime is exactly 1.  The width must lie in
    [1e-150, 1e150]: any two widths there have a finite, normal product
    a a' and a finite sum a + a', so every combined width
    b = a a' / (a + a') of a pair integral is a finite positive float.
    """

    center: SpacetimePoint
    width: float

    def __init__(self, center, width):
        center = center if isinstance(center, SpacetimePoint) else SpacetimePoint(center)
        width = float(width)
        if not 1e-150 <= width <= 1e150:
            raise ValueError(f"width must be positive and finite, within [1e-150, 1e150]; got {width!r}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "width", width)


@dataclass(frozen=True)
class DMStateParams:
    """Everything that fixes the regularized quasi-free state.

    ``state_alpha`` is the infrared regulator strength, ``psi`` the mean-one
    reference bump of the projector, ``constants`` carries kappa^2 and
    ``u`` the timelike unit vector of the Krein involution.
    """

    state_alpha: float
    psi: GaussianBump
    constants: PhysicalConstants = PhysicalConstants()
    u: tuple = (1.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        if not (self.state_alpha > 0.0 and math.isfinite(self.state_alpha)):
            raise ValueError("state_alpha must be positive and finite")
        validate_unit_timelike(self.u)
