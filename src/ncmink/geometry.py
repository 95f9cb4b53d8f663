"""Headline observables: Lorentzian distance functionals and fuzzy causality.

Localized points are mean-one Gaussian bumps; the distance between two of
them splits into the exact classical interval (first moments factorize, so
it is (p-q)^2 for any widths) plus a quantum correction proportional to
kappa^2 built from the clipped log form of the difference profile.  The
causal functional is the light-cone pair integral of the two bumps, a
number in [-1, 1] that degenerates to {-1, 0, +1} under sharp localization.

For the regularized finite-alpha distance the frame contraction is applied
before the cutoff: the four frame smearings share one scalar profile, so
the contracted log quadratic form is 4 Q and the cutoff min[4Q, 0] keeps
the alpha -> infinity limit exactly equal to the distance functional's
-(kappa^2 / 4 pi^2) min[Q, 0] term.  Clipping each frame pair separately
would instead leave 3 Q in the regular regime and never converge to the
limit, so the contract-then-clip order is the consistent one.

Everything here but ``causal_via_weyl`` runs on the float pair path of
:mod:`ncmink.pair` and imports no numpy; ``causal_via_weyl`` imports the
Weyl calculus when it is called.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

from .minkowski import minkowski_interval, synge
from .pair import KernelKind, _analytic, _bump_geometry, _pair_integral


@dataclass(frozen=True)
class DistanceBreakdown:
    """Distance split into the exact classical interval and the correction."""

    classical: float
    quantum: float
    error: float
    converged: bool = True

    @property
    def total(self):
        return self.classical + self.quantum


def classical_term(chi_p, chi_q):
    """Classical part of the distance: exactly (p - q)^2 for any widths.

    The double first-moment integral factorizes into the product of bump
    means, which are the centers; no quadrature is involved.
    """
    return minkowski_interval(chi_p.center, chi_q.center)


def _log_quadratic(chi_p, chi_q):
    """Scalar LOGABS quadratic form of the difference profile chi_p - chi_q.

    Three one-pair integrals on floats: the two self pairs, each the closed
    form 1 - gamma - ln(2b) at its combined width b = a a / (a + a), and
    the cross pair.
    """
    self_p, self_q, cross = (
        _pair_integral(KernelKind.LOGABS, *_bump_geometry(p, q))
        for p, q in ((chi_p, chi_p), (chi_q, chi_q), (chi_p, chi_q))
    )
    return self_p + self_q - 2.0 * cross


def _finite_correction(quantum):
    """The quantum correction, or ValueError when it overflowed or is nan."""
    if not math.isfinite(quantum):
        raise ValueError(f"the quantum correction of the distance is not finite: {quantum!r}")
    return quantum


def distance(chi_p, chi_q, constants, cfg):
    """Noncommutative distance: classical interval plus clipped log correction.

    The correction -(kappa^2 / 4 pi^2) min[Q, 0] is non-negative because the
    clipped kernel is negative semidefinite; it is +0.0 wherever Q >= 0
    and for kappa = 0.  An interval (p - q)^2 of the centers past the
    float range, or a correction that is not finite (kappa^2 so large that
    it overflows), raises ValueError.
    """
    classical = classical_term(chi_p, chi_q)
    if not math.isfinite(classical):
        raise ValueError(f"the interval (p - q)^2 of the centers is not finite: {classical!r}")
    if constants.kappa_sq == 0.0:
        return DistanceBreakdown(classical, 0.0, 0.0, True)
    scale = constants.kappa_sq / (4.0 * math.pi**2)
    Q = _log_quadratic(chi_p, chi_q)
    # not -scale * min(Q, 0.0), which is -0.0 wherever Q >= 0; a nan Q stays nan
    quantum = _finite_correction(0.0 if Q >= 0.0 else -scale * Q)
    return DistanceBreakdown(classical, quantum, 0.0, True)


def distance_alpha(chi_p, chi_q, params, cfg):
    """Finite-regulator distance; converges to :func:`distance` as alpha grows.

    Mean-one bumps make the difference smearings mean-free, so the
    projector acts trivially and the mean term drops; what survives is the
    contract-then-clip log term (identical to the limit) plus the
    regulator term kappa^2 Lambda^2 / (64 pi^2 alpha), where Lambda is the
    light-cone pairing of the difference profile against psi.  Only that
    last term depends on alpha and psi.  A correction that is not finite,
    such as a regulator term that overflows at a tiny alpha, raises
    ValueError.
    """
    constants = params.constants
    limit = distance(chi_p, chi_q, constants, cfg)
    if constants.kappa_sq == 0.0:
        return limit
    # the contracted log term kappa^2/16 pi^2 min[4Q, 0] is the limit's
    # kappa^2/4 pi^2 min[Q, 0] bit for bit: the factors differ by powers of two
    lam_p, lam_q = (_pair_integral(KernelKind.LIGHTCONE, *_bump_geometry(chi, params.psi)) for chi in (chi_p, chi_q))
    lam = lam_p - lam_q
    reg_scale = constants.kappa_sq / (64.0 * math.pi**2 * params.state_alpha)
    return replace(limit, quantum=_finite_correction(limit.quantum + reg_scale * lam * lam))


def corrected_synge(p, q, constants):
    """Closed-form world function with its leading logarithmic correction.

    Valid for non-null, non-coincident pairs:
    2 sigma(p,q) + (8 l^2 / pi) ln(|sigma(p,q)| / l^2).
    """
    s = synge(p, q)
    if s == 0.0:
        raise ValueError("corrected_synge diverges for coincident or null points")
    ell_sq = constants.planck_length**2
    if ell_sq == 0.0:
        return 2.0 * s
    return 2.0 * s + (8.0 * ell_sq / math.pi) * math.log(abs(s) / ell_sq)


def causal(chi_p, chi_q, cfg):
    """Fuzzy causal functional: light-cone pair integral of the two bumps.

    Positive when the first bump lies (partially) to the future of the
    second, zero for fully spacelike configurations, and bounded by 1 in
    magnitude because both profiles are positive with mean one.  A value
    that is not finite, where the center separation times the combined
    width's scale overflows, raises ValueError.
    """
    value = _pair_integral(KernelKind.LIGHTCONE, *_bump_geometry(chi_p, chi_q))
    if not math.isfinite(value):
        raise ValueError(f"the causal functional is not finite: {value!r}")
    return _analytic(value)


def classify_causal(value):
    """Map a causal value onto a coarse relation label.

    :func:`causal` is a closed form exact up to rounding, so the band is
    fixed: a value within 3e-12 of 0, +1 or -1 is spacelike, future or
    past; anything else is fuzzy.  The band is absolute, so any |value|
    below 3e-12 is spacelike whatever its sign, such as the 2.8e-76 of a
    future-pointing timelike pair of bumps of width 1e-150.
    """
    for label, target in (("spacelike", 0.0), ("future", 1.0), ("past", -1.0)):
        if abs(value - target) < 3e-12:
            return label
    return "fuzzy"


def causal_via_weyl(chi_p, chi_q, params, cfg):
    """Causal functional through the algebra: triple products under tau.

    Builds W(f^(a)) W(g^(a)) W(-f^(a) - g^(a)) for the four rest-frame
    smearings (eta is diagonal, so only a = b pairs carry weight),
    evaluates tau on each product, and sums the logarithms weighted by
    eta_aa.  Every product collapses to a multiple of the unit, so |tau|
    must be 1; deviations beyond the rounding budget 1e-9 raise
    (branch-cut guard).
    The products use the plain pairing, so this reproduces :func:`causal`.
    """
    # the Weyl calculus needs numpy, which the float observables above do not
    from .testfn import frame_smearings
    from .weyl import WeylCalculus, WeylElement

    constants = params.constants
    if constants.kappa_sq == 0.0:
        raise ValueError("the Weyl route needs kappa > 0 (phases vanish otherwise)")
    fs = frame_smearings(chi_p)
    gs = frame_smearings(chi_q)
    calc = WeylCalculus(constants, cfg, pairing="plain")
    total = 0.0j
    # eta's diagonal as Python floats, and cmath.log: np.diag(ETA) or np.log
    # would make the value np.float64
    for f, g, weight in zip(fs, gs, (-1.0, 1.0, 1.0, 1.0)):
        prod = calc.mul(
            calc.mul(WeylElement.generator(f), WeylElement.generator(g)),
            WeylElement.generator(-(f + g)),
        )
        if len(prod.terms) != 1 or not prod.terms[0][0].is_zero():
            raise ArithmeticError("triple product did not collapse to the unit")
        tau = calc.eval_tau(prod, params).value
        if abs(abs(tau) - 1.0) > 1e-9:
            raise ArithmeticError(
                f"phase modulus {abs(tau)!r} off the unit circle beyond budget"
            )
        total += weight * cmath.log(tau)
    scale = 4.0 * math.pi / constants.kappa_sq
    return _analytic((-1j * scale * total).real)
