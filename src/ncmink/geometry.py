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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrate import (
    Method,
    QuadratureResult,
    bump_arrays,
    gaussian_pair_reduce,
    pair_geometry,
    pair_integrals,
)
from .kernels import KernelKind
from .minkowski import DEFAULT_FRAME, minkowski_interval, synge
from .testfn import GaussianBump, frame_smearings
from .weyl import WeylCalculus, WeylElement


@dataclass(frozen=True)
class LocalizedPoint:
    """A point known with finite precision: a positive mean-one bump."""

    bump: GaussianBump

    @property
    def nominal_point(self):
        return self.bump.center


def _bump(chi):
    if isinstance(chi, LocalizedPoint):
        return chi.bump
    if isinstance(chi, GaussianBump):
        return chi
    raise TypeError("expected a GaussianBump or LocalizedPoint")


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
    p = _bump(chi_p).center
    q = _bump(chi_q).center
    return minkowski_interval(p, q)


def _log_quadratic(chi_p, chi_q, cfg):
    """Scalar LOGABS quadratic form of the difference profile chi_p - chi_q."""
    centers, widths = bump_arrays([_bump(chi_p), _bump(chi_q)])
    first, second = [0, 1, 0], [0, 1, 1]  # pairs (p, p), (q, q), (p, q)
    geometry = pair_geometry(centers[first], widths[first], centers[second], widths[second])
    (self_p, self_q, cross), errors, _, conv = pair_integrals(KernelKind.LOGABS, *geometry, cfg)
    value = float(self_p + self_q - 2.0 * cross)
    err = float(errors[0] + errors[1] + 2.0 * errors[2])
    return value, err, conv


def distance(chi_p, chi_q, constants, cfg):
    """Noncommutative distance: classical interval plus clipped log correction.

    The correction -(kappa^2 / 4 pi^2) min[Q, 0] is non-negative because the
    clipped kernel is negative semidefinite; it vanishes identically for
    kappa = 0.
    """
    classical = classical_term(chi_p, chi_q)
    if constants.kappa_sq == 0.0:
        return DistanceBreakdown(classical, 0.0, 0.0, True)
    q_form, q_err, conv = _log_quadratic(chi_p, chi_q, cfg)
    scale = constants.kappa_sq / (4.0 * math.pi**2)
    quantum = -scale * min(q_form, 0.0)
    return DistanceBreakdown(classical, quantum, scale * q_err, conv)


def distance_alpha(chi_p, chi_q, params, cfg):
    """Finite-regulator distance; converges to :func:`distance` as alpha grows.

    Mean-one bumps make the difference smearings mean-free, so the
    projector acts trivially and the mean term drops; what survives is the
    contract-then-clip log term (identical to the limit) plus the
    regulator term kappa^2 Lambda^2 / (64 pi^2 alpha), where Lambda is the
    light-cone pairing of the difference profile against psi.  Only that
    last term depends on alpha and psi.
    """
    constants = params.constants
    classical = classical_term(chi_p, chi_q)
    if constants.kappa_sq == 0.0:
        return DistanceBreakdown(classical, 0.0, 0.0, True)
    q_form, q_err, conv = _log_quadratic(chi_p, chi_q, cfg)
    contracted = 4.0 * q_form
    log_scale = constants.kappa_sq / (16.0 * math.pi**2)
    quantum_log = -log_scale * min(contracted, 0.0)

    bp, bq = _bump(chi_p), _bump(chi_q)
    lam_p = gaussian_pair_reduce(KernelKind.LIGHTCONE, bp, params.psi, cfg)
    lam_q = gaussian_pair_reduce(KernelKind.LIGHTCONE, bq, params.psi, cfg)
    lam = lam_p.value - lam_q.value
    lam_err = lam_p.error_estimate + lam_q.error_estimate
    reg_scale = constants.kappa_sq / (64.0 * math.pi**2 * params.state_alpha)
    quantum_reg = reg_scale * lam * lam

    err = 4.0 * log_scale * q_err + reg_scale * (2.0 * abs(lam) + lam_err) * lam_err
    conv = conv and lam_p.converged and lam_q.converged
    return DistanceBreakdown(classical, quantum_log + quantum_reg, err, conv)


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


def localization_limit(widths, values, order=1):
    """Extrapolate a width sweep to the sharp-localization limit.

    Fits a polynomial in 1/width through the (width, value) samples and
    returns its value at 1/width = 0.  The sharp limit of the quantum
    distance correction diverges and is deliberately not covered; this is
    meant for the causal functional and other quantities with finite
    localization limits.
    """
    widths = np.asarray(widths, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(widths) < order + 1:
        raise ValueError("need at least order + 1 sweep points")
    coeffs = np.polynomial.polynomial.polyfit(1.0 / widths, values, order)
    return float(coeffs[0])


def causal(chi_p, chi_q, cfg):
    """Fuzzy causal functional: light-cone pair integral of the two bumps.

    Positive when the first bump lies (partially) to the future of the
    second, zero for fully spacelike configurations, and bounded by 1 in
    magnitude because both profiles are positive with mean one.
    """
    return gaussian_pair_reduce(KernelKind.LIGHTCONE, _bump(chi_p), _bump(chi_q), cfg)


def classify_causal(value, error, band=3.0):
    """Map a causal value with its error onto a coarse relation label."""
    err = max(error, 1e-12)
    if abs(value) < band * err:
        return "spacelike"
    if abs(value - 1.0) < band * err:
        return "future"
    if abs(value + 1.0) < band * err:
        return "past"
    return "fuzzy"


def causal_via_weyl(chi_p, chi_q, params, cfg, use_krein_pairing=False):
    """Causal functional through the algebra: triple products under tau.

    Builds W(f^(a)) W(g^(b)) W(-f^(a) - g^(b)) for the frame pairs with
    nonvanishing metric weight (the frame metric is diagonal), evaluates
    tau on each product, and frame-contracts the logarithms.  Every
    product collapses to a multiple of the unit, so |tau| must be 1;
    deviations beyond the phase budget raise (branch-cut guard).  With the
    plain pairing this reproduces :func:`causal`; the Krein-twisted
    pairing changes the frame contraction from 4 to 2 and is exposed for
    diagnostics only.
    """
    constants = params.constants
    if constants.kappa_sq == 0.0:
        raise ValueError("the Weyl route needs kappa > 0 (phases vanish otherwise)")
    fs = frame_smearings(_bump(chi_p), DEFAULT_FRAME)
    gs = frame_smearings(_bump(chi_q), DEFAULT_FRAME)
    calc = WeylCalculus(
        constants, cfg, u=params.u, pairing="krein" if use_krein_pairing else "plain"
    )
    signature = DEFAULT_FRAME.signature
    total = 0.0j
    err = 0.0
    evals = 0
    converged = True
    for a in range(4):
        for b in range(4):
            weight = signature[a] if a == b else 0.0
            if weight == 0.0:
                continue
            prod = calc.mul(
                calc.mul(WeylElement.generator(fs[a]), WeylElement.generator(gs[b])),
                WeylElement.generator(-(fs[a] + gs[b])),
            )
            if len(prod.terms) != 1 or not prod.terms[0][0].is_zero():
                raise ArithmeticError("triple product did not collapse to the unit")
            tau = calc.eval_tau(prod, params)
            if abs(abs(tau.value) - 1.0) > 10.0 * (tau.error_estimate + prod.phase_error) + 1e-9:
                raise ArithmeticError(
                    f"phase modulus {abs(tau.value)!r} off the unit circle beyond budget"
                )
            total += weight * np.log(complex(tau.value))
            err += abs(weight) * (prod.phase_error + tau.error_estimate)
            evals += tau.evals
            converged = converged and tau.converged
    scale = 4.0 * math.pi / constants.kappa_sq
    value = (-1j * scale * total).real
    return QuadratureResult(value, scale * err, Method.REDUCED1D, evals, converged)
