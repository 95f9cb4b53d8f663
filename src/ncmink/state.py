"""Symplectic form, Krein involution and the infrared-regularized state.

The building blocks assembled here:

* ``sigma``: the light-cone symplectic form
  -(kappa^2 / 8 pi) * integral f eta g sgn(t-t') Theta[-(x-x')^2],
  antisymmetric under argument swap.
* ``krein_J``: the involution (J f)_mu = (delta_mu^nu + 2 u_mu u^nu) f_nu
  whose twisted pairing turns the indefinite structure positive.
* ``log_minus_form``: the clipped logarithmic bidistribution, defined through
  polarization with each inner quadratic form cut off at zero.  The pairing
  is genuinely nonbilinear once a cutoff activates; bilinearity statements
  only hold while both inner forms stay negative.
* ``dm_bilinear``: the regularized two-point form Delta_{alpha,psi} combining
  the clipped log term of mean-projected arguments, the mean-mean term, the
  sigma(.,psi) term and the antisymmetric i/2 sigma part.
* ``mu2``: Delta_{alpha,psi}(f, J g), the positive scalar product whose Gram
  matrices certify state positivity.

Note the two distinct alpha-like parameters: ``state_alpha`` below is the
state regulator, while Gaussian bumps carry their own ``width``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrate import (
    Method,
    QuadratureResult,
    bilinear_form,
    bump_arrays,
    pair_geometry,
    pair_integrals,
    smearing_arrays,
)
from .kernels import KernelKind
from .minkowski import ETA, PhysicalConstants, krein_covector_map, validate_unit_timelike
from .testfn import GaussianBump, mean, project_psi


class PositivityError(ArithmeticError):
    """A positivity property failed beyond the quadrature error budget."""


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


def sigma(f, g, constants, cfg):
    """Symplectic form sigma(f, g); exactly antisymmetric by construction."""
    r = bilinear_form(KernelKind.LIGHTCONE, f, g, ETA, cfg)
    scale = constants.kappa_sq / (8.0 * math.pi)
    return QuadratureResult(
        -scale * r.value, scale * r.error_estimate, r.method, r.evals, r.converged
    )


def sigma_indexed(f, psi, constants, cfg):
    """Componentwise sigma(f, psi)_mu with the scalar psi in the second slot.

    Returns (components ndarray, error estimate, evals, converged flag);
    the free covector index of f survives while its profiles are paired
    against psi through the light-cone kernel.
    """
    scale = constants.kappa_sq / (8.0 * math.pi)
    centers, widths, weights, covectors = smearing_arrays(f)
    weighted = weights[:, None] * covectors
    values, errors, evals, converged = pair_integrals(
        KernelKind.LIGHTCONE, *pair_geometry(centers, widths, *bump_arrays([psi])), cfg
    )
    comps = -scale * (values @ weighted)
    err = scale * float(errors @ np.abs(weighted).max(axis=1))
    return comps, err, evals, converged


def krein_J(f, u=(1.0, 0.0, 0.0, 0.0)):
    """Apply the fundamental symmetry to the covectors of f; J(J(f)) = f."""
    return f.map_covectors(krein_covector_map(u))


def log_minus_form(f, g, contraction, cfg):
    """Clipped log pairing: 1/4 min[Q(f+g), 0] - 1/4 min[Q(f-g), 0].

    Q is the plain LOGABS quadratic form with the given contraction.  On
    the diagonal f = g this reduces to min[Q(f), 0].
    """
    plus = bilinear_form(KernelKind.LOGABS, f + g, f + g, contraction, cfg)
    minus = bilinear_form(KernelKind.LOGABS, f - g, f - g, contraction, cfg)
    value = 0.25 * min(plus.value, 0.0) - 0.25 * min(minus.value, 0.0)
    err = 0.25 * (plus.error_estimate + minus.error_estimate)
    return QuadratureResult(
        value,
        err,
        Method.REDUCED1D,
        plus.evals + minus.evals,
        plus.converged and minus.converged,
    )


def dm_bilinear(f, g, params, cfg):
    """The regularized bilinear form Delta_{alpha,psi}(f, g).

    Assembled from its expanded four-term shape; the imaginary part equals
    (1/2) sigma(f, g) exactly because it is attached once rather than
    integrated separately.  With kappa = 0 every term vanishes (classical
    limit).
    """
    kappa_sq = params.constants.kappa_sq
    if kappa_sq == 0.0:
        return QuadratureResult(0.0 + 0.0j, 0.0, Method.ANALYTIC, 0, True)
    pf = project_psi(f, params.psi)
    pg = project_psi(g, params.psi)
    log_term = log_minus_form(pf, pg, ETA, cfg)
    log_scale = kappa_sq / (16.0 * math.pi**2)

    mean_term = params.state_alpha * kappa_sq * float(mean(f) @ ETA @ mean(g))

    sf, sf_err, sf_evals, sf_conv = sigma_indexed(f, params.psi, params.constants, cfg)
    sg, sg_err, sg_evals, sg_conv = sigma_indexed(g, params.psi, params.constants, cfg)
    reg_scale = 1.0 / (4.0 * params.state_alpha * kappa_sq)
    reg_term = reg_scale * float(sf @ ETA @ sg)
    reg_err = reg_scale * (
        sf_err * float(np.max(np.abs(sg)) + sg_err)
        + sg_err * float(np.max(np.abs(sf)))
    )

    sig = sigma(f, g, params.constants, cfg)

    value = (
        -log_scale * log_term.value + mean_term + reg_term + 0.5j * sig.value
    )
    err = log_scale * log_term.error_estimate + reg_err + 0.5 * sig.error_estimate
    evals = log_term.evals + sig.evals + sf_evals + sg_evals
    conv = log_term.converged and sig.converged and sf_conv and sg_conv
    return QuadratureResult(value, err, Method.REDUCED1D, evals, conv)


def mu2(f, g, params, cfg):
    """Twisted two-point functional Delta_{alpha,psi}(f, J g).

    On the diagonal the imaginary part must vanish (sigma(f, Jf) = 0) and
    the real part must be non-negative; violations beyond the error budget
    raise :class:`PositivityError` since they signal a quadrature failure.
    """
    result = dm_bilinear(f, krein_J(g, params.u), params, cfg)
    if f == g:
        budget = 5.0 * result.error_estimate + 1e-10 * (1.0 + abs(result.value))
        if abs(result.value.imag) > budget:
            raise PositivityError(
                f"Im mu2(f,f) = {result.value.imag!r} exceeds error budget {budget!r}"
            )
        if result.value.real < -budget:
            raise PositivityError(
                f"Re mu2(f,f) = {result.value.real!r} negative beyond budget {budget!r}"
            )
    return result


@dataclass(frozen=True)
class GramReport:
    """Eigenvalue verdict for one of the state-positivity Gram matrices."""

    matrix: np.ndarray
    min_eigenvalue: float
    is_psd: bool
    which: str

    @classmethod
    def from_matrix(cls, matrix, which):
        herm = 0.5 * (matrix + matrix.conj().T)
        if not np.allclose(matrix, herm, atol=1e-12 * max(1.0, np.abs(matrix).max())):
            raise ValueError(f"{which} matrix is not Hermitian")
        eigs = np.linalg.eigvalsh(herm)
        norm = float(np.max(np.abs(eigs))) if len(eigs) else 0.0
        min_eig = float(eigs[0]) if len(eigs) else 0.0
        return cls(matrix, min_eig, bool(min_eig >= -1e-10 * norm), which)


def gram_check(family, params, cfg):
    """Build and test the Gram matrices N and M of a smearing family.

    N_kl is mu2(f_k, f_l), which already carries the (i/2) sigma part in its
    imaginary component.  Only the upper triangle is integrated, the lower
    one is its conjugate (Hermiticity is an identity of the form, not a
    numerical accident).  The reported M is the diagonal congruence
    rescaling exp[N_kl - (N_kk + N_ll)/2] of the elementwise exponential;
    it shares the positivity verdict with exp(N) by Sylvester's law while
    staying inside floating-point range for large mu2 values.
    """
    n = len(family)
    N = np.zeros((n, n), dtype=complex)
    for k in range(n):
        for l in range(k, n):
            N[k, l] = mu2(family[k], family[l], params, cfg).value
            if l != k:
                N[l, k] = N[k, l].conjugate()
    diag = np.real(np.diag(N))
    M = np.exp(N - 0.5 * (diag[:, None] + diag[None, :]))
    return (
        GramReport.from_matrix(N, "N_MATRIX"),
        GramReport.from_matrix(M, "M_MATRIX"),
    )


def pair_condition(f, g, params, cfg):
    """State condition margin mu2(f,f) mu2(g,g) - (1/4) sigma(f, Jg)^2.

    Returns (condition holds, margin); the sigma entering here is the
    Krein-twisted pairing, consistent with the mu2 construction.
    """
    m_ff = mu2(f, f, params, cfg).value.real
    m_gg = mu2(g, g, params, cfg).value.real
    s = sigma(f, krein_J(g, params.u), params.constants, cfg)
    margin = m_ff * m_gg - 0.25 * s.value**2
    return margin >= 0.0, margin
