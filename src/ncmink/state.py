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

``dm_bilinear``, ``mu2``, ``gram_check`` and ``diagonal_moments`` (the
second moments the Weyl calculus evaluates the state with) do not compose
the functions above; each is a few lines around ``_moments``, the one loop
over the form.  A pair integral depends only on its two bumps, never on
the covectors, so ``_moments`` first builds one kernel table: the LOGABS
and the LIGHTCONE matrix over the distinct bumps of all its smearings and
psi (``integrate._kernel_table``).  Each smearing becomes term rows, its
weighted covectors with their indices into that table, and ``_moments``
evaluates the requested (f_k, g_l) entries from them, with mu2's
positivity guard on every Krein-twisted entry where f_k == g_l.  A value
of the form is covector algebra on the rows of f, psi carrying -mean(f), g
(Krein-twisted for mu2) and psi carrying -mean(g): the LOGABS products of
the nonzero-coefficient pairs give Q(Pf + Pg) and Q(Pf - Pg) as two exactly
rounded sums (the g block's signs flipped in the second), and the f x psi,
g x psi and f x g LIGHTCONE blocks give the regulator and sigma terms.  A
family's Gram matrix reads one table for all its entries, and an element's
second moments one table for all its terms.  Every product and sum is the
one the composition computes, so for u = (1, 0, 0, 0) the result is
bit-identical to it; ``log_minus_form``, ``sigma_indexed``,
``project_psi``, ``krein_J`` and ``sigma`` remain the definition the tests
compare against.

Note the two distinct alpha-like parameters: ``state_alpha`` below is the
state regulator, while Gaussian bumps carry their own ``width``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .integrate import (
    _kernel_table,
    bilinear_form,
    bump_arrays,
    pair_coefficients,
    pair_geometry,
    pair_integrals,
    smearing_arrays,
)
from .kernels import KernelKind
from .minkowski import ETA, PhysicalConstants, krein_covector_map, validate_unit_timelike
from .testfn import GaussianBump


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
    """Symplectic form sigma(f, g), a float; exactly antisymmetric by construction."""
    r = bilinear_form(KernelKind.LIGHTCONE, f, g, ETA, cfg)
    scale = constants.kappa_sq / (8.0 * math.pi)
    return -scale * r.value


def sigma_indexed(f, psi, constants, cfg):
    """Componentwise sigma(f, psi)_mu with the scalar psi in the second slot.

    Returns the components as an ndarray: the free covector index of f
    survives while its profiles are paired against psi through the
    light-cone kernel.
    """
    scale = constants.kappa_sq / (8.0 * math.pi)
    centers, widths, weights, covectors = smearing_arrays(f)
    values = pair_integrals(KernelKind.LIGHTCONE, *pair_geometry(centers, widths, *bump_arrays([psi])))
    return -scale * (values @ (weights[:, None] * covectors))


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
    return 0.25 * min(plus.value, 0.0) - 0.25 * min(minus.value, 0.0)


class _Kernels(NamedTuple):
    """LOGABS and LIGHTCONE pair integrals among the distinct bumps of some smearings and psi."""

    logabs: np.ndarray  # (m, m)
    lightcone: np.ndarray  # (m, m)
    psi: int  # psi's index into them


class _TermRows(NamedTuple):
    """A smearing's terms as arrays, in its canonical term order, on a kernel table."""

    index: np.ndarray  # (n,), each term's bump in the table
    covectors: np.ndarray  # (n, 4), weight times covector
    mean: np.ndarray  # (4,), testfn.mean of the smearing
    kernels: _Kernels


def _term_arrays(f, twist=None):
    """Centers, widths, weighted covector rows and mean of f, or of f.map_covectors(twist).

    The twisted rows are sorted into the canonical order of the twisted
    smearing, and the mean is summed in term order as ``testfn.mean`` sums
    it, so every number equals the one the smearing route computes.
    """
    centers, widths, weights, covectors = smearing_arrays(f)
    if twist is not None:
        covectors = covectors @ twist.T
        order = np.lexsort((weights, *covectors.T[::-1], widths, *centers.T[::-1]))
        centers, widths, weights, covectors = (
            a[order] for a in (centers, widths, weights, covectors)
        )
    rows = weights[:, None] * covectors
    total = np.zeros(4)
    for row in rows:
        total += row
    return centers, widths, rows, total


def _two_point(fr, gr, params):
    """Delta_{alpha,psi} of the smearings with term rows fr and gr (see module doc)."""
    kappa_sq = params.constants.kappa_sq
    if kappa_sq == 0.0:
        return 0.0 + 0.0j
    nf, ng = len(fr.index), len(gr.index)
    kernels = fr.kernels
    psi = [kernels.psi]
    index = np.concatenate([fr.index, psi, gr.index, psi])
    rows = np.concatenate([fr.covectors, -fr.mean[None], gr.covectors, -gr.mean[None]])
    coef = pair_coefficients(rows, ETA, rows)

    pairs = coef != 0.0
    products = coef[pairs] * kernels.logabs[index[:, None], index][pairs]
    in_g = np.arange(nf + ng + 2) > nf
    cross = (in_g[:, None] != in_g[None, :])[pairs]
    # fsum reads a list faster than an array, to the same exactly rounded sum
    plus = math.fsum(products.tolist())
    minus = math.fsum(np.where(cross, -products, products).tolist())
    log_term = 0.25 * min(plus, 0.0) - 0.25 * min(minus, 0.0)
    log_scale = kappa_sq / (16.0 * math.pi**2)

    mean_term = params.state_alpha * kappa_sq * float(fr.mean @ ETA @ gr.mean)

    # light-cone blocks: f x psi, g x psi and the nonzero pairs of f x g
    scale = kappa_sq / (8.0 * math.pi)
    sf = -scale * (kernels.lightcone[fr.index, kernels.psi] @ fr.covectors)
    sg = -scale * (kernels.lightcone[gr.index, kernels.psi] @ gr.covectors)
    reg_scale = 1.0 / (4.0 * params.state_alpha * kappa_sq)
    reg_term = reg_scale * float(sf @ ETA @ sg)

    fg = coef[:nf, nf + 1 : nf + 1 + ng]
    fg_pairs = fg != 0.0
    sig = -scale * math.fsum(fg[fg_pairs] * kernels.lightcone[fr.index[:, None], gr.index][fg_pairs])
    return -log_scale * log_term + mean_term + reg_term + 0.5j * sig


def _check_diagonal(value):
    """mu2(f, f) must be real and non-negative within the rounding budget."""
    budget = 1e-10 * (1.0 + abs(value))
    if abs(value.imag) > budget:
        raise PositivityError(f"Im mu2(f,f) = {value.imag!r} exceeds error budget {budget!r}")
    if value.real < -budget:
        raise PositivityError(f"Re mu2(f,f) = {value.real!r} negative beyond budget {budget!r}")


def _moments(fs, gs, params, twisted, entries):
    """Delta_{alpha,psi}(fs[k], gs[l]), or mu2 when twisted, for each (k, l) in entries.

    The term rows of fs, of gs (Krein-twisted when ``twisted``) and of psi
    share one kernel table, and the values come in the order of entries.
    Untwisted, the same list as fs and gs builds its rows once.
    mu2's positivity guard runs on every twisted entry with fs[k] == gs[l].
    """
    arrays = [_term_arrays(f) for f in fs]
    if twisted or gs is not fs:
        twist = krein_covector_map(params.u) if twisted else None
        arrays += [_term_arrays(g, twist) for g in gs]
    indices, (logabs, lightcone) = _kernel_table(
        [a[:2] for a in arrays] + [bump_arrays([params.psi])], (KernelKind.LOGABS, KernelKind.LIGHTCONE)
    )
    kernels = _Kernels(logabs, lightcone, int(indices[-1][0]))
    rows = [_TermRows(index, a[2], a[3], kernels) for index, a in zip(indices, arrays)]
    # gs's rows follow fs's, or are fs's own
    offset = len(arrays) - len(gs)
    values = []
    for k, l in entries:
        values.append(_two_point(rows[k], rows[offset + l], params))
        if twisted and fs[k] == gs[l]:
            _check_diagonal(values[-1])
    return values


def dm_bilinear(f, g, params, cfg):
    """The regularized bilinear form Delta_{alpha,psi}(f, g) as a complex number.

    The expanded four-term shape -kappa^2/16pi^2 log_minus_form(Pf, Pg, eta)
    + mean term + regulator term from sigma_indexed + (i/2) sigma(f, g),
    evaluated from the term rows of f and g on one kernel table (see the
    module docstring) with the same products and sums.  The imaginary
    part equals (1/2) sigma(f, g) exactly because it is attached once rather
    than integrated separately.  With kappa = 0 every term vanishes
    (classical limit).
    """
    return _moments([f], [g], params, False, [(0, 0)])[0]


def mu2(f, g, params, cfg):
    """Twisted two-point functional Delta_{alpha,psi}(f, J g) as a complex number.

    The Krein map is applied to g's covector rows, not through krein_J(g).
    On the diagonal the imaginary part must vanish (sigma(f, Jf) = 0) and
    the real part must be non-negative; violations beyond the rounding
    budget 1e-10 (1 + |value|) raise :class:`PositivityError`.
    """
    return _moments([f], [g], params, True, [(0, 0)])[0]


def diagonal_moments(smearings, params, twisted=True):
    """mu2(f, f) of each smearing, or Delta(f, f) when not twisted, as a list.

    One kernel table serves all of them.  mu2's positivity guard runs on
    every twisted value.  The zero smearing's moment is 0 exactly, so it is
    not evaluated.
    """
    live = [f for f in smearings if not f.is_zero()]
    moments = iter(_moments(live, live, params, twisted, [(k, k) for k in range(len(live))]))
    return [0.0 if f.is_zero() else next(moments) for f in smearings]


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
        if not np.allclose(matrix, herm, atol=1e-12 * max(1.0, np.abs(matrix).max(initial=0.0))):
            raise ValueError(f"{which} matrix is not Hermitian")
        eigs = np.linalg.eigvalsh(herm)
        norm = float(np.max(np.abs(eigs))) if len(eigs) else 0.0
        min_eig = float(eigs[0]) if len(eigs) else 0.0
        return cls(matrix, min_eig, bool(min_eig >= -1e-10 * norm), which)


def gram_check(family, params, cfg):
    """Build and test the Gram matrices N and M of a smearing family.

    N_kl is mu2(f_k, f_l), which already carries the (i/2) sigma part in its
    imaginary component.  ``_moments`` builds each member's plain and
    Krein-twisted term rows once on one kernel table of the family and psi
    and evaluates the upper triangle row by row from them, with mu2's
    positivity guard wherever f_k == f_l.  The lower triangle is its
    conjugate (Hermiticity is an identity of the form, not a numerical
    accident); a diagonal entry keeps mu2's own value, whose imaginary
    rounding is not 0 in every frame.
    The reported M is the diagonal congruence rescaling
    exp[N_kl - (N_kk + N_ll)/2] of the elementwise exponential; it shares
    the positivity verdict with exp(N) by Sylvester's law while staying
    inside floating-point range for large mu2 values.
    """
    n = len(family)
    entries = [(k, l) for k in range(n) for l in range(k, n)]
    N = np.zeros((n, n), dtype=complex)
    for (k, l), value in zip(entries, _moments(family, family, params, True, entries)):
        # conjugate first, so that a diagonal entry keeps its own value
        N[l, k] = value.conjugate()
        N[k, l] = value
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
    m_ff = mu2(f, f, params, cfg).real
    m_gg = mu2(g, g, params, cfg).real
    s = sigma(f, krein_J(g, params.u), params.constants, cfg)
    margin = m_ff * m_gg - 0.25 * s**2
    return margin >= 0.0, margin
