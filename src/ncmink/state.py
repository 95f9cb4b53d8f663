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
psi (``integrate._kernel_table``, read from the smearings' center and
width columns).  Each smearing becomes one block on that table: its
weighted covector rows with their bump indices, psi carrying
-mean(f) as a last row, the LOGABS products of those rows with themselves
under eta, and sigma(f, psi).  A value of the form reads two blocks and a
contraction c between them: eta for Delta, and for mu2 the Krein matrix
eta J, so that Delta(f, J g) needs no twisted rows of g; since
J^T eta J = eta, g's own products serve both.  Q(Pf + Pg) and Q(Pf - Pg)
are the exactly rounded sums of both blocks' own products and plus or
minus twice the f x g products under c, the mean term is mean(f) c
mean(g), the regulator term sigma(f, psi) c sigma(g, psi), and sigma(f, g)
the sum of the LIGHTCONE f x g products under c.  mu2's positivity guard
runs on every entry with f_k == g_l.  A family's Gram matrix reads one
table and one block per member for all its entries, and an element's
second moments one table for all its terms.  Every sum of the form is
exactly rounded, so term order never matters, and for u = (1, 0, 0, 0)
(where eta J is the identity) the result is bit-identical to the
composition; ``log_minus_form``, ``sigma_indexed``, ``project_psi``,
``krein_J`` and ``sigma`` remain the definition the tests compare against.

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
    _products,
    bilinear_form,
    bump_arrays,
    pair_geometry,
    pair_integrals,
)
from .kernels import KernelKind
from .minkowski import ETA, PhysicalConstants, krein_covector_map, krein_matrix, validate_unit_timelike
from .testfn import GaussianBump, _fsum_columns


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
    light-cone kernel.  Each component is an exactly rounded sum.
    """
    scale = constants.kappa_sq / (8.0 * math.pi)
    values = pair_integrals(KernelKind.LIGHTCONE, *pair_geometry(f.centers, f.widths, *bump_arrays([psi])))
    return -scale * _fsum_columns(values[:, None] * (f.weights[:, None] * f.covectors))


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


class _Block(NamedTuple):
    """A smearing on a kernel table, with psi carrying -mean(f) as its last row."""

    index: np.ndarray  # (n + 1,), each term's bump in the table, then psi's
    rows: np.ndarray  # (n + 1, 4), weight times covector, then -mean(f)
    own: list  # LOGABS products of the rows with themselves under eta
    sigma: np.ndarray  # (4,), sigma(f, psi)


def _two_point(f, g, tables, contraction, params):
    """Delta_{alpha,psi} of the blocks f and g paired through the contraction (see module doc)."""
    kappa_sq = params.constants.kappa_sq
    if kappa_sq == 0.0:
        return 0.0 + 0.0j
    logabs, lightcone = tables
    own = f.own + g.own
    cross = 2.0 * _products(logabs, f.index, f.rows, contraction, g.index, g.rows)
    # fsum reads a list faster than an array, to the same exactly rounded sum
    plus = math.fsum(own + cross.tolist())
    minus = math.fsum(own + (-cross).tolist())
    log_term = 0.25 * min(plus, 0.0) - 0.25 * min(minus, 0.0)
    log_scale = kappa_sq / (16.0 * math.pi**2)
    # the last rows are -mean(f) and -mean(g); their signs cancel exactly
    mean_term = params.state_alpha * kappa_sq * float(f.rows[-1] @ contraction @ g.rows[-1])
    reg_scale = 1.0 / (4.0 * params.state_alpha * kappa_sq)
    reg_term = reg_scale * float(f.sigma @ contraction @ g.sigma)
    fg = _products(lightcone, f.index[:-1], f.rows[:-1], contraction, g.index[:-1], g.rows[:-1])
    sig = -kappa_sq / (8.0 * math.pi) * math.fsum(fg.tolist())
    return -log_scale * log_term + mean_term + reg_term + 0.5j * sig


def _check_diagonal(value):
    """mu2(f, f) must be real and non-negative within the rounding budget."""
    budget = 1e-10 * (1.0 + abs(value))
    if abs(value.imag) > budget:
        raise PositivityError(f"Im mu2(f,f) = {value.imag!r} exceeds error budget {budget!r}")
    if value.real < -budget:
        raise PositivityError(f"Re mu2(f,f) = {value.real!r} negative beyond budget {budget!r}")


def _moments(smearings, params, twisted, entries):
    """Delta_{alpha,psi}(f_k, f_l), or mu2 when twisted, for each (k, l) in entries.

    Every smearing and psi share one kernel table, each smearing is one
    block on it, and the values come in the order of entries.  mu2's
    positivity guard runs on every twisted entry with f_k == f_l.
    """
    indices, tables = _kernel_table(
        [(f.centers, f.widths) for f in smearings] + [bump_arrays([params.psi])],
        (KernelKind.LOGABS, KernelKind.LIGHTCONE),
    )
    logabs, lightcone = tables
    psi = indices[-1]
    scale = params.constants.kappa_sq / (8.0 * math.pi)
    blocks = []
    for index, f in zip(indices, smearings):
        rows = f.weights[:, None] * f.covectors
        sig = -scale * _fsum_columns(lightcone[index, psi[0]][:, None] * rows)
        index, rows = np.concatenate([index, psi]), np.vstack([rows, -_fsum_columns(rows)])
        blocks.append(_Block(index, rows, _products(logabs, index, rows, ETA, index, rows).tolist(), sig))
    contraction = krein_matrix(params.u) if twisted else ETA
    values = []
    for k, l in entries:
        values.append(_two_point(blocks[k], blocks[l], tables, contraction, params))
        if twisted and smearings[k] == smearings[l]:
            _check_diagonal(values[-1])
    return values


def dm_bilinear(f, g, params, cfg):
    """The regularized bilinear form Delta_{alpha,psi}(f, g) as a complex number.

    The expanded four-term shape -kappa^2/16pi^2 log_minus_form(Pf, Pg, eta)
    + mean term + regulator term from sigma_indexed + (i/2) sigma(f, g),
    evaluated from the blocks of f and g on one kernel table (see the
    module docstring) with the same products and sums.  The imaginary
    part equals (1/2) sigma(f, g) exactly because it is attached once rather
    than integrated separately.  With kappa = 0 every term vanishes
    (classical limit).
    """
    return _moments([f, g], params, False, [(0, 1)])[0]


def mu2(f, g, params, cfg):
    """Twisted two-point functional Delta_{alpha,psi}(f, J g) as a complex number.

    The Krein twist is the contraction eta J between the blocks of f and g,
    not a twisted smearing krein_J(g).
    On the diagonal the imaginary part must vanish (sigma(f, Jf) = 0) and
    the real part must be non-negative; violations beyond the rounding
    budget 1e-10 (1 + |value|) raise :class:`PositivityError`.
    """
    return _moments([f, g], params, True, [(0, 1)])[0]


def diagonal_moments(smearings, params, twisted=True):
    """mu2(f, f) of each smearing, or Delta(f, f) when not twisted, as a list.

    One kernel table serves all of them.  mu2's positivity guard runs on
    every twisted value.  The zero smearing's moment is 0 exactly, so it is
    not evaluated.
    """
    live = [f for f in smearings if not f.is_zero()]
    moments = iter(_moments(live, params, twisted, [(k, k) for k in range(len(live))]))
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
    imaginary component.  ``_moments`` builds each member's block once on
    one kernel table of the family and psi and evaluates the upper triangle
    row by row from them, with mu2's positivity guard wherever f_k == f_l.
    The lower triangle is its conjugate (Hermiticity is an identity of the
    form, not a numerical accident); a diagonal entry keeps mu2's own
    value, whose imaginary rounding is not 0 in every frame.
    The reported M is the diagonal congruence rescaling
    exp[N_kl - (N_kk + N_ll)/2] of the elementwise exponential; it shares
    the positivity verdict with exp(N) by Sylvester's law while staying
    inside floating-point range for large mu2 values.
    """
    n = len(family)
    entries = [(k, l) for k in range(n) for l in range(k, n)]
    N = np.zeros((n, n), dtype=complex)
    for (k, l), value in zip(entries, _moments(family, params, True, entries)):
        # conjugate first, so that a diagonal entry keeps its own value
        N[l, k] = value.conjugate()
        N[k, l] = value
    diag = np.real(np.diag(N))
    M = np.exp(N - 0.5 * (diag[:, None] + diag[None, :]))
    return (
        GramReport.from_matrix(N, "N_MATRIX"),
        GramReport.from_matrix(M, "M_MATRIX"),
    )
