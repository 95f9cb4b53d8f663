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
the functions above; each is a few lines around ``_moments``, which
evaluates the form with two product passes.  A pair integral depends only
on its two bumps, never on the covectors, so ``_moments`` first builds
one kernel table: the LOGABS and the LIGHTCONE matrix over the distinct
bumps of all its smearings and psi (``integrate._kernel_table``, read
from the smearings' bump rows and a block of psi's one bump row, all
(t, x, y, z, width) tuples of floats), each entry the one-pair value on
Python floats.  Each smearing becomes one block on that table, read
from its ``key`` on floats: its weighted covector rows with their bump
indices, and psi carrying -mean(f) as a last row; -mean(f) and
sigma(f, psi) are exactly rounded float sums of those rows.  All blocks
are stacked once.  A value of the form reads two blocks and a
contraction c between them: eta for Delta, and for mu2 the Krein matrix
eta J, so that Delta(f, J g) needs no twisted rows of g; since
J^T eta J = eta, g's own products serve both.  Two
``integrate._products`` passes over that one stack give every product:
the own pass each block's products with itself under eta, on the
LOGABS table alone, and the cross pass every entry's f x g
coefficients under c, each times both tables, the LOGABS products of
all rows and the LIGHTCONE products of their terms (psi's rows read
zeros there).  Every covector product is
``testfn.contract``, elementwise sums in index order with no BLAS, so
a value is the same bits on any BLAS kernel and does not depend on the
other smearings of its call.  An entry (``_two_point``) is then slices
of that pass: Q(Pf + Pg) and Q(Pf - Pg) are the exactly rounded sums
of both blocks' own products and plus or minus twice the f x g
products, the mean term is mean(f) c mean(g), the regulator term
sigma(f, psi) c sigma(g, psi), both from one ``contract`` pass over the
call's entries, and sigma(f, g) the exactly rounded sum of the LIGHTCONE
products.  mu2's positivity guard runs on every entry with f_k == g_l.
A family's Gram matrix reads one table and the two passes for all its
entries, and an element's second moments one table for all its terms,
with one moment for a smearing and its negation: the rows of -f are
those of f with the weights negated, so mu2(-f, -f) is mu2(f, f) bit
for bit.  Every sum of the form is exactly rounded, so term order never
matters, and for u = (1, 0, 0, 0) (where eta J is the identity) the
result is bit-identical to the composition; ``log_minus_form``,
``sigma_indexed``, ``project_psi``, ``krein_J`` and ``sigma`` remain the
definition the tests compare against.

Note the two distinct alpha-like parameters: ``state_alpha`` below is the
state regulator, while Gaussian bumps carry their own ``width``.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .integrate import _kernel_table, _products, _stack, bilinear_form
from .pair import KernelKind, _bump_geometry, _bump_row, _pair_integral
from .testfn import ETA, contract, krein_covector_map, krein_matrix


class PositivityError(ArithmeticError):
    """A positivity property failed beyond the quadrature error budget."""


def sigma(f, g, constants, cfg):
    """Symplectic form sigma(f, g), a float; exactly antisymmetric by construction."""
    r = bilinear_form(KernelKind.LIGHTCONE, f, g, ETA, cfg)
    scale = constants.kappa_sq / (8.0 * math.pi)
    return -scale * r.value


def sigma_indexed(f, psi, constants, cfg):
    """Componentwise sigma(f, psi)_mu with the scalar psi in the second slot.

    Returns the components as an ndarray: the free covector index of f
    survives while its profiles are paired against psi through the
    light-cone kernel, each term's pair on Python floats as in a kernel
    table.  Each component is an exactly rounded sum.
    """
    scale = constants.kappa_sq / (8.0 * math.pi)
    values = [_pair_integral(KernelKind.LIGHTCONE, *_bump_geometry(t.bump, psi)) for t in f.terms]
    columns = list(zip(*f.weighted_rows)) or [()] * 4
    return np.array([-scale * math.fsum(map(operator.mul, values, column)) for column in columns])


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


def _two_point(f_own, g_own, tables, params):
    """Delta_{alpha,psi} of the blocks f and g paired through the contraction c (see module doc).

    f_own and g_own are each block's LOGABS products of its rows (psi's
    last) with themselves under eta, from the own pass.  tables holds the
    entry's slices of the cross pass, the LOGABS products of f's rows
    (psi's last) with g's under c and the LIGHTCONE products of their
    terms, and its two dot products mean(f) c mean(g) and
    sigma(f, psi) c sigma(g, psi).  The rest is exactly rounded sums.
    """
    kappa_sq = params.constants.kappa_sq
    if kappa_sq == 0.0:
        return 0.0 + 0.0j
    cross, fg, means, sigmas = tables
    own = f_own + g_own
    plus = math.fsum(own + [2.0 * x for x in cross])
    minus = math.fsum(own + [-2.0 * x for x in cross])
    log_term = 0.25 * min(plus, 0.0) - 0.25 * min(minus, 0.0)
    log_scale = kappa_sq / (16.0 * math.pi**2)
    mean_term = params.state_alpha * kappa_sq * means
    # a product that underflows to 0 gives the inf that 1/product gives for a
    # subnormal one, and the entry is rejected as not finite
    reg_scale = 4.0 * params.state_alpha * kappa_sq
    reg_term = (1.0 / reg_scale if reg_scale else math.inf) * sigmas
    sig = -kappa_sq / (8.0 * math.pi) * math.fsum(fg)
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

    Every smearing and psi share one kernel table.  Each smearing's block,
    its weighted covector rows read from ``key`` and psi's row carrying
    -mean(f), is stacked once, with -mean(f) and sigma(f, psi) formed as
    exactly rounded float sums.  Two ``_products`` passes over that stack
    give all the products: the own pass, each block with itself under eta
    on the LOGABS table alone, and the cross pass, each entry under the
    contraction c on the LOGABS and the LIGHTCONE table, both from the
    same coefficients.  psi's rows read a slot of their own in both
    tables, psi's LOGABS values and LIGHTCONE zeros, since psi may share
    its bump with a term, so an entry's LIGHTCONE products are those of
    its terms and a signed zero for each coefficient of a psi row, which
    leaves an exactly rounded sum as it is (``math.fsum`` of zeros is
    +0.0).  An entry is then slices of the two passes, exactly rounded
    sums and its mean and sigma(., psi) dot products under c, which one
    ``contract`` pass gives for all entries, in the order of entries.  An entry that is not finite, where a center
    separation or a product overflowed or 4 alpha kappa^2 underflowed,
    raises ValueError; mu2's positivity guard runs on every twisted entry
    with f_k == f_l.
    """
    indices, (logabs, lightcone) = _kernel_table(
        [f.bump_rows for f in smearings] + [(_bump_row(params.psi),)], (KernelKind.LOGABS, KernelKind.LIGHTCONE)
    )
    (psi,), slot = indices[-1], len(logabs)
    scale = params.constants.kappa_sq / (8.0 * math.pi)
    against_psi = lightcone[:, psi].tolist()
    index_blocks, row_blocks, means, sigmas = [], [], [], []
    for f, index in zip(smearings, indices):
        terms = f.weighted_rows
        columns = list(zip(*terms)) or [()] * 4
        values = [against_psi[i] for i in index]
        means.append([-math.fsum(column) for column in columns])
        sigmas.append([-scale * math.fsum(map(operator.mul, values, column)) for column in columns])
        index_blocks.append(index + [slot])
        row_blocks.append(terms + [means[-1]])
    stack = _stack(index_blocks, row_blocks)
    # psi's own slot: its LOGABS row and column, and LIGHTCONE zeros
    ext = [*range(slot), psi]
    logabs = logabs.take(ext, 0).take(ext, 1)
    light = np.zeros((slot + 1, slot + 1))
    light[:slot, :slot] = lightcone
    contraction = krein_matrix(params.u) if twisted else ETA
    (own,) = _products((logabs,), stack, [(k, k) for k in range(len(smearings))], ETA)
    logs, fgs = _products((logabs, light), stack, entries, contraction)
    # every entry's mean(f) c mean(g), the signs of -mean(f) and -mean(g)
    # cancelling exactly, and sigma(f, psi) c sigma(g, psi)
    left, right = np.array(entries, dtype=np.intp).reshape(-1, 2).T
    ends = np.array([means, sigmas], dtype=float).reshape(2, -1, 4)
    # a dot product that overflows is inf or nan, and its entry is rejected
    # as not finite below
    with np.errstate(over="ignore", invalid="ignore"):
        dots = contract(contract(ends, contraction)[:, left], ends[:, right, :, None])[..., 0].tolist()
    values = []
    for (k, l), *tables in zip(entries, logs, fgs, *dots):
        values.append(_two_point(own[k], own[l], tables, params))
        if not cmath.isfinite(values[-1]):
            raise ValueError(f"{'mu2' if twisted else 'Delta'}(f_{k}, f_{l}) is not finite: {values[-1]!r}")
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

    One kernel table serves all of them, and smearings are matched by
    value, on ``key``: equal smearings, such as f and a twin that differs
    only in the sign of a zero entry, share one evaluation, and so do f
    and -f, whose key rows are those of f with the weight (the last
    entry) negated.  The rows of -f are those of f with the weights
    negated, so every coefficient product, sum, mean row and
    sigma(., psi) row comes out the same or exactly negated, and the
    moment of -f is the moment of f bit for bit.  A twin's products are
    f's but for the sign of a zero, which a sum keeps only when all its
    addends are zero.  mu2's positivity guard runs on every twisted value
    as it is evaluated, that is on the first of f and -f in the list.
    The zero smearing's moment is 0 exactly, so it is not evaluated.
    """
    slots, live, where = {}, [], []
    for f in smearings:
        if f.key and f.key not in slots:
            slots[f.key] = slots[tuple((*row[:9], -row[9]) for row in f.key)] = len(live)
            live.append(f)
        where.append(slots.get(f.key))
    moments = _moments(live, params, twisted, [(k, k) for k in range(len(live))])
    return [0.0 if slot is None else moments[slot] for slot in where]


@dataclass(frozen=True)
class GramReport:
    """Eigenvalue verdict for one of the state-positivity Gram matrices."""

    matrix: np.ndarray
    min_eigenvalue: float
    is_psd: bool
    which: str

    @classmethod
    def from_matrix(cls, matrix, which):
        """The report of a square matrix; ValueError when it is not Hermitian, or not finite.

        The check is np.allclose(matrix, herm, atol=1e-12 max(1, max |entry|))
        spelled out, herm the Hermitian part: an entry passes when
        |x - h| <= atol + 1e-5 |h| with h finite, or when x == h.  So +-inf
        and NaN entries get allclose's verdict, and the arithmetic on them
        raises no floating-point warning.  A matrix that passes with an
        inf entry is then refused before eigvalsh, whose verdict on it
        depends on the LAPACK build; herm is finite exactly where the
        matrix is.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            atol = 1e-12 * max(1.0, np.abs(matrix).max(initial=0.0))
            # halved before the sum, as in gram_check, so a finite matrix stays finite
            herm = 0.5 * matrix + 0.5 * matrix.conj().T
            finite = np.isfinite(herm)
            close = (np.abs(matrix - herm) <= atol + 1e-5 * np.abs(herm)) & finite | (matrix == herm)
        if not close.all():
            raise ValueError(f"{which} matrix is not Hermitian")
        if not finite.all():
            raise ValueError(f"{which} matrix is not finite")
        eigs = np.linalg.eigvalsh(herm)
        norm = float(np.max(np.abs(eigs))) if len(eigs) else 0.0
        min_eig = float(eigs[0]) if len(eigs) else 0.0
        return cls(matrix, min_eig, bool(min_eig >= -1e-10 * norm), which)


def gram_check(family, params, cfg):
    """Build and test the Gram matrices N and M of a smearing family.

    N_kl is mu2(f_k, f_l), which already carries the (i/2) sigma part in its
    imaginary component.  ``_moments`` builds each member's block once on
    one kernel table of the family and psi and evaluates the upper triangle
    from its two product passes, with mu2's positivity guard wherever
    f_k == f_l.
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
    # halved before the sum, which is the same bits wherever no term is
    # subnormal and finite wherever N is
    M = np.exp(N - (0.5 * diag[:, None] + 0.5 * diag[None, :]))
    return (
        GramReport.from_matrix(N, "N_MATRIX"),
        GramReport.from_matrix(M, "M_MATRIX"),
    )
