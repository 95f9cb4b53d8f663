"""Finite Weyl-algebra elements and the functionals evaluated on them.

Elements are finite complex combinations sum_k alpha_k W(f_k) kept in a
canonical form (smearings canonicalized, zero coefficients pruned, terms
sorted by the smearings' ``key``).  The product follows the exponentiated
commutation rule

    W(f) W(g) = W(f + g) exp[-(i/2) s(f, g)]

where the pairing s is either the plain symplectic form sigma or its
Krein-twisted version sigma(., J.): the twisted pairing is the one under
which the regularized state is positive, the plain one drives the causal
functional.  :class:`WeylCalculus` fixes that choice once.  A product
reads the sigma of every term pair of its two factors from one product
pass over one LIGHTCONE table over their bumps (``integrate._forms``),
and a state evaluation reads the second moment of every term of the
element from the product passes over its one kernel table (``state.diagonal_moments``), so
neither evaluates a bump pair twice.  An element such as a* a holds
terms -f and f in pairs; their second moments are equal bit for bit,
and each pair is evaluated once.  Sigma and the second moments are
closed forms, so the product phases and coefficients are exact up to
rounding: elements carry no error, and ``eval_omega`` and ``eval_tau``
return ANALYTIC results (error 0, evals 0, converged).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .integrate import _forms
from .pair import KernelKind, _analytic
from .state import diagonal_moments
from .testfn import ETA, ZERO_SMEARING, krein_matrix, moment1

PAIRINGS = ("plain", "krein")


@dataclass(frozen=True)
class WeylElement:
    """Canonical finite combination of Weyl generators.

    ``terms`` maps canonicalized smearings to complex coefficients, stored
    as a tuple of pairs sorted by each smearing's ``key`` (its rows term by
    term: covector, center, width, weight), so elements hash and compare
    by value.
    """

    terms: tuple

    @classmethod
    def from_dict(cls, coeffs):
        kept = tuple(
            sorted(
                ((f, complex(c)) for f, c in coeffs.items() if c != 0.0),
                key=lambda item: item[0].key,
            )
        )
        return cls(kept)

    @classmethod
    def generator(cls, f, coefficient=1.0):
        return cls.from_dict({f: complex(coefficient)})

    @classmethod
    def unit(cls):
        return cls.from_dict({ZERO_SMEARING: 1.0})

    def coefficients(self):
        return dict(self.terms)

    def __add__(self, other):
        coeffs = self.coefficients()
        for f, c in other.terms:
            coeffs[f] = coeffs.get(f, 0.0) + c
        return WeylElement.from_dict(coeffs)

    def __rmul__(self, scalar):
        scalar = complex(scalar)
        return WeylElement.from_dict({f: scalar * c for f, c in self.terms})

    def __sub__(self, other):
        return self + (-1.0) * other

    def star(self):
        """Involution: smearings negated, coefficients conjugated."""
        return WeylElement.from_dict({-f: c.conjugate() for f, c in self.terms})


class WeylCalculus:
    """Product, involution and state evaluation with a fixed sigma pairing.

    Nothing is cached on the calculus, so one calculus serves any number of
    states.  A product takes the sigma values of all its term pairs from one
    product pass over one LIGHTCONE table over the bumps of both factors
    (``_sigmas``, the one pairing table; a single pair is its 1 x 1 case),
    and a state evaluation the second moments of all of an element's terms
    from the product passes over their one kernel table (``state.diagonal_moments``), one moment
    for a term and its negation.  The one process-wide pair memo,
    ``pair._pair_cached``, serves the pairs of either kernel that repeat across
    tables, such as those of a family's Gram matrix and of the element
    built on it.  Every value is a closed form, so the ``cfg``
    argument is accepted and not read.
    """

    def __init__(self, constants, cfg, u=(1.0, 0.0, 0.0, 0.0), pairing="krein"):
        if pairing not in PAIRINGS:
            raise ValueError(f"pairing must be one of {PAIRINGS}")
        self.constants = constants
        # sigma(f, J g) is the light-cone form of f and g contracted with
        # eta J, the Krein matrix, so no twisted smearing is built
        self._contraction = krein_matrix(u) if pairing == "krein" else ETA

    def _sigmas(self, fs, gs):
        """Pairing values s(f, g) for f in fs (rows) and g in gs (columns), as floats.

        The scaled LIGHTCONE case of ``integrate._forms``, so each value is
        bit for bit the one ``bilinear_form`` gives.  s(f, f) is 0 exactly,
        also for a Krein matrix that is not diagonal.
        """
        scale = -self.constants.kappa_sq / (8.0 * math.pi)
        forms = _forms(KernelKind.LIGHTCONE, fs, gs, self._contraction)
        return [[0.0 if f == g else scale * s for g, s in zip(gs, row)] for f, row in zip(fs, forms)]

    def mul(self, A, B):
        """Bilinear extension of W(f) W(g) = W(f+g) exp[-(i/2) s(f,g)]."""
        sigmas = self._sigmas([f for f, _ in A.terms], [g for g, _ in B.terms])
        coeffs = {}
        for (f, a), row in zip(A.terms, sigmas):
            for (g, b), s in zip(B.terms, row):
                phase = cmath.exp(-0.5j * s)
                h = f + g
                coeffs[h] = coeffs.get(h, 0.0) + a * b * phase
        return WeylElement.from_dict(coeffs)

    def star(self, A):
        return A.star()

    def eval_omega(self, A, params):
        """The quasi-free state: sum_k alpha_k exp[i mu1(f_k) - mu2(f_k,f_k)/2]."""
        return self._evaluate(A, diagonal_moments([f for f, _ in A.terms], params))

    def eval_tau(self, A, params):
        """The non-positive functional built on Delta directly (no J twist).

        Delta(f, f) is real but can be negative, so |tau(W(f))| may exceed 1;
        that is what makes tau the physically sensible functional for the
        geometric observables.
        """
        return self._evaluate(A, diagonal_moments([f for f, _ in A.terms], params, twisted=False))

    @staticmethod
    def _evaluate(A, moments):
        """sum_k alpha_k exp[i mu1(f_k) - moments[k].real / 2] as an ANALYTIC result.

        The real and the imaginary parts of the terms are each summed exactly
        rounded, so the value does not depend on the term order, and terms
        that are exact conjugates, as the +- terms of a* a are in the rest
        frame, cancel exactly in the imaginary part.
        """
        terms = [c * cmath.exp(1j * moment1(f) - 0.5 * moment.real) for (f, c), moment in zip(A.terms, moments)]
        return _analytic(complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)))
