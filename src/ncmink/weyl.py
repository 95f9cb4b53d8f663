"""Finite Weyl-algebra elements and the functionals evaluated on them.

Elements are finite complex combinations sum_k alpha_k W(f_k) kept in a
canonical form (smearings canonicalized, zero coefficients pruned).  The
product follows the exponentiated commutation rule

    W(f) W(g) = W(f + g) exp[-(i/2) s(f, g)]

where the pairing s is either the plain symplectic form sigma or its
Krein-twisted version sigma(., J.): the twisted pairing is the one under
which the regularized state is positive, the plain one drives the causal
functional.  :class:`WeylCalculus` fixes that choice once and caches sigma
values per smearing pair.  Sigma and the second moments are closed forms,
so the product phases and coefficients are exact up to rounding: elements
carry no error, and ``eval_omega`` and ``eval_tau`` return ANALYTIC
results (error 0, evals 0, converged).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .integrate import _analytic, bilinear_form
from .kernels import KernelKind
from .minkowski import ETA, krein_matrix
from .state import dm_bilinear, mu2
from .testfn import ZERO_SMEARING, moment1

PAIRINGS = ("plain", "krein")


def _smearing_key(f):
    return tuple(
        (t.covector, t.bump.center.components, t.bump.width, t.weight) for t in f.terms
    )


@dataclass(frozen=True)
class WeylElement:
    """Canonical finite combination of Weyl generators.

    ``terms`` maps canonicalized smearings to complex coefficients (stored
    as a sorted tuple of pairs so elements hash and compare by value).
    """

    terms: tuple

    @classmethod
    def from_dict(cls, coeffs):
        kept = tuple(
            sorted(
                ((f, complex(c)) for f, c in coeffs.items() if c != 0.0),
                key=lambda item: _smearing_key(item[0]),
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

    Sigma values are cached per ordered smearing pair, and mu2 diagonals
    per smearing and state, so repeated algebra does not re-integrate.
    """

    def __init__(self, constants, cfg, u=(1.0, 0.0, 0.0, 0.0), pairing="krein"):
        if pairing not in PAIRINGS:
            raise ValueError(f"pairing must be one of {PAIRINGS}")
        self.constants = constants
        self.cfg = cfg
        # sigma(f, J g) is the light-cone form of f and g contracted with
        # eta J, the Krein matrix, so no twisted smearing is built
        self._contraction = krein_matrix(u) if pairing == "krein" else ETA
        self._sigma_cache = {}
        self._mu2_cache = {}

    def sigma_value(self, f, g):
        """Cached pairing value s(f, g) as a float.

        s(f, f) is 0 exactly, also for a Krein matrix that is not diagonal.
        """
        key = (_smearing_key(f), _smearing_key(g))
        if key[0] == key[1]:
            return 0.0
        if key not in self._sigma_cache:
            form = bilinear_form(KernelKind.LIGHTCONE, f, g, self._contraction, self.cfg)
            self._sigma_cache[key] = -self.constants.kappa_sq / (8.0 * math.pi) * form.value
        return self._sigma_cache[key]

    def mul(self, A, B):
        """Bilinear extension of W(f) W(g) = W(f+g) exp[-(i/2) s(f,g)]."""
        coeffs = {}
        for f, a in A.terms:
            for g, b in B.terms:
                phase = cmath.exp(-0.5j * self.sigma_value(f, g))
                h = f + g
                coeffs[h] = coeffs.get(h, 0.0) + a * b * phase
        return WeylElement.from_dict(coeffs)

    def star(self, A):
        return A.star()

    def _mu2_diag(self, f, params):
        key = (_smearing_key(f), params)
        if key not in self._mu2_cache:
            self._mu2_cache[key] = mu2(f, f, params, self.cfg)
        return self._mu2_cache[key]

    def eval_omega(self, A, params):
        """The quasi-free state: sum_k alpha_k exp[i mu1(f_k) - mu2(f_k,f_k)/2]."""
        return self._evaluate(A, lambda f: self._mu2_diag(f, params))

    def eval_tau(self, A, params):
        """The non-positive functional built on Delta directly (no J twist).

        Delta(f, f) is real but can be negative, so |tau(W(f))| may exceed 1;
        that is what makes tau the physically sensible functional for the
        geometric observables.
        """
        return self._evaluate(A, lambda f: dm_bilinear(f, f, params, self.cfg))

    @staticmethod
    def _evaluate(A, second_moment):
        """sum_k alpha_k exp[i mu1(f_k) - second_moment(f_k).real / 2] as an ANALYTIC result."""
        total = 0.0j
        for f, c in A.terms:
            total += c * cmath.exp(1j * moment1(f) - 0.5 * second_moment(f).real)
        return _analytic(total)
