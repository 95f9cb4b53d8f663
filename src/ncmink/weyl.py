"""Finite Weyl-algebra elements and the functionals evaluated on them.

Elements are finite complex combinations sum_k alpha_k W(f_k) kept in a
canonical form (smearings canonicalized, zero coefficients pruned).  The
product follows the exponentiated commutation rule

    W(f) W(g) = W(f + g) exp[-(i/2) s(f, g)]

where the pairing s is either the plain symplectic form sigma or its
Krein-twisted version sigma(., J.): the twisted pairing is the one under
which the regularized state is positive, the plain one drives the causal
functional.  :class:`WeylCalculus` fixes that choice once, caches sigma
values per smearing pair and tracks the provenance of the product phases:
the accumulated quadrature error, evals and convergence of every sigma
evaluation that went into an element.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

from .integrate import Method, QuadratureResult
from .state import dm_bilinear, krein_J, mu2, sigma
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
    as a sorted tuple of pairs so elements hash and compare by value);
    ``phase_error``, ``phase_evals`` and ``phase_converged`` are the
    accumulated uncertainty, quadrature evals and convergence of all
    product phases that went into the element.
    """

    terms: tuple
    phase_error: float = 0.0
    phase_evals: int = 0
    phase_converged: bool = True

    @classmethod
    def from_dict(cls, coeffs, phase_error=0.0, phase_evals=0, phase_converged=True):
        kept = tuple(
            sorted(
                ((f, complex(c)) for f, c in coeffs.items() if c != 0.0),
                key=lambda item: _smearing_key(item[0]),
            )
        )
        return cls(kept, phase_error, phase_evals, phase_converged)

    def _provenance(self):
        return self.phase_error, self.phase_evals, self.phase_converged

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
        return WeylElement.from_dict(
            coeffs,
            self.phase_error + other.phase_error,
            self.phase_evals + other.phase_evals,
            self.phase_converged and other.phase_converged,
        )

    def __rmul__(self, scalar):
        scalar = complex(scalar)
        return WeylElement.from_dict(
            {f: scalar * c for f, c in self.terms}, *self._provenance()
        )

    def __sub__(self, other):
        return self + (-1.0) * other

    def star(self):
        """Involution: smearings negated, coefficients conjugated."""
        return WeylElement.from_dict(
            {-f: c.conjugate() for f, c in self.terms}, *self._provenance()
        )


class WeylCalculus:
    """Product, involution and state evaluation with a fixed sigma pairing.

    Sigma values are cached per ordered smearing pair with antisymmetry
    folded in, so repeated algebra does not re-integrate.
    """

    def __init__(self, constants, cfg, u=(1.0, 0.0, 0.0, 0.0), pairing="krein"):
        if pairing not in PAIRINGS:
            raise ValueError(f"pairing must be one of {PAIRINGS}")
        self.constants = constants
        self.cfg = cfg
        self.u = u
        self.pairing = pairing
        self._sigma_cache = {}
        self._mu2_cache = {}

    def sigma_value(self, f, g):
        """Cached pairing value as a :class:`QuadratureResult`."""
        kf, kg = _smearing_key(f), _smearing_key(g)
        if kf == kg:
            return QuadratureResult(0.0, 0.0, Method.ANALYTIC, 0, True)
        swap = kf > kg
        key = (kg, kf) if swap else (kf, kg)
        if key not in self._sigma_cache:
            a, b = (g, f) if swap else (f, g)
            second = krein_J(b, self.u) if self.pairing == "krein" else b
            self._sigma_cache[key] = sigma(a, second, self.constants, self.cfg)
        r = self._sigma_cache[key]
        return replace(r, value=-r.value) if swap else r

    def mul(self, A, B):
        """Bilinear extension of W(f) W(g) = W(f+g) exp[-(i/2) s(f,g)]."""
        coeffs = {}
        phase_err = A.phase_error + B.phase_error
        evals = A.phase_evals + B.phase_evals
        converged = A.phase_converged and B.phase_converged
        for f, a in A.terms:
            for g, b in B.terms:
                s = self.sigma_value(f, g)
                coeff = a * b * cmath.exp(-0.5j * s.value)
                h = f + g
                coeffs[h] = coeffs.get(h, 0.0) + coeff
                phase_err += abs(a * b) * 0.5 * s.error_estimate
                evals += s.evals
                converged = converged and s.converged
        return WeylElement.from_dict(coeffs, phase_err, evals, converged)

    def star(self, A):
        return A.star()

    def _mu2_diag(self, f, params):
        key = _smearing_key(f)
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
        """sum_k alpha_k exp[i mu1(f_k) - second_moment(f_k).real / 2].

        Error, evals and convergence combine the phase provenance of A with
        those of every second-moment result used.
        """
        total = 0.0j
        err, evals, converged = A._provenance()
        for f, c in A.terms:
            m = second_moment(f)
            w = cmath.exp(1j * moment1(f) - 0.5 * m.value.real)
            total += c * w
            err += abs(c) * abs(w) * 0.5 * m.error_estimate
            evals += m.evals
            converged = converged and m.converged
        return QuadratureResult(total, err, Method.REDUCED1D, evals, converged)
