"""Test-function space: Gaussian bumps, covector-weighted smearings, means.

A :class:`GaussianBump` is a positive profile with unit integral (mean 1),
so in the narrow-width limit it localizes a spacetime point.  A
:class:`VectorSmearing` is a finite linear combination of covector-weighted
bumps; all zeroth and first moments are evaluated analytically so that the
classical-limit identities hold exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .minkowski import FourCovector, Frame, SpacetimePoint, as_components

ZERO_COVECTOR = (0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class GaussianBump:
    """Normalized Gaussian profile (a/pi)^2 exp[-a sum_mu (x-p)_mu^2].

    The exponent uses the Euclidean sum over all four coordinates; `width`
    is the exponent coefficient a, so the per-axis variance is 1/(2a) and
    the integral over spacetime is exactly 1.
    """

    center: SpacetimePoint
    width: float

    def __init__(self, center, width):
        center = center if isinstance(center, SpacetimePoint) else SpacetimePoint(center)
        width = float(width)
        if not (width > 0.0 and math.isfinite(width)):
            raise ValueError("width must be positive and finite")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "width", width)

    @property
    def norm_constant(self):
        return (self.width / math.pi) ** 2

    def profile(self, points):
        """Evaluate at one point (shape (4,)) or a batch (shape (n, 4))."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d = pts - self.center.array
        vals = self.norm_constant * np.exp(-self.width * np.sum(d * d, axis=1))
        return vals[0] if np.asarray(points).ndim == 1 else vals


@dataclass(frozen=True)
class SmearingTerm:
    covector: tuple
    bump: GaussianBump
    weight: float


@dataclass(frozen=True)
class VectorSmearing:
    """Finite sum f_mu(x) = sum_k weight_k v_mu^(k) bump_k(x), in canonical form.

    Canonicalization merges terms with identical (covector, bump), prunes
    zero weights and zero covectors, and sorts terms, so equal smearings
    compare and hash equal.  The zero smearing has an empty term tuple.
    """

    terms: tuple

    def __init__(self, terms):
        merged = {}
        for term in terms:
            if isinstance(term, SmearingTerm):
                v, bump, w = term.covector, term.bump, term.weight
            else:
                v, bump, w = term
            v = as_components(v, "covector")
            bump = bump if isinstance(bump, GaussianBump) else GaussianBump(*bump)
            key = (v, bump)
            merged[key] = merged.get(key, 0.0) + float(w)
        if not all(math.isfinite(w) for w in merged.values()):
            raise ValueError("smearing weights must be finite")
        kept = [
            SmearingTerm(v, bump, w)
            for (v, bump), w in merged.items()
            if w != 0.0 and v != ZERO_COVECTOR
        ]
        kept.sort(key=lambda t: (t.bump.center.components, t.bump.width, t.covector, t.weight))
        object.__setattr__(self, "terms", tuple(kept))

    def __add__(self, other):
        return VectorSmearing(self.terms + other.terms)

    def __neg__(self):
        return self.scaled(-1.0)

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c):
        c = float(c)
        return VectorSmearing(
            tuple(SmearingTerm(t.covector, t.bump, c * t.weight) for t in self.terms)
        )

    def is_zero(self):
        return not self.terms

    def map_covectors(self, matrix):
        """Apply a mixed-index 4x4 matrix to every covector, profiles untouched."""
        matrix = np.asarray(matrix, dtype=float)
        return VectorSmearing(
            tuple(
                SmearingTerm(tuple(matrix @ np.array(t.covector)), t.bump, t.weight)
                for t in self.terms
            )
        )


ZERO_SMEARING = VectorSmearing(())


def single_term(covector, bump, weight=1.0):
    return VectorSmearing(((covector, bump, weight),))


def scalar_smearing(bump, weight=1.0):
    """Scalar profile carried on the reference covector (1, 0, 0, 0).

    Combined with the identity contraction this turns the bilinear-form
    machinery into plain scalar pair integrals.
    """
    return single_term((1.0, 0.0, 0.0, 0.0), bump, weight)


def evaluate(f, x):
    """Pointwise value f_mu(x) as a FourCovector."""
    xc = np.array(as_components(x, "point x"))
    total = np.zeros(4)
    for t in f.terms:
        total += t.weight * t.bump.profile(xc) * np.array(t.covector)
    return FourCovector(tuple(total))


def _fsum_columns(rows):
    """Exactly rounded sum of each column of an (n, 4) array, as a (4,) array.

    The sum does not depend on the row order, so every route that sums the
    same products gives the same bits.
    """
    return np.array([math.fsum(column) for column in rows.T.tolist()])


def mean(f):
    """Mean vector integral of f_mu over spacetime, evaluated analytically.

    Each normalized bump integrates to 1, so the mean is the weight-covector
    sum, exactly rounded per component.
    """
    return _fsum_columns(np.array([t.weight * np.array(t.covector) for t in f.terms]).reshape(-1, 4))


def moment1(f):
    """First moment integral of x^mu f_mu(x), evaluated analytically.

    The first moment of a normalized Gaussian is its center, so each term
    contributes weight * (v_mu center^mu) with the plain index contraction.
    """
    total = 0.0
    for t in f.terms:
        total += t.weight * float(np.dot(t.covector, t.bump.center.components))
    return total


def project_psi(f, psi):
    """Mean-subtraction projector: f_mu(x) - fbar_mu psi(x).

    psi must have mean 1 (any GaussianBump does); the result has mean
    vector exactly zero and the projector is idempotent.
    """
    psi = psi if isinstance(psi, GaussianBump) else GaussianBump(*psi)
    fbar = mean(f)
    return f + single_term(tuple(fbar), psi, -1.0)


def frame_smearings(chi, frame):
    """The four smearings f^(a)_mu = e_mu^(a) chi, one per frame covector."""
    frame = frame if isinstance(frame, Frame) else Frame(frame)
    return tuple(single_term(c.components, chi, 1.0) for c in frame.covectors)


def smearing_to_json(f):
    """Serialize to the documented list-of-terms JSON schema."""
    return [
        {
            "v": list(t.covector),
            "center": list(t.bump.center.components),
            "width": t.bump.width,
            "weight": t.weight,
        }
        for t in f.terms
    ]


def _is_number(value):
    # bool is an int subclass, and JSON true is not a number
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value):
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value!r}")
    return value


#: The shape and range check of each key's value, run after its type check.
_VALUE_CHECKS = {
    "v": lambda value: as_components(value, "covector"),
    "center": lambda value: as_components(value, "center"),
    "width": lambda value: GaussianBump(ZERO_COVECTOR, value).width,
    "weight": _finite,
}


def smearing_from_json(doc):
    """Load a smearing from a JSON document (string or parsed list).

    Every entry is an object with the keys ``v``, ``center`` and ``width``
    and an optional ``weight`` (default 1.0).  A document that is not a
    list, an entry that is not an object, a missing key, an unknown key, a
    value that is not a number (``v`` and ``center``: a list of numbers)
    and a number of the wrong shape or range (not 4 components, a width
    that is not positive, a value that overflows to infinity) raise
    ValueError naming the entry and the key, so a misspelt weight is not
    silently read as 1.0 and null, true or "2" is not read as a number.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, list):
        raise ValueError("smearing must be a JSON list of terms")
    terms = []
    for i, entry in enumerate(doc):
        where = f"smearing[{i}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be a JSON object")
        unknown = sorted(entry.keys() - {"v", "center", "width", "weight"})
        if unknown:
            raise ValueError(f"unknown smearing key {where}.{unknown[0]}")
        missing = [key for key in ("v", "center", "width") if key not in entry]
        if missing:
            raise ValueError(f"missing smearing key {where}.{missing[0]}")
        for key, value in entry.items():
            listed = key in ("v", "center")
            if not (isinstance(value, list) and all(map(_is_number, value)) if listed else _is_number(value)):
                kind = "a list of numbers" if listed else "a number"
                raise ValueError(f"smearing key {where}.{key} must be {kind}")
        values = {"weight": 1.0, **entry}
        for key, check in _VALUE_CHECKS.items():
            try:
                values[key] = check(values[key])
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"smearing key {where}.{key}: {exc}") from None
        terms.append((values["v"], GaussianBump(values["center"], values["width"]), values["weight"]))
    return VectorSmearing(tuple(terms))
