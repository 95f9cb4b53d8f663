"""Test-function space: Gaussian bumps, covector-weighted smearings, means.

A :class:`GaussianBump` is a positive profile with unit integral (mean 1),
so in the narrow-width limit it localizes a spacetime point.  Bumps enter
every result through their center and width alone (closed-form moments and
pair integrals), so no profile is ever evaluated pointwise.  A
:class:`VectorSmearing` is a finite linear combination of covector-weighted
bumps, held as one canonical read-only array with a row (covector, center,
width, weight) per term.  Sums, scaling and covector maps are array
operations, and the forms, the state and the Weyl calculus read its column
views, so no per-term object is built on their paths.  All zeroth and first
moments are evaluated analytically so that the classical-limit identities
hold exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .minkowski import SpacetimePoint, as_components

ZERO_COVECTOR = (0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class GaussianBump:
    """Normalized Gaussian profile (a/pi)^2 exp[-a sum_mu (x-p)_mu^2].

    The exponent uses the Euclidean sum over all four coordinates; `width`
    is the exponent coefficient a, so the per-axis variance is 1/(2a) and
    the integral over spacetime is exactly 1.  The width must lie in
    [1e-150, 1e150]: any two widths there have a finite, normal product
    a a' and a finite sum a + a', so every combined width
    b = a a' / (a + a') of a pair integral is a finite positive float.
    """

    center: SpacetimePoint
    width: float

    def __init__(self, center, width):
        center = center if isinstance(center, SpacetimePoint) else SpacetimePoint(center)
        width = float(width)
        if not 1e-150 <= width <= 1e150:
            raise ValueError(f"width must be positive and finite, within [1e-150, 1e150]; got {width!r}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "width", width)


class SmearingTerm(NamedTuple):
    """One term of a smearing; ``VectorSmearing.terms`` builds them on demand."""

    covector: tuple
    bump: GaussianBump
    weight: float


# np.lexsort keys of a row, least significant first: the terms sort by
# (center, width, covector)
_SORT_KEYS = np.array([3, 2, 1, 0, 8, 7, 6, 5, 4])


class VectorSmearing:
    """Finite sum f_mu(x) = sum_k weight_k v_mu^(k) bump_k(x), in canonical form.

    The terms are the rows of one read-only (n, 10) array ``rows``, with the
    columns (covector, center, width, weight).  Canonicalization merges terms
    with identical (covector, center, width) into their first occurrence,
    summing the weights in input order, prunes zero weights and zero
    covectors, and sorts the rows by (center, width, covector) with a stable
    sort.  ``key``, the rows as a tuple of tuples, is what equality, hashing
    and the term order of Weyl elements read, so equal smearings compare and
    hash equal (a -0.0 entry equals 0.0).  The zero smearing has shape
    (0, 10).  Sums, scaling and covector maps work on the array; only
    ``terms`` builds per-term objects.
    """

    __slots__ = ("rows", "key")

    def __init__(self, terms):
        rows = []
        for v, bump, w in terms:
            bump = bump if isinstance(bump, GaussianBump) else GaussianBump(*bump)
            rows.append((*as_components(v, "covector"), *bump.center.components, bump.width, float(w)))
        self._canonicalize(np.array(rows, dtype=float).reshape(-1, 10))

    def _canonicalize(self, rows):
        """Set rows and key from (n, 10) rows in input order (see the class docstring)."""
        rows = rows[np.lexsort(rows.T[_SORT_KEYS])]
        listed = rows.tolist()
        # equal terms are adjacent now, in input order: each group keeps its
        # first row and sums its weights one by one
        merged = listed[:1]
        for row in listed[1:]:
            if row[:9] == merged[-1][:9]:
                merged[-1][9] += row[9]
            else:
                merged.append(row)
        if not all(math.isfinite(row[9]) for row in merged):
            raise ValueError("smearing weights must be finite")
        kept = [row for row in merged if row[9] != 0.0 and any(row[:4])]
        if len(kept) < len(listed):
            rows = np.array(kept, dtype=float).reshape(-1, 10)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "key", tuple(map(tuple, kept)))

    @classmethod
    def _from_rows(cls, rows):
        f = object.__new__(cls)
        f._canonicalize(rows)
        return f

    def __setattr__(self, name, value):
        raise AttributeError("VectorSmearing is immutable")

    def __eq__(self, other):
        return self.key == other.key if isinstance(other, VectorSmearing) else NotImplemented

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"VectorSmearing(rows={self.rows.tolist()!r})"

    # read-only column views of the rows; a bump row is (center, width),
    # the one shape in which the pair layer reads bumps
    covectors = property(lambda self: self.rows[:, :4])
    centers = property(lambda self: self.rows[:, 4:8])
    widths = property(lambda self: self.rows[:, 8])
    bump_rows = property(lambda self: self.rows[:, 4:9])
    weights = property(lambda self: self.rows[:, 9])

    @property
    def terms(self):
        """The terms as SmearingTerm objects, in canonical order."""
        return tuple(
            SmearingTerm(tuple(row[:4]), GaussianBump(tuple(row[4:8]), row[8]), row[9]) for row in self.rows.tolist()
        )

    def __add__(self, other):
        return VectorSmearing._from_rows(np.concatenate((self.rows, other.rows)))

    def __neg__(self):
        return self.scaled(-1.0)

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c):
        rows = self.rows.copy()
        # an overflow is rejected as a non-finite weight, not warned about
        with np.errstate(over="ignore"):
            rows[:, 9] *= float(c)
        return VectorSmearing._from_rows(rows)

    def is_zero(self):
        return not len(self.rows)

    def map_covectors(self, matrix):
        """Apply a mixed-index 4x4 matrix to every covector, profiles untouched."""
        matrix = np.asarray(matrix, dtype=float)
        rows = self.rows.copy()
        # a matrix-vector product per term: one matrix product over all the
        # rows may round differently
        rows[:, :4] = np.reshape([as_components(matrix @ v, "covector") for v in self.covectors], (-1, 4))
        return VectorSmearing._from_rows(rows)


ZERO_SMEARING = VectorSmearing(())


def single_term(covector, bump, weight=1.0):
    return VectorSmearing(((covector, bump, weight),))


def scalar_smearing(bump, weight=1.0):
    """Scalar profile carried on the reference covector (1, 0, 0, 0).

    Combined with the identity contraction this turns the bilinear-form
    machinery into plain scalar pair integrals.
    """
    return single_term((1.0, 0.0, 0.0, 0.0), bump, weight)


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
    return _fsum_columns(f.weights[:, None] * f.covectors)


def moment1(f):
    """First moment integral of x^mu f_mu(x), evaluated analytically.

    The first moment of a normalized Gaussian is its center, so each term
    contributes weight * (v_mu center^mu) with the plain index contraction;
    the moment is the exactly rounded sum of those products, so it does
    not depend on the term order, and the moment of -f is exactly minus
    that of f.
    """
    return math.fsum((f.weights * (f.covectors * f.centers).sum(axis=1)).tolist())


def project_psi(f, psi):
    """Mean-subtraction projector: f_mu(x) - fbar_mu psi(x).

    psi must have mean 1 (any GaussianBump does); the result has mean
    vector exactly zero and the projector is idempotent.
    """
    psi = psi if isinstance(psi, GaussianBump) else GaussianBump(*psi)
    fbar = mean(f)
    return f + single_term(tuple(fbar), psi, -1.0)


def frame_smearings(chi):
    """The four smearings f^(a)_mu = delta_mu^a chi, one per unit covector of the rest frame."""
    return tuple(single_term(e, chi, 1.0) for e in np.eye(4).tolist())


def smearing_to_json(f):
    """Serialize to the documented list-of-terms JSON schema."""
    return [{"v": row[:4], "center": row[4:8], "width": row[8], "weight": row[9]} for row in f.rows.tolist()]


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
