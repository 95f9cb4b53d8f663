"""Test-function space: covector-weighted smearings, means, the metric and the Krein matrices.

A :class:`GaussianBump` (defined on floats in :mod:`ncmink.minkowski` and
imported here) is a positive profile with unit integral (mean 1), so in
the narrow-width limit it localizes a spacetime point.  Bumps enter
every result through their center and width alone (closed-form moments and
pair integrals), so no profile is ever evaluated pointwise.  A
:class:`VectorSmearing` is a finite linear combination of covector-weighted
bumps in one canonical form, ``key``: a tuple with a row (covector, center,
width, weight) of Python floats per term.  Sums and scaling order, merge
and scale those rows as floats, and the forms, the state and the Weyl
calculus read them from ``key``.  ``key`` is the one form of a smearing:
the few readers that want arrays, the Monte Carlo and momentum routes,
build them from its floats, so no per-term object is built on their
paths.  All zeroth and first moments are evaluated analytically so that
the classical-limit identities hold exactly.  This is the lowest module
that needs numpy, so the metric ``ETA``, ``IDENTITY``, the one covector
contraction ``contract`` and the Krein matrices live here.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

from .minkowski import GaussianBump, as_components, validate_unit_timelike

ZERO_COVECTOR = (0.0, 0.0, 0.0, 0.0)

# Minkowski metric; numerically identical for upper and lower index pairs.
ETA = np.diag([-1.0, 1.0, 1.0, 1.0])
ETA.setflags(write=False)

# Euclidean contraction, handy for scalar-profile quadratic forms where the
# covector bookkeeping should drop out.
IDENTITY = np.eye(4)
IDENTITY.setflags(write=False)


def contract(rows, matrix):
    """Covector rows (..., 4) times a 4 x k matrix, or one such matrix per row.

    Entry j of a row r is r_0 m_0j + r_1 m_1j + r_2 m_2j + r_3 m_3j,
    summed left to right, on numpy's elementwise multiply and add.  Those
    round each operation once, so an entry is the same bits on every BLAS
    kernel and SIMD dispatch, and a row's result does not depend on the
    rows stacked with it.  This is the package's one covector contraction:
    a column per row, (..., 4, 1), gives the dot products of two stacks of
    rows.
    """
    return (rows[..., :, None] * matrix).sum(axis=-2)


def krein_matrix(u):
    """Positive definite matrix eta^{mu nu} + 2 u^mu u^nu for unit timelike u.

    The quadratic form dominates |a . eta . a| for every covector a, which
    is what makes it suitable as the fundamental symmetry of the auxiliary
    positive scalar product.
    """
    uc = validate_unit_timelike(u)
    return ETA + 2.0 * np.outer(uc, uc)


def krein_covector_map(u):
    """Mixed-index involution J_mu^nu = delta_mu^nu + 2 u_mu u^nu.

    Acts on covector components; satisfies J J = identity exactly up to
    floating point.  It is eta times krein_matrix(u): eta is +-1 on the
    diagonal, so each entry is an entry of the Krein matrix, sign flipped
    in the time row, exactly.
    """
    return contract(ETA, krein_matrix(u))


class SmearingTerm(NamedTuple):
    """One term of a smearing; ``VectorSmearing.terms`` builds them on demand."""

    covector: tuple
    bump: GaussianBump
    weight: float


class VectorSmearing:
    """Finite sum f_mu(x) = sum_k weight_k v_mu^(k) bump_k(x), in canonical form.

    It is built from (covector, bump, weight) terms, each bump a
    :class:`GaussianBump`.  The canonical form is ``key``, a tuple with one
    row of Python floats (covector, center, width, weight) per term.
    Canonicalization merges terms with equal (covector, center, width), a
    -0.0 entry equal to 0.0, into their first occurrence in one dict pass,
    summing the weights in input order, checks that the weights are finite,
    prunes zero weights and zero covectors, and sorts the rows once by
    (center, width, covector).  Equality, hashing and the term order of
    Weyl elements read ``key``, so equal smearings compare and hash equal.
    Sums, scaling and covector maps pass the new rows on as tuples of
    floats, so a smearing holds no array; only ``terms`` builds per-term
    objects.
    """

    __slots__ = ("key",)

    def __init__(self, terms):
        self._canonicalize(
            (*as_components(v, "covector"), *bump.center.components, bump.width, float(w)) for v, bump, w in terms
        )

    def _canonicalize(self, rows):
        """Set key from row tuples in input order (see the class docstring)."""
        # equal terms match on value, -0.0 as 0.0: each keeps its first row's
        # floats and sums its weights in input order
        slots, merged = {}, []
        for row in rows:
            k = slots.setdefault(row[:9], len(merged))
            if k == len(merged):
                merged.append(row)
            else:
                merged[k] = (*merged[k][:9], merged[k][9] + row[9])
        if not all(math.isfinite(row[9]) for row in merged):
            raise ValueError("smearing weights must be finite")
        # no NaN gets here, because centers, widths and covectors are finite
        kept = [row for row in merged if row[9] != 0.0 and any(row[:4])]
        object.__setattr__(self, "key", tuple(sorted(kept, key=lambda row: (row[4:9], row[:4]))))

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
        return f"VectorSmearing(rows={list(map(list, self.key))!r})"

    # a bump row is the tuple (t, x, y, z, width) of Python floats, the one
    # shape in which the pair layer reads bumps
    bump_rows = property(lambda self: tuple(row[4:9] for row in self.key))
    # the weighted covector rows w v, lists of floats, which the forms, the
    # state, the means and the momentum route read
    weighted_rows = property(lambda self: [[row[9] * x for x in row[:4]] for row in self.key])

    @property
    def terms(self):
        """The terms as SmearingTerm objects, in canonical order."""
        return tuple(SmearingTerm(row[:4], GaussianBump(row[4:8], row[8]), row[9]) for row in self.key)

    def __add__(self, other):
        return VectorSmearing._from_rows(self.key + other.key)

    def __neg__(self):
        return self.scaled(-1.0)

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c):
        # a float product that overflows is inf, rejected as a non-finite weight
        c = float(c)
        return VectorSmearing._from_rows([(*row[:9], row[9] * c) for row in self.key])

    def is_zero(self):
        return not self.key

    def map_covectors(self, matrix):
        """Apply a mixed-index 4x4 matrix to every covector, profiles untouched.

        Every row is mapped in one ``contract`` call, so a covector's image
        does not depend on the other terms.  An image that overflows raises
        ValueError naming its covector.
        """
        covectors = np.array([row[:4] for row in self.key], dtype=float).reshape(-1, 4)
        with np.errstate(over="ignore", invalid="ignore"):
            images = contract(covectors, np.asarray(matrix, dtype=float).T).tolist()
        for row, image in zip(self.key, images):
            if not all(map(math.isfinite, image)):
                raise ValueError(f"covector {list(row[:4])} maps to non-finite entries: {image}")
        return VectorSmearing._from_rows([(*image, *row[4:]) for row, image in zip(self.key, images)])


ZERO_SMEARING = VectorSmearing(())


def single_term(covector, bump, weight=1.0):
    return VectorSmearing(((covector, bump, weight),))


def scalar_smearing(bump, weight=1.0):
    """Scalar profile carried on the reference covector (1, 0, 0, 0).

    Combined with the identity contraction this turns the bilinear-form
    machinery into plain scalar pair integrals.
    """
    return single_term((1.0, 0.0, 0.0, 0.0), bump, weight)


def mean(f):
    """Mean vector integral of f_mu over spacetime, evaluated analytically.

    Each normalized bump integrates to 1, so the mean is the weight-covector
    sum, exactly rounded per component, as a (4,) array.  The sum does not
    depend on the term order, so every route that sums the same weighted
    rows gives the same bits.
    """
    columns = list(zip(*f.weighted_rows)) or [()] * 4
    return np.array([math.fsum(column) for column in columns])


def moment1(f):
    """First moment integral of x^mu f_mu(x), evaluated analytically.

    The first moment of a normalized Gaussian is its center, so each term
    contributes weight * (v_mu center^mu) with the plain index contraction,
    read from ``key``: the contraction is 0.0 + v_0 c^0 + v_1 c^1 + v_2 c^2
    + v_3 c^3 summed left to right, the order in which numpy sums a row of
    four, signed zeros included.  The moment is the exactly rounded sum of
    the terms' products, so it does not depend on the term order, and the
    moment of -f is exactly minus that of f.
    """
    return math.fsum(row[9] * (0.0 + row[0] * row[4] + row[1] * row[5] + row[2] * row[6] + row[3] * row[7]) for row in f.key)


def project_psi(f, psi):
    """Mean-subtraction projector: f_mu(x) - fbar_mu psi(x).

    psi is a :class:`GaussianBump`, so it has mean 1; the result has mean
    vector exactly zero and the projector is idempotent.
    """
    fbar = mean(f)
    return f + single_term(tuple(fbar), psi, -1.0)


def frame_smearings(chi):
    """The four smearings f^(a)_mu = delta_mu^a chi, one per unit covector of the rest frame."""
    return tuple(single_term(e, chi, 1.0) for e in np.eye(4).tolist())


def smearing_to_json(f):
    """Serialize to the documented list-of-terms JSON schema."""
    return [{"v": list(row[:4]), "center": list(row[4:8]), "width": row[8], "weight": row[9]} for row in f.key]


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
