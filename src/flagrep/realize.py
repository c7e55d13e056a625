"""Realizability of degree-2 cohomology homomorphisms between flag manifolds.

A candidate map on second cohomology is an integer matrix: row k gives the
image of the k-th standard generator of the target in fundamental-weight
coordinates, for k = 1..n-1; the n-th generator's image is forced by the
relation that the generators sum to zero.  The s-invariant turns the matrix
into a sum of n lattice monomials, and the candidate is certified exactly
when that polynomial is the character of an n-dimensional representation:
the certificate names a representation whose flag descent induces the given
homomorphism.

A matrix is checked where it enters, in one intake pass shared with torus
weights (``_int_vectors``): the rows are read into tuples, the type of every
entry is tested, and the rows are counted once, so that lengths are tested
on the distinct rows only.  ``CohomHom`` keeps those counts, and ``s_map``
reads them instead of counting the rows again.  A matrix or weight list
that is not a sequence is refused before the pass, named by its type.
"""

from __future__ import annotations

from collections import Counter, abc
from itertools import chain
from operator import mul
from typing import NamedTuple, Sequence

from ._record import _Record
from .cartan import CartanData, Weight
from .characters import (
    TERM_CAP,
    Certificate,
    DecomposeResult,
    NotInOmega,
    is_in_omega_n,
    weight_multiplicities,
)
from .charpoly import CharPoly
from .errors import InputError
from .schur import YPoly, _schur, _schur_weights, _shape, alpha, validate_partition

#: Certification can fail while a map still exists; the criterion is
#: sufficient, not necessary, and the result vocabulary keeps that visible.
NotCertified = NotInOmega


def _int_vectors(vectors, m: int, code: str, message: str):
    """``vectors`` checked to be integer vectors of length ``m``: a tuple of
    tuples of exact ints, and the count of each distinct vector.

    One bulk pass accepts the common case, exact ints: it reads every
    vector into a tuple and tests the type of every entry, then counts the
    tuples and tests the lengths of the distinct ones only, which suffices
    because tuples of different lengths never compare equal.  Otherwise a
    per-vector pass accepts int subclasses other than bool and names the
    first bad vector in ``message``: in tuple form, or as given when it
    cannot be read into a tuple.
    """
    try:
        rows = tuple(map(tuple, vectors))
    except TypeError:
        rows = vectors
    else:
        if set(map(type, chain.from_iterable(rows))) <= {int}:
            counts = Counter(rows)
            if set(map(len, counts)) <= {m}:
                return rows, counts
    checked = []
    for v in rows:
        try:
            row = tuple(v)
        except TypeError:
            raise InputError(code, message.format(v)) from None
        if len(row) != m or not all(isinstance(x, int) and not isinstance(x, bool) for x in row):
            raise InputError(code, message.format(row))
        checked.append(tuple(map(int, row)))
    rows = tuple(checked)
    return rows, Counter(rows)


def _length(vectors, code: str, name: str) -> int:
    """How many vectors there are; an input that is not a sequence, which
    the intake could not index or read in order, is named by its type."""
    if not isinstance(vectors, abc.Sequence):
        raise InputError(code, f"{name} must be a sequence, not {type(vectors).__name__}")
    return len(vectors)


def _width(vectors, code: str, message: str) -> int:
    """Length of the first vector of a nonempty sequence, or ``message``
    naming it as given."""
    try:
        return len(vectors[0])
    except TypeError:
        raise InputError(code, message.format(vectors[0])) from None


_ROW_MESSAGE = "row {} is not an integer m-vector"
_WEIGHT_MESSAGE = "weight {} is not an integer vector"


class CohomHom(_Record):
    """Integer matrix of a candidate homomorphism on second cohomology.

    ``rows`` are the images of the first n-1 generators; ``derived_row`` is
    always recomputed, never stored, because the generators sum to zero.
    The check reads the rows in one intake pass (``_int_vectors``), which
    also counts each distinct row; the record keeps those counts for
    ``s_map`` outside its fields, as it keeps its hash, so equality,
    hashing, ``repr`` and pickling never see them.  A record built by
    ``_trusted`` has no counts, and ``s_map`` counts its rows itself.
    """

    n: int
    m: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n != _length(self.rows, "invalid-hom", "rows") + 1:
            raise InputError("invalid-hom", "n must equal number of rows + 1")
        if self.n < 2:
            raise InputError("invalid-hom", "target flag size n must be at least 2")
        if self.m < 1:
            raise InputError("invalid-hom", "rank m must be positive")
        rows, counts = _int_vectors(self.rows, self.m, "invalid-hom", _ROW_MESSAGE)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_counts", counts)

    @property
    def derived_row(self) -> Weight:
        return tuple(-sum(col) for col in zip(*self.rows)) if self.rows else ()

    def to_json_dict(self, group: str | None = None) -> dict:
        out: dict = {}
        if group:
            out["group"] = group
        out["n"] = self.n
        out["rows"] = [list(r) for r in self.rows]
        return out


def cohom_from_rows(rows: Sequence[Sequence[int]]) -> CohomHom:
    if not rows:
        raise InputError("invalid-hom", "need at least one row")
    return CohomHom(_length(rows, "invalid-hom", "rows") + 1, _width(rows, "invalid-hom", _ROW_MESSAGE), rows)


def cohom_from_json(data: dict) -> tuple[CohomHom, str | None]:
    """Build from ``{"group": ..., "n": ..., "rows": [[...], ...]}``."""
    if not isinstance(data, dict) or "rows" not in data:
        raise InputError("invalid-hom", "expected an object with a 'rows' matrix")
    rows = data["rows"]
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise InputError("invalid-hom", "'rows' must be a nonempty list of rows")
    hom = cohom_from_rows(rows)
    if "n" in data and (type(data["n"]) is not int or data["n"] != hom.n):
        raise InputError(
            "invalid-hom", f"stated n={data['n']!r} but rows imply n={hom.n}"
        )
    group = data.get("group")
    if group is not None and not isinstance(group, str):
        raise InputError("invalid-hom", "'group' must be a string tag")
    return hom, group


class TorusRestriction(_Record):
    """Weights of a torus-preserving homomorphism into a unitary group.

    The list is the multiset of characters through which the maximal torus
    acts; semisimplicity forces them to sum to zero, which is validated.
    """

    weights: tuple[Weight, ...]

    def __post_init__(self):
        if _length(self.weights, "invalid-weights", "weights") < 2:
            raise InputError("invalid-weights", "need at least two weights")
        m = _width(self.weights, "invalid-weights", _WEIGHT_MESSAGE)
        weights, _ = _int_vectors(self.weights, m, "invalid-weights", _WEIGHT_MESSAGE)
        object.__setattr__(self, "weights", weights)
        if any(sum(col) != 0 for col in zip(*self.weights)):
            raise InputError("weights-not-balanced", "weights must sum to zero")

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def m(self) -> int:
        return len(self.weights[0])


def s_map(h: CohomHom) -> CharPoly:
    """Sum of the n row monomials (the derived row included).

    The rows are counted once: a checked record keeps the counts of its
    distinct rows from its intake pass, and a ``_trusted`` one is counted
    here.  The derived row is minus the sum of the rows, taken over the
    distinct rows with their counts.
    """
    counts = h.__dict__.get("_counts")
    counts = dict(Counter(h.rows) if counts is None else counts)
    derived = tuple(-sum(map(mul, col, counts.values())) for col in zip(*counts))
    counts[derived] = counts.get(derived, 0) + 1
    return CharPoly._trusted(h.m, counts)


def check_realizable(cd: CartanData, h: CohomHom, max_terms: int = TERM_CAP) -> DecomposeResult:
    """Certificate that some map induces ``h``, or NotCertified.

    A certificate is constructive: the certified representation's flag
    descent realizes ``h``.  NotCertified only means this criterion failed.
    """
    if h.m != cd.rank:
        raise InputError("rank-mismatch", f"hom rank {h.m} for group rank {cd.rank}")
    return is_in_omega_n(cd, s_map(h), h.n, max_terms)


def induced_hom(tr: TorusRestriction) -> CohomHom:
    """Read the cohomology matrix off the first n-1 torus weights."""
    hom = CohomHom(tr.n, tr.m, tr.weights[:-1])
    assert hom.derived_row == tr.weights[-1]  # forced by the zero-sum invariant
    return hom


class FactorizationCheck(NamedTuple):
    equal: bool
    character: CharPoly
    via_cohomology: CharPoly


def verify_factorization(cd: CartanData, tr: TorusRestriction) -> FactorizationCheck:
    """Compare the direct character with the s-invariant of the induced map.

    The two sides go through independent code paths and must always agree
    for valid input; a False verdict indicates an implementation bug, which
    is exactly what this check exists to catch.
    """
    if tr.m != cd.rank:
        raise InputError("rank-mismatch", f"weights rank {tr.m} for group rank {cd.rank}")
    character = CharPoly._trusted(tr.m, dict(Counter(tr.weights)))
    via = s_map(induced_hom(tr))
    return FactorizationCheck(character == via, character, via)


def torus_restriction_from_certificate(cd: CartanData, cert: Certificate) -> TorusRestriction:
    """Expand a certificate into its full torus weight list, highest first."""
    weights: list[Weight] = []
    for lam, mult in cert.summands:
        char = weight_multiplicities(cd, lam)
        for w, c in char.terms.items():
            weights.extend([w] * (c * mult))
    weights.sort(reverse=True)
    return TorusRestriction(tuple(weights))


class SchurRealization(_Record):
    """Map data for a Schur polynomial; ``matches`` records whether
    alpha(s_map(hom)) equals ``schur(mu, m)``, built by ``schur``'s own
    builder: the two routes compared once.  Unpacks as
    (n, hom, symmetric_function)."""

    n: int
    hom: CohomHom
    symmetric_function: YPoly
    matches: bool

    def __iter__(self):
        return iter((self.n, self.hom, self.symmetric_function))


def realize_schur(mu: Sequence[int], m: int) -> SchurRealization:
    """Flag-to-flag map data whose s-invariant realizes a Schur polynomial.

    For a partition with fewer than m parts, the tableau weights, all but
    the last, are the rows of a matrix h, which satisfies
    alpha(s_map(h)) == schur(mu, m) with target size n = schur_dim(mu, m),
    which the result's ``matches`` checks against the polynomial
    ``schur``'s builder, ``_schur``, makes from the dominant partitions.
    The tableau weights are read off the sorted tableau contents; both
    sides read the type-A character, which is computed once and then found
    in the character cache.
    An n above ``TERM_CAP`` raises the term cap before any row is built.
    """
    mu = validate_partition(mu)
    if m < 2:
        raise InputError("invalid-rank", "need m >= 2")
    if len(mu) > m:
        raise InputError("invalid-partition", f"partition {mu} has more than {m} parts")
    if len(mu) == m and mu[m - 1] != 0:
        raise InputError(
            "invalid-partition", "last part must be zero (basis Schur polynomials)"
        )
    if sum(mu) == 0:
        raise InputError(
            "invalid-partition", "empty partition targets a one-point flag manifold"
        )
    shape = _shape(mu, m)
    weights = _schur_weights(shape, m)
    n = len(weights)
    # s_map derives the last weight; the rows are int tuples built here, so
    # the record takes them unchecked
    hom = CohomHom._trusted(n, m - 1, tuple(weights[:-1]))
    image = alpha(s_map(hom))
    # the workflow's defining identity, from two routes
    return SchurRealization(n, hom, image, image == _schur(shape, m))
