"""Realizability of degree-2 cohomology homomorphisms between flag manifolds.

A candidate map on second cohomology is an integer matrix: row k gives the
image of the k-th standard generator of the target in fundamental-weight
coordinates, for k = 1..n-1; the n-th generator's image is forced by the
relation that the generators sum to zero.  The s-invariant turns the matrix
into a sum of n lattice monomials, and the candidate is certified exactly
when that polynomial is the character of an n-dimensional representation:
the certificate names a representation whose flag descent induces the given
homomorphism.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from operator import mul
from typing import Iterable, NamedTuple, Sequence

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
from .schur import YPoly, _schur_weights, _shape, alpha, validate_partition

#: Certification can fail while a map still exists; the criterion is
#: sufficient, not necessary, and the result vocabulary keeps that visible.
NotCertified = NotInOmega


def _int_vectors(vectors, m: int, code: str, message: str):
    """``vectors`` checked to be integer vectors of length ``m``, as a tuple
    of tuples of exact ints.

    One bulk pass accepts the common case, exact ints.  Otherwise a
    per-vector pass accepts int subclasses other than bool and names the
    first bad vector, in tuple form, in ``message``.
    """
    try:
        if set(map(len, vectors)) <= {m} and set(
            map(type, chain.from_iterable(vectors))
        ) <= {int}:
            return tuple(map(tuple, vectors))
    except TypeError:
        pass
    for v in vectors:
        if len(v) != m or not all(isinstance(x, int) and not isinstance(x, bool) for x in v):
            raise InputError(code, message.format(tuple(v)))
    return tuple(tuple(map(int, v)) for v in vectors)


def _count_weights(rank: int, weights: Iterable[Sequence[int]]) -> CharPoly:
    """Sum of one monomial per validated weight, repeats accumulating."""
    return CharPoly._trusted(rank, dict(Counter(map(tuple, weights))))


class CohomHom(_Record):
    """Integer matrix of a candidate homomorphism on second cohomology.

    ``rows`` are the images of the first n-1 generators; ``derived_row`` is
    always recomputed, never stored, because the generators sum to zero.
    """

    n: int
    m: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n != len(self.rows) + 1:
            raise InputError("invalid-hom", "n must equal number of rows + 1")
        if self.n < 2:
            raise InputError("invalid-hom", "target flag size n must be at least 2")
        if self.m < 1:
            raise InputError("invalid-hom", "rank m must be positive")
        rows = _int_vectors(self.rows, self.m, "invalid-hom", "row {} is not an integer m-vector")
        object.__setattr__(self, "rows", rows)

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
    return CohomHom(n=len(rows) + 1, m=len(rows[0]), rows=rows)


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
        if len(self.weights) < 2:
            raise InputError("invalid-weights", "need at least two weights")
        m = len(self.weights[0])
        weights = _int_vectors(self.weights, m, "invalid-weights", "weight {} is not an integer vector")
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

    The derived row is minus the sum of the rows, taken over the distinct
    rows with their counts.
    """
    counts = Counter(h.rows)
    derived = tuple(-sum(map(mul, col, counts.values())) for col in zip(*counts))
    counts[derived] += 1
    return CharPoly._trusted(h.m, dict(counts))


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
    hom = CohomHom(n=tr.n, m=tr.m, rows=tr.weights[:-1])
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
    character = _count_weights(tr.m, tr.weights)
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
    alpha(s_map(hom)) equals the Schur polynomial of the tableau contents
    the weights were read off, which is ``schur(mu, m)``: the two routes
    compared once.  Unpacks as (n, hom, symmetric_function)."""

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
    which the result's ``matches`` checks.  The tableau contents are built
    once: the tableau weights are read off them, and so is the Schur
    polynomial the s-invariant is compared with.
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
    weights, target = _schur_weights(_shape(mu, m), m)
    n = len(weights)
    # s_map derives the last weight; the rows are int tuples built here, so
    # the record takes them unchecked
    hom = CohomHom._trusted(n, m - 1, tuple(weights[:-1]))
    image = alpha(s_map(hom))
    # the workflow's defining identity, from two routes
    return SchurRealization(n, hom, image, image == target)
