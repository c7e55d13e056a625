"""Irreducible characters and decomposition into them.

Characters are computed with the Freudenthal multiplicity recursion run
over the dominant weights only, which a breadth-first walk down the
positive roots finds, then expanded along Weyl orbits; dimensions
come from the Weyl product formula.  Both are exact: rationals cancel to
integers by construction and the code asserts that they do.

Membership of an effective polynomial in the set of characters is decided
constructively: ``decompose`` either returns the unique certificate (the
multiset of highest weights with multiplicities) or reports the first
weight whose coefficient went negative during the reduction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Union

from . import _kernels
from .cartan import CartanData, Weight, is_dominant
from .charpoly import CharPoly
from .errors import InputError, ResourceCapError

#: Practical caps; exceeding one raises ResourceCapError, never wrong output.
RANK_CAP = 8
TERM_CAP = 10**7
OMEGA_N_CAP = 64


@dataclass(frozen=True)
class Certificate:
    """Multiset of dominant weights witnessing a character decomposition.

    ``summands`` pairs each highest weight with its positive multiplicity,
    sorted by descending (dimension, weight); ``total_dim`` is the summed
    dimension, which equals the polynomial's value at the identity.
    """

    summands: tuple[tuple[Weight, int], ...]
    total_dim: int

    def to_json_dict(self) -> dict:
        return {
            "summands": [
                {"lambda": list(lam), "mult": mult} for lam, mult in self.summands
            ],
            "dim": self.total_dim,
        }

    def render(self) -> str:
        if not self.summands:
            return "0"
        parts = []
        for lam, mult in self.summands:
            body = f"V({','.join(str(c) for c in lam)})"
            parts.append(body if mult == 1 else f"{mult}*{body}")
        return " + ".join(parts)


@dataclass(frozen=True)
class NotInOmega:
    """Failure report: the tested polynomial is not certified as a character.

    This is a negative result for the sufficient criterion only; it never
    asserts that no underlying map exists.
    """

    reason: str
    witness: Weight | None = None
    deficit: int | None = None
    expected: int | None = None
    actual: int | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"certified": False, "reason": self.reason}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.deficit is not None:
            out["deficit"] = self.deficit
        if self.expected is not None:
            out["expected"] = self.expected
        if self.actual is not None:
            out["actual"] = self.actual
        return out


DecomposeResult = Union[Certificate, NotInOmega]

_char_cache: dict[tuple[CartanData, Weight], CharPoly] = {}
_cache_lock = threading.Lock()


def _require_dominant(cd: CartanData, lam: Sequence[int]) -> Weight:
    lam = tuple(lam)
    if len(lam) != cd.rank:
        raise InputError(
            "rank-mismatch", f"weight length {len(lam)} for rank {cd.rank}"
        )
    if not is_dominant(lam):
        raise InputError("not-dominant", f"weight {lam} is not dominant")
    return lam


def _dominant_support(cd: CartanData, lam: Weight, max_terms: int = TERM_CAP) -> list[Weight]:
    """Dominant weights below ``lam``, sorted by depth in the root lattice.

    Any two dominant weights mu < nu are linked by a chain of dominant
    weights, each a positive root below the previous (Stembridge, The
    partial order of dominant weights, 1998), so a breadth-first walk down
    the positive roots from ``lam`` reaches every one of them.  Each is a
    term of the character, so more than ``max_terms`` of them hits the cap.
    """
    roots = cd.positive_roots
    seen = {lam}
    frontier = [lam]
    while frontier:
        below = []
        for mu in frontier:
            for root in roots:
                nu = tuple(a - b for a, b in zip(mu, root))
                if nu not in seen and all(x >= 0 for x in nu):
                    if len(seen) == max_terms:
                        raise ResourceCapError(
                            "term-cap", f"support exceeds cap {max_terms}"
                        )
                    seen.add(nu)
                    below.append(nu)
        frontier = below
    # the height key is a positive multiple of the root-coordinate sum
    return sorted(seen, key=lambda mu: (-cd.height_key(mu), mu))


def weight_multiplicities(cd: CartanData, lam: Sequence[int], max_terms: int = TERM_CAP) -> CharPoly:
    """Character of the irreducible module with highest weight ``lam``."""
    lam = _require_dominant(cd, lam)
    if cd.rank > RANK_CAP:
        raise ResourceCapError("rank-cap", f"character rank cap is {RANK_CAP}")
    return _character(cd, lam, max_terms)


def _character(cd: CartanData, lam: Weight, max_terms: int = TERM_CAP) -> CharPoly:
    """``weight_multiplicities`` of a checked ``lam``, memoised, with no rank
    cap: Schur polynomials in any number of variables come through it."""
    key = (cd, lam)
    with _cache_lock:
        cached = _char_cache.get(key)
    if cached is None:
        support = _dominant_support(cd, lam, max_terms)
        dominant = _kernels.freudenthal(
            cd.cartan_matrix, cd.gram_scaled, cd.positive_roots, lam, support
        )
        terms = _kernels.orbit_terms(cd.cartan_matrix, dominant, max_terms)
        cached = CharPoly._trusted(cd.rank, terms)
        with _cache_lock:
            _char_cache.setdefault(key, cached)
    if len(cached.terms) > max_terms:
        raise ResourceCapError("term-cap", f"support exceeds cap {max_terms}")
    return cached


def dimension(cd: CartanData, lam: Sequence[int]) -> int:
    """Weyl product formula; exact, asserts integrality."""
    lam = _require_dominant(cd, lam)
    gram = cd.gram_scaled
    shifted = tuple(x + 1 for x in lam)
    delta = (1,) * cd.rank

    def ip(u, v):
        return sum(
            u[i] * sum(gram[i][j] * v[j] for j in range(cd.rank))
            for i in range(cd.rank)
        )

    value = Fraction(1)
    for alpha in cd.positive_roots:
        value *= Fraction(ip(shifted, alpha), ip(delta, alpha))
    if value.denominator != 1:
        raise ArithmeticError("dimension formula did not cancel to an integer")
    return int(value)


def _certificate(cd: CartanData, pairs: Sequence[tuple[Weight, int]]) -> Certificate:
    decorated = sorted(
        ((dimension(cd, lam), lam, mult) for lam, mult in pairs), reverse=True
    )
    total = sum(d * mult for d, _, mult in decorated)
    return Certificate(tuple((lam, mult) for _, lam, mult in decorated), total)


def certificate_character(cd: CartanData, cert: Certificate) -> CharPoly:
    """Sum of the certified irreducible characters, with multiplicity."""
    total = CharPoly.zero(cd.rank)
    for lam, mult in cert.summands:
        total = total + weight_multiplicities(cd, lam) * mult
    return total


def decompose(cd: CartanData, p: CharPoly, max_terms: int = TERM_CAP) -> DecomposeResult:
    """Express an effective polynomial in the basis of irreducible characters.

    Greedy subtraction at the remaining weight that is highest for the
    dominance order (height first, then lexicographic tie-break: plain
    lexicographic comparison does not refine dominance).  Highest-weight
    triangularity makes the greedy choice exact and the certificate unique;
    the reduction stops the moment any coefficient goes negative.
    """
    if p.rank != cd.rank:
        raise InputError("rank-mismatch", f"polynomial rank {p.rank} for rank {cd.rank}")
    if not p.is_effective():
        raise InputError("not-effective", "decompose needs positive coefficients")
    hkey = cd.height_key
    work = dict(p.terms)
    pairs: list[tuple[Weight, int]] = []
    while work:
        w = max(work, key=lambda u: (hkey(u), u))
        if not is_dominant(w):
            return NotInOmega(reason="leading-weight-not-dominant", witness=w)
        mult = work.pop(w)
        char = weight_multiplicities(cd, w, max_terms)
        negatives = []
        for u, cu in char.terms.items():
            if u == w:
                continue
            value = work.get(u, 0) - mult * cu
            if value > 0:
                work[u] = value
            else:
                work.pop(u, None)
                if value < 0:
                    negatives.append((hkey(u), u, value))
        if negatives:
            _, witness, deficit = max(negatives)
            return NotInOmega(
                reason="negative-coefficient", witness=witness, deficit=deficit
            )
        pairs.append((w, mult))
    return _certificate(cd, pairs)


def is_in_omega_n(cd: CartanData, p: CharPoly, n: int, max_terms: int = TERM_CAP) -> DecomposeResult:
    """Certificate iff ``p`` is the character of an n-dimensional module."""
    if n < 1:
        raise InputError("invalid-dimension", "n must be a positive integer")
    actual = p.evaluate_at_one()
    if actual != n:
        return NotInOmega(reason="dimension-mismatch", expected=n, actual=actual)
    if not p.is_effective():
        bad = min(((c, w) for w, c in p.terms.items() if c < 0))
        return NotInOmega(
            reason="negative-coefficient", witness=bad[1], deficit=bad[0]
        )
    return decompose(cd, p, max_terms)


def dominant_weights_up_to_dim(cd: CartanData, bound: int) -> list[tuple[Weight, int]]:
    """All (dominant weight, dimension) pairs with dimension <= bound.

    Complete because the dimension strictly increases in every coordinate.
    Sorted by descending (dimension, weight).
    """
    zero = (0,) * cd.rank
    out = {zero: 1}
    frontier = [zero]
    while frontier:
        nxt = []
        for lam in frontier:
            for i in range(cd.rank):
                child = lam[:i] + (lam[i] + 1,) + lam[i + 1:]
                if child in out:
                    continue
                d = dimension(cd, child)
                if d <= bound:
                    out[child] = d
                    nxt.append(child)
        frontier = nxt
    return sorted(((lam, d) for lam, d in out.items()), key=lambda t: (t[1], t[0]), reverse=True)


def omega_n_enumerate(cd: CartanData, n: int, max_n: int = OMEGA_N_CAP) -> Iterator[Certificate]:
    """All certificates of total dimension exactly ``n``, largest parts first.

    The stream is deterministic, complete and duplicate-free: summands are
    chosen along the (dimension, weight)-descending list of irreducibles,
    with higher multiplicities of larger summands emitted first.
    """
    if n < 1:
        raise InputError("invalid-dimension", "n must be a positive integer")
    if n > max_n:
        raise ResourceCapError("n-cap", f"n={n} exceeds cap {max_n}")
    irreps = dominant_weights_up_to_dim(cd, n)

    def rec(idx: int, remaining: int, acc: list[tuple[Weight, int]]) -> Iterator[Certificate]:
        if remaining == 0:
            yield Certificate(tuple(acc), n)
            return
        if idx == len(irreps):
            return
        lam, d = irreps[idx]
        for count in range(remaining // d, -1, -1):
            if count:
                acc.append((lam, count))
            yield from rec(idx + 1, remaining - count * d, acc)
            if count:
                acc.pop()

    return rec(0, n, [])
