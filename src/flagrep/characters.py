"""Irreducible characters and decomposition into them.

Characters are computed with the Freudenthal multiplicity recursion run
over the dominant weights only, which a breadth-first walk down the
positive roots finds.  From each weight the walk tries only the roots
whose positive coordinates lie in the weight's support, since no other
step stays dominant.  It adds up the Weyl orbit sizes |W| / |W_mu| as it
goes, so the term cap fires the moment the exact term count passes it,
before the walk ends or the recursion runs.  It also carries each
weight's recursion denominator and its depth below the highest weight
from step to step, both read off the roots' simple-root coordinates, and
sorts by the depths; so no character or dimension solves in the Cartan
matrix, and a decomposition solves in it once per group, for the height
vector that orders its greedy.  The recursion keeps each dominant
weight's sums along the positive root strings above it, so a term of its
sum is one reflection and one lookup, not a walk to the end of a root
string (``_kernels.freudenthal``).  Only the dominant
multiplicities are memoised, in one ``lru_cache`` of
``CHARACTER_CACHE_SIZE`` entries keyed by group, highest weight and cap;
``decompose`` reads them as they are, and a caller that needs every term
gets the Weyl orbits expanded afresh on each call, so no expanded
character outlives its caller.  Dimensions come from the Weyl product
formula.  Both are exact: each ends in one integer division that must
leave no remainder, and the code asserts that it does.

Membership of an effective polynomial in the set of characters is decided
constructively: ``decompose`` either returns the unique certificate (the
multiset of highest weights with multiplicities) or reports the first
weight whose coefficient went negative during the reduction.  It first
decides W-invariance with the group's compiled orbit walk, the one that
expands characters: the orbits of the dominant terms must carry their
coefficients and cover every term.  A W-invariant polynomial, such as an
s-invariant, is then decided in the dominant chamber: its dominant terms
are reduced against dominant multiplicities, with no character's orbits
expanded.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import compress, count, repeat
from operator import add, mul, sub
from typing import Callable, Iterator, Sequence, Union

from . import _kernels
from ._record import _Record
from .cartan import CartanData, Weight, _check_weight, is_dominant
from .charpoly import CharPoly
from .errors import _LIMITS, InputError, ResourceCapError, _check_cap

#: (group, highest weight, cap) entries ``_dominant_character`` holds before
#: it evicts the least recently used one.
CHARACTER_CACHE_SIZE = 1024


class Certificate(_Record):
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


class NotInOmega(_Record):
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


def _require_dominant(cd: CartanData, lam: Sequence[int]) -> Weight:
    lam = _check_weight(cd, lam)
    if not is_dominant(lam):
        raise InputError("not-dominant", f"weight {lam} is not dominant")
    return lam


def _dominant_support(cd: CartanData, lam: Weight, max_terms: int = _LIMITS["term-cap"]) -> dict[Weight, int]:
    """Dominant weights mu below ``lam``, sorted by depth in the root lattice,
    each mapped to Freudenthal's denominator
    (lam - mu, lam + mu + 2 rho) = |lam + rho|^2 - |mu + rho|^2.

    Any two dominant weights mu < nu are linked by a chain of dominant
    weights, each a positive root below the previous (Stembridge, The
    partial order of dominant weights, 1998), so a breadth-first walk down
    the positive roots from ``lam`` reaches every one of them; from mu it
    tries only the roots whose positive coordinates lie in mu's support
    (``CartanData.support_steps``), since any other root leaves the
    dominant chamber.  Each weight is in the character with its whole
    orbit, so the orbit sizes of the levels found so far count terms of
    the character, and the walk stops the moment that count passes
    ``max_terms``.  A step from mu to nu = mu - a adds (a, mu + nu + 2 rho)
    to the denominator, read off a's simple-root coordinates c as the sum
    of (mu_i + nu_i + 2) * d_i * c_i, and a's height, the sum of c, to the
    depth; the sort reads the depths so carried.  The roots' step data is
    read only from a weight with a nonzero coordinate, so a walk from 0
    builds none.
    """
    d = cd.symmetrizer
    support = {lam: 0}
    depth = {lam: 0}
    frontier = [lam]
    terms = 0
    while frontier:
        terms += _term_count(cd, frontier)
        if terms > max_terms:
            raise ResourceCapError("term-cap", f"support exceeds cap {max_terms}")
        below = []
        for mu in frontier:
            base, level = support[mu], depth[mu]
            shifted = [(x + 2) * di for x, di in zip(mu, d)]  # mu + 2 rho, times d
            for i in compress(count(), mu):
                for root, c, checks in zip(*cd.support_steps[i]):
                    for k, x in checks:
                        if mu[k] < x:
                            break
                    else:
                        nu = tuple(map(sub, mu, root))
                        if nu not in support:
                            nud = map(mul, nu, d)
                            support[nu] = base + sum(map(mul, map(add, shifted, nud), c))
                            depth[nu] = level + sum(c)
                            below.append(nu)
        frontier = below
    return dict(sorted(support.items(), key=lambda item: (depth[item[0]], item[0])))


def _parabolic_order(strata: tuple[tuple[int, int], ...], allowed: int) -> int:
    """Order of the subgroup of W generated by the simple reflections in the
    bit mask ``allowed``: the product of (m + 1) over its exponents m, which
    are the dual partition of its positive-root counts by height (Kostant,
    The principal three-dimensional subgroup, 1959)."""
    counts = Counter(h for mask, h in strata if mask & allowed == mask)
    order = 1
    for h, n in counts.items():
        order *= (h + 1) ** (n - counts[h + 1])
    return order


@lru_cache(maxsize=4096)
def _orbit_size(cd: CartanData, nonzero: tuple[bool, ...]) -> int:
    """|W| / |W_mu| for a dominant mu with this nonzero pattern: W_mu is
    generated by the simple reflections at the zero coordinates of mu."""
    strata = cd.root_strata
    fixing = sum(1 << i for i, x in enumerate(nonzero) if not x)
    return _parabolic_order(strata, (1 << cd.rank) - 1) // _parabolic_order(strata, fixing)


def _term_count(cd: CartanData, support: Sequence[Weight]) -> int:
    """Exact number of terms of the character with these dominant weights:
    each has multiplicity at least one, so its whole orbit is in the support."""
    patterns = Counter(tuple(map(bool, mu)) for mu in support)
    return sum(n * _orbit_size(cd, pattern) for pattern, n in patterns.items())


def weight_multiplicities(cd: CartanData, lam: Sequence[int], max_terms: int = _LIMITS["term-cap"]) -> CharPoly:
    """Character of the irreducible module with highest weight ``lam``.

    The dominant multiplicities come from the cache; the orbits are
    expanded on every call, into a new ``CharPoly`` that is not kept."""
    _check_cap(max_terms)
    lam = _require_dominant(cd, lam)
    if cd.rank > _LIMITS["rank-cap"]:
        raise ResourceCapError("rank-cap", f"character rank cap is {_LIMITS['rank-cap']}")
    dominant = _dominant_character(cd, lam, max_terms)
    return CharPoly._trusted(cd.rank, _kernels.orbit_terms(cd.orbit_walk, dominant, max_terms))


def _check_string_terms(lam: Weight, max_terms: int) -> None:
    """Raises the term cap if the simple root strings through ``lam`` hold
    more than ``max_terms`` weights: the alpha_i-string through lam holds
    lam_i + 1 distinct weights and two strings share only lam, so the
    character has at least 1 + sum(lam) terms."""
    if 1 + sum(lam) > max_terms:
        raise ResourceCapError("term-cap", f"support exceeds cap {max_terms}")


@lru_cache(maxsize=CHARACTER_CACHE_SIZE)
def _dominant_character(cd: CartanData, lam: Weight, max_terms: int) -> dict[Weight, int]:
    """Multiplicities of the dominant weights of the character of a checked
    ``lam``.  Raises the term cap exactly when the whole character has more
    than ``max_terms`` terms, before Freudenthal runs; the cap is part of
    the key, so a cached entry was held to the same cap.  The dict is
    shared, so callers only read it."""
    _check_string_terms(lam, max_terms)
    support = _dominant_support(cd, lam, max_terms)
    if len(support) == 1:  # lam alone (0 or minuscule): no tables to build
        return {lam: 1}
    return _kernels.freudenthal(cd.freudenthal_tables, lam, support)


def dimension(cd: CartanData, lam: Sequence[int]) -> int:
    """Weyl product formula: the product over the positive roots a of
    (lam + rho, a) / (rho, a), each inner product read off a's simple-root
    coordinates (``CartanData.weyl_product``), with no inverse matrix.
    Exact; asserts integrality."""
    lam = _require_dominant(cd, lam)
    value, rem = divmod(cd.weyl_product([x + 1 for x in lam]), cd.weyl_denominator)
    if rem:
        raise ArithmeticError("dimension formula did not cancel to an integer")
    return value


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


def decompose(cd: CartanData, p: CharPoly, max_terms: int = _LIMITS["term-cap"]) -> DecomposeResult:
    """Express an effective polynomial in the basis of irreducible characters.

    Greedy subtraction at the remaining weight that is highest for the
    dominance order (height first, then lexicographic tie-break: plain
    lexicographic comparison does not refine dominance).  Highest-weight
    triangularity makes the greedy choice exact and the certificate unique;
    the reduction stops the moment any coefficient goes negative.

    A W-invariant polynomial (``_invariant_dominant_terms``) is reduced on
    its dominant terms alone, against the dominant multiplicities of each
    character, with no character's orbits expanded.
    The result is the same: the remainder stays W-invariant, so its highest
    weight is dominant (a dominant weight is strictly higher than the rest
    of its orbit), and the weights that go negative form a union of orbits,
    so the highest of them, the witness, is dominant too.  Any other
    polynomial is reduced on all its terms against whole characters.
    """
    _check_cap(max_terms)
    if p.rank != cd.rank:
        raise InputError("rank-mismatch", f"polynomial rank {p.rank} for rank {cd.rank}")
    if not p.is_effective():
        raise InputError("not-effective", "decompose needs positive coefficients")
    dominant = _invariant_dominant_terms(cd, p.terms)
    if dominant is None:
        return _greedy(cd, dict(p.terms), lambda w: weight_multiplicities(cd, w, max_terms).terms)
    # weight_multiplicities' rank cap, at the first reduction step
    if dominant and cd.rank > _LIMITS["rank-cap"]:
        raise ResourceCapError("rank-cap", f"character rank cap is {_LIMITS['rank-cap']}")
    return _greedy(cd, dominant, lambda w: _dominant_character(cd, w, max_terms))


def _invariant_dominant_terms(cd: CartanData, terms: dict[Weight, int]) -> dict[Weight, int] | None:
    """The dominant terms of ``terms`` if it is W-invariant, else None.

    Each Weyl orbit holds exactly one dominant weight, so ``terms`` is
    W-invariant exactly when the orbit of each dominant term carries that
    term's coefficient throughout, and these orbits cover every term.  The
    orbits are disjoint, so they cover the terms when their sizes add up to
    the number of terms.  Hence each walk (``cd.orbit_walk``) is capped at
    the terms not yet covered, and one that passes its cap decides the
    test, so no walk lists more weights than ``terms`` holds.  The dominant
    terms, those whose least coordinate is at least 0, are picked in one
    C-level pass.
    """
    left = len(terms)
    dominant = {}
    for u in compress(terms, map((0).__le__, map(min, terms))):
        try:
            orbit = cd.orbit_walk(u, left)
        except ResourceCapError:
            return None
        c = terms[u]
        if set(map(terms.get, orbit)) != {c}:
            return None
        left -= len(orbit)
        dominant[u] = c
    return dominant if left == 0 else None


def _greedy(
    cd: CartanData, work: dict[Weight, int], character: Callable[[Weight], dict[Weight, int]]
) -> DecomposeResult:
    """Subtract ``character(w)``, a term dict, at the highest remaining w.

    The keys are sorted once.  A reduction never adds a key, because a
    weight missing from ``work`` can only go negative, which ends the
    reduction; so the highest remaining weight is the first sorted key
    still in ``work``.  ``work`` is consumed.
    """
    hkey = cd.height_key
    pairs: list[tuple[Weight, int]] = []
    for _, w in sorted(zip(map(hkey, work), work), reverse=True):
        if w not in work:
            continue
        if not is_dominant(w):
            return NotInOmega(reason="leading-weight-not-dominant", witness=w)
        mult = work.pop(w)
        negatives = []
        for u, cu in character(w).items():
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


def _check_dimension(n) -> None:
    """Raises ``invalid-dimension`` unless n is a positive ``int``, not a
    ``bool``: a float or ``True`` would be read as a dimension."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InputError("invalid-dimension", "n must be a positive integer")


def is_in_omega_n(cd: CartanData, p: CharPoly, n: int, max_terms: int = _LIMITS["term-cap"]) -> DecomposeResult:
    """Certificate iff ``p`` is the character of an n-dimensional module."""
    _check_dimension(n)
    _check_cap(max_terms)
    actual = p.evaluate_at_one()
    if actual != n:
        return NotInOmega(reason="dimension-mismatch", expected=n, actual=actual)
    if not p.is_effective():
        bad = min(((c, w) for w, c in p.terms.items() if c < 0))
        return NotInOmega(
            reason="negative-coefficient", witness=bad[1], deficit=bad[0]
        )
    return decompose(cd, p, max_terms)


def _component_ranks(cartan) -> list[int]:
    """Per node, the rank of its simple component: the connected part of
    the Dynkin diagram, where i and j are joined when cartan[i][j] != 0."""
    ranks = [0] * len(cartan)
    for start in range(len(cartan)):
        if ranks[start]:  # already in a component found
            continue
        part, stack = {start}, [start]
        while stack:
            for j, a in enumerate(cartan[stack.pop()]):
                if a and j not in part:
                    part.add(j)
                    stack.append(j)
        for i in part:
            ranks[i] = len(part)
    return ranks


def dominant_weights_up_to_dim(cd: CartanData, bound: int) -> list[tuple[Weight, int]]:
    """All (dominant weight, dimension) pairs with dimension <= bound.

    Complete because the dimension strictly increases in every coordinate,
    and because a weight that is nonzero on a simple component of rank r
    has dimension at least r + 1: the factor acts faithfully, so the
    module's weights span rank r, and they sum to zero.  So the walk steps
    only along the coordinates of components with r + 1 <= bound, and
    builds no root data when there are none.  Sorted by descending
    (dimension, weight).
    """
    steps = [i for i, r in enumerate(_component_ranks(cd.cartan_matrix)) if r < bound]
    zero = (0,) * cd.rank
    out = {zero: 1}
    frontier = [zero]
    while frontier:
        nxt = []
        for lam in frontier:
            for i in steps:
                child = lam[:i] + (lam[i] + 1,) + lam[i + 1:]
                if child in out:
                    continue
                d = dimension(cd, child)
                if d <= bound:
                    out[child] = d
                    nxt.append(child)
        frontier = nxt
    return sorted(((lam, d) for lam, d in out.items()), key=lambda t: (t[1], t[0]), reverse=True)


def _count_certificates(dims: Sequence[int], n: int, cap: int) -> int:
    """Number of multisets of the irreducibles (one coin per dimension in
    ``dims``) with total dimension ``n``, saturated at ``cap + 1``.

    Coin-change: adding a coin of size d sets ways[j] += ways[j - d] for
    j = d..n in increasing order, done one block of d entries at a time.
    Coins only add multisets, so the count stops at the first coin, smallest
    first, that takes it past ``cap``.
    """
    top = cap + 1
    ways = [1] + [0] * n
    for d in sorted(dims):
        for start in range(d, n + 1, d):
            ways[start:start + d] = map(
                min, map(add, ways[start:start + d], ways[start - d:start]), repeat(top)
            )
        if ways[n] == top:
            break
    return ways[n]


def _certificates(irreps: Sequence[tuple[Weight, int]], n: int) -> Iterator[Certificate]:
    """Every certificate of total dimension ``n``, without recursion.

    ``counts[i]`` is the multiplicity of irreducible i and ``remaining[i]``
    the dimension left before it.  Each round fills the following levels
    with the largest counts that fit, emits a certificate if nothing is
    left, and then lowers the deepest nonzero count by one.
    """
    counts: list[int] = []
    remaining = [n]
    while True:
        while remaining[-1] and len(counts) < len(irreps):
            d = irreps[len(counts)][1]
            counts.append(remaining[-1] // d)
            remaining.append(remaining[-1] % d)
        if not remaining[-1]:
            yield Certificate(tuple((irreps[i][0], c) for i, c in enumerate(counts) if c), n)
        while counts and not counts[-1]:
            counts.pop()
            remaining.pop()
        if not counts:
            return
        counts[-1] -= 1
        remaining[-1] += irreps[len(counts) - 1][1]


def omega_n_enumerate(
    cd: CartanData, n: int, max_n: int = _LIMITS["n-cap"], max_certificates: int | None = None
) -> Iterator[Certificate]:
    """All certificates of total dimension exactly ``n``, largest parts first.

    The stream is deterministic, complete and duplicate-free: summands are
    chosen along the (dimension, weight)-descending list of irreducibles,
    with higher multiplicities of larger summands emitted first.  It is
    lazy; with ``max_certificates`` the certificates are counted before the
    stream starts, and more of them than that raises the term cap, so a
    caller that prints them all prints a whole answer or none.
    """
    _check_dimension(n)
    _check_cap(max_n)
    if max_certificates is not None:
        _check_cap(max_certificates)
    if n > max_n:
        raise ResourceCapError("n-cap", f"n={n} exceeds cap {max_n}")
    irreps = dominant_weights_up_to_dim(cd, n)
    if max_certificates is not None:
        count = _count_certificates([d for _, d in irreps], n, max_certificates)
        if count > max_certificates:
            raise ResourceCapError(
                "term-cap", f"certificates of dimension {n} exceed cap {max_certificates}"
            )
    return _certificates(irreps, n)
