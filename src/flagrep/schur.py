"""Type-A specialization: partitions, Schur polynomials, tableau weights.

Schur polynomials live in the semiring of exponent vectors on y1..ym taken
modulo the relation y1*...*ym = 1; a canonical representative has at least
one zero exponent.  The substitution wk -> y1*...*yk identifies rank-(m-1)
lattice polynomials with these, with inverse ek -> ek - e(k+1); both
directions are exact monomial maps, which ``alpha`` and ``alpha_inverse``
apply to all the terms at once, one coordinate column per pass.

No tableau is enumerated and no Weyl orbit is walked.  The tableau
contents of mu in m variables are the weights, in content coordinates, of
the A_(m-1) irreducible of highest weight the part differences of mu, and
a content's multiplicity is the Kostka number of the partition its sorted
entries form.  So the character engine gives the dominant multiplicities,
in min(m, max(2, |mu|)) variables, and each dominant content's distinct
rearrangements in m variables carry its multiplicity.  The character rank
cap does not apply.  The tableau count caps the content list, and
for m > max(2, |mu|) the content count times m caps the rearrangements
before any is built.

The work is done once per dominant partition where it can be.  ``schur``
rearranges each partition, less its smallest entry, straight into
canonical keys, and sorts nothing (``_schur``).  Only the tableau listings
of ``ssyt_contents``, ``weights_of_schur`` and ``cor3`` build the content
list and sort it.  ``cor3`` compares its matrix's image under ``alpha``
with the polynomial ``_schur`` builds: ``alpha`` makes the one side's
canonical keys and ``_rearrangements`` the other's, and both sides read
the dominant partitions of one type-A character, which the character
cache holds.

A partition's rearrangements depend only on its multiplicity pattern, the
count of each distinct entry.  Each pattern's layout of positions is
built once and kept, by columns of one byte per entry, in a memo keyed by
the pattern and held to the term cap in bytes, so a partition costs one pass
per column.  Only a process that answers several Schur queries in the
same number of variables reuses a layout; a single query pays one walk
step per row of each layout it builds.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from itertools import chain, combinations, repeat
from math import comb, factorial, perm, prod
from operator import add, itemgetter, sub
from typing import Collection, Iterable, Iterator, Mapping

from . import cartan, characters
from .cartan import Weight, builtin_cartan
from .charpoly import CharPoly, _TermDict, _write
from .errors import _LIMITS, InputError, ResourceCapError

Partition = tuple[int, ...]


def validate_partition(parts: Iterable[int]) -> Partition:
    mu = tuple(parts)
    if any(type(x) is not int or x < 0 for x in mu):  # no bool, as for CharPoly terms
        raise InputError("invalid-partition", "parts must be nonnegative integers")
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        raise InputError("invalid-partition", f"{mu} is not weakly decreasing")
    return mu


def parse_partition(text: str) -> Partition:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError("invalid-partition", f"cannot parse partition {text!r}") from None
    return validate_partition(parts)


def _canonical(e: tuple[int, ...]) -> tuple[int, ...]:
    low = min(e)
    return e if low == 0 else tuple(x - low for x in e)


class YPoly(_TermDict):
    """Integer combination of exponent vectors modulo y1*...*ym = 1.

    The term-dict format of ``CharPoly`` with canonical keys: the public
    constructor checks and reduces every term; results the library builds
    (``schur``, ``alpha``, ``+``, ``*``) are wrapped by ``_trusted``.
    """

    __slots__ = ("nvars", "terms")
    _size_name = "nvars"
    _reduce = staticmethod(_canonical)

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int] | Iterable[tuple[tuple[int, ...], int]] = ()):
        self._check_size(nvars)
        if nvars < 1:
            raise InputError("invalid-rank", "need at least one variable")
        self._fill(nvars, self._validated(nvars, terms))

    def __str__(self) -> str:
        return render_ypoly(self)


def render_ypoly(q: YPoly) -> str:
    """Canonical text form, highest key first.  Anything but a ``YPoly``
    raises ``InputError`` ``invalid-poly``: a ``CharPoly``'s negative
    exponents have no text here."""
    if not isinstance(q, YPoly):
        raise InputError("invalid-poly", f"render_ypoly takes a YPoly, not {type(q).__name__}")
    return "".join(_write(q.terms, "y", None))


def parse_ypoly(text: str, nvars: int) -> YPoly:
    return YPoly._parsed(nvars, text, "y", None)


def _check_variables(m: int) -> None:
    """Raises ``invalid-rank`` unless the number of variables m is an
    ``int``, not a ``bool``: ``True`` would be read as one variable."""
    if type(m) is not int:
        raise InputError("invalid-rank", "number of variables must be an integer")


def _shape(mu: Partition, m: int) -> Partition:
    """Nonzero parts of a validated partition, which must number at most m;
    the helpers below take the shape and validate nothing again."""
    shape = tuple(p for p in mu if p > 0)
    if len(shape) > m:
        raise InputError("invalid-partition", f"partition {mu} has more than {m} parts")
    return shape


def _partitions(shape: Partition, m: int) -> list[tuple[Partition, int]]:
    """(partition, multiplicity) per dominant tableau content of a nonempty
    shape in m >= 2 variables, the partition without its zero parts.

    A content's multiplicity is a Kostka number, which depends only on the
    partition its sorted entries form (Macdonald, I.6), and that partition
    has at most |shape| nonzero parts.  So the dominant multiplicities of
    A_(k-1), for k = min(m, max(2, |shape|)), give every partition, and
    each partition's distinct rearrangements, padded to m, are its contents:
    the root data does not grow with m.  When k < m, the content count
    times m is held to the term cap (``_LIMITS``), counted on the nonzero
    parts before any content is built; for k = m the character's term cap
    applies.
    The character's first caps, on its root strings and on the k(k-1)/2
    positive roots of A_(k-1), are checked before the group is built.
    """
    size = sum(shape)
    k = min(m, max(2, size))
    top = _content_to_weight(shape + (0,) * (k - len(shape)))  # the part differences
    # the character's first two caps, raised before A_(k-1) and its k^2 matrix are built
    characters._check_string_terms(top, _LIMITS["term-cap"])
    cartan._check_root_count(k * (k - 1) // 2)
    dominant = characters._dominant_character(builtin_cartan("A", k - 1), top, _LIMITS["term-cap"])
    partitions = []
    for e, c in zip(zip(*_suffix_sums(dominant)), dominant.values()):
        shift = (size - sum(e)) // k  # a content sums to |shape|
        partitions.append((tuple(filter(None, (x + shift for x in e))), c))
    if k < m:
        n = sum(perm(m, len(p)) // prod(map(factorial, Counter(p).values())) for p, _ in partitions)
        _check_content_count(n, m)
    return partitions


def _contents(shape: Partition, m: int) -> list[tuple[tuple[int, ...], int]]:
    """(content, multiplicity) per distinct tableau content of a nonempty
    shape in m >= 2 variables, sorted by descending content: the fixed
    order the tableau listings of ``ssyt_contents``, ``weights_of_schur``
    and ``cor3`` rely on.  ``schur`` needs no order and builds no content
    list.

    The contents are each partition's rearrangements, padded to m, each in
    a descending run; contents are distinct, so they sort by the content
    alone, and the runs merge.
    """
    contents = [(e, c) for p, c in _partitions(shape, m) for e in _rearrangements(p + (0,) * (m - len(p)))]
    contents.sort(key=itemgetter(0), reverse=True)
    return contents


def _rearrangements(e: tuple[int, ...], low: int = 0) -> Iterator[tuple[int, ...]]:
    """The distinct rearrangements of a weakly decreasing tuple, each entry
    less ``low``, in descending order: e's multiplicity pattern's layout
    (``_layout``) read through e's distinct values, one pass per column
    and one ``zip``, with no Python step per rearrangement.  A column
    becomes its values by one ``bytes.translate`` when they all fit a
    byte, else by one ``map``."""
    values = sorted(set(e))  # a layout's index j stands for the j-th smallest entry
    cols = _layout(tuple(map(e.count, reversed(values))))
    if low:
        values = [x - low for x in values]
    if values[-1] < 256:
        table = bytes(values).ljust(256, b"\0")
        return zip(*[col.translate(table) for col in cols])
    return zip(*[map(values.__getitem__, col) for col in cols])


#: The layouts ``_layout`` keeps, keyed by multiplicity pattern, oldest
#: first, and the bytes of their columns, which ``_layout`` holds to
#: the term cap of ``_LIMITS``.
_LAYOUTS: dict[tuple[int, ...], tuple[bytes, ...]] = {}
_layout_bytes = 0
_LAYOUT_LOCK = threading.Lock()


def _layout(counts: tuple[int, ...]) -> tuple[bytes, ...]:
    """The distinct rearrangements of a multiplicity pattern's index tuple,
    in descending order, stored by columns: one ``bytes`` per position.

    The pattern counts each distinct entry of a weakly decreasing tuple,
    largest entry first, so (5, 5, 2, 0, 0, 0) has pattern (2, 1, 3) and
    index tuple (2, 2, 1, 0, 0, 0): index j stands for the j-th smallest
    entry, so the index rows and the tuples they stand for share one
    order.  Each row is the previous permutation of the one before, found
    in place (Knuth, TAOCP 4A, 7.2.1.2, Algorithm L), and appended to one
    row-major buffer that a strided slice per position cuts into columns.
    An index fits a byte: d distinct entries have at least d! arrangements,
    and the caps stop d > 10 before any layout is built.

    Every tuple of one pattern shares its layout, so the layouts are kept
    in one memo keyed by the pattern and holding at most the term cap of
    ``_LIMITS``, read at each build, in bytes of columns (``sys.getsizeof``),
    the oldest evicted first.  A layout larger than that is built and not
    kept.
    """
    global _layout_bytes
    cols = _LAYOUTS.get(counts)
    if cols is not None:
        return cols
    a = bytearray(j for j, c in zip(range(len(counts) - 1, -1, -1), counts) for _ in range(c))
    m = len(a)
    rows = bytearray()
    while True:
        rows += a
        i = m - 2
        while i >= 0 and a[i] <= a[i + 1]:
            i -= 1
        if i < 0:
            break
        j = m - 1
        while a[j] >= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]
    cols = tuple(bytes(rows[i::m]) for i in range(m))
    size = sum(map(sys.getsizeof, cols))
    with _LAYOUT_LOCK:  # two threads may build one layout; it is counted once
        if size <= _LIMITS["term-cap"] and counts not in _LAYOUTS:
            while _layout_bytes + size > _LIMITS["term-cap"]:
                _layout_bytes -= sum(map(sys.getsizeof, _LAYOUTS.pop(next(iter(_LAYOUTS)))))
            _LAYOUTS[counts] = cols
            _layout_bytes += size
    return cols


def _check_content_count(n: int, m: int) -> None:
    """n contents of m entries each, held to the term cap (``_LIMITS``)
    before any is built."""
    if n * m > _LIMITS["term-cap"]:
        raise ResourceCapError("term-cap", f"{n} terms times {m} variables exceed cap {_LIMITS['term-cap']}")


def _check_tableau_count(shape: Partition, m: int) -> None:
    """The count of the tableaux, held to the term cap (``_LIMITS``).  A
    count of more digits than Python converts to text is named by a power
    of two below it."""
    n = _tableau_count(shape, m)
    if n > _LIMITS["term-cap"]:
        try:
            count = str(n)
        except ValueError:  # more digits than int-to-text converts
            count = f"at least 2^{n.bit_length() - 1}"
        raise ResourceCapError("term-cap", f"{count} tableaux exceed cap {_LIMITS['term-cap']}")


def ssyt_contents(mu: Iterable[int], m: int) -> tuple[tuple[int, ...], ...]:
    """Content vectors of all semistandard tableaux of shape mu, entries <= m.

    One vector per tableau (so repeats appear), sorted descending.  A
    weight of the character, repeated by its multiplicity, has one content.
    """
    _check_variables(m)
    shape = _shape(validate_partition(mu), m)
    _check_tableau_count(shape, m)
    if m < 2 or not shape:
        _check_content_count(1, m)
        return ((sum(shape),) * m,)  # m = 0 leaves the empty content
    return tuple(chain.from_iterable(repeat(e, c) for e, c in _contents(shape, m)))


def schur(mu: Iterable[int], m: int) -> YPoly:
    """Schur polynomial in m variables: the tableau contents, canonical."""
    _check_variables(m)
    shape = _shape(validate_partition(mu), m)
    if m < 1:
        raise InputError("invalid-rank", "need at least one variable")
    if m < 2 or not shape:
        _check_content_count(1, m)
        return YPoly._trusted(m, {(0,) * m: 1})  # one constant content, canonical
    return _schur(shape, m)


def _schur(shape: Partition, m: int) -> YPoly:
    """The Schur polynomial of a nonempty shape in m >= 2 variables: each
    dominant partition's rearrangements, less its smallest entry, are the
    canonical keys of its contents, and take its multiplicity."""
    terms: dict[tuple[int, ...], int] = {}
    for p, c in _partitions(shape, m):
        e = p + (0,) * (m - len(p))
        terms.update(zip(_rearrangements(e, e[-1]), repeat(c)))
    return YPoly._trusted(m, terms)


def schur_dim(mu: Iterable[int], m: int) -> int:
    """Value at (1,..,1) by Weyl's product over rows; counts the tableaux."""
    _check_variables(m)
    return _tableau_count(_shape(validate_partition(mu), m), m)


def _tableau_count(shape: Partition, m: int) -> int:
    """The number of semistandard tableaux of a shape with l <= m parts:
    Weyl's product over the rows i < j <= m of (e_i - e_j + j - i)/(j - i),
    with e_j = 0 for j > l.  The rows j > l of each row i <= l together give
    comb(e_i + m - i, m - l) / comb(m - i, m - l), so the product takes
    O(l * l) factors and l binomials, however long the rows are."""
    l = len(shape)
    pairs = list(combinations(range(l), 2))
    num = prod(shape[i] - shape[j] + j - i for i, j in pairs)
    num *= prod(comb(e + m - i, m - l) for i, e in enumerate(shape, 1))
    den = prod(j - i for i, j in pairs) * prod(comb(m - i, m - l) for i in range(1, l + 1))
    value, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("Weyl's product did not divide exactly")
    return value


def weight_of_partition(mu: Iterable[int], m: int) -> Weight:
    """Highest weight of the irreducible with Schur character: part differences."""
    _check_variables(m)
    mu = validate_partition(mu)
    if len(mu) > m:
        raise InputError("invalid-partition", f"partition {mu} has more than {m} parts")
    if m < 2:
        raise InputError("invalid-rank", "need m >= 2 for a nontrivial weight lattice")
    return _content_to_weight(mu + (0,) * (m - len(mu)))


def _suffix_sums(weights: Collection[Weight]) -> list[list[int]]:
    """Exponents of alpha's image of each weight w, as columns:
    ek = w_k + ... + w_(m-1), and em = 0.  One ``map(add)`` pass per
    coordinate from the last, each column of the weights dropped once it
    is added."""
    cols = list(zip(*weights))
    sums = [[0] * len(weights)]
    while cols:
        sums.append(list(map(add, sums[-1], cols.pop())))
    sums.reverse()
    return sums


def _content_to_weight(e: tuple[int, ...]) -> Weight:
    return tuple(map(sub, e, e[1:]))


def weights_of_schur(mu: Iterable[int], m: int) -> list[Weight]:
    """Torus weights of the Schur module: one per tableau, fixed order, and
    summing to zero as a character's weights do; capped by the term cap
    (``_LIMITS``)."""
    _check_variables(m)
    mu = validate_partition(mu)
    if m < 2:
        raise InputError("invalid-rank", "need m >= 2 for a nontrivial weight lattice")
    return _schur_weights(_shape(mu, m), m)


def _schur_weights(shape: Partition, m: int) -> list[Weight]:
    """The tableau weights of a shape in m >= 2 variables, in the order of
    ``_contents``, their count capped by the term cap (``_LIMITS``).

    A tableau's weight is the part differences of its content, so each
    distinct weight is one tuple, repeated by its multiplicity.
    """
    _check_tableau_count(shape, m)
    contents, counts = zip(*_contents(shape, m))
    return list(chain.from_iterable(map(repeat, _differences(contents), counts)))


def alpha(p: CharPoly) -> YPoly:
    """Substitute wk -> y1*...*yk (rho -> y2*y3^2*...*ym^(m-1)), reduced.

    The exponents of w's image are its suffix sums less their minimum,
    which makes them canonical; the lattice point is their difference
    sequence, so no two terms share a key.  The keys are built by columns
    (``_suffix_sums``): one ``map(min)`` over the columns gives the shifts,
    one ``map(sub)`` per column subtracts them only when one is nonzero,
    and one ``zip`` turns the columns back into keys in the order of
    ``p``'s terms.  Anything but a ``CharPoly`` raises ``InputError``
    ``invalid-poly``.
    """
    if not isinstance(p, CharPoly):
        raise InputError("invalid-poly", f"alpha takes a CharPoly, not {type(p).__name__}")
    sums = _suffix_sums(p.terms)
    low = list(map(min, *sums))
    if any(low):
        for i, col in enumerate(sums):
            sums[i] = list(map(sub, col, low))
    return YPoly._trusted(p.rank + 1, dict(zip(zip(*sums), p.terms.values())))


def _differences(keys: Iterable[tuple[int, ...]]) -> Iterator[Weight]:
    """The difference sequence of each key of two or more coordinates, in
    the keys' order, built by columns: one ``map(sub)`` pass per pair of
    adjacent coordinates."""
    cols = list(zip(*keys))
    return zip(*[map(sub, a, b) for a, b in zip(cols, cols[1:])])


def alpha_inverse(q: YPoly) -> CharPoly:
    """Inverse substitution: exponent differences give the lattice point,
    and canonical keys with equal differences are equal.  Anything but a
    ``YPoly`` raises ``InputError`` ``invalid-poly``."""
    if not isinstance(q, YPoly):
        raise InputError("invalid-poly", f"alpha_inverse takes a YPoly, not {type(q).__name__}")
    if q.nvars < 2:
        raise InputError("invalid-rank", "need at least two variables to invert")
    return CharPoly._trusted(q.nvars - 1, dict(zip(_differences(q.terms), q.terms.values())))
