"""Type-A specialization: partitions, Schur polynomials, tableau weights.

Schur polynomials live in the semiring of exponent vectors on y1..ym taken
modulo the relation y1*...*ym = 1; a canonical representative has at least
one zero exponent.  The substitution wk -> y1*...*yk identifies rank-(m-1)
lattice polynomials with these, with inverse ek -> ek - e(k+1); both
directions are exact monomial maps.

No tableau is enumerated: s_mu in m variables is alpha of the character of
the A_(m-1) irreducible of highest weight the part differences of mu, whose
weights, repeated by multiplicity, are the tableau contents.  The character
rank cap does not apply: the character is computed in max(2, |mu|)
variables, and its terms are spread over m variables when m is larger.
The hook-content count caps the content list, and the term count times m
caps the orbits.
"""

from __future__ import annotations

from itertools import accumulate, chain, combinations, repeat
from math import comb
from operator import sub
from typing import Iterable, Mapping

from . import characters
from .cartan import Weight, builtin_cartan
from .characters import TERM_CAP
from .charpoly import CharPoly, _parse_terms, _TermDict, _write
from .errors import InputError, ResourceCapError

Partition = tuple[int, ...]


def validate_partition(parts: Iterable[int]) -> Partition:
    mu = tuple(parts)
    if any(not isinstance(x, int) or x < 0 for x in mu):
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
    (``alpha``, ``+``, ``*``) are wrapped by ``_trusted``.
    """

    __slots__ = ("nvars", "terms")
    _size_name = "nvars"
    _reduce = staticmethod(_canonical)

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int] | Iterable[tuple[tuple[int, ...], int]] = ()):
        if nvars < 1:
            raise InputError("invalid-rank", "need at least one variable")
        self._fill(nvars, self._validated(nvars, terms))

    def __str__(self) -> str:
        return render_ypoly(self)


def render_ypoly(q: YPoly) -> str:
    return _write(q.terms, [f"y{i + 1}" for i in range(q.nvars)])


def parse_ypoly(text: str, nvars: int) -> YPoly:
    return YPoly(nvars, _parse_terms(text, "y", nvars, None))


def _shape(mu: Partition, m: int) -> Partition:
    """Nonzero parts of a validated partition, which must number at most m;
    the helpers below take the shape and validate nothing again."""
    shape = tuple(p for p in mu if p > 0)
    if len(shape) > m:
        raise InputError("invalid-partition", f"partition {mu} has more than {m} parts")
    return shape


def _type_a_character(shape: Partition, m: int) -> CharPoly:
    """Character of V(lambda(shape)) in A_(m-1), for m >= 2; no rank cap.

    A weight's multiplicity is a Kostka number, which depends only on the
    sorted nonzero parts of its content, and a content has at most |shape|
    nonzero parts.  So the engine runs in A_(k-1) for k = max(2, |shape|)
    variables, and when m is larger each sequence of nonzero parts it
    shows is placed on every support of its length in m variables: the
    root data does not grow with m.  The term count times m is held to
    ``TERM_CAP`` before any term is built.
    """
    size = sum(shape)
    k = min(m, max(2, size))
    top = _content_to_weight(shape + (0,) * (k - len(shape)))  # the part differences
    char = characters._character(builtin_cartan("A", k - 1), top)
    if k == m:
        return char
    compositions = []  # each nonzero part sequence once, from its left-justified content
    for w, c in char.terms.items():
        e = _content(w, size)
        nonzero = tuple(x for x in e if x)
        if e[:len(nonzero)] == nonzero:
            compositions.append((nonzero, c))
    n = sum(comb(m, len(e)) for e, _ in compositions)
    if n * m > TERM_CAP:
        raise ResourceCapError("term-cap", f"{n} terms times {m} variables exceed cap {TERM_CAP}")
    terms = {}
    for e, c in compositions:
        for support in combinations(range(m), len(e)):
            vec = [0] * m
            for i, x in zip(support, e):
                vec[i] = x
            terms[_content_to_weight(vec)] = c
    return CharPoly._trusted(m - 1, terms)


def _content(w: Weight, size: int) -> tuple[int, ...]:
    """Tableau content of the weight w: its suffix sums, shifted to total size."""
    e = _suffix_sums(w)
    shift = (size - sum(e)) // len(e)
    return tuple(x + shift for x in e)


def _check_tableau_count(shape: Partition, m: int) -> None:
    """The hook-content count of the tableaux, held to ``TERM_CAP``."""
    n = _hook_content(shape, m)
    if n > TERM_CAP:
        raise ResourceCapError("term-cap", f"{n} tableaux exceed cap {TERM_CAP}")


def _tableaux(char: CharPoly, size: int) -> list[tuple[tuple[int, ...], Weight, int]]:
    """(content, weight, multiplicity) per weight of a type-A character of
    shape size ``size``, sorted by descending content: the fixed order the
    weight listings downstream rely on.  Contents are distinct, so the sort
    never compares weights."""
    return sorted(((_content(w, size), w, c) for w, c in char.terms.items()), reverse=True)


def ssyt_contents(mu: Iterable[int], m: int) -> tuple[tuple[int, ...], ...]:
    """Content vectors of all semistandard tableaux of shape mu, entries <= m.

    One vector per tableau (so repeats appear), sorted descending.  A
    weight of the character, repeated by its multiplicity, has one content.
    """
    shape = _shape(validate_partition(mu), m)
    _check_tableau_count(shape, m)
    size = sum(shape)
    if m < 2 or not shape:
        return ((size,) * m,)  # m = 0 leaves the empty content
    tableaux = _tableaux(_type_a_character(shape, m), size)
    return tuple(chain.from_iterable(repeat(e, c) for e, _, c in tableaux))


def schur(mu: Iterable[int], m: int) -> YPoly:
    """Schur polynomial in m variables: alpha of the type-A character."""
    shape = _shape(validate_partition(mu), m)
    if m < 2 or not shape:
        return YPoly(m, [((sum(shape),) * m, 1)])
    return alpha(_type_a_character(shape, m))


def schur_dim(mu: Iterable[int], m: int) -> int:
    """Value at (1,..,1) by the hook-content product; counts the tableaux."""
    return _hook_content(_shape(validate_partition(mu), m), m)


def _hook_content(shape: Partition, m: int) -> int:
    """The hook-content product of a shape with at most m parts."""
    conj = [sum(1 for p in shape if p > j) for j in range(shape[0])] if shape else []
    num = 1
    den = 1
    for i, row in enumerate(shape):
        for j in range(row):
            num *= m + j - i
            den *= row - j + conj[j] - i - 1  # arm + leg + 1
    value, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("hook-content product did not divide exactly")
    return value


def weight_of_partition(mu: Iterable[int], m: int) -> Weight:
    """Highest weight of the irreducible with Schur character: part differences."""
    mu = validate_partition(mu)
    if len(mu) > m:
        raise InputError("invalid-partition", f"partition {mu} has more than {m} parts")
    if m < 2:
        raise InputError("invalid-rank", "need m >= 2 for a nontrivial weight lattice")
    return _content_to_weight(mu + (0,) * (m - len(mu)))


def _suffix_sums(w: Weight) -> tuple[int, ...]:
    """Exponents of alpha's image of w: ek = w_k + ... + w_(m-1), and em = 0."""
    return (*accumulate(reversed(w)),)[::-1] + (0,)


def _content_to_weight(e: tuple[int, ...]) -> Weight:
    return tuple(map(sub, e, e[1:]))


def weights_of_schur(mu: Iterable[int], m: int) -> list[Weight]:
    """Torus weights of the Schur module: one per tableau, fixed order, and
    summing to zero as a character's weights do; capped by ``TERM_CAP``."""
    mu = validate_partition(mu)
    if m < 2:
        raise InputError("invalid-rank", "need m >= 2 for a nontrivial weight lattice")
    return _schur_weights(_shape(mu, m), m)[0]


def _schur_weights(shape: Partition, m: int) -> tuple[list[Weight], CharPoly]:
    """The tableau weights of a shape in m >= 2 variables, their count
    capped by ``TERM_CAP``, with the type-A character they are read off.

    A tableau's weight is the character's weight of its content, so each
    distinct weight is one tuple, the character's key, repeated by its
    multiplicity.
    """
    _check_tableau_count(shape, m)
    char = _type_a_character(shape, m)
    tableaux = _tableaux(char, sum(shape))
    return list(chain.from_iterable(repeat(w, c) for _, w, c in tableaux)), char


def alpha(p: CharPoly) -> YPoly:
    """Substitute wk -> y1*...*yk (rho -> y2*y3^2*...*ym^(m-1)), reduced.

    The suffix sums less their minimum are canonical, and the lattice
    point is their difference sequence, so no two terms share a key.
    """
    terms = {_canonical(_suffix_sums(w)): c for w, c in p.terms.items()}
    return YPoly._trusted(p.rank + 1, terms)


def alpha_inverse(q: YPoly) -> CharPoly:
    """Inverse substitution: exponent differences give the lattice point,
    and canonical keys with equal differences are equal."""
    if q.nvars < 2:
        raise InputError("invalid-rank", "need at least two variables to invert")
    return CharPoly._trusted(q.nvars - 1, {_content_to_weight(e): c for e, c in q.terms.items()})
