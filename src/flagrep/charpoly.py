"""Sparse exact polynomials on a weight lattice, with an inverse relation.

Internally a polynomial is a finite map from lattice points (Laurent
exponent vectors on the fundamental weights w1..wm) to integer
coefficients.  The relation

    w1 * w2 * ... * wm * rho = 1

is applied only at the text boundary: every lattice point has a unique
reduced monomial rendering in w1..wm, rho with nonnegative exponents at
least one of which is zero.  Keeping the relation out of the internal
representation makes it a property of the rendering instead of a rewrite
rule that arithmetic would have to maintain.

Input is validated once, where it enters: the public ``CharPoly(...)``
constructor checks every term, and ``parse`` every token as it reads.
Results the library computes itself (arithmetic, characters, s-invariants,
the reader's terms) already satisfy the invariant and are wrapped by
``CharPoly._trusted`` without being re-validated.  The
term-dict format, its validation and its arithmetic are shared with
``schur.YPoly`` through one base class.

``render`` (and ``schur.render_ypoly``) write through one writer,
``_write``, column by column in blocks of ``_BLOCK`` terms: per block, the
exponent columns of the variables that occur are mapped through per-variable
factor texts and the rows joined, so no per-term Python loop runs and a
variable absent from a block costs one slice and compare.  A unit coefficient is
dropped by one text replacement, which is exact because no factor text holds
a space.

One reader, ``_read``, takes all polynomial text, for ``parse`` and
``schur.parse_ypoly``.  Text in the form ``render`` writes is read in one
pass of splits on the term separators, ``*`` and ``^``; other text first
loses its stray whitespace.  A term the pass cannot take is read again
token by token, which raises the error the grammar's recursive-descent
parser (kept in the tests as their oracle) raises at that spot.
"""

from __future__ import annotations

import re
import sys
from itertools import chain
from operator import add
from typing import Iterable, Mapping, NamedTuple

from .cartan import Weight
from .errors import InputError

#: Parser guard; canonical data never gets near this.
MAX_EXPONENT = 10**6
_EXPONENT_DIGITS = len(str(MAX_EXPONENT))


class NormalMonomial(NamedTuple):
    """Reduced exponents: min(omega_exps + (rho_exp,)) == 0."""

    omega_exps: tuple[int, ...]
    rho_exp: int


def normalize(w: Weight) -> NormalMonomial:
    """Reduced monomial of a lattice point: rho absorbs negative exponents."""
    c = max(0, -min(w))
    return NormalMonomial(tuple(x + c for x in w), c)


def denormalize(nm: NormalMonomial) -> Weight:
    """Inverse of normalize; rejects non-reduced input."""
    exps, c = nm
    if c < 0 or any(x < 0 for x in exps) or min(min(exps), c) != 0:
        raise InputError("not-reduced", f"monomial {nm} is not reduced")
    return tuple(x - c for x in exps)


def _add_terms(out: dict, items: Iterable[tuple[tuple[int, ...], int]]) -> dict:
    """``out`` with each (key, coefficient) pair added in, zero sums dropped."""
    for e, c in items:
        c = out.get(e, 0) + c
        if c:
            out[e] = c
        elif e in out:
            del out[e]
    return out


class _TermDict:
    """Immutable term dict, the one format of ``CharPoly`` and ``schur.YPoly``:
    tuple keys of one length, in the slot ``_size_name`` names, reduced by
    ``_reduce`` (None keeps the tuple), and nonzero ``int`` values.  Each
    subclass has its own ``__init__``, which validates, and ``__str__``.
    """

    __slots__ = ()
    _size_name: str
    _reduce = None

    @classmethod
    def _check_size(cls, n) -> None:
        """Raises ``invalid-rank`` unless the size is exactly an ``int``,
        before any comparison: ``True`` would be read as 1, and a float
        would be kept as the size or fail deep inside."""
        if type(n) is not int:
            raise InputError("invalid-rank", f"{cls._size_name} must be an integer")

    @classmethod
    def _validated(cls, n: int, terms) -> dict[tuple[int, ...], int]:
        """The clean term dict of public input, equal keys summed.

        One bulk pass accepts the common case, every key of length ``n``
        and every exponent and coefficient an exact ``int``; otherwise the
        first bad term names the error.
        """
        pairs = list(terms.items() if isinstance(terms, Mapping) else terms)
        if not pairs:
            return {}
        keys, coeffs = zip(*pairs, strict=True)
        keys = tuple(map(tuple, keys))
        if set(map(len, keys)) != {n} or not set(map(type, chain(coeffs, chain.from_iterable(keys)))) <= {int}:
            for e, c in zip(keys, coeffs):
                if len(e) != n:
                    raise InputError("rank-mismatch", f"term {e} does not have rank {n}")
                if not (all(type(x) is int for x in e) and type(c) is int):
                    raise InputError("invalid-term", "exponents and coefficients must be integers")
        if cls._reduce is not None:
            keys = map(cls._reduce, keys)
        return _add_terms({}, zip(keys, coeffs))

    def _fill(self, n: int, terms: dict[tuple[int, ...], int]) -> None:
        object.__setattr__(self, self._size_name, n)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def _trusted(cls, n: int, terms: dict[tuple[int, ...], int]):
        """Wrap a term dict the library built itself, with no checks or copy:
        it must already be clean, and no other reference may mutate it."""
        p = object.__new__(cls)
        p._fill(n, terms)
        return p

    @classmethod
    def _parsed(cls, n: int, text: str, prefix: str, rho_name: str | None):
        """The polynomial ``_read`` reads from text, its terms summed with
        no second check: their keys are exact int tuples of length n,
        reduced here by ``_reduce``.  A size that is not an ``int`` is
        refused first; one below 1 gets the constructor's error, after any
        error in the text."""
        cls._check_size(n)
        terms = _read(text, prefix, n, rho_name)
        if n < 1:
            return cls(n)  # raises
        if cls._reduce is not None:
            terms = ((cls._reduce(e), c) for e, c in terms)
        return cls._trusted(n, _add_terms({}, terms))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # the default would restore the slots through __setattr__
        return type(self), (self._size, self.terms)

    @classmethod
    def zero(cls, n: int):
        return cls(n)

    @classmethod
    def one(cls, n: int):
        cls._check_size(n)  # before the key is built from n
        return cls(n, {(0,) * n: 1})

    @property
    def _size(self) -> int:
        return getattr(self, self._size_name)

    def evaluate_at_one(self) -> int:
        """Value at the identity: every monomial is 1 there."""
        return sum(self.terms.values())

    def is_effective(self) -> bool:
        return min(self.terms.values(), default=1) > 0

    def _common_size(self, other: "_TermDict") -> int:
        n, m = self._size, other._size
        if n != m:
            raise InputError("rank-mismatch", f"ranks {n} and {m} differ")
        return n

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._size == other._size and self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        n = self._common_size(other)
        return self._trusted(n, _add_terms(dict(self.terms), other.terms.items()))

    def __mul__(self, other):
        if isinstance(other, int):
            return self._trusted(self._size, {e: c * other for e, c in self.terms.items()} if other else {})
        if not isinstance(other, type(self)):
            return NotImplemented
        n = self._common_size(other)
        terms = ((tuple(map(add, e, f)), c * d) for e, c in self.terms.items() for f, d in other.terms.items())
        if self._reduce is not None:  # sums of reduced keys need not be reduced
            terms = ((self._reduce(e), c) for e, c in terms)
        return self._trusted(n, _add_terms({}, terms))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._size}, {str(self)!r})"


class CharPoly(_TermDict):
    """Finitely supported integer-valued function on a rank-m weight lattice.

    Values are immutable after construction; arithmetic returns new objects.
    A polynomial is "effective" when every coefficient is positive, which is
    the shape characters take; intermediate arithmetic may go negative.
    """

    __slots__ = ("rank", "terms")
    _size_name = "rank"

    def __init__(self, rank: int, terms: Mapping[Weight, int] | Iterable[tuple[Weight, int]] = ()):
        self._check_size(rank)
        if rank < 1:
            raise InputError("invalid-rank", "rank must be positive")
        self._fill(rank, self._validated(rank, terms))

    def coefficient(self, w: Weight) -> int:
        return self.terms.get(tuple(w), 0)

    def __neg__(self) -> "CharPoly":
        return CharPoly._trusted(self.rank, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "CharPoly") -> "CharPoly":
        if not isinstance(other, CharPoly):
            return NotImplemented
        return self + (-other)

    def __str__(self) -> str:
        return render(self)


def render(p: CharPoly) -> str:
    """Canonical text form: reduced monomials, highest lattice point first."""
    return _write(p.terms, "w", "rho")


#: Terms per block in ``_write``: the lists it makes for one block are this
#: long (times the key length), whatever the answer's size.
_BLOCK = 4096


def _write(terms: Mapping[tuple[int, ...], int], prefix: str, rho_name: str | None) -> str:
    """Text of a term dict over ``prefix``1..``prefix``<n> and the relation
    variable ``rho_name``, highest key first.

    The sorted keys are written column by column, one block of ``_BLOCK``
    terms at a time.  Per block: each key's rho shift (rho absorbs the
    negative exponents, as in ``normalize``; without ``rho_name`` the keys
    have none), the block's columns sliced from one flat list of its
    entries, and per variable its column of exponents mapped through that
    variable's factor texts ("" at 0, then "*w1", "*w1^2", ...; a dict
    filled with the exponents met, so a large exponent costs one entry),
    with a rho column of the shifts and a column of signed coefficients
    (" + c" or " - |c|") in front; each row is joined, then the block.
    Slicing makes no object per row (``zip(*block)`` makes an iterator per
    key, enough to set off full garbage-collector passes over a large
    answer's keys).  Only a live column, one with a nonzero exponent, gets
    a name and a factor table, so wide keys cost one slice compare per
    variable.

    A unit coefficient is dropped by replacing " + 1*" with " + " and
    " - 1*" with " - ": no factor text holds a space, and a coefficient is
    followed by "*" only when a factor follows, so " + 11*", " + 1 + " and
    a constant 1 stay.  The first block's leading " + " is dropped, and its
    " - " becomes "-".
    """
    if not terms:
        return "0"
    keys = sorted(terms, reverse=True)
    n = len(keys[0])
    tables = {}  # variable index (n for rho) -> {exponent: factor text}
    blocks = []
    for start in range(0, len(keys), _BLOCK):
        block = keys[start:start + _BLOCK]
        coeffs = list(map(terms.__getitem__, block))
        signed = {c: f" + {c}" if c > 0 else f" - {-c}" for c in set(coeffs)}
        shifts = [0] * len(block) if rho_name is None else [-x if x < 0 else 0 for x in map(min, block)]
        dead = [-s for s in shifts]  # a column whose shifted exponents are all 0
        shifted = any(shifts)
        flat = list(chain.from_iterable(block))  # column i of the block is flat[i::n]
        live = [i for i in range(n) if flat[i::n] != dead]
        columns = [(i, list(map(add, flat[i::n], shifts)) if shifted else flat[i::n]) for i in live]
        if shifted:
            columns.append((n, shifts))
        texts = [map(signed.__getitem__, coeffs)]
        for i, exps in columns:
            table = tables.get(i)
            if table is None:
                table = tables[i] = {0: "", 1: "*" + (rho_name if i == n else f"{prefix}{i + 1}")}
            for e in set(exps).difference(table):
                table[e] = f"{table[1]}^{e}"
            texts.append(map(table.__getitem__, exps))
        blocks.append("".join(map("".join, zip(*texts))).replace(" + 1*", " + ").replace(" - 1*", " - "))
    first = blocks[0]
    blocks[0] = first[3:] if first[1] == "+" else "-" + first[3:]
    return "".join(blocks)


#: A character outside the grammar: the text's first one is its error,
#: before any other.
_OUTSIDE = re.compile(r"[^0-9A-Za-z^*+\-\s]")
#: A space that does not stand between two number or name characters.
_STRAY_SPACE = re.compile(r" (?![0-9A-Za-z])|(?<![0-9A-Za-z]) ")
#: The tokens of a term: numbers, names (letters, then digits), and any
#: other character alone.
_TERM_TOKEN = re.compile(r"[0-9]+|[A-Za-z]+[0-9]*|\S")


def _digits(tok: str) -> str:
    """Decimal text of a digit token's value, without leading zeros.

    Found without ``int()`` on the whole token, which refuses strings of
    more digits than ``sys.get_int_max_str_digits()``.
    """
    return tok.lstrip("0") or "0"


def _outside(text: str) -> None:
    """Raise the parse error of text's first character outside the grammar,
    if it has one."""
    bad = _OUTSIDE.search(text)
    if bad:
        raise InputError("parse-error", f"unexpected input at {text[bad.start():].strip()[:12]!r}")


def _read(text: str, prefix: str, nvars: int, rho_name: str | None) -> list[tuple[tuple[int, ...], int]]:
    """The terms of polynomial text over ``prefix``1..``prefix``<nvars> and
    ``rho_name``, as (exponents, coefficient) pairs; rho's exponent is taken
    off the others, so a term's exponents are its lattice point.

    The grammar: an optional leading "-", then terms joined by "+" or "-";
    a term is a number, or factors joined by "*" after an optional number
    and "*"; a factor is a name with an optional "^" and exponent.
    Whitespace separates tokens and is otherwise ignored.  The separators
    " + " and " - " that ``render`` writes become "+" and "-"; any other
    whitespace is dropped, but for one space between two number or name
    characters, which keeps "w1 2" from reading as "w12".  The text is then
    split on the separators, a term on "*" and a factor on "^", in one
    pass.  A term that pass cannot take (other spacing, leading zeros, an
    empty factor, an over-long number or an exponent above MAX_EXPONENT,
    alone or accumulated, or any error) is read again token by token,
    which names the first error in it.  A character outside the grammar is
    reported before every other error.
    """
    def error(code: str, message: str) -> InputError:
        _outside(text)  # a character outside the grammar comes first
        return InputError(code, message)

    s = text.replace(" + ", "+").replace(" - ", "-")
    if not s.isascii() or s.split() != [s]:  # other whitespace, non-ASCII or no text
        _outside(text)
        s = _STRAY_SPACE.sub("", " ".join(s.split()))
        if not s:
            raise error("parse-error", "empty polynomial text")
    names = [f"{prefix}{i + 1}" for i in range(nvars)]
    if rho_name is not None:
        names.append(rho_name)
    n = len(names)
    factors = {name: (i, 1) for i, name in enumerate(names)}  # factor text -> (i, e)
    pieces = s.replace("-", "+-").split("+")  # a term's text, after its sign
    if s[0] == "-":
        del pieces[0]  # the leading sign's empty text

    def factor(toks: list[str], k: int, exps: list[int]) -> int:
        """Read the factor at toks[k] into exps; the index after it."""
        tok = toks[k]
        if tok == rho_name:
            i = nvars
        elif tok.startswith(prefix) and tok[len(prefix):].isdigit():
            digits = _digits(tok[len(prefix):])
            if len(digits) > len(str(nvars)) or not 1 <= int(digits) <= nvars:
                raise error("rank-mismatch", f"variable {tok!r} out of range for rank {nvars}")
            i = int(digits) - 1
        else:
            raise error("parse-error", f"unknown symbol {tok!r}" if tok else "unexpected end of input")
        e = 1
        if toks[k + 1] == "^":
            k += 2
            if not toks[k].isdigit():
                raise error("parse-error", "expected an exponent after '^'")
            digits = _digits(toks[k])
            # more digits than MAX_EXPONENT already exceeds it: no int() needed
            if len(digits) > _EXPONENT_DIGITS or int(digits) > MAX_EXPONENT:
                raise error("exponent-overflow", f"exponent {digits} exceeds {MAX_EXPONENT}")
            e = int(digits)
        exps[i] += e
        if exps[i] > MAX_EXPONENT:
            raise error("exponent-overflow", "accumulated exponent too large")
        return k + 1

    def term(j: int, body: str) -> tuple[list[int], int]:
        """(exponents, coefficient) of pieces[j], whose text after its sign
        is body, read token by token up to the next separator ("" at the
        end of the text)."""
        follow = "" if j + 1 == len(pieces) else "-" if pieces[j + 1][:1] == "-" else "+"
        toks = _TERM_TOKEN.findall(body) + [follow]
        coeff, exps, k = 1, [0] * n, 0
        if not toks[0]:
            raise error("parse-error", "expected a term")
        if toks[0].isdigit():
            try:
                coeff = int(toks[0])
            except ValueError:  # more digits than int() converts
                limit = sys.get_int_max_str_digits()
                raise error("parse-error", f"coefficient has more than {limit} digits") from None
            k = 2 if toks[1] == "*" else 1
        if k != 1:
            k = factor(toks, k, exps)
            while toks[k] == "*":
                k = factor(toks, k + 1, exps)
        if toks[k] != follow:
            raise error("parse-error", f"expected '+' or '-', got {toks[k]!r}")
        return exps, coeff

    pairs = []
    for j, piece in enumerate(pieces):
        sign = 1
        if piece[:1] == "-":
            sign, piece = -1, piece[1:]
        try:
            fs = piece.split("*")
            coeff = int(fs.pop(0)) if fs[0].isdigit() else 1
            exps = [0] * n
            for f in fs:
                hit = factors.get(f)
                if hit is None:  # a power, met for the first time
                    name, _, e = f.partition("^")
                    if not e.isdigit() or len(e) > _EXPONENT_DIGITS:
                        raise ValueError
                    hit = factors[f] = (factors[name][0], int(e))
                exps[hit[0]] += hit[1]
            if fs and max(exps) > MAX_EXPONENT:
                raise ValueError
        except (KeyError, ValueError):  # term() names the error, if there is one
            exps, coeff = term(j, piece)
        rho = exps.pop() if rho_name is not None else 0
        pairs.append((tuple([x - rho for x in exps]) if rho else tuple(exps), sign * coeff))
    return pairs


def parse(text: str, rank: int) -> CharPoly:
    """Parse the polynomial grammar over w1..w<rank> and rho."""
    return CharPoly._parsed(rank, text, "w", "rho")
