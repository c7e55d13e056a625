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
constructor and ``parse`` check every term.  Results the library computes
itself (arithmetic, characters, s-invariants) already satisfy the invariant
and are wrapped by ``CharPoly._trusted`` without being re-validated.  The
term-dict format, its validation and its arithmetic are shared with
``schur.YPoly`` through one base class.

``render`` (and ``schur.render_ypoly``) write through one writer,
``_write``, column by column in blocks of ``_BLOCK`` terms: per block, the
exponent columns of the variables that occur are mapped through per-variable
factor texts and the rows joined, so no per-term Python loop runs and a
variable absent from a block costs one slice and compare.  A unit coefficient is
dropped by one text replacement, which is exact because no factor text holds
a space.

Text in the exact form ``render`` writes takes a one-pass reader that splits
it on the term separators, ``*`` and ``^``; any other text takes the full
recursive-descent parser, which alone reports errors.
"""

from __future__ import annotations

import re
import sys
from itertools import chain
from operator import add
from typing import Iterable, Mapping, NamedTuple

from . import _kernels
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

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, n: int):
        return cls(n)

    @classmethod
    def one(cls, n: int):
        return cls(n, {(0,) * n: 1})

    @property
    def _size(self) -> int:
        return getattr(self, self._size_name)

    def evaluate_at_one(self) -> int:
        """Value at the identity: every monomial is 1 there."""
        return sum(self.terms.values())

    def is_effective(self) -> bool:
        return all(c > 0 for c in self.terms.values())

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
        terms = _kernels.poly_mul(self.terms, other.terms)
        reduce = self._reduce
        if reduce is not None:  # sums of reduced keys need not be reduced
            terms = _add_terms({}, ((reduce(e), c) for e, c in terms.items()))
        return self._trusted(n, terms)

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
        if rank < 1:
            raise InputError("invalid-rank", "rank must be positive")
        self._fill(rank, self._validated(rank, terms))

    @classmethod
    def from_weights(cls, rank: int, weights: Iterable[Weight]) -> "CharPoly":
        """Sum of monomials, one per listed weight, repeats accumulating."""
        return cls(rank, ((tuple(w), 1) for w in weights))

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


_TOKEN_RE = re.compile(r"\s*(?:([0-9]+)|([A-Za-z]+[0-9]*)|(\^)|(\*)|(\+)|(-))")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            tail = text[pos:].strip()
            if not tail:
                break
            raise InputError("parse-error", f"unexpected input at {tail[:12]!r}")
        tokens.append(m.group(m.lastindex))
        pos = m.end()
    return tokens


def _digits(tok: str) -> str:
    """Decimal text of a digit token's value, without leading zeros.

    Found without ``int()`` on the whole token, which refuses strings of
    more digits than ``sys.get_int_max_str_digits()``.  The tokenizer admits
    ASCII digits only, as ``render`` writes them.
    """
    return tok.lstrip("0") or "0"


class _Parser:
    """Recursive-descent parser for the shared polynomial grammar."""

    def __init__(self, text: str, var_prefix: str, nvars: int, rho_name: str | None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.var_prefix = var_prefix
        self.nvars = nvars
        self.rho_name = rho_name

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str | None:
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def parse_exponent(self) -> int:
        tok = self.take()
        if tok is None or not tok.isdigit():
            raise InputError("parse-error", "expected an exponent after '^'")
        digits = _digits(tok)
        # more digits than MAX_EXPONENT already exceeds it: no int() needed
        if len(digits) > _EXPONENT_DIGITS or int(digits) > MAX_EXPONENT:
            raise InputError("exponent-overflow", f"exponent {digits} exceeds {MAX_EXPONENT}")
        return int(digits)

    def var_index(self, tok: str | None) -> int:
        """0..nvars-1 for variables, nvars for the relation variable."""
        if tok is None:
            raise InputError("parse-error", "unexpected end of input")
        if self.rho_name is not None and tok == self.rho_name:
            return self.nvars
        if tok.startswith(self.var_prefix) and tok[len(self.var_prefix):].isdigit():
            digits = _digits(tok[len(self.var_prefix):])
            if len(digits) > len(str(self.nvars)) or not 1 <= int(digits) <= self.nvars:
                raise InputError(
                    "rank-mismatch", f"variable {tok!r} out of range for rank {self.nvars}"
                )
            return int(digits) - 1
        raise InputError("parse-error", f"unknown symbol {tok!r}")

    def parse_factor(self, exps: list[int]) -> None:
        idx = self.var_index(self.take())
        e = 1
        if self.peek() == "^":
            self.take()
            e = self.parse_exponent()
        exps[idx] += e
        if exps[idx] > MAX_EXPONENT:
            raise InputError("exponent-overflow", "accumulated exponent too large")

    def parse_term(self) -> tuple[list[int], int]:
        coeff = 1
        exps = [0] * (self.nvars + 1)
        tok = self.peek()
        if tok is None:
            raise InputError("parse-error", "expected a term")
        if tok.isdigit():
            self.take()
            try:
                coeff = int(tok)
            except ValueError:  # more digits than int() converts
                limit = sys.get_int_max_str_digits()
                raise InputError("parse-error", f"coefficient has more than {limit} digits") from None
            if self.peek() == "*":
                self.take()
                self.parse_factor(exps)
            else:
                return exps, coeff
        else:
            self.parse_factor(exps)
        while self.peek() == "*":
            self.take()
            self.parse_factor(exps)
        return exps, coeff

    def parse(self) -> list[tuple[list[int], int]]:
        if not self.tokens:
            raise InputError("parse-error", "empty polynomial text")
        out = []
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        exps, c = self.parse_term()
        out.append((exps, sign * c))
        while self.peek() is not None:
            op = self.take()
            if op not in ("+", "-"):
                raise InputError("parse-error", f"expected '+' or '-', got {op!r}")
            exps, c = self.parse_term()
            out.append((exps, c if op == "+" else -c))
        return out


def _read(text: str, prefix: str, nvars: int, rho_name: str | None) -> list[tuple[tuple[int, ...], int]] | None:
    """The terms of text in the exact form ``render`` writes, read in one
    pass, as (exponents, coefficient) pairs; None for any other text.

    Terms are split on " + " and " - " (the first may carry a leading
    "-"), a term on "*" (its first factor may be a coefficient) and a
    factor on "^"; the variables are ``prefix``1..``prefix``<nvars> and
    ``rho_name``, whose exponent is taken off the others, so a term's
    exponents are its lattice point.  Other spacing, an unknown name, a
    non-ASCII digit, an empty factor, an over-long coefficient or an
    exponent above MAX_EXPONENT, alone or accumulated, gives None, so that
    ``_Parser`` reads the text and alone reports its errors.
    """
    if not text.isascii():
        return None
    names = [f"{prefix}{i + 1}" for i in range(nvars)]
    if rho_name is not None:
        names.append(rho_name)
    n = len(names)
    factors = {name: (i, 1) for i, name in enumerate(names)}  # factor text -> (i, e)
    get = factors.get
    negative = text[:1] == "-"
    sign = -1 if negative else 1
    out = []
    for chunk in (text[1:] if negative else text).split(" + "):
        for piece in chunk.split(" - "):
            fs = piece.split("*")
            coeff = 1
            if fs[0].isdigit():
                try:
                    coeff = int(fs[0])
                except ValueError:  # more digits than int() converts
                    return None
                del fs[0]
            exps = [0] * n
            for f in fs:
                hit = get(f)
                if hit is None:
                    name, _, e = f.partition("^")
                    if name not in factors or not e.isdigit() or len(e) > _EXPONENT_DIGITS:
                        return None
                    hit = factors[f] = (factors[name][0], int(e))
                exps[hit[0]] += hit[1]
            if fs and max(exps) > MAX_EXPONENT:
                return None
            rho = exps.pop() if rho_name is not None else 0
            out.append((tuple([x - rho for x in exps]) if rho else tuple(exps), sign * coeff))
            sign = -1  # the chunk's later pieces followed " - "
        sign = 1
    return out


def _parse_terms(text: str, prefix: str, nvars: int, rho_name: str | None) -> list[tuple[tuple[int, ...], int]]:
    """``_read``'s terms, or the full parser's when ``_read`` declines."""
    terms = _read(text, prefix, nvars, rho_name)
    if terms is None:
        # the parser keeps rho's exponent in slot nvars (always 0 without rho)
        raw = _Parser(text, prefix, nvars, rho_name).parse()
        terms = [(tuple(x - e[nvars] for x in e[:nvars]), c) for e, c in raw]
    return terms


def parse(text: str, rank: int) -> CharPoly:
    """Parse the polynomial grammar over w1..w<rank> and rho."""
    return CharPoly(rank, _parse_terms(text, "w", rank, "rho"))
