"""Independent oracle implementations used by the test suite.

Everything here is deliberately written from first principles, separate
from the library code paths it checks: ladder enumeration for rank-1
characters, explicit small-matrix inverses, determinant-based Schur
polynomials, semistandard tableau enumeration, the hook-content product
taken box by box, the substitution ``alpha`` multiplied out monomial by
monomial, a standalone greedy reduction for rank-1
decompositions, box enumeration of the dominant weights below a highest
weight, breadth-first Weyl orbits with a seen-set,
two-pass polynomial rendering, the recursive certificate enumerator, the
Weyl dimension formula in rationals, the greedy decomposition that
reduces every term against whole characters, and the Freudenthal recursion
that walks every root string to its end.  The invariant form and the
heights of weights come from exact elimination of the Cartan matrix, not
from the group's tables.  The greedy is the library's earlier
``decompose``, with those heights, kept as the reference for the one that
reduces W-invariant input on its dominant terms; it reads characters from
``weight_multiplicities``, so it checks the reduction, not the characters.
The recursion is the library's earlier ``_kernels.freudenthal``, kept
verbatim, with its two helpers, as the reference for the kernel that
memoises string sums.  ``Parser`` is the library's earlier
recursive-descent parser of the polynomial grammar, kept verbatim with its
tokenizer, as the reference for the one-pass reader.  ``symmetrizer`` is
the library's earlier symmetrizer in rationals, kept verbatim, as the
reference for the one found in integers.
"""

import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product
from math import gcd, lcm
from typing import Iterator, Sequence

from flagrep.cartan import CartanData, Weight, is_dominant
from flagrep.characters import DecomposeResult, NotInOmega, _certificate, weight_multiplicities
from flagrep.charpoly import MAX_EXPONENT, CharPoly
from flagrep.errors import _LIMITS, InputError, ResourceCapError
from flagrep.schur import Partition, YPoly, validate_partition


def sl2_char_terms(k):
    """Weight ladder k, k-2, ..., -k, every multiplicity 1."""
    return {(j,): 1 for j in range(-k, k + 1, 2)}


def laurent_mul(a, b):
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = tuple(x + y for x, y in zip(wa, wb))
            out[w] = out.get(w, 0) + ca * cb
    return {w: c for w, c in out.items() if c}


def inverse_1x1(a):
    return ((Fraction(1, a),),)


def inverse_2x2(m):
    (a, b), (c, d) = m
    det = a * d - b * c
    return (
        (Fraction(d, det), Fraction(-b, det)),
        (Fraction(-c, det), Fraction(a, det)),
    )


def symmetrizer(matrix: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Minimal positive integers d with C[i][j]*d[j] == C[j][i]*d[i]."""
    n = len(matrix)
    vals: list[Fraction | None] = [None] * n
    for start in range(n):
        if vals[start] is not None:
            continue
        vals[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i == j or matrix[i][j] == 0:
                    continue
                want = vals[i] * Fraction(matrix[j][i], matrix[i][j])  # d[j]/d[i]
                if vals[j] is None:
                    vals[j] = want
                    stack.append(j)
                elif vals[j] != want:
                    raise InputError(
                        "invalid-cartan", "Cartan matrix is not symmetrizable"
                    )
    denom = lcm(*[v.denominator for v in vals])
    ints = [int(v * denom) for v in vals]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


def determinant(matrix: Sequence[Sequence[int]]) -> Fraction:
    """Determinant by Gaussian elimination in Fractions, pivoting on the
    first nonzero entry of each column."""
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return det


def leading_minors(matrix: Sequence[Sequence[int]]) -> list[Fraction]:
    """The leading principal minors of a square matrix, smallest first."""
    return [determinant([row[:k] for row in matrix[:k]]) for k in range(1, len(matrix) + 1)]


def gram_from_cartan(cartan_inverse, symmetrizer):
    n = len(symmetrizer)
    return tuple(
        tuple(cartan_inverse[i][j] * symmetrizer[j] for j in range(n))
        for i in range(n)
    )


def form_value(gram, u, v):
    return sum(gram[i][j] * u[i] * v[j] for i in range(len(u)) for j in range(len(u)))


def complete_homogeneous(k, m):
    """h_k in m variables as an exponent-vector dict."""
    if k < 0:
        return {}
    out = {}
    for combo in combinations_with_replacement(range(m), k):
        e = [0] * m
        for i in combo:
            e[i] += 1
        e = tuple(e)
        out[e] = out.get(e, 0) + 1
    return out


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def jacobi_trudi_terms(mu, m):
    """Schur polynomial via the determinant of complete homogeneous pieces,
    reduced modulo y1*...*ym = 1 (each key shifted so its minimum is 0)."""
    shape = [p for p in mu if p > 0]
    ell = len(shape)
    if ell == 0:
        return {(0,) * m: 1}
    total = {}
    for perm in permutations(range(ell)):
        prod = {(0,) * m: _perm_sign(perm)}
        for i in range(ell):
            h = complete_homogeneous(shape[i] - i - 1 + perm[i] + 1, m)
            prod = laurent_mul(prod, h)
            if not prod:
                break
        for w, c in prod.items():
            total[w] = total.get(w, 0) + c
    reduced = {}
    for e, c in total.items():
        if not c:
            continue
        low = min(e)
        key = tuple(x - low for x in e)
        reduced[key] = reduced.get(key, 0) + c
    return {e: c for e, c in reduced.items() if c}


def _ssyt_rows(prev_row: tuple[int, ...], width: int, m: int) -> Iterator[tuple[int, ...]]:
    """Weakly increasing rows of the given width, strictly below prev_row."""
    row = [0] * width

    def fill(j: int, low: int) -> Iterator[tuple[int, ...]]:
        if j == width:
            yield tuple(row)
            return
        lower = max(low, prev_row[j] + 1 if j < len(prev_row) else 1)
        for v in range(lower, m + 1):
            row[j] = v
            yield from fill(j + 1, v)

    return fill(0, 1)


@lru_cache(maxsize=None)
def ssyt_contents(mu: Partition, m: int) -> tuple[tuple[int, ...], ...]:
    """Content vectors of all semistandard tableaux of shape mu, entries <= m.

    One vector per tableau (so repeats appear), sorted descending; this
    fixed order is what the weight listings downstream rely on.
    """
    mu = validate_partition(mu)
    shape = tuple(p for p in mu if p > 0)
    if len(shape) > m:
        raise InputError(
            "invalid-partition", f"partition {mu} has more than {m} parts"
        )
    contents: list[tuple[int, ...]] = []
    counts = [0] * m

    def fill(r: int, prev: tuple[int, ...]) -> None:
        if r == len(shape):
            contents.append(tuple(counts))
            return
        for row in _ssyt_rows(prev, shape[r], m):
            for v in row:
                counts[v - 1] += 1
            fill(r + 1, row)
            for v in row:
                counts[v - 1] -= 1

    fill(0, ())
    contents.sort(reverse=True)
    return tuple(contents)


def tableau_schur(mu, m):
    """Schur polynomial as the tableau generating function."""
    return YPoly(m, ((e, 1) for e in ssyt_contents(validate_partition(mu), m)))


def tableau_weights(mu, m):
    """Torus weights of the Schur module, one per tableau in content order."""
    mu = validate_partition(mu)
    if m < 2:
        raise InputError("invalid-rank", "need m >= 2 for a nontrivial weight lattice")
    return [tuple(e[k] - e[k + 1] for k in range(m - 1)) for e in ssyt_contents(mu, m)]


def alpha_substitution(terms, rank):
    """``schur.alpha`` by monomial arithmetic: each weight lam is written as
    the monomial w1^(lam_1 + r) * ... * wr^(lam_r + r) * rho^r, with r the
    largest of 0 and -lam_k so that every exponent is nonnegative, and rho
    the weight (-1, ..., -1).  Then wk -> y1*...*yk and
    rho -> y2*y3^2*...*ym^(m-1) are multiplied out, and the product is
    reduced modulo y1*...*ym by dividing out the largest power of it that
    divides the monomial.  Terms stay in their order."""
    m = rank + 1
    out = {}
    for lam, c in terms.items():
        r = max(0, -min(lam))
        exps = [0] * m
        for k, a in enumerate(lam, 1):
            for _ in range(a + r):  # times y1*...*yk
                for j in range(k):
                    exps[j] += 1
        for _ in range(r):  # times y2*y3^2*...*ym^(m-1)
            for j in range(m):
                exps[j] += j
        while all(exps):  # divide by y1*...*ym
            exps = [x - 1 for x in exps]
        key = tuple(exps)
        out[key] = out.get(key, 0) + c
    return {e: c for e, c in out.items() if c}


def hook_content(shape, m):
    """The number of semistandard tableaux of a partition with entries <= m,
    by Stanley's hook-content product, taken box by box."""
    shape = tuple(p for p in shape if p > 0)
    conj = [sum(1 for p in shape if p > j) for j in range(shape[0])] if shape else []
    num = 1
    den = 1
    for i, row in enumerate(shape):
        for j in range(row):
            num *= m + j - i
            den *= row - j + conj[j] - i - 1  # arm + leg + 1
    value, rem = divmod(num, den)
    assert rem == 0
    return value


def a1_greedy_decompose(terms):
    """Standalone greedy reduction against the ladder characters.

    Returns ("ok", [(weight, mult), ...]) or ("fail", witness, deficit).
    """
    work = dict(terms)
    out = []
    while work:
        k = max(w[0] for w in work)
        if k < 0:
            return ("fail", (k,), None)
        mult = work[(k,)]
        if mult < 0:
            return ("fail", (k,), mult)
        for j in range(-k, k + 1, 2):
            v = work.get((j,), 0) - mult
            if v == 0:
                work.pop((j,), None)
            elif v < 0:
                return ("fail", (j,), v)
            else:
                work[(j,)] = v
        out.append(((k,), mult))
    return ("ok", out)


def _root_coordinates(cartan, w):
    """x with sum_i x[i] * cartan[i] == w, by exact Gauss-Jordan elimination."""
    n = len(cartan)
    aug = [[Fraction(cartan[i][j]) for i in range(n)] + [Fraction(w[j])] for j in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col] / aug[col][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] / aug[i][i] for i in range(n)]


def box_dominant_support(cartan, lam):
    """Dominant weights lam - sum_i c[i] * root_i over the whole box of root
    coordinates c between 0 and those of lam, sorted by (sum of c, weight)."""
    n = len(cartan)
    bounds = [int(x) for x in _root_coordinates(cartan, lam)]  # floor; all >= 0
    found = []
    for coords in product(*(range(b + 1) for b in bounds)):
        mu = tuple(
            lam[j] - sum(coords[i] * cartan[i][j] for i in range(n)) for j in range(n)
        )
        if all(x >= 0 for x in mu):
            found.append((sum(coords), mu))
    found.sort()
    return [mu for _, mu in found]


def bfs_weyl_orbit(cartan, w, cap):
    """Orbit of ``w`` under the reflections s_i(v) = v - v[i] * root_i."""
    m = len(w)
    start = tuple(w)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(m):
                c = v[i]
                if c == 0:
                    continue
                row = cartan[i]
                u = tuple(v[j] - c * row[j] for j in range(m))
                if u not in seen:
                    if len(seen) >= cap:
                        raise ResourceCapError(
                            "orbit-cap", f"orbit size exceeds cap {cap}"
                        )
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return seen


def _monomial_text(exps, names):
    factors = []
    for name, e in zip(names, exps):
        if e == 1:
            factors.append(name)
        elif e:
            factors.append(f"{name}^{e}")
    return "*".join(factors)


def _render_terms(ordered):
    """Join (coefficient, monomial-text) pairs per the polynomial grammar."""
    pieces = []
    for i, (c, mono) in enumerate(ordered):
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if i == 0:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append((" + " if c > 0 else " - ") + body)
    return "".join(pieces)


def render_polynomial(p):
    """Canonical text of a CharPoly: reduced monomials, highest point first,
    built as a list of (coefficient, monomial text) pairs and then joined."""
    if not p.terms:
        return "0"
    names = [f"w{i + 1}" for i in range(p.rank)]
    ordered = []
    for w in sorted(p.terms, reverse=True):
        c = max(0, -min(w))
        exps = tuple(x + c for x in w)
        ordered.append((p.terms[w], _monomial_text(list(exps) + [c], names + ["rho"])))
    return _render_terms(ordered)


# --- the recursive-descent parser of the polynomial grammar -----------------
# The library's earlier parser, kept verbatim as the reference for the
# one-pass reader behind ``parse`` and ``parse_ypoly``.

_EXPONENT_DIGITS = len(str(MAX_EXPONENT))

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


class Parser:
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


def recursive_certificates(irreps, n):
    """Multisets of (weight, dimension) pairs from ``irreps`` with total
    dimension n, as tuples of (weight, count), in the enumeration order:
    along ``irreps``, higher counts first."""

    def rec(idx, remaining, acc):
        if remaining == 0:
            yield tuple(acc)
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


def _fundamental_coordinates(cd):
    """Root coordinates of each fundamental weight, by exact elimination."""
    n = cd.rank
    return [_root_coordinates(cd.cartan_matrix, [int(i == j) for j in range(n)]) for i in range(n)]


def invariant_form(cd):
    """(w_i, w_j) in rationals: w_i = sum_k x_k * root_k with x from exact
    elimination, and (root_k, w_j) = d_j if k == j and 0 otherwise."""
    d = cd.symmetrizer
    return tuple(tuple(x * dj for x, dj in zip(coords, d)) for coords in _fundamental_coordinates(cd))


def heights(cd):
    """Root-coordinate sum of each fundamental weight, so the height of a
    weight w is the dot product of w with this vector."""
    return [sum(coords) for coords in _fundamental_coordinates(cd)]


def freudenthal_denominators(gram, lam, weights):
    """|lam + rho|^2 - |mu + rho|^2 for each mu of ``weights``, under the
    form ``gram`` on weight coordinates."""
    top = [x + 1 for x in lam]
    norm_top = form_value(gram, top, top)
    return [norm_top - form_value(gram, shifted, shifted) for shifted in ([x + 1 for x in mu] for mu in weights)]


def fraction_dimension(cd, lam):
    """Weyl product formula, one Fraction per positive root."""
    gram = invariant_form(cd)
    rank = len(lam)
    shifted = tuple(x + 1 for x in lam)
    delta = (1,) * rank

    def ip(u, v):
        return sum(u[i] * gram[i][j] * v[j] for i in range(rank) for j in range(rank))

    value = Fraction(1)
    for alpha in cd.positive_roots:
        value *= Fraction(ip(shifted, alpha), ip(delta, alpha))
    assert value.denominator == 1
    return value.numerator


def decompose(cd: CartanData, p: CharPoly, max_terms: int = _LIMITS["term-cap"]) -> DecomposeResult:
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
    hv = heights(cd)

    def hkey(u):
        return sum(h * x for h, x in zip(hv, u))

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


def dominant_representative(cartan, w):
    """Reflect ``w`` into the dominant chamber using simple reflections."""
    v = list(w)
    m = len(v)
    i = 0
    while i < m:
        c = v[i]
        if c < 0:
            row = cartan[i]
            for j in range(m):
                v[j] -= c * row[j]
            i = 0
        else:
            i += 1
    return tuple(v)


def _ip(gram, u, v):
    m = len(u)
    total = 0
    for i in range(m):
        ui = u[i]
        if ui:
            row = gram[i]
            s = 0
            for j in range(m):
                vj = v[j]
                if vj:
                    s += row[j] * vj
            total += ui * s
    return total


def freudenthal(cartan, gram, pos_roots, lam, support):
    """Multiplicities of the dominant weights of the highest-weight module.

    ``support`` must list the dominant weights of the module sorted by
    increasing depth below ``lam`` (the first entry is ``lam`` itself).
    Returns a dict mapping each of them to its multiplicity.
    """
    m = len(lam)
    top = tuple(x + 1 for x in lam)
    norm_top = _ip(gram, top, top)
    root_norms = [_ip(gram, a, a) for a in pos_roots]
    mults = {tuple(lam): 1}
    for mu in support[1:]:
        acc = 0
        for a, na in zip(pos_roots, root_norms):
            base = _ip(gram, mu, a)
            nu = list(mu)
            k = 1
            while True:
                for j in range(m):
                    nu[j] += a[j]
                mult = mults.get(dominant_representative(cartan, nu))
                if mult is None:
                    break
                acc += mult * (base + k * na)
                k += 1
        shifted = tuple(x + 1 for x in mu)
        denom = norm_top - _ip(gram, shifted, shifted)
        mult, rem = divmod(2 * acc, denom)
        if rem:
            raise ArithmeticError("non-integral multiplicity; invalid Cartan data")
        mults[tuple(mu)] = mult
    return mults
