"""Cartan data for finite-type root systems, in fundamental-weight coordinates.

A weight is a tuple of integers: its coefficients on the fundamental
dominant weights w1..wm.  Simple root i is row i of the Cartan matrix, so
every reflection and orbit is computed in this one coordinate system.  A
positive root also carries its simple-root coordinates c, found with it
by one walk up from the simple roots, which walks no Weyl orbit.  Its
height is the sum of c, its support is where c is nonzero, and its inner
product with a weight w is sum_i w_i * d_i * c_i, since (w_i, root j) =
d_j if i == j and 0 otherwise (Humphreys, Introduction to Lie Algebras
and Representation Theory, 24.3).
So the root strata, the Weyl product, Freudenthal's tables and the
support walk's steps are read off c.  The height vector and ``inner`` need
no root: each is one solve of a linear system in the Cartan matrix,
eliminated in integers (``_solve``), and no inverse matrix is built.  All
arithmetic is exact and no value in this module is ever rounded: the
symmetrizer and the solve work in integers, and only ``inner``, whose
value is a rational, uses ``Fraction``.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
from itertools import compress, count
from math import gcd, prod
from operator import mul, sub
from typing import TYPE_CHECKING, Iterable, Sequence

from . import _kernels
from ._record import _Record
from .errors import InputError, ResourceCapError

if TYPE_CHECKING:
    from fractions import Fraction

Weight = tuple[int, ...]

#: Practical cap on the size of a single Weyl orbit.
ORBIT_CAP = 10**6

#: Built-in groups whose Cartan data one process keeps.
BUILTIN_CACHE_SIZE = 64

_TAG_RE = re.compile(r"^([A-Za-z])[-_ ]?(\d+)$")


class CartanData(_Record):
    """Root-system data of a simply-connected compact semisimple group.

    ``cartan_matrix`` rows are the simple roots in weight coordinates;
    ``symmetrizer`` holds the minimal positive integers d with
    C[i][j] * d[j] symmetric in (i, j), so that root i has squared length
    2 * d[i] under the invariant form.  These fields are what
    ``custom_cartan`` checks, and all that comparison and hashing see.
    The root data derives from ``cartan_matrix``: each part is built on
    first read and kept, so a group whose roots no answer needs (a rank in
    the hundreds has tens of thousands) costs only the check.
    ``positive_roots`` and ``root_coordinates`` list each positive root in
    weight and in simple-root coordinates, both found by one walk up from
    the simple roots (``_positive_roots``), and ``freudenthal_tables`` and
    ``support_steps`` are read off them.  ``height_vector`` is one integer
    solve in the matrix, with no root, as is each call of ``inner``.
    ``orbit_walk``, the Weyl orbit walk compiled from the matrix alone, is
    built on first read and kept in the same way.
    """

    rank: int
    cartan_matrix: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[int, ...]
    label: str

    @cached_property
    def height_vector(self) -> tuple[int, ...]:
        """2 rho-check in simple-coroot coordinates, so h . w = (w, 2 rho-check)
        is twice the root-coordinate sum of any weight w, and h strictly
        refines the dominance order.  Simple root j, row j of C, has
        (a_j, 2 rho-check) = 2, so h solves C h = (2, ..., 2); h is integral,
        as 2 rho-check is the sum of the positive coroots (Humphreys, 13.3)."""
        h = _solve(self.cartan_matrix, (2,) * self.rank)
        assert all(x % p == 0 for p, x in h), "2 rho-check is a sum of coroots"
        return tuple(x // p for p, x in h)

    @cached_property
    def _roots(self) -> tuple[tuple[Weight, ...], tuple[bytes, ...]]:
        return _positive_roots(self.cartan_matrix)

    @property
    def positive_roots(self) -> tuple[Weight, ...]:
        return self._roots[0]

    @property
    def root_coordinates(self) -> tuple[bytes, ...]:
        """Simple-root coordinates c of each positive root, in the order of
        ``positive_roots``, each as bytes: in finite type no coordinate of a
        root exceeds 6, the largest of E8's highest root."""
        return self._roots[1]

    @cached_property
    def root_strata(self) -> tuple[tuple[int, int], ...]:
        """Per positive root: its support on the simple roots, as a bit
        mask, and its height."""
        bits = [1 << i for i in range(self.rank)]
        return tuple((sum(compress(bits, c)), sum(c)) for c in self.root_coordinates)

    def weyl_product(self, w: Sequence[int]) -> int:
        """The product of (w, a) over the positive roots a, each the sum of
        w_i * d_i * c_i over a's simple-root coordinates c."""
        wd = list(map(mul, w, self.symmetrizer))
        return prod(sum(map(mul, wd, c)) for c in self.root_coordinates)

    @cached_property
    def weyl_denominator(self) -> int:
        return self.weyl_product(self.weyl_vector)

    @cached_property
    def freudenthal_tables(self):
        """What ``_kernels.freudenthal`` reads of the positive roots: the
        roots; per simple reflection s_i, the index of s_i(a) for each root a
        (a itself when a_i = 0, and None for root i, which s_i makes
        negative); per root a, the row d_i * c_i, so that (w, a) is its dot
        product with w; and per s_i, the pairs (j, C[i][j]) of the
        coordinates it can change."""
        index = {a: k for k, a in enumerate(self.positive_roots)}
        reflect = [
            [index.get(tuple(map(sub, a, map(a[i].__mul__, row)))) if a[i] else k for a, k in index.items()]
            for i, row in enumerate(self.cartan_matrix)
        ]
        rows = [list(map(mul, self.symmetrizer, c)) for c in self.root_coordinates]
        moved = [[(j, a) for j, a in enumerate(row) if a] for row in self.cartan_matrix]
        return self.positive_roots, reflect, rows, moved

    @cached_property
    def orbit_walk(self):
        """The Weyl orbit walk of ``weyl_orbit``, ``_kernels.orbit_terms`` and
        the invariance test of ``characters.decompose``, compiled from the
        Cartan matrix alone (``_kernels.compile_orbit_walk``)."""
        return _kernels.compile_orbit_walk(self.cartan_matrix)

    @cached_property
    def support_steps(self) -> list[tuple[list[Weight], list[bytes], list[tuple]]]:
        """What ``characters._dominant_support`` reads of the positive roots.

        mu - a is dominant for a dominant mu only if mu_k >= a_k at every
        positive coordinate k of the root a, so only roots whose positive
        coordinates lie in mu's support can step.  Entry i holds the roots
        whose first positive coordinate is i in three parallel lists: their
        weight and their simple-root coordinates, and the (k, a_k) that a
        mu with mu_i > 0 must still test (every other positive k, and i
        itself if a_i > 1).  Every positive root has a positive coordinate
        (see ``_positive_roots``).  The lists hold the roots' own tuples and
        bytes, and checks tuples shared by the roots that test the same
        coordinates: three references per root, nothing of the rank's
        length.
        """
        positions = range(self.rank)
        shared: dict[tuple, tuple] = {}
        steps: list[tuple[list, list, list]] = [([], [], []) for _ in positions]
        for a, c in zip(self.positive_roots, self.root_coordinates):
            pos = [k for k in compress(positions, a) if a[k] > 0]
            checks = tuple((k, a[k]) for k in pos if k != pos[0] or a[k] > 1)
            roots, coords, tests = steps[pos[0]]
            roots.append(a)
            coords.append(c)
            tests.append(shared.setdefault(checks, checks))
        return steps

    @property
    def weyl_vector(self) -> Weight:
        return (1,) * self.rank

    def height_key(self, w: Weight) -> int:
        hv = self.height_vector
        return sum(a * b for a, b in zip(hv, w))


def _eliminate(aug: list[list[int]], col: int, rows: Iterable[int]) -> None:
    """Clear column ``col`` of ``rows`` against row ``col`` in integers: a
    multiple of the rational row operation, by the pivot over a gcd, so a
    row's ratios stay exact, and its signs too when the pivot is positive."""
    top = aug[col]
    p = top[col]
    for r in rows:
        f = aug[r][col]
        if f:
            row = [p * x - f * y for x, y in zip(aug[r], top)]
            g = gcd(*row) or 1  # a singular matrix can clear a whole row
            aug[r] = [x // g for x in row]


def _symmetrizer(matrix: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Minimal positive integers d with C[i][j]*d[j] == C[j][i]*d[i].

    Found in integers: ``vals`` holds the ratios d[k]/d[start] found so
    far, each component's first node at 1, all times ``scale``, the least
    common denominator of those ratios.  A step whose value is not an
    integer multiplies every value, and the scale, by the missing factor;
    the values are divided by their gcd at the end.
    """
    n = len(matrix)
    vals = [0] * n
    scale = 1
    for start in range(n):
        if vals[start]:
            continue
        vals[start] = scale
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i == j or matrix[i][j] == 0:
                    continue
                num, den = vals[i] * matrix[j][i], matrix[i][j]  # d[j] = num / den
                if vals[j]:
                    if vals[j] * den != num:
                        raise InputError(
                            "invalid-cartan", "Cartan matrix is not symmetrizable"
                        )
                    continue
                if num % den:
                    f = abs(den) // gcd(num, den)
                    vals = [v * f for v in vals]
                    scale *= f
                    num *= f
                vals[j] = num // den
                stack.append(j)
    g = gcd(*vals)
    return tuple(x // g for x in vals)


def _validate_cartan(matrix) -> tuple[tuple[int, ...], ...]:
    if not matrix or any(len(row) != len(matrix) for row in matrix):
        raise InputError("invalid-cartan", "Cartan matrix must be square")
    n = len(matrix)
    for i in range(n):
        for j in range(n):
            x = matrix[i][j]
            if type(x) is not int:
                raise InputError("invalid-cartan", "entries must be integers")
            if i == j and x != 2:
                raise InputError("invalid-cartan", "diagonal entries must equal 2")
            if i != j and x > 0:
                raise InputError(
                    "invalid-cartan", "off-diagonal entries must be non-positive"
                )
            if i != j and (x == 0) != (matrix[j][i] == 0):
                raise InputError(
                    "invalid-cartan", "zero pattern must be symmetric"
                )
    return tuple(tuple(row) for row in matrix)


def _positive_definite(a: list[list[int]]) -> bool:
    """Sylvester's criterion: each pivot has the sign of a leading minor.
    Eliminates the square rows ``a`` in place below the diagonal, with no
    pivot search; columns to the right of the square ride along."""
    n = len(a)
    for k in range(n):
        if a[k][k] <= 0:
            return False
        _eliminate(a, k, range(k + 1, n))
    return True


def _solve(matrix, b: Sequence[int]) -> list[tuple[int, int]]:
    """x with matrix . x = b, for a finite-type Cartan matrix, as one
    (pivot, numerator) pair of ints per coordinate: x_i = numerator / pivot.

    [matrix | b] is eliminated in integers in two passes: forward, by
    ``_positive_definite``'s loop, then back up from the last row.  The
    forward pass needs no pivot search: C * diag(d) is positive definite,
    so every leading minor of C is positive, in any node order, and every
    pivot stays positive.  A one-pass Gauss-Jordan would fill in above the
    diagonal as it goes, and costs some forty times as much at A160."""
    n = len(matrix)
    aug = [[*row, x] for row, x in zip(matrix, b)]
    finite = _positive_definite(aug)
    assert finite, "a finite-type Cartan matrix has positive pivots"
    for k in range(n - 1, 0, -1):
        _eliminate(aug, k, range(k))
    return [(row[i], row[n]) for i, row in enumerate(aug)]


def _check_root_count(n: int) -> None:
    """Raises ``orbit-cap`` if n positive roots and their negatives number
    more than ``ORBIT_CAP``."""
    if n > ORBIT_CAP // 2:
        raise ResourceCapError("orbit-cap", f"orbit size exceeds cap {ORBIT_CAP}")


def _positive_roots(cartan) -> tuple[tuple[Weight, ...], tuple[bytes, ...]]:
    """Positive roots sorted by (height, weight), and their simple-root
    coordinates c, found by one walk up from the simple roots (Humphreys,
    Introduction to Lie Algebras and Representation Theory, 10.2).

    Simple root i has c = e_i.  From each root v found, and each i with
    v_i < 0, s_i(v) = v - v_i * (row i) is a higher positive root, whose c
    is v's with c_i raised by -v_i; the walk keeps it if it is new.

    The walk finds every positive root.  Take one, b, that is not simple,
    with coordinates c.  Since 0 < (b, b) = sum_i c_i * (b, a_i) and
    (b, a_i) = b_i * d_i, some i has b_i > 0.  Then s_i(b) = b - b_i * a_i
    is a positive root (b is not a multiple of a_i) of lower height, with
    s_i(b)_i = -b_i < 0, so the walk reaches b from s_i(b); induction on
    the height finishes the argument.

    The roots are the positive roots and their negatives, so the walk
    raises ``orbit-cap`` once it holds more than ``ORBIT_CAP // 2`` positive
    roots: once the roots number more than ``ORBIT_CAP``.
    """
    roots = list(cartan)
    coords = {a: bytes(int(j == i) for j in range(len(cartan))) for i, a in enumerate(roots)}
    for v in roots:
        _check_root_count(len(roots))
        c = coords[v]
        for i in compress(count(), map((0).__gt__, v)):
            u = tuple(map(sub, v, map(v[i].__mul__, cartan[i])))
            if u not in coords:
                coords[u] = c[:i] + bytes((c[i] - v[i],)) + c[i + 1:]
                roots.append(u)
    return tuple(zip(*sorted(coords.items(), key=lambda rc: (sum(rc[1]), rc[0]))))


def custom_cartan(matrix: Iterable[Iterable[int]], label: str = "custom") -> CartanData:
    """Build CartanData from an explicit integer Cartan matrix.

    The matrix must be a valid Cartan matrix of finite type (block-diagonal
    matrices of valid blocks are accepted, giving semisimple products).
    Only the checks run here; the root data is built when first read.
    The label must be a ``str``: it is part of the group's hash.
    """
    if not isinstance(label, str):
        raise InputError("invalid-cartan", "label must be a string")
    try:
        rows = [list(row) for row in matrix]
    except TypeError:
        raise InputError("invalid-cartan", "expected a matrix of integer rows") from None
    cartan = _validate_cartan(rows)
    d = _symmetrizer(cartan)
    n = len(cartan)
    sym = [[cartan[i][j] * d[j] for j in range(n)] for i in range(n)]
    if not _positive_definite(sym):
        raise InputError(
            "invalid-cartan", "Cartan matrix is not of finite type"
        )
    return CartanData(rank=n, cartan_matrix=cartan, symmetrizer=d, label=label)


def _series_matrix(series: str, rank: int) -> list[list[int]]:
    def chain(n):
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            a[i][i] = 2
            if i + 1 < n:
                a[i][i + 1] = -1
                a[i + 1][i] = -1
        return a

    if series == "A":
        if rank < 1:
            raise InputError("invalid-group", "series A needs rank >= 1")
        return chain(rank)
    if series == "B":
        if rank < 2:
            raise InputError("invalid-group", "series B needs rank >= 2")
        a = chain(rank)
        a[rank - 2][rank - 1] = -2  # last simple root is short
        return a
    if series == "C":
        if rank < 2:
            raise InputError("invalid-group", "series C needs rank >= 2")
        a = chain(rank)
        a[rank - 1][rank - 2] = -2  # last simple root is long
        return a
    if series == "D":
        if rank < 3:
            raise InputError("invalid-group", "series D needs rank >= 3")
        a = chain(rank - 1)
        for row in a:
            row.append(0)
        a.append([0] * rank)
        a[rank - 1][rank - 1] = 2
        a[rank - 1][rank - 3] = -1  # fork: last root attaches two nodes back
        a[rank - 3][rank - 1] = -1
        return a
    if series == "G":
        if rank != 2:
            raise InputError("invalid-group", "series G needs rank 2")
        return [[2, -1], [-3, 2]]
    raise InputError("invalid-group", f"unknown series {series!r}")


def builtin_cartan(series: str, rank: int) -> CartanData:
    """Standard Cartan data for the series A, B, C, D and G2.

    Built once per (series, rank) and shared: CartanData is immutable.
    """
    series = series.upper()
    if series == "G2":
        series = "G"
    return _builtin_cartan(series, rank)


@lru_cache(maxsize=BUILTIN_CACHE_SIZE)
def _builtin_cartan(series: str, rank: int) -> CartanData:
    return custom_cartan(_series_matrix(series, rank), label=f"{series}{rank}")


def _parse_tag(tag: str) -> tuple[str, int]:
    m = _TAG_RE.match(tag.strip())
    if not m:
        raise InputError("invalid-group", f"cannot parse group tag {tag!r}")
    return m.group(1), int(m.group(2))


def cartan_from_tag(tag: str) -> CartanData:
    """Parse a tag such as ``A2``, ``B3`` or ``G2`` into CartanData."""
    return builtin_cartan(*_parse_tag(tag))


def is_dominant(w: Weight) -> bool:
    return all(c >= 0 for c in w)


def _check_weight(cd: CartanData, w: Sequence[int]) -> Weight:
    """``w`` as a tuple; raises ``rank-mismatch`` unless it has ``cd.rank``
    coordinates, and ``invalid-weight`` unless each is an ``int``, not a
    ``bool``: ``1.0`` and ``True`` hash equal to ``1``, so one would stand
    in a memo key for the other."""
    if len(w) != cd.rank:
        raise InputError("rank-mismatch", f"weight length {len(w)} for rank {cd.rank}")
    w = tuple(w)
    if not set(map(type, w)) <= {int}:
        raise InputError("invalid-weight", f"weight {w} has a coordinate that is not an integer")
    return w


def inner(cd: CartanData, u: Sequence[int], v: Sequence[int]) -> Fraction:
    """Invariant symmetric bilinear form, exact rational value.  v is
    sum_j x_j a_j with C^T x = v, and (w_i, a_j) = d_j if i == j and 0
    otherwise, so (u, v) = sum_i u_i d_i x_i; C diag(d) is symmetric, so
    y = d * x solves C y = d * v, and (u, v) = sum_i u_i y_i."""
    from fractions import Fraction

    u = _check_weight(cd, u)
    v = _check_weight(cd, v)
    y = _solve(cd.cartan_matrix, list(map(mul, cd.symmetrizer, v)))
    return sum((Fraction(ui * num, p) for ui, (p, num) in zip(u, y) if ui), Fraction(0))


def simple_reflection(cd: CartanData, i: int, w: Sequence[int]) -> Weight:
    """s_i(w) = w - w[i] * root_i."""
    w = _check_weight(cd, w)
    if not 0 <= i < cd.rank:
        raise InputError("invalid-index", f"reflection index {i} out of range")
    c = w[i]
    row = cd.cartan_matrix[i]
    return tuple(w[j] - c * row[j] for j in range(cd.rank))


def dominant_representative(cd: CartanData, w: Sequence[int]) -> Weight:
    """The unique dominant weight in the Weyl orbit of ``w``."""
    return _kernels.dominant_representative(cd.cartan_matrix, _check_weight(cd, w))


def weyl_orbit(cd: CartanData, w: Sequence[int], cap: int = ORBIT_CAP) -> frozenset[Weight]:
    """Full Weyl orbit of ``w``, found by a duplicate-free walk down from its
    dominant representative, compiled once per group (``cd.orbit_walk``).
    The walk checks the cap before it adds each weight, so it raises
    ResourceCapError ``orbit-cap`` exactly when the orbit has more than
    ``cap`` weights, and never holds more than ``cap``."""
    return frozenset(cd.orbit_walk(dominant_representative(cd, w), cap))
