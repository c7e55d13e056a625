"""Kernels for the lattice hot loops, in pure Python.

Weights are tuples of Python ints and all coefficient arithmetic is exact
integer arithmetic, never floats.

Conventions used by every function here:

* ``cartan`` is a tuple of m rows; row i is simple root i written in
  fundamental-weight coordinates.
* Per-group tables come from the caller: ``freudenthal`` reads the positive
  roots, the tables it walks them by and the invariant form on them from
  ``CartanData.freudenthal_tables``, built once per group, and its
  denominators from the support.  No kernel keeps a cache, and none reads
  an inverse Cartan matrix.
"""

from itertools import islice, repeat
from operator import add, mul

from .errors import ResourceCapError


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


def _reflection_tables(cartan):
    """Per simple reflection s_i: the pairs (k, -cartan[i][k]) for k < i,
    and the pairs (j, cartan[i][j]) of the coordinates s_i can change."""
    m = len(cartan)
    lower = [[(k, -cartan[i][k]) for k in range(i)] for i in range(m)]
    moved = [[(j, a) for j, a in enumerate(cartan[i]) if a] for i in range(m)]
    return lower, moved


def _orbit_walk(top, lower, moved, cap):
    """The orbit of the dominant weight ``top``, each element once.

    From v, for each i with v[i] > 0, keep u = s_i(v) only if u[k] >= 0
    for every k < i (u[k] = v[k] + v[i] * a over ``lower[i]``, checked
    before u is built).  Then i is u's first negative index, so every
    element other than ``top`` has exactly one parent: s_j(u), for j its
    first negative index.
    """
    if cap < 1:
        raise ResourceCapError("orbit-cap", f"orbit size exceeds cap {cap}")
    orbit = [top]
    for v in orbit:
        for i, c in enumerate(v):
            if c > 0:
                for k, a in lower[i]:
                    if v[k] + c * a < 0:
                        break
                else:
                    if len(orbit) == cap:
                        raise ResourceCapError(
                            "orbit-cap", f"orbit size exceeds cap {cap}"
                        )
                    u = list(v)
                    for j, a in moved[i]:
                        u[j] -= c * a
                    orbit.append(tuple(u))
    return orbit


def weyl_orbit(cartan, w, cap):
    """Orbit of ``w`` under the reflections s_i(v) = v - v[i] * root_i.

    A duplicate-free tree walk down from the dominant representative
    (Snow, Weyl group orbits, ACM TOMS), with no seen-set.  Returns a list;
    raises the orbit cap as soon as the orbit would hold more than ``cap``
    weights, so it never holds more than ``cap``.
    """
    top = dominant_representative(cartan, w)
    return _orbit_walk(top, *_reflection_tables(cartan), cap)


def freudenthal(tables, lam, support):
    """Multiplicities of the dominant weights of the highest-weight module.

    ``support`` must map the dominant weights mu of the module, sorted by
    increasing depth below ``lam`` (the first is ``lam`` itself), to their
    denominators |lam + rho|^2 - |mu + rho|^2, as
    ``characters._dominant_support`` returns them.  Returns a dict mapping
    each of them to its multiplicity.  ``tables`` holds the positive roots;
    per simple reflection s_i, the index of the image of each root (None
    for root i); per root g, the row r with (v, g) = sum_i v_i * r_i; and
    the ``moved`` pairs of each s_i (``CartanData.freudenthal_tables``).

    Freudenthal's sum for mu is the sum over positive roots a of the string
    sums S(mu + a, a), where S(v, g) = sum over k >= 0 of
    m(v + k g) * (v + k g, g).  Multiplicities and the form are W-invariant,
    so S(v, g) = S(d, w g) for d = w v, the dominant representative.  If d
    is not a weight, S is 0: d - w g is one, and a root string has no gaps.
    Otherwise d comes earlier in ``support``, and
    S(d, g) = m(d) * (d, g) + S(d + g, g), whose last term is one of the
    sums d's own recursion took.  So the kernel keeps, for each dominant
    weight d, the row of S(d, g) over the positive roots g, and each string
    sum is one reflection and one lookup, however deep the string is.

    w g stays positive: s_i turns g negative only when g is root i, and it
    is applied only where (v, root i) < 0, while (v, g) = (mu, g) + (g, g)
    > 0 for v = mu + g, and each step leaves (v, g) as it was.
    """
    m = len(lam)
    pos_roots, reflect, rows, moved = tables
    lam = tuple(lam)
    mults = {lam: 1}
    sums = {lam: [sum(map(mul, lam, g)) for g in rows]}  # sums[d][k] = S(d, root k)
    get = sums.get
    for mu, denom in islice(support.items(), 1, None):
        above = []  # S(mu + a, a) for each positive root a
        for k, a in enumerate(pos_roots):
            v = list(map(add, mu, a))
            # v to the dominant chamber, and root k with it
            i = 0
            while i < m:
                c = v[i]
                if c < 0:
                    for j, x in moved[i]:
                        v[j] -= c * x
                    k = reflect[i][k]
                    i = 0
                else:
                    i += 1
            found = get(tuple(v))
            above.append(0 if found is None else found[k])
        mult, rem = divmod(2 * sum(above), denom)
        if rem:
            raise ArithmeticError("non-integral multiplicity; invalid Cartan data")
        mults[mu] = mult
        sums[mu] = [s + mult * sum(map(mul, mu, g)) for s, g in zip(above, rows)]
    return mults


def orbit_terms(cartan, dominant_mults, max_terms):
    """Expand dominant multiplicities to the full Weyl-symmetric term dict;
    each key of ``dominant_mults`` must be dominant, as the walk starts there."""
    lower, moved = _reflection_tables(cartan)
    terms = {}
    for mu, mult in dominant_mults.items():
        try:
            orbit = _orbit_walk(mu, lower, moved, max_terms - len(terms))
        except ResourceCapError:
            raise ResourceCapError(
                "term-cap", f"support exceeds cap {max_terms}"
            ) from None
        terms.update(zip(orbit, repeat(mult)))
    return terms


def invariant_dominant_terms(cartan, terms):
    """The dominant terms of ``terms`` if it is W-invariant, else None.

    Invariance under W is invariance under each simple reflection s_i,
    which fixes a weight u with u[i] = 0 and maps the terms with u[i] > 0
    one to one to weights with u[i] < 0.  One lookup per term and positive
    coordinate checks that s_i(u) is a term with u's coefficient; then
    these maps are onto the terms with a negative coordinate exactly when
    positive and negative coordinates are equally many.
    """
    _, moved = _reflection_tables(cartan)
    get = terms.get
    dominant = {}
    balance = 0
    for u, c in terms.items():
        negative = False
        for i, ui in enumerate(u):
            if ui > 0:
                v = list(u)
                for j, a in moved[i]:
                    v[j] -= ui * a
                if get(tuple(v)) != c:
                    return None
                balance += 1
            elif ui < 0:
                balance -= 1
                negative = True
        if not negative:
            dominant[u] = c
    return dominant if balance == 0 else None


def poly_mul(a, b):
    """Convolution of two sparse integer-coefficient term dicts."""
    if len(a) < len(b):
        a, b = b, a
    out = {}
    for wb, cb in b.items():
        for wa, ca in a.items():
            w = tuple(x + y for x, y in zip(wa, wb))
            c = out.get(w, 0) + ca * cb
            if c:
                out[w] = c
            elif w in out:
                del out[w]
    return out


def kernel_backend() -> str:
    """Name of the kernel backend; the kernels are pure Python."""
    return "pure"
