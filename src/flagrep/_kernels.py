"""Kernels for the lattice hot loops, in pure Python.

Weights are tuples of Python ints and all coefficient arithmetic is exact
integer arithmetic, never floats.

Conventions used by every function here:

* ``cartan`` is a tuple of m rows; row i is simple root i written in
  fundamental-weight coordinates.
* ``gram`` is an integer matrix proportional to the invariant inner product
  on weight coordinates (a common positive scale is irrelevant because the
  recursion only uses ratios).
"""

from itertools import repeat

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
