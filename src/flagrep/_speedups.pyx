# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled kernels; must mirror flagrep._kernels_py exactly.

Coefficients stay Python ints so the arithmetic remains exact for
arbitrarily large values; the win comes from compiled loop and tuple
machinery, not from narrowing any integer type.
"""

from itertools import repeat

from flagrep.errors import ResourceCapError


def dominant_representative(cartan, w):
    """Reflect ``w`` into the dominant chamber using simple reflections."""
    cdef Py_ssize_t m = len(w)
    cdef Py_ssize_t i = 0
    cdef Py_ssize_t j
    v = list(w)
    while i < m:
        c = v[i]
        if c < 0:
            row = cartan[i]
            for j in range(m):
                v[j] = v[j] - c * row[j]
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
    """The orbit of the dominant weight ``top``, each element once."""
    cdef Py_ssize_t pos = 0
    cdef Py_ssize_t i, m
    if cap < 1:
        raise ResourceCapError("orbit-cap", f"orbit size exceeds cap {cap}")
    m = len(top)
    orbit = [top]
    while pos < len(orbit):
        v = orbit[pos]
        pos += 1
        for i in range(m):
            c = v[i]
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
                        u[j] = u[j] - c * a
                    orbit.append(tuple(u))
    return orbit


def weyl_orbit(cartan, w, cap):
    """Orbit of ``w`` under the reflections s_i(v) = v - v[i] * root_i,
    by a duplicate-free walk down from its dominant representative."""
    top = dominant_representative(cartan, w)
    return _orbit_walk(top, *_reflection_tables(cartan), cap)


cdef _ip(gram, u, v):
    cdef Py_ssize_t m = len(u)
    cdef Py_ssize_t i, j
    total = 0
    for i in range(m):
        ui = u[i]
        if ui:
            row = gram[i]
            s = 0
            for j in range(m):
                vj = v[j]
                if vj:
                    s = s + row[j] * vj
            total = total + ui * s
    return total


def freudenthal(cartan, gram, pos_roots, lam, support):
    """Multiplicities of the dominant weights of the highest-weight module."""
    cdef Py_ssize_t m = len(lam)
    cdef Py_ssize_t j
    cdef Py_ssize_t k
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
                    nu[j] = nu[j] + a[j]
                mult = mults.get(dominant_representative(cartan, nu))
                if mult is None:
                    break
                acc = acc + mult * (base + k * na)
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


def poly_mul(a, b):
    """Convolution of two sparse integer-coefficient term dicts."""
    cdef Py_ssize_t m
    cdef Py_ssize_t j
    if len(a) < len(b):
        a, b = b, a
    out = {}
    for wb, cb in b.items():
        m = len(wb)
        for wa, ca in a.items():
            scratch = list(wa)
            for j in range(m):
                scratch[j] = scratch[j] + wb[j]
            w = tuple(scratch)
            c = out.get(w, 0) + ca * cb
            if c:
                out[w] = c
            elif w in out:
                del out[w]
    return out
