"""Kernels for the lattice hot loops, in pure Python.

Weights are tuples of Python ints and all coefficient arithmetic is exact
integer arithmetic, never floats.

Conventions used by every function here:

* ``cartan`` is a tuple of m rows; row i is simple root i written in
  fundamental-weight coordinates.
* Per-group tables come from the caller: ``freudenthal`` reads the positive
  roots, the tables it walks them by and the invariant form on them from
  ``CartanData.freudenthal_tables``, built once per group, and its
  denominators from the support.
* The Weyl orbit walk is Python source written from the Cartan matrix's
  entries alone, each simple reflection spelt out in named coordinates,
  and compiled by ``compile_orbit_walk``.  ``CartanData.orbit_walk`` keeps
  one per group, and ``orbit_terms`` runs the one it is given, into a
  term dict or into rows (w1, ..., wr, mult).

No kernel keeps a cache, and none solves in the Cartan matrix.
"""

from itertools import compress, islice, repeat
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


#: The longest run of coordinates that a compiled orbit walk names one by
#: one.  A longer run, of coordinates that a reflection leaves as they are
#: or only tests for a negative entry, is read as one slice of the weight,
#: so the source grows with the rank plus the edges of the Dynkin diagram.
RUN = 8


def _run(start, stop, one, many):
    """Text for the coordinates start..stop-1: ``one`` per coordinate, or
    ``many`` once over the slice when there are more than ``RUN``."""
    if stop - start > RUN:
        return [many % (start, stop)]
    return [one % k for k in range(start, stop)]


def _orbit_walk_source(cartan):
    """The source of ``walk(top, cap)`` for ``cartan``, each simple
    reflection written out: the weight is unpacked into ``v0``, ``v1``, ...;
    s_i's parent test compares those names, and its child is a tuple of
    them.  Numbers are written with ``%d``, which formats an int's value
    and nothing else."""
    m = len(cartan)
    lines = [
        "def walk(top, cap):",
        "    if cap < 1:",
        "        _over_cap(cap)",
        "    orbit = [top]",
        "    append = orbit.append",
        "    for v in orbit:",
        "        %s, = v" % ", ".join("v%d" % j for j in range(m)),
    ]
    for i, row in enumerate(cartan):
        # s_i(v)[j] = v[j] + v[i] * a for the coordinates j it moves
        moved = {j: -row[j] for j in compress(range(m), row) if j != i}
        plus = {j: "v%d + v%d" % (j, i) if a == 1 else "v%d + v%d * %d" % (j, i, a) for j, a in moved.items()}
        # the lower neighbours' tests come before the far ones, which a
        # slice may read many at a time
        tests, far, child = ["v%d > 0" % i], [], []
        start = 0
        for k in [k for k in moved if k < i] + [i]:
            far += _run(start, k, "v%d >= 0", "min(v[%d:%d]) >= 0")
            if k < i:
                tests.append(plus[k] + " >= 0")
            start = k + 1
        start = 0
        for j in sorted([*moved, i]) + [m]:
            child += _run(start, j, "v%d", "*v[%d:%d]")
            if j < m:
                child.append(plus[j] if j != i else "-v%d" % i)
            start = j + 1
        lines += [
            "        if %s:" % " and ".join(tests + far),
            "            if len(orbit) == cap:",
            "                _over_cap(cap)",
            "            append((%s,))" % ", ".join(child),
        ]
    lines.append("    return orbit")
    return "\n".join(lines) + "\n"


def _over_cap(cap):
    raise ResourceCapError("orbit-cap", f"orbit size exceeds cap {cap}")


def compile_orbit_walk(cartan):
    """``walk(top, cap)``: the orbit of the dominant weight ``top``, each
    element once, as a list that starts at ``top``; compiled from
    ``cartan``'s entries (``_orbit_walk_source``) on each call, so a caller
    that walks many orbits of one group compiles once
    (``CartanData.orbit_walk``).

    The walk is a duplicate-free tree walk down from ``top`` (Snow, Weyl
    group orbits, ACM TOMS), with no seen-set.  From v, for each i with
    v[i] > 0, it keeps u = s_i(v) only if u[k] >= 0 for every k < i, which
    it checks before u is built.  Then i is u's first negative index, so
    every element other than ``top`` has exactly one parent: s_j(u), for j
    its first negative index.  The walk checks the cap before each weight
    it adds, so it raises ``orbit-cap`` as soon as the orbit would hold
    more than ``cap`` weights, and never holds more.
    """
    namespace = {"_over_cap": _over_cap}
    exec(compile(_orbit_walk_source(cartan), "<orbit walk>", "exec"), namespace)
    return namespace["walk"]


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


def orbit_terms(walk, dominant_mults, max_terms, size=None):
    """Expand dominant multiplicities to every term of the Weyl-symmetric
    character, with the group's compiled ``walk`` (``compile_orbit_walk``);
    each key of ``dominant_mults`` must be dominant, as the walk starts
    there.  The walk of each orbit holds the terms so far to ``max_terms``.

    Returns the term dict; or, given ``size``, the exact term count, a list
    of ``size`` rows (w1, ..., wr, mult), one per term in orbit order,
    sized once: each orbit becomes its rows as soon as it is walked, so no
    term dict is built (``characters._character_rows``)."""
    terms = {} if size is None else [None] * size
    done = 0
    for mu, mult in dominant_mults.items():
        try:
            orbit = walk(mu, max_terms - done)
        except ResourceCapError:
            raise ResourceCapError(
                "term-cap", f"support exceeds cap {max_terms}"
            ) from None
        if size is None:
            terms.update(zip(orbit, repeat(mult)))
        else:
            terms[done:done + len(orbit)] = map(add, orbit, repeat((mult,)))
        done += len(orbit)
    return terms


def kernel_backend() -> str:
    """Name of the kernel backend; the kernels are pure Python."""
    return "pure"
