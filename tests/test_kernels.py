"""The pure kernels against independent oracles: breadth-first Weyl orbits
and the string-walking Freudenthal recursion in ``tests/oracles.py``; and
the term-dict product, which ``CharPoly * CharPoly`` computes, against the
Laurent product there."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import flagrep
from flagrep import ResourceCapError, _kernels, cartan_from_tag, custom_cartan, weyl_orbit
from flagrep.characters import _dominant_support, _invariant_dominant_terms
from flagrep.charpoly import CharPoly

import oracles

# The kernels module under test.  The id keeps these tests' names as they
# were while the suite also ran a second, compiled backend.
KERNELS = [pytest.param(_kernels, id="flagrep._kernels_py")]


def freudenthal_inputs(cd, lam):
    return cd.freudenthal_tables, lam, _dominant_support(cd, lam)


def test_poly_mul_matches_laurent_oracle():
    rng = random.Random(5)
    for _ in range(25):
        a = {
            tuple(rng.randint(-6, 6) for _ in range(3)): rng.randint(-9, 9) or 1
            for _ in range(rng.randint(1, 8))
        }
        b = {
            tuple(rng.randint(-6, 6) for _ in range(3)): rng.randint(-9, 9) or 1
            for _ in range(rng.randint(1, 8))
        }
        assert (CharPoly(3, a) * CharPoly(3, b)).terms == oracles.laurent_mul(a, b)


@pytest.mark.parametrize("backend", KERNELS)
def test_dominant_representative_fixes_dominant(backend):
    cd = cartan_from_tag("A3")
    assert backend.dominant_representative(cd.cartan_matrix, (1, 0, 2)) == (1, 0, 2)
    assert backend.dominant_representative(cd.cartan_matrix, (-1, 1, 0)) in (
        oracles.bfs_weyl_orbit(cd.cartan_matrix, (-1, 1, 0), 10**6)
    )


def test_kernel_backend_is_pure():
    assert flagrep.kernel_backend() == "pure"


# D4 numbered with the centre at 2, so that node 2 has a lower neighbour,
# node 0, other than node 1
D4_CENTRE_2 = custom_cartan([[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]], label="D4c2")
G2_LONG_FIRST = custom_cartan([[2, -3], [-1, 2]], label="G2long")
B2_G2 = custom_cartan([[2, -2, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -3, 2]], label="B2xG2")

ORBIT_GROUPS = [
    cartan_from_tag(t)
    for t in "A1 A2 A3 A4 A5 A6 B2 B3 B4 B5 C3 C4 C5 D4 D5 G2".split()
] + [
    custom_cartan([[2, 0, 0], [0, 2, -1], [0, -1, 2]], label="A1xA2"),
    custom_cartan([[2, -1, 0], [-2, 2, -1], [0, -1, 2]]),  # C3 with the long root first
    D4_CENTRE_2,
    G2_LONG_FIRST,
    B2_G2,
]


def _orbit_weights(cd):
    """Dominant and non-dominant weights: a grid, the Weyl vector and a few
    reflected points, with entries small enough to keep orbits short."""
    rng = random.Random(cd.rank * 31 + len(cd.positive_roots))
    grid = itertools.product(range(-1, 2), repeat=cd.rank) if cd.rank <= 3 else ()
    picks = [tuple(rng.randint(-2, 2) for _ in range(cd.rank)) for _ in range(12)]
    return [*grid, *picks, cd.weyl_vector, (0,) * cd.rank]


def walk_orbit(backend, cd, w, cap):
    """The orbit of ``w`` as the group's compiled walk lists it, from the
    dominant representative."""
    return cd.orbit_walk(backend.dominant_representative(cd.cartan_matrix, w), cap)


@pytest.mark.parametrize("backend", KERNELS)
@pytest.mark.parametrize("cd", ORBIT_GROUPS, ids=lambda cd: cd.label)
def test_weyl_orbit_matches_breadth_first_oracle(backend, cd):
    for w in _orbit_weights(cd):
        orbit = walk_orbit(backend, cd, w, 10**6)
        assert type(orbit) is list
        assert len(set(orbit)) == len(orbit), w  # each element once
        assert set(orbit) == oracles.bfs_weyl_orbit(cd.cartan_matrix, w, 10**6), w
        assert weyl_orbit(cd, w) == frozenset(orbit)


@pytest.mark.parametrize("backend", KERNELS)
@pytest.mark.parametrize("cd", ORBIT_GROUPS, ids=lambda cd: cd.label)
def test_weyl_orbit_cap_is_exact(backend, cd):
    for w in _orbit_weights(cd)[-6:]:
        size = len(oracles.bfs_weyl_orbit(cd.cartan_matrix, w, 10**6))
        assert len(walk_orbit(backend, cd, w, size)) == size
        assert len(weyl_orbit(cd, w, cap=size)) == size
        calls = [lambda: walk_orbit(backend, cd, w, size - 1)]
        if size > 1:  # the oracle never checks the cap against its start
            calls.append(lambda: oracles.bfs_weyl_orbit(cd.cartan_matrix, w, size - 1))
        for call in calls:
            with pytest.raises(ResourceCapError) as info:
                call()
            assert (info.value.code, str(info.value)) == (
                "orbit-cap", f"orbit size exceeds cap {size - 1}"
            )


def test_orbit_walk_source_grows_linearly_with_the_rank():
    for r in (16, 64, 256):
        cartan = cartan_from_tag(f"A{r}").cartan_matrix
        assert len(_kernels._orbit_walk_source(cartan)) < 240 * r, r
    cd = cartan_from_tag("A256")
    omega1 = (1,) + (0,) * 255
    assert weyl_orbit(cd, omega1) == oracles.bfs_weyl_orbit(cd.cartan_matrix, omega1, 10**6)
    assert len(cd.orbit_walk(omega1, 257)) == 257


def test_weyl_orbit_cap_counts_the_dominant_weight():
    cd = cartan_from_tag("B3")
    with pytest.raises(ResourceCapError, match="orbit size exceeds cap 0"):
        weyl_orbit(cd, (0, 0, 0), cap=0)
    assert weyl_orbit(cd, (0, 0, 0), cap=1) == frozenset({(0, 0, 0)})


ORBIT_TERMS_CASES = [
    ("A3", (1, 2, 1)), ("B3", (1, 1, 1)), ("C3", (2, 0, 1)), ("D4", (1, 0, 1, 1)), ("G2", (2, 3)),
    (D4_CENTRE_2, (1, 1, 0, 1)), (G2_LONG_FIRST, (3, 2)), (B2_G2, (1, 1, 2, 1)),
    # 1,830 weights, walked with slices of the weight over the runs of
    # coordinates that a reflection leaves as they are
    ("A60", tuple(int(j == 1) for j in range(60))),
]


@pytest.mark.parametrize("backend", KERNELS)
@pytest.mark.parametrize(
    "group,lam", ORBIT_TERMS_CASES, ids=lambda g: getattr(g, "label", None)
)
def test_orbit_terms_matches_breadth_first_oracle(backend, group, lam):
    cd = cartan_from_tag(group) if isinstance(group, str) else group
    cartan = cd.cartan_matrix
    dom = backend.freudenthal(*freudenthal_inputs(cd, lam))
    expected = {}
    for mu, mult in dom.items():
        expected.update(dict.fromkeys(oracles.bfs_weyl_orbit(cartan, mu, 10**6), mult))
    size = len(expected)
    assert backend.orbit_terms(cd.orbit_walk, dom, size) == expected
    with pytest.raises(ResourceCapError) as info:
        backend.orbit_terms(cd.orbit_walk, dom, size - 1)
    assert (info.value.code, str(info.value)) == ("term-cap", f"support exceeds cap {size - 1}")


def invariant_by_orbits(cartan, terms):
    """True when every term's whole breadth-first orbit carries its
    coefficient; a term in an orbit already checked has that orbit."""
    checked = set()
    for u, c in terms.items():
        if u not in checked:
            orbit = oracles.bfs_weyl_orbit(cartan, u, 10**6)
            if any(terms.get(v) != c for v in orbit):
                return False
            checked |= orbit
    return True


# A11 is the first A_r whose compiled walk reads a run of coordinates as a
# slice of the weight (``_kernels.RUN`` is 8)
@pytest.mark.parametrize("tag", ["A1", "A2", "B2", "G2", "A3", "B3", "A11"])
def test_invariant_dominant_terms_matches_orbit_oracle(tag):
    cd = cartan_from_tag(tag)
    cartan = cd.cartan_matrix
    rank = len(cartan)
    rng = random.Random(tag)

    def weight(low, high):
        if rank < 10:
            return tuple(rng.randint(low, high) for _ in range(rank))
        # one nonzero entry, so that its orbit holds at most C(12, 6) = 924 weights
        w = [0] * rank
        w[rng.randrange(rank)] = rng.randint(low, high)
        return tuple(w)

    assert ("v[" in _kernels._orbit_walk_source(cartan)) == (rank > 10)
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            mu = weight(0, 2)
            c = rng.randint(1, 3)
            for w in oracles.bfs_weyl_orbit(cartan, mu, 10**6):
                terms[w] = terms.get(w, 0) + c
        if terms and rng.random() < 0.5:  # one weight changed, removed or added
            w = rng.choice(sorted(terms))
            change = rng.choice(["up", "remove", "add"])
            if change == "add":
                w = weight(-3, 3)
                terms[w] = terms.get(w, 0) + 1
            elif change == "up":
                terms[w] += 1
            else:
                del terms[w]
        expected = (
            {w: c for w, c in terms.items() if min(w) >= 0} if invariant_by_orbits(cartan, terms) else None
        )
        assert _invariant_dominant_terms(cd, terms) == expected


def test_invariant_dominant_terms_counts_the_negative_side():
    # a term in no dominant term's orbit is walked from nowhere: only the
    # count of the terms the orbits cover tells these apart
    a1 = cartan_from_tag("A1")
    assert _invariant_dominant_terms(a1, {(-1,): 1}) is None
    assert _invariant_dominant_terms(a1, {(1,): 1, (-1,): 1, (-3,): 1}) is None
    assert _invariant_dominant_terms(a1, {(1,): 2, (-1,): 2, (0,): 1}) == {(1,): 2, (0,): 1}


def test_invariant_dominant_terms_walks_no_more_weights_than_the_input_has(monkeypatch):
    caps = []
    compile_orbit_walk = _kernels.compile_orbit_walk

    def counting(cartan):
        walk = compile_orbit_walk(cartan)

        def counted(top, cap):
            caps.append(cap)
            return walk(top, cap)

        return counted

    monkeypatch.setattr(_kernels, "compile_orbit_walk", counting)
    cd = custom_cartan(cartan_from_tag("A8").cartan_matrix, label="A8")  # not memoised
    omega4 = (0, 0, 0, 1, 0, 0, 0, 0)
    orbit = oracles.bfs_weyl_orbit(cd.cartan_matrix, omega4, 10**6)
    assert len(orbit) == 126
    partial = dict.fromkeys(sorted(orbit)[:-1], 1)  # all but one weight of the orbit
    assert omega4 in partial
    for terms in ({omega4: 1}, partial):
        caps.clear()
        assert _invariant_dominant_terms(cd, terms) is None
        assert caps == [len(terms)]
    assert _invariant_dominant_terms(cd, dict.fromkeys(orbit, 1)) == {omega4: 1}


FREUDENTHAL_GROUPS = [
    cartan_from_tag(t) for t in "A1 A2 A3 A4 B2 B3 B4 C3 C4 D4 D5 G2".split()
] + [
    custom_cartan([[2, 0, 0], [0, 2, -1], [0, -1, 2]], label="A1xA2"),
    custom_cartan([[2, -1, 0, 0], [-3, 2, 0, 0], [0, 0, 2, -2], [0, 0, -1, 2]], label="G2xB2"),
]


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_freudenthal_matches_string_walking_oracle(data):
    cd = data.draw(st.sampled_from(FREUDENTHAL_GROUPS), label="group")
    top = {1: 8, 2: 5, 3: 2}.get(cd.rank, 1)  # keeps the oracle's strings short
    lam = tuple(data.draw(st.lists(st.integers(0, top), min_size=cd.rank, max_size=cd.rank)))
    support = _dominant_support(cd, lam)
    assert _kernels.freudenthal(cd.freudenthal_tables, lam, support) == (
        oracles.freudenthal(cd.cartan_matrix, oracles.invariant_form(cd), cd.positive_roots, lam, list(support))
    )


@pytest.mark.parametrize("tag,lam", [("A2", (2, 1)), ("B2", (1, 1))])
def test_freudenthal_rejects_a_form_that_is_not_invariant(tag, lam):
    # the identity is not the invariant form of A2 or B2: the recursion's
    # division leaves a remainder in the kernel and in the oracle alike;
    # the kernel's string-sum rows are identity * a, the roots themselves,
    # and its denominators are the identity's norms
    cd = cartan_from_tag(tag)
    identity = ((1, 0), (0, 1))
    weights = list(_dominant_support(cd, lam))
    support = dict(zip(weights, oracles.freudenthal_denominators(identity, lam, weights)))
    roots, reflect, _, moved = cd.freudenthal_tables
    calls = [
        lambda: _kernels.freudenthal((roots, reflect, roots, moved), lam, support),
        lambda: oracles.freudenthal(cd.cartan_matrix, identity, roots, lam, weights),
    ]
    for call in calls:
        with pytest.raises(ArithmeticError, match="non-integral multiplicity; invalid Cartan data"):
            call()


def test_poly_mul_drops_terms_that_cancel():
    # (x + 1)(x - 1) = x^2 - 1: the two x terms meet and cancel
    assert (CharPoly(1, {(1,): 1, (0,): 1}) * CharPoly(1, {(1,): 1, (0,): -1})).terms == {(2,): 1, (0,): -1}
    product = CharPoly(2, {(1, 0): 1, (0, 1): -1}) * CharPoly(2, {(1, 0): 1, (0, 1): 1})
    assert product.terms == {(2, 0): 1, (0, 2): -1}
