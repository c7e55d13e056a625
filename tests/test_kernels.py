"""The pure kernels against independent oracles: breadth-first Weyl orbits,
the Laurent product and the string-walking Freudenthal recursion in
``tests/oracles.py``."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import flagrep
from flagrep import ResourceCapError, _kernels, cartan_from_tag, custom_cartan, weyl_orbit
from flagrep.characters import _dominant_support

import oracles

# The kernels module under test.  The id keeps these tests' names as they
# were while the suite also ran a second, compiled backend.
KERNELS = [pytest.param(_kernels, id="flagrep._kernels_py")]


def freudenthal_inputs(tag, lam):
    cd = cartan_from_tag(tag)
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
        assert _kernels.poly_mul(a, b) == oracles.laurent_mul(a, b)


@pytest.mark.parametrize("backend", KERNELS)
def test_dominant_representative_fixes_dominant(backend):
    cd = cartan_from_tag("A3")
    assert backend.dominant_representative(cd.cartan_matrix, (1, 0, 2)) == (1, 0, 2)
    assert backend.dominant_representative(cd.cartan_matrix, (-1, 1, 0)) in (
        oracles.bfs_weyl_orbit(cd.cartan_matrix, (-1, 1, 0), 10**6)
    )


def test_kernel_backend_is_pure():
    assert flagrep.kernel_backend() == "pure"


ORBIT_GROUPS = [
    cartan_from_tag(t)
    for t in "A1 A2 A3 A4 A5 A6 B2 B3 B4 B5 C3 C4 C5 D4 D5 G2".split()
] + [
    custom_cartan([[2, 0, 0], [0, 2, -1], [0, -1, 2]], label="A1xA2"),
    custom_cartan([[2, -1, 0], [-2, 2, -1], [0, -1, 2]]),  # C3 with the long root first
]


def _orbit_weights(cd):
    """Dominant and non-dominant weights: a grid, the Weyl vector and a few
    reflected points, with entries small enough to keep orbits short."""
    rng = random.Random(cd.rank * 31 + len(cd.positive_roots))
    grid = itertools.product(range(-1, 2), repeat=cd.rank) if cd.rank <= 3 else ()
    picks = [tuple(rng.randint(-2, 2) for _ in range(cd.rank)) for _ in range(12)]
    return [*grid, *picks, cd.weyl_vector, (0,) * cd.rank]


@pytest.mark.parametrize("backend", KERNELS)
@pytest.mark.parametrize("cd", ORBIT_GROUPS, ids=lambda cd: cd.label)
def test_weyl_orbit_matches_breadth_first_oracle(backend, cd):
    for w in _orbit_weights(cd):
        orbit = backend.weyl_orbit(cd.cartan_matrix, w, 10**6)
        assert type(orbit) is list
        assert len(set(orbit)) == len(orbit), w  # each element once
        assert set(orbit) == oracles.bfs_weyl_orbit(cd.cartan_matrix, w, 10**6), w
        assert weyl_orbit(cd, w) == frozenset(orbit)


@pytest.mark.parametrize("backend", KERNELS)
@pytest.mark.parametrize("cd", ORBIT_GROUPS, ids=lambda cd: cd.label)
def test_weyl_orbit_cap_is_exact(backend, cd):
    for w in _orbit_weights(cd)[-6:]:
        size = len(oracles.bfs_weyl_orbit(cd.cartan_matrix, w, 10**6))
        assert len(backend.weyl_orbit(cd.cartan_matrix, w, size)) == size
        assert len(weyl_orbit(cd, w, cap=size)) == size
        for f in (backend.weyl_orbit, oracles.bfs_weyl_orbit):
            if size == 1 and f is oracles.bfs_weyl_orbit:
                continue  # the oracle never checks the cap against its start
            with pytest.raises(ResourceCapError) as info:
                f(cd.cartan_matrix, w, size - 1)
            assert (info.value.code, str(info.value)) == (
                "orbit-cap", f"orbit size exceeds cap {size - 1}"
            )


def test_weyl_orbit_cap_counts_the_dominant_weight():
    cd = cartan_from_tag("B3")
    with pytest.raises(ResourceCapError, match="orbit size exceeds cap 0"):
        weyl_orbit(cd, (0, 0, 0), cap=0)
    assert weyl_orbit(cd, (0, 0, 0), cap=1) == frozenset({(0, 0, 0)})


@pytest.mark.parametrize("backend", KERNELS)
@pytest.mark.parametrize(
    "tag,lam", [("A3", (1, 2, 1)), ("B3", (1, 1, 1)), ("C3", (2, 0, 1)), ("D4", (1, 0, 1, 1)), ("G2", (2, 3))]
)
def test_orbit_terms_matches_breadth_first_oracle(backend, tag, lam):
    cartan = cartan_from_tag(tag).cartan_matrix
    dom = backend.freudenthal(*freudenthal_inputs(tag, lam))
    expected = {}
    for mu, mult in dom.items():
        expected.update(dict.fromkeys(oracles.bfs_weyl_orbit(cartan, mu, 10**6), mult))
    size = len(expected)
    assert backend.orbit_terms(cartan, dom, size) == expected
    with pytest.raises(ResourceCapError) as info:
        backend.orbit_terms(cartan, dom, size - 1)
    assert (info.value.code, str(info.value)) == ("term-cap", f"support exceeds cap {size - 1}")


def invariant_by_orbits(cartan, terms):
    """True when every term's whole breadth-first orbit carries its coefficient."""
    return all(
        terms.get(v) == c for u, c in terms.items() for v in oracles.bfs_weyl_orbit(cartan, u, 10**6)
    )


@pytest.mark.parametrize("tag", ["A1", "A2", "B2", "G2", "A3", "B3"])
def test_invariant_dominant_terms_matches_orbit_oracle(tag):
    cartan = cartan_from_tag(tag).cartan_matrix
    rank = len(cartan)
    rng = random.Random(tag)
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            mu = tuple(rng.randint(0, 2) for _ in range(rank))
            c = rng.randint(1, 3)
            for w in oracles.bfs_weyl_orbit(cartan, mu, 10**6):
                terms[w] = terms.get(w, 0) + c
        if terms and rng.random() < 0.5:  # one weight changed, removed or added
            w = rng.choice(sorted(terms))
            change = rng.choice(["up", "remove", "add"])
            if change == "add":
                w = tuple(rng.randint(-3, 3) for _ in range(rank))
                terms[w] = terms.get(w, 0) + 1
            elif change == "up":
                terms[w] += 1
            else:
                del terms[w]
        expected = (
            {w: c for w, c in terms.items() if min(w) >= 0} if invariant_by_orbits(cartan, terms) else None
        )
        assert _kernels.invariant_dominant_terms(cartan, terms) == expected


def test_invariant_dominant_terms_counts_the_negative_side():
    # no term has a positive coordinate to look up from: only the count of
    # positive against negative coordinates tells these apart
    a1 = cartan_from_tag("A1").cartan_matrix
    assert _kernels.invariant_dominant_terms(a1, {(-1,): 1}) is None
    assert _kernels.invariant_dominant_terms(a1, {(1,): 1, (-1,): 1, (-3,): 1}) is None
    assert _kernels.invariant_dominant_terms(a1, {(1,): 2, (-1,): 2, (0,): 1}) == {(1,): 2, (0,): 1}


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
    assert _kernels.poly_mul({(1,): 1, (0,): 1}, {(1,): 1, (0,): -1}) == {(2,): 1, (0,): -1}
    assert _kernels.poly_mul({(1, 0): 1, (0, 1): -1}, {(1, 0): 1, (0, 1): 1}) == {(2, 0): 1, (0, 2): -1}
