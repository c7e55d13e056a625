import itertools
import sys
import threading
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from flagrep import _kernels, characters
from flagrep import (
    CartanData,
    Certificate,
    InputError,
    NotInOmega,
    ResourceCapError,
    cartan_from_tag,
    certificate_character,
    check_realizable,
    cohom_from_rows,
    custom_cartan,
    decompose,
    dimension,
    dominant_representative,
    dominant_weights_up_to_dim,
    inner,
    is_in_omega_n,
    omega_n_enumerate,
    simple_reflection,
    weight_multiplicities,
    weyl_orbit,
)
from flagrep.characters import _count_certificates, _dominant_support, _orbit_size, _term_count
from flagrep.charpoly import CharPoly, render
from flagrep.errors import _LIMITS

import oracles

A1 = cartan_from_tag("A1")
A2 = cartan_from_tag("A2")


# --- characters -------------------------------------------------------------

def test_a1_ladder():
    assert weight_multiplicities(A1, (1,)).terms == oracles.sl2_char_terms(1)
    assert weight_multiplicities(A1, (2,)).terms == oracles.sl2_char_terms(2)
    assert render(weight_multiplicities(A1, (1,))) == "w1 + rho"
    assert render(weight_multiplicities(A1, (2,))) == "w1^2 + 1 + rho^2"


def test_a2_defining_character():
    # oracle: the three weights of the defining representation
    char = weight_multiplicities(A2, (1, 0))
    assert char.terms == {(1, 0): 1, (-1, 1): 1, (0, -1): 1}
    assert render(char) == "w1 + w1*rho + w2^2*rho"


def test_a2_adjoint_character():
    # oracle: six roots with multiplicity one plus a double zero weight
    char = weight_multiplicities(A2, (1, 1))
    expected = {(0, 0): 2}
    for alpha in A2.positive_roots:
        expected[alpha] = 1
        expected[tuple(-x for x in alpha)] = 1
    assert char.terms == expected


def test_trivial_character_is_one():
    for tag in ("A1", "A2", "B2", "G2"):
        cd = cartan_from_tag(tag)
        assert weight_multiplicities(cd, (0,) * cd.rank) == CharPoly.one(cd.rank)


def test_character_rejects_non_dominant():
    with pytest.raises(InputError):
        weight_multiplicities(A2, (-1, 2))
    with pytest.raises(InputError):
        dimension(A2, (-1, 2))


def test_highest_weight_has_multiplicity_one():
    for lam in [(3,), (5,)]:
        assert weight_multiplicities(A1, lam).coefficient(lam) == 1
    for lam in [(2, 1), (0, 3), (2, 2)]:
        assert weight_multiplicities(A2, lam).coefficient(lam) == 1


def test_weyl_symmetry_of_coefficients():
    b2 = cartan_from_tag("B2")
    char = weight_multiplicities(b2, (1, 2))
    for w, c in char.terms.items():
        for i in range(b2.rank):
            assert char.coefficient(simple_reflection(b2, i, w)) == c


def test_character_support_is_union_of_orbits():
    char = weight_multiplicities(A2, (2, 1))
    support = set(char.terms)
    for w in list(support):
        assert set(weyl_orbit(A2, w)) <= support


def test_term_cap():
    with pytest.raises(ResourceCapError):
        weight_multiplicities(cartan_from_tag("A3"), (2, 2, 2), max_terms=5)


def test_term_cap_from_root_strings_before_the_walk():
    # the alpha_i-strings through lam give at least 1 + sum(lam) weights;
    # for A1 that is the whole character, so the bound is exact there
    assert len(weight_multiplicities(A1, (9,), max_terms=10).terms) == 10
    with pytest.raises(ResourceCapError) as info:
        weight_multiplicities(A1, (10,), max_terms=10)
    assert (info.value.code, str(info.value)) == ("term-cap", "support exceeds cap 10")
    tracemalloc.start()
    try:
        for cd, lam in ((A1, (200_000,)), (A2, (50_000, 50_000))):
            with pytest.raises(ResourceCapError) as info:
                weight_multiplicities(cd, lam, max_terms=100_000)
            assert str(info.value) == "support exceeds cap 100000"
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


# --- dominant support -------------------------------------------------------

BUILTIN_TAGS = "A1 A2 A3 A4 A5 A6 B2 B3 B4 B5 C3 C4 C5 D4 D5 G2".split()


def _support_grid(rank):
    """Entries 0..2 up to rank 3, 0/1 at rank 4, at most two 1s beyond."""
    if rank <= 3:
        return list(itertools.product(range(3), repeat=rank))
    return [
        w for w in itertools.product(range(2), repeat=rank) if rank == 4 or sum(w) <= 2
    ]


def check_support(cd, lam, support):
    """``support`` lists the box oracle's dominant weights in its order, each
    with Freudenthal's denominator under the oracle's form."""
    expected = oracles.box_dominant_support(cd.cartan_matrix, lam)
    assert list(support) == expected, lam
    denominators = oracles.freudenthal_denominators(oracles.invariant_form(cd), lam, expected)
    assert list(support.values()) == denominators, lam


@pytest.mark.parametrize("tag", BUILTIN_TAGS)
def test_root_walk_matches_box_enumeration(tag):
    cd = cartan_from_tag(tag)
    for lam in _support_grid(cd.rank):
        check_support(cd, lam, _dominant_support(cd, lam))


SMALL_GROUPS = [cartan_from_tag(t) for t in ("A2", "A3", "B2", "B3", "C3", "D3", "G2")]
SMALL_GROUPS.append(custom_cartan([[2, 0, 0], [0, 2, -1], [0, -1, 2]], label="A1xA2"))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(SMALL_GROUPS), st.lists(st.integers(0, 4), min_size=3, max_size=3))
def test_root_walk_matches_box_enumeration_random(cd, coords):
    lam = tuple(coords[: cd.rank])
    check_support(cd, lam, _dominant_support(cd, lam))


F4 = custom_cartan([[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]], label="F4")
B2xG2 = custom_cartan([[2, -2, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -3, 2]], label="B2xG2")


@pytest.mark.parametrize(
    "cd, grid, most_positive, values",
    [
        (F4, list(itertools.product(range(2), repeat=4)) + [(2, 0, 0, 0), (0, 0, 0, 2), (1, 0, 0, 2)], 2, {1, 2}),
        (B2xG2, list(itertools.product(range(3), repeat=4)), 1, {1, 2, 3}),
    ],
)
def test_pruned_root_walk_where_roots_are_irregular(cd, grid, most_positive, values):
    # the walk tries from mu only the roots whose positive coordinates lie
    # in mu's support and are at most mu's there; F4 has roots with two
    # positive coordinates, and both groups have roots that are not simple
    # with a positive coordinate of 2, or 3 in G2, so every check runs
    simple = set(cd.cartan_matrix)
    assert max(sum(x > 0 for x in a) for a in cd.positive_roots) == most_positive
    assert {x for a in cd.positive_roots if a not in simple for x in a if x > 0} == values
    for lam in grid:
        check_support(cd, lam, _dominant_support(cd, lam))


def test_root_walk_term_cap_is_exact():
    # the walk counts the orbits of the dominant weights it finds, so it
    # answers at the exact term count and stops one below it
    cd = cartan_from_tag("B3")
    lam = (2, 1, 2)
    support = oracles.box_dominant_support(cd.cartan_matrix, lam)
    size = sum(len(oracles.bfs_weyl_orbit(cd.cartan_matrix, mu, _LIMITS["term-cap"])) for mu in support)
    check_support(cd, lam, _dominant_support(cd, lam, max_terms=size))
    with pytest.raises(ResourceCapError, match=f"support exceeds cap {size - 1}"):
        _dominant_support(cd, lam, max_terms=size - 1)


def test_capped_query_stops_inside_the_walk():
    # C4 (12,12,12,12) has far more than 10**6 terms but under 10**6
    # dominant weights: the running orbit count stops the walk after a few
    # levels, where a count taken after the walk holds the whole support
    c4 = cartan_from_tag("C4")
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError) as info:
            weight_multiplicities(c4, (12, 12, 12, 12), max_terms=10**6)
        assert (info.value.code, str(info.value)) == ("term-cap", "support exceeds cap 1000000")
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


# --- exact term count before Freudenthal ------------------------------------

A1xB2 = custom_cartan([[2, 0, 0], [0, 2, -2], [0, -1, 2]], label="A1xB2")


@pytest.mark.parametrize(
    "cd, lam",
    [
        (cartan_from_tag("C5"), (1, 1, 1, 1, 1)),
        (cartan_from_tag("B4"), (1, 1, 1, 1)),
        (cartan_from_tag("D5"), (1, 1, 1, 1, 1)),
        (cartan_from_tag("A3"), (20, 10, 10)),
        (cartan_from_tag("G2"), (3, 4)),
        (cartan_from_tag("A5"), (2, 0, 1, 0, 2)),
        (A1xB2, (2, 0, 1)),
        (A1xB2, (0, 3, 0)),
    ],
)
def test_term_count_is_exact(cd, lam):
    assert _term_count(cd, _dominant_support(cd, lam)) == len(weight_multiplicities(cd, lam).terms)


@pytest.mark.parametrize("cd", [cartan_from_tag(t) for t in ("A4", "B3", "C4", "D4", "G2")] + [A1xB2])
def test_orbit_size_of_a_regular_weight_is_the_weyl_group_order(cd):
    regular = (1,) * cd.rank
    assert _orbit_size(cd, (True,) * cd.rank) == len(weyl_orbit(cd, regular))
    assert _orbit_size(cd, (False,) * cd.rank) == 1


def test_term_count_cap_is_exact(monkeypatch):
    cd = cartan_from_tag("G2")
    assert len(weight_multiplicities(cd, (3, 4), max_terms=337).terms) == 337

    def fail(*args):
        raise AssertionError("Freudenthal ran past the term cap")

    monkeypatch.setattr(_kernels, "freudenthal", fail)
    # B4 (2,1,0,1) has 1056 terms; it is computed by no other test, so no cache answers
    with pytest.raises(ResourceCapError) as info:
        weight_multiplicities(cartan_from_tag("B4"), (2, 1, 0, 1), max_terms=1055)
    assert (info.value.code, str(info.value)) == ("term-cap", "support exceeds cap 1055")


# --- dimensions -------------------------------------------------------------

def test_a1_dimensions():
    for k in range(8):
        assert dimension(A1, (k,)) == k + 1


def test_a2_spot_dimensions():
    assert dimension(A2, (1, 1)) == 8
    assert dimension(A2, (1, 0)) == 3
    assert dimension(A2, (0, 0)) == 1


def test_dimension_of_weyl_vector_module():
    # closed form: 2 to the number of positive roots
    for tag in ("A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2"):
        cd = cartan_from_tag(tag)
        assert dimension(cd, cd.weyl_vector) == 2 ** len(cd.positive_roots)


def test_known_dimensions_other_series():
    b2 = cartan_from_tag("B2")
    assert [dimension(b2, w) for w in [(1, 0), (0, 1), (0, 2), (2, 0), (1, 1)]] == [5, 4, 10, 14, 16]
    g2 = cartan_from_tag("G2")
    assert [dimension(g2, w) for w in [(1, 0), (0, 1)]] == [7, 14]
    c3 = cartan_from_tag("C3")
    assert [dimension(c3, w) for w in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]] == [6, 14, 14]
    d4 = cartan_from_tag("D4")
    assert [dimension(d4, w) for w in [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]] == [8, 28, 8, 8]


def test_evaluation_matches_dimension_small_slice():
    for tag in ("A1", "A2", "B2"):
        cd = cartan_from_tag(tag)
        for lam in itertools.product(range(4), repeat=cd.rank):
            assert weight_multiplicities(cd, lam).evaluate_at_one() == dimension(cd, lam)


# --- decomposition ----------------------------------------------------------

def test_decompose_defining_a1():
    result = decompose(A1, CharPoly(1, {(1,): 1, (-1,): 1}))
    assert isinstance(result, Certificate)
    assert result.summands == (((1,), 1),)
    assert result.total_dim == 2


def test_decompose_failure_with_witness():
    result = decompose(A1, CharPoly(1, {(2,): 1, (-2,): 1}))
    assert isinstance(result, NotInOmega)
    assert result.witness == (0,)
    assert result.deficit == -1


def test_decompose_sum_with_trivial():
    result = decompose(A1, CharPoly(1, {(1,): 1, (0,): 1, (-1,): 1}))
    assert isinstance(result, Certificate)
    assert result.summands == (((1,), 1), ((0,), 1))
    assert result.total_dim == 3


def test_decompose_zero():
    result = decompose(A1, CharPoly.zero(1))
    assert result == Certificate((), 0)


def test_decompose_rejects_negative_input():
    with pytest.raises(InputError):
        decompose(A1, CharPoly(1, {(1,): -1}))


def test_decompose_character_whose_support_tops_are_not_lex_ordered():
    # the dominant weight (1, 0) is lexicographically above (0, 2) but lies
    # below it for dominance; the reduction order has to respect dominance
    char = weight_multiplicities(A2, (0, 2))
    assert char.coefficient((1, 0)) == 1
    result = decompose(A2, char)
    assert result == Certificate((((0, 2), 1),), 6)


def test_decompose_no_dominant_leading_weight():
    result = decompose(A1, CharPoly(1, {(-1,): 1}))
    assert isinstance(result, NotInOmega)
    assert result.reason == "leading-weight-not-dominant"
    assert result.witness == (-1,)


# --- decomposition against the greedy over all terms ------------------------

DIFFERENTIAL_GROUPS = [cartan_from_tag(t) for t in ("A2", "B2", "G2", "A3", "B3")] + [
    custom_cartan([[2, 0, 0], [0, 2, -1], [0, -1, 2]], label="A1xA2")
]


def _add(terms, more, mult=1):
    for w, c in more:
        terms[w] = terms.get(w, 0) + mult * c


@st.composite
def decompose_inputs(draw, kind):
    """A group and an effective polynomial of one kind: a sum of characters
    with multiplicities, a W-invariant sum of characters and orbit sums
    (orbit sums alone are no characters), or a copy of either perturbed at
    one weight, which is almost never W-invariant."""
    cd = draw(st.sampled_from(DIFFERENTIAL_GROUPS))
    weight = st.tuples(*[st.integers(0, 2 if cd.rank == 2 else 1)] * cd.rank)
    terms: dict = {}
    for lam, mult in draw(st.lists(st.tuples(weight, st.integers(1, 3)), min_size=1, max_size=3)):
        _add(terms, weight_multiplicities(cd, lam).terms.items(), mult)
    if kind != "characters":
        orbits = draw(st.lists(st.tuples(weight, st.integers(1, 2)), min_size=kind == "orbit-sums", max_size=2))
        for mu, mult in orbits:
            _add(terms, ((w, 1) for w in weyl_orbit(cd, mu)), mult)
    if kind == "perturbed":
        w = draw(st.sampled_from(sorted(terms)))
        change = draw(st.sampled_from(["up", "down", "shift", "new"]))
        if change == "new":
            w = draw(st.tuples(*[st.integers(-3, 3)] * cd.rank))
            terms[w] = terms.get(w, 0) + 1
        else:
            terms[w] += 1 if change == "up" else -1
            if change == "shift":
                i = draw(st.integers(0, cd.rank - 1))
                step = draw(st.sampled_from([-1, 1]))
                _add(terms, [(w[:i] + (w[i] + step,) + w[i + 1:], 1)])
    return cd, CharPoly(cd.rank, {w: c for w, c in terms.items() if c > 0})


def decompose_outcome(f, *args):
    try:
        return f(*args)
    except ResourceCapError as exc:
        return exc.code, str(exc)


@pytest.mark.parametrize("kind", ["characters", "orbit-sums", "perturbed"])
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_decompose_matches_greedy_over_all_terms(kind, data):
    cd, p = data.draw(decompose_inputs(kind))
    expected = oracles.decompose(cd, p)
    assert decompose(cd, p) == expected
    if kind == "characters":
        assert isinstance(expected, Certificate)
    # the term cap fires at the same step with the same message on both paths
    cap = data.draw(st.integers(1, 120))
    assert decompose_outcome(decompose, cd, p, cap) == decompose_outcome(oracles.decompose, cd, p, cap)


def test_decompose_paths_pinned():
    # an orbit sum is W-invariant: the witness is the highest weight that
    # went negative, which is dominant
    orbit_sum = CharPoly(2, dict.fromkeys(weyl_orbit(A2, (1, 1)), 1))
    assert decompose(A2, orbit_sum) == NotInOmega("negative-coefficient", witness=(0, 0), deficit=-2)
    # one weight moved off a character: its non-dominant image leads
    moved = dict(weight_multiplicities(A2, (1, 1)).terms)
    moved[(1, 1)] -= 1
    moved[(2, -1)] = 1
    result = decompose(A2, CharPoly(2, moved))
    assert result == NotInOmega("leading-weight-not-dominant", witness=(2, -1))
    assert result == oracles.decompose(A2, CharPoly(2, moved))


def test_decompose_rank_cap_parity():
    # the rank cap fires at the first reduction step, so a non-dominant
    # leading weight is reported before it
    a9 = cartan_from_tag("A9")
    for terms in ({(0,) * 9: 2}, {(0,) * 8 + (-1,): 1}, {}):
        p = CharPoly(9, terms)
        assert decompose_outcome(decompose, a9, p) == decompose_outcome(oracles.decompose, a9, p)
    assert decompose_outcome(decompose, a9, CharPoly(9, {(0,) * 9: 2}))[0] == "rank-cap"


def test_invariant_input_expands_no_orbit(monkeypatch):
    # a label no other test uses, so no cache holds this group's characters
    cd = custom_cartan(cartan_from_tag("B3").cartan_matrix, label="B3, dominant chamber")
    product = weight_multiplicities(cd, (1, 0, 1)) * weight_multiplicities(cd, (0, 1, 0))
    orbit_sum = CharPoly(3, dict.fromkeys(weyl_orbit(cd, (1, 1, 0)), 1))

    def fail(*args):
        raise AssertionError("an orbit was expanded")

    monkeypatch.setattr(_kernels, "orbit_terms", fail)
    results = [decompose(cd, p) for p in (product, product + orbit_sum)]
    monkeypatch.undo()
    assert results == [oracles.decompose(cd, p) for p in (product, product + orbit_sum)]
    assert isinstance(results[0], Certificate) and isinstance(results[1], NotInOmega)


def test_character_expanded_from_the_decompose_memo_keeps_the_exact_cap():
    # a label no other test uses, so only this test's decompose fills the memo
    cd = custom_cartan(cartan_from_tag("G2").cartan_matrix, label="G2, expanded from the memo")
    size = len(weight_multiplicities(cartan_from_tag("G2"), (1, 1)).terms)
    orbit_sum = CharPoly(2, dict.fromkeys(weyl_orbit(cd, (1, 1)), 1))
    assert isinstance(decompose(cd, orbit_sum), NotInOmega)
    with pytest.raises(ResourceCapError) as info:
        weight_multiplicities(cd, (1, 1), max_terms=size - 1)
    assert str(info.value) == f"support exceeds cap {size - 1}"
    assert len(weight_multiplicities(cd, (1, 1), max_terms=size).terms) == size


def test_round_trip_fixed_certificates():
    for pairs in [[((2,), 2)], [((3,), 1), ((1,), 2)], [((0,), 5)]]:
        total = sum(dimension(A1, lam) * m for lam, m in pairs)
        cert = Certificate(tuple(pairs), total)
        assert decompose(A1, certificate_character(A1, cert)) == cert


@settings(deadline=None, max_examples=40)
@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.integers(1, 3),
        ),
        min_size=1,
        max_size=4,
        unique_by=lambda t: t[0],
    )
)
def test_round_trip_random_certificates(pairs):
    poly = CharPoly.zero(2)
    for lam, mult in pairs:
        poly = poly + weight_multiplicities(A2, lam) * mult
    result = decompose(A2, poly)
    assert isinstance(result, Certificate)
    assert sorted(result.summands) == sorted((tuple(l), m) for l, m in pairs)


@settings(deadline=None, max_examples=30)
@given(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
)
def test_tensor_products_decompose(lam, mu):
    product = weight_multiplicities(A2, lam) * weight_multiplicities(A2, mu)
    result = decompose(A2, product)
    assert isinstance(result, Certificate)
    assert result.total_dim == dimension(A2, lam) * dimension(A2, mu)


def test_three_tensor_three_bar():
    product = weight_multiplicities(A2, (1, 0)) * weight_multiplicities(A2, (0, 1))
    result = is_in_omega_n(A2, product, 9)
    assert result == Certificate((((1, 1), 1), ((0, 0), 1)), 9)


def test_is_in_omega_n_dimension_mismatch():
    p = CharPoly(1, {(1,): 1, (-1,): 1})
    result = is_in_omega_n(A1, p, 3)
    assert isinstance(result, NotInOmega)
    assert result.reason == "dimension-mismatch"
    assert (result.expected, result.actual) == (3, 2)
    assert isinstance(is_in_omega_n(A1, p, 2), Certificate)


def test_is_in_omega_n_negative_input_is_reported_not_raised():
    p = CharPoly(1, {(1,): 2, (0,): -1})
    result = is_in_omega_n(A1, p, 1)
    assert isinstance(result, NotInOmega)
    assert result.reason == "negative-coefficient"
    assert result.witness == (0,)


DIMENSION_GROUPS = [cartan_from_tag(t) for t in "A1 A3 B3 C4 D5 G2".split()] + [
    custom_cartan([[2, 0, 0], [0, 2, -1], [0, -1, 2]], label="A1xA2")
]


@pytest.mark.parametrize("cd", DIMENSION_GROUPS, ids=lambda cd: cd.label)
def test_dimension_matches_fraction_product(cd):
    side = {1: 40, 3: 5, 4: 3, 5: 2}.get(cd.rank, 12)
    for lam in itertools.product(range(side), repeat=cd.rank):
        d = dimension(cd, lam)
        assert type(d) is int
        assert d == oracles.fraction_dimension(cd, lam), lam


def test_dimension_keeps_its_integrality_check():
    # a wrong symmetrizer gives a form that is not invariant, which does not cancel
    bad = CartanData(A2.rank, A2.cartan_matrix, (1, 3), A2.label)
    with pytest.raises(ArithmeticError, match="did not cancel"):
        dimension(bad, (1, 0))


# --- enumeration ------------------------------------------------------------

def test_omega_enumerate_a1():
    assert [c.summands for c in omega_n_enumerate(A1, 2)] == [
        (((1,), 1),),
        (((0,), 2),),
    ]
    assert [c.summands for c in omega_n_enumerate(A1, 1)] == [(((0,), 1),)]


def test_omega_enumerate_a1_n4_complete():
    certs = list(omega_n_enumerate(A1, 4))
    # dims available: 4, 3, 2, 1 -> partitions: 4, 3+1, 2+2, 2+1+1, 1+1+1+1
    assert len(certs) == 5
    assert all(c.total_dim == 4 for c in certs)
    assert len({c.summands for c in certs}) == 5


def test_omega_enumerate_a2():
    assert [c.render() for c in omega_n_enumerate(A2, 3)] == [
        "V(1,0)",
        "V(0,1)",
        "3*V(0,0)",
    ]


def test_omega_enumerate_certificates_verify():
    for cert in omega_n_enumerate(A2, 6):
        assert sum(dimension(A2, lam) * m for lam, m in cert.summands) == 6
        char = certificate_character(A2, cert)
        assert char.evaluate_at_one() == 6
        assert decompose(A2, char) == cert


def test_omega_cap():
    with pytest.raises(ResourceCapError):
        list(omega_n_enumerate(A1, 100))
    # raising the cap admits the request; the stream stays lazy
    first = next(omega_n_enumerate(A1, 100, max_n=100))
    assert first.summands == (((99,), 1),)


@pytest.mark.parametrize("tag,top", [("A1", 22), ("A2", 18), ("B2", 24), ("G2", 30), ("A3", 24)])
def test_omega_stream_matches_recursive_oracle(tag, top):
    cd = cartan_from_tag(tag)
    for n in range(1, top + 1):
        irreps = dominant_weights_up_to_dim(cd, n)
        expected = list(oracles.recursive_certificates(irreps, n))
        assert [c.summands for c in omega_n_enumerate(cd, n)] == expected, n
        assert all(c.total_dim == n for c in omega_n_enumerate(cd, n))
        dims = [d for _, d in irreps]
        assert _count_certificates(dims, n, 10**9) == len(expected)
        # saturation: the count stops at cap + 1
        assert _count_certificates(dims, n, len(expected) - 1) == len(expected)
        assert _count_certificates(dims, n, 0) == 1


def test_omega_stream_needs_no_recursion():
    # the second certificate sits 3000 irreducibles deep
    certs = omega_n_enumerate(A1, 3000, max_n=3000)
    assert [c.summands for c in itertools.islice(certs, 4)] == [
        (((2999,), 1),),
        (((2998,), 1), ((0,), 1)),
        (((2997,), 1), ((1,), 1)),
        (((2997,), 1), ((0,), 2)),
    ]


def test_omega_certificate_cap_counts_before_the_stream():
    assert len(list(omega_n_enumerate(A1, 8, max_certificates=22))) == 22  # p(8)
    with pytest.raises(ResourceCapError) as info:
        omega_n_enumerate(A1, 8, max_certificates=21)
    assert (info.value.code, str(info.value)) == (
        "term-cap", "certificates of dimension 8 exceed cap 21"
    )
    with pytest.raises(ResourceCapError, match="certificates of dimension 3000"):
        omega_n_enumerate(A1, 3000, max_n=5000, max_certificates=_LIMITS["term-cap"])


_CAP_CALLS = {
    "weyl_orbit": lambda cap: weyl_orbit(A2, (1, 1), cap=cap),
    "weight_multiplicities": lambda cap: weight_multiplicities(A2, (1, 1), cap),
    "decompose": lambda cap: decompose(A2, weight_multiplicities(A2, (1, 1)), cap),
    "is_in_omega_n": lambda cap: is_in_omega_n(A2, weight_multiplicities(A2, (1, 1)), 8, cap),
    "check_realizable": lambda cap: check_realizable(A2, cohom_from_rows([[1, 0], [-1, 1]]), cap),
    "omega_n_enumerate-max_n": lambda cap: omega_n_enumerate(A2, 3, cap),
    "omega_n_enumerate-max_certificates": lambda cap: omega_n_enumerate(A2, 3, max_certificates=cap),
}


@pytest.mark.parametrize("cap", [2.5, 7.5, 10.0**7, True], ids=["2.5", "7.5", "1e7", "True"])
@pytest.mark.parametrize("call", sorted(_CAP_CALLS))
def test_a_cap_that_is_not_an_int_is_refused(call, cap):
    # a float cap never equals an orbit's length, so the orbit walk would
    # not stop, and True would be read as a cap of 1
    with pytest.raises(InputError) as info:
        _CAP_CALLS[call](cap)
    assert (info.value.code, str(info.value)) == ("invalid-cap", f"cap must be an integer, got {cap!r}")
    _CAP_CALLS[call](10**7)  # an int cap answers


def test_injectivity_on_small_slice():
    # distinct certificates give distinct polynomials, both ranks
    for cd in (A1, A2):
        seen = {}
        for n in range(1, 9):
            for cert in omega_n_enumerate(cd, n):
                key = frozenset(certificate_character(cd, cert).terms.items())
                assert key not in seen, (cert, seen[key])
                seen[key] = cert


def test_dominant_weights_up_to_dim():
    pool = dominant_weights_up_to_dim(A2, 8)
    assert ((0, 0), 1) in pool
    assert ((1, 1), 8) in pool
    assert all(d <= 8 for _, d in pool)
    dims = [d for _, d in pool]
    assert dims == sorted(dims, reverse=True)


def test_character_cache_transparency():
    # cached and fresh results are equal, and the cap check still applies
    a3 = cartan_from_tag("A3")
    first = weight_multiplicities(a3, (1, 1, 1))
    again = weight_multiplicities(a3, (1, 1, 1))
    assert first == again
    with pytest.raises(ResourceCapError):
        weight_multiplicities(a3, (1, 1, 1), max_terms=3)


def test_weight_multiplicities_returns_a_fresh_character():
    # only the dominant multiplicities are memoised, so a caller that
    # mutates its result does not change the next caller's
    a2 = cartan_from_tag("A2")
    first = weight_multiplicities(a2, (2, 1))
    expected = dict(first.terms)
    first.terms.clear()
    assert weight_multiplicities(a2, (2, 1)).terms == expected


def test_character_reuses_the_multiplicities_decompose_memoised(monkeypatch):
    characters._dominant_character.cache_clear()
    calls = []
    support = characters._dominant_support
    monkeypatch.setattr(characters, "_dominant_support", lambda *a: calls.append(a[1]) or support(*a))
    b2 = cartan_from_tag("B2")
    # V(1,0) (x) V(0,1) = V(1,1) + V(0,1): decompose reads (0, 1), which
    # weight_multiplicities computed, and then weight_multiplicities reads
    # (1, 1), which decompose computed
    product = weight_multiplicities(b2, (1, 0)) * weight_multiplicities(b2, (0, 1))
    assert sorted(calls) == [(0, 1), (1, 0)]
    assert isinstance(decompose(b2, product), Certificate)
    assert sorted(calls) == [(0, 1), (1, 0), (1, 1)]
    assert len(weight_multiplicities(b2, (1, 1)).terms) == 12
    assert sorted(calls) == [(0, 1), (1, 0), (1, 1)]


@pytest.mark.parametrize(
    "tag, lam",
    [("A3", (0, 0, 0)), ("A3", (0, 1, 0)), ("B3", (0, 0, 1)), ("C3", (1, 0, 0)), ("D4", (0, 0, 0, 1)), ("G2", (0, 0))],
)
def test_a_one_weight_support_builds_no_freudenthal_tables(tag, lam):
    # lambda = 0 or minuscule: its character is its orbit, multiplicity 1
    characters._dominant_character.cache_clear()
    cd = custom_cartan(cartan_from_tag(tag).cartan_matrix, label=tag)
    p = weight_multiplicities(cd, lam)
    assert "freudenthal_tables" not in vars(cd)
    assert p.terms == dict.fromkeys(oracles.bfs_weyl_orbit(cd.cartan_matrix, lam, _LIMITS["term-cap"]), 1)
    assert len(p.terms) == dimension(cd, lam)


def _small_character_memo(monkeypatch, size):
    """The character memo, replaced by an empty one of ``size`` entries."""
    memo = lru_cache(maxsize=size)(characters._dominant_character.__wrapped__)
    monkeypatch.setattr(characters, "_dominant_character", memo)
    return memo


def test_character_cache_evicts_the_least_recently_used(monkeypatch):
    memo = _small_character_memo(monkeypatch, 2)
    a2 = cartan_from_tag("A2")
    first = {lam: weight_multiplicities(a2, lam) for lam in [(1, 0), (0, 1), (1, 0), (2, 1)]}
    assert memo.cache_info()[:4] == (1, 3, 2, 2)  # hits, misses, maxsize, currsize
    # (0, 1) was used least recently, so it went when (2, 1) came in
    assert weight_multiplicities(a2, (1, 0)) == first[(1, 0)]
    assert memo.cache_info().hits == 2
    assert weight_multiplicities(a2, (0, 1)) == first[(0, 1)]
    assert memo.cache_info().misses == 4
    # and now (2, 1) went, while (1, 0) stays
    assert weight_multiplicities(a2, (1, 0)) == first[(1, 0)]
    assert memo.cache_info().hits == 3
    assert weight_multiplicities(a2, (2, 1)) == first[(2, 1)]
    assert memo.cache_info()[1:] == (5, 2, 2)


def test_character_cache_stays_bounded_under_threads(monkeypatch):
    memo = _small_character_memo(monkeypatch, 3)
    a2 = cartan_from_tag("A2")
    weights = [(a, b) for a in range(3) for b in range(3)]
    expected = {lam: memo.__wrapped__(a2, lam, _LIMITS["term-cap"]) for lam in weights}
    wrong = []

    def work(offset):
        for i in range(40):
            lam = weights[(offset + i) % len(weights)]
            if characters._dominant_character(a2, lam, _LIMITS["term-cap"]) != expected[lam]:
                wrong.append(lam)
            if memo.cache_info().currsize > 3:
                wrong.append("over the bound")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert memo.cache_info().currsize == 3


def test_product_group_character():
    # block-diagonal Cartan data: the 2 (x) 2 module of a rank-two product
    cd = custom_cartan([[2, 0], [0, 2]], label="A1xA1")
    char = weight_multiplicities(cd, (1, 1))
    assert char.terms == {(1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1}
    assert dimension(cd, (1, 1)) == 4


def test_constructor_drops_cancelling_terms():
    assert CharPoly(1, [((1,), 2), ((1,), -2)]) == CharPoly.zero(1)


@pytest.mark.parametrize("tag,lam", [("A2", (150, 150)), ("G2", (40, 40)), ("B3", (10, 10, 10))])
def test_deep_weight_character_sums_to_its_dimension(tag, lam):
    # root strings hundreds of weights deep: each string sum is memoised
    # once, so these run in well under a second each
    cd = cartan_from_tag(tag)
    assert weight_multiplicities(cd, lam).evaluate_at_one() == dimension(cd, lam)


def test_large_character_consistency():
    a2 = cartan_from_tag("A2")
    char = weight_multiplicities(a2, (16, 16))
    assert char.evaluate_at_one() == dimension(a2, (16, 16)) == 4913


def test_characters_boundary_errors():
    a2 = cartan_from_tag("A2")
    with pytest.raises(InputError) as info:
        decompose(a2, CharPoly(1, {(1,): 1, (-1,): 1}))
    assert (info.value.code, str(info.value)) == ("rank-mismatch", "polynomial rank 1 for rank 2")
    # a float or a bool would be read as a dimension, and certify
    for n in (0, -1, 1.0, True, "1"):
        for f, args in ((is_in_omega_n, (a2, CharPoly(2, {(0, 0): 1}), n)), (omega_n_enumerate, (a2, n))):
            with pytest.raises(InputError) as info:
                f(*args)
            assert (info.value.code, str(info.value)) == ("invalid-dimension", "n must be a positive integer")
    empty = Certificate(summands=(), total_dim=0)
    assert empty.render() == "0"
    assert empty.to_json_dict() == {"summands": [], "dim": 0}


def test_non_integer_weights_are_refused_before_the_memo():
    # 1.0 and True hash equal to 1, so a float or bool weight that reached
    # the character memo would answer, or poison, the query for the int one
    a2 = cartan_from_tag("A2")
    characters._dominant_character.cache_clear()
    bad = [
        (weight_multiplicities, (1.0, 0)),
        (weight_multiplicities, (True, 0)),
        (dimension, (1.5, 0)),
        (dimension, (True, 0)),
        (dimension, (1.0, 0)),
        (weyl_orbit, (0, 1.0)),
        (dominant_representative, (False, 1)),
    ]
    for f, lam in bad:
        with pytest.raises(InputError) as info:
            f(a2, lam)
        assert (info.value.code, str(info.value)) == (
            "invalid-weight", f"weight {lam} has a coordinate that is not an integer"
        )
    for u, v in [((1.0, 0), (1, 0)), ((1, 0), (0, True))]:
        with pytest.raises(InputError) as info:
            inner(a2, u, v)
        assert info.value.code == "invalid-weight"
    with pytest.raises(InputError) as info:
        simple_reflection(a2, 0, (0.5, 0))
    assert info.value.code == "invalid-weight"
    assert characters._dominant_character.cache_info().currsize == 0
    char = weight_multiplicities(a2, (1, 0))
    assert char.terms == {(1, 0): 1, (-1, 1): 1, (0, -1): 1}
    assert {type(x) for w in char.terms for x in w} == {int}
    assert dimension(a2, (1, 0)) == 3
