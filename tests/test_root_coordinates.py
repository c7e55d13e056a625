"""Root data read off simple-root coordinates, against independent oracles:
exact elimination for the coordinates and the invariant form,
breadth-first orbits for the roots and the orbit sizes, and the Weyl
product in rationals for dimensions."""

import itertools
from fractions import Fraction
from functools import lru_cache
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from flagrep import ResourceCapError, _kernels, cartan, characters, cli, cartan_from_tag, custom_cartan, inner, weyl_orbit
from flagrep.characters import Certificate, NotInOmega, _orbit_size, decompose, dimension, dominant_weights_up_to_dim
from flagrep.characters import weight_multiplicities
from flagrep.charpoly import CharPoly

import oracles

TAGS = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["G2"]
)


def block_diagonal(tags, order=None):
    """The Cartan matrix of the product of these groups, its nodes
    listed in ``order``."""
    blocks = [cartan_from_tag(t).cartan_matrix for t in tags]
    n = sum(map(len, blocks))
    full = [[0] * n for _ in range(n)]
    start = 0
    for block in blocks:
        for i, row in enumerate(block):
            full[start + i][start:start + len(block)] = row
        start += len(block)
    order = range(n) if order is None else order
    return custom_cartan([[full[i][j] for j in order] for i in order], label="x".join(tags))


def oracle_positive_roots(cd):
    """Positive roots from breadth-first orbits of the simple roots, sorted
    by (height, root), with heights from exact elimination."""
    roots = set()
    for row in cd.cartan_matrix:
        roots |= oracles.bfs_weyl_orbit(cd.cartan_matrix, row, 10**6)
    keyed = [(h, r) for r in roots if (h := sum(oracles._root_coordinates(cd.cartan_matrix, r))) > 0]
    return tuple(r for _, r in sorted(keyed))


def check_root_data(cd):
    roots = cd.positive_roots
    assert roots == oracle_positive_roots(cd)
    for a, c in zip(roots, cd.root_coordinates):
        assert list(c) == oracles._root_coordinates(cd.cartan_matrix, a), a
    # Freudenthal's rows are the invariant form times a, and s_i(a) is
    # indexed among the roots
    table_roots, reflect, rows, _ = cd.freudenthal_tables
    assert table_roots == roots
    form = oracles.invariant_form(cd)
    assert rows == [[sum(map(mul, g, a)) for g in form] for a in roots]
    # the height vector is 2 rho-check: twice each fundamental weight's height
    assert list(cd.height_vector) == [2 * h for h in oracles.heights(cd)]
    for i, row in enumerate(cd.cartan_matrix):
        for a, k in zip(roots, reflect[i]):
            image = tuple(x - a[i] * y for x, y in zip(a, row))
            assert k == (roots.index(image) if image in roots else None)
    # inner on the fundamental weights, the simple roots and two mixed weights
    n = cd.rank
    weights = [tuple(int(i == j) for j in range(n)) for i in range(n)] + list(cd.cartan_matrix)
    weights += [tuple(range(-1, n - 1)), tuple((3 * i) % 5 - 2 for i in range(n))]
    for u in weights:
        for v in weights:
            assert inner(cd, u, v) == oracles.form_value(form, u, v), (u, v)
    for lam in [(0,) * n, (1,) * n, tuple(range(n)), tuple(i * 5 % 3 for i in range(n))]:
        assert dimension(cd, lam) == oracles.fraction_dimension(cd, lam), lam


@pytest.mark.parametrize("tag", TAGS)
def test_root_data_matches_oracles(tag):
    check_root_data(cartan_from_tag(tag))


@settings(deadline=None, max_examples=25)
@given(
    tags=st.lists(st.sampled_from(TAGS), min_size=2, max_size=3).filter(
        lambda tags: sum(int(t[1:]) for t in tags) <= 8
    ),
    data=st.data(),
)
def test_root_data_of_products_matches_oracles(tags, data):
    order = data.draw(st.permutations(range(sum(int(t[1:]) for t in tags))), label="order")
    check_root_data(block_diagonal(tags, order))


#: Groups no tag names: E8 and F4, C3 with its long root first, and
#: products with their nodes interleaved.
OTHER_MATRICES = {
    "E8": [
        [2, 0, -1, 0, 0, 0, 0, 0],
        [0, 2, 0, -1, 0, 0, 0, 0],
        [-1, 0, 2, -1, 0, 0, 0, 0],
        [0, -1, -1, 2, -1, 0, 0, 0],
        [0, 0, 0, -1, 2, -1, 0, 0],
        [0, 0, 0, 0, -1, 2, -1, 0],
        [0, 0, 0, 0, 0, -1, 2, -1],
        [0, 0, 0, 0, 0, 0, -1, 2],
    ],
    "F4": [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "C3 long first": [[2, -2, 0], [-1, 2, -1], [0, -1, 2]],
    "A1xA2": block_diagonal(["A1", "A2"], order=[1, 0, 2]).cartan_matrix,
    "G2xB2": block_diagonal(["G2", "B2"], order=[3, 0, 2, 1]).cartan_matrix,
}


@pytest.mark.parametrize("label", OTHER_MATRICES)
def test_root_data_of_other_groups_matches_oracles(label):
    cd = custom_cartan(OTHER_MATRICES[label], label=label)
    check_root_data(cd)
    assert len(cd.positive_roots) == {"E8": 120, "F4": 24, "C3 long first": 9, "A1xA2": 4, "G2xB2": 10}[label]


def test_roots_are_found_without_an_orbit_walk(monkeypatch):
    def fail(*args):
        raise AssertionError("the roots need no Weyl orbit")

    monkeypatch.setattr(_kernels, "compile_orbit_walk", fail)
    monkeypatch.setattr(_kernels, "dominant_representative", fail)
    for tag in ("A6", "B5", "C5", "D6", "G2"):
        cd = custom_cartan(cartan_from_tag(tag).cartan_matrix, label=tag)  # not memoised
        assert cd.positive_roots == oracle_positive_roots(cd)
    cd = custom_cartan(OTHER_MATRICES["G2xB2"], label="G2xB2")
    assert cd.positive_roots == oracle_positive_roots(cd)


@pytest.mark.parametrize("series, largest", [("A", 13), ("B", 10), ("C", 10), ("D", 10)])
def test_root_orbit_cap_fires_at_the_rank_where_an_orbit_passes_it(monkeypatch, series, largest):
    # at cap 200: A13's 182 roots form one orbit, A14's 210 do not fit, and
    # the long roots of B and D and the short roots of C number 2n(n - 1)
    monkeypatch.setattr(cartan, "ORBIT_CAP", 200)
    fresh = custom_cartan(cartan._series_matrix(series, largest))
    assert len(fresh.positive_roots) <= 100
    with pytest.raises(ResourceCapError) as info:
        custom_cartan(cartan._series_matrix(series, largest + 1)).positive_roots
    assert (info.value.code, str(info.value)) == ("orbit-cap", "orbit size exceeds cap 200")


SMALL = [cartan_from_tag(t) for t in TAGS if int(t[1:]) <= 4] + [
    block_diagonal(["A1", "A2"]),
    block_diagonal(["G2", "A1"], order=[2, 0, 1]),
    block_diagonal(["A1", "A1", "B2"]),
]


@pytest.mark.parametrize("cd", SMALL, ids=lambda cd: cd.label)
def test_orbit_size_matches_breadth_first_orbits(cd):
    for pattern in itertools.product((False, True), repeat=cd.rank):
        mu = tuple(map(int, pattern))
        assert _orbit_size(cd, pattern) == len(oracles.bfs_weyl_orbit(cd.cartan_matrix, mu, 10**6)), mu


@pytest.fixture
def solves(monkeypatch):
    """The calls to ``cartan._solve`` from here on, with empty memos of
    built-in groups and of characters, so every group read is fresh."""
    calls = []
    real = cartan._solve
    monkeypatch.setattr(cartan, "_solve", lambda m, b: calls.append(b) or real(m, b))
    for module, name in ((cartan, "_builtin_cartan"), (characters, "_dominant_character")):
        memo = getattr(module, name)
        monkeypatch.setattr(module, name, lru_cache(maxsize=memo.cache_info().maxsize)(memo.__wrapped__))
    return calls


def test_roots_and_dimension_need_no_inverse(solves):
    cd = custom_cartan(cartan_from_tag("B5").cartan_matrix, label="B5")  # not memoised
    assert len(cd.positive_roots) == 25
    assert dimension(cd, (1, 0, 0, 0, 0)) == 11
    assert dimension(cd, (1, 1, 1, 1, 1)) == 2**25
    assert solves == []


def test_characters_and_decompositions_need_no_inverse(solves):
    cd = custom_cartan(cartan_from_tag("C3").cartan_matrix, label="C3")
    product = weight_multiplicities(cd, (1, 0, 0)) * weight_multiplicities(cd, (0, 1, 1))
    assert solves == []
    assert isinstance(decompose(cd, product), Certificate)  # W-invariant: dominant terms
    orbit_sum = CharPoly(3, dict.fromkeys(weyl_orbit(cd, (0, 1, 0)), 1))
    assert decompose(cd, orbit_sum) == NotInOmega("negative-coefficient", witness=(0, 0, 0), deficit=-2)
    moved = product + CharPoly(3, {(2, -1, 0): 1})  # not invariant: every term
    assert decompose(cd, moved).reason == "leading-weight-not-dominant"
    # the greedy's order: one solve for the group's height vector, kept
    assert solves == [(2, 2, 2)]


@pytest.mark.parametrize(
    "argv",
    [
        ("char", "B4", "1,0,1,1"),
        ("dim", "D5", "1,2,0,1,1"),
        ("realize", "A2", '{"n":3,"rows":[[1,0],[-1,1]]}'),
        ("realize", "A2", '{"n":3,"rows":[[1,0],[1,0]]}'),
        ("realize", "G2", '{"n":3,"rows":[[1,0],[0,1]]}'),
        ("schur", "3,2,1", "5"),
        ("cor3", "2,1", "4"),
        ("alpha", "A3", "w1*w3 + rho"),
        ("omega", "B3", "12"),
    ],
    ids=" ".join,
)
def test_cli_answers_need_no_inverse(solves, capsys, argv):
    assert cli.main(list(argv)) in (0, 1)
    assert capsys.readouterr().err == ""
    # the group's height vector, once, for realize's decomposition alone
    assert len(solves) == (argv[0] == "realize")


def test_inner_solves_once_per_call(solves):
    cd = custom_cartan(cartan_from_tag("B3").cartan_matrix, label="B3")
    cd.positive_roots, cd.freudenthal_tables, cd.root_strata
    assert solves == []
    assert cd.height_vector == (6, 10, 6)
    assert len(solves) == 1
    assert inner(cd, (0, 0, 1), (0, 0, 1)) == Fraction(3, 2)  # the short roots have (a, a) = 2
    assert inner(cd, (1, 0, 0), (0, 0, 1)) == 1
    assert len(solves) == 3


def every_coordinate_walk(cd, bound):
    """Dominant weights of dimension <= bound, found by stepping along
    every coordinate, however large its component."""
    out = {(0,) * cd.rank: 1}
    frontier = list(out)
    while frontier:
        below = []
        for lam in frontier:
            for i in range(cd.rank):
                child = lam[:i] + (lam[i] + 1,) + lam[i + 1:]
                if child not in out and (d := dimension(cd, child)) <= bound:
                    out[child] = d
                    below.append(child)
        frontier = below
    return sorted(out.items(), key=lambda t: (t[1], t[0]), reverse=True)


OMEGA_GROUPS = [
    cartan_from_tag(t) for t in "A1 A2 A3 A4 A5 A6 A7 B2 B3 B4 C3 C4 D4 D5 G2".split()
] + [block_diagonal(["A1", "A3"]), block_diagonal(["G2", "B3"])]


@pytest.mark.parametrize("cd", OMEGA_GROUPS, ids=lambda cd: cd.label)
def test_dominant_weights_up_to_dim_skips_only_components_too_large(cd):
    every = every_coordinate_walk(cd, 64)
    for bound in range(1, 65):
        assert dominant_weights_up_to_dim(cd, bound) == [(lam, d) for lam, d in every if d <= bound]

