import math
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from flagrep import (
    InputError,
    ResourceCapError,
    builtin_cartan,
    cartan_from_tag,
    custom_cartan,
    dominant_representative,
    inner,
    is_dominant,
    simple_reflection,
    weyl_orbit,
)
from flagrep import cartan
from flagrep.characters import dimension

import oracles


def test_a2_defining_data():
    cd = builtin_cartan("A", 2)
    assert cd.cartan_matrix == ((2, -1), (-1, 2))
    assert len(cd.positive_roots) == 3
    assert cd.weyl_vector == (1, 1)
    assert cd.label == "A2"


def test_a1_defining_data():
    cd = builtin_cartan("A", 1)
    assert cd.cartan_matrix == ((2,),)
    assert cd.positive_roots == ((2,),)
    assert cd.weyl_vector == (1,)


def test_d2_is_rejected():
    with pytest.raises(InputError):
        builtin_cartan("D", 2)


@pytest.mark.parametrize("series,rank", [("B", 1), ("C", 1), ("G", 3), ("X", 2)])
def test_invalid_series_rank_combinations(series, rank):
    with pytest.raises(InputError):
        builtin_cartan(series, rank)


def test_tag_parsing():
    assert cartan_from_tag("A3").label == "A3"
    assert cartan_from_tag("G2").label == "G2"
    with pytest.raises(InputError):
        cartan_from_tag("A")
    with pytest.raises(InputError):
        cartan_from_tag("2A")


def test_positive_root_counts():
    assert len(cartan_from_tag("A1").positive_roots) == 1
    assert len(cartan_from_tag("A2").positive_roots) == 3
    assert len(cartan_from_tag("A3").positive_roots) == 6
    assert len(cartan_from_tag("A4").positive_roots) == 10
    assert len(cartan_from_tag("B2").positive_roots) == 4
    assert len(cartan_from_tag("B3").positive_roots) == 9
    assert len(cartan_from_tag("C3").positive_roots) == 9
    assert len(cartan_from_tag("D4").positive_roots) == 12
    assert len(cartan_from_tag("G2").positive_roots) == 6


def test_simple_roots_are_cartan_rows():
    for tag in ("A2", "B2", "C3", "D4", "G2"):
        cd = cartan_from_tag(tag)
        for row in cd.cartan_matrix:
            assert row in cd.positive_roots


def test_inner_a1_fundamental_weight():
    # oracle: invert C = [[2]] directly, d = (1)
    cd = builtin_cartan("A", 1)
    gram = oracles.gram_from_cartan(oracles.inverse_1x1(2), cd.symmetrizer)
    assert inner(cd, (1,), (1,)) == Fraction(1, 2)
    assert inner(cd, (1,), (1,)) == oracles.form_value(gram, (1,), (1,))
    assert inner(cd, (2,), (2,)) == 2  # simple root squared length = 2 * d
    assert cd.symmetrizer == (1,)


def test_inner_a2_matches_explicit_inverse():
    cd = builtin_cartan("A", 2)
    gram = oracles.gram_from_cartan(oracles.inverse_2x2(cd.cartan_matrix), cd.symmetrizer)
    a1, a2 = cd.cartan_matrix
    assert inner(cd, a1, a2) == oracles.form_value(gram, a1, a2)
    assert inner(cd, a1, a2) < 0
    for alpha in cd.positive_roots:
        assert inner(cd, alpha, alpha) > 0


def test_inner_b2_respects_root_lengths():
    cd = builtin_cartan("B", 2)
    long_root, short_root = cd.cartan_matrix[0], cd.cartan_matrix[1]
    assert inner(cd, long_root, long_root) == 2 * inner(cd, short_root, short_root)


def test_inner_dimension_mismatch():
    cd = builtin_cartan("A", 2)
    with pytest.raises(InputError):
        inner(cd, (1,), (1, 0))


def test_is_dominant():
    assert is_dominant((1, 0))
    assert not is_dominant((-1, 2))
    assert is_dominant((0, 0))


def test_weyl_orbit_a1():
    cd = builtin_cartan("A", 1)
    assert weyl_orbit(cd, (1,)) == frozenset({(1,), (-1,)})


def test_weyl_orbit_a2_defining():
    # oracle: the three weights of the defining representation
    cd = builtin_cartan("A", 2)
    assert weyl_orbit(cd, (1, 0)) == frozenset({(1, 0), (-1, 1), (0, -1)})


def test_weyl_orbit_fixes_zero():
    for tag in ("A1", "A3", "B2", "G2"):
        cd = cartan_from_tag(tag)
        zero = (0,) * cd.rank
        assert weyl_orbit(cd, zero) == frozenset({zero})


@pytest.mark.parametrize(
    "tag,order",
    [("A1", 2), ("A2", 6), ("A3", 24), ("B2", 8), ("B3", 48), ("G2", 12), ("D4", 192)],
)
def test_orbit_of_weyl_vector_has_group_order(tag, order):
    cd = cartan_from_tag(tag)
    assert len(weyl_orbit(cd, cd.weyl_vector)) == order


def test_orbit_cap():
    cd = builtin_cartan("A", 3)
    with pytest.raises(ResourceCapError):
        weyl_orbit(cd, cd.weyl_vector, cap=5)


def test_orbits_have_unique_dominant_element():
    cd = builtin_cartan("B", 2)
    for w in [(1, 0), (2, 1), (0, 3), (1, 1)]:
        orbit = weyl_orbit(cd, w)
        dominants = [v for v in orbit if is_dominant(v)]
        assert dominants == [w]
        for v in orbit:
            assert dominant_representative(cd, v) == w


def test_weyl_vector_strictly_dominant():
    for tag in ("A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2"):
        cd = cartan_from_tag(tag)
        for alpha in cd.positive_roots:
            assert inner(cd, cd.weyl_vector, alpha) > 0


@given(
    data=st.data(),
    tag=st.sampled_from(["A1", "A2", "A3", "B2", "G2"]),
)
def test_simple_reflection_is_an_involution(data, tag):
    cd = cartan_from_tag(tag)
    w = tuple(
        data.draw(st.integers(min_value=-10, max_value=10)) for _ in range(cd.rank)
    )
    for i in range(cd.rank):
        assert simple_reflection(cd, i, simple_reflection(cd, i, w)) == w


def test_reflections_preserve_inner_product():
    cd = builtin_cartan("G", 2)
    u, v = (2, -1), (1, 3)
    for i in range(cd.rank):
        assert inner(cd, simple_reflection(cd, i, u), simple_reflection(cd, i, v)) == inner(cd, u, v)


def test_custom_cartan_product_of_rank_one():
    cd = custom_cartan([[2, 0], [0, 2]], label="A1xA1")
    assert len(cd.positive_roots) == 2
    assert len(weyl_orbit(cd, (1, 1))) == 4
    assert dimension(cd, (1, 1)) == 4


def test_custom_cartan_matches_builtin():
    assert custom_cartan([[2, -1], [-1, 2]]).positive_roots == builtin_cartan("A", 2).positive_roots


@pytest.mark.parametrize(
    "matrix",
    [
        [[2, -1]],  # not square
        [[1, 0], [0, 2]],  # bad diagonal
        [[2, 1], [1, 2]],  # positive off-diagonal
        [[2, -1], [0, 2]],  # asymmetric zero pattern
        [[2, -2], [-2, 2]],  # affine, not finite type
        [[2, -4], [-1, 2]],  # indefinite
    ],
)
def test_custom_cartan_rejects_invalid(matrix):
    with pytest.raises(InputError):
        custom_cartan(matrix)


def test_positive_roots_lie_in_the_positive_root_lattice():
    for tag in ("A3", "B3", "C3", "D4", "G2"):
        cd = cartan_from_tag(tag)
        for root in cd.positive_roots:
            coords = oracles._root_coordinates(cd.cartan_matrix, root)
            assert all(c.denominator == 1 and c >= 0 for c in coords)
            assert dominant_representative(cd, root) in cd.positive_roots


def test_roots_are_built_once_per_build(monkeypatch):
    calls = []
    real_roots = cartan._positive_roots
    monkeypatch.setattr(cartan, "_positive_roots", lambda *a: calls.append(a) or real_roots(*a))
    cd = custom_cartan([[2, -1, 0], [-1, 2, -2], [0, -1, 2]], label="B3")
    large = cartan_from_tag("A400")
    # the root data is built on first read, not by construction
    assert calls == []
    same = custom_cartan(cd.cartan_matrix, label="B3")
    assert cd == same and hash(cd) == hash(same)
    assert large == custom_cartan(large.cartan_matrix, label="A400")
    assert calls == []
    cd.positive_roots, cd.positive_roots, cd.freudenthal_tables
    assert len(calls) == 1
    # heights and the invariant form solve in the matrix, not in the roots
    large.height_key((1,) * 400), inner(large, (1,) * 400, (1,) * 400)
    assert len(calls) == 1
    # derived fields take no part in comparison or hashing
    assert cd == cartan_from_tag("B3") and hash(cd) == hash(cartan_from_tag("B3"))


def test_type_a_positive_roots_in_closed_form():
    # the positive roots of A_n are the sums of consecutive simple roots,
    # of height the number of summands
    n = 40
    c = builtin_cartan("A", n).cartan_matrix
    expected = sorted(
        (j - i + 1, tuple(sum(col[i:j + 1]) for col in zip(*c)))
        for i in range(n)
        for j in range(i, n)
    )
    assert builtin_cartan("A", n).positive_roots == tuple(r for _, r in expected)


def test_symmetrized_product_is_symmetric():
    for tag in ("B2", "B3", "C3", "G2"):
        cd = cartan_from_tag(tag)
        c, d = cd.cartan_matrix, cd.symmetrizer
        for i in range(cd.rank):
            for j in range(cd.rank):
                assert c[i][j] * d[j] == c[j][i] * d[i]
        assert all(x > 0 for x in d)


def test_custom_cartan_rejects_non_matrix_input():
    with pytest.raises(InputError):
        custom_cartan([[2, -1], 5])
    with pytest.raises(InputError):
        custom_cartan([[2, True], [-1, 2]])


def test_custom_cartan_rejects_int_subclass_entries():
    # an entry that prints as other text must not reach the compiled orbit walk
    class I(int):
        def __str__(self):
            return "X"

        __repr__ = __str__

    with pytest.raises(InputError) as info:
        custom_cartan([[2, I(-1)], [I(-1), 2]])
    assert (info.value.code, str(info.value)) == ("invalid-cartan", "entries must be integers")


def test_builtin_cartan_is_built_once_per_group():
    b3 = builtin_cartan("b", 3)
    assert b3 is builtin_cartan("B", 3)
    assert b3 is cartan_from_tag("B3")
    assert builtin_cartan("g2", 2) is builtin_cartan("G", 2)
    # a custom matrix is rebuilt, and agrees on the root data
    again = custom_cartan(b3.cartan_matrix, label="B3")
    assert again is not b3
    assert again == b3
    assert again.positive_roots == b3.positive_roots


def test_cartan_boundary_errors():
    def error(f, *args):
        with pytest.raises(InputError) as info:
            f(*args)
        return info.value.code, str(info.value)

    # squared lengths would have to satisfy d1 = d2, d2 = d3 and d3 = 2 * d1
    cyclic = [[2, -1, -1], [-1, 2, -1], [-2, -1, 2]]
    assert error(custom_cartan, cyclic) == ("invalid-cartan", "Cartan matrix is not symmetrizable")
    a2 = cartan_from_tag("A2")
    assert error(simple_reflection, a2, 2, (1, 0)) == ("invalid-index", "reflection index 2 out of range")
    assert error(simple_reflection, a2, -1, (1, 0)) == ("invalid-index", "reflection index -1 out of range")


# --- the symmetrizer, in integers against the rational oracle ---------------

def _block_diagonal(blocks, order):
    """The block-diagonal matrix of ``blocks`` with node ``order[k]`` of it
    placed at position k."""
    n = sum(map(len, blocks))
    full = [[0] * n for _ in range(n)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            full[at + i][at:at + len(row)] = row
        at += len(block)
    return [[full[i][j] for j in order] for i in order]


def test_symmetrizer_matches_the_oracle_on_the_builtin_series():
    for series, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for rank in range(low, 13):
            matrix = cartan._series_matrix(series, rank)
            assert cartan._symmetrizer(matrix) == oracles.symmetrizer(matrix), (series, rank)
    g2 = cartan._series_matrix("G", 2)
    assert cartan._symmetrizer(g2) == oracles.symmetrizer(g2) == (1, 3)


def test_symmetrizer_matches_the_oracle_on_interleaved_products():
    rng = random.Random(20)
    pieces = [("A", 1), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]
    for _ in range(200):
        blocks = [cartan._series_matrix(*rng.choice(pieces)) for _ in range(rng.randint(2, 4))]
        order = list(range(sum(map(len, blocks))))
        rng.shuffle(order)
        matrix = _block_diagonal(blocks, order)
        assert cartan._symmetrizer(matrix) == oracles.symmetrizer(matrix), matrix
        assert custom_cartan(matrix).symmetrizer == oracles.symmetrizer(matrix)


def test_symmetrizer_matches_the_oracle_on_random_symmetrizable_matrices():
    # C[i][j] = -k * lcm(d_i, d_j) / d_j is symmetrized by d, whatever k
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(1, 7)
        d = [rng.randint(1, 6) for _ in range(n)]
        matrix = [[2] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                k = rng.choice((0, 0, 1, 2))
                s = k * math.lcm(d[i], d[j])
                matrix[i][j], matrix[j][i] = -s // d[j], -s // d[i]
        found = cartan._symmetrizer(matrix)
        assert found == oracles.symmetrizer(matrix), matrix
        assert all(matrix[i][j] * found[j] == matrix[j][i] * found[i] for i in range(n) for j in range(n))


def test_non_symmetrizable_cycles_are_rejected_by_both():
    rng = random.Random(22)
    seen = 0
    while seen < 100:
        a, b, c, x, y, z = (-rng.randint(1, 4) for _ in range(6))
        if a * b * c == x * y * z:  # the cycle's ratios multiply to 1
            continue
        seen += 1
        matrix = [[2, a, z], [x, 2, b], [c, y, 2]]
        for find in (cartan._symmetrizer, oracles.symmetrizer):
            with pytest.raises(InputError, match="^Cartan matrix is not symmetrizable$"):
                find(matrix)
        with pytest.raises(InputError) as info:
            custom_cartan(matrix)
        assert (info.value.code, str(info.value)) == ("invalid-cartan", "Cartan matrix is not symmetrizable")
