import importlib
import itertools
import math
import sys
import threading
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from flagrep import (
    InputError,
    ResourceCapError,
    alpha,
    alpha_inverse,
    cartan_from_tag,
    charpoly,
    decompose,
    dimension,
    parse_partition,
    realize_schur,
    schur,
    schur_dim,
    ssyt_contents,
    weight_multiplicities,
    weight_of_partition,
    weights_of_schur,
)
from flagrep import cartan, characters, custom_cartan
from flagrep.characters import Certificate
from flagrep.charpoly import CharPoly
from flagrep.errors import _LIMITS
from flagrep.schur import YPoly, parse_ypoly, render_ypoly, validate_partition

import oracles
import poly_text

schur_module = importlib.import_module("flagrep.schur")  # ``flagrep.schur`` is the function


def partitions_up_to(total, max_parts):
    """All partitions of size <= total with at most max_parts parts."""
    out = [()]
    def rec(prefix, remaining, cap):
        for part in range(min(remaining, cap), 0, -1):
            if len(prefix) + 1 > max_parts:
                return
            out.append(tuple(prefix) + (part,))
            rec(prefix + [part], remaining - part, part)
    rec([], total, total)
    return out


# --- partitions and tableaux -------------------------------------------------

def test_parse_partition():
    assert parse_partition("2,1,0") == (2, 1, 0)
    with pytest.raises(InputError):
        parse_partition("1,2")
    with pytest.raises(InputError):
        parse_partition("a,b")
    with pytest.raises(InputError):
        validate_partition((1, -1))


def test_single_box_schur():
    assert schur((1,), 3).terms == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
    assert render_ypoly(schur((1,), 3)) == "y1 + y2 + y3"


def test_column_schur_is_elementary_symmetric():
    # oracle: e2 in three variables has the three squarefree degree-2 terms
    assert schur((1, 1), 3).terms == {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    assert render_ypoly(schur((1, 1), 3)) == "y1*y2 + y1*y3 + y2*y3"


def test_hook_shape_tableau_count():
    assert schur((2, 1), 3).evaluate_at_one() == 8
    assert len(ssyt_contents((2, 1), 3)) == 8


def test_full_column_reduces_to_one():
    assert schur((1, 1, 1), 3) == YPoly.one(3)


def test_schur_dims():
    assert schur_dim((1,), 3) == 3
    assert schur_dim((2,), 3) == 6  # weakly increasing pairs from 3 letters
    assert schur_dim((1, 1, 1), 3) == 1
    assert schur_dim((), 4) == 1


def test_schur_dim_matches_hook_content_product():
    for m in range(9):
        for mu in partitions_up_to(9, m):
            assert schur_dim(mu, m) == oracles.hook_content(mu, m), (mu, m)
    for mu, m in (((40, 20, 10), 4), ((60, 30, 10), 4), ((4, 3, 2), 6), ((1,), 10**6), ((1, 1), 1000)):
        assert schur_dim(mu, m) == oracles.hook_content(mu, m), (mu, m)


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 11).flatmap(lambda m: st.tuples(st.lists(st.integers(1, 30), max_size=m), st.just(m))))
def test_schur_dim_matches_hook_content_product_on_random_shapes(case):
    parts, m = case
    mu = tuple(sorted(parts, reverse=True)) + (0,) * (m - len(parts))
    assert schur_dim(mu, m) == oracles.hook_content(mu, m)


def test_schur_dim_of_long_rows_is_immediate():
    # Weyl's product takes a few factors per row, however long the row
    start = time.perf_counter()
    assert schur_dim((10**11,), 3) == (10**11 + 2) * (10**11 + 1) // 2 == 5000000000150000000001
    assert schur_dim((10**6, 10**6), 3) == (10**6 + 2) * (10**6 + 1) // 2
    assert schur_dim((10**12, 10**12), 2) == 1
    assert schur_dim((10**12, 1), 2) == 10**12  # a 2 below a 1, and 0 to 10^12 - 1 twos in row one
    assert schur_dim((10**12,), 6) == math.comb(10**12 + 5, 5)  # multisets of 10^12 entries from 6
    assert time.perf_counter() - start < 0.1


def test_bool_parts_are_refused():
    # True == 1, so (True,) would read as the partition (1,)
    calls = [(schur, (True,), 3), (realize_schur, (2, True), 3), (schur_dim, (False,), 2),
             (ssyt_contents, (1, True), 2), (weights_of_schur, (True,), 3), (weight_of_partition, (True,), 2)]
    for f, mu, m in calls:
        with pytest.raises(InputError) as info:
            f(mu, m)
        assert (info.value.code, str(info.value)) == ("invalid-partition", "parts must be nonnegative integers")
    assert str(schur((1,), 3)) == "y1 + y2 + y3"
    assert realize_schur((2, 1), 3).n == 8


def test_partition_too_long_rejected():
    with pytest.raises(InputError):
        schur((1, 1, 1), 2)
    with pytest.raises(InputError):
        schur_dim((2, 2, 1), 2)


def test_schur_dim_equals_tableau_count_and_dimension():
    for m in (2, 3):
        cd = cartan_from_tag(f"A{m - 1}")
        for mu in partitions_up_to(5, m - 1):
            n = schur_dim(mu, m)
            assert n == len(ssyt_contents(mu, m))
            assert n == dimension(cd, weight_of_partition(mu, m))


def test_schur_matches_jacobi_trudi():
    for m in (2, 3, 4):
        for mu in partitions_up_to(5, m - 1):
            assert schur(mu, m).terms == oracles.jacobi_trudi_terms(mu, m)


def _outcome(f, *args):
    try:
        return ("ok", f(*args))
    except InputError as exc:
        return ("error", exc.code, str(exc))


def test_character_engine_matches_tableau_oracle():
    # every partition of size <= 6, so some have len == m and some len > m
    cases = []
    for m in range(-1, 8):
        for mu in partitions_up_to(6, 6):
            cases += [(mu, m), (mu + (0,), m), (mu + (0, 0), m)]
    for mu, m in cases:
        assert _outcome(ssyt_contents, mu, m) == _outcome(oracles.ssyt_contents, mu, m)
        assert _outcome(weights_of_schur, mu, m) == _outcome(oracles.tableau_weights, mu, m)
        assert _outcome(schur, mu, m) == _outcome(oracles.tableau_schur, mu, m)


def test_schur_does_not_enumerate_tableaux():
    # 6.4 million tableaux, 36,746 distinct contents
    q = schur((40, 20, 10), 4)
    assert len(q.terms) == 36_746
    assert q.evaluate_at_one() == schur_dim((40, 20, 10), 4) == 6_410_096


def test_many_variables_match_tableau_oracle():
    # m > |mu|: the dominant contents come from fewer variables and are
    # rearranged in m; in at most |mu| variables they come from A_(m-1)
    cases = [(mu, m) for m in (10, 11, 13) for mu in partitions_up_to(4, 4)]
    cases += [((1,) * 10, 10), ((1,) * 10, 11), ((2,) + (1,) * 8, 11), ((1,) * 11, 12)]
    for mu, m in cases:
        assert ssyt_contents(mu, m) == oracles.ssyt_contents(mu, m)
        assert weights_of_schur(mu, m) == oracles.tableau_weights(mu, m)
        assert schur(mu, m) == oracles.tableau_schur(mu, m)


def test_schur_route_walks_no_orbit_and_takes_no_alpha(monkeypatch):
    # contents come from the dominant multiplicities, rearranged; the
    # s-invariant side of realize_schur keeps its own alpha
    def fail(*args):
        raise AssertionError("not on the Schur route")

    monkeypatch.setattr(sys.modules["flagrep._kernels"], "orbit_terms", fail)
    monkeypatch.setattr(sys.modules["flagrep.schur"], "alpha", fail)
    for mu, m in (((3, 1), 3), ((2, 1), 3), ((2, 1), 5)):  # m < |mu|, m = |mu|, m > |mu|
        assert schur(mu, m) == oracles.tableau_schur(mu, m)
        assert ssyt_contents(mu, m) == oracles.ssyt_contents(mu, m)
        assert weights_of_schur(mu, m) == oracles.tableau_weights(mu, m)
        result = realize_schur(mu, m)
        assert result.matches is True
        assert result.symmetric_function == oracles.tableau_schur(mu, m)


def test_schur_builds_no_content_list(monkeypatch):
    # schur rearranges each dominant partition into canonical keys itself
    def fail(*args):
        raise AssertionError("schur built the content list")

    monkeypatch.setattr(sys.modules["flagrep.schur"], "_contents", fail)
    cases = (((3, 1), 3), ((2, 1), 3), ((2, 1), 5), ((2, 2), 2), ((3, 2, 2), 3), ((4, 2, 1), 3))
    for mu, m in cases:  # m < |mu|, m = |mu|, m > |mu|, and exactly m nonzero parts
        assert _outcome(schur, mu, m) == _outcome(oracles.tableau_schur, mu, m)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.sampled_from((0, 0, 1, 2, 2, 5, 255, 256, 300)), min_size=1, max_size=7))
@example([0])
@example([5, 5, 2, 0, 0, 0])
@example([300, 300, 256, 255, 0, 0, 0])  # values past a byte, with a byte-sized pattern
def test_rearrangements_are_the_distinct_permutations(entries):
    # the oracle is itertools, not the layout walk
    e = tuple(sorted(entries, reverse=True))
    assert list(schur_module._rearrangements(e)) == sorted(set(itertools.permutations(e)), reverse=True)
    low = e[-1]
    shifted = tuple(x - low for x in e)
    assert list(schur_module._rearrangements(e, low)) == sorted(set(itertools.permutations(shifted)), reverse=True)


def test_one_pattern_shares_one_layout(monkeypatch):
    monkeypatch.setattr(schur_module, "_LAYOUTS", {})
    monkeypatch.setattr(schur_module, "_layout_bytes", 0)
    for e in ((5, 5, 2, 0, 0, 0), (9, 9, 4, 1, 1, 1), (300, 300, 7, 6, 6, 6)):
        assert list(schur_module._rearrangements(e)) == sorted(set(itertools.permutations(e)), reverse=True)
    assert list(schur_module._LAYOUTS) == [(2, 1, 3)]
    # schur((1,), 1000) builds the one-box layout that the tableau listing reuses
    assert len(schur((1,), 1000).terms) == 1000
    assert list(schur_module._LAYOUTS) == [(2, 1, 3), (1, 999)]
    first = schur_module._LAYOUTS[(1, 999)]
    assert ssyt_contents((1,), 1000) == tuple(tuple(int(i == j) for j in range(1000)) for i in range(1000))
    assert schur_module._LAYOUTS[(1, 999)] is first


def _layout_memo_bytes():
    return sum(sys.getsizeof(col) for cols in schur_module._LAYOUTS.values() for col in cols)


def test_layout_memo_holds_its_budget(monkeypatch):
    monkeypatch.setattr(schur_module, "_LAYOUTS", {})
    monkeypatch.setattr(schur_module, "_layout_bytes", 0)
    # 3000 contents of 3000 entries: 9 * 10^6 cells, under the content cap
    q = schur((1,), 3000)
    assert len(q.terms) == 3000
    assert list(schur_module._LAYOUTS) == [(1, 2999)]
    assert schur_module._layout_bytes == _layout_memo_bytes() <= _LIMITS["term-cap"]
    # a second wide layout evicts the first, the oldest
    assert len(schur((1, 1), 140).terms) == 9730
    assert list(schur_module._LAYOUTS) == [(2, 138)]
    assert schur_module._layout_bytes == _layout_memo_bytes() <= _LIMITS["term-cap"]
    # the budget is read at each build; a layout larger than it is not kept
    monkeypatch.setattr(schur_module, "_LAYOUTS", {})
    monkeypatch.setattr(schur_module, "_layout_bytes", 0)
    monkeypatch.setitem(_LIMITS, "term-cap", 300)
    cols = schur_module._layout((1, 1, 1, 1, 1))  # 120 rows by 5 columns
    assert list(zip(*cols)) == sorted(itertools.permutations(range(5)), reverse=True)
    assert schur_module._LAYOUTS == {} and schur_module._layout_bytes == 0
    for counts in ((1, 2), (2, 1), (1, 1, 1)):  # 108, 108 and 117 bytes
        schur_module._layout(counts)
        assert schur_module._layout_bytes == _layout_memo_bytes() <= 300
    assert list(schur_module._LAYOUTS) == [(2, 1), (1, 1, 1)]


def test_layout_memo_counts_each_layout_once_across_threads(monkeypatch):
    monkeypatch.setattr(schur_module, "_LAYOUTS", {})
    monkeypatch.setattr(schur_module, "_layout_bytes", 0)
    monkeypatch.setitem(_LIMITS, "term-cap", 1000)  # a few layouts fit, so the threads evict
    patterns = [(1, 1, 1, 1), (2, 2), (1, 3), (3, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1), (1, 1, 1, 1, 1)]
    errors = []

    def work():
        try:
            for _ in range(40):
                for counts in patterns:
                    assert len(schur_module._layout(counts)[0]) == math.factorial(sum(counts)) // math.prod(
                        map(math.factorial, counts))
        except Exception as exc:  # a failure in a thread is reported by the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert schur_module._layout_bytes == _layout_memo_bytes() <= 1000


@st.composite
def shapes_and_variables(draw):
    """A partition of size <= 6 and m in {|mu| - 1, |mu|, |mu| + 1, |mu| + 3}."""
    mu = tuple(sorted(draw(st.lists(st.integers(1, 4), max_size=4)), reverse=True))
    while sum(mu) > 6:
        mu = mu[1:]
    return mu, sum(mu) + draw(st.sampled_from((-1, 0, 1, 3)))


@settings(deadline=None, max_examples=60)
@given(shapes_and_variables())
@example(((1,), 0))
@example(((2, 2, 1, 1), 5))
@example(((3, 2, 1), 9))
@example(((2, 2), 2))
@example(((3, 2, 2), 3))
def test_contents_route_matches_tableau_oracle(case):
    mu, m = case
    assert _outcome(ssyt_contents, mu, m) == _outcome(oracles.ssyt_contents, mu, m)
    assert _outcome(weights_of_schur, mu, m) == _outcome(oracles.tableau_weights, mu, m)
    assert _outcome(schur, mu, m) == _outcome(oracles.tableau_schur, mu, m)


def test_schur_in_many_variables_is_bounded():
    q = schur((1,), 1000)
    assert q.terms == {tuple(int(i == j) for j in range(1000)): 1 for i in range(1000)}
    assert schur((), 10**6) == YPoly.one(10**6)
    # the contents are counted before any is built
    cap = _LIMITS["term-cap"]
    tracemalloc.start()
    try:
        for mu, m, n in (((1,), 10**6, 10**6), ((1, 1), 1000, 499_500)):
            for f in (schur, ssyt_contents, weights_of_schur, realize_schur):
                with pytest.raises(ResourceCapError) as info:
                    f(mu, m)
                assert info.value.code == "term-cap"
                assert str(info.value) == f"{n} terms times {m} variables exceed cap {cap}"
        # the empty shape's one content has m entries too (realize_schur rejects it)
        for mu in ((), (0, 0)):
            for f in (ssyt_contents, schur, weights_of_schur):
                with pytest.raises(ResourceCapError) as info:
                    f(mu, cap + 1)
                assert str(info.value) == f"1 terms times {cap + 1} variables exceed cap {cap}"
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


def test_each_public_call_validates_its_partition_once(monkeypatch):
    from flagrep import realize as realize_module

    schur_module = sys.modules["flagrep.schur"]
    original = schur_module.validate_partition
    calls = []

    def counted(parts):
        calls.append(parts)
        return original(parts)

    monkeypatch.setattr(schur_module, "validate_partition", counted)
    monkeypatch.setattr(realize_module, "validate_partition", counted)
    cases = [
        (f, mu, m)
        for f in (schur, ssyt_contents, schur_dim, weights_of_schur, realize_schur, weight_of_partition)
        for mu, m in (((2, 1), 3), ((2, 1, 0), 4), ((1, 1), 12), ((3,), 2))
    ]
    cases += [(schur, (2,), 1), (ssyt_contents, (), 1), (schur_dim, (), 0)]
    # error paths validate once too
    cases += [(schur_dim, (1,), 0), (realize_schur, (1, 1), 2), (weights_of_schur, (2, 1), 1)]
    for f, mu, m in cases:
        calls.clear()
        try:
            f(mu, m)
        except InputError:
            pass
        assert len(calls) == 1, (f.__name__, mu, m)


def test_tableau_weights_capped_before_expanding():
    mu = (60, 30, 10)
    assert schur_dim(mu, 4) == 62_558_496 > _LIMITS["term-cap"]
    for f in (ssyt_contents, weights_of_schur, realize_schur):
        with pytest.raises(ResourceCapError) as info:
            f(mu, 4)
        assert info.value.code == "term-cap"
        assert str(info.value) == f"62558496 tableaux exceed cap {_LIMITS['term-cap']}"


def test_schur_is_symmetric():
    for mu, m in [((2, 1), 3), ((3, 1), 3), ((2, 2), 4)]:
        q = schur(mu, m)
        for i in range(m - 1):
            swapped = {}
            for e, c in q.terms.items():
                f = list(e)
                f[i], f[i + 1] = f[i + 1], f[i]
                low = min(f)
                swapped[tuple(x - low for x in f)] = c
            assert swapped == q.terms


# --- the weight dictionary ---------------------------------------------------

def test_weight_of_partition():
    assert weight_of_partition((1, 0, 0), 3) == (1, 0)
    assert weight_of_partition((1, 1, 0), 3) == (0, 1)
    assert weight_of_partition((2, 1, 0), 3) == (1, 1)
    assert weight_of_partition((2,), 3) == (2, 0)


def test_weights_of_schur_examples():
    assert weights_of_schur((1,), 2) == [(1,), (-1,)]
    assert weights_of_schur((1, 1), 3) == [(0, 1), (1, -1), (-1, 0)]
    assert weights_of_schur((1,), 3) == [(1, 0), (-1, 1), (0, -1)]


def test_weights_of_schur_holds_one_object_per_distinct_weight():
    # 5,880 tableaux with 1,186 distinct weights; each weight tuple is built
    # once and repeated by its multiplicity
    ws = weights_of_schur((4, 3, 2), 6)
    assert len(ws) == schur_dim((4, 3, 2), 6) == 5880
    assert len(set(map(id, ws))) == len(set(ws)) == 1186
    assert ws == oracles.tableau_weights((4, 3, 2), 6)


def test_weights_of_schur_length_and_balance():
    for mu, m in [((2, 1), 3), ((3,), 2), ((2, 2, 1), 4)]:
        ws = weights_of_schur(mu, m)
        assert len(ws) == schur_dim(mu, m)
        assert [sum(col) for col in zip(*ws)] == [0] * (m - 1)


# --- the substitution and its inverse ----------------------------------------

def test_alpha_on_generators():
    # w1 -> y1 and rho -> y2*y3^2 in three variables
    assert alpha(CharPoly(2, {(1, 0): 1})).terms == {(1, 0, 0): 1}
    assert alpha(CharPoly(2, {(-1, -1): 1})).terms == {(0, 1, 2): 1}
    assert alpha(CharPoly(2, {(-1, 1): 1})).terms == {(0, 1, 0): 1}


def test_alpha_rank_one_defining():
    assert alpha(CharPoly(1, {(1,): 1, (-1,): 1})).terms == {(1, 0): 1, (0, 1): 1}


@pytest.mark.parametrize(
    "substitution, poly, message",
    [
        (alpha, lambda: schur((2, 1), 3), "alpha takes a CharPoly, not YPoly"),
        (alpha, lambda: "w1", "alpha takes a CharPoly, not str"),
        (
            alpha_inverse,
            lambda: weight_multiplicities(cartan_from_tag("A2"), (1, 0)),
            "alpha_inverse takes a YPoly, not CharPoly",
        ),
    ],
)
def test_each_substitution_takes_only_its_own_polynomial_type(substitution, poly, message):
    # these raised bare AttributeErrors: a YPoly has no rank, a str no
    # terms, a CharPoly no nvars
    with pytest.raises(InputError) as exc:
        substitution(poly())
    assert (exc.value.code, str(exc.value)) == ("invalid-poly", message)


def test_alpha_inverse_examples():
    assert alpha_inverse(YPoly(3, {(0, 1, 0): 1})) == CharPoly(2, {(-1, 1): 1})
    assert alpha_inverse(YPoly(3, {(1, 1, 1): 1})) == CharPoly.one(2)
    assert alpha_inverse(schur((1,), 3)) == weight_multiplicities(cartan_from_tag("A2"), (1, 0))


@settings(deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
        st.integers(-50, 50).filter(bool),
        max_size=5,
    )
)
def test_alpha_bijection(terms):
    p = CharPoly(2, terms)
    assert alpha_inverse(alpha(p)) == p


@settings(deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
        st.integers(-50, 50).filter(bool),
        max_size=5,
    )
)
def test_alpha_inverse_bijection(terms):
    q = YPoly(3, terms)
    assert alpha(alpha_inverse(q)) == q


def ranked_charpolys():
    """CharPolys of rank 1-4 with negative exponents and coefficients of any
    size and sign."""
    def polys(rank):
        return st.dictionaries(
            st.tuples(*[st.integers(-5, 5)] * rank), st.integers(-60, 60).filter(bool), max_size=8
        ).map(lambda d: CharPoly(rank, d))
    return st.integers(1, 4).flatmap(polys)


@settings(deadline=None, max_examples=150)
@given(ranked_charpolys())
@example(CharPoly(1, {}))
@example(CharPoly(3, {}))
@example(CharPoly(1, {(-3,): 5, (4,): -7, (0,): 2}))
@example(CharPoly(2, {(-5, -5): -12, (5, -5): 3, (-1, 4): 40}))
def test_alpha_and_its_inverse_agree_with_monomial_substitution(p):
    expected = oracles.alpha_substitution(p.terms, p.rank)
    q = alpha(p)
    assert q.nvars == p.rank + 1
    assert list(q.terms.items()) == list(expected.items())  # same terms, in p's order
    assert alpha_inverse(YPoly(p.rank + 1, expected)) == p


def charpoly_pairs():
    """Two CharPolys of one rank, 1-3, with few small terms."""
    def polys(rank):
        return st.dictionaries(
            st.tuples(*[st.integers(-4, 4)] * rank), st.integers(-30, 30).filter(bool), max_size=5
        ).map(lambda d: CharPoly(rank, d))
    return st.integers(1, 3).flatmap(lambda rank: st.tuples(polys(rank), polys(rank)))


@settings(deadline=None)
@given(charpoly_pairs(), st.integers(-10**6, 10**6))
@example((CharPoly(2, {(1, 0): 1, (-1, 1): 2}), CharPoly(2, {(0, -1): 3, (1, 1): 1})), 3)
def test_alpha_is_multiplicative(pq, k):
    # alpha is a ring isomorphism onto the YPolys in one more variable
    p, q = pq
    assert alpha(p + q) == alpha(p) + alpha(q)
    assert alpha(p * q) == alpha(p) * alpha(q)
    assert alpha(p * k) == alpha(p) * k == k * alpha(p)
    assert alpha_inverse(alpha(p)) == p


def test_alpha_sends_characters_to_schur_polynomials():
    for m in (2, 3):
        cd = cartan_from_tag(f"A{m - 1}")
        for mu in partitions_up_to(4, m - 1):
            char = weight_multiplicities(cd, weight_of_partition(mu, m))
            assert alpha(char) == schur(mu, m)


def test_products_of_schur_polynomials_decompose_positively():
    import random

    cd = cartan_from_tag("A2")
    small = [p for p in partitions_up_to(6, 2) if p]
    rng = random.Random(42)
    pairs = [((2, 1), (1,)), ((2,), (2,)), ((1, 1), (2, 1)), ((3,), (1, 1))]
    while len(pairs) < 24:
        mu, nu = rng.choice(small), rng.choice(small)
        if sum(mu) + sum(nu) <= 8:
            pairs.append((mu, nu))
    for mu, nu in pairs:
        product = alpha_inverse(schur(mu, 3) * schur(nu, 3))
        result = decompose(cd, product)
        assert isinstance(result, Certificate)
        assert result.total_dim == schur_dim(mu, 3) * schur_dim(nu, 3)


# --- text forms ---------------------------------------------------------------

def test_ypoly_render_parse_round_trip():
    q = schur((2, 1), 3)
    assert parse_ypoly(render_ypoly(q), 3) == q
    assert render_ypoly(YPoly.zero(2)) == "0"


def oracle_render_ypoly(q):
    """The two-pass writer: monomial texts first, then the signed join."""
    if not q.terms:
        return "0"
    names = [f"y{i + 1}" for i in range(q.nvars)]
    return oracles._render_terms(
        [(q.terms[e], oracles._monomial_text(e, names)) for e in sorted(q.terms, reverse=True)]
    )


@st.composite
def ypolys(draw):
    """YPolys in 1-5 variables: exponents of either sign (the constructor
    reduces them), coefficients of either sign, often +-1, and the constant
    term and the zero polynomial among them."""
    n = draw(st.integers(1, 5))
    coeff = st.one_of(st.sampled_from([1, -1]), st.integers(-40, 40).filter(bool))
    terms = draw(
        st.lists(st.tuples(st.tuples(*[st.integers(-3, 4)] * n), coeff), max_size=8)
    )
    if draw(st.booleans()):
        terms.append(((0,) * n, draw(coeff)))
    return YPoly(n, terms)


@settings(deadline=None, max_examples=300)
@given(ypolys())
def test_render_ypoly_matches_two_pass_oracle(q):
    assert render_ypoly(q) == oracle_render_ypoly(q)


@pytest.mark.parametrize("block", poly_text.SMALL_BLOCKS)
@settings(deadline=None, max_examples=150)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.lists(st.tuples(st.tuples(*[st.integers(-3, 4)] * n), poly_text.coefficients()), max_size=8),
            poly_text.coefficients(),
        ).map(lambda t: YPoly(n, [*t[0], ((0,) * n, t[1])]))
    )
)
def test_render_ypoly_matches_two_pass_oracle_across_blocks(block, q):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(charpoly, "_BLOCK", block)
        assert render_ypoly(q) == oracle_render_ypoly(q)


@pytest.mark.parametrize("block", poly_text.SMALL_BLOCKS)
def test_render_ypoly_matches_two_pass_oracle_on_schur_across_blocks(block):
    cases = [schur(mu, m) for mu, m in [((2, 1), 3), ((3, 1, 1), 4), ((4, 2), 5)]]
    cases.append(YPoly(5, zip(cases[-1].terms, itertools.cycle(poly_text.UNIT_EDGES))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(charpoly, "_BLOCK", block)
        for q in cases:
            assert render_ypoly(q) == oracle_render_ypoly(q)


def test_render_ypoly_matches_two_pass_oracle_on_wide_keys():
    m = 1000
    q = YPoly(m, {(0,) * 3 + (2,) + (0,) * 500 + (1,) + (0,) * (m - 505): -3, (0,) * (m - 1) + (5,): 1, (0,) * m: 11})
    assert render_ypoly(q) == oracle_render_ypoly(q) == "-3*y4^2*y505 + y1000^5 + 11"
    assert render_ypoly(schur((0,), 10**5)) == "1"


def test_render_ypoly_matches_two_pass_oracle_on_schur_and_edge_cases():
    cases = [schur(mu, m) for mu, m in [((1,), 1), ((2, 1), 3), ((3, 1, 1), 4), ((4, 2), 5), ((2, 2, 1), 3)]]
    cases += [
        YPoly.zero(3),
        YPoly(2, [((1, -1), 1), ((2, 0), -1)]),  # the terms cancel
        YPoly.one(4) * -1,
        YPoly(3, {(2, 0, 0): -1, (0, 1, 1): 7, (1, 1, 1): -3}),
    ]
    for q in cases:
        assert render_ypoly(q) == oracle_render_ypoly(q)
    assert render_ypoly(cases[-1]) == "-y1^2 + 7*y2*y3 - 3"


def test_ypoly_parse_respects_relation():
    assert parse_ypoly("y1*y2*y3", 3) == YPoly.one(3)
    with pytest.raises(InputError):
        parse_ypoly("y4", 3)
    with pytest.raises(InputError):
        parse_ypoly("rho", 3)


def test_ypoly_rejects_non_integer_terms():
    for terms in (
        [((1, 0), 1.5), ((0, True), 2)],
        [((1, 0), 1), ((0, True), 2)],
        [((1.0, 0), 1)],
        {(1, 0): True},
    ):
        with pytest.raises(InputError) as info:
            YPoly(2, terms)
        assert (info.value.code, str(info.value)) == (
            "invalid-term", "exponents and coefficients must be integers"
        )
    with pytest.raises(InputError) as info:
        YPoly(2, [((1, 0, 0), 1)])
    assert info.value.code == "rank-mismatch"
    assert YPoly(2, [((1, 0), 2), ((2, 1), -2)]) == YPoly.zero(2)


def test_ypoly_reads_each_exponent_once():
    assert YPoly(2, [(iter((1, 0)), 1)]) == YPoly(2, {(1, 0): 1})
    assert YPoly(2, ((iter(e), 1) for e in [(1, 0), (0, 1)])) == YPoly(2, {(1, 0): 1, (0, 1): 1})


def test_ypoly_names_the_first_bad_term_as_charpoly_does():
    for terms in (
        [((1, 0, 0), 1.5)],
        [((1, 0), 1.5), ((1, 0, 0), 1)],
        [((1, 0, 0), 1), ((1, 0), 1.5)],
        [((1, 0), 1), ((True, 0, 0), 1)],
    ):
        with pytest.raises(InputError) as want:
            CharPoly(2, terms)
        with pytest.raises(InputError) as got:
            YPoly(2, terms)
        assert got.value.code == want.value.code


# --- library results are built trusted ----------------------------------------

def assert_clean_ypoly(q):
    """``q`` is exactly its validated rebuild and stores no zero coefficient."""
    rebuilt = YPoly(q.nvars, q.terms)
    assert rebuilt == q and rebuilt.terms == q.terms
    assert all(q.terms.values())


def ypoly_pairs():
    return ypolys().flatmap(lambda q: st.tuples(st.just(q), ypolys_in(q.nvars)))


def ypolys_in(n):
    coeff = st.integers(-40, 40).filter(bool)
    return st.lists(st.tuples(st.tuples(*[st.integers(-3, 4)] * n), coeff), max_size=6).map(
        lambda terms: YPoly(n, terms)
    )


@settings(deadline=None)
@given(ypoly_pairs(), st.integers(-10**6, 10**6))
def test_ypoly_arithmetic_results_are_clean(pair, k):
    q, r = pair
    for result in (q + r, q * r, q + q * -1, q * k, k * q, q * 0):
        assert_clean_ypoly(result)


@settings(deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda rank: st.dictionaries(
            st.tuples(*[st.integers(-8, 8)] * rank), st.integers(-50, 50).filter(bool), max_size=8
        ).map(lambda d: CharPoly(rank, d))
    )
)
def test_alpha_and_its_inverse_are_clean(p):
    q = alpha(p)
    assert_clean_ypoly(q)
    back = alpha_inverse(q)
    assert back == p
    assert back == CharPoly(back.rank, back.terms) and all(back.terms.values())


def test_alpha_of_characters_is_clean():
    for tag, lam in [("A1", (5,)), ("A2", (3, 2)), ("A3", (2, 0, 1))]:
        assert_clean_ypoly(alpha(weight_multiplicities(cartan_from_tag(tag), lam)))


# --- the one-pass reader against the full parser ------------------------------

def full_parse_ypoly(text, n):
    """``parse_ypoly`` by the oracle's recursive-descent parser."""
    return YPoly(n, [(tuple(e[:n]), c) for e, c in oracles.Parser(text, "y", n, None).parse()])


def outcome(f, *args):
    try:
        return f(*args)
    except InputError as exc:
        return exc.code, str(exc)


@settings(max_examples=250, deadline=None)
@given(
    ypolys().flatmap(
        lambda q: st.tuples(st.just(q.nvars), poly_text.texts("y", q.nvars, None, st.just(render_ypoly(q))))
    )
)
def test_parse_ypoly_agrees_with_the_full_parser(case):
    n, text = case
    assert outcome(parse_ypoly, text, n) == outcome(full_parse_ypoly, text, n)


@given(ypolys())
def test_render_ypoly_output_takes_the_one_pass_reader(q):
    text = render_ypoly(q)
    with poly_text.one_pass_only():
        assert parse_ypoly(text, q.nvars) == full_parse_ypoly(text, q.nvars) == q


@pytest.mark.parametrize("text", ["rho", "y4", "y0", "y1 +y2", "y1^²", "y1^1000001", "y1^600000*y1^600000"])
def test_ypoly_one_pass_reader_leaves_other_text_to_the_full_parser(text):
    assert outcome(parse_ypoly, text, 3) == outcome(full_parse_ypoly, text, 3)


@given(ypolys())
def test_parse_ypoly_validates_its_text_once(q):
    with mock.patch.object(charpoly._TermDict, "_validated", side_effect=AssertionError("validated twice")):
        assert parse_ypoly(render_ypoly(q), q.nvars).terms == q.terms


def test_schur_boundary_errors():
    def error(f, *args):
        with pytest.raises(InputError) as info:
            f(*args)
        return info.value.code, str(info.value)

    assert error(weight_of_partition, (2, 1, 1), 2) == ("invalid-partition", "partition (2, 1, 1) has more than 2 parts")
    for m in (1, 0):
        assert error(weight_of_partition, (), m) == ("invalid-rank", "need m >= 2 for a nontrivial weight lattice")
    assert error(alpha_inverse, YPoly(1, {(3,): 2})) == ("invalid-rank", "need at least two variables to invert")
    # parse_ypoly reports an error in the text first, then the size's
    assert error(parse_ypoly, "2", 0) == ("invalid-rank", "need at least one variable")
    assert error(parse_ypoly, "y1", 0) == ("rank-mismatch", "variable 'y1' out of range for rank 0")


@pytest.mark.parametrize("m", [3.0, True, "3"], ids=["float", "bool", "str"])
@pytest.mark.parametrize(
    "f", [schur, schur_dim, ssyt_contents, weights_of_schur, weight_of_partition, realize_schur],
    ids=lambda f: f.__name__,
)
def test_number_of_variables_must_be_an_int(f, m):
    # True would be read as one variable, and 3.0 or "3" fail deep inside
    with pytest.raises(InputError) as info:
        f((2, 1), m)
    assert (info.value.code, str(info.value)) == ("invalid-rank", "number of variables must be an integer")


# --- the character's caps, checked before the group is built ------------------

def _full_path_error(shape, m, term_cap):
    """The error ``schur``'s character raises on a freshly built group with
    no memo, or None: what the early checks must reproduce."""
    k = min(m, max(2, sum(shape)))
    top = schur_module._content_to_weight(tuple(shape) + (0,) * (k - len(shape)))
    group = custom_cartan(cartan._series_matrix("A", k - 1), label=f"A{k - 1}")
    try:
        characters._dominant_character.__wrapped__(group, top, term_cap)
    except ResourceCapError as exc:
        return exc.code, str(exc)
    return None


def _schur_error(shape, m):
    try:
        schur(shape, m)
    except ResourceCapError as exc:
        return exc.code, str(exc)
    return None


def test_schur_raises_the_root_walks_cap_before_building_the_group(monkeypatch):
    monkeypatch.setitem(_LIMITS, "orbit-cap", 30)  # A_(k-1) passes it once k(k-1)/2 > 15, at k = 7
    built = []
    monkeypatch.setattr(schur_module, "builtin_cartan", lambda *a: built.append(a) or cartan.builtin_cartan(*a))
    at_k = (((7,), 7), ((4, 3), 20), ((3, 2, 2), 7), ((7,), 9))
    below_k = (((6,), 6), ((3, 3), 8), ((2, 2, 2), 6), ((6,), 8))
    for (shape, m), expected in [(case, ("orbit-cap", "orbit size exceeds cap 30")) for case in at_k] + [
        (case, None) for case in below_k
    ]:
        built.clear()
        assert _schur_error(shape, m) == _full_path_error(shape, m, _LIMITS["term-cap"]) == expected, (shape, m)
        assert built == ([] if expected else [("A", 5)])


def test_schur_raises_the_string_term_cap_before_building_the_group(monkeypatch):
    monkeypatch.setitem(_LIMITS, "term-cap", 11)
    monkeypatch.setattr(schur_module, "builtin_cartan", None)  # never reached
    monkeypatch.setitem(_LIMITS, "orbit-cap", 100)
    for shape, m in (((11,), 11), ((30,), 2), ((12,), 40)):
        assert _schur_error(shape, m) == _full_path_error(shape, m, 11) == ("term-cap", "support exceeds cap 11")
