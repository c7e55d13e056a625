import itertools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from flagrep import InputError, cartan_from_tag, charpoly, weight_multiplicities
from flagrep.charpoly import (
    CharPoly,
    NormalMonomial,
    denormalize,
    normalize,
    parse,
    render,
)

from flagrep.schur import YPoly, parse_ypoly

import oracles
import poly_text


def weights(rank, lo=-20, hi=20):
    return st.tuples(*[st.integers(min_value=lo, max_value=hi)] * rank)


def polys(rank):
    return st.dictionaries(
        weights(rank),
        st.integers(min_value=-10**4, max_value=10**4).filter(bool),
        max_size=6,
    ).map(lambda d: CharPoly(rank, d))


# --- normal form -----------------------------------------------------------

def test_normalize_examples():
    assert normalize((-1, 1)) == NormalMonomial((0, 2), 1)
    assert normalize((-1,)) == NormalMonomial((0,), 1)
    assert normalize((0, 0)) == NormalMonomial((0, 0), 0)


def test_denormalize_examples():
    assert denormalize(NormalMonomial((0, 2), 1)) == (-1, 1)
    assert denormalize(NormalMonomial((3,), 0)) == (3,)
    with pytest.raises(InputError):
        denormalize(NormalMonomial((1, 1), 1))


@given(weights(3))
def test_normalize_round_trip(w):
    nm = normalize(w)
    assert min(min(nm.omega_exps), nm.rho_exp) == 0
    assert denormalize(nm) == w


@given(st.tuples(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20)))
def test_normalize_is_onto_reduced_monomials(exps):
    low = min(exps)
    reduced = NormalMonomial(tuple(x - low for x in exps[:2]), exps[2] - low)
    assert normalize(denormalize(reduced)) == reduced


# --- arithmetic ------------------------------------------------------------

def test_square_of_rank_one_sum():
    # oracle: (z + 1/z)^2 = z^2 + 2 + z^-2 by direct Laurent expansion
    p = CharPoly(1, {(1,): 1, (-1,): 1})
    expected = oracles.laurent_mul(p.terms, p.terms)
    assert (p * p).terms == expected
    assert render(p * p) == "w1^2 + 2 + rho^2"


def test_multiplicative_identity():
    p = CharPoly(2, {(1, -2): 3, (0, 4): -1})
    assert p * CharPoly.one(2) == p
    assert p + CharPoly.zero(2) == p


def test_rank_mismatch_rejected():
    with pytest.raises(InputError):
        CharPoly(1, {(1,): 1}) * CharPoly(2, {(1, 0): 1})
    with pytest.raises(InputError):
        CharPoly(1, {(1,): 1}) + CharPoly(2, {(1, 0): 1})


def test_evaluate_at_one():
    assert CharPoly(1, {(1,): 1, (-1,): 1}).evaluate_at_one() == 2
    assert CharPoly.zero(3).evaluate_at_one() == 0
    assert CharPoly(2, {(1, 0): 1, (0, -1): 1, (-1, 1): 1}).evaluate_at_one() == 3


@given(polys(2), polys(2), polys(2))
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys(2), polys(2))
def test_evaluate_at_one_is_a_homomorphism(p, q):
    assert (p + q).evaluate_at_one() == p.evaluate_at_one() + q.evaluate_at_one()
    assert (p * q).evaluate_at_one() == p.evaluate_at_one() * q.evaluate_at_one()


def test_effectiveness_predicate():
    assert CharPoly(1, {(1,): 2}).is_effective()
    assert not CharPoly(1, {(1,): -1}).is_effective()
    assert CharPoly.zero(1).is_effective()


def test_immutability():
    p = CharPoly.one(1)
    with pytest.raises(AttributeError):
        p.rank = 2
    q = YPoly.one(2)
    for obj, name in ((p, "terms"), (q, "nvars"), (q, "terms"), (q, "other")):
        with pytest.raises(AttributeError, match=f"^{type(obj).__name__} is immutable$"):
            setattr(obj, name, None)
    assert (p.rank, q.nvars) == (1, 2)


# --- the term-dict format CharPoly and YPoly share -------------------------

def test_repr_of_both_classes():
    assert repr(CharPoly(1, {(1,): 1, (-1,): 1})) == "CharPoly(1, 'w1 + rho')"
    assert repr(CharPoly.zero(2)) == "CharPoly(2, '0')"
    assert repr(YPoly(3, {(2, 0, 0): -1, (0, 1, 1): 7, (1, 1, 1): -3})) == "YPoly(3, '-y1^2 + 7*y2*y3 - 3')"
    assert repr(YPoly.zero(1)) == "YPoly(1, '0')"


def test_charpoly_never_equals_a_ypoly():
    terms = {(1, 0): 2, (0, 1): -1}
    p, q = CharPoly(2, terms), YPoly(2, terms)
    assert p.terms == q.terms and p.rank == q.nvars
    assert p != q and q != p
    assert not (p == q or q == p)
    with pytest.raises(TypeError):
        p + q
    with pytest.raises(TypeError):
        q * p


def test_instances_have_no_dict():
    for obj in (CharPoly.one(2), CharPoly(1, {(1,): 1}) * 3, YPoly.one(2), YPoly.one(3) + YPoly.one(3)):
        assert not hasattr(obj, "__dict__")


def test_ypoly_has_no_subtraction():
    q = YPoly.one(2)
    with pytest.raises(TypeError):
        q - q
    with pytest.raises(TypeError):
        -q


def test_ypoly_size_errors_use_charpoly_wording():
    with pytest.raises(InputError) as info:
        YPoly(2, [((1, 0, 0), 1)])
    assert (info.value.code, str(info.value)) == ("rank-mismatch", "term (1, 0, 0) does not have rank 2")
    for a, b in ((YPoly.one(2), YPoly.one(3)), (CharPoly.one(2), CharPoly.one(3))):
        for op in (a.__add__, a.__mul__):
            with pytest.raises(InputError) as info:
                op(b)
            assert (info.value.code, str(info.value)) == ("rank-mismatch", "ranks 2 and 3 differ")


# --- trusted results and the validating boundary ---------------------------

def assert_clean(p):
    """``p`` equals its own validated rebuild and stores no zero coefficient."""
    assert p == CharPoly(p.rank, p.terms)
    assert all(p.terms.values())


def poly_pairs():
    return st.integers(1, 3).flatmap(lambda r: st.tuples(polys(r), polys(r)))


@given(poly_pairs(), st.integers(-10**6, 10**6))
def test_arithmetic_results_are_clean(pq, k):
    p, q = pq
    for result in (p + q, p - q, -p, p * q, p + (-p)):
        assert_clean(result)
    for j in (k, 0, -1, -k):
        assert_clean(p * j)
        assert_clean(j * p)
        assert (p * j).terms == {w: c * j for w, c in p.terms.items() if j}


@pytest.mark.parametrize("tag", ["A2", "B2", "G2"])
def test_characters_are_clean(tag):
    cd = cartan_from_tag(tag)
    for lam in itertools.product(range(3), repeat=2):
        assert_clean(weight_multiplicities(cd, lam))


@pytest.mark.parametrize(
    "terms, code, message",
    [
        ([((1, True), 1)], "invalid-term", "exponents and coefficients must be integers"),
        ([((1, 0), 1.0)], "invalid-term", "exponents and coefficients must be integers"),
        ([((1,), 1)], "rank-mismatch", "term (1,) does not have rank 2"),
    ],
)
def test_constructor_still_validates(terms, code, message):
    with pytest.raises(InputError) as info:
        CharPoly(2, terms)
    assert (info.value.code, str(info.value)) == (code, message)


# --- text form -------------------------------------------------------------

def test_render_examples():
    assert render(CharPoly(1, {(1,): 1, (-1,): 1})) == "w1 + rho"
    assert render(CharPoly.zero(2)) == "0"
    assert render(CharPoly(2, {(1, 0): 1, (0, -1): 1, (-1, 1): 1})) == "w1 + w1*rho + w2^2*rho"


def test_render_signed_coefficients():
    p = CharPoly(1, {(2,): 1, (0,): -3, (-1,): -1})
    assert render(p) == "w1^2 - 3 - rho"
    assert parse(render(p), 1) == p
    assert render(CharPoly(1, {(0,): -2})) == "-2"


@settings(max_examples=200)
@given(
    st.integers(1, 4).flatmap(
        lambda rank: st.dictionaries(
            st.one_of(weights(rank, -12, 12), st.just((0,) * rank)),
            st.integers(-10**3, 10**3).filter(bool),
            max_size=8,
        ).map(lambda d: CharPoly(rank, d))
    )
)
def test_render_matches_two_pass_oracle(p):
    assert render(p) == oracles.render_polynomial(p)


def test_render_matches_two_pass_oracle_on_characters():
    for tag, lam in [("B3", (1, 1, 1)), ("G2", (2, 1)), ("A1", (7,))]:
        p = weight_multiplicities(cartan_from_tag(tag), lam)
        for q in (p, -p, p * 3 - CharPoly.one(p.rank) * 5):
            assert render(q) == oracles.render_polynomial(q)


@pytest.mark.parametrize("block", poly_text.SMALL_BLOCKS)
@settings(max_examples=150)
@given(
    st.integers(1, 4).flatmap(
        lambda rank: st.tuples(
            st.dictionaries(weights(rank, -12, 12), poly_text.coefficients(), max_size=8),
            poly_text.coefficients(),
        ).map(lambda t: CharPoly(rank, {**t[0], (0,) * rank: t[1]}))
    )
)
def test_render_matches_two_pass_oracle_across_blocks(block, p):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(charpoly, "_BLOCK", block)
        assert render(p) == oracles.render_polynomial(p)


@pytest.mark.parametrize("block", poly_text.SMALL_BLOCKS)
def test_render_matches_two_pass_oracle_on_characters_across_blocks(block):
    for tag, lam in [("B3", (1, 1, 1)), ("G2", (2, 1)), ("A1", (7,))]:
        p = weight_multiplicities(cartan_from_tag(tag), lam)
        cases = [p, -p, p * 3 - CharPoly.one(p.rank) * 5]
        cases += [CharPoly(p.rank, {w: c for w, c in zip(p.terms, itertools.cycle(poly_text.UNIT_EDGES))})]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(charpoly, "_BLOCK", block)
            for q in cases:
                assert render(q) == oracles.render_polynomial(q)


def test_render_keeps_coefficients_that_begin_or_end_in_one():
    p = CharPoly(1, {(3,): 1, (2,): 11, (1,): -1, (0,): 1, (-1,): -101, (-2,): 21, (-3,): 10})
    assert render(p) == "w1^3 + 11*w1^2 - w1 + 1 - 101*rho + 21*rho^2 + 10*rho^3"
    assert render(CharPoly(2, {(0, 0): -1})) == "-1"
    assert render(CharPoly(2, {(0, 0): 11, (1, 0): -1})) == "-w1 + 11"
    assert render(CharPoly(2, {(0, -1): -1, (-1, -1): -11})) == "-w1*rho - 11*rho"


def test_parse_examples():
    p = CharPoly(1, {(1,): 1, (-1,): 1})
    assert parse("w1 + rho", 1) == p
    assert parse("w1^2 + 2 + rho^2", 1) == p * p
    assert parse("0", 1) == CharPoly.zero(1)


def test_parse_accepts_unreduced_monomials():
    # w1*w2*rho = 1 must hold after conversion to the lattice
    assert parse("w1*w2*rho", 2) == CharPoly.one(2)
    assert parse("3*w1^2*rho^2", 2) == CharPoly(2, {(0, -2): 3})


@pytest.mark.parametrize(
    "bad",
    ["w1 + + rho", "", "w3 + 1", "w0", "2**w1", "w1 ^", "foo", "w1^-2", "1 +", "* w1"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(InputError):
        parse(bad, 2)


def test_parse_exponent_overflow():
    with pytest.raises(InputError):
        parse("w1^10000001", 1)


@given(polys(1))
def test_parse_render_round_trip_rank1(p):
    assert parse(render(p), 1) == p


@given(polys(3))
def test_parse_render_round_trip_rank3(p):
    assert parse(render(p), 3) == p


def test_render_orders_terms_by_descending_lattice_point():
    p = CharPoly(2, {(0, 0): 1, (1, -3): 2, (-1, 5): 1, (1, 2): 1})
    assert render(p) == "w1*w2^2 + 2*w1^4*rho^3 + 1 + w2^6*rho"


# --- the one-pass reader against the full parser ---------------------------

def full_terms(text, rank):
    """Lattice points and coefficients of the terms, by the oracle's
    recursive-descent parser."""
    raw = oracles.Parser(text, "w", rank, "rho").parse()
    return [(tuple(x - e[rank] for x in e[:rank]), c) for e, c in raw]


def full_parse(text, rank):
    return CharPoly(rank, full_terms(text, rank))


def outcome(f, *args):
    try:
        return f(*args)
    except InputError as exc:
        return exc.code, str(exc)


@settings(max_examples=250, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda r: st.tuples(st.just(r), poly_text.texts("w", r, "rho", polys(r).map(render)))
    )
)
def test_parse_agrees_with_the_full_parser(case):
    rank, text = case
    assert outcome(parse, text, rank) == outcome(full_parse, text, rank)


@given(st.integers(1, 4).flatmap(polys))
def test_render_output_takes_the_one_pass_reader(p):
    text = render(p)
    with poly_text.one_pass_only():
        assert parse(text, p.rank) == full_parse(text, p.rank) == p


def test_one_pass_reader_reads_rho_repeats_and_zero_exponents():
    text = "-3*w1^2*w1*rho^0 + rho - 0 + 2"
    with poly_text.one_pass_only():
        assert parse(text, 2) == full_parse(text, 2)
    assert parse(text, 2) == CharPoly(2, {(3, 0): -3, (-1, -1): 1, (0, 0): 2})


@pytest.mark.parametrize(
    "text",
    [
        " w1", "w1 ", "w1+rho", "w1  + rho", "w1 + rho\n", "2 * w1", "w1^ 2", "- w1",
        "w3", "w0", "w01", "W1", "x", "w1**w2", "w1*", "*w1", "", "-", "w1 + ", "w1 + + rho",
        "w1^²", "w1^٣", "٣*w1", "w1^", "w1^1000001", "w1^00000002",
        "w1^600000*w1^600000", "w1^1000000*w1", "w1^" + "9" * 5000, "1" * 5000 + "*w1",
    ],
)
def test_one_pass_reader_leaves_other_text_to_the_full_parser(text):
    assert outcome(parse, text, 2) == outcome(full_parse, text, 2)


@pytest.mark.parametrize(
    "text, error",
    [
        # a character outside the grammar comes before every other error,
        # in text with other spacing and in text spaced as render writes it
        ("w1 + + rho ²", ("parse-error", "unexpected input at '²'")),
        ("w1**w2 + rho/2", ("parse-error", "unexpected input at '/2'")),
        # within a term, errors come in token order
        ("w1^600000*w1^600000**w1", ("exponent-overflow", "accumulated exponent too large")),
    ],
)
def test_reader_reports_the_parsers_first_error(text, error):
    assert outcome(parse, text, 2) == outcome(full_parse, text, 2) == error


@pytest.mark.parametrize("text", ["w1 2", "w 12", "1 2*w3", "w1\t2*w3", "w1 2^3", "w12", "w1  *  w12"])
def test_reader_keeps_whitespace_between_words_at_rank_12(text):
    # "w1 2" is two tokens, w1 and 2, never w12
    assert outcome(parse, text, 12) == outcome(full_parse, text, 12)


def test_reader_separates_words_that_whitespace_separates():
    assert outcome(parse, "w1 2", 12) == ("parse-error", "expected '+' or '-', got '2'")
    assert outcome(parse, "w 12", 12) == ("parse-error", "unknown symbol 'w'")
    assert parse("w1  *  w12", 12) == CharPoly(12, {(1,) + (0,) * 10 + (1,): 1})


@given(st.integers(1, 4).flatmap(polys))
def test_parse_validates_its_text_once(p):
    with mock.patch.object(charpoly._TermDict, "_validated", side_effect=AssertionError("validated twice")):
        assert parse(render(p), p.rank).terms == p.terms


def test_long_digit_runs_are_input_errors():
    # leading zeros do not count toward the bound, nor toward int()'s limit
    assert parse("w1^" + "0" * 5000 + "7", 1) == CharPoly(1, {(7,): 1})
    with pytest.raises(InputError) as info:
        parse("w1^" + "0" * 10 + "1" * 5000, 1)
    assert info.value.code == "exponent-overflow"
    assert parse("w" + "0" * 5000 + "1", 1) == CharPoly(1, {(1,): 1})
    with pytest.raises(InputError) as info:
        parse("w" + "9" * 5000, 1)
    assert info.value.code == "rank-mismatch"
    with pytest.raises(InputError) as info:
        parse("1" * 5000, 1)
    assert info.value.code == "parse-error"


@pytest.mark.parametrize("size", [2.0, True, "2"], ids=["float", "bool", "str"])
def test_a_term_dict_size_must_be_an_int(size):
    # True would be read as one variable, and 2.0 kept as the size or fail deep inside
    for f, args, name in (
        (CharPoly, (size, {(1, 0): 1}), "rank"),
        (CharPoly.one, (size,), "rank"),
        (parse, ("w1", size), "rank"),
        (YPoly, (size, {(1,): 1}), "nvars"),
        (YPoly.one, (size,), "nvars"),
        (parse_ypoly, ("y1", size), "nvars"),
    ):
        assert outcome(f, *args) == ("invalid-rank", f"{name} must be an integer"), f.__name__


def test_charpoly_boundary_errors():
    for rank in (0, -1):
        with pytest.raises(InputError) as info:
            CharPoly(rank)
        assert (info.value.code, str(info.value)) == ("invalid-rank", "rank must be positive")
        # parse reports an error in the text first, then the rank's
        assert outcome(parse, "5 + rho", rank) == ("invalid-rank", "rank must be positive")
        assert outcome(parse, "w1", rank) == ("rank-mismatch", f"variable 'w1' out of range for rank {rank}")
