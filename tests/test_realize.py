import enum
import importlib
import pickle
import random

import pytest

from flagrep import (
    Certificate,
    CohomHom,
    InputError,
    NotInOmega,
    TorusRestriction,
    cartan_from_tag,
    certificate_character,
    check_realizable,
    cohom_from_json,
    cohom_from_rows,
    dominant_weights_up_to_dim,
    induced_hom,
    realize_schur,
    s_map,
    schur,
    schur_dim,
    torus_restriction_from_certificate,
    verify_factorization,
    weight_multiplicities,
    weights_of_schur,
)
from flagrep import characters as characters_module
from flagrep import realize as realize_module
from flagrep.charpoly import CharPoly, render
from flagrep.schur import YPoly, alpha

schur_module = importlib.import_module("flagrep.schur")  # flagrep.schur is also a function

A1 = cartan_from_tag("A1")
A2 = cartan_from_tag("A2")


# --- the s-invariant ---------------------------------------------------------

def test_s_map_forced_inverse():
    assert render(s_map(cohom_from_rows([[1]]))) == "w1 + rho"
    assert render(s_map(cohom_from_rows([[2]]))) == "w1^2 + rho^2"
    assert render(s_map(cohom_from_rows([[1], [0]]))) == "w1 + 1 + rho"


def test_s_map_counts_repeated_rows():
    p = s_map(cohom_from_rows([[1], [1]]))
    assert p.terms == {(1,): 2, (-2,): 1}


def test_s_map_grading():
    rng = random.Random(7)
    for _ in range(10**4):
        m = rng.randint(1, 4)
        n = rng.randint(2, 8)
        rows = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n - 1)]
        h = cohom_from_rows(rows)
        assert h.n == n
        assert s_map(h).evaluate_at_one() == n


def test_cohom_validation():
    with pytest.raises(InputError):
        CohomHom(n=3, m=1, rows=((1,),))  # n disagrees with rows
    with pytest.raises(InputError):
        CohomHom(n=1, m=1, rows=())  # point target
    with pytest.raises(InputError):
        cohom_from_rows([[1, 0], [1]])


def test_s_map_matches_validated_sum():
    for rows in (
        [[1, 0], [1, 0], [-1, 1]],  # repeated rows
        [[1, 0], [-2, 0]],  # the derived row (1, 0) repeats the first
        [[0, 0], [0, 0], [0, 0]],  # every monomial is 1
        [[3, -1], [-4, 2], [0, 5], [1, -6]],
    ):
        for h in (cohom_from_rows(rows), CohomHom(n=len(rows) + 1, m=2, rows=rows)):
            expected = CharPoly(h.m, [(w, 1) for w in h.rows + (h.derived_row,)])
            assert s_map(h) == expected
            assert s_map(h) == CharPoly(h.m, s_map(h).terms)


def test_s_map_matches_validated_sum_random():
    rng = random.Random(11)
    for _ in range(500):
        m = rng.randint(1, 3)
        rows = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(rng.randint(1, 7))]
        h = cohom_from_rows(rows)
        assert s_map(h) == CharPoly(m, [(w, 1) for w in h.rows + (h.derived_row,)])


@pytest.mark.parametrize(
    "rows, bad",
    [
        (((1, 0), (True, 0), (0, 1)), "(True, 0)"),
        (((1, 0), (0, 1.0), (0, 1)), "(0, 1.0)"),
        (((1, 0), (2,), (0, 1)), "(2,)"),
        (((1, 0), (0, 1), (1, 2, 3)), "(1, 2, 3)"),
        (((1, 0), (True, 0), (1.0, 0)), "(True, 0)"),
        (((1, 0), (0, 1.0), (True, 0)), "(0, 1.0)"),
        (((1, 0), (2,), (True, 0)), "(2,)"),
        (((1, 0), (0, 1.0), 5), "(0, 1.0)"),  # a row with no length comes later
    ],
)
def test_cohom_rejects_first_bad_row(rows, bad):
    with pytest.raises(InputError) as info:
        CohomHom(n=len(rows) + 1, m=2, rows=rows)
    assert info.value.code == "invalid-hom"
    assert str(info.value) == f"row {bad} is not an integer m-vector"


@pytest.mark.parametrize(
    "rows", [[[1, 0], [0, 1]], ([1, 0], [0, 1]), [(1, 0), (0, 1)], ((1, 0), [0, 1])]
)
def test_cohom_stores_rows_as_tuples(rows):
    h = CohomHom(3, 2, rows)
    tupled = CohomHom(3, 2, ((1, 0), (0, 1)))
    assert type(h.rows) is tuple and {type(r) for r in h.rows} == {tuple}
    assert h == tupled
    assert hash(h) == hash(tupled)
    assert len({h, tupled}) == 1


def test_torus_restriction_stores_weights_as_tuples():
    tr = TorusRestriction([[1, 0], [-1, 1], [0, -1]])
    tupled = TorusRestriction(((1, 0), (-1, 1), (0, -1)))
    assert type(tr.weights) is tuple and {type(w) for w in tr.weights} == {tuple}
    assert tr == tupled
    assert hash(tr) == hash(tupled)


def test_exact_tuple_rows_are_kept_equal():
    rows = ((1, 0), (0, 1))
    h = CohomHom(3, 2, rows)
    assert h.rows == rows and type(h.rows) is tuple
    assert {type(r) for r in h.rows} == {tuple}
    weights = ((1, 0), (-1, 1), (0, -1))
    tr = TorusRestriction(weights)
    assert tr.weights == weights and type(tr.weights) is tuple
    assert {type(w) for w in tr.weights} == {tuple}


@pytest.mark.parametrize(
    "rows, bad",
    [
        ([[1, 0], [True, 0]], "(True, 0)"),
        ([[1, 0], [0, 1, 2]], "(0, 1, 2)"),
        ([[1, 0], [1.0, 0]], "(1.0, 0)"),  # compares and hashes equal to the row before it
        ([[1, 0], [1]], "(1,)"),
        # a row that cannot be read into a tuple is named as given
        ([[1, 0], 5], "5"),
        ([5], "5"),
        ([None, [1, 0]], "None"),
    ],
)
def test_bad_list_row_is_named_in_tuple_form(rows, bad):
    for build in (cohom_from_rows, lambda r: CohomHom(n=len(r) + 1, m=2, rows=r)):
        with pytest.raises(InputError) as info:
            build(rows)
        assert info.value.code == "invalid-hom"
        assert str(info.value) == f"row {bad} is not an integer m-vector"


class Level(enum.IntEnum):
    ONE = 1


def test_cohom_accepts_int_enum_entries():
    h = CohomHom(n=3, m=2, rows=((Level.ONE, 0), (-1, Level.ONE)))
    assert h.rows == ((1, 0), (-1, 1))
    assert h.derived_row == (0, -1)


def test_int_enum_entries_are_stored_as_ints():
    h = CohomHom(n=3, m=2, rows=((Level.ONE, 0), (-1, Level.ONE)))
    assert {type(x) for row in h.rows for x in row} == {int}
    assert s_map(h) == CharPoly(2, {(1, 0): 1, (-1, 1): 1, (0, -1): 1})
    assert isinstance(check_realizable(A2, h), Certificate)
    tr = TorusRestriction(((Level.ONE, 0), (-1, Level.ONE), (0, -1)))
    assert verify_factorization(A2, tr).equal
    assert {type(x) for w in tr.weights for x in w} == {int}


@pytest.mark.parametrize(
    "weights, bad",
    [
        (((1, 0), (False, 0), (-1, 0)), "(False, 0)"),
        (((1, 0), (0, 0.0), (-1, 0)), "(0, 0.0)"),
        (((1, 0), (-1,), (0, 0)), "(-1,)"),
        (((1, 0), 5), "5"),
        ((5, (1, 0)), "5"),
    ],
)
def test_torus_restriction_rejects_first_bad_weight(weights, bad):
    with pytest.raises(InputError) as info:
        TorusRestriction(weights)
    assert info.value.code == "invalid-weights"
    assert str(info.value) == f"weight {bad} is not an integer vector"


# --- the intake pass ---------------------------------------------------------

def test_int_enum_rows_are_counted_with_equal_int_rows():
    h = cohom_from_rows([[Level.ONE, 0], [1, 0], [0, 1]])
    assert h.rows == ((1, 0), (1, 0), (0, 1))
    assert {type(x) for row in h.rows for x in row} == {int}
    assert s_map(h).terms == {(1, 0): 2, (0, 1): 1, (-2, -1): 1}
    # the per-row pass, which the enum entry forces, gives what the bulk pass gives
    assert h == cohom_from_rows([[1, 0], [1, 0], [0, 1]])
    assert s_map(h) == s_map(cohom_from_rows([[1, 0], [1, 0], [0, 1]]))


def test_checked_and_trusted_records_agree():
    rows = ((1, 0), (-1, 1), (1, 0), (0, 0))
    checked = cohom_from_rows([list(r) for r in rows])
    trusted = CohomHom._trusted(5, 2, rows)
    assert s_map(checked) == s_map(trusted)
    assert s_map(checked) == s_map(checked)  # the kept counts are not consumed
    assert checked == trusted and trusted == checked
    assert hash(checked) == hash(trusted)
    for record in (checked, trusted):
        again = pickle.loads(pickle.dumps(record))
        assert again == record and s_map(again) == s_map(record)


def test_s_map_counts_no_row_of_a_checked_record(monkeypatch):
    checked = cohom_from_rows([[1, 0], [1, 0], [0, 1]])
    expected = s_map(cohom_from_rows([[1, 0], [1, 0], [0, 1]]))
    monkeypatch.setattr(realize_module, "Counter", lambda rows: pytest.fail("rows counted again"))
    assert s_map(checked) == expected


@pytest.mark.parametrize(
    "build, given, code, message",
    [
        (lambda v: CohomHom(2, 1, v), 5, "invalid-hom", "rows must be a sequence, not int"),
        (TorusRestriction, 5, "invalid-weights", "weights must be a sequence, not int"),
        (cohom_from_rows, {(1, 0), (0, 1)}, "invalid-hom", "rows must be a sequence, not set"),
        (TorusRestriction, {(1,), (-1,)}, "invalid-weights", "weights must be a sequence, not set"),
    ],
)
def test_input_that_is_not_a_sequence_is_named(build, given, code, message):
    with pytest.raises(InputError) as info:
        build(given)
    assert (info.value.code, str(info.value)) == (code, message)


def test_cohom_json():
    hom, group = cohom_from_json({"group": "A2", "n": 3, "rows": [[1, 0], [-1, 1]]})
    assert group == "A2"
    assert hom.rows == ((1, 0), (-1, 1))
    assert hom.derived_row == (0, -1)
    with pytest.raises(InputError):
        cohom_from_json({"n": 2, "rows": [[1], [0]]})  # n mismatch
    with pytest.raises(InputError):
        cohom_from_json({"rows": []})


# --- realizability -----------------------------------------------------------

def test_realize_defining():
    result = check_realizable(A1, cohom_from_rows([[1]]))
    assert result == Certificate((((1,), 1),), 2)


def test_realize_double_weight_fails():
    result = check_realizable(A1, cohom_from_rows([[2]]))
    assert isinstance(result, NotInOmega)
    assert result.witness == (0,)
    assert result.deficit == -1


def test_realize_with_trivial_summand():
    result = check_realizable(A1, cohom_from_rows([[1], [0]]))
    assert isinstance(result, Certificate)
    assert result.total_dim == 3
    assert result.summands == (((1,), 1), ((0,), 1))


def test_realize_repeated_row_fails():
    result = check_realizable(A1, cohom_from_rows([[1], [1]]))
    assert isinstance(result, NotInOmega)


def test_realize_rank_mismatch():
    with pytest.raises(InputError):
        check_realizable(A2, cohom_from_rows([[1]]))


def test_certificates_reproduce_the_invariant():
    # soundness: the certified representation's character equals s(h)
    for rows in ([[1]], [[1], [0]], [[1], [-1], [0]]):
        h = cohom_from_rows(rows)
        result = check_realizable(A1, h)
        assert isinstance(result, Certificate)
        assert certificate_character(A1, result) == s_map(h)


# --- torus restrictions ------------------------------------------------------

def test_induced_hom_examples():
    tr = TorusRestriction(((1,), (-1,)))
    assert induced_hom(tr).rows == ((1,),)
    tr2 = TorusRestriction(((1, 0), (-1, 1), (0, -1)))
    assert induced_hom(tr2).rows == ((1, 0), (-1, 1))


def test_unbalanced_weights_rejected():
    with pytest.raises(InputError):
        TorusRestriction(((1,), (1,)))


def test_verify_factorization_examples():
    check = verify_factorization(A1, TorusRestriction(((1,), (-1,))))
    assert check.equal
    assert render(check.character) == "w1 + rho"
    assert render(check.via_cohomology) == "w1 + rho"

    ladder = verify_factorization(A1, TorusRestriction(((2,), (0,), (-2,))))
    assert ladder.equal
    assert render(ladder.character) == "w1^2 + 1 + rho^2"


def test_verify_factorization_from_character_weights():
    char = weight_multiplicities(A2, (1, 0))
    tr = TorusRestriction(tuple(sorted(char.terms, reverse=True)))
    check = verify_factorization(A2, tr)
    assert check.equal
    assert check.character == char


def test_torus_restriction_from_certificate_round_trip():
    cert = Certificate((((1, 1), 1), ((0, 0), 2)), 10)
    tr = torus_restriction_from_certificate(A2, cert)
    assert tr.n == 10
    check = verify_factorization(A2, tr)
    assert check.equal
    assert check.character == certificate_character(A2, cert)
    assert s_map(induced_hom(tr)) == check.character


def test_row_permutation_leaves_invariant_unchanged():
    rng = random.Random(3)
    base = [(2, -1), (-1, 1), (0, 1), (-1, -1)]
    ws = base + [tuple(-sum(c) for c in zip(*base))]
    reference = s_map(induced_hom(TorusRestriction(tuple(ws))))
    for _ in range(10):
        rng.shuffle(ws)
        assert s_map(induced_hom(TorusRestriction(tuple(ws)))) == reference


def test_verify_factorization_random_certificates():
    rng = random.Random(11)
    groups = [cartan_from_tag(t) for t in ("A1", "A2", "B2", "A3", "G2")]
    pools = {cd.label: dominant_weights_up_to_dim(cd, 12) for cd in groups}
    checked = 0
    while checked < 120:
        cd = rng.choice(groups)
        pool = pools[cd.label]
        summands = {}
        budget = 12
        for _ in range(rng.randint(1, 3)):
            lam, d = pool[rng.randrange(len(pool))]
            if d <= budget:
                summands[lam] = summands.get(lam, 0) + 1
                budget -= d
        total = sum(dict(pool)[lam] * m for lam, m in summands.items())
        if total < 2:  # a single trivial summand gives a one-point target
            continue
        cert = Certificate(tuple(summands.items()), total)
        tr = torus_restriction_from_certificate(cd, cert)
        check = verify_factorization(cd, tr)
        assert check.equal
        assert check.character == certificate_character(cd, cert)
        checked += 1


# --- the Schur realization workflow ------------------------------------------

def test_realize_schur_single_box():
    n, hom, image = realize_schur((1,), 2)
    assert n == 2
    assert hom.rows == ((1,),)
    assert image == schur((1,), 2)


def test_realize_schur_worked_example():
    n, hom, image = realize_schur((1, 1), 3)
    assert n == 3
    assert hom.rows == ((0, 1), (1, -1))
    assert image == schur((1, 1), 3)


def test_realize_schur_identity_on_slice():
    cases = {
        2: [(k,) for k in range(1, 7)],
        3: [(1,), (3,), (2, 1), (1, 1), (3, 2), (4, 2)],
        4: [(1,), (2,), (1, 1), (2, 1), (2, 2, 1), (3, 2, 1), (2, 2, 2)],
    }
    for m, mus in cases.items():
        for mu in mus:
            n, hom, image = realize_schur(mu, m)
            assert n == schur_dim(mu, m)
            assert alpha(s_map(hom)) == schur(mu, m)
            assert image == schur(mu, m)


def test_realize_schur_carries_the_check():
    result = realize_schur((2, 1), 3)
    assert result.matches is True
    assert tuple(result) == (result.n, result.hom, result.symmetric_function)


def test_realize_schur_check_compares_two_routes(monkeypatch):
    # a wrong s-invariant route must show as a mismatch, not be assumed away
    s_map_of = realize_module.s_map
    monkeypatch.setattr(realize_module, "s_map", lambda h: s_map_of(h) * 2)
    result = realize_schur((2, 1), 3)
    assert result.matches is False
    assert result.symmetric_function == schur((2, 1), 3) * 2


def _one_term_fewer(build):
    """``build`` with the last term of the polynomial it returns dropped."""
    def wrong(shape, m):
        terms = dict(build(shape, m).terms)
        terms.popitem()
        return YPoly._trusted(m, terms)
    return wrong


def test_realize_schur_check_shows_a_wrong_schur_route(monkeypatch):
    # the other side of the check: a wrong Schur builder must show too
    monkeypatch.setattr(realize_module, "_schur", _one_term_fewer(realize_module._schur))
    result = realize_schur((2, 1), 3)
    assert result.matches is False
    assert result.symmetric_function == schur((2, 1), 3)


def test_realize_schur_misses_the_character_cache_once():
    characters_module._dominant_character.cache_clear()
    assert realize_schur((2, 1), 4).matches is True
    info = characters_module._dominant_character.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_realize_schur_builds_the_type_a_character_once(monkeypatch):
    # the tableau weights are read off the sorted contents, built once; the
    # Schur polynomial goes through schur's builder, which lists no contents
    calls = []
    build = schur_module._contents
    monkeypatch.setattr(schur_module, "_contents", lambda *a: calls.append(a) or build(*a))
    result = realize_schur((2, 1), 4)
    assert calls == [((2, 1), 4)]
    assert result.matches is True
    assert result.symmetric_function == schur((2, 1), 4)


def test_realize_schur_checks_no_row_it_built(monkeypatch):
    # the tableau weights are exact int tuples already; CohomHom's check is for input
    monkeypatch.setattr(CohomHom, "__post_init__", lambda self: pytest.fail("rows re-checked"))
    result = realize_schur((2, 1), 4)
    assert result.matches is True
    assert (result.n, result.hom.n, result.hom.m) == (20, 20, 3)
    assert result.hom.rows == tuple(weights_of_schur((2, 1), 4)[:-1])


def test_realize_schur_rejects_full_last_part():
    with pytest.raises(InputError):
        realize_schur((1, 1), 2)


def test_realize_schur_rejects_empty():
    with pytest.raises(InputError):
        realize_schur((0, 0), 3)


def test_certified_maps_compose_with_flag_descent():
    # a certificate names a representation; its torus weights reproduce h
    h = cohom_from_rows([[1, 0], [-1, 1]])
    result = check_realizable(A2, h)
    assert isinstance(result, Certificate)
    tr = torus_restriction_from_certificate(A2, result)
    assert s_map(induced_hom(tr)) == s_map(h)


def test_schur_module_matrix_certifies_in_a2():
    # the map data realizing the two-row hook Schur polynomial is a genuine
    # homomorphism target: its invariant is the eight-dimensional character
    _, hom, _ = realize_schur((2, 1), 3)
    result = check_realizable(A2, hom)
    assert result == Certificate((((1, 1), 1),), 8)


def test_realize_boundary_errors():
    def error(f, *args, **kwargs):
        with pytest.raises(InputError) as info:
            f(*args, **kwargs)
        return info.value.code, str(info.value)

    assert error(CohomHom, n=2, m=0, rows=((),)) == ("invalid-hom", "rank m must be positive")
    assert error(cohom_from_rows, []) == ("invalid-hom", "need at least one row")
    for group in (5, ["A2"], {"tag": "A2"}):
        data = {"rows": [[1, 0], [-1, 1]], "group": group}
        assert error(cohom_from_json, data) == ("invalid-hom", "'group' must be a string tag")
    assert error(TorusRestriction, ((0, 0),)) == ("invalid-weights", "need at least two weights")
    assert error(TorusRestriction, ()) == ("invalid-weights", "need at least two weights")


def test_cohom_json_refuses_a_stated_n_that_is_not_an_int():
    rows = [[1, 0], [-1, 1]]
    for n, text in ((3.0, "3.0"), ("3", "'3'"), (None, "None"), ([3], "[3]"), (2, "2")):
        with pytest.raises(InputError) as info:
            cohom_from_json({"rows": rows, "n": n})
        assert (info.value.code, str(info.value)) == ("invalid-hom", f"stated n={text} but rows imply n=3")
    assert cohom_from_json({"rows": rows, "n": 3})[0] == cohom_from_rows(rows)


def test_cohom_json_round_trip():
    for rows, group in (([[1, 0], [-1, 1]], "A2"), ([[2], [0], [-1]], None), ([[1, 0, -1]], "B3")):
        h = cohom_from_rows(rows)
        assert cohom_from_json(h.to_json_dict(group)) == (h, group)
