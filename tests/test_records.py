"""The library's immutable records: construction, repr, equality, hashing,
immutability and pickling, pinned for each of the six."""

import pickle

import pytest

from flagrep import (
    CartanData,
    Certificate,
    CohomHom,
    NotInOmega,
    SchurRealization,
    TorusRestriction,
    builtin_cartan,
    check_realizable,
    cohom_from_rows,
    custom_cartan,
    realize_schur,
)
from flagrep import realize as realize_module

A2 = builtin_cartan("A", 2)


def records():
    """One instance of each record, with the repr it must have."""
    return [
        (A2, "CartanData(rank=2, cartan_matrix=((2, -1), (-1, 2)), symmetrizer=(1, 1), label='A2')"),
        (Certificate(summands=(((1, 1), 1),), total_dim=8), "Certificate(summands=(((1, 1), 1),), total_dim=8)"),
        (NotInOmega("x"), "NotInOmega(reason='x', witness=None, deficit=None, expected=None, actual=None)"),
        (
            check_realizable(builtin_cartan("A", 1), cohom_from_rows([[2]])),
            "NotInOmega(reason='negative-coefficient', witness=(0,), deficit=-1, expected=None, actual=None)",
        ),
        (cohom_from_rows([[1, 0], [0, 1]]), "CohomHom(n=3, m=2, rows=((1, 0), (0, 1)))"),
        (TorusRestriction([[1], [-1]]), "TorusRestriction(weights=((1,), (-1,)))"),
        (
            realize_schur((2, 1, 0), 3),
            "SchurRealization(n=8, hom=CohomHom(n=8, m=2, rows=((1, 1), (2, -1), (-1, 2), (0, 0), (0, 0), "
            "(1, -2), (-2, 1))), symmetric_function=YPoly(3, 'y1^2*y2 + y1^2*y3 + y1*y2^2 + y1*y3^2 + "
            "y2^2*y3 + y2*y3^2 + 2'), matches=True)",
        ),
    ]


@pytest.mark.parametrize("record, text", records())
def test_record_repr_is_pinned(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, _", records())
def test_record_refuses_assignment_and_deletion(record, _):
    name = next(iter(vars(type(record)).get("__annotations__")))
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 0


@pytest.mark.parametrize("record, _", records())
def test_record_survives_a_pickle_round_trip(record, _):
    again = pickle.loads(pickle.dumps(record))
    assert type(again) is type(record)
    assert again == record
    assert repr(again) == repr(record)


def test_hashing_a_record_leaves_its_pickle_as_it_was():
    # a stored hash of a str field would be wrong in a process with another seed
    fresh = custom_cartan(A2.cartan_matrix, label="A2")
    hashed = custom_cartan(A2.cartan_matrix, label="A2")
    hash(hashed)
    assert pickle.dumps(hashed) == pickle.dumps(fresh)


def test_records_compare_by_value_and_class():
    again = custom_cartan(A2.cartan_matrix, label="A2")
    assert again is not A2 and again == A2 and hash(again) == hash(A2)
    assert hash(A2) == hash((2, ((2, -1), (-1, 2)), (1, 1), "A2"))
    assert custom_cartan(A2.cartan_matrix, label="other") != A2
    assert A2.__eq__((2, A2.cartan_matrix, (1, 1), "A2")) is NotImplemented
    assert A2 != (2, A2.cartan_matrix, (1, 1), "A2")

    cert = Certificate((((1, 1), 1),), 8)
    assert cert == Certificate(summands=(((1, 1), 1),), total_dim=8)
    assert hash(cert) == hash(Certificate((((1, 1), 1),), 8))
    assert cert != Certificate((((1, 1), 1),), 9)
    assert cert.__eq__(NotInOmega("x")) is NotImplemented

    assert NotInOmega("x", (0,), -1) == NotInOmega(reason="x", witness=(0,), deficit=-1)
    assert hash(NotInOmega("x")) == hash(NotInOmega("x", None, None, None, None))
    assert NotInOmega("x") != NotInOmega("y")

    hom = CohomHom(3, 2, [[1, 0], [0, 1]])
    assert hom == CohomHom(n=3, m=2, rows=((1, 0), (0, 1)))
    assert hash(hom) == hash(cohom_from_rows([[1, 0], [0, 1]]))
    assert hom != CohomHom(3, 2, [[1, 0], [0, 2]])

    tr = TorusRestriction([[1], [-1]])
    assert tr == TorusRestriction(weights=((1,), (-1,)))
    assert hash(tr) == hash(TorusRestriction(((1,), (-1,))))
    assert tr != TorusRestriction([[-1], [1]])

    sr = realize_schur((2, 1, 0), 3)
    assert sr == realize_schur((2, 1, 0), 3)
    assert sr != realize_schur((1, 0), 3)
    with pytest.raises(TypeError):  # a YPoly field is not hashable
        hash(sr)


def test_not_in_omega_defaults():
    report = NotInOmega("x")
    assert report.reason == "x"
    assert (report.witness, report.deficit, report.expected, report.actual) == (None,) * 4
    assert report.to_json_dict() == {"certified": False, "reason": "x"}


def test_record_constructors_take_positional_and_keyword_arguments():
    built = CartanData(2, A2.cartan_matrix, (1, 1), "A2")
    assert built == A2 == CartanData(rank=2, cartan_matrix=A2.cartan_matrix, symmetrizer=(1, 1), label="A2")
    assert CartanData(2, A2.cartan_matrix, label="A2", symmetrizer=(1, 1)) == A2
    assert NotInOmega("x", actual=3).actual == 3
    for bad in (
        lambda: NotInOmega(),
        lambda: NotInOmega("x", None, None, None, None, None),
        lambda: NotInOmega("x", reason="y"),
        lambda: NotInOmega("x", colour=1),
        lambda: CartanData(2, A2.cartan_matrix, (1, 1)),
    ):
        with pytest.raises(TypeError):
            bad()


def test_cartan_data_keeps_its_cached_root_data():
    built = CartanData(2, A2.cartan_matrix, (1, 1), "A2")
    assert built.positive_roots == A2.positive_roots
    assert built.positive_roots is built.positive_roots
    assert built.height_vector is built.height_vector
    again = pickle.loads(pickle.dumps(built))
    assert again.positive_roots == A2.positive_roots and again.weyl_denominator == A2.weyl_denominator


def test_post_init_is_looked_up_on_the_class(monkeypatch):
    calls = []
    original = CohomHom.__post_init__
    monkeypatch.setattr(CohomHom, "__post_init__", lambda self: calls.append(self.n) or original(self))
    hom = cohom_from_rows([[1], [2]])
    assert calls == [3] and hom.rows == ((1,), (2,))
    with pytest.raises(Exception, match="n must equal"):
        realize_module.CohomHom(n=4, m=1, rows=[[1]])


def test_schur_realization_unpacks_to_three_values():
    result = realize_schur((2, 1, 0), 3)
    n, hom, sf = result
    assert (n, hom, sf) == (result.n, result.hom, result.symmetric_function)
    assert isinstance(result, SchurRealization) and result.matches
