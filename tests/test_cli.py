import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import pytest

from flagrep import cartan_from_tag, characters, custom_cartan, schur_dim, weight_of_partition
from flagrep import cli as cli_module
from flagrep import realize as realize_module
from flagrep.cli import build_parser, main
from flagrep.errors import _LIMITS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_char_golden(capsys):
    code, out, _ = run(capsys, "char", "A1", "1")
    assert (code, out) == (0, "w1 + rho\n")
    code, out, _ = run(capsys, "char", "A1", "2")
    assert (code, out) == (0, "w1^2 + 1 + rho^2\n")
    code, out, _ = run(capsys, "char", "A2", "1,0")
    assert (code, out) == (0, "w1 + w1*rho + w2^2*rho\n")


def test_char_determinism(capsys):
    first = run(capsys, "char", "A2", "2,2")
    second = run(capsys, "char", "A2", "2,2")
    assert first == second


def test_dim_golden(capsys):
    assert run(capsys, "dim", "A2", "1,1")[:2] == (0, "8\n")
    assert run(capsys, "dim", "G2", "0,1")[:2] == (0, "14\n")


def test_smap_golden(capsys):
    code, out, _ = run(capsys, "smap", '{"n":3,"rows":[[1],[0]]}')
    assert (code, out) == (0, "w1 + 1 + rho\n")
    code, out, _ = run(capsys, "smap", '{"n":2,"rows":[[2]]}')
    assert (code, out) == (0, "w1^2 + rho^2\n")


def test_realize_certified(capsys):
    code, out, _ = run(capsys, "realize", "A1", '{"n":2,"rows":[[1]]}')
    assert code == 0
    assert out == "certified\nsummands: V(1)\ndim: 2\n"


def test_realize_not_certified_exit_1(capsys):
    code, out, _ = run(capsys, "realize", "A1", '{"n":2,"rows":[[2]]}')
    assert code == 1
    assert "not-certified" in out
    assert "witness: [0]" in out
    assert "deficit: -1" in out
    assert "not certified by this criterion" in out


def test_realize_json_format(capsys):
    code, out, _ = run(capsys, "realize", "A1", '{"n":3,"rows":[[1],[0]]}', "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "summands": [{"lambda": [1], "mult": 1}, {"lambda": [0], "mult": 1}],
        "dim": 3,
    }
    code, out, _ = run(capsys, "realize", "A1", '{"n":2,"rows":[[2]]}', "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["certified"] is False
    assert payload["witness"] == [0]


def test_realize_group_mismatch(capsys):
    code, _, err = run(capsys, "realize", "A1", '{"group":"A2","n":3,"rows":[[1,0],[0,1]]}')
    assert code == 2
    assert "group-mismatch" in err


def test_verify_theorem_golden(capsys):
    code, out, _ = run(capsys, "verify-theorem", "A1", "[[1],[-1]]")
    assert code == 0
    assert out == "equal: true\ncharacter: w1 + rho\nvia-induced-map: w1 + rho\n"


def test_verify_theorem_unbalanced(capsys):
    code, _, err = run(capsys, "verify-theorem", "A1", "[[1],[1]]")
    assert code == 2
    assert "weights-not-balanced" in err


def test_schur_golden(capsys):
    code, out, _ = run(capsys, "schur", "1,1", "3")
    assert (code, out) == (0, "y1*y2 + y1*y3 + y2*y3\n")
    code, out, _ = run(capsys, "schur", "2,1,0", "3")
    assert code == 0
    assert out == "y1^2*y2 + y1^2*y3 + y1*y2^2 + y1*y3^2 + y2^2*y3 + y2*y3^2 + 2\n"


def test_alpha_golden(capsys):
    code, out, _ = run(capsys, "alpha", "A1", "w1 + rho")
    assert (code, out) == (0, "y1 + y2\n")


def test_alpha_requires_type_a(capsys):
    code, _, err = run(capsys, "alpha", "B2", "w1 + rho")
    assert code == 2
    assert "typea-required" in err


def test_alpha_malformed_polynomial(capsys):
    code, _, err = run(capsys, "alpha", "A1", "w1 + + rho")
    assert code == 2
    assert "parse-error" in err


@pytest.mark.parametrize(
    "poly, expected",
    [
        # text that is not in the form render writes: the full parser reads it
        ("w1+rho", (0, "y1 + y2*y3^2\n", "")),
        (" w1 + rho ", (0, "y1 + y2*y3^2\n", "")),
        ("2 * w1", (0, "2*y1\n", "")),
        ("w1^ 2", (0, "y1^2\n", "")),
        ("-w1 + 2*rho", (0, "-y1 + 2*y2*y3^2\n", "")),
        ("w1^²", (2, "", "error[parse-error]: unexpected input at '²'\n")),
        ("w9", (2, "", "error[rank-mismatch]: variable 'w9' out of range for rank 2\n")),
        ("w1^1000001", (2, "", "error[exponent-overflow]: exponent 1000001 exceeds 1000000\n")),
        ("w1^600000*w1^600000", (2, "", "error[exponent-overflow]: accumulated exponent too large\n")),
        ("", (2, "", "error[parse-error]: empty polynomial text\n")),
        ("w1 + + rho", (2, "", "error[parse-error]: unknown symbol '+'\n")),
        # digits other than ASCII ones are no digits of the grammar
        ("w٣", (2, "", "error[parse-error]: unexpected input at '٣'\n")),
        ("w1^٣", (2, "", "error[parse-error]: unexpected input at '٣'\n")),
        ("٣*w1", (2, "", "error[parse-error]: unexpected input at '٣*w1'\n")),
    ],
)
def test_alpha_text_outside_render_form(capsys, poly, expected):
    assert run(capsys, "alpha", "A2", poly) == expected


def test_alpha_over_long_exponent_exit_2(capsys):
    code, out, err = run(capsys, "alpha", "A1", "w1^" + "9" * 5000)
    assert (code, out) == (2, "")
    assert err.startswith("error[exponent-overflow]: exponent 9999")
    assert err.endswith(" exceeds 1000000\n")


def test_alpha_over_long_coefficient_exit_2(capsys):
    code, out, err = run(capsys, "alpha", "A1", "1" * 5000 + "*w1")
    limit = sys.get_int_max_str_digits()
    assert (code, out, err) == (2, "", f"error[parse-error]: coefficient has more than {limit} digits\n")


def test_cor3_golden(capsys):
    code, out, _ = run(capsys, "cor3", "1,1", "3")
    assert code == 0
    assert out == "n: 3\nrows: [[0, 1], [1, -1]]\nalpha-s: y1*y2 + y1*y3 + y2*y3\ncheck: ok\n"


def test_omega_golden(capsys):
    code, out, _ = run(capsys, "omega", "A1", "2")
    assert (code, out) == (0, "V(1)\n2*V(0)\n")
    code, out, _ = run(capsys, "omega", "A2", "3")
    assert (code, out) == (0, "V(1,0)\nV(0,1)\n3*V(0,0)\n")


def test_omega_json(capsys):
    code, out, _ = run(capsys, "omega", "A1", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == [
        {"summands": [{"lambda": [1], "mult": 1}], "dim": 2},
        {"summands": [{"lambda": [0], "mult": 2}], "dim": 2},
    ]


def test_omega_cap_exit_3(capsys):
    code, _, err = run(capsys, "omega", "A1", "100")
    assert code == 3
    assert "n-cap" in err
    assert run(capsys, "omega", "A1", "10", "--max-n", "5")[0] == 3
    assert run(capsys, "omega", "A1", "5", "--max-n", "5")[0] == 0


@pytest.mark.parametrize("cap", ["-5", "0"])
def test_omega_rejects_non_positive_cap(capsys, cap):
    expected = (2, "", f"error[invalid-cap]: --max-n must be positive, got {cap}\n")
    assert run(capsys, "omega", "A1", "3", "--max-n", cap) == expected
    assert run(capsys, "omega", "A1", "1", "--max-n", cap) == expected


def test_invalid_group_exit_2(capsys):
    code, _, err = run(capsys, "char", "D2", "1,0")
    assert code == 2
    assert "error[" in err


def test_invalid_weight_exit_2(capsys):
    assert run(capsys, "char", "A1", "1,0")[0] == 2
    assert run(capsys, "char", "A1", "x")[0] == 2
    assert run(capsys, "char", "A1", "-1")[0] == 2


def test_group_matrix_file(capsys, tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({"cartan": [[2, -1], [-1, 2]], "label": "su3"}))
    code, out, _ = run(capsys, "char", "--group-matrix", str(path), "1,0")
    assert (code, out) == (0, "w1 + w1*rho + w2^2*rho\n")


def test_group_matrix_bare_matrix(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[[2]]")
    assert run(capsys, "dim", "--group-matrix", str(path), "3")[:2] == (0, "4\n")


def test_group_matrix_label_must_be_a_string(capsys):
    # the label is part of the group's hash: a list or dict would fail in the character memo
    expected = (2, "", "error[invalid-cartan]: label must be a string\n")
    assert run(capsys, "char", "--group-matrix", '{"cartan":[[2]],"label":[1]}', "2") == expected
    assert run(capsys, "char", "--group-matrix", '{"cartan":[[2]],"label":5}', "2") == expected
    assert run(capsys, "realize", "--group-matrix", '{"cartan":[[2]],"label":{}}', '{"rows":[[1]]}') == expected


def test_group_matrix_invalid(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[[2,-2],[-2,2]]")
    code, _, err = run(capsys, "char", "--group-matrix", str(path), "1,0")
    assert code == 2
    assert "invalid-cartan" in err


def test_group_and_matrix_conflict(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[[2]]")
    assert run(capsys, "char", "A1", "1", "--group-matrix", str(path))[0] == 2


def test_missing_group(capsys):
    assert run(capsys, "char", "1")[0] == 2


def test_usage_error_exit_2(capsys):
    assert main(["realize"]) == 2
    assert main(["nonsense"]) == 2


def test_char_max_terms_cap(capsys):
    code, _, err = run(capsys, "char", "A3", "2,2,2", "--max-terms", "5")
    assert code == 3
    assert "term-cap" in err


def test_realize_max_terms_cap(capsys):
    # the cap applies to the characters used during the decomposition
    code, _, err = run(capsys, "realize", "A2", '{"n":8,"rows":[[1,1],[2,-1],[-1,2],[0,0],[0,0],[1,-2],[-2,1]]}', "--max-terms", "3")
    assert code == 3
    assert "term-cap" in err


def test_char_trivial_weight(capsys):
    assert run(capsys, "char", "A1", "0")[:2] == (0, "1\n")


def test_dim_rank_one_ladder(capsys):
    assert run(capsys, "dim", "A1", "3")[:2] == (0, "4\n")


def test_smap_single_row(capsys):
    assert run(capsys, "smap", '{"n":2,"rows":[[1]]}')[:2] == (0, "w1 + rho\n")


def test_alpha_reduced_monomial(capsys):
    # w2^2*rho collapses to the single variable y2
    assert run(capsys, "alpha", "A2", "w2^2*rho")[:2] == (0, "y2\n")


def test_schur_single_box(capsys):
    assert run(capsys, "schur", "1", "3")[:2] == (0, "y1 + y2 + y3\n")


def test_verify_theorem_defining_a2(capsys):
    code, out, _ = run(capsys, "verify-theorem", "A2", "[[1,0],[-1,1],[0,-1]]")
    assert code == 0
    assert out.splitlines()[0] == "equal: true"
    assert out.splitlines()[1] == "character: w1 + w1*rho + w2^2*rho"


def test_cor3_single_box(capsys):
    code, out, _ = run(capsys, "cor3", "1", "2")
    assert code == 0
    assert out == "n: 2\nrows: [[1]]\nalpha-s: y1 + y2\ncheck: ok\n"


def test_cor3_rejects_full_last_part(capsys):
    code, _, err = run(capsys, "cor3", "1,1", "2")
    assert code == 2
    assert "invalid-partition" in err


def test_cor3_prints_the_check_realize_schur_made(capsys, monkeypatch):
    # the CLI forms no Schur polynomial of its own for cor3
    monkeypatch.setattr(cli_module, "schur", None)
    assert run(capsys, "cor3", "1", "2") == (0, "n: 2\nrows: [[1]]\nalpha-s: y1 + y2\ncheck: ok\n", "")
    # a wrong s-invariant route in realize_schur shows in the printed check
    s_map = realize_module.s_map
    monkeypatch.setattr(realize_module, "s_map", lambda h: s_map(h) * 2)
    code, out, _ = run(capsys, "cor3", "1", "2")
    assert (code, out.splitlines()[-2:]) == (0, ["alpha-s: 2*y1 + 2*y2", "check: mismatch"])


def test_cor3_prints_a_mismatch_of_the_schur_route(capsys, monkeypatch):
    # a wrong Schur builder in realize_schur shows in the printed check too
    build = realize_module._schur

    def one_term_fewer(shape, m):
        q = build(shape, m)
        terms = dict(q.terms)
        terms.popitem()
        return type(q)._trusted(m, terms)

    monkeypatch.setattr(realize_module, "_schur", one_term_fewer)
    code, out, _ = run(capsys, "cor3", "2,1", "3")
    assert (code, out.splitlines()[-1]) == (0, "check: mismatch")


@pytest.mark.parametrize("mu, m", [((2, 1), 3), ((2, 2), 4), ((3, 2, 1), 5)])
def test_cor3_rows_line_is_the_rows_json(capsys, mu, m):
    # each run of equal rows is written once; its text must still be JSON's
    rows = realize_module.realize_schur(mu, m).hom.rows
    assert len(set(rows)) < len(rows)
    code, out, _ = run(capsys, "cor3", ",".join(map(str, mu)), str(m))
    assert code == 0
    assert out.splitlines()[1] == "rows: " + json.dumps([list(r) for r in rows])


def test_an_answer_into_a_closed_pipe_exits_141_and_prints_nothing():
    # a reader that stops early is no internal fault; the code is the shell's for SIGPIPE
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    command = [sys.executable, "-m", "flagrep"]
    for unbuffered in ("1", ""):  # the answer is written at once, or in main's flush
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": unbuffered}
        # 139 KB, more than a pipe holds: the reader takes 10 bytes and closes
        child = subprocess.Popen(
            [*command, "char", "B3", "4,4,4"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        head = child.stdout.read(10)
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert (child.wait(timeout=60), head, err) == (141, b"w1^20*rho^", b"")
        # a small answer into a pipe whose reader closed before the launch
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [*command, "schur", "2,1", "3"], stdout=write_end,
                stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (141, b"")


def test_cor3_counts_the_tableaux_of_long_rows_before_its_cap(capsys):
    start = time.perf_counter()
    assert run(capsys, "cor3", "100000000000", "3") == (
        3,
        "",
        "error[term-cap]: 5000000000150000000001 tableaux exceed cap 10000000\n",
    )
    assert time.perf_counter() - start < 1


def test_cor3_names_a_tableau_count_too_long_for_text_by_a_power_of_two(capsys):
    # both counts pass Python's 4,300-digit int-to-text limit
    for mu, m, k in [((20000,), 20000, 39991), ((3000, 2000, 1000), 9000, 21925)]:
        argv = (",".join(map(str, mu)), str(m))
        assert 2**k <= schur_dim(mu, m) < 2 ** (k + 1)
        assert run(capsys, "cor3", *argv) == (3, "", f"error[term-cap]: at least 2^{k} tableaux exceed cap 10000000\n")


def test_schur_of_a_long_row_in_many_variables_stops_before_the_cartan_matrix(capsys):
    # A19999 and A5999 have more than 10^6 roots; their matrices alone hold 4 * 10^8 and 3.6 * 10^7 entries
    for argv in (("schur", "20000", "20000"), ("schur", "3000,2000,1000", "9000")):
        start = time.perf_counter()
        assert run(capsys, *argv) == (3, "", "error[orbit-cap]: orbit size exceeds cap 1000000\n")
        assert time.perf_counter() - start < 1


def test_usage_errors_are_one_error_line(capsys):
    # a positional that starts with "-" reads as an option
    assert run(capsys, "dim", "A2", "-1,2") == (2, "", "error[usage]: unrecognized arguments: -1,2\n")
    assert run(capsys, "realize") == (2, "", "error[usage]: the following arguments are required: hom\n")
    code, out, err = run(capsys, "omega", "A2", "9" * 5001)
    assert (code, out) == (2, "") and err.startswith("error[usage]: argument n: invalid int value: '999")
    assert err.count("\n") == 1 and err.endswith("'\n")


def test_cli_boundary_errors(capsys, tmp_path):
    # a --group-matrix whose JSON is not a matrix, inline or in a file
    expected = (2, "", "error[invalid-cartan]: expected a JSON integer matrix\n")
    assert run(capsys, "dim", "--group-matrix", '{"cartan": 5}', "1") == expected
    path = tmp_path / "number.json"
    path.write_text("5")
    assert run(capsys, "dim", "--group-matrix", str(path), "1") == expected
    path.write_text('"A2"')
    assert run(capsys, "char", "--group-matrix", str(path), "1,0") == expected


def test_smap_refuses_a_stated_n_that_is_not_an_int(capsys):
    for n, text in (("2.0", "2.0"), ('"2"', "'2'"), ("3", "3")):
        expected = (2, "", f"error[invalid-hom]: stated n={text} but rows imply n=2\n")
        assert run(capsys, "smap", '{"rows": [[1]], "n": %s}' % n) == expected


def test_char_cap_from_the_weight_before_any_walk(capsys):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "char", "A1", "20000000")
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (3, "", f"error[term-cap]: support exceeds cap {_LIMITS['term-cap']}\n")


def test_deeply_nested_json_is_invalid_input(capsys):
    nested = "[" * 100_000 + "]" * 100_000
    for argv in (("realize", "A1", nested), ("smap", nested)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error[invalid-json]: malformed JSON: ")
        assert err.count("\n") == 1


def test_omega_whole_answer_or_none(capsys):
    code, out, err = run(capsys, "omega", "A1", "3000", "--max-n", "5000")
    assert (code, out) == (3, "")
    assert err == f"error[term-cap]: certificates of dimension 3000 exceed cap {_LIMITS['term-cap']}\n"
    code, out, _ = run(capsys, "omega", "A1", "25", "--max-n", "25", "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 1958  # p(25)


def test_omega_determinism(capsys):
    assert run(capsys, "omega", "B2", "5") == run(capsys, "omega", "B2", "5")


def test_char_term_cap_fires_before_freudenthal(capsys, monkeypatch):
    from flagrep import _kernels

    def fail(*args):
        raise AssertionError("Freudenthal ran past the term cap")

    monkeypatch.setattr(_kernels, "freudenthal", fail)
    code, out, err = run(capsys, "char", "A1", "1000000", "--max-terms", "1000")
    assert (code, out) == (3, "")
    assert err == "error[term-cap]: support exceeds cap 1000\n"


@pytest.mark.parametrize("cap", [None, "100000"])
def test_char_exact_term_count_fires_before_freudenthal(capsys, monkeypatch, cap):
    # the top orbit alone has |W(C8)| = 10,321,920 weights; the count is 1,827,709,713
    from flagrep import _kernels

    def fail(*args):
        raise AssertionError("Freudenthal ran past the term cap")

    monkeypatch.setattr(_kernels, "freudenthal", fail)
    argv = ["char", "C8", "1,1,1,1,1,1,1,1"] + (["--max-terms", cap] if cap else [])
    limit = cap or _LIMITS["term-cap"]
    assert run(capsys, *argv) == (3, "", f"error[term-cap]: support exceeds cap {limit}\n")


@pytest.mark.parametrize(
    "code, value, argv, message",
    [
        ("term-cap", 11, ["char", "A2", "6,6"], "support exceeds cap 11"),
        ("term-cap", 11, ["schur", "12", "40"], "support exceeds cap 11"),
        ("term-cap", 11, ["omega", "A1", "30"], "certificates of dimension 30 exceed cap 11"),
        ("n-cap", 2, ["omega", "A2", "3"], "n=3 exceeds cap 2"),
        ("rank-cap", 1, ["char", "A2", "1,0"], "character rank cap is 1"),
        ("orbit-cap", 30, ["schur", "7", "7"], "orbit size exceeds cap 30"),
    ],
)
def test_a_lowered_limit_reaches_the_cached_parser(capsys, monkeypatch, code, value, argv, message):
    # the parser is built before the entry is lowered, and not rebuilt
    build_parser()
    monkeypatch.setitem(_LIMITS, code, value)
    assert run(capsys, *argv) == (3, "", f"error[{code}]: {message}\n")


def _no_root_data(monkeypatch):
    from flagrep import cartan

    def fail(*args):
        raise AssertionError("root data built before the weight was checked")

    monkeypatch.setattr(cartan, "_positive_roots", fail)


_ONES_400 = ",".join(["1"] * 400)
_OVER_RANK = (3, "", "error[rank-cap]: character rank cap is 8\n")

# every subcommand that takes a group, on inputs that need none of A400's roots
_GROUP_CASES = [
    (["char", "A400", _ONES_400], _OVER_RANK),
    (["char", "A9", "1,1,1,1,1,1,1,1,1"], _OVER_RANK),
    (["dim", "A400", "1"], (2, "", "error[rank-mismatch]: weight length 1 for rank 400\n")),
    (
        ["realize", "A400", '{"n":2,"rows":[[1]]}'],
        (2, "", "error[rank-mismatch]: hom rank 1 for group rank 400\n"),
    ),
    # the greedy's order, 2 rho-check, is one solve in the Cartan matrix
    (["realize", "A400", json.dumps({"rows": [[1] + [0] * 399]})], _OVER_RANK),
    (
        ["realize", "A400", json.dumps({"rows": [[1, -1] + [0] * 398]})],
        (
            1,
            "not-certified\nreason: leading-weight-not-dominant\n"
            f"witness: [-1, 1{', 0' * 398}]\n"
            "note: not certified by this criterion; existence of a map is not ruled out\n",
            "",
        ),
    ),
    (
        ["verify-theorem", "A400", "[[1],[-1]]"],
        (2, "", "error[rank-mismatch]: weights rank 1 for group rank 400\n"),
    ),
    (["alpha", "A400", "w1"], (0, "y1\n", "")),
    (["omega", "A400", "0"], (2, "", "error[invalid-dimension]: n must be a positive integer\n")),
    (["omega", "A400", "65"], (3, "", "error[n-cap]: n=65 exceeds cap 64\n")),
    # every nonzero weight of A400 has dimension at least 401
    (["omega", "A400", "2"], (0, f"2*V({','.join(['0'] * 400)})\n", "")),
]


@pytest.mark.parametrize(
    "argv,expected",
    _GROUP_CASES,
    ids=[" ".join(a[:12] for a in argv) for argv, _ in _GROUP_CASES],
)
def test_group_subcommands_check_their_input_before_any_root_data(
    capsys, monkeypatch, argv, expected
):
    # A400 has 80,200 positive roots, which take tens of seconds to build
    _no_root_data(monkeypatch)
    assert run(capsys, *argv) == expected


def test_height_vector_needs_no_root_data(monkeypatch):
    # 2 rho-check of A_n is the sum of its positive coroots: i * (n + 1 - i) at node i
    _no_root_data(monkeypatch)
    expected = tuple(i * (401 - i) for i in range(1, 401))
    fresh = custom_cartan(cartan_from_tag("A400").cartan_matrix, label="A400")
    assert fresh.height_vector == cartan_from_tag("A400").height_vector == expected


def test_every_group_subcommand_has_a_root_data_case():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if a.choices and a.dest == "command"]
    takes_group = {
        name
        for name, sub in subparsers.choices.items()
        if "--group-matrix" in sub._option_string_actions
    }
    assert takes_group == {argv[0] for argv, _ in _GROUP_CASES}


@pytest.mark.parametrize("command", ["char", "dim"])
def test_weight_length_is_checked_before_a_large_tag_is_built(capsys, monkeypatch, command):
    # A400 has 80,200 positive roots, which take tens of seconds to build
    _no_root_data(monkeypatch)
    expected = (2, "", "error[rank-mismatch]: weight length 1 for rank 400\n")
    assert run(capsys, command, "A400", "1") == expected


@pytest.mark.parametrize(
    "argv,expected",
    [
        # group errors first, then the weight's text, then the cap, then its length
        (["char", "A0", "x"], "invalid-group]: series A needs rank >= 1"),
        (["dim", "G3", "x"], "invalid-group]: series G needs rank 2"),
        (["dim", "Q400", "1"], "invalid-group]: unknown series 'Q'"),
        (["char", "A400,1", "1"], "invalid-group]: cannot parse group tag 'A400,1'"),
        (["char", "A400", "x", "--max-terms", "0"], "invalid-weight]: cannot parse weight 'x'"),
        (["dim", "A400", "1,"], "invalid-weight]: cannot parse weight '1,'"),
        (["char", "A400", "1", "--max-terms", "0"], "invalid-cap]: --max-terms must be positive, got 0"),
        (["char", "B400", "1,1"], "rank-mismatch]: weight length 2 for rank 400"),
    ],
)
def test_large_tag_errors_keep_their_precedence(capsys, monkeypatch, argv, expected):
    _no_root_data(monkeypatch)
    assert run(capsys, *argv) == (2, "", f"error[{expected}\n")


@pytest.mark.parametrize("cap", ["-5", "0"])
def test_char_rejects_non_positive_cap(capsys, cap):
    code, out, err = run(capsys, "char", "A1", "1", "--max-terms", cap)
    assert (code, out) == (2, "")
    assert "error[invalid-cap]" in err


@pytest.mark.parametrize("cap", ["-5", "0"])
def test_realize_rejects_non_positive_cap(capsys, cap):
    code, out, err = run(capsys, "realize", "A1", '{"n":2,"rows":[[1]]}', "--max-terms", cap)
    assert (code, out) == (2, "")
    assert "error[invalid-cap]" in err


def test_alpha_decides_type_a_from_the_matrix(capsys, tmp_path):
    b2 = tmp_path / "b2.json"
    b2.write_text(json.dumps({"cartan": [[2, -2], [-1, 2]], "label": "Abc"}))
    code, _, err = run(capsys, "alpha", "--group-matrix", str(b2), "w1 + rho")
    assert code == 2
    assert "typea-required" in err
    a2 = tmp_path / "a2.json"
    a2.write_text(json.dumps({"cartan": [[2, -1], [-1, 2]], "label": "custom"}))
    poly = "w1 + w1*rho + w2^2*rho"
    expected = run(capsys, "alpha", "A2", poly)
    assert expected[0] == 0
    assert run(capsys, "alpha", "--group-matrix", str(a2), poly) == expected


def test_realize_json_group_checked_against_group_matrix(capsys, tmp_path):
    a2 = tmp_path / "a2.json"
    a2.write_text("[[2,-1],[-1,2]]")
    rows = '"n":3,"rows":[[1,0],[-1,1]]'
    code, out, err = run(capsys, "realize", "--group-matrix", str(a2), "{%s,\"group\":\"B2\"}" % rows)
    assert (code, out) == (2, "")
    assert "group-mismatch" in err
    expected = run(capsys, "realize", "A2", "{%s}" % rows)
    assert expected[0] == 0
    assert run(capsys, "realize", "--group-matrix", str(a2), "{%s,\"group\":\"A2\"}" % rows) == expected


def test_json_file_that_is_not_utf8_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "hom.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "realize", "A1", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error[invalid-json]: cannot read {str(path)!r}: 'utf-8' codec can't decode")


def test_schur_in_no_variables_reports_the_ypoly_rank_error(capsys):
    assert run(capsys, "schur", "0", "0") == (2, "", "error[invalid-rank]: need at least one variable\n")


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_repeated_calls_give_the_same_result(capsys):
    calls = [
        ("realize",),  # usage error first
        ("char", "A2", "1,1"),
        ("realize", "A2", '{"n":3,"rows":[[1,0],[-1,1]]}'),
        ("realize", "A2", '{"n":3,"rows":[[1,0],[1,0]]}'),
        ("dim", "B2", "1,x"),
        ("schur", "2,1", "3"),
    ]
    first = [run(capsys, *argv) for argv in calls]
    assert [r[0] for r in first] == [2, 0, 0, 1, 2, 0]
    assert first[0][2] == "error[usage]: the following arguments are required: hom\n"
    for _ in range(2):
        assert [run(capsys, *argv) for argv in calls] == first


def test_internal_error_exit_4(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(characters, "weight_multiplicities", broken)
    code, out, err = run(capsys, "char", "A2", "1,1")
    assert (code, out) == (4, "")
    assert err == "error[internal]: RuntimeError: boom\n"


# --- byte pins: schur, cor3 and alpha -----------------------------------------

def _pin_partitions(total, max_parts):
    """Partitions of size <= total with at most max_parts nonzero parts."""
    out = [()]
    for size in range(1, total + 1):
        def rec(prefix, remaining, cap):
            if remaining == 0:
                out.append(tuple(prefix))
                return
            if len(prefix) == max_parts:
                return
            for part in range(min(remaining, cap), 0, -1):
                rec(prefix + [part], remaining - part, part)
        rec([], size, size)
    return out


def _pin_grid():
    """CLI calls covering every small case, trailing zeros and error paths."""
    calls = []
    for m in range(1, 6):
        for mu in _pin_partitions(4, m):
            text = ",".join(map(str, mu))
            if mu:
                calls.append(("schur", text, str(m)))
                calls.append(("cor3", text, str(m)))
                calls.append(("schur", text + ",0", str(m)))
                calls.append(("cor3", text + ",0", str(m)))
            if m >= 2:
                lam = ",".join(map(str, weight_of_partition(mu, m)))
                calls.append(("char", f"A{m - 1}", lam))
    calls += [
        # groups past the character rank cap: schur and cor3 still answer
        ("schur", "1", "12"),
        ("cor3", "2,1", "10"),
        ("schur", "0", "0"),
        ("schur", "1", "0"),
        ("schur", "0", "-1"),
        ("schur", "2,1,1", "2"),
        ("cor3", "1,1", "2"),
        ("cor3", "1,1,1", "2"),
        ("cor3", "0", "3"),
        ("cor3", "1", "1"),
        ("schur", "1,2", "3"),
        ("cor3", "x", "3"),
    ]
    return calls


def _pin_digest(capsys, calls):
    h = hashlib.sha256()
    for argv in calls:
        code, out, err = run(capsys, *argv)
        h.update(repr((argv, code, out, err)).encode())
        if argv[0] == "char" and code == 0:
            # the character's text is the alpha input: pin alpha on it too
            code, out, err = run(capsys, "alpha", argv[1], out.strip())
            h.update(repr(("alpha", code, out, err)).encode())
    return h.hexdigest()


def test_schur_cor3_alpha_byte_pins(capsys):
    assert run(capsys, "cor3", "2,1", "3") == (
        0,
        "n: 8\n"
        "rows: [[1, 1], [2, -1], [-1, 2], [0, 0], [0, 0], [1, -2], [-2, 1]]\n"
        "alpha-s: y1^2*y2 + y1^2*y3 + y1*y2^2 + y1*y3^2 + y2^2*y3 + y2*y3^2 + 2\n"
        "check: ok\n",
        "",
    )
    assert run(capsys, "schur", "2,1", "1") == (2, "", "error[invalid-partition]: partition (2, 1) has more than 1 parts\n")
    assert _pin_digest(capsys, _pin_grid()) == "21e0bc9f4c1506a0acb98c76ff43220cda90df9009b821f06c94e513c8c911c3"


def test_schur_cor3_many_variables(capsys):
    code, out, err = run(capsys, "schur", "1", "1000")
    assert (code, err) == (0, "")
    assert out == " + ".join(f"y{i}" for i in range(1, 1001)) + "\n"
    for argv, n, m in (
        (("schur", "1", "1000000"), 10**6, 10**6),
        (("cor3", "1,1", "1000"), 499500, 1000),
        (("schur", "0", "10000001"), 1, 10000001),  # the empty partition's one content
    ):
        assert run(capsys, *argv) == (
            3, "", f"error[term-cap]: {n} terms times {m} variables exceed cap 10000000\n"
        )



# --- integers past Python's int-to-text limit ---------------------------------

def _text(n: int) -> str:
    """Decimal text of ``n``, however many digits it has."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_over_long_json_integer_is_invalid_input(capsys):
    limit = sys.get_int_max_str_digits()
    hom = '{"n":2,"rows":[[1' + "0" * limit + "]]}"
    for argv in (("realize", "A1", hom), ("smap", hom)):
        assert run(capsys, *argv) == (2, "", f"error[invalid-json]: integer has more than {limit} digits\n")


def test_answers_past_the_digit_limit_are_written(capsys):
    limit = sys.get_int_max_str_digits()
    big = 10**2200
    # dim V(b, b) of A2 is (b + 1)^3, about 6,600 digits
    assert run(capsys, "dim", "A2", f"{big},{big}") == (0, _text((big + 1) ** 3) + "\n", "")
    # two rows of 4,300 nines: the derived row, -2 * row, has 4,301 digits
    nines = 10**limit - 1
    assert run(capsys, "smap", f'{{"n":3,"rows":[[{nines}],[{nines}]]}}') == (
        0, f"2*w1^{nines} + rho^{_text(2 * nines)}\n", ""
    )
    # a sum of coefficients, and a torus weight shifted by rho's exponent
    assert run(capsys, "alpha", "A1", f"{nines}*w1 + {nines}*w1") == (0, f"{_text(2 * nines)}*y1\n", "")
    code, out, err = run(capsys, "verify-theorem", "A2", f"[[{nines},-{nines}],[-{nines},{nines}]]")
    assert (code, err) == (0, "") and out.startswith("equal: true\n")
    assert out.count(f"w1^{_text(2 * nines)}*rho^{nines}") == 2  # weight (N, -N), on both sides
    # the limit holds again for the next input
    assert sys.get_int_max_str_digits() == limit
    assert run(capsys, "dim", "A1", "1" + "0" * limit) == (2, "", f"error[invalid-weight]: cannot parse weight {'1' + '0' * limit!r}\n")


@pytest.mark.parametrize(
    "report, text",
    [
        (characters.NotInOmega("negative-coefficient", witness=(0, -1), deficit=-2), "reason: negative-coefficient\nwitness: [0, -1]\ndeficit: -2\n"),
        (characters.NotInOmega("leading-weight-not-dominant", witness=(2, -1)), "reason: leading-weight-not-dominant\nwitness: [2, -1]\n"),
        (characters.NotInOmega("dimension-mismatch", expected=3, actual=2), "reason: dimension-mismatch\nexpected: 3\nactual: 2\n"),
    ],
)
def test_not_certified_text_lists_the_report_fields(capsys, report, text):
    note = "note: not certified by this criterion; existence of a map is not ruled out\n"
    cli_module._print_not_certified(report, "text")
    assert capsys.readouterr().out == "not-certified\n" + text + note
    cli_module._print_not_certified(report, "json")
    assert json.loads(capsys.readouterr().out) == report.to_json_dict()


# --- what a launch imports ------------------------------------------------------

def test_a_launch_imports_no_dataclasses_fractions_or_json():
    # a CLI launch answers most questions in about a millisecond, so its imports are most of its cost
    code = (
        "import io, sys\n"
        "heavy = ('dataclasses', 'inspect', 'fractions', 'decimal', 'json')\n"
        "import flagrep.cli\n"
        "print(sorted(set(heavy) & set(sys.modules)))\n"
        "assert flagrep.cli.main(['dim', 'A1', '1']) == 0\n"
        "print(sorted(set(heavy) & set(sys.modules)))\n"
        # the answer paths too; realize reads JSON, and cor3 writes its rows without it
        "for argv in (['char', 'B3', '1,0,1'], ['omega', 'B3', '8'], ['cor3', '2,1', '3'],\n"
        "             ['realize', 'A2', '{\"n\":3,\"rows\":[[1,0],[-1,1]]}']):\n"
        "    out, sys.stdout = sys.stdout, io.StringIO()\n"
        "    code = flagrep.cli.main(argv)\n"
        "    sys.stdout = out\n"
        "    print(argv[0], code, sorted(set(heavy) & set(sys.modules)))\n"
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    answers = "char 0 []\nomega 0 []\ncor3 0 []\nrealize 0 ['json']\n"
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n2\n[]\n" + answers, "")
