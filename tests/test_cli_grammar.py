"""One property over the whole CLI, on argv built from its grammar: group
tags and custom matrices, weights, JSON shapes, polynomial text,
partitions and small caps, with integers too long for Python's int-to-text
limit among them.

Every command ends in one of four ways: exit 0, exit 1 (``realize`` only),
or exit 2 or 3 with exactly one ``error[code]: `` line on stderr.  An argv
that argparse itself rejects (a positional that starts with ``-`` reads as
an option) ends in one ``error[usage]: `` line and exit 2.
"""

import contextlib
import io
import re

import pytest
from hypothesis import given, settings, strategies as st

from flagrep.cli import build_parser, main

#: Integers past Python's int-to-text limit (4,300 digits), or whose
#: answers pass it.
LONG = ["9" * 4300, "1" + "0" * 2200, "1" + "0" * 5000, "-" + "9" * 4300]

#: Integer text: about one in eight past or near the limit, one in
#: thirty negative.
INT = st.sampled_from(["0", "1", "2", "3"] * 6 + ["-1"] + LONG)
SMALL_INT = st.integers(-1, 6).map(str)

RANKS = {"A1": 1, "A2": 2, "A3": 3, "B2": 2, "B3": 3, "C3": 3, "D4": 4, "G2": 2, "A40": 40}
BAD_TAGS = ["A0", "B1", "D2", "G3", "X2", "a2", "A 2", ""]
MATRICES = {"[[2,-1],[-1,2]]": 2, '{"cartan":[[2,-1],[-3,2]],"label":"G"}': 2, "[[2,0,0],[0,2,-2],[0,-1,2]]": 3}
BAD_MATRICES = [
    "[[2,-2],[-2,2]]",
    "[[2,1],[1,2]]",
    '{"label":"x"}',
    "[[2,true],[-1,2]]",
    "5",
    '{"cartan":[[2]],"label":[1]}',
    '{"cartan":[[2]],"label":{"x":1}}',
]


def _json_list(items):
    return "[" + ",".join(items) + "]"


def _json_object(pairs):
    return "{" + ",".join(f'"{k}":{v}' for k, v in pairs.items()) + "}"


JSON_ANY = st.recursive(
    st.one_of(INT, st.sampled_from(["null", "true", "1.5", '"A2"', '"x"'])),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(_json_list),
        st.dictionaries(st.sampled_from(["n", "rows", "group", "weights", "cartan"]), inner, max_size=3).map(
            _json_object
        ),
    ),
    max_leaves=8,
)
MALFORMED = st.sampled_from(["{", "[[1]", "[" * 100000 + "]" * 100000, "{'n': 2}", "no-such-file.json", "[1e5000]"])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A hom and a Cartan matrix in files, a file that is not UTF-8, and a
    directory."""
    root = tmp_path_factory.mktemp("json")
    (root / "hom.json").write_text('{"n": 3, "rows": [[1, 0], [-1, 1]]}')
    (root / "g2.json").write_text('{"cartan": [[2, -1], [-3, 2]], "label": "G2"}')
    (root / "latin1.json").write_bytes('{"group": "\xe9"}'.encode("latin-1"))
    return [str(root / name) for name in ("hom.json", "g2.json", "latin1.json", "")]


@st.composite
def group(draw, stored):
    """(argv naming a group, its rank): mostly a good tag, else a custom
    matrix, inline or ``stored`` in a file, a bad one, a bad tag, or a tag
    and a matrix together."""
    kind = draw(st.sampled_from(["tag"] * 5 + ["matrix", "file", "bad matrix", "bad tag", "both"]))
    if kind == "file":
        return ["--group-matrix", draw(stored)], 2
    if kind == "tag":
        tag = draw(st.sampled_from(sorted(RANKS)))
        return [tag], RANKS[tag]
    if kind == "matrix":
        matrix = draw(st.sampled_from(sorted(MATRICES)))
        return ["--group-matrix", matrix], MATRICES[matrix]
    if kind == "bad matrix":
        return ["--group-matrix", draw(st.one_of(st.sampled_from(BAD_MATRICES), JSON_ANY))], 2
    if kind == "bad tag":
        return [draw(st.sampled_from(BAD_TAGS))], 2
    return ["A2", "--group-matrix", "[[2,-1],[-1,2]]"], 2


def weight(rank):
    return st.one_of(
        st.lists(INT, min_size=rank, max_size=rank).map(",".join),
        st.lists(INT, min_size=1, max_size=4).map(",".join),
        st.sampled_from(["", "x", "1,,2", "1.5", "٣", "1, 2"]),
    )


@st.composite
def hom_json(draw, rank):
    """``{"rows": ...}``, rows mostly of length ``rank``, and maybe ``n``
    (right or not) and a group."""
    m = draw(st.sampled_from([rank, rank, rank, 1, 2]))
    rows = draw(st.lists(st.lists(INT, min_size=m, max_size=m), min_size=1, max_size=3))
    pairs = {"rows": _json_list(_json_list(r) for r in rows)}
    if draw(st.booleans()):
        pairs["n"] = draw(st.sampled_from([str(len(rows) + 1)] * 3 + ["0", "1.5", '"3"', LONG[0]]))
    if draw(st.booleans()):
        pairs["group"] = '"' + draw(st.sampled_from(sorted(RANKS) + BAD_TAGS)) + '"'
    return _json_object(pairs)


@st.composite
def balanced_weights(draw, rank):
    """Torus weights that sum to zero, so verify-theorem reads them; an
    entry of 4,299 digits keeps the sum within the limit."""
    entry = st.one_of(st.integers(-3, 3), st.sampled_from([10**2200, 10**4299 - 1]))
    rows = draw(st.lists(st.lists(entry, min_size=rank, max_size=rank), min_size=1, max_size=3))
    rows.append([-sum(col) for col in zip(*rows)])
    return _json_list(_json_list(map(str, r)) for r in rows)


@st.composite
def poly(draw, rank):
    """Polynomial text: terms of coefficients and powers of w1.., rho, and
    names out of range."""
    names = [f"w{i}" for i in range(1, rank + 1)] + ["rho", "w0", f"w{rank + 1}", "x"]
    factor = st.one_of(
        st.tuples(st.sampled_from(names), st.one_of(st.just(""), INT.map("^".__add__))).map("".join), INT
    )
    terms = draw(st.lists(st.lists(factor, min_size=1, max_size=3).map("*".join), min_size=1, max_size=3))
    signs = draw(st.lists(st.sampled_from([" + ", " - "]), min_size=len(terms), max_size=len(terms)))
    return draw(st.one_of(st.just("".join(map(str.__add__, signs, terms))[3:]), st.sampled_from(["", "0", "w1 +", "**"])))


#: Small parts, or parts from 10^9 to 10^12, which the caps refuse after
#: counting the tableaux by Weyl's product over rows, in a few steps
#: however long a row is.  Parts in between give answers of up to 10^7
#: terms, which are right but take seconds each.
PART = st.one_of(st.integers(0, 3), st.integers(10**9, 10**12))
PARTITION = st.one_of(
    st.lists(PART.map(str), min_size=1, max_size=4).map(",".join),
    st.sampled_from(["x", "-1", "1" + "0" * 5000, "3,2,", ""]),
)
TERMS_CAP = st.sampled_from(["1", "5", "50", "500", "0", "-1"]).map(lambda c: ["--max-terms", c])
N_CAP = st.sampled_from(["1", "3", "8", "0"]).map(lambda c: ["--max-n", c])
FORMAT = st.sampled_from([[], ["--format", "json"], ["--format", "text"]])


@st.composite
def calls(draw, files):
    """One CLI call; ``files`` are JSON paths that may stand for inline JSON."""
    name = draw(
        st.sampled_from(["char", "dim", "smap", "realize", "verify-theorem", "schur", "cor3", "alpha", "omega"])
    )
    if name in ("schur", "cor3"):
        return [name, draw(PARTITION), draw(SMALL_INT)]
    stored = st.sampled_from(files)
    if name == "smap":
        return [name, draw(st.one_of(hom_json(draw(st.integers(1, 3))), JSON_ANY, MALFORMED, stored))]
    where, rank = draw(group(stored))
    parts = {
        "char": lambda: [draw(weight(rank))] + draw(TERMS_CAP),
        "dim": lambda: [draw(weight(rank))],
        "realize": lambda: [draw(st.one_of(hom_json(rank), JSON_ANY, MALFORMED, stored))]
        + draw(FORMAT)
        + draw(TERMS_CAP),
        "verify-theorem": lambda: [draw(st.one_of(balanced_weights(rank), JSON_ANY, MALFORMED, stored))],
        "alpha": lambda: [draw(poly(rank))],
        "omega": lambda: [draw(st.one_of(SMALL_INT, st.just("9" * 4300)))] + draw(N_CAP) + draw(FORMAT),
    }[name]()
    return [name] + where + parts


ERROR_LINE = re.compile(r"error\[[a-z-]+\]: [^\n]*\n")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def argparse_accepts(argv):
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            return False
    return True


@settings(deadline=None, max_examples=500)
@given(data=st.data())
def test_every_command_ends_in_an_answer_a_verdict_or_one_error_line(files, data):
    argv = data.draw(calls(files), label="argv")
    code, out, err = run(argv)
    if not argparse_accepts(argv):
        assert (code, out) == (2, "") and ERROR_LINE.fullmatch(err) and err.startswith("error[usage]: "), err
        return
    assert code in (0, 1, 2, 3), err
    if code == 1:
        assert argv[0] == "realize"
    if code in (0, 1):
        assert err == ""
    else:
        assert out == "" and ERROR_LINE.fullmatch(err), err
