"""Command-line surface: one subcommand per pipeline stage.

Structured inputs (matrices, weight lists) are JSON, given inline or as a
file path; polynomials use the canonical text grammar.  Results go to
stdout, diagnostics to stderr, and output is byte-stable across runs.

Exit codes: 0 success or certified, 1 not certified (realize only),
2 input error, 3 resource cap exceeded, 4 internal error (a bug: the
exception is reported as ``error[internal]`` on stderr, without a traceback),
141 when the reader closed stdout before the answer was written, with
nothing printed: the code a shell reports for a process that SIGPIPE ends.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from collections import Counter
from itertools import chain, repeat

from . import characters, realize
from .cartan import CartanData, builtin_cartan, cartan_from_tag, custom_cartan
from .charpoly import parse as parse_poly
from .charpoly import render
from .errors import _LIMITS, InputError, ResourceCapError
from .schur import alpha, parse_partition, render_ypoly, schur

EXIT_OK = 0
EXIT_NOT_CERTIFIED = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4
EXIT_CLOSED_PIPE = 141


def _load_json_arg(arg: str):
    """Inline JSON if the argument looks like JSON, else a file path."""
    import json

    text = arg.strip()
    if not text.startswith(("{", "[")):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError("invalid-json", f"cannot read {arg!r}: {exc}") from None
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting too deep
        raise InputError("invalid-json", f"malformed JSON: {exc}") from None
    except ValueError:  # more digits than int() converts
        limit = sys.get_int_max_str_digits()
        raise InputError("invalid-json", f"integer has more than {limit} digits") from None


def _dumps(value) -> str:
    """``value`` as JSON text; ``json`` is imported by the commands that
    read or write it, not by every launch."""
    import json

    return json.dumps(value)


@contextlib.contextmanager
def _answer():
    """Lift Python's limit on the digits of int-to-text conversion while an
    answer is written.  Inputs are parsed under that limit, before; an
    answer computed from them can have more digits (a dimension is a
    product, an s-invariant's derived row a sum).  The answers of ``char``,
    ``schur``, ``cor3`` and ``omega`` are held far below it by their caps."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _group_from_args(args) -> CartanData:
    """The group a tag or --group-matrix names.  Its Cartan matrix is
    checked here; its root data is built only when an answer reads it, so
    a subcommand can hold its input to the rank first, even at a rank in
    the hundreds, whose roots take seconds to build."""
    matrix_file = getattr(args, "group_matrix", None)
    tag = getattr(args, "group", None)
    if matrix_file is not None:
        if tag is not None:
            raise InputError(
                "invalid-group", "give either a group tag or --group-matrix, not both"
            )
        data = _load_json_arg(matrix_file)
        if isinstance(data, dict):
            label = data.get("label", "custom")
            data = data.get("cartan")
            if data is None:
                raise InputError("invalid-cartan", "expected a 'cartan' matrix entry")
        else:
            label = "custom"
        if not isinstance(data, list):
            raise InputError("invalid-cartan", "expected a JSON integer matrix")
        return custom_cartan(data, label=label)
    if tag is None:
        raise InputError("invalid-group", "a group tag or --group-matrix is required")
    return cartan_from_tag(tag)


def _positive_cap(value: int | None, flag: str, code: str) -> int:
    """The cap a flag gives, or when it is not given the entry ``code`` of
    ``_LIMITS``, read now, so the cached parser holds no default."""
    if value is None:
        return _LIMITS[code]
    if value <= 0:
        raise InputError("invalid-cap", f"{flag} must be positive, got {value}")
    return value


def _parse_weight(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError("invalid-weight", f"cannot parse weight {text!r}") from None


def _print_not_certified(result: characters.NotInOmega, fmt: str) -> None:
    """The report's fields, as ``NotInOmega.to_json_dict`` lists them: one
    JSON line, or one text line per field after ``certified``."""
    fields = result.to_json_dict()
    if fmt == "json":
        print(_dumps(fields))
        return
    print("not-certified")
    del fields["certified"]
    print(f"reason: {fields.pop('reason')}")
    for key, value in fields.items():
        print(f"{key}: {_dumps(value)}")
    print("note: not certified by this criterion; existence of a map is not ruled out")


def _cmd_char(args) -> int:
    cd = _group_from_args(args)
    weight = _parse_weight(args.weight)
    max_terms = _positive_cap(args.max_terms, "--max-terms", "term-cap")
    print(render(characters.weight_multiplicities(cd, weight, max_terms)))
    return EXIT_OK


def _cmd_dim(args) -> int:
    cd = _group_from_args(args)
    value = characters.dimension(cd, _parse_weight(args.weight))
    with _answer():
        print(value)
    return EXIT_OK


def _cmd_smap(args) -> int:
    hom, _ = realize.cohom_from_json(_load_json_arg(args.hom))
    with _answer():
        print(render(realize.s_map(hom)))
    return EXIT_OK


def _cmd_realize(args) -> int:
    cd = _group_from_args(args)
    max_terms = _positive_cap(args.max_terms, "--max-terms", "term-cap")
    hom, group = realize.cohom_from_json(_load_json_arg(args.hom))
    # compare matrices: a --group-matrix group carries its own label
    if group is not None and cartan_from_tag(group).cartan_matrix != cd.cartan_matrix:
        given = args.group if args.group is not None else "--group-matrix"
        raise InputError("group-mismatch", f"JSON group {group!r} differs from {given!r}")
    result = realize.check_realizable(cd, hom, max_terms)
    with _answer():
        if isinstance(result, characters.NotInOmega):
            _print_not_certified(result, args.format)
            return EXIT_NOT_CERTIFIED
        if args.format == "json":
            print(_dumps(result.to_json_dict()))
        else:
            print("certified")
            print(f"summands: {result.render()}")
            print(f"dim: {result.total_dim}")
    return EXIT_OK


def _cmd_verify_theorem(args) -> int:
    cd = _group_from_args(args)
    data = _load_json_arg(args.weights)
    if isinstance(data, dict):
        data = data.get("weights")
    if not isinstance(data, list) or not all(isinstance(w, list) for w in data):
        raise InputError("invalid-weights", "expected a JSON list of weight vectors")
    tr = realize.TorusRestriction(tuple(tuple(w) for w in data))
    check = realize.verify_factorization(cd, tr)
    with _answer():
        print(f"equal: {'true' if check.equal else 'false'}")
        print(f"character: {render(check.character)}")
        print(f"via-induced-map: {render(check.via_cohomology)}")
    return EXIT_OK


def _cmd_schur(args) -> int:
    mu = parse_partition(args.mu)
    print(render_ypoly(schur(mu, args.m)))
    return EXIT_OK


def _cmd_alpha(args) -> int:
    cd = _group_from_args(args)
    if cd.cartan_matrix != builtin_cartan("A", cd.rank).cartan_matrix:
        raise InputError("typea-required", "alpha is defined for type A groups only")
    poly = parse_poly(args.poly, cd.rank)
    with _answer():
        print(render_ypoly(alpha(poly)))
    return EXIT_OK


def _cmd_cor3(args) -> int:
    mu = parse_partition(args.mu)
    result = realize.realize_schur(mu, args.m)
    # the rows as JSON: equal rows are adjacent, so the counts' first-seen
    # order is the rows' order, and each distinct row's text is written
    # once, by one format of as many integers as a row has
    row = f"[{', '.join(['%d'] * result.hom.m)}]"
    counts = Counter(result.hom.rows)
    rows = chain.from_iterable(repeat(row % key, n) for key, n in counts.items())
    print(f"n: {result.n}")
    print(f"rows: [{', '.join(rows)}]")
    print(f"alpha-s: {render_ypoly(result.symmetric_function)}")
    print(f"check: {'ok' if result.matches else 'mismatch'}")
    return EXIT_OK


def _cmd_omega(args) -> int:
    cd = _group_from_args(args)
    max_n = _positive_cap(args.max_n, "--max-n", "n-cap")
    certs = characters.omega_n_enumerate(cd, args.n, max_n, _LIMITS["term-cap"])
    if args.format == "json":
        print(_dumps([c.to_json_dict() for c in certs]))
    else:
        for cert in certs:
            print(cert.render())
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser that reports bad usage as every bad input is
    reported: one ``error[usage]: `` line on stderr, and exit 2."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"error[usage]: {message}\n")


def _add_group_options(sub):
    sub.add_argument("group", nargs="?", help="group tag such as A2, B3, G2")
    sub.add_argument(
        "--group-matrix",
        metavar="FILE",
        help="custom Cartan matrix as JSON (a matrix, or {'cartan': ..., 'label': ...})",
    )


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not mutate it."""
    parser = _ArgumentParser(
        prog="flagrep",
        description="Exact character arithmetic for cohomology maps between flag manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("char", help="irreducible character of a dominant weight")
    _add_group_options(p)
    p.add_argument("weight", help="dominant weight, comma-separated, e.g. 1,0")
    p.add_argument("--max-terms", type=int)
    p.set_defaults(func=_cmd_char)

    p = sub.add_parser("dim", help="dimension of the irreducible with this highest weight")
    _add_group_options(p)
    p.add_argument("weight")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("smap", help="s-invariant of a cohomology matrix")
    p.add_argument("hom", help="JSON {'n': ..., 'rows': [[...], ...]} inline or a file")
    p.set_defaults(func=_cmd_smap)

    p = sub.add_parser("realize", help="certify a cohomology matrix, or report why not")
    _add_group_options(p)
    p.add_argument("hom")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--max-terms", type=int)
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser(
        "verify-theorem",
        help="check the character against the s-invariant of its induced matrix",
    )
    _add_group_options(p)
    p.add_argument("weights", help="JSON list of torus weights (or {'weights': ...})")
    p.set_defaults(func=_cmd_verify_theorem)

    p = sub.add_parser("schur", help="Schur polynomial of a partition")
    p.add_argument("mu", help="partition, comma-separated, e.g. 2,1,0")
    p.add_argument("m", type=int, help="number of variables")
    p.set_defaults(func=_cmd_schur)

    p = sub.add_parser("alpha", help="map a type-A polynomial to symmetric variables")
    _add_group_options(p)
    p.add_argument("poly", help="polynomial text, e.g. 'w1 + rho'")
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("cor3", help="flag-to-flag map data realizing a Schur polynomial")
    p.add_argument("mu")
    p.add_argument("m", type=int)
    p.set_defaults(func=_cmd_cor3)

    p = sub.add_parser("omega", help="enumerate all certificates of total dimension n")
    _add_group_options(p)
    p.add_argument("n", type=int)
    p.add_argument("--max-n", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_omega)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # bad usage exits 2, the input-error code
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except InputError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceCapError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except BrokenPipeError:
        # no reader is left: nothing more is written, not even at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_PIPE
    except Exception as exc:
        print(f"error[internal]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
