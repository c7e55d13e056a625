"""Every flagrep name that the benchmark in ``perfbench/`` reads still
resolves, so that a rename or a deletion fails here and not only when the
benchmark runs.  The benchmark's files are parsed, never imported or
edited: the tracer's ``FUNCTIONS`` and ``METHODS``, the worker's
``MODULES``, and every ``fr.<name>`` the benchmark's modules use."""

import ast
import importlib
import pathlib
import re

import pytest

import flagrep

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def assigned(filename, name):
    """The value assigned to ``name`` at the top of a benchmark module, as a
    syntax tree."""
    tree = ast.parse((PERFBENCH / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return node.value
    raise AssertionError(f"perfbench/{filename} assigns no {name}")


def spec_fields(filename, name, fields):
    """The literal fields of each spec tuple in the tuple ``name``."""
    return [tuple(ast.literal_eval(spec.elts[k]) for k in fields) for spec in assigned(filename, name).elts]


@pytest.mark.parametrize("module, attr", spec_fields("tracer.py", "FUNCTIONS", (1, 2)))
def test_traced_functions_resolve(module, attr):
    # the tracer finds modules through sys.modules, not as package attributes
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("module, cls, method", spec_fields("tracer.py", "METHODS", (1, 2, 3)))
def test_traced_methods_resolve(module, cls, method):
    # the tracer wraps a method only where the class itself defines it
    assert method in vars(getattr(importlib.import_module(module), cls))


@pytest.mark.parametrize("name", ast.literal_eval(assigned("worker.py", "MODULES")))
def test_worker_modules_import(name):
    importlib.import_module(f"flagrep.{name}")


def package_names():
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        names.update(re.findall(r"\bfr\.(\w+)", path.read_text(encoding="utf-8")))
    return sorted(names)


def test_package_names_are_found():
    assert {"check_realizable", "kernel_backend", "certificate_character"} <= set(package_names())


@pytest.mark.parametrize("name", package_names())
def test_package_names_resolve(name):
    assert hasattr(flagrep, name)
