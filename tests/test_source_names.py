"""Every name that flagrep's own source cites in double backticks still
resolves, so that a rename or a deletion that leaves a stale reference in a
docstring or comment fails here.

A cited name such as ``_kernels.freudenthal`` or ``CartanData.support_steps``
is checked when its head is a flagrep module, a name of the module that
cites it, or a name of the package; its tail is then read attribute by
attribute.  Any other name, such as a local (``cd.orbit_walk``), is
skipped.  The source is read as text, and each module is imported as the
package imports it.
"""

import importlib
import pathlib
import re

import pytest

import flagrep

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "flagrep"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))
#: A dotted name alone between double backticks.
CITED = re.compile(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)``")


def module(stem):
    return flagrep if stem == "__init__" else importlib.import_module(f"flagrep.{stem}")


def stale(stem, text):
    """(checked, stale): the count of names cited in ``text`` that are
    checked, as read in module ``stem``, and those that do not resolve."""
    home = module(stem)
    checked, missing = 0, []
    for name in CITED.findall(text):
        head, *tail = name.split(".")
        if head in MODULES and not head.startswith("__"):
            obj = module(head)
        elif hasattr(home, head):
            obj = getattr(home, head)
        elif hasattr(flagrep, head):
            obj = getattr(flagrep, head)
        else:
            continue
        checked += 1
        for attr in tail:
            if not hasattr(obj, attr):
                missing.append(name)
                break
            obj = getattr(obj, attr)
    return checked, missing


@pytest.mark.parametrize("stem", MODULES)
def test_cited_names_resolve(stem):
    _, missing = stale(stem, (SRC / f"{stem}.py").read_text(encoding="utf-8"))
    assert missing == []


def test_the_source_cites_names_that_are_checked():
    checked = sum(stale(stem, (SRC / f"{stem}.py").read_text(encoding="utf-8"))[0] for stem in MODULES)
    assert checked >= 50


def test_a_stale_name_is_found():
    text = "``_kernels.no_such_kernel``, ``CharPoly.no_such_method`` and ``cd.orbit_walk``"
    assert stale("charpoly", text) == (2, ["_kernels.no_such_kernel", "CharPoly.no_such_method"])
