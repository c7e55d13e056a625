"""The seed-0 answers of every benchmark workload still hash to the digests
that ``perfbench/digests.json`` pins, so that an output change fails here
and not only when the benchmark runs.

Each workload's queries are generated by ``perfbench/workloads.py`` and
answered in this process by ``perfbench/worker.py``'s ``run_pass``, with no
tracer and no checks; the digests are formed as ``perfbench/run.py`` forms
them.  The benchmark's files are read, never edited.
"""

import hashlib
import importlib
import json
import pathlib
import sys

import pytest

import flagrep

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def perfbench():
    """``workloads`` and ``worker``, imported as the benchmark imports them:
    as top-level modules from its directory, with every flagrep module the
    worker loads."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import worker
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    for module in worker.MODULES:
        importlib.import_module(f"flagrep.{module}")
    return workloads, worker


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_seed_0_digests_match(perfbench, name):
    workloads, worker = perfbench
    queries = workloads.generate(name, 0)
    assert workloads.inputs_digest(queries) == DIGESTS[name]["inputs"]
    result = worker.run_pass(flagrep, queries)
    assert result["failures"] == {}
    outputs = hashlib.sha256("\n".join(result["digests"]).encode()).hexdigest()
    assert outputs == DIGESTS[name]["outputs"]
