"""One timed pass over a workload's query list, in a fresh interpreter.

Reads a job as JSON on stdin: ``src`` (the directory holding the flagrep
package), ``queries``, ``trace`` and ``check``.  Writes one JSON object to
stdout.  Each pass is its own process, so flagrep's caches start empty
without the benchmark touching them.  Load is a closed loop: one caller,
one thread, one query after another.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer

MODULES = ("cartan", "charpoly", "characters", "schur", "realize", "cli", "_kernels")


def load_flagrep(src: str):
    """Import flagrep from ``src`` and nowhere else."""
    sys.path.insert(0, src)
    for name in MODULES:
        importlib.import_module(f"flagrep.{name}")
    fr = sys.modules["flagrep"]
    if Path(fr.__file__).resolve().parent.parent != Path(src).resolve():
        raise ImportError(f"flagrep was imported from {fr.__file__}, not from {src}")
    return fr


def run_query(fr, query: dict):
    """Answer one query; returns the raw result and its text for digests.

    Names are looked up at call time so that a tracer's wrappers are used.
    """
    kind = query["kind"]
    if kind == "realize":
        cd = fr.cartan_from_tag(query["group"])
        return fr.check_realizable(cd, fr.cohom_from_rows(query["rows"]))
    if kind == "omega":
        cd = fr.cartan_from_tag(query["group"])
        return list(fr.omega_n_enumerate(cd, query["n"]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = sys.modules["flagrep.cli"].main(query["argv"])
    return rc, out.getvalue(), err.getvalue()


def result_text(fr, query: dict, result) -> str:
    kind = query["kind"]
    if kind == "realize":
        if isinstance(result, fr.Certificate):
            return f"certified\n{result.render()}\ndim {result.total_dim}\n"
        return f"not-certified {json.dumps(result.to_json_dict(), sort_keys=True)}\n"
    if kind == "omega":
        return "".join(c.render() + "\n" for c in result) + f"count {len(result)}\n"
    rc, out, err = result
    return f"exit {rc}\n{out}" + (f"stderr\n{err}" if err else "")


def check(query: dict, result) -> str | None:
    import checks  # imports flagrep, so only once load_flagrep has run

    kind = query["kind"]
    if kind == "realize":
        return checks.check_realize(query, result)
    if kind == "omega":
        return checks.check_omega(query, result)
    rc, out, _ = result
    return checks.CLI_CHECKS[kind](query, rc, out)


#: The probe's fixed table: small tuples of ints as keys, like flagrep's weights.
_PROBE_KEYS = [(i % 7 - 3, i % 11 - 5, i % 13 - 6, i // 143) for i in range(1500)]
_PROBE_TABLE = {k: i for i, k in enumerate(_PROBE_KEYS)}


def probe() -> float:
    """Seconds that a fixed piece of pure-Python work takes right now.

    The work is independent of flagrep: tuple arithmetic, dict lookups and
    integer sums, about a millisecond.  Timed next to each query, it
    measures how fast the host runs the interpreter at that moment.
    """
    table, keys = _PROBE_TABLE, _PROBE_KEYS
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    total = 0
    for a, b, c, d in keys:
        key = (a, b, c, d + 1)
        total += table.get(key, 0) * a - b
        key = (b, a, c, d)
        total += table.get(key, 1) + c
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def peak_rss_kb() -> int:
    """Peak resident set of this process since it started, in KiB.

    ``VmHWM`` counts this process's own memory only.  ``ru_maxrss`` is the
    fallback where there is no ``/proc``: on Linux it also keeps the
    parent's resident set at the moment this process was started, which
    would count the benchmark's own inputs as flagrep's memory.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_pass(fr, queries, tracer=None, do_check=False) -> dict:
    results, latencies = [], []
    gc.collect()
    gc.freeze()  # keep the inputs out of the collector's generations
    if tracer is not None:
        tracer.install()
    clock = time.perf_counter
    probes = [probe()]
    for query in queries:
        start = clock()
        try:
            result = run_query(fr, query)
        except Exception as exc:  # a failed query is counted, never fatal
            result = exc
        latencies.append(clock() - start)
        results.append(result)
        probes.append(probe())
    peak_kb = peak_rss_kb()
    if tracer is not None:
        tracer.restore()
    gc.unfreeze()

    digests, failures = [], {}
    for i, (query, result) in enumerate(zip(queries, results)):
        if isinstance(result, Exception):
            text = f"exception {type(result).__name__}: {result}\n"
            failures[str(i)] = text.strip()
        else:
            text = result_text(fr, query, result)
            if do_check:
                reason = check(query, result)
                if reason is not None:
                    failures[str(i)] = reason
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    out = {
        "latencies": latencies,
        "probes": probes,
        "run_s": sum(latencies),
        "peak_rss_mb": peak_kb / 1024,
        "digests": digests,
        "failures": failures,
        "backend": fr.kernel_backend(),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["layers_self_ms"] = tracer.self_ms_total()
        out["absent"] = tracer.absent
    return out


def main() -> int:
    job = json.load(sys.stdin)
    fr = load_flagrep(job["src"])
    tracer = Tracer() if job["trace"] else None
    result = run_pass(fr, job["queries"], tracer, job["check"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
