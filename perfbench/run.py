"""flagrep benchmark: seeded workloads, checked answers, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload char-cold --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one table

Run from the root of a source tree; flagrep is imported from its ``src``
directory and from nowhere else.  Inputs are generated from the seed before
anything is timed.  Each timed pass over a workload's query list runs in a
fresh worker process, one after another until ``--seconds`` have passed,
so every pass starts with flagrep's caches empty.

With ``--trace 0`` the result holds the end-to-end metrics: a query's
latency is its median over the passes, and set-up time is the median of
several fresh launches.  Both are scaled by a speed probe timed beside
them, to what they would be on a host where the probe takes
``PROBE_REF_S``, so that the shared host's drifting speed cancels.  With ``--trace 1`` untraced and traced passes alternate:
the result holds the per-layer metrics of the traced passes and the tracing
overhead.  The last line of stdout is the result as one JSON object; the
lines before it are a readable report and the run's context.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from worker import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 0
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_PER_PASS = 3
WORKER_TIMEOUT_S = 150
#: The highest percentile reported must have this many samples beyond it.
TAIL_SAMPLES = 10
#: Times are reported as on a host where ``worker.probe`` takes this long.
PROBE_REF_S = 1e-3
#: A latency is scaled by the median of the probes this many queries around it.
PROBE_WINDOW = 3
#: Speed probes the parent times before each set-up launch.
SETUP_PROBES = 5

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from flagrep.cli import main; "
    "sys.exit(main(['dim', 'A1', '1']))"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; refuses one with too few samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q))
    if len(ordered) - rank < TAIL_SAMPLES:
        raise ValueError(
            f"p{q * 100:g} of {len(ordered)} samples has fewer than "
            f"{TAIL_SAMPLES} samples beyond it"
        )
    return ordered[rank - 1]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # every launch reads cached bytecode
    env["PYTHONHASHSEED"] = "0"
    return env


def launch_setup(env) -> tuple[float, bool]:
    """Wall time of a fresh interpreter answering ``dim A1 1`` via the CLI,
    and whether its answer was right."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    elapsed = time.perf_counter() - start
    return elapsed, proc.returncode == 0 and proc.stdout == "2\n"


def run_worker(payload: dict, env) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(payload), capture_output=True, text=True, env=env,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def git_commit() -> str | None:
    """HEAD of the source tree, read from its .git directory if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class WorkloadRun:
    """All passes of one workload in one invocation, and their tallies."""

    def __init__(self, name: str, seed: int, queries: list[dict], inputs_digest: str, env):
        self.name = name
        self.seed = seed
        self.env = env
        self.queries = queries
        self.inputs_digest = inputs_digest
        self.reference: list[str] | None = None
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.backend = None
        self.setup_times: list[float] = []
        self.setup_probes: list[float] = []

    def one_pass(self, trace: bool) -> dict:
        payload = {
            "src": str(SRC), "queries": self.queries, "trace": trace,
            "check": self.reference is None,
        }
        result = run_worker(payload, self.env)
        self.backend = result["backend"]
        failed = {int(i) for i in result["failures"]}
        for i in sorted(failed)[:5]:
            self.notes.append(f"query {i} failed: {result['failures'][str(i)]}")
        if self.reference is None:
            self.reference = result["digests"]
        else:  # later passes must repeat the checked pass byte for byte
            failed |= {
                i for i, (a, b) in enumerate(zip(self.reference, result["digests"]))
                if a != b
            }
        self.attempted += len(self.queries)
        self.failed += len(failed)
        return result

    def setup(self, launches: int) -> None:
        for _ in range(launches):
            self.setup_probes.extend(probe() for _ in range(SETUP_PROBES))
            elapsed, ok = launch_setup(self.env)
            self.setup_times.append(elapsed)
            self.attempted += 1
            self.failed += not ok

    def passes(self, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
        """Untraced passes, and with ``trace`` traced ones alternating with
        them.  Without ``trace``, set-up launches follow every pass, so that
        their median samples the host over the whole run."""
        plain, traced = [], []
        minimum = MIN_TRACED_PASSES if trace else MIN_PASSES
        if not trace:
            launch_setup(self.env)  # writes the bytecode cache; not counted
        deadline = time.perf_counter() + seconds
        while len(plain) < minimum or time.perf_counter() < deadline:
            plain.append(self.one_pass(False))
            if trace:
                traced.append(self.one_pass(True))
            else:
                self.setup(SETUP_PER_PASS)
        return plain, traced

    def outputs_digest(self) -> str:
        return hashlib.sha256("\n".join(self.reference).encode()).hexdigest()

    def digests_match(self) -> bool:
        if self.seed != DEFAULT_SEED:
            return True
        want = json.loads((HERE / "digests.json").read_text()).get(self.name, {})
        ok = True
        for key, got in (("inputs", self.inputs_digest), ("outputs", self.outputs_digest())):
            if want.get(key) != got:
                self.notes.append(f"{key} digest {got} differs from digests.json")
                ok = False
        return ok


def scaled_latencies(one: dict) -> list[float]:
    """A pass's query latencies, scaled to a host on which the speed probe
    takes ``PROBE_REF_S``.

    On a shared host the interpreter's speed drifts by a third and more,
    over seconds and over hours, while wall time stays equal to CPU time:
    the work runs slower, it does not wait.  The worker times a fixed probe
    (``worker.probe``) before the first query and after each one.  Each
    latency is divided by the median of the probes around it, so a slower
    host stretches both and the ratio stays.
    """
    probes = one["probes"]
    return [
        lat * PROBE_REF_S / statistics.median(probes[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 2])
        for i, lat in enumerate(one["latencies"])
    ]


def typical_latencies(passes: list[dict]) -> list[float]:
    """Each query's scaled latency, the median over the passes."""
    return [statistics.median(lat) for lat in zip(*map(scaled_latencies, passes))]


def end_to_end(run: WorkloadRun, plain: list[dict]) -> tuple[dict, list[str]]:
    """``run_s`` is the sum of the per-query latencies over the query list;
    p50 and p90 are taken over them.  Set-up time is scaled like them, by
    the median of the probes the parent timed between its launches."""
    latency = typical_latencies(plain)
    setup = run.setup_times
    setup_probe = statistics.median(run.setup_probes)
    values = {
        "setup_s": statistics.median(setup) * PROBE_REF_S / setup_probe,
        "run_s": sum(latency),
        "query_p50_ms": percentile(latency, 0.5) * 1e3,
        "query_p90_ms": percentile(latency, 0.9) * 1e3,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    n, k = len(latency), len(plain)
    each = f"{n} queries, each the median of {k} passes"
    samples = {
        "setup_s": f"median of {len(setup)} launches; unscaled {statistics.median(setup):.4f} s, "
        f"probe {setup_probe * 1e3:.3f} ms",
        "run_s": f"{each}; unscaled pass totals "
        + ", ".join(f"{p['run_s']:.3f}" for p in plain)
        + "; pass probe medians "
        + ", ".join(f"{statistics.median(p['probes']) * 1e3:.3f}" for p in plain) + " ms",
        "query_p50_ms": each,
        "query_p90_ms": each,
        "peak_rss_mb": f"median of {k} worker processes",
    }
    lines = [
        f"  {name:<14} {value:>12.4f} {END_TO_END_UNITS[name]:<3} ({samples[name]})"
        for name, value in values.items()
    ]
    frac = run.failed / run.attempted if run.attempted else 1.0
    lines.append(f"  {'failed_frac':<14} {frac:>12.4f} 1   ({run.failed} of {run.attempted} queries)")
    metrics = {
        name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()
    }
    return metrics, lines


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Layer numbers of the fastest traced pass, so that its layer self times
    add up to at most its run time; the overhead compares the scaled
    per-query latencies of the traced and the untraced passes."""
    best = min(traced, key=lambda t: t["run_s"])
    values = dict(best["layers"])
    values["trace.overhead_frac"] = sum(typical_latencies(traced)) / sum(typical_latencies(plain)) - 1
    values["trace.layers_self_ms"] = best["layers_self_ms"]
    values["trace.run_ms"] = best["run_s"] * 1e3
    metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
    lines = [f"  traced passes {len(traced)}, untraced passes {len(plain)}"]
    absent = sorted(set(best["absent"]))
    if absent:
        lines.append(f"  absent layers: {', '.join(absent)}")
    shares = sorted(
        ((values[f"{n}.self_ms"], n) for n in tracer.LAYERS), reverse=True
    )
    for ms, n in shares:
        if ms:
            lines.append(f"  {n:<34} {ms:>10.2f} ms self {ms / values['trace.run_ms']:>7.1%}")
    return metrics, lines


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def run_workload(run: WorkloadRun, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    plain, traced = run.passes(seconds, trace)
    if trace:
        return per_layer(plain, traced)
    return end_to_end(run, plain)


def context(runs: list[WorkloadRun], seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "backend": runs[0].backend if runs else None,
        "commit": git_commit(),
        "seed": seed,
        "queries": {r.name: len(r.queries) for r in runs},
        "inputs_sha256": {r.name: r.inputs_digest for r in runs},
        "outputs_sha256": {r.name: r.outputs_digest() for r in runs},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flagrep" / "__init__.py").is_file():
        print(f"error: no flagrep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads.WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)} or all")

    env = child_env()
    runs, metrics = [], {}
    for name in names:
        queries = workloads.generate(name, args.seed)
        run = WorkloadRun(name, args.seed, queries, workloads.inputs_digest(queries), env)
        try:
            found, lines = run_workload(run, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        runs.append(run)
        if not run.digests_match():
            run.failed += 1
        print(f"{name}: {len(run.queries)} queries, seed {args.seed}")
        for line in lines + [f"  {note}" for note in run.notes]:
            print(line)
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in found.items()})

    print("context: " + json.dumps(context(runs, args.seed), sort_keys=True))
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
