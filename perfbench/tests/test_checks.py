import subprocess
import sys
from pathlib import Path

import flagrep as fr
import pytest

import checks
import run
import worker
import workloads


def answer(query):
    return worker.run_query(fr, query)


def corrupt_first_coefficient(text):
    """Bump the value at one by one: add a constant term at the end."""
    return text.rstrip("\n") + " + 1\n"


def test_coefficient_sum_reads_the_grammar():
    assert checks.coefficient_sum("w1^2 + 1 + rho^2") == 3
    assert checks.coefficient_sum("3*w1*rho + 2 + rho") == 6
    assert checks.coefficient_sum("-2*w1 + 5 - y1") == 2
    assert checks.coefficient_sum("12") == 12


def test_weyl_invariance():
    a1 = fr.cartan_from_tag("A1").cartan_matrix
    assert checks.is_weyl_invariant({(1,): 1, (-1,): 1}, a1)
    assert not checks.is_weyl_invariant({(1,): 1, (-1,): 2}, a1)
    assert checks.s_invariant_terms([[1], [0]]) == {(1,): 1, (0,): 1, (-1,): 1}


@pytest.mark.parametrize(
    "query",
    [
        {"kind": "char", "argv": ["char", "B2", "2,1"]},
        {"kind": "schur", "argv": ["schur", "3,1", "4"], "mu": [3, 1], "m": 4},
        {"kind": "alpha", "argv": ["alpha", "A2", fr.render(
            fr.weight_multiplicities(fr.cartan_from_tag("A2"), (1, 1)))], "mu": [2, 1], "m": 3},
    ],
)
def test_cli_checks_accept_answers_and_reject_corruption(query):
    rc, out, _ = answer(query)
    check = checks.CLI_CHECKS[query["kind"]]
    assert check(query, rc, out) is None
    assert check(query, rc, corrupt_first_coefficient(out)) is not None
    assert check(query, 2, out) is not None


def test_cor3_check():
    query = {"kind": "cor3", "argv": ["cor3", "2,1", "3"], "mu": [2, 1], "m": 3}
    rc, out, _ = answer(query)
    assert checks.check_cor3(query, rc, out) is None
    assert checks.check_cor3(query, rc, out.replace("check: ok", "check: mismatch")) is not None
    assert checks.check_cor3(query, rc, out.replace("n: 8", "n: 9")) is not None


def test_realize_checks():
    cd = fr.cartan_from_tag("A2")
    rows = workloads.tensor_rows(cd, (1, 0), (0, 1))
    good = {"kind": "realize", "group": "A2", "rows": rows[:-1], "certified": True, "top": [1, 1]}
    cert = answer(good)
    assert isinstance(cert, fr.Certificate)
    assert checks.check_realize(good, cert) is None
    # a certificate that omits a summand no longer matches the s-invariant
    wrong = fr.Certificate(cert.summands[:1], cert.total_dim)
    assert checks.check_realize(good, wrong) is not None
    assert checks.check_realize(good, fr.NotCertified(reason="negative-coefficient")) is not None
    bad = dict(good, certified=False)
    assert checks.check_realize(bad, cert) is not None


def test_omega_check():
    query = {"kind": "omega", "group": "A2", "n": 9}
    certs = answer(query)
    assert checks.check_omega(query, certs) is None
    assert checks.check_omega(query, certs[1:]) is not None
    assert checks.check_omega(query, certs + certs[:1]) is not None


def test_corrupted_output_raises_failed_frac(monkeypatch):
    """A wrong answer fails the checked pass; a later pass whose bytes
    differ from the checked one fails too."""
    queries = [
        {"kind": "char", "argv": ["char", "A2", "1,0"]},
        {"kind": "char", "argv": ["char", "G2", "1,0"]},
    ]
    real = worker.run_query

    def corrupting(fr_, query):
        rc, out, err = real(fr_, query)
        if query["argv"][1] == "G2":
            out = corrupt_first_coefficient(out)
        return rc, out, err

    clean = worker.run_pass(fr, queries, do_check=True)
    assert clean["failures"] == {}
    monkeypatch.setattr(worker, "run_query", corrupting)
    dirty = worker.run_pass(fr, queries, do_check=True)
    assert list(dirty["failures"]) == ["1"]

    tally = run.WorkloadRun("char-cold", 7, queries, "digest", env={})
    passes = iter([clean, dirty])
    monkeypatch.setattr(run, "run_worker", lambda payload, env: next(passes))
    tally.one_pass(False)
    assert (tally.attempted, tally.failed) == (2, 0)
    tally.one_pass(False)  # unchecked, but its digest differs from the first
    assert (tally.attempted, tally.failed) == (4, 1)


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.9) == 90
    with pytest.raises(ValueError):
        run.percentile(values[:99], 0.9)
    assert run.percentile(list(range(20)), 0.5) == 9
    with pytest.raises(ValueError):
        run.percentile(list(range(19)), 0.5)


def test_scaled_latencies_cancel_host_speed():
    """A host that runs everything twice as slowly, probe included, gives
    the same scaled latencies; the median over passes drops an outlier."""
    ref = run.PROBE_REF_S
    fast = {"latencies": [0.01, 0.02, 0.03], "probes": [ref] * 4}
    slow = {"latencies": [0.02, 0.04, 0.06], "probes": [2 * ref] * 4}
    assert run.scaled_latencies(slow) == pytest.approx(run.scaled_latencies(fast))
    assert run.scaled_latencies(fast) == pytest.approx([0.01, 0.02, 0.03])
    hiccup = {"latencies": [0.01, 0.5, 0.03], "probes": [ref] * 4}
    assert run.typical_latencies([fast, slow, hiccup]) == pytest.approx([0.01, 0.02, 0.03])


def test_probe_times_work():
    assert 0 < worker.probe() < 1


def test_worker_peak_rss_excludes_the_parent():
    """A worker started by a large parent reports its own peak memory."""
    ballast = bytearray(96 * 1024 * 1024)
    ballast[::4096] = b"x" * len(ballast[::4096])  # touch every page
    code = f"import sys; sys.path.insert(0, {str(Path(worker.__file__).parent)!r}); " \
        "import worker; print(worker.peak_rss_kb())"
    child_kb = int(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, check=True).stdout)
    assert child_kb < 64 * 1024
    del ballast


def test_workloads_are_seeded_and_large_enough():
    for name in workloads.WORKLOADS:
        first = workloads.generate(name, 3)
        assert workloads.inputs_digest(first) == workloads.inputs_digest(workloads.generate(name, 3))
        assert workloads.inputs_digest(first) != workloads.inputs_digest(workloads.generate(name, 4))
        assert len(first) >= 100
    chars = [tuple(q["argv"][1:]) for q in workloads.generate("char-cold", 3)]
    assert len(set(chars)) == len(chars)
