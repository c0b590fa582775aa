"""Tests of the benchmark itself: cold queries, the time limit, known
answers, fingerprints and repeatable traced counts.

Anything that needs a cold package runs in a fresh interpreter, since
the test process imports probranch and warms its caches.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import answers
import compare

HERE = Path(__file__).resolve().parent
ENV = {**os.environ, "PYTHONHASHSEED": "0"}


def _query(rel, left, right, equivalent):
    return {"id": f"{rel}:{left}", "row": rel,
            "argv": ["check", "--rel", rel, "--left", left, "--right", right,
                     "--json"],
            "expect": {"kind": "verdict", "equivalent": equivalent}}


TINY = {"workload": "tiny", "seed": 0, "rat_backend": "any", "queries": [
    _query("strong", "a.D(0)", "a.D(0) + a.D(0)", True),
    _query("rooted-branching", "a.D(tau.D(b.D(0)))", "a.D(b.D(0))", True),
]}


def _timing(inputs, *args):
    done = subprocess.run(
        [sys.executable, str(HERE / "timing.py"), *args],
        input=json.dumps(inputs), capture_output=True, text=True, env=ENV,
        timeout=60)
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines()]


def _python(code):
    return subprocess.run([sys.executable, "-c", code], cwd=HERE,
                          capture_output=True, text=True, env=ENV, timeout=60)


def test_every_sample_starts_cold():
    # assert_cold runs before every fork; a warm parent would fail the run
    records = _timing(TINY, "--seconds", "0", "--limit", "20", "--budget", "30")
    samples = [r for r in records if "round" in r]
    assert {(r["i"], r["round"]) for r in samples} == {
        (i, rnd) for i in range(len(TINY["queries"])) for rnd in range(3)}
    for rec in samples:
        assert rec["code"] == 0 and rec["error"] is None, rec
        assert not answers.is_failure(TINY["queries"][rec["i"]]["expect"], rec)


def test_cold_guard_trips_on_warm_cache_or_generator():
    warm = _python(
        "import timing\n"
        "from probranch.dist import derivatives\n"
        "from probranch.terms import ZERO_TERM\n"
        "derivatives(ZERO_TERM)\n"
        "timing.assert_cold()\n")
    assert "ColdCacheError" in warm.stderr and "derivatives" in warm.stderr
    generator = _python("import timing, gen\ntiming.assert_cold()\n")
    assert "input generation ran" in generator.stderr


def test_query_past_the_limit_is_killed_and_failed():
    slow = {**TINY, "queries": [_query(
        "branching", "a.D(tau.D(a.D(tau.D(a.D(tau.D(0))))))",
        "a.D(a.D(a.D(0)))", True)]}
    start = time.monotonic()
    records = _timing(slow, "--seconds", "0", "--limit", "0.05",
                      "--budget", "30")
    assert time.monotonic() - start < 20
    assert len(records) == 2  # ready, then one sample; no retry
    assert records[1]["timeout"]
    assert answers.is_failure(slow["queries"][0]["expect"], records[1])


def test_traced_counts_repeat_exactly():
    def counts():
        records = _timing(TINY, "--seconds", "0", "--trace", "1",
                          "--limit", "20", "--budget", "30")
        return [r["layers"]["counts"] for r in records if r.get("traced")]

    first = counts()
    assert first and first[1]["lp.solves"] > 0
    assert first == counts()


def test_known_answers():
    equiv = {"kind": "verdict", "equivalent": True}
    assert answers.check_output(equiv, 0, '{"equivalent": true}') is None
    assert "exit code" in answers.check_output(equiv, 1, '{"equivalent": false}')
    assert "disagrees" in answers.check_output(equiv, 0, '{"equivalent": false}')
    proof = {"kind": "proof", "left": "L", "right": "R"}
    step = lambda k, b, a: json.dumps({"index": k, "before": b, "after": a})
    assert answers.check_output(proof, 0, "\n".join(
        [step(0, "L", "M"), step(1, "M", "R")])) is None
    assert "end at the right" in answers.check_output(
        proof, 0, step(0, "L", "M"))
    assert "does not start where" in answers.check_output(proof, 0, "\n".join(
        [step(0, "L", "M"), step(1, "X", "R")]))
    assert "exit code 1" in answers.check_output(proof, 1, "")
    assert answers.is_failure(proof, {"code": 3})


def test_different_fingerprints_give_no_delta():
    metrics = {"work_s": {"value": 1.0, "unit": "s"}}
    base = {"fingerprint": {"seed": 1, "inputs_sha256": "aa", "nproc": 2},
            "trace": 0, "all_metrics": metrics}
    same = compare.compare(base, json.loads(json.dumps(base)))
    assert same[0].startswith("comparable") and "work_s" in same[1]
    other = {**base, "fingerprint": {**base["fingerprint"],
                                     "inputs_sha256": "bb"}}
    lines = compare.compare(base, other)
    assert lines[0].startswith("not comparable")
    assert not any("work_s" in line for line in lines)


def test_inputs_follow_the_seed():
    def inputs(seed):
        done = subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "--workload", "chains",
             "--seed", str(seed)], capture_output=True, text=True, env=ENV,
            timeout=60)
        return json.loads(done.stdout)["queries"]

    assert inputs(3) == inputs(3) != inputs(4)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chains",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
