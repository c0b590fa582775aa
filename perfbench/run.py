"""Cold-query benchmark of probranch: one command runs a workload, checks
every output against its known answer and prints every metric.

    python3 perfbench/run.py --workload fuzz-check|chains|prove \\
        --seed N --seconds S --trace 0|1 [--out RESULT.json]

A query is one ``probranch check``, ``prove`` or ``concretize`` call, run
through ``probranch.cli.main`` in a process that starts cold.  Clients:
one, closed loop, one query at a time.  Three processes take part:

* ``gen.py`` makes the seeded inputs (it runs the decider, so it never
  shares a process with the timing);
* ``timing.py --probe`` is started several times to time set-up:
  interpreter start, ``import probranch`` and loading the inputs;
* ``timing.py`` forks one child per query sample (see its docstring).

Each query's cold time is the fastest of its samples: rounds over all
queries repeat while time is left, which filters out the short slow
phases of a machine whose speed drifts.  Slow phases that last a whole
run move every query alike; the times at the reference speed take them
out by scaling each sample with the calibration work timed just before
it (see ``timing.calibrate``).  ``--trace 1`` alternates untraced and
traced rounds and reports the per-layer split instead of the end-to-end
metrics.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics named in GATED, or in a traced run the per-layer metrics.  The
lines before it print every metric with its unit (work_s, the median
and tail latencies, failed_share and wrong_verdicts among them), one row
per query group, and the run's fingerprint.  ``--out`` also writes the
whole record, which ``compare.py`` compares with another.

``BENCHMARK.json`` lists fuzz-check and prove.  The chains workload (the
tau-chain and plain-chain scaling families, one row per family and
depth) runs the same way but is left out of it.  Without the reference
speed its totals moved by 0.30 of their median from seed to seed, and a
third listed workload would not fit the time allowed for all gate runs
at this run length.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import answers  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("fuzz-check", "chains", "prove")
QUERY_LIMIT_S = 30.0      # a query past this is killed and counts as failed
RUN_LIMIT_S = 170.0       # the whole run ends within this, whatever happens
SETUP_PROBES = 9
# Times at the reference speed scale a measured time by a reference
# time measured next to it.  The constants are the reference times on
# the machine the benchmark was tuned on (2-core VM, Python 3.11.7):
# timing.calibrate() in a fresh child for the queries, and the start of
# an interpreter that runs REFERENCE_START for set-up.
CALIBRATION_REFERENCE_S = 0.005
REFERENCE_START = "import fractions, json"
REFERENCE_START_S = 0.08
# End-to-end metrics on the result line.  The others are printed only.
# failed_share and wrong_verdicts read 0 when all is well.  The machine's
# speed drifts by a quarter within minutes, which moves every query of a
# run alike; the times at the reference speed take that out.  setup_s is
# at the reference speed too (setup_wall_s is its wall time): the median
# over the probes of each probe's set-up time over that of the reference
# start just before it.  The median query moves too much from seed to
# seed: on fuzz-check it falls where the fast strong checks end and the
# slower branching checks begin, so one query more on either side moves
# it by half.  The geometric mean of the query times stands for the
# typical query instead.
GATED = ("work_ref_s", "latency_geomean_ref_ms", "setup_s", "peak_rss_mb")
# PYTHONHASHSEED fixes the iteration order of sets and dicts keyed by
# strings, so a traced run's per-layer counts repeat exactly.
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _python(script: str, *args: str) -> list:
    return [sys.executable, str(HERE / script), *args]


def _kill_group(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()


def generate(workload: str, seed: int, timeout: float) -> str:
    try:
        done = subprocess.run(
            _python("gen.py", "--workload", workload, "--seed", str(seed)),
            capture_output=True, text=True, env=CHILD_ENV, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("input generation timed out") from None
    if done.returncode != 0:
        raise BenchError(f"input generation failed:\n{done.stderr[-2000:]}")
    return done.stdout


def time_setup(inputs: str) -> list:
    """(seconds from interpreter start to ready, seconds of the reference
    start just before it), once per probe process."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        try:
            subprocess.run([sys.executable, "-c", REFERENCE_START],
                           env=CHILD_ENV, check=True, timeout=60)
        except (subprocess.SubprocessError, OSError) as exc:
            raise BenchError(f"reference start failed: {exc}") from None
        reference = time.perf_counter() - start
        start = time.perf_counter()
        proc = subprocess.Popen(
            _python("timing.py", "--probe", "--seconds", "0", "--limit", "0",
                    "--budget", "0"),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=CHILD_ENV, start_new_session=True)
        try:
            proc.stdin.write(inputs)
            proc.stdin.close()
            line = proc.stdout.readline()
            samples.append((time.perf_counter() - start, reference))
            if not line.startswith('{"ready"'):
                raise BenchError("set-up probe did not get ready")
        finally:
            _kill_group(proc)
    return samples


def run_queries(inputs: str, seconds: float, trace: bool,
                budget: float) -> list:
    """Start the timing process; returns its records."""
    proc = subprocess.Popen(
        _python("timing.py", "--seconds", str(seconds), "--trace",
                str(int(trace)), "--limit", str(QUERY_LIMIT_S),
                "--budget", str(budget)),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=CHILD_ENV, start_new_session=True)
    # the timing process keeps its own deadlines; this only guards a hang
    watchdog = threading.Timer(budget + QUERY_LIMIT_S + 5.0, os.killpg,
                               (proc.pid, signal.SIGKILL))
    watchdog.start()
    records = []
    try:
        proc.stdin.write(inputs)
        proc.stdin.close()
        ready = proc.stdout.readline()
        if not ready.startswith('{"ready"'):
            raise BenchError("timing process did not get ready")
        for line in proc.stdout:
            records.append(json.loads(line))
        if proc.wait() != 0:
            raise BenchError("timing process failed or overran its budget")
    finally:
        watchdog.cancel()
        _kill_group(proc)
    return records


class Outcome:
    """Per-query results: fastest time, failure and answer checks."""

    def __init__(self, queries: list, records: list):
        self.queries = queries
        n = len(queries)
        self.untraced = defaultdict(list)
        self.traced = defaultdict(list)
        self.failed = set()
        self.problems = {}
        first = {}
        for rec in records:
            i = rec["i"]
            expect = queries[i]["expect"]
            if rec.get("post"):
                problem = rec.get("problem") or rec.get("error")
                if rec.get("timeout"):
                    self.failed.add(i)
                elif problem:
                    self.problems.setdefault(i, problem)
                continue
            if answers.is_failure(expect, rec):
                self.failed.add(i)
                continue
            (self.traced if rec["traced"] else self.untraced)[i].append(rec)
            if i not in first:
                first[i] = rec
                problem = answers.check_output(expect, rec["code"],
                                               rec.get("stdout", ""))
                if problem:
                    self.problems.setdefault(i, problem)
            elif (rec["code"], rec["stdout_sha256"]) != (
                    first[i]["code"], first[i]["stdout_sha256"]):
                self.problems.setdefault(i, "output changed between samples")
        for i in range(n):
            if i not in first:
                self.failed.add(i)
        self.problems = {i: p for i, p in self.problems.items()
                         if i not in self.failed}

    def cold_seconds(self, i: int) -> float:
        """Fastest untraced sample; a failed query counts at the limit."""
        if i in self.failed or not self.untraced[i]:
            return QUERY_LIMIT_S
        return min(r["seconds"] for r in self.untraced[i])

    def reference_seconds(self, i: int) -> float:
        """Cold time at the reference speed: the fastest over the untraced
        samples of the sample's time over the calibration time measured
        just before it in the same child, times CALIBRATION_REFERENCE_S."""
        if i in self.failed or not self.untraced[i]:
            return QUERY_LIMIT_S
        return CALIBRATION_REFERENCE_S * min(
            r["seconds"] / r["calibration_s"] for r in self.untraced[i])

    def fastest_traced(self, i: int):
        samples = self.traced[i]
        return min(samples, key=lambda r: r["seconds"]) if samples else None


def end_to_end(outcome: Outcome, setup: list) -> dict:
    queries = range(len(outcome.queries))
    times = sorted(outcome.cold_seconds(i) for i in queries)
    reference = [outcome.reference_seconds(i) for i in queries]
    rss = [r["rss_kb"] for samples in outcome.untraced.values() for r in samples]
    n = len(times)
    metrics = {
        "work_s": (sum(times), "s"),
        "latency_p50_ms": (1000 * statistics.median(times), "ms"),
        "latency_geomean_ms": (1000 * statistics.geometric_mean(times), "ms"),
        "work_ref_s": (sum(reference), "s"),
        "latency_geomean_ref_ms": (
            1000 * statistics.geometric_mean(reference), "ms"),
        "setup_s": (statistics.median(
            REFERENCE_START_S * seconds / start for seconds, start in setup),
            "s"),
        "setup_wall_s": (statistics.median(s for s, _ in setup), "s"),
        "peak_rss_mb": (max(rss) / 1024 if rss else 0.0, "MB"),
        "failed_share": (len(outcome.failed) / n, "share"),
        "wrong_verdicts": (len(outcome.problems), "count"),
    }
    # the highest percentile with at least ten queries beyond it, where
    # that is above the median
    if n > 20:
        metrics["latency_tail_ms"] = (1000 * times[n - 11], "ms")
        metrics["latency_tail_level"] = (100 * (n - 10) / n, "percentile")
    return metrics


def per_layer(outcome: Outcome) -> dict:
    samples, untraced_s, joint_states = [], 0.0, 0
    for i, query in enumerate(outcome.queries):
        fastest = outcome.fastest_traced(i)
        if fastest is None or i in outcome.failed:
            continue
        samples.append(fastest)
        untraced_s += outcome.cold_seconds(i)
        joint_states += query["joint_states"]
    return layers.summarize([s["layers"] for s in samples],
                            [s["seconds"] for s in samples],
                            untraced_s, joint_states)


def rows(outcome: Outcome) -> dict:
    groups = defaultdict(list)
    for i, query in enumerate(outcome.queries):
        groups[query["row"]].append(i)
    out = {}
    for row, members in groups.items():
        times = [outcome.cold_seconds(i) for i in members]
        out[row] = {"queries": len(members),
                    "failed": sum(i in outcome.failed for i in members),
                    "wrong": sum(i in outcome.problems for i in members),
                    "work_s": sum(times),
                    "latency_p50_ms": 1000 * statistics.median(times)}
    return out


def fingerprint(workload: str, seed: int, doc: dict) -> dict:
    canonical = json.dumps(doc["queries"], sort_keys=True).encode()
    return {"workload": workload, "seed": seed,
            "inputs_sha256": hashlib.sha256(canonical).hexdigest(),
            "python": platform.python_version(),
            "rat_backend": doc["rat_backend"], "nproc": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cold-query benchmark of probranch")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the whole record here")
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "probranch" / "__init__.py").is_file():
        print("error: no probranch sources under src/", file=sys.stderr)
        return 2
    try:
        inputs = generate(args.workload, args.seed, timeout=60.0)
        doc = json.loads(inputs)
        setup = time_setup(inputs)
        budget = RUN_LIMIT_S - QUERY_LIMIT_S - (time.monotonic() - started)
        records = run_queries(inputs, args.seconds, bool(args.trace), budget)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    outcome = Outcome(doc["queries"], records)
    e2e = end_to_end(outcome, setup)
    table = rows(outcome)
    layer_metrics = per_layer(outcome) if args.trace else {}
    print(f"workload {args.workload}: {len(doc['queries'])} queries, "
          f"closed loop, 1 client, seed {args.seed}")
    for row, r in sorted(table.items()):
        print(f"row {row:<34} queries={r['queries']:<3} failed={r['failed']} "
              f"wrong={r['wrong']} work_s={r['work_s']:.4f} "
              f"latency_p50_ms={r['latency_p50_ms']:.3f}")
    for i, problem in sorted(outcome.problems.items()):
        print(f"wrong {doc['queries'][i]['id']}: {problem}")
    for name, (value, unit) in {**e2e, **layer_metrics}.items():
        print(f"metric {name} = {value:.6g} {unit}")
    fp = fingerprint(args.workload, args.seed, doc)
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    if args.trace:
        reported = {k: v for k, v in layer_metrics.items()
                    if k not in layers.PRINTED_ONLY}
    else:
        reported = {k: e2e[k] for k in GATED}
    result = {
        "correct": not outcome.problems,
        "attempted": len(doc["queries"]),
        "failed": len(outcome.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    if args.out:
        record = {**result, "fingerprint": fp, "trace": args.trace,
                  "all_metrics": {k: {"value": v, "unit": u} for k, (v, u)
                                  in {**e2e, **layer_metrics}.items()},
                  "rows": table,
                  "queries": {q["id"]: {
                      "samples": [r["seconds"] for r in outcome.untraced[i]],
                      "calibrations": [r["calibration_s"]
                                       for r in outcome.untraced[i]],
                      "failed": i in outcome.failed,
                      "problem": outcome.problems.get(i)}
                      for i, q in enumerate(doc["queries"])}}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
