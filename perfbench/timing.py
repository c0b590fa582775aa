"""Timing process of the cold-query benchmark.

Reads an inputs document (made by ``gen.py`` in another process) on
stdin, imports ``probranch`` and prints ``ready``.  It then runs rounds
over the queries.  Each sample forks one child, which calls
``probranch.cli.main`` on the query's argv with a timer around the call.
Only one child is alive at a time, and this process never runs a query
itself.  Whatever caches the package keeps, every query therefore starts
as cold as a fresh ``probranch`` invocation, without paying for the
interpreter start and the import again.  Before every fork,
``assert_cold`` checks that this still holds.  Before its query, each
child times ``calibrate``, a fixed piece of work outside the package.

Output is JSON lines: ``ready``, one line per sample, then one line per
post-check (see ``answers.check_in_process``).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import select
import signal
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from probranch import cli  # noqa: E402

GENERATOR_MODULE = "gen"
REPEAT_BELOW_S = 0.03
MAX_REPEATS = 3
CALIBRATION_STEPS = 400


class ColdCacheError(RuntimeError):
    """The timing process holds state that a cold query must not see."""


def _cached_functions(module):
    for value in list(vars(module).values()):
        if hasattr(value, "cache_info"):
            yield value
        elif isinstance(value, type) and value.__module__ == module.__name__:
            for attr in vars(value).values():
                fn = getattr(attr, "__func__", attr)
                if hasattr(fn, "cache_info"):
                    yield fn


def assert_cold() -> None:
    """Raise unless every lru_cache in probranch.* is empty and the input
    generator was never imported into this process."""
    if GENERATOR_MODULE in sys.modules:
        raise ColdCacheError("input generation ran in the timing process")
    for name, module in layers.package_modules():
        for fn in _cached_functions(module):
            size = fn.cache_info().currsize
            if size:
                raise ColdCacheError(
                    f"{name}.{fn.__qualname__} holds {size} cached entries")


def calibrate() -> int:
    """Fixed work that uses no probranch code: exact rational arithmetic
    and a dict, as the package's LP code does.  Every child times it just
    before its query, so that run.py can scale the query's time to a
    reference machine speed."""
    table = {}
    x = Fraction(1, 3)
    for i in range(1, CALIBRATION_STEPS):
        x = (x * Fraction(i, i + 1) + Fraction(1, i)) / 2
        table[(i % 50, x.denominator % 97)] = x
    return len(table)


def _child(query: dict, traced: bool) -> dict:
    """Body of a forked child: one cold query, timed around cli.main."""
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    tracer = None
    main = cli.main
    if traced:
        tracer = layers.Tracer()
        main = tracer.install(cli.main)
    error = None
    calibration_start = time.perf_counter()
    calibrate()
    start = time.perf_counter()
    try:
        code = main(list(query["argv"]))
    except BaseException:  # a query that raises is a failure to report
        code, error = None, traceback.format_exc(limit=8)
    seconds = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record = {"seconds": seconds, "code": code, "rss_kb": rss_kb,
              "calibration_s": start - calibration_start,
              "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:],
              "error": error}
    if tracer is not None:
        record["layers"] = tracer.report()
    return record


def _post_child(query: dict, stdout: str) -> dict:
    import answers
    return {"problem": answers.check_in_process(query["expect"], stdout)}


def fork_call(body, limit: float) -> dict:
    """Run body() in a forked child and return the dict it produced.

    The child is killed once `limit` seconds have passed; the result then
    has ``timeout`` set.  The child is always reaped before returning.
    """
    assert_cold()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        status = 0
        try:
            os.close(read_fd)
            try:
                payload = body()
            except BaseException:
                payload = {"error": traceback.format_exc(limit=8)}
            data = json.dumps(payload).encode()
            view = memoryview(data)
            while view:
                view = view[os.write(write_fd, view):]
        except BaseException:
            status = 1
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks = []
    deadline = time.monotonic() + limit
    timed_out = False
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([read_fd], [], [], remaining)[0]:
                timed_out = True
                break
            data = os.read(read_fd, 1 << 16)
            if not data:
                break
            chunks.append(data)
    finally:
        os.close(read_fd)
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    if timed_out:
        return {"timeout": True, "error": f"killed after {limit:g} s"}
    try:
        return json.loads(b"".join(chunks))
    except ValueError:
        return {"error": "child exited without a result"}


def run(inputs: dict, seconds: float, traced: bool, limit: float,
        budget: float, emit) -> None:
    """Run rounds over the queries and pass each result to `emit`.

    Rounds go on while the next one is expected to end within `seconds`;
    at least three are run, or in a traced run two.  A traced run
    alternates untraced and traced rounds, so that the tracing overhead
    can be measured.  Within a round, a query whose samples took less
    than REPEAT_BELOW_S is sampled again, up to MAX_REPEATS times: short
    queries get more samples towards their fastest time at little cost.
    No sample starts or runs past `budget` seconds, and no post-check past
    `budget + limit`; what is left then is reported as timed out.
    """
    queries = inputs["queries"]
    start = time.monotonic()
    give_up = start + budget
    failed: set = set()
    first_stdout: dict = {}
    last_round = 0.0
    rnd = 0
    min_rounds = 2 if traced else 3
    while rnd < min_rounds or time.monotonic() - start + last_round <= seconds:
        round_start = time.monotonic()
        traced_round = traced and rnd % 2 == 1
        for i, query in enumerate(queries):
            spent = 0.0
            for rep in range(MAX_REPEATS):
                if i in failed or (rep and spent >= REPEAT_BELOW_S):
                    break
                left = give_up - time.monotonic()
                if left <= 0:
                    result = {"timeout": True,
                              "error": "benchmark time budget spent"}
                else:
                    result = fork_call(
                        lambda q=query: _child(q, traced_round),
                        min(limit, left))
                out = result.pop("stdout", None)
                if out is not None:
                    result["stdout_sha256"] = hashlib.sha256(
                        out.encode()).hexdigest()
                    if rnd == 0 and rep == 0:
                        result["stdout"] = out
                        if query["expect"]["kind"] == "concretize":
                            first_stdout[i] = out
                if result.get("timeout") or result.get("error"):
                    failed.add(i)
                spent += result.get("seconds", REPEAT_BELOW_S)
                emit({"i": i, "round": rnd, "traced": traced_round, **result})
        last_round = time.monotonic() - round_start
        rnd += 1
        if time.monotonic() >= give_up:
            break
    post_deadline = give_up + limit
    for i, query in enumerate(queries):
        if i in first_stdout:
            left = post_deadline - time.monotonic()
            if left <= 0:
                result = {"timeout": True,
                          "error": "benchmark time budget spent"}
            else:
                result = fork_call(
                    lambda q=query, s=first_stdout[i]: _post_child(q, s),
                    min(limit, left))
            emit({"i": i, "post": True, **result})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=float, required=True,
                        help="per-query time limit in seconds")
    parser.add_argument("--budget", type=float, required=True,
                        help="no query starts after this many seconds")
    parser.add_argument("--probe", action="store_true",
                        help="load the inputs, print ready and exit")
    args = parser.parse_args(argv)
    inputs = json.loads(sys.stdin.read())
    stdout = sys.stdout

    def emit(record):
        stdout.write(json.dumps(record) + "\n")
        stdout.flush()

    emit({"ready": len(inputs["queries"])})
    if args.probe:
        return 0
    run(inputs, args.seconds, bool(args.trace), args.limit, args.budget, emit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
