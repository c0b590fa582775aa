"""Per-layer tracing for the cold-query benchmark.

A traced query runs in a forked child that wraps the entry points of
each probranch layer before calling ``cli.main``.  Nothing under ``src/``
changes: the wrappers are installed from here, by rebinding module
attributes, and die with the child.

* Spans (name, layer, start, end, enclosing span) give each layer's self
  time: a span's duration minus the spans opened inside it and minus the
  tracer's own bookkeeping.  Spans are aggregated as they close; only
  the outermost of nested spans with one name adds to its inclusive time.
* Counters count calls at the same boundaries.  The hottest (term hashes,
  pivots) are bare counters without a span; they make up most of the
  tracing overhead, which a traced run reports as ``trace.overhead_share``.

The layers, and the end-to-end metric each layer's metrics should move
(chains is the workload that run.py runs but BENCHMARK.json omits):

* ``lp``: solves, pivots, sizes, repeats.  Should move work_s and the
  query latencies on fuzz-check and prove, and the branching rows of
  chains, but barely its strong rows.
* ``equivalence``: checks, refinement rounds, tables, transfer calls.
  Should move work_s on chains.
* ``terms``, ``parse``, ``dist``: hash calls, parse time, joint states.
  Should move the strong rows of chains, fuzz-check only a little.
* ``semantics``: flow builds, transition-cache misses.  Should move
  work_s and peak_rss_mb on every workload.
* ``axioms``: prover, emission, replay, concretization.  Should move
  work_s on prove only.
* ``cli``: argparse, JSON output and all code outside the spans above;
  should move the query latencies on fuzz-check.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

# unit of every per-layer metric that summarize() computes
METRICS = {
    "lp.solves": "count",
    "lp.solve_s": "s",
    "lp.pivots": "count",
    "lp.distinct_share": "share",
    "lp.rows_p50": "count",
    "lp.cols_p50": "count",
    "lp.cols_max": "count",
    "lp.nonzero_share": "share",
    "lp.infeasible_share": "share",
    "equivalence.checks": "count",
    "equivalence.refine_rounds": "count",
    "equivalence.tables_built": "count",
    "equivalence.classify_s": "s",
    "equivalence.transfer_calls": "count",
    "equivalence.transfer_hit_share": "share",
    "equivalence.self_s": "s",
    "terms.hash_calls": "count",
    "parse.s": "s",
    "dist.joint_states": "count",
    "semantics.flow_builds": "count",
    "semantics.flow_build_s": "s",
    "semantics.transitions_misses": "count",
    "axioms.prove_s": "s",
    "axioms.rewrite_steps": "count",
    "axioms.side_checks": "count",
    "axioms.proof_steps": "count",
    "axioms.emit_s": "s",
    "axioms.replay_s": "s",
    "axioms.concretize_s": "s",
    "cli.self_s": "s",
    "trace.overhead_share": "share",
    "trace.covered_share": "share",
}
# each layer's self time as a share of the traced query time
LAYERS = ("cli", "parse", "equivalence", "lp", "semantics", "axioms")
METRICS.update({f"{layer}.self_share": "share" for layer in LAYERS})

# Times of the axioms layer, which the check-only workload never enters:
# they read exactly 0 there on every run, so they are printed but left
# out of the result line's metrics.  The axioms counts stay on it: they
# are above 0 on prove, and on fuzz-check they show any prover work that
# leaks into checking.
PRINTED_ONLY = {"axioms.prove_s", "axioms.emit_s", "axioms.replay_s",
                "axioms.concretize_s", "axioms.self_share"}


def package_modules():
    """(name, module) of every imported probranch module."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "probranch"
                                   or name.startswith("probranch.")):
            yield name, module


def _rebind(old, new) -> None:
    """Point every probranch module attribute bound to `old` at `new`."""
    for _, module in package_modules():
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


class Tracer:
    """Spans and counters of one traced query."""

    def __init__(self):
        self.stack: list = []
        self.open = Counter()
        self.bookkeeping = 0.0
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.cells = defaultdict(lambda: [0])  # call counts by name
        self.lp_seen: set = set()
        self.lp_rows: list = []
        self.lp_cols: list = []
        self.lp_nonzero = 0
        self.lp_cells = 0
        self.lp_infeasible = 0

    # -- wrappers

    def span(self, name: str, layer: str, fn, after=None):
        tracer = self
        calls = self.cells[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[0] += 1
            tracer.open[name] += 1
            frame = [0.0]
            tracer.stack.append(frame)
            book = tracer.bookkeeping
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = (time.perf_counter() - start
                           - (tracer.bookkeeping - book))
                tracer.stack.pop()
                tracer.open[name] -= 1
                tracer.self_s[layer] += elapsed - frame[0]
                if not tracer.open[name]:
                    tracer.incl_s[name] += elapsed
                if tracer.stack:
                    tracer.stack[-1][0] += elapsed
            if after is not None:
                tracer._booked(after, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn, amount=None):
        cell = self.cells[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1 if amount is None else amount(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _booked(self, fn, *args):
        """Run tracer-side work and keep its time out of every span and
        its term hashes (of LP variable names) out of the hash count."""
        start = time.perf_counter()
        hashes = self.cells["terms.hash_calls"]
        before = hashes[0]
        try:
            fn(*args)
        finally:
            hashes[0] = before
            self.bookkeeping += time.perf_counter() - start

    # -- per-solve LP statistics

    def _lp_stats(self, lp, objective):
        rows = getattr(lp, "_rows", ())
        index = getattr(lp, "_index", {})
        n_cols = len(index)
        self.lp_rows.append(len(rows))
        self.lp_cols.append(n_cols)
        self.lp_nonzero += sum(len(coeffs) for coeffs, _, _ in rows)
        self.lp_cells += len(rows) * n_cols
        self.lp_seen.add((
            n_cols,
            tuple((tuple(sorted(c.items())), rel, rhs) for c, rel, rhs in rows),
            tuple(sorted((index.get(k, -1), v) for k, v in objective.items()))))

    def _lp_solve(self, minimize):
        tracer = self

        @functools.wraps(minimize)
        def wrapper(lp, objective):
            tracer._booked(tracer._lp_stats, lp, objective)
            result = timed(lp, objective)
            if result is None:
                tracer.lp_infeasible += 1
            return result

        timed = self.span("lp.solve", "lp", minimize)
        return wrapper

    def _proof_steps(self, _args, result):
        trace = result[1] if isinstance(result, tuple) else result
        self.cells["axioms.proof_steps"][0] += len(getattr(trace, "steps", ()))

    # -- installation

    def install(self, main):
        """Wrap the layers' entry points; returns the traced cli.main.

        An entry point that a later version of the package renames or
        removes is skipped, and the metrics counted there read 0."""
        from probranch import axioms, equivalence, lp, parse, semantics, terms

        def wrap_function(module, attr, make):
            old = getattr(module, attr, None)
            if callable(old):
                _rebind(old, make(old))

        def wrap_method(cls, attr, make):
            old = vars(cls).get(attr) if isinstance(cls, type) else None
            if callable(old):
                setattr(cls, attr, make(old))

        def span(name, layer, after=None):
            return lambda fn: self.span(name, layer, fn, after)

        def counter(name, amount=None):
            return lambda fn: self.counter(name, fn, amount)

        wrap_function(parse, "parse_term", span("parse", "parse"))
        for attr in ("check", "sqsubseteq", "branching_analysis",
                     "strong_partition", "rooted_partition_over"):
            wrap_function(equivalence, attr,
                          span(f"equivalence.{attr}", "equivalence"))
        wrap_function(semantics, "add_flow_result",
                      span("semantics.flow", "semantics"))
        wrap_function(axioms, "prove_equal",
                      span("axioms.prove", "axioms", self._proof_steps))
        wrap_function(axioms, "concretize",
                      span("axioms.concretize", "axioms", self._proof_steps))
        wrap_function(lp, "_pivot", counter("lp.pivots"))

        tables = getattr(equivalence, "_Tables", None)
        wrap_method(tables, "__init__", counter("equivalence.tables_built"))
        wrap_method(tables, "_classify",
                    span("equivalence.classify", "equivalence"))
        wrap_method(tables, "transfer_feasible",
                    counter("equivalence.transfer_calls"))
        wrap_method(tables, "_transfer_lp", counter("equivalence.transfer_lps"))
        for check in ("_BranchingCheck", "_StrongCheck"):
            wrap_method(getattr(equivalence, check, None), "context",
                        counter("equivalence.refine_rounds"))
        trace_cls = getattr(axioms, "ProofTrace", None)
        wrap_method(trace_cls, "replay", span("axioms.replay", "axioms"))
        wrap_method(trace_cls, "to_jsonl", span("axioms.emit", "axioms"))
        wrap_method(getattr(axioms, "_Budget", None), "spend", counter(
            "axioms.rewrite_steps", lambda _self, n=1: n))
        wrap_method(getattr(lp, "LP", None), "minimize", self._lp_solve)
        for name in ("Zero", "Prefix", "Sum", "Dirac", "PChoice"):
            wrap_method(getattr(terms, name, None), "__hash__",
                        counter("terms.hash_calls"))
        return self.span("cli.main", "cli", main)

    # -- result

    def report(self) -> dict:
        """Counts and times of the finished query, as plain JSON data.
        It only reads what the wrappers collected, so the counts are the
        query's own."""
        from probranch.semantics import nd_transitions

        counts = {name: cell[0] for name, cell in self.cells.items()}
        counts["lp.solves"] = len(self.lp_rows)
        counts["lp.distinct"] = len(self.lp_seen)
        counts["lp.nonzero"] = self.lp_nonzero
        counts["lp.cells"] = self.lp_cells
        counts["lp.infeasible"] = self.lp_infeasible
        info = getattr(nd_transitions, "cache_info", None)
        counts["semantics.transitions_misses"] = info().misses if info else 0
        return {"self_s": dict(self.self_s),
                "incl_s": dict(self.incl_s), "counts": counts,
                "lp_rows": self.lp_rows, "lp_cols": self.lp_cols}


def summarize(reports: list, traced_seconds: list, untraced_s: float,
              joint_states: int) -> dict:
    """Per-layer metrics {name: (value, unit)} over one traced sample per
    query; `untraced_s` is the untraced total of the same queries and
    `joint_states` their joint derivative states, counted by gen.py."""
    counts = Counter()
    self_s = Counter()
    incl_s = Counter()
    rows, cols = [], []
    for rep in reports:
        counts.update(rep["counts"])
        self_s.update(rep["self_s"])
        incl_s.update(rep["incl_s"])
        rows.extend(rep["lp_rows"])
        cols.extend(rep["lp_cols"])
    traced = sum(traced_seconds)

    def share(part, whole):
        return part / whole if whole else 0.0

    values = {
        "lp.solves": counts["lp.solves"],
        "lp.solve_s": incl_s["lp.solve"],
        "lp.pivots": counts["lp.pivots"],
        "lp.distinct_share": share(counts["lp.distinct"], counts["lp.solves"]),
        "lp.rows_p50": statistics.median(rows) if rows else 0,
        "lp.cols_p50": statistics.median(cols) if cols else 0,
        "lp.cols_max": max(cols, default=0),
        "lp.nonzero_share": share(counts["lp.nonzero"], counts["lp.cells"]),
        "lp.infeasible_share": share(counts["lp.infeasible"],
                                     counts["lp.solves"]),
        "equivalence.checks": counts["equivalence.check"],
        "equivalence.refine_rounds": counts["equivalence.refine_rounds"],
        "equivalence.tables_built": counts["equivalence.tables_built"],
        "equivalence.classify_s": incl_s["equivalence.classify"],
        "equivalence.transfer_calls": counts["equivalence.transfer_calls"],
        "equivalence.transfer_hit_share": share(
            counts["equivalence.transfer_calls"]
            - counts["equivalence.transfer_lps"],
            counts["equivalence.transfer_calls"]),
        "equivalence.self_s": self_s["equivalence"],
        "terms.hash_calls": counts["terms.hash_calls"],
        "parse.s": incl_s["parse"],
        "dist.joint_states": joint_states,
        "semantics.flow_builds": counts["semantics.flow"],
        "semantics.flow_build_s": incl_s["semantics.flow"],
        "semantics.transitions_misses": counts["semantics.transitions_misses"],
        "axioms.prove_s": incl_s["axioms.prove"],
        "axioms.rewrite_steps": counts["axioms.rewrite_steps"],
        "axioms.side_checks": counts["equivalence.sqsubseteq"],
        "axioms.proof_steps": counts["axioms.proof_steps"],
        "axioms.emit_s": incl_s["axioms.emit"],
        "axioms.replay_s": incl_s["axioms.replay"],
        "axioms.concretize_s": incl_s["axioms.concretize"],
        "cli.self_s": self_s["cli"],
        "trace.overhead_share": share(traced, untraced_s) - 1.0,
        "trace.covered_share": 1.0 - share(self_s["cli"], traced),
    }
    for layer in LAYERS:
        values[f"{layer}.self_share"] = share(self_s[layer], traced)
    return {name: (values[name], unit) for name, unit in METRICS.items()}
