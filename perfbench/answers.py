"""Known-answer checks for the outputs of benchmark queries.

``check_output`` compares what a query printed with the answer its
construction guarantees (see ``gen.py``); it only reads text and runs in
the orchestrator.  ``check_in_process`` holds the checks that need the
library: that a concretization is concrete and prefix-equivalent to its
input.  It runs in a forked child after all timed samples.
"""

from __future__ import annotations

import json
from typing import Optional

# exit codes that are answers; anything else (2 usage, 3 resources, a
# raise) is a failed query, not a wrong answer
ANSWER_CODES = {"verdict": (0, 1), "proof": (0, 1), "concretize": (0,)}


def is_failure(expect: dict, sample: dict) -> bool:
    return (bool(sample.get("timeout") or sample.get("error"))
            or sample.get("code") not in ANSWER_CODES[expect["kind"]])


def _trace_problem(lines: list, start: Optional[str],
                   end: Optional[str]) -> Optional[str]:
    """The JSON-lines trace must run from start to end, each step starting
    where the previous one ended."""
    try:
        steps = [json.loads(line) for line in lines]
    except ValueError:
        return "trace line is not JSON"
    if not steps:
        return "empty trace"
    for k, step in enumerate(steps):
        if step.get("index") != k:
            return f"trace step {k} has index {step.get('index')}"
        if k and step.get("before") != steps[k - 1].get("after"):
            return f"trace step {k} does not start where step {k - 1} ended"
    if start is not None and steps[0].get("before") != start:
        return "trace does not start at the left input"
    if end is not None and steps[-1].get("after") != end:
        return "trace does not end at the right input"
    return None


def check_output(expect: dict, code: int, stdout: str) -> Optional[str]:
    """None when the output is the known answer, else what is wrong."""
    kind = expect["kind"]
    if kind == "verdict":
        want = 0 if expect["equivalent"] else 1
        if code != want:
            return f"exit code {code}, expected {want}"
        try:
            verdict = json.loads(stdout)
        except ValueError:
            return "verdict is not JSON"
        if verdict.get("equivalent") is not expect["equivalent"]:
            return "JSON verdict disagrees with the known answer"
        return None
    if kind == "proof":
        if code != 0:
            return f"exit code {code}: no proof of an equivalent pair"
        return _trace_problem(stdout.splitlines(), expect["left"],
                              expect["right"])
    if kind == "concretize":
        lines = stdout.splitlines()
        if code != 0 or not lines:
            return f"exit code {code} or no output"
        if len(lines) > 1:
            return _trace_problem(lines[1:], None, None)
        return None
    raise ValueError(f"unknown answer kind {kind!r}")


def check_in_process(expect: dict, stdout: str) -> Optional[str]:
    """Library-backed checks of a concretization: the output is concrete,
    stays rooted-branching equivalent to the input under the prefixes tau
    and a, and the trace runs from tau.input to tau.output."""
    from probranch.equivalence import check, is_concrete
    from probranch.parse import parse_term, print_term
    from probranch.terms import Action, Dirac, PTerm, Prefix, TAU

    def as_p(term):
        return term if isinstance(term, PTerm) else Dirac(term)

    p = as_p(parse_term(expect["term"]))
    lines = stdout.splitlines()
    pbar = as_p(parse_term(lines[0]))
    if not is_concrete(pbar):
        return "concretization is not concrete"
    for alpha in (TAU, Action("a")):
        if not check("rooted-branching", Prefix(alpha, p),
                     Prefix(alpha, pbar)).equivalent:
            return f"{alpha.name}.input and {alpha.name}.output differ"
    if len(lines) == 1:
        return None if p == pbar else "output differs from input without a trace"
    return _trace_problem(lines[1:], print_term(Prefix(TAU, p)),
                          print_term(Prefix(TAU, pbar)))
