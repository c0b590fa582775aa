"""Operational semantics: state transitions, silent-transition lists,
weak derivatives in flow form and DOT export.

Combined transitions and weak derivatives are convex sets, represented
in flow form: a distribution nu is a weak derivative of mu iff a
non-negative "firing mass" per silent transition balances the books,
nu = mu + sum_t f_t * (target_t - point(source_t)).  Because every
silent step strictly lowers structural complexity, the firing graph is
acyclic and any balanced flow can be scheduled as an actual derivation,
so the flow polytope is exactly the weak-derivative set.
`add_flow_result` adds one such stage to an LP; the branching decider
in equivalence.py chains stages (weak move, step, inert stabilization)
into one exact-rational feasibility problem per weak transfer
question.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .dist import Distribution, den, derivatives, dist_key
from .lp import LP
from .rat import ONE, ZERO
from .terms import (
    Action,
    NdTerm,
    Prefix,
    Zero,
    action_key,
    nd_key,
    summands,
)


@dataclass(frozen=True)
class StateTransition:
    source: NdTerm
    action: Action
    target: Distribution


@lru_cache(maxsize=None)
def nd_transitions(state: NdTerm) -> tuple:
    """All SOS transitions of a state: one per prefix summand, deduplicated."""
    seen = set()
    out = []
    for s in summands(state):
        if isinstance(s, Prefix):
            key = (s.action, s.body)
            if key in seen:
                continue
            seen.add(key)
            out.append(StateTransition(state, s.action, den(s.body)))
        elif not isinstance(s, Zero):
            raise TypeError(f"not a state: {s!r}")
    out.sort(key=lambda t: (action_key(t.action), dist_key(t.target)))
    return tuple(out)


@lru_cache(maxsize=None)
def state_targets(state: NdTerm, action: Action) -> tuple:
    """Target distributions of the state's transitions with this action."""
    return tuple(t.target for t in nd_transitions(state) if t.action == action)


# ---------------------------------------------------------------------------
# Weak derivatives


def tau_transition_list(states: Iterable[NdTerm]) -> tuple:
    """Deterministically ordered silent transitions of a state set."""
    out = []
    for state in sorted(states, key=nd_key):
        for idx, tr in enumerate(nd_transitions(state)):
            if tr.action.is_tau:
                out.append((state, idx, tr.target))
    return tuple(out)


def add_flow_result(lp: LP, tag, start: dict, states, transitions) -> dict:
    """Add flow variables over `transitions` and result-mass variables.

    Returns {state: varname} for the resulting masses.  `start` maps
    states to fixed masses (a dict), or to variable names registered in
    the LP when a previous stage feeds this one.
    """
    result = {st: lp.var((tag, "m", st)) for st in states}
    moved = {st: {} for st in states}  # state -> {flow var: net mass in}
    for src, idx, target in transitions:
        flow = lp.var((tag, "f", src, idx))
        for st, m in target.entries:
            if st in moved:
                moved[st][flow] = m
        if src in moved:
            moved[src][flow] = moved[src].get(flow, ZERO) - ONE
    for st in states:
        coeffs = {result[st]: ONE}
        rhs = ZERO
        base = start.get(st, ZERO)
        if isinstance(base, tuple):  # variable name from an earlier stage
            coeffs[base] = -ONE
        else:
            rhs = base
        for flow, delta in moved[st].items():
            if delta != ZERO:
                coeffs[flow] = -delta
        lp.add_eq(coeffs, rhs)
    return result


# ---------------------------------------------------------------------------
# DOT export


def _node_id(prefix: str, text: str) -> str:
    return prefix + hashlib.sha1(text.encode("utf-8")).hexdigest()[:12]


def to_dot(roots: Iterable[NdTerm]) -> str:
    """Transition graph in DOT: round nodes for states, filled points for
    distributions, action-labelled and exact-fraction-weighted edges."""
    from .parse import print_nd

    states = sorted(set().union(*(derivatives(r) for r in roots)), key=nd_key)
    lines = [
        "digraph lts {",
        "  rankdir=TB;",
        '  node [fontname="Helvetica"];',
    ]
    dist_nodes = {}
    for st in states:
        label = print_nd(st).replace('"', '\\"')
        lines.append(f'  {_node_id("s", print_nd(st))} [shape=ellipse, label="{label}"];')
    edges = []
    for st in states:
        for tr in nd_transitions(st):
            key = tr.target
            if key not in dist_nodes:
                text = ", ".join(
                    f"{print_nd(t)}:{m.numerator}/{m.denominator}"
                    for t, m in key.entries)
                dist_nodes[key] = _node_id("d", text)
                lines.append(
                    f'  {dist_nodes[key]} [shape=point, width=0.12, label=""];')
                for t, m in key.entries:
                    edges.append(
                        f'  {dist_nodes[key]} -> {_node_id("s", print_nd(t))}'
                        f' [label="{m.numerator}/{m.denominator}", style=dashed];')
            edges.append(
                f'  {_node_id("s", print_nd(st))} -> {dist_nodes[key]}'
                f' [label="{tr.action.name}"];')
    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines)
