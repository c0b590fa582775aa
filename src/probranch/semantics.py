"""Operational semantics: state transitions, combined distribution
transitions, partial silent steps, weak derivatives and stabilization.

Combined transitions and weak derivatives are convex sets.  They are
represented in two interchangeable ways, both exact:

* generator form — per-state generator lists whose weighted convex
  mixes span the set (TransitionPolytope, WeakClosure);
* flow form — a distribution nu is a weak derivative of mu iff a
  non-negative "firing mass" per silent transition balances the books:
  nu = mu + sum_t f_t * (target_t - point(source_t)).  Because every
  silent step strictly lowers structural complexity, the firing graph
  is acyclic and any balanced flow can be scheduled as an actual
  derivation, so the flow polytope is exactly the weak-derivative set.

All membership and matching questions reduce to exact-rational linear
feasibility.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .dist import (
    Distribution,
    den,
    derivatives,
    dirac,
    distribution,
)
from .lp import LP
from .rat import ONE, ZERO
from .terms import (
    Action,
    NdTerm,
    Prefix,
    TAU,
    Zero,
    action_key,
    complexity,
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
    out.sort(key=lambda t: (action_key(t.action), _dist_sort_key(t.target)))
    return tuple(out)


@lru_cache(maxsize=None)
def state_targets(state: NdTerm, action: Action) -> tuple:
    """Target distributions of the state's transitions with this action."""
    return tuple(t.target for t in nd_transitions(state) if t.action == action)


@dataclass(frozen=True)
class TransitionPolytope:
    """The convex set of alpha-successors of a distribution.

    A member is any (+)_E mu(E) * rho_E with rho_E a convex mix of the
    generators of E.  The polytope is empty iff some positive-mass state
    has no generator.
    """

    action: Action
    source: Distribution
    per_state_generators: tuple  # tuple[(NdTerm, tuple[Distribution, ...]), ...]

    @property
    def source_masses(self) -> dict:
        return dict(self.source.entries)

    @property
    def is_empty(self) -> bool:
        return any(not gens for _, gens in self.per_state_generators)

    def _lp(self):
        lp = LP()
        states = set()
        for state, gens in self.per_state_generators:
            for g in gens:
                lp.var(("x", state, g))
                states.update(g.support)
        for state, gens in self.per_state_generators:
            lp.add_eq({("x", state, g): ONE for g in gens},
                      self.source.mass(state))
        return lp, states

    def contains(self, nu: Distribution) -> bool:
        if self.is_empty:
            return False
        lp, states = self._lp()
        states.update(nu.support)
        for f in states:
            coeffs = {}
            for state, gens in self.per_state_generators:
                for g in gens:
                    m = g.mass(f)
                    if m != ZERO:
                        coeffs[("x", state, g)] = m
            lp.add_eq(coeffs, nu.mass(f))
        return lp.feasible() is not None

    def matches_signature(self, partition, signature: dict) -> bool:
        """Is some member's class-mass vector exactly the signature?

        `partition` is an equivalence.Partition or a plain iterable of
        frozensets; `signature` maps classes to the required mass.
        """
        total = sum(signature.values(), ZERO)
        if total != ONE:
            raise ValueError("signature masses must sum to 1")
        if self.is_empty:
            return False
        lp, _ = self._lp()
        for cls in _classes_of(partition):
            coeffs = {}
            for state, gens in self.per_state_generators:
                for g in gens:
                    m = g.class_mass(cls)
                    if m != ZERO:
                        coeffs[("x", state, g)] = m
            lp.add_eq(coeffs, signature.get(cls, ZERO))
        return lp.feasible() is not None


def _classes_of(partition):
    classes = getattr(partition, "classes", partition)
    return [frozenset(c) for c in classes]


def transition_polytope(mu: Distribution, action: Action) -> TransitionPolytope:
    """Combined alpha-transitions of mu; empty iff some support state
    cannot move by alpha."""
    gens = tuple((state, state_targets(state, action)) for state in mu.support)
    return TransitionPolytope(action, mu, gens)


def partial_tau_successors(mu: Distribution) -> TransitionPolytope:
    """One partial silent step: each support state either stays or moves
    any fraction of its mass along its silent transitions.  Contains mu."""
    gens = tuple(
        (state, (dirac(state),) + state_targets(state, TAU))
        for state in mu.support
    )
    return TransitionPolytope(TAU, mu, gens)


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
    result = {}
    for st in states:
        v = lp.var((tag, "m", st))
        result[st] = v
    for t in transitions:
        lp.var((tag, "f", t[0], t[1]))
    for st in states:
        coeffs = {result[st]: ONE}
        rhs = ZERO
        base = start.get(st, ZERO)
        if isinstance(base, tuple):  # variable name from an earlier stage
            coeffs[base] = -ONE
        else:
            rhs = base
        for src, idx, target in transitions:
            delta = target.mass(st) - (ONE if src == st else ZERO)
            if delta != ZERO:
                coeffs[(tag, "f", src, idx)] = -delta
        lp.add_eq(coeffs, rhs)
    return result


def weak_reachable(mu: Distribution, nu: Distribution) -> bool:
    """mu => nu, decided by exact flow feasibility."""
    states = sorted(set().union(*(derivatives(s) for s in mu.support)),
                    key=nd_key)
    if not set(nu.support) <= set(states):
        return False
    lp = LP()
    res = add_flow_result(lp, "w", dict(mu.entries), states,
                          tau_transition_list(states))
    for st in states:
        lp.add_eq({res[st]: ONE}, nu.mass(st))
    return lp.feasible() is not None


@dataclass(frozen=True)
class WeakClosure:
    """Generator representation of { nu : mu => nu }; convex, contains mu."""

    source: Distribution
    generators: tuple

    def contains(self, nu: Distribution) -> bool:
        return weak_reachable(self.source, nu)


def _one_step_vertices(mu: Distribution):
    """Extreme candidates of the partial-step polytope from mu: every
    support state moves all-or-nothing onto one silent target."""
    options = []
    for state, m in mu.entries:
        opts = [dirac(state)] + list(state_targets(state, TAU))
        options.append((m, opts))
    results = [dict()]
    for m, opts in options:
        new = []
        for partial in results:
            for opt in opts:
                acc = dict(partial)
                for t, q in opt.entries:
                    acc[t] = acc.get(t, ZERO) + m * q
                new.append(acc)
        results = new
    return [distribution(acc) for acc in results]


def _prune_redundant(gens: list) -> list:
    """Drop generators that are convex combinations of the others."""
    kept = list(gens)
    changed = True
    while changed:
        changed = False
        for i, g in enumerate(kept):
            others = kept[:i] + kept[i + 1:]
            if not others:
                continue
            if _in_hull(g, others):
                kept.pop(i)
                changed = True
                break
    return kept


def _in_hull(point: Distribution, gens: list) -> bool:
    lp = LP()
    for i, _ in enumerate(gens):
        lp.var(("l", i))
    lp.add_eq({("l", i): ONE for i in range(len(gens))}, ONE)
    states = set(point.support)
    for g in gens:
        states.update(g.support)
    for st in states:
        lp.add_eq({("l", i): g.mass(st) for i, g in enumerate(gens)
                   if g.mass(st) != ZERO}, point.mass(st))
    return lp.feasible() is not None


def weak_closure(mu: Distribution) -> WeakClosure:
    """Saturate the weak-derivative set from mu.

    Termination: every all-or-nothing move strictly decreases the weight
    of some mass, and the move targets live in the finite derivative
    set, so only finitely many vertices can appear.
    """
    gens = [mu]
    seen = {mu}
    frontier = [mu]
    while frontier:
        g = frontier.pop()
        for v in _one_step_vertices(g):
            if v not in seen:
                seen.add(v)
                gens.append(v)
                frontier.append(v)
        if len(gens) > 400:  # safety valve for desk-scale misuse
            raise RuntimeError("weak closure saturation blow-up")
    gens = _prune_redundant(gens)
    ordered = sorted(gens, key=_dist_sort_key)
    if mu in ordered:
        ordered.remove(mu)
    return WeakClosure(mu, (mu, *ordered))


def _dist_sort_key(mu: Distribution):
    return tuple((nd_key(t), m.numerator, m.denominator) for t, m in mu.entries)


def stabilize(mu: Distribution, partition) -> Distribution:
    """Weight-minimal weak derivative with the same class-mass signature.

    Among the signature-preserving weak derivatives the weight minimum is
    unique up to the remaining face; ties are broken by lexicographic
    minimality of the mass vector over the term order, which pins a single
    canonical point.  The result cannot silently move any further without
    changing its signature, hence it is stable relative to the partition.
    """
    states = sorted(set().union(*(derivatives(s) for s in mu.support)),
                    key=nd_key)
    transitions = tau_transition_list(states)

    fixed: list = []

    covered = set()
    classes = _classes_of(partition)
    for cls in classes:
        covered.update(cls)
    # States outside the partition universe count as singleton classes so
    # their masses are pinned too.
    classes.extend(frozenset({st}) for st in states if st not in covered)

    def build():
        lp = LP()
        res = add_flow_result(lp, "w", dict(mu.entries), states, transitions)
        for cls in classes:
            members = [st for st in states if st in cls]
            required = mu.class_mass(cls)
            if members or required != ZERO:
                lp.add_eq({res[st]: ONE for st in members}, required)
        for st, value in fixed:
            lp.add_eq({res[st]: ONE}, value)
        return lp, res

    lp, res = build()
    opt = lp.minimize({res[st]: complexity(st) for st in states})
    best_weight = opt["__value__"]

    def build_with_weight():
        lp, res = build()
        lp.add_eq({res[st]: complexity(st) for st in states}, best_weight)
        return lp, res

    for st in states:
        lp, res = build_with_weight()
        sol = lp.minimize({res[st]: ONE})
        fixed.append((st, sol[res[st]]))
    return distribution({st: value for st, value in fixed if value != ZERO})


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
