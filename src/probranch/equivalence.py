"""Deciders for strong, branching and rooted-branching probabilistic
bisimilarity, inertness classification, concreteness predicates and the
direct-matching preorder used by the conditional axioms.

Strategy.  A state's `shape` is its strong class, built bottom-up by
complexity like the normal forms of axiom C: the set of its transitions,
each read as its action and its target's `form` (masses per shape),
without the targets that mix other targets of their action.  Strong
steps are combined, so two states are bisimilar iff each action's
targets span one hull, and equal hulls have equal vertices.  Shapes and
reachable actions (`reach`) are kept on the state node.  Branching
refinement runs over a derivative-closed state set from the classes of
states that reach the same visible actions: the bisimilarity preserves
weak traces, so it is the coarsest stable refinement of that start.  A
round profiles the first member of each shape in a class and hands its
profile to the others, and so does the root step.  The three relations
are decided by two recipes.

* The analysis, for branching.  Silent transitions are classified inert
  or not, bottom-up by structural complexity (silent steps strictly
  lower complexity, so the classification is well-founded).  A stable
  state's signature is its own class; an unstable state's is that of
  the target of its first inert transition.  A distribution's stable
  signature, its class masses once its inert moves have fired, is the
  weighted sum of its states' signatures; two distributions are related
  iff these are equal.  The transfer check for a state pair asks, per
  challenge, for a weak derivative of the responder that stabilizes
  onto the challenger's class, followed by a (possibly partial) step
  whose result stabilizes onto the challenge target's classes: one
  linear feasibility problem over firing masses.  The joint derivatives
  of both sides are refined.

* One root step, for strong and rooted branching, which answer every
  first step with a direct step: a full combined step of the responder,
  no silent move first.  Only the continuations, the support states of
  the roots' transition targets, are classed, by shape or by the final
  branching tables: classes of either relation restricted to a
  derivative-closed set are that set's own classes.  One profile step
  then groups the roots by the challenges they answer over those
  classes.  A root answers its own challenges, so equal profiles mean
  mutual matching.

Each matching question is one LP.  A direct step — strong bisimilarity,
the rooted first step and the matching preorder `sqsubseteq`, with no
silent move before the step — is one hull LP, `_direct_step`, over the
signatures of the responder's action-targets: class masses for strong,
stable signatures for the other two.  The weak branching step is the
flow LP of `_Tables.transfer_feasible`.  `shape` asks the hull LP
(`_combination`) whether a target mixes the others, and the prover
(axioms.py) asks it whether a body of its own forms mixes the other
same-action bodies, and reads the weights from the point.  The tables
keep no LP answers: `lp._simplex` is the one memo of an LP's answer.

A not-equivalent verdict of any relation carries the class masses of
both sides under the partition that decided it, and an action that
separates them: the smallest action of a challenge that exactly one of
two representatives answers, one from the first class where the left
side has more mass and one from the first where the right side has
more, profiled by the relation's own check.  A strong or rooted witness
labels classes of the two sides' own support states, a branching
witness classes of their joint derivatives.

The classes of the final branching partition group states whose point
distributions are branching bisimilar; distribution-level equivalence
additionally identifies a point distribution with the mixture it
silently dissolves into, which the stable signature captures.

`decide` is the one verdict entry.  It takes a state, a probabilistic
term or a distribution on each side, and per recipe it reads the
classes, the signature that compares the two sides and the check that
separates them in a witness.  `check` answers a branching or
rooted-branching pair whose forms meet (`_forms_meet`, no proof steps)
as equivalent, since strong bisimilarity implies both, and sends every
other pair to `decide`.

Outside refinement, `inertness`, `is_rigid`, `is_concrete` and the
prover read inertness off the final branching tables of the state's
derivatives (`_Tables.dissolves`, `_Tables.equivalent_fraction`); the
analyses are cached by derivative set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from .dist import Distribution, den, derivatives, dirac
from .lp import LP
from .parse import print_nd
from .rat import ONE, ZERO, format_rat
from .semantics import (
    StateTransition,
    add_flow_result,
    nd_transitions,
    state_targets,
    tau_transition_list,
)
from .terms import (
    Action,
    Dirac,
    NdTerm,
    PTerm,
    action_key,
    complexity,
    nd_key,
)


class ArgumentError(ValueError):
    """A transition passed to a classifier does not belong to the state."""


@dataclass(frozen=True)
class Partition:
    universe: frozenset
    classes: tuple  # tuple[frozenset, ...] canonically ordered

    def __post_init__(self):
        index = {s: k for k, cls in enumerate(self.classes) for s in cls}
        object.__setattr__(self, "_index", index)

    def class_of(self, state: NdTerm) -> frozenset:
        return self.classes[self.index_of(state)]

    def index_of(self, state: NdTerm) -> int:
        k = self._index.get(state)
        if k is None:
            raise KeyError(f"state not in partition universe: {state!r}")
        return k

    def sig(self, mu: Distribution) -> tuple:
        out = [ZERO] * len(self.classes)
        for t, m in mu.entries:
            out[self.index_of(t)] += m
        return tuple(out)

    # A partition with no inert move is its own stable-signature table.
    stab_sig = sig


def partition_from_classes(classes: Iterable) -> Partition:
    canon = tuple(sorted((frozenset(c) for c in classes if c),
                         key=lambda c: min(nd_key(s) for s in c)))
    universe = frozenset().union(*canon) if canon else frozenset()
    return Partition(universe, canon)


@dataclass(frozen=True)
class Verdict:
    equivalent: bool
    relation: str
    witness: Optional[dict] = None

    def to_json(self) -> dict:
        out = {"equivalent": self.equivalent, "relation": self.relation}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _class_label(cls) -> str:
    return print_nd(min(cls, key=nd_key))


def _sig_dict(partition: Partition, sig: tuple) -> dict:
    return {
        _class_label(cls): format_rat(sig[k])
        for k, cls in enumerate(partition.classes)
        if sig[k] != ZERO
    }


# ---------------------------------------------------------------------------
# Classification tables: inert transitions and stable signatures


class _Tables:
    """Inertness classification and stable signatures for a fixed
    partition over its universe; on the final branching partition,
    `dissolves` and `equivalent_fraction` answer inertness questions."""

    def __init__(self, partition: Partition):
        self.partition = partition
        self.inert: dict = {}
        self.unstable: set = set()
        self.stabsig_state: dict = {}
        self._classify()

    def stab_sig(self, mu: Distribution) -> tuple:
        """The class masses of mu once its inert moves have fired.  Each
        unstable state fires its first inert transition, so the result
        is linear in mu: the mu-weighted sum of the states' rows."""
        out = [ZERO] * len(self.partition.classes)
        for t, m in mu.entries:
            for k, x in enumerate(self.stabsig_state[t]):
                if x:
                    out[k] += m * x
        return tuple(out)

    def dissolves(self, state: NdTerm, target: Distribution) -> bool:
        """Does `target` stabilize onto the state's own stable signature,
        so that a silent move from the state to it is inert?"""
        return self.stab_sig(target) == self.stabsig_state[state]

    def inertness(self, state: NdTerm,
                  target: Distribution) -> InertnessResult:
        """The InertnessResult of a silent move from `state` to `target`:
        INERT when the target dissolves the state (no LP), PARTIALLY_INERT
        with the fraction when an equivalent fraction in (0,1) of it
        does, NEITHER otherwise."""
        if self.dissolves(state, target):
            return InertnessResult(INERT, ONE)
        r = self.equivalent_fraction(target, self.stabsig_state[state])
        if r > ZERO:
            return InertnessResult(PARTIALLY_INERT, r)
        return InertnessResult(NEITHER)

    def equivalent_fraction(self, mu: Distribution, ref: tuple):
        """Largest r such that mu = r*mu1 (+) (1-r)*mu2 with mu1
        stabilizing onto ref.  Stable signatures are linear, so with p_t
        the mass of support state t put into mu1 this is one LP: maximize
        the sum of p_t <= mu(t) subject to sum_t p_t*(row[t] - ref) = 0.
        The rows and ref are probability vectors, so the sum is r, and
        the rows of classes on ref's support force zero mass on every
        other class: only those rows are added.  The LP is built on every
        call; `lp._simplex` answers a repeated one from its memo."""
        lp = LP()
        rows = [{} for _ in ref]
        for t, m in mu.entries:
            lp.add_le({lp.var(("p", t)): ONE}, m)
            for k, (x, want) in enumerate(zip(self.stabsig_state[t], ref)):
                if want and x != want:
                    rows[k][("p", t)] = x - want
        for coeffs in rows:
            if coeffs:
                lp.add_eq(coeffs, ZERO)
        return lp.maximize({("p", t): ONE for t in mu.support})["__value__"]

    def inert_transitions(self, states) -> tuple:
        out = []
        for s in sorted(states, key=nd_key):
            for idx in self.inert.get(s, ()):
                out.append((s, idx, nd_transitions(s)[idx].target))
        return tuple(out)

    # -- inertness classification, bottom-up in complexity

    def _classify(self):
        for state in sorted(self.partition.universe,
                            key=lambda s: (complexity(s), nd_key(s))):
            trs = nd_transitions(state)
            inert_idxs = tuple(
                idx for idx, tr in enumerate(trs)
                if tr.action.is_tau and self._is_inert(state, tr.target, trs))
            self.inert[state] = inert_idxs
            if inert_idxs:
                self.unstable.add(state)
                self.stabsig_state[state] = self.stab_sig(
                    trs[inert_idxs[0]].target)
            else:
                self.stabsig_state[state] = self.partition.sig(dirac(state))

    def _is_inert(self, state, rho, challenges) -> bool:
        """Is the silent move from `state` to `rho` equivalence-preserving?

        Point mass on `state` and `rho` must be branching bisimilar: the
        challenges of `state` must be answerable from `rho`.  (The reverse
        challenges are answered by the state silently dissolving into rho
        first.)  Only strictly lower-complexity classification is needed.
        """
        rho_sig = self.stab_sig(rho)
        for tr in challenges:
            if tr.action.is_tau and tr.target == rho:
                continue  # answered by rho staying put
            if not self.transfer_feasible(
                    rho, tr.action, self.stab_sig(tr.target), rho_sig):
                return False
        return True

    # -- the transfer feasibility LP

    def transfer_feasible(self, start: Distribution, action: Action,
                          end_sig: tuple, mid_sig: tuple) -> bool:
        """Does `start` answer an `action` challenge whose target
        stabilizes onto end_sig, after first moving silently to a weak
        derivative that stabilizes onto mid_sig?  A silent step may move
        any fraction, including none; a visible one moves everything.
        One flow LP per call, as for `equivalent_fraction`."""
        return self._transfer_lp(start, action, end_sig, mid_sig)

    def _transfer_lp(self, start, action, end_sig, mid_sig) -> bool:
        states = tuple(sorted(_closure(start.support), key=nd_key))
        lp = LP()
        nubar = add_flow_result(lp, "w", dict(start.entries), states,
                                tau_transition_list(states))
        omid = add_flow_result(lp, "m", {s: ("w", "m", s) for s in states},
                               states, self.inert_transitions(states))
        self._require_stable_sig(lp, omid, states, mid_sig)
        self._step_stage(lp, nubar, states, action)
        oend = add_flow_result(lp, "e", {s: ("s", "m", s) for s in states},
                               states, self.inert_transitions(states))
        self._require_stable_sig(lp, oend, states, end_sig)
        return lp.feasible() is not None

    def _step_stage(self, lp: LP, nubar: dict, states, action: Action):
        """One action step from the stage-1 masses into the ("s", "m", s)
        masses: a full combined step for a visible action, a partial and
        possibly trivial step for tau."""
        partial = action.is_tau
        moves = {
            s: [(i, tr.target) for i, tr in enumerate(nd_transitions(s))
                if tr.action == action]
            for s in states
        }
        landing = {s: [] for s in states}  # s -> [(move var, mass in s)]
        for src in states:
            for i, target in moves[src]:
                move = lp.var(("y", src, i))
                for s, m in target.entries:
                    if s in landing:
                        landing[s].append((move, m))
        for s in states:
            coeffs = {("y", s, i): ONE for i, _ in moves[s]}
            coeffs[nubar[s]] = coeffs.get(nubar[s], ZERO) - ONE
            if partial:
                lp.add_le(coeffs, ZERO)  # may move any fraction
            else:
                lp.add_eq(coeffs, ZERO)  # must move everything
        for s in states:
            coeffs = {lp.var(("s", "m", s)): ONE}
            if partial:
                coeffs[nubar[s]] = coeffs.get(nubar[s], ZERO) - ONE
                for i, _ in moves[s]:
                    coeffs[("y", s, i)] = coeffs.get(("y", s, i), ZERO) + ONE
            for move, m in landing[s]:
                coeffs[move] = coeffs.get(move, ZERO) - m
            lp.add_eq(coeffs, ZERO)

    def _require_stable_sig(self, lp: LP, masses: dict, states, sig: tuple):
        for s in states:
            if s in self.unstable:
                lp.add_eq({masses[s]: ONE}, ZERO)
        for k, cls in enumerate(self.partition.classes):
            lp.add_eq({masses[s]: ONE for s in states if s in cls}, sig[k])


# ---------------------------------------------------------------------------
# Branching analysis: refinement to the coarsest self-consistent partition


def _sig_sort_key(sig):
    return tuple((m.numerator, m.denominator) for m in sig)


def _pool(check, ctx, members) -> tuple:
    """The members' challenges, (action, continuation signature), in
    action order, and their mid signatures."""
    pool = sorted(
        {(tr.action, ctx.stab_sig(tr.target))
         for m in members for tr in nd_transitions(m)},
        key=lambda c: (action_key(c[0]), _sig_sort_key(c[1])))
    mids = sorted({check.mid_of(ctx, m) for m in members},
                  key=_sig_sort_key)
    return pool, mids


def _profiles(check, ctx, members: list) -> dict:
    """Group members by the (challenge, mid) combinations of their pool
    they can answer: {(mid, answered): [member, ...]}.  A single member
    is its own group: no LP is solved for it.  Members of one shape are
    bisimilar, so only the first member of each shape is profiled and
    the others take its profile."""
    if len(members) == 1:
        return {None: list(members)}
    first: dict = {}
    for m in members:
        first.setdefault(shape(m), m)
    pool, mids = _pool(check, ctx, first.values())
    profile = {
        k: (check.mid_of(ctx, m), frozenset(
            (action, end, mid)
            for action, end in pool for mid in mids
            if check.respond(ctx, m, action, end, mid)))
        for k, m in first.items()}
    profiles: dict = {}
    for m in members:
        profiles.setdefault(profile[shape(m)], []).append(m)
    return profiles


def _split_action(check, ctx, one: NdTerm, other: NdTerm) -> list:
    """The action that tells two states of different classes apart, as
    an action path: the smallest action of a challenge of their joint
    pool that exactly one of them answers, each from its own mid
    signature.  The pool is in action order, so the first difference
    found is the smallest."""
    pool, _ = _pool(check, ctx, [one, other])
    mid_one, mid_other = check.mid_of(ctx, one), check.mid_of(ctx, other)
    return next([action.name] for action, end in pool
                if (not check.respond(ctx, one, action, end, mid_one)) != (
                    not check.respond(ctx, other, action, end, mid_other)))


def shape(state: NdTerm) -> frozenset:
    """The state's strong class, kept on the node: its form modulo
    A1-A4/P1-P3 and C, the (action, target `form`) of its transitions,
    less each target that is a mixture of its action's others."""
    out = state._shape
    if out is None:
        targets: dict = {}
        for tr in nd_transitions(state):
            targets.setdefault(tr.action, {}).setdefault(
                form(tr.target), tr.target)
        out = state.__dict__["_shape"] = frozenset(
            (action, f) for action, by_form in targets.items()
            for f in _vertices(by_form))
    return out


def _vertices(by_form: dict) -> list:
    """The forms of {form: a target with it} that are no mixture of the
    others, the hull's vertices: one hull LP per form, only for three or
    more, over masses per shape, the shapes in their order in the targets."""
    if len(by_form) < 3:
        return list(by_form)
    shapes = list(dict.fromkeys(
        shape(s) for mu in by_form.values() for s in mu.support))
    columns = [tuple(dict(f).get(sh, ZERO) for sh in shapes) for f in by_form]
    return [f for j, f in enumerate(by_form) if _combination(
        [(ONE, columns[:j] + columns[j + 1:])], columns[j]) is None]


def form(mu: Distribution) -> frozenset:
    """mu's form, its masses per shape: its strong class masses."""
    masses: dict = {}
    for s, m in mu.entries:
        masses[shape(s)] = masses.get(shape(s), ZERO) + m
    return frozenset(masses.items())


def reach(state: NdTerm) -> frozenset:
    """The visible actions of the state's derivatives, kept on the node."""
    out = state._reach
    if out is None:
        actions = set()
        for tr in nd_transitions(state):
            if not tr.action.is_tau:
                actions.add(tr.action)
            for t in tr.target.support:
                actions |= reach(t)
        out = state.__dict__["_reach"] = frozenset(actions)
    return out


def _start_partition(states) -> Partition:
    """The start partition of refinement: the classes hold states with
    the same `reach`."""
    groups: dict = {}
    for s in states:
        groups.setdefault(reach(s), set()).add(s)
    return partition_from_classes(groups.values())


def _refine(check, states: frozenset):
    """Generic signature-refinement loop over a derivative-closed state
    set, starting from the classes of _start_partition.

    Per round, each class collects its members' challenges (action plus
    required continuation signature) and mid signatures, and every member
    is profiled by which (challenge, mid) combinations it can answer,
    one member per shape.  Members with identical profiles stay
    together.  A state always answers its own challenges, so equal
    profiles imply the mutual transfer condition; grouping by profile is
    order-independent.
    """
    partition = _start_partition(states)
    while True:
        ctx = check.context(partition)
        new_classes = []
        for cls in partition.classes:
            profiles = _profiles(check, ctx, sorted(cls, key=nd_key))
            new_classes.extend(frozenset(g) for g in profiles.values())
        if len(new_classes) == len(partition.classes):
            return partition, ctx
        partition = partition_from_classes(new_classes)


class _BranchingCheck:
    def context(self, partition: Partition) -> _Tables:
        return _Tables(partition)

    def mid_of(self, tables: _Tables, state: NdTerm):
        return tables.stabsig_state[state]

    def respond(self, tables: _Tables, state, action, end_sig, mid):
        return tables.transfer_feasible(dirac(state), action, end_sig, mid)


def _closure(roots: Iterable[NdTerm]) -> frozenset:
    return frozenset().union(*(derivatives(r) for r in roots))


@lru_cache(maxsize=512)
def _branching_analysis(states: frozenset) -> _Tables:
    return _refine(_BranchingCheck(), states)[1]


def branching_analysis(roots: Iterable[NdTerm]) -> _Tables:
    """The tables of the final branching partition (`.partition`) of
    the roots' derivatives.  The cache is keyed by the derivative set,
    so every question about one state shares one analysis."""
    return _branching_analysis(_closure(roots))


def _mismatch_witness(check, ctx, partition: Partition, left_sig,
                      right_sig) -> dict:
    """The class masses of both sides and the action that separates a
    representative of the first class where the left side has more mass
    from one of the first class where the right side has more."""
    reps = []
    for more, less in ((left_sig, right_sig), (right_sig, left_sig)):
        k = next(k for k, (m, n) in enumerate(zip(more, less)) if m > n)
        reps.append(min(partition.classes[k], key=nd_key))
    return {
        "action_path": _split_action(check, ctx, *reps),
        "class_signature_left": _sig_dict(partition, left_sig),
        "class_signature_right": _sig_dict(partition, right_sig),
    }


# ---------------------------------------------------------------------------
# Strong bisimilarity


class _StrongCheck:
    """Direct steps: a state answers a challenge with a full combined
    step of its own, no silent move first, whose target has the
    challenge's signature under `ctx.stab_sig`.  Strong bisimilarity
    reads the class masses of a Partition; the rooted first step reads
    the stable signature of the final branching tables.  `respond`
    returns the step's weights over state_targets(state, action), or
    None."""

    def mid_of(self, ctx, state: NdTerm):
        return ()

    def respond(self, ctx, state, action, end_sig, mid):
        return _direct_step(ctx.stab_sig, dirac(state), action, end_sig,
                            partial=False)


def _direct_step(signature, mu: Distribution, action: Action, sig: tuple,
                 partial: bool) -> Optional[tuple]:
    """Weights of a combined `action`-step of mu whose result has
    signature `sig`, or None.  Each support state splits its mass over
    its action-targets in state_targets order and, with `partial`, over
    itself, which keeps that mass where it is.  The result's signature
    is the weighted sum of the parts', so this is one hull LP when
    `signature` is linear: class masses are, and so is the stable
    signature on a final branching partition, where all inert moves of
    a state lead to the same stable signature."""
    groups = []
    for s, m in mu.entries:
        targets = state_targets(s, action)
        if not targets and not partial:
            return None
        columns = [signature(target) for target in targets]
        if partial:
            columns.append(signature(dirac(s)))
        groups.append((m, columns))
    return _combination(groups, sig)


def _combination(groups: list, point):
    """The hull LP: weights, one per column of each (mass, columns)
    group, that sum to the group's mass and whose weighted columns sum
    to `point`, or None.  A coordinate that no column and not the point
    touches poses no row."""
    lp = LP()
    columns = {}
    for mass, cols in groups:
        step = [lp.var(len(columns) + i) for i in range(len(cols))]
        columns.update(zip(step, cols))
        lp.add_eq(dict.fromkeys(step, ONE), mass)
    for k, want in enumerate(point):
        coeffs = {x: col[k] for x, col in columns.items() if col[k]}
        if coeffs or want:
            lp.add_eq(coeffs, want)
    solution = lp.feasible()
    return None if solution is None else tuple(solution[x] for x in columns)


def strong_partition(roots: Iterable[NdTerm]) -> Partition:
    """The strong classes of the roots' joint derivatives: by shape."""
    groups: dict = {}
    for s in _closure(roots):
        groups.setdefault(shape(s), []).append(s)
    return partition_from_classes(groups.values())


# ---------------------------------------------------------------------------
# Verdicts


def _continuations(states: Iterable[NdTerm]) -> set:
    """The support states of every transition target of the states."""
    return {t for s in states for tr in nd_transitions(s)
            for t in tr.target.support}


def _as_dist(side) -> Distribution:
    """A state as its Dirac distribution, a probabilistic term as its
    denotation; a distribution stands for itself."""
    if isinstance(side, Distribution):
        return side
    return den(side) if isinstance(side, PTerm) else dirac(side)


def decide(relation: str, left, right) -> Verdict:
    """Decide the named relation between two states, probabilistic terms
    or distributions: equal signatures of the two sides.  Branching reads
    stable signatures on the final branching tables of the joint
    derivatives.  Strong and rooted branching read class masses on the
    sides' support states, grouped in one direct-step profile over the
    shapes or the final branching tables of their continuations."""
    mu, nu = _as_dist(left), _as_dist(right)
    states = mu.support + nu.support
    if relation == "branching":
        ctx = branching_analysis(states)
        partition, signature = ctx.partition, ctx.stab_sig
        witness_check = _BranchingCheck()
    elif relation in ("strong", "rooted-branching"):
        ctx = (strong_partition if relation == "strong"
               else branching_analysis)(_continuations(states))
        witness_check = _StrongCheck()
        partition = partition_from_classes(_profiles(
            witness_check, ctx, sorted(set(states), key=nd_key)).values())
        signature = partition.sig
    else:
        raise ValueError(f"unknown relation: {relation!r}")
    left_sig, right_sig = signature(mu), signature(nu)
    if left_sig == right_sig:
        return Verdict(True, relation)
    return Verdict(False, relation, _mismatch_witness(
        witness_check, ctx, partition, left_sig, right_sig))


def _forms_meet(left, right) -> bool:
    """Do the two sides have one form, so are they strongly bisimilar?
    Two terms do iff the prover gives them one strong form."""
    return form(_as_dist(left)) == form(_as_dist(right))


def check(relation: str, left, right) -> Verdict:
    """Decide a named relation over terms of either sort.

    Strong bisimilarity implies the other two relations, so a branching
    or rooted-branching pair whose forms meet is equivalent, and no
    decider runs.  Strong pairs always go to the decider, for now:
    perfbench/test_bench.py needs its strong query, whose forms meet,
    to solve an LP.  `decide` answers the rest: by the root step for
    strong and rooted branching, by the analysis for branching."""
    if relation in ("branching", "rooted-branching") and _forms_meet(
            left, right):
        return Verdict(True, relation)
    return decide(relation, left, right)


# ---------------------------------------------------------------------------
# Inertness, concreteness, rigidity, and the matching preorder


INERT = "inert"
PARTIALLY_INERT = "partially_inert"
NEITHER = "neither"


@dataclass(frozen=True)
class InertnessResult:
    kind: str
    fraction: object = None  # maximal equivalent fraction for partial inertness


def inertness(state: NdTerm, transition: StateTransition) -> InertnessResult:
    """Classify a silent transition on the final branching tables of the
    state's derivatives.

    inert: the target stabilizes onto the source's own stable signature.
    partially inert: a maximal fraction r in (0,1) of the target does
    (`_Tables.inertness`).
    """
    if transition.source != state or not transition.action.is_tau:
        raise ArgumentError("expected a silent transition of the given state")
    if transition not in nd_transitions(state):
        raise ArgumentError("transition is not derivable from the state")
    return branching_analysis({state}).inertness(state, transition.target)


def is_rigid(state: NdTerm) -> bool:
    """No fully inert silent transition."""
    return state not in branching_analysis({state}).unstable


def is_concrete(p) -> bool:
    """No derivative can perform an even partially inert silent
    transition: every silent move is of kind NEITHER.  An inert move,
    which needs no LP to see, already fails.  The states are read in
    nd_key order, so the LPs solved before a failure do not depend on
    the hash seed."""
    states = derivatives(p if isinstance(p, PTerm) else Dirac(p))
    tables = branching_analysis(states)
    return all(
        tables.inertness(state, tr.target).kind == NEITHER
        for state in sorted(states, key=nd_key)
        for tr in nd_transitions(state) if tr.action.is_tau)


def sqsubseteq(state: NdTerm, p: PTerm) -> bool:
    """Every transition of the state is directly matched by the
    probabilistic term: for each E -a-> mu there is den(P) -(a)-> nu with
    mu and nu branching bisimilar.  The silent case may move only part of
    den(P) (or nothing); a visible step is a full combined transition.
    Only the state's continuations and den(P)'s support are analysed."""
    target = den(p)
    tables = branching_analysis(
        _continuations((state,)).union(target.support))
    stab_sig = tables.stab_sig
    return all(
        _direct_step(stab_sig, target, tr.action, stab_sig(tr.target),
                     partial=tr.action.is_tau) is not None
        for tr in nd_transitions(state))
