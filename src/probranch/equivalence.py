"""Deciders for strong, branching and rooted-branching probabilistic
bisimilarity, inertness classification, concreteness predicates and the
direct-matching preorder used by the conditional axioms.

Strategy.  All three relations are decided by partition refinement over
the joint derivative state set, with transfer conditions checked by
exact-rational linear feasibility.  Refinement starts from the classes
of states that can reach the same visible actions: branching
bisimilarity preserves weak traces and strong bisimilarity is contained
in it, so both relations refine that start, and the coarsest stable
refinement of a partition that a bisimilarity refines is the
bisimilarity itself.  A state's `shape` is its form modulo A1-A4/P1-P3:
the set of its transitions, each read as its action and the `form` of
its target, the target's masses per shape.  States of one shape are
strongly bisimilar, so refinement never splits them: a round profiles
the first member of each shape in a class and hands its profile to the
others, and the rooted step does the same.  Shapes and reachable
actions (`reach`) are kept on the state node, like its order key.

* strong — a state pair survives iff every transition of one is matched
  by a combined transition of the other with the same class-mass vector.

* branching — silent transitions are classified inert or not, bottom-up
  by structural complexity (silent steps strictly lower complexity, so
  the classification is well-founded).  A stable state's signature is
  its own class; an unstable state's is that of the target of its first
  inert transition.  A distribution's stable signature, its class masses
  once its inert moves have fired, is the weighted sum of its states'
  signatures; two distributions are related iff these are equal.  The
  transfer check for a state pair asks, per challenge, for a weak
  derivative of the responder that stabilizes onto the challenger's
  class, followed by a (possibly partial) step whose result stabilizes
  onto the challenge target's classes: one linear feasibility problem
  over firing masses.

* rooted-branching — strong first step, branching continuations.  Only
  the continuations, the support states of the roots' transition
  targets, are analysed: branching classes restricted to a
  derivative-closed set are that set's own classes.  The roots are
  then grouped, in one profile step, by the first-step challenges they
  answer with a full combined step whose target stabilizes onto the
  challenge's classes.  Equal profiles mean mutual matching, so no
  grouping by branching class is needed first.  States, terms and
  distributions all go through this one step.

Each matching question is one LP.  A direct step — strong bisimilarity,
the rooted first step and the matching preorder `sqsubseteq`, with no
silent move before the step — is one hull LP, `_direct_step`, over the
signatures of the responder's action-targets: class masses for strong,
stable signatures for the other two.  The weak branching step is the
flow LP of `_Tables.transfer_feasible`.  The prover (axioms.py) asks
`_direct_step` whether a body of its own forms is a mixture of the
other same-action bodies, over their masses per form state, and reads
the weights of the mixture from the feasible point.

A not-equivalent verdict of any relation carries the class masses of
both sides under the partition that decided it, and an action that
separates them: the smallest action of a challenge that exactly one of
two representatives answers, one from the first class where the left
side has more mass and one from the first where the right side has
more, profiled by the relation's own check.

The classes of the final branching partition group states whose point
distributions are branching bisimilar; distribution-level equivalence
additionally identifies a point distribution with the mixture it
silently dissolves into, which the stable signature captures.

`decide` is the one verdict entry.  It takes a state, a probabilistic
term or a distribution on each side, and per relation it reads the
classes, the signature that compares the two sides and the check that
separates them in a witness.  `check` answers a branching or
rooted-branching pair whose forms meet (`_forms_meet`, no proof steps)
as equivalent, since A1-A4/P1-P3 are sound, and sends every other pair
to `decide`.

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
        self._sig_cache: dict = {}
        self._lp_cache: dict = {}
        self._classify()

    def stab_sig(self, mu: Distribution) -> tuple:
        """The class masses of mu once its inert moves have fired.  Each
        unstable state fires its first inert transition, so the result
        is linear in mu: the mu-weighted sum of the states' rows."""
        sig = self._sig_cache.get(mu)
        if sig is None:
            out = [ZERO] * len(self.partition.classes)
            for t, m in mu.entries:
                for k, x in enumerate(self.stabsig_state[t]):
                    if x:
                        out[k] += m * x
            sig = self._sig_cache[mu] = tuple(out)
        return sig

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
        other class: only those rows are added.  Answers are kept per
        (mu, ref), beside the transfer LPs."""
        hit = self._lp_cache.get((mu, ref))
        if hit is not None:
            return hit
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
        hit = self._lp_cache[(mu, ref)] = lp.maximize(
            {("p", t): ONE for t in mu.support})["__value__"]
        return hit

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
        any fraction, including none; a visible one moves everything."""
        key = (start, action, end_sig, mid_sig)
        hit = self._lp_cache.get(key)
        if hit is None:
            hit = self._lp_cache[key] = self._transfer_lp(
                start, action, end_sig, mid_sig)
        return hit

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
    if sig is None:
        return ()
    return tuple((m.numerator, m.denominator) for m in sig)


def _pool(check, ctx, members) -> tuple:
    """The members' challenges, (action, continuation signature), in
    action order, and their mid signatures."""
    pool = sorted(
        {(tr.action, check.challenge_sig(ctx, tr.target))
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
    """The state's form modulo A1-A4/P1-P3, kept on the node: the set of
    its transitions, each read as its action and its target's `form`.
    States of one shape are strongly bisimilar, so bisimilar under all
    three relations."""
    out = state._shape
    if out is None:
        moves = set()
        for tr in nd_transitions(state):
            moves.add((tr.action, form(tr.target)))
        out = state.__dict__["_shape"] = frozenset(moves)
    return out


def form(mu: Distribution) -> frozenset:
    """mu's form modulo A1-A4/P1-P3: its masses per shape."""
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

    def challenge_sig(self, tables: _Tables, target: Distribution):
        return tables.stab_sig(target)

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
    challenge's signature under `signature(ctx, target)`.  Strong
    bisimilarity reads the class masses of a partition; the rooted first
    step reads the stable signature of the final branching tables
    (_ROOTED_CHECK).  `respond` returns the step's weights over
    state_targets(state, action), or None."""

    def __init__(self, signature=Partition.sig):
        self.signature = signature

    def context(self, partition: Partition):
        return partition

    def challenge_sig(self, ctx, target: Distribution):
        return self.signature(ctx, target)

    def mid_of(self, ctx, state: NdTerm):
        return None

    def respond(self, ctx, state, action, end_sig, mid):
        return _direct_step(lambda mu: self.signature(ctx, mu), dirac(state),
                            action, end_sig, partial=False)


def _direct_step(signature, mu: Distribution, action: Action, sig: tuple,
                 partial: bool) -> Optional[tuple]:
    """Weights of a combined `action`-step of mu whose result has
    signature `sig`, or None when there is none.

    Each support state splits its mass over its action-targets, and with
    `partial` it may also keep some of it where it is.  The weights are
    the masses sent to each target, support state by support state, in
    state_targets order.  The result's signature is the weighted sum of
    the targets' and the kept states' signatures, so the question is one
    hull LP when `signature` is linear: class masses are, and so is the
    stable signature on a final branching partition, where all inert
    moves of a state lead to the same stable signature."""
    lp = LP()
    columns = {}
    rhs = list(sig)
    for s, m in mu.entries:
        targets = state_targets(s, action)
        if not targets and not partial:
            return None
        stay = signature(dirac(s)) if partial else None
        step = [lp.var(("x", s, i)) for i in range(len(targets))]
        for x, target in zip(step, targets):
            col = signature(target)
            columns[x] = col if stay is None else tuple(
                a - b for a, b in zip(col, stay))
        (lp.add_le if partial else lp.add_eq)(dict.fromkeys(step, ONE), m)
        if stay is not None:
            rhs = [r - m * b for r, b in zip(rhs, stay)]
    for k, want in enumerate(rhs):
        lp.add_eq({x: col[k] for x, col in columns.items()}, want)
    point = lp.feasible()
    if point is None:
        return None
    return tuple(point[x] for x in columns)


@lru_cache(maxsize=512)
def _strong_partition(states: frozenset) -> Partition:
    return _refine(_StrongCheck(), states)[0]


def strong_partition(roots: Iterable[NdTerm]) -> Partition:
    """Coarsest strong-bisimulation partition of the joint derivative set."""
    return _strong_partition(_closure(roots))


# ---------------------------------------------------------------------------
# Rooted branching bisimilarity


_ROOTED_CHECK = _StrongCheck(_Tables.stab_sig)


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
    or distributions: equal signatures over the relation's classes of
    the joint derivatives.  Strong reads class masses on the strong
    partition; branching reads stable signatures on the final branching
    tables; rooted branching reads class masses on the rooted classes of
    the sides' support states, one profile step on the final branching
    tables of their continuations."""
    mu, nu = _as_dist(left), _as_dist(right)
    states = mu.support + nu.support
    if relation == "strong":
        ctx = partition = strong_partition(states)
        signature, witness_check = partition.sig, _StrongCheck()
    elif relation == "branching":
        ctx = branching_analysis(states)
        partition, signature = ctx.partition, ctx.stab_sig
        witness_check = _BranchingCheck()
    elif relation == "rooted-branching":
        ctx = branching_analysis(_continuations(states))
        partition = partition_from_classes(_profiles(
            _ROOTED_CHECK, ctx, sorted(set(states), key=nd_key)).values())
        signature, witness_check = partition.sig, _ROOTED_CHECK
    else:
        raise ValueError(f"unknown relation: {relation!r}")
    left_sig, right_sig = signature(mu), signature(nu)
    if left_sig == right_sig:
        return Verdict(True, relation)
    return Verdict(False, relation, _mismatch_witness(
        witness_check, ctx, partition, left_sig, right_sig))


def _forms_meet(left, right) -> bool:
    """Do the two sides have one form modulo A1-A4/P1-P3?  Two terms do
    iff the prover's normalizers give them one form."""
    return form(_as_dist(left)) == form(_as_dist(right))


def check(relation: str, left, right) -> Verdict:
    """Decide a named relation over terms of either sort.

    A1-A4/P1-P3 are sound for every relation, so a branching or
    rooted-branching pair whose forms meet is equivalent, and no decider
    runs.  Strong pairs always go to the decider, for now:
    perfbench/test_bench.py needs its strong query, whose forms meet,
    to solve an LP."""
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
