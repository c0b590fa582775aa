"""The equational theories as an executable rewriting system.

Axioms (unconditional unless noted):

    A1  E + F = F + E                    P1  P (+r) Q = Q (+1-r) P
    A2  (E + F) + G = E + (F + G)        P2  P (+r) (Q (+s) R) =
    A3  E + E = E                              (P (+rb) Q) (+sb) R
    A4  E + 0 = E                                 rb*sb = r, (1-r)(1-s) = 1-sb
    B   a.(F + tau.(E + F)) = a.(E + F)  P3  P (+r) P = P
        (pure non-deterministic fragment only)
    C   a.P + a.Q = a.P + a.(P (+r) Q) + a.Q
    BP  if E matched-by P:   a.(D(E + tau.P) (+r) Q) = a.(P (+r) Q)
    G   if E matched-by D(F): a.(D(E + F) (+r) Q) = a.(D(F) (+r) Q)

plus the derived laws SBP1..SBP3 (simplified BP forms).  Every rewrite
is recorded as a replayable step: axiom, position, direction, full
metavariable substitution and, for conditional axioms, the side
condition witness.  Side conditions are re-verified on every
application through the semantic checker.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import partial, reduce
from typing import Optional

from .dist import den
from .equivalence import (
    _ROOTED_CHECK,
    _StrongCheck,
    branching_analysis,
    check as relation_check,
    rooted_partition_over,
    sqsubseteq,
    strong_partition,
)
from .parse import print_term
from .rat import ONE, ZERO, format_rat, rat
from .semantics import state_targets
from .terms import (
    Action,
    Dirac,
    NdTerm,
    PChoice,
    Prefix,
    PTerm,
    Sum,
    TAU,
    Zero,
    ZERO_TERM,
    complexity,
    is_nd_fragment,
    nd_key,
    p_key,
    summands,
)


class PositionError(ValueError):
    """A step's position does not exist in the term."""


class SubstitutionError(ValueError):
    """The subterm at the position does not match the axiom instance."""


class SideConditionError(ValueError):
    """A conditional axiom's side condition fails."""


class ShapeError(ValueError):
    """A term does not have the shape a derived law requires."""


class FragmentError(ValueError):
    """An operation restricted to the non-deterministic fragment was
    applied outside it."""


class BudgetExceededError(RuntimeError):
    """The prover ran out of its step budget (a resource condition, never
    a verdict)."""


class AxiomId(str, Enum):
    A1 = "A1"
    A2 = "A2"
    A3 = "A3"
    A4 = "A4"
    B = "B"
    P1 = "P1"
    P2 = "P2"
    P3 = "P3"
    C = "C"
    BP = "BP"
    G = "G"
    SBP1 = "SBP1"
    SBP2 = "SBP2"
    SBP3 = "SBP3"


@dataclass(frozen=True)
class RewriteStep:
    axiom: AxiomId
    position: tuple
    direction: str  # "LR" | "RL"
    substitution: tuple  # sorted ((name, value), ...)
    witness: Optional[dict] = None

    def subst(self) -> dict:
        return dict(self.substitution)

    def to_json(self, index: int, before: str, after: str) -> dict:
        """The step as JSON, given the printed terms around it."""
        out = {
            "index": index,
            "rule": self.axiom.value,
            "direction": self.direction,
            "position": list(self.position),
            "before": before,
            "after": after,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class ProofTrace:
    start: object
    steps: tuple
    end: object
    # Every term of the last replay, start to end; not part of the value.
    terms: Optional[tuple] = field(default=None, init=False, compare=False,
                                   repr=False)

    def replay(self):
        """Re-apply every step; returns the end term, raising if any step
        fails to apply or the result disagrees."""
        term = self.start
        terms = [term]
        for step in self.steps:
            term = apply_axiom(term, step)
            terms.append(term)
        if term != self.end:
            raise ValueError("trace does not replay to its end term")
        object.__setattr__(self, "terms", tuple(terms))
        return term

    def to_jsonl(self) -> str:
        """One JSON line per step, from the terms of a verifying replay."""
        if self.terms is None:
            self.replay()
        texts = [print_term(term) for term in self.terms]
        return "\n".join(
            json.dumps(step.to_json(i, texts[i], texts[i + 1]))
            for i, step in enumerate(self.steps))

    def rule_multiset(self) -> dict:
        out: dict = {}
        for step in self.steps:
            out[step.axiom.value] = out.get(step.axiom.value, 0) + 1
        return out


# ---------------------------------------------------------------------------
# Positions


def get_subterm(term, position: tuple):
    node = term
    for i in position:
        if isinstance(node, Sum) and i in (0, 1):
            node = node.left if i == 0 else node.right
        elif isinstance(node, PChoice) and i in (0, 1):
            node = node.left if i == 0 else node.right
        elif isinstance(node, Prefix) and i == 0:
            node = node.body
        elif isinstance(node, Dirac) and i == 0:
            node = node.body
        else:
            raise PositionError(f"no child {i} at {node!r}")
    return node


def replace_subterm(term, position: tuple, new):
    if not position:
        return new
    i, rest = position[0], position[1:]
    if isinstance(term, Sum) and i == 0:
        return Sum(replace_subterm(term.left, rest, new), term.right)
    if isinstance(term, Sum) and i == 1:
        return Sum(term.left, replace_subterm(term.right, rest, new))
    if isinstance(term, PChoice) and i == 0:
        return PChoice(replace_subterm(term.left, rest, new), term.weight,
                       term.right)
    if isinstance(term, PChoice) and i == 1:
        return PChoice(term.left, term.weight,
                       replace_subterm(term.right, rest, new))
    if isinstance(term, Prefix) and i == 0:
        return Prefix(term.action, replace_subterm(term.body, rest, new))
    if isinstance(term, Dirac) and i == 0:
        return Dirac(replace_subterm(term.body, rest, new))
    raise PositionError(f"no child {i} at {term!r}")


# ---------------------------------------------------------------------------
# Axiom schemas


def _p2_derived(sub: dict) -> dict:
    """Complete a P2 substitution: (r, s) <-> (rbar, sbar)."""
    out = dict(sub)
    if "r" in out and "s" in out:
        r, s = out["r"], out["s"]
        sbar = ONE - (ONE - r) * (ONE - s)
        rbar = r / sbar
        out.setdefault("rbar", rbar)
        out.setdefault("sbar", sbar)
        if out["rbar"] != rbar or out["sbar"] != sbar:
            raise SubstitutionError("inconsistent P2 re-weighting parameters")
    elif "rbar" in out and "sbar" in out:
        rbar, sbar = out["rbar"], out["sbar"]
        r = rbar * sbar
        if r == ONE:
            raise SubstitutionError("degenerate P2 parameters")
        s = ONE - (ONE - sbar) / (ONE - r)
        out["r"] = r
        out["s"] = s
    else:
        raise SubstitutionError("P2 requires (r, s) or (rbar, sbar)")
    return out


def _axiom_sides(axiom: AxiomId, sub: dict):
    """Concrete (lhs, rhs) instance of the axiom under a substitution."""
    try:
        if axiom == AxiomId.A1:
            return Sum(sub["E"], sub["F"]), Sum(sub["F"], sub["E"])
        if axiom == AxiomId.A2:
            e, f, g = sub["E"], sub["F"], sub["G"]
            return Sum(Sum(e, f), g), Sum(e, Sum(f, g))
        if axiom == AxiomId.A3:
            return Sum(sub["E"], sub["E"]), sub["E"]
        if axiom == AxiomId.A4:
            return Sum(sub["E"], ZERO_TERM), sub["E"]
        if axiom == AxiomId.B:
            a, e, f = sub["alpha"], sub["E"], sub["F"]
            lhs = Prefix(a, Dirac(Sum(f, Prefix(TAU, Dirac(Sum(e, f))))))
            rhs = Prefix(a, Dirac(Sum(e, f)))
            return lhs, rhs
        if axiom == AxiomId.P1:
            p, q, r = sub["P"], sub["Q"], sub["r"]
            return PChoice(p, r, q), PChoice(q, ONE - r, p)
        if axiom == AxiomId.P2:
            sub = _p2_derived(sub)
            p, q, r3 = sub["P"], sub["Q"], sub["R"]
            lhs = PChoice(p, sub["r"], PChoice(q, sub["s"], r3))
            rhs = PChoice(PChoice(p, sub["rbar"], q), sub["sbar"], r3)
            return lhs, rhs
        if axiom == AxiomId.P3:
            return PChoice(sub["P"], sub["r"], sub["P"]), sub["P"]
        if axiom == AxiomId.C:
            a, p, q, r = sub["alpha"], sub["P"], sub["Q"], sub["r"]
            lhs = Sum(Prefix(a, p), Prefix(a, q))
            rhs = Sum(Sum(Prefix(a, p), Prefix(a, PChoice(p, r, q))),
                      Prefix(a, q))
            return lhs, rhs
        if axiom == AxiomId.BP:
            a, e, p, q, r = sub["alpha"], sub["E"], sub["P"], sub["Q"], sub["r"]
            lhs = Prefix(a, PChoice(Dirac(Sum(e, Prefix(TAU, p))), r, q))
            rhs = Prefix(a, PChoice(p, r, q))
            return lhs, rhs
        if axiom == AxiomId.G:
            a, e, f, q, r = sub["alpha"], sub["E"], sub["F"], sub["Q"], sub["r"]
            lhs = Prefix(a, PChoice(Dirac(Sum(e, f)), r, q))
            rhs = Prefix(a, PChoice(Dirac(f), r, q))
            return lhs, rhs
        if axiom == AxiomId.SBP1:
            a, e, p = sub["alpha"], sub["E"], sub["P"]
            return Prefix(a, Dirac(Sum(e, Prefix(TAU, p)))), Prefix(a, p)
        if axiom == AxiomId.SBP2:
            a, p, r2, r = sub["alpha"], sub["P"], sub["R"], sub["r"]
            lhs = Prefix(a, PChoice(Dirac(Prefix(TAU, p)), r, r2))
            rhs = Prefix(a, PChoice(p, r, r2))
            return lhs, rhs
        if axiom == AxiomId.SBP3:
            a, p = sub["alpha"], sub["P"]
            return Prefix(a, Dirac(Prefix(TAU, p))), Prefix(a, p)
    except KeyError as missing:
        raise SubstitutionError(f"missing metavariable {missing}") from None
    raise SubstitutionError(f"unknown axiom {axiom}")


def _verify_side_condition(axiom: AxiomId, sub: dict, instance):
    if axiom in (AxiomId.BP, AxiomId.SBP1):
        if not sqsubseteq(sub["E"], sub["P"]):
            raise SideConditionError(
                f"{axiom.value}: E is not directly matched by P")
    elif axiom == AxiomId.G:
        if not sqsubseteq(sub["E"], Dirac(sub["F"])):
            raise SideConditionError("G: E is not directly matched by D(F)")
    elif axiom == AxiomId.B:
        if not (is_nd_fragment(sub["E"]) and is_nd_fragment(sub["F"])):
            raise FragmentError(
                "B applies only in the pure non-deterministic fragment")
    elif axiom in (AxiomId.C, AxiomId.P3):
        r = sub["r"]
        if not (ZERO < r < ONE):
            raise SideConditionError(f"{axiom.value}: weight {r} outside (0,1)")


def _side_condition_witness(axiom: AxiomId, sub: dict) -> Optional[dict]:
    if axiom in (AxiomId.BP, AxiomId.SBP1):
        return {"matched_by": {"state": print_term(sub["E"]),
                               "process": print_term(sub["P"])}}
    if axiom == AxiomId.G:
        return {"matched_by": {"state": print_term(sub["E"]),
                               "process": print_term(Dirac(sub["F"]))}}
    if axiom == AxiomId.C:
        return {"mixture_weight": format_rat(sub["r"])}
    return None


def apply_axiom(term, step: RewriteStep):
    """Apply one recorded rewrite step, re-verifying position, matching
    and side conditions."""
    sub = step.subst()
    lhs, rhs = _axiom_sides(step.axiom, sub)
    src, dst = (lhs, rhs) if step.direction == "LR" else (rhs, lhs)
    actual = get_subterm(term, step.position)
    if actual != src:
        raise SubstitutionError(
            f"{step.axiom.value} {step.direction} does not match at "
            f"{step.position}: expected {print_term(src)}, "
            f"found {print_term(actual)}")
    _verify_side_condition(step.axiom, sub, actual)
    return replace_subterm(term, step.position, dst)


# ---------------------------------------------------------------------------
# Step-emitting rewriter and the list toolkit
#
# Sums and choices are both lists, under the same three laws: A1-A3 for
# + and P1-P3 for +[r].  A canonical sum nests to the left,
# (e0 + e1) + e2, and a canonical choice nests to the right,
# p0 +[r] (p1 +[s] p2).  A _ListSort describes one of the two, and one
# toolkit edits either kind of list by reading it.


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, n: int = 1):
        self.used += n
        if self.used > self.limit:
            raise BudgetExceededError(
                f"step budget of {self.limit} exhausted")


class _Rewriter:
    """Holds a working term plus the steps that produced it.  Every step
    is routed through apply_axiom, so emitted traces replay by
    construction."""

    def __init__(self, term, budget: _Budget):
        self.term = term
        self.steps: list = []
        self.budget = budget

    def at(self, position):
        return get_subterm(self.term, position)

    def apply(self, axiom: AxiomId, position, direction: str, sub: dict):
        step = RewriteStep(axiom, tuple(position), direction,
                           tuple(sorted(sub.items())),
                           _side_condition_witness(axiom, sub))
        self.term = apply_axiom(self.term, step)
        self.steps.append(step)
        self.budget.spend()

    def splice(self, position, steps):
        """Apply steps produced for the subterm rooted at `position`."""
        for step in steps:
            shifted = RewriteStep(step.axiom, tuple(position) + step.position,
                                  step.direction, step.substitution,
                                  step.witness)
            self.term = apply_axiom(self.term, shifted)
            self.steps.append(shifted)
            self.budget.spend()


def invert_steps(steps):
    flipped = []
    for step in reversed(steps):
        flipped.append(RewriteStep(
            step.axiom, step.position,
            "RL" if step.direction == "LR" else "LR",
            step.substitution, step.witness))
    return flipped


@dataclass(frozen=True)
class _ListSort:
    """One sort of list: its node type, the child (0 left, 1 right) the
    rest of the list nests in, the order its elements sort by, and its
    four node steps, each applied at the position of a node:

        commute     A1 / P1 LR  swap the node's two children
        rotate_out  A2 / P2 LR  move the nesting off the nest side
        rotate_in   A2 / P2 RL  move the nesting onto the nest side
        merge       A3 / P3 LR  fold a node whose children are equal
    """
    node: type
    nest: int
    key: object
    commute: object
    rotate_out: object
    rotate_in: object
    merge: object


def _node_step(axiom: AxiomId, direction: str, sub_of):
    """The step at a position, its substitution read off the node there."""
    return lambda rw, pos: rw.apply(axiom, pos, direction, sub_of(rw.at(pos)))


_SUMS = _ListSort(
    Sum, 0, nd_key,
    commute=_node_step(AxiomId.A1, "LR",
                       lambda n: {"E": n.left, "F": n.right}),
    rotate_out=_node_step(AxiomId.A2, "LR", lambda n: {
        "E": n.left.left, "F": n.left.right, "G": n.right}),
    rotate_in=_node_step(AxiomId.A2, "RL", lambda n: {
        "E": n.left, "F": n.right.left, "G": n.right.right}),
    merge=_node_step(AxiomId.A3, "LR", lambda n: {"E": n.left}))

_CHOICES = _ListSort(
    PChoice, 1, p_key,
    commute=_node_step(AxiomId.P1, "LR", lambda n: {
        "P": n.left, "Q": n.right, "r": n.weight}),
    rotate_out=_node_step(AxiomId.P2, "LR", lambda n: {
        "P": n.left, "Q": n.right.left, "R": n.right.right,
        "r": n.weight, "s": n.right.weight}),
    rotate_in=_node_step(AxiomId.P2, "RL", lambda n: {
        "P": n.left.left, "Q": n.left.right, "R": n.right,
        "rbar": n.left.weight, "sbar": n.weight}),
    merge=_node_step(AxiomId.P3, "LR",
                     lambda n: {"P": n.left, "r": n.weight}))


def _child(node, side: int):
    return node.right if side else node.left


def _items(sort: _ListSort, term) -> list:
    """The elements of the canonical list at term, first to last."""
    out = []
    while isinstance(term, sort.node):
        out.append(_child(term, 1 - sort.nest))
        term = _child(term, sort.nest)
    out.append(term)
    return out if sort.nest else out[::-1]


def _elem_pos(sort: _ListSort, base, n: int, i: int) -> list:
    """Position of element i of the canonical n-element list at base."""
    depth = i if sort.nest else n - 1 - i
    leaf = [] if depth == n - 1 else [1 - sort.nest]
    return list(base) + [sort.nest] * depth + leaf


def _pair_pos(sort: _ListSort, base, n: int, i: int):
    """(position, innermost) of the node of the canonical n-element list
    at base that holds elements i and i+1; innermost when both are its
    children."""
    depth = i if sort.nest else n - 2 - i
    return list(base) + [sort.nest] * depth, depth == n - 2


def _swap(rw: _Rewriter, sort: _ListSort, base, n: int, i: int):
    """Swap elements i and i+1 of the canonical n-element list at base."""
    pos, innermost = _pair_pos(sort, base, n, i)
    if innermost:
        sort.commute(rw, pos)
        return
    sort.rotate_out(rw, pos)
    sort.commute(rw, pos + [1 - sort.nest])
    sort.rotate_in(rw, pos)


def _merge_equal(rw: _Rewriter, sort: _ListSort, base):
    """Merge adjacent equal elements (A3 or P3) of the canonical list at
    base."""
    while True:
        items = _items(sort, rw.at(base))
        hit = next((i for i in range(len(items) - 1)
                    if items[i] == items[i + 1]), None)
        if hit is None:
            return
        pos, innermost = _pair_pos(sort, base, len(items), hit)
        if not innermost:
            sort.rotate_out(rw, pos)
            pos.append(1 - sort.nest)
        sort.merge(rw, pos)


def _reassociate(rw: _Rewriter, sort: _ListSort, pos, side=None):
    """Nest the list at pos in child `side` (by default its sort's nest
    side): rotate each node until its other child is an element, then
    go down the nesting."""
    side = sort.nest if side is None else side
    rotate = sort.rotate_in if side == sort.nest else sort.rotate_out
    pos = list(pos)
    while isinstance(rw.at(pos), sort.node):
        while isinstance(_child(rw.at(pos), 1 - side), sort.node):
            rotate(rw, pos)
        pos.append(side)


def _move(rw: _Rewriter, sort: _ListSort, base, src: int, dst: int):
    """Move element src of the canonical list at base to index dst by
    adjacent swaps."""
    n = len(_items(sort, rw.at(base)))
    for i in range(src, dst, -1):
        _swap(rw, sort, base, n, i - 1)
    for i in range(src, dst):
        _swap(rw, sort, base, n, i)


def _bubble_sort(rw: _Rewriter, sort: _ListSort, base):
    """Sort the canonical list at base by adjacent swaps (bubble sort, so
    the swap sequence is deterministic)."""
    n = len(_items(sort, rw.at(base)))
    for end in range(n - 1, 0, -1):
        for i in range(end):
            items = _items(sort, rw.at(base))
            if sort.key(items[i]) > sort.key(items[i + 1]):
                _swap(rw, sort, base, n, i)


def _chain_drop_zeros(rw: _Rewriter, base):
    """Remove the 0 summand of a sorted merged chain (0 sorts first)."""
    items = _items(_SUMS, rw.at(base))
    if len(items) >= 2 and isinstance(items[0], Zero):
        pos, _ = _pair_pos(_SUMS, base, len(items), 0)
        _SUMS.commute(rw, pos)
        rw.apply(AxiomId.A4, pos, "LR", {"E": rw.at(pos).left})


def _spine_weights(term) -> list:
    """Flat weights of a right-nested spine: p_i = r_i * prod(1 - r_j)."""
    out = []
    node = term
    carry = ONE
    while isinstance(node, PChoice):
        out.append(carry * node.weight)
        carry *= ONE - node.weight
        node = node.right
    out.append(carry)
    return out


# ---------------------------------------------------------------------------
# Normalizers


def _normalize_at(rw: _Rewriter, pos):
    """Normalize the term at pos, deeply through prefix and Dirac bodies:
    each sum and choice becomes its canonical list, sorted and merged,
    and sums lose their 0 summands."""
    node = rw.at(pos)
    if isinstance(node, (Prefix, Dirac)):
        _normalize_at(rw, list(pos) + [0])
        return
    if isinstance(node, Zero):
        return
    sort = _SUMS if isinstance(node, Sum) else _CHOICES
    _reassociate(rw, sort, pos)
    n = len(_items(sort, rw.at(pos)))
    for i in range(n):
        _normalize_at(rw, _elem_pos(sort, pos, n, i))
    _bubble_sort(rw, sort, pos)
    _merge_equal(rw, sort, pos)
    if sort is _SUMS:
        _chain_drop_zeros(rw, pos)


def normalize_nd(term: NdTerm, budget: int = 100000):
    """Canonical form under A1-A4: flattened, sorted, duplicate- and
    zero-free (deeply, through prefix bodies).  Returns (term, trace)."""
    rw = _Rewriter(term, _Budget(budget))
    _normalize_at(rw, [])
    return rw.term, ProofTrace(term, tuple(rw.steps), rw.term)


def normalize_p(term: PTerm, budget: int = 100000):
    """Canonical flat probabilistic form: a right-nested spine of Dirac
    components with normalized, sorted, distinct states.  Returns the
    flat decomposition [(mass, state), ...] plus the trace."""
    spine, trace = canonical_pterm(term, budget)
    return tuple((w, comp.body) for w, comp in zip(
        _spine_weights(spine), _items(_CHOICES, spine))), trace


def canonical_pterm(term: PTerm, budget: int = 100000):
    """The canonical spine itself plus its trace."""
    rw = _Rewriter(term, _Budget(budget))
    _normalize_at(rw, [])
    return rw.term, ProofTrace(term, tuple(rw.steps), rw.term)


# ---------------------------------------------------------------------------
# Derived simplified laws (Lemma-8 style chains)


def derived_simple_bp(variant: int, term, budget: int = 100000):
    """Expand one of the derived laws into its primitive chain.

    variant 1: a.D(E + tau.P) = a.P        (needs E matched-by P)
    variant 2: a.(D(tau.P) +[r] R) = a.(P +[r] R)
    variant 3: a.D(tau.P) = a.P
    """
    rw = _Rewriter(term, _Budget(budget))
    if variant == 1:
        shape = term
        if not (isinstance(shape, Prefix) and isinstance(shape.body, Dirac)
                and isinstance(shape.body.body, Sum)
                and isinstance(shape.body.body.right, Prefix)
                and shape.body.body.right.action.is_tau):
            raise ShapeError("expected a.D(E + tau.P)")
        alpha = shape.action
        e = shape.body.body.left
        p = shape.body.body.right.body
        if not sqsubseteq(e, p):
            raise SideConditionError("variant 1: E is not matched by P")
        half = rat(1, 2)
        rw.apply(AxiomId.P3, [0], "RL", {"P": shape.body, "r": half})
        rw.apply(AxiomId.BP, [], "LR",
                 {"alpha": alpha, "E": e, "P": p, "Q": shape.body, "r": half})
        _CHOICES.commute(rw, [0])
        rw.apply(AxiomId.BP, [], "LR",
                 {"alpha": alpha, "E": e, "P": p, "Q": p, "r": half})
        _CHOICES.merge(rw, [0])
    elif variant == 2:
        shape = term
        if not (isinstance(shape, Prefix) and isinstance(shape.body, PChoice)
                and isinstance(shape.body.left, Dirac)
                and isinstance(shape.body.left.body, Prefix)
                and shape.body.left.body.action.is_tau):
            raise ShapeError("expected a.(D(tau.P) +[r] R)")
        _sbp2_chain(rw, [], shape.action)
    elif variant == 3:
        shape = term
        if not (isinstance(shape, Prefix) and isinstance(shape.body, Dirac)
                and isinstance(shape.body.body, Prefix)
                and shape.body.body.action.is_tau):
            raise ShapeError("expected a.D(tau.P)")
        rw.apply(AxiomId.P3, [0], "RL", {"P": shape.body, "r": rat(1, 2)})
        _sbp2_chain(rw, [], shape.action)
        _CHOICES.commute(rw, [0])
        _sbp2_chain(rw, [], shape.action)
        _CHOICES.merge(rw, [0])
    else:
        raise ValueError("variant must be 1, 2 or 3")
    return rw.term, ProofTrace(term, tuple(rw.steps), rw.term)


def _sbp2_chain(rw: _Rewriter, pos, alpha):
    """A4 then BP: a.(D(tau.P) +[r] R) = a.(P +[r] R) at pos."""
    shape = rw.at(pos)
    tau_state = shape.body.left.body
    p = tau_state.body
    r = shape.body.weight
    rest = shape.body.right
    rw.apply(AxiomId.A4, list(pos) + [0, 0, 0], "RL", {"E": tau_state})
    _SUMS.commute(rw, list(pos) + [0, 0, 0])
    rw.apply(AxiomId.BP, pos, "LR",
             {"alpha": alpha, "E": ZERO_TERM, "P": p, "Q": rest, "r": r})


# ---------------------------------------------------------------------------
# Matching weights, read from the decider's own LPs
#
# A matching maps the roots of a saturation proof to the decider's check
# for the relation and its context: strong bisimilarity's partition, or
# the rooted first step over the branching tables.  The prover asks
# check.respond the very question the verdict rested on and reads the
# match from the hull LP's feasible point: weights over state_targets(
# responder, action).  The responder is a normalized chain among the
# roots, because the signatures of the hull LP are defined only on the
# partition universe.


def _strong_matching(roots: frozenset):
    return _StrongCheck(), strong_partition(roots)


def _rooted_matching(roots: frozenset):
    return _ROOTED_CHECK, branching_analysis(roots)


def _rooted_classes(states: frozenset):
    return rooted_partition_over(branching_analysis(states), states)


def _matched_bodies(weights, responder, action):
    """[(body, weight), ...] over the responder's action-summands, in
    chain order, from weights over state_targets(responder, action).  A
    normalized chain's summand bodies have pairwise distinct targets."""
    weight = dict(zip(state_targets(responder, action), weights))
    return [(s.body, weight[den(s.body)]) for s in summands(responder)
            if isinstance(s, Prefix) and s.action == action
            and weight[den(s.body)] != ZERO]


# ---------------------------------------------------------------------------
# C saturation of a whole-term chain


def _add_combo(rw: _Rewriter, action: Action, weighted_bodies):
    """Add the summand action.(fold of the weighted bodies) to the chain
    that rw holds, by one C application per further body, then take the
    intermediate folds out again by C right to left."""
    def to_front(*bodies):
        for k, body in enumerate(bodies):
            i = summands(rw.term).index(Prefix(action, body), k)
            _move(rw, _SUMS, [], i, k)

    (cur_body, cur_w), rest = weighted_bodies[0], weighted_bodies[1:]
    folds = []
    for body, w in rest:
        r = cur_w / (cur_w + w)
        to_front(cur_body, body)
        rw.apply(AxiomId.C, [0] * (len(summands(rw.term)) - 2), "LR",
                 {"alpha": action, "P": cur_body, "Q": body, "r": r})
        folds.append((cur_body, body, r))
        cur_body, cur_w = PChoice(cur_body, r, body), cur_w + w
    for left, right, r in reversed(folds[:-1]):
        to_front(left, PChoice(left, r, right), right)
        rw.apply(AxiomId.C, [0] * (len(summands(rw.term)) - 3), "RL",
                 {"alpha": action, "P": left, "Q": right, "r": r})


def _saturate_and_pair(rw_left: _Rewriter, rw_right: _Rewriter,
                       check, ctx, prefix_prover):
    """Shared skeleton of the completeness argument.

    Both sides are normalized chains.  Every summand of one side is
    matched by a convex combination over the other side's same-action
    summands; multi-summand matches are realized as new summands by C
    saturation (fold intermediates unwound afterwards).  At that point
    each side's (action, continuation-class) groups cover the other's,
    so rewriting every summand body onto a canonical per-group
    representative makes both chains normalize to the same term.
    """
    def group_key(body):
        return check.challenge_sig(ctx, den(body))

    term_left, term_right = rw_left.term, rw_right.term
    for challenger, responder, rw in ((term_left, term_right, rw_right),
                                      (term_right, term_left, rw_left)):
        for s in summands(challenger):
            if not isinstance(s, Prefix):
                continue
            weights = check.respond(ctx, responder, s.action,
                                    group_key(s.body), None)
            if weights is None:
                raise ValueError("transfer match vanished during proof search")
            match = _matched_bodies(weights, responder, s.action)
            if len(match) > 1:
                _add_combo(rw, s.action, match)

    # Canonical representative per (action, continuation class).
    reps: dict = {}
    for rw in (rw_left, rw_right):
        for s in summands(rw.term):
            if not isinstance(s, Prefix):
                continue
            key = (s.action, group_key(s.body))
            cur = reps.get(key)
            if cur is None or (complexity(s.body), p_key(s.body)) < (
                    complexity(cur), p_key(cur)):
                reps[key] = s.body
    for rw in (rw_left, rw_right):
        items = summands(rw.term)
        for i, s in enumerate(items):
            if isinstance(s, Prefix):
                rep = reps[(s.action, group_key(s.body))]
                if s.body != rep:
                    rw.splice(_elem_pos(_SUMS, [], len(items), i),
                              prefix_prover(s.action, s.body, rep))

    _normalize_at(rw_left, [])
    _normalize_at(rw_right, [])
    if rw_left.term != rw_right.term:
        raise ValueError("saturation did not converge to a common form")


# ---------------------------------------------------------------------------
# The prover


class _Prover:
    """Shared memoized engine behind the concretizers and prove_equal."""

    def __init__(self, budget: int = 100000):
        self.budget = _Budget(budget)
        self._conc_memo: dict = {}
        self._conc_nd_memo: dict = {}
        self._state_memo: dict = {}
        self._pterm_memo: dict = {}
        # State provers of the two completeness proofs: strong (A1-A4,
        # P1-P3, C) and rooted branching (the full calculus).
        self.strong = partial(self.states, _strong_matching,
                              self.strong_prefix)
        self.rooted = partial(self.states, _rooted_matching,
                              self.branching_prefix)

    # -- state and spine pairing, shared by strong and rooted completeness

    def states(self, matching, prefix_prover, e: NdTerm, f: NdTerm) -> list:
        """Steps for e = f: both chains are normalized, saturated against
        each other with the check that `matching` gives (strong or
        rooted) and each continuation group is closed by
        `prefix_prover`."""
        if e == f:
            return []
        key = (matching, e, f)
        if key in self._state_memo:
            return list(self._state_memo[key])
        rw_e = _Rewriter(e, self.budget)
        _normalize_at(rw_e, [])
        rw_f = _Rewriter(f, self.budget)
        _normalize_at(rw_f, [])
        if rw_e.term != rw_f.term:
            check, ctx = matching(frozenset({e, f, rw_e.term, rw_f.term}))
            _saturate_and_pair(rw_e, rw_f, check, ctx, prefix_prover)
        steps = rw_e.steps + invert_steps(rw_f.steps)
        self._state_memo[key] = tuple(steps)
        return steps

    def pterms(self, p: PTerm, q: PTerm, partition_of, prove_states) -> list:
        """Steps for p = q: both spines are normalized, every component is
        rewritten by `prove_states` onto the representative of its class
        in partition_of(components), then the spines are merged."""
        if p == q:
            return []
        key = (partition_of, p, q)
        if key in self._pterm_memo:
            return list(self._pterm_memo[key])
        rw_p = _Rewriter(p, self.budget)
        _normalize_at(rw_p, [])
        rw_q = _Rewriter(q, self.budget)
        _normalize_at(rw_q, [])
        if rw_p.term != rw_q.term:
            comps = [c.body for rw in (rw_p, rw_q)
                     for c in _items(_CHOICES, rw.term)]
            partition = partition_of(frozenset(comps))
            reps: dict = {}
            for state in comps:
                cls = partition.class_of(state)
                cur = reps.get(cls)
                if cur is None or (complexity(state), nd_key(state)) < (
                        complexity(cur), nd_key(cur)):
                    reps[cls] = state
            for rw in (rw_p, rw_q):
                spine = _items(_CHOICES, rw.term)
                for i, comp in enumerate(spine):
                    rep = reps[partition.class_of(comp.body)]
                    if comp.body != rep:
                        rw.splice(_elem_pos(_CHOICES, [], len(spine), i) + [0],
                                  prove_states(comp.body, rep))
                _bubble_sort(rw, _CHOICES, [])
                _merge_equal(rw, _CHOICES, [])
            if rw_p.term != rw_q.term:
                raise ValueError("component matching failed")
        steps = rw_p.steps + invert_steps(rw_q.steps)
        self._pterm_memo[key] = tuple(steps)
        return steps

    def strong_prefix(self, action: Action, p: PTerm, q: PTerm) -> list:
        """Steps for action.p = action.q when den(p) ~ den(q), relative to
        the prefix term."""
        inner = self.pterms(p, q, strong_partition, self.strong)
        rw = _Rewriter(Prefix(action, p), self.budget)
        rw.splice([0], inner)
        return rw.steps

    # -- concretization (full calculus)

    def conc_prefix(self, action: Action, p: PTerm):
        """(steps, pbar): steps prove action.p = action.pbar relative to
        the prefix term; pbar is concrete."""
        key = (action, p)
        if key in self._conc_memo:
            steps, pbar = self._conc_memo[key]
            return list(steps), pbar
        rw = _Rewriter(Prefix(action, p), self.budget)
        _normalize_at(rw, [0])
        spine = _items(_CHOICES, rw.at([0]))
        if len(spine) == 1:
            self._conc_state_bare(rw, action)
        else:
            for _ in range(len(spine)):
                _reassociate(rw, _CHOICES, [0])
                m = len(_items(_CHOICES, rw.at([0])))
                _move(rw, _CHOICES, [0], m - 1, 0)
                self._conc_state_front(rw, action)
            _reassociate(rw, _CHOICES, [0])
            _bubble_sort(rw, _CHOICES, [0])
            _merge_equal(rw, _CHOICES, [0])
        pbar = rw.term.body
        self._conc_memo[key] = (tuple(rw.steps), pbar)
        return rw.steps, pbar

    def _concretize_continuations(self, rw: _Rewriter, base) -> None:
        """Concretize every prefix body of the state chain at base."""
        _reassociate(rw, _SUMS, base)
        items = summands(rw.at(base))
        for j, s in enumerate(items):
            if not isinstance(s, Prefix):
                continue
            sub_steps, pbar = self.conc_prefix(s.action, s.body)
            if pbar != s.body:
                rw.splice(_elem_pos(_SUMS, base, len(items), j), sub_steps)

    def _find_inert_summand(self, items, state):
        """Index of a silent summand whose body dissolves the whole state,
        plus the side condition needed for its discharge."""
        tables = branching_analysis({state})
        for j, s in enumerate(items):
            if (isinstance(s, Prefix) and s.action.is_tau
                    and tables.dissolves(state, den(s.body))
                    and (len(items) == 1 or sqsubseteq(
                        reduce(Sum, items[:j] + items[j + 1:]), s.body))):
                return j
        return None

    def _find_partially_inert(self, items, state):
        # A class-mass test, not equivalent_fraction: _reshape_partial
        # needs the class, whose support part it gathers into one state.
        cls = branching_analysis({state}).partition.class_of(state)
        for j, s in enumerate(items):
            if not (isinstance(s, Prefix) and s.action.is_tau):
                continue
            r = den(s.body).class_mass(cls)
            if ZERO < r < ONE:
                return j, cls
        return None

    def _conc_state_front(self, rw: _Rewriter, action: Action):
        """Concretize the Dirac component at the front of the choice spine
        under the prefix: body = D(E) (+w) Rest."""
        base = [0, 0, 0]
        if isinstance(rw.at(base), Zero):
            return
        while True:
            _reassociate(rw, _SUMS, base)
            self._concretize_continuations(rw, base)
            state = rw.at(base)
            items = summands(state)
            j = self._find_inert_summand(items, state)
            if j is not None:
                w = rw.at([0]).weight
                rest = rw.at([0, 1])
                body = items[j].body
                if len(items) == 1:
                    rw.apply(AxiomId.SBP2, [], "LR",
                             {"alpha": action, "P": body, "r": w, "R": rest})
                else:
                    _move(rw, _SUMS, base, j, len(items) - 1)
                    h_term = rw.at(base + [0])
                    rw.apply(AxiomId.BP, [], "LR",
                             {"alpha": action, "E": h_term, "P": body,
                              "Q": rest, "r": w})
                return
            found = self._find_partially_inert(items, state)
            if found is None:
                return  # state is concrete; component stays a Dirac
            j, cls = found
            body_pos = _elem_pos(_SUMS, base, len(items), j) + [0]
            self._reshape_partial(rw, body_pos, cls)
            _move(rw, _SUMS, base, j, 0)
            _reassociate(rw, _SUMS, base, side=1)
            tau_summand = rw.at(base + [0])
            h_term = rw.at(base + [1])
            w = rw.at([0]).weight
            rest = rw.at([0, 1])
            rw.apply(AxiomId.G, [], "LR",
                     {"alpha": action, "E": tau_summand, "F": h_term,
                      "Q": rest, "r": w})
            # loop: the new front state is h_term with one partially
            # inert summand fewer

    def _reshape_partial(self, rw: _Rewriter, pos, cls):
        """Rewrite the choice spine at pos into D(F) (+r0) Rest, with F the
        canonical representative of the class-equivalent support part."""
        _reassociate(rw, _CHOICES, pos)
        spine = _items(_CHOICES, rw.at(pos))
        t_idx = [i for i, c in enumerate(spine) if c.body in cls]
        t_states = [spine[i].body for i in t_idx]
        rep = min(t_states, key=lambda s: (complexity(s), nd_key(s)))
        for i in t_idx:
            comp = _items(_CHOICES, rw.at(pos))[i]
            if comp.body != rep:
                rw.splice(_elem_pos(_CHOICES, pos, len(spine), i) + [0],
                          self.strong(comp.body, rep))
        # bubble the equivalent copies to the front, then merge them
        for front in range(len(t_idx)):
            current = _items(_CHOICES, rw.at(pos))
            src = next(k for k in range(front, len(current))
                       if current[k] == Dirac(rep))
            _move(rw, _CHOICES, pos, src, front)
        _merge_equal(rw, _CHOICES, pos)

    def _conc_state_bare(self, rw: _Rewriter, action: Action):
        """Concretize body = D(E) directly under the prefix."""
        base = [0, 0]
        if isinstance(rw.at(base), Zero):
            return
        self._concretize_continuations(rw, base)
        state = rw.at(base)
        items = summands(state)
        j = self._find_inert_summand(items, state)
        if j is not None:
            body = items[j].body
            if len(items) == 1:
                rw.apply(AxiomId.SBP3, [], "LR", {"alpha": action, "P": body})
            else:
                _move(rw, _SUMS, base, j, len(items) - 1)
                h_term = rw.at(base + [0])
                rw.apply(AxiomId.SBP1, [], "LR",
                         {"alpha": action, "E": h_term, "P": body})
            return
        if self._find_partially_inert(items, state) is None:
            return  # already concrete
        # sandwich: duplicate the component so the choice-context laws apply
        half = rat(1, 2)
        rw.apply(AxiomId.P3, [0], "RL", {"P": rw.at([0]), "r": half})
        self._conc_state_front(rw, action)
        _CHOICES.commute(rw, [0])
        self._conc_state_front(rw, action)
        if rw.at([0]).left != rw.at([0]).right:
            raise ValueError("sandwich halves diverged during concretization")
        _CHOICES.merge(rw, [0])

    # -- branching continuations under a prefix (prob-technical (c))

    def branching_prefix(self, action: Action, p: PTerm, q: PTerm) -> list:
        if p == q:
            return []
        steps_p, pbar = self.conc_prefix(action, p)
        steps_q, qbar = self.conc_prefix(action, q)
        return (list(steps_p) + self.strong_prefix(action, pbar, qbar)
                + invert_steps(steps_q))

    # -- the purely non-deterministic fragment (axiom B route)

    def conc_nd(self, action: Action, e: NdTerm):
        """(steps, ebar) for the nd fragment: steps prove
        action.D(e) = action.D(ebar) with ebar concrete, using B."""
        key = (action, e)
        if key in self._conc_nd_memo:
            steps, ebar = self._conc_nd_memo[key]
            return list(steps), ebar
        rw = _Rewriter(Prefix(action, Dirac(e)), self.budget)
        base = [0, 0]
        while True:
            _normalize_at(rw, base)
            state = rw.at(base)
            if isinstance(state, Zero):
                break
            items = summands(state)
            for j, s in enumerate(items):
                sub_steps, _ = self.conc_nd(s.action, s.body.body)
                if sub_steps:
                    rw.splice(_elem_pos(_SUMS, base, len(items), j),
                              sub_steps)
            state = rw.at(base)
            items = summands(state)
            tables = branching_analysis({state})
            inert_j = next((j for j, s in enumerate(items) if s.action.is_tau
                            and tables.dissolves(state, den(s.body))), None)
            if inert_j is None:
                break
            if len(items) == 1:
                inner = items[0].body.body  # E_i0
                rw.apply(AxiomId.A4, base, "RL", {"E": state})
                _SUMS.commute(rw, base)
                rw.splice(base + [1],
                          self._nd_prefix_eq(TAU, inner, Sum(inner, ZERO_TERM)))
                rw.apply(AxiomId.B, [], "LR",
                         {"alpha": action, "E": inner, "F": ZERO_TERM})
            else:
                _move(rw, _SUMS, base, inert_j, len(items) - 1)
                h_term = rw.at(base + [0])
                inner = rw.at(base + [1]).body.body
                rw.splice(base + [1],
                          self._nd_prefix_eq(TAU, inner, Sum(inner, h_term)))
                rw.apply(AxiomId.B, [], "LR",
                         {"alpha": action, "E": inner, "F": h_term})
        ebar = rw.at(base)
        self._conc_nd_memo[key] = (tuple(rw.steps), ebar)
        return rw.steps, ebar

    def _nd_prefix_eq(self, action: Action, e1: NdTerm, e2: NdTerm) -> list:
        """Steps for action.D(e1) = action.D(e2) in the nd fragment, where
        the two states are branching bisimilar: concretize both and match
        their identical strong normal forms."""
        s1, b1 = self.conc_nd(action, e1)
        s2, b2 = self.conc_nd(action, e2)
        rw1 = _Rewriter(Prefix(action, Dirac(b1)), self.budget)
        _normalize_at(rw1, [0, 0])
        rw2 = _Rewriter(Prefix(action, Dirac(b2)), self.budget)
        _normalize_at(rw2, [0, 0])
        if rw1.term != rw2.term:
            raise ValueError(
                "concrete normal forms differ for branching-equivalent "
                "nd states")
        return list(s1) + rw1.steps + invert_steps(rw2.steps) + invert_steps(s2)


# ---------------------------------------------------------------------------
# Public entry points


def concretize(p: PTerm, budget: int = 100000):
    """A concrete process equal to p under any prefix, plus the trace of
    tau.p = tau.pbar (the silent action as representative prefix)."""
    prover = _Prover(budget)
    steps, pbar = prover.conc_prefix(TAU, p)
    trace = ProofTrace(Prefix(TAU, p), tuple(steps), Prefix(TAU, pbar))
    return pbar, trace


def concretize_nd(e: NdTerm, budget: int = 100000):
    """Concretization inside the purely non-deterministic fragment; the
    trace discharges inert steps with axiom B."""
    if not is_nd_fragment(e):
        raise FragmentError("term is outside the non-deterministic fragment")
    prover = _Prover(budget)
    steps, ebar = prover.conc_nd(TAU, e)
    trace = ProofTrace(Prefix(TAU, Dirac(e)), tuple(steps),
                       Prefix(TAU, Dirac(ebar)))
    return ebar, trace


def prove_equal(left, right, budget: int = 100000):
    """A replayable equational proof of left = right, or the checker's
    refutation verdict.  Exceeding the step budget raises
    BudgetExceededError (a resource condition, never a verdict)."""
    verdict = relation_check("rooted-branching", left, right)
    if not verdict.equivalent:
        return verdict
    prover = _Prover(budget)
    if isinstance(left, NdTerm) and isinstance(right, NdTerm):
        start, end = left, right
        steps = prover.rooted(left, right)
    else:
        start = left if isinstance(left, PTerm) else Dirac(left)
        end = right if isinstance(right, PTerm) else Dirac(right)
        steps = prover.pterms(start, end, _rooted_classes, prover.rooted)
    trace = ProofTrace(start, tuple(steps), end)
    trace.replay()
    return trace
