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
from functools import reduce
from typing import Optional

from .dist import den, dirac
from .equivalence import (
    PARTIALLY_INERT,
    _direct_step,
    branching_analysis,
    decide,
    sqsubseteq,
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
    # The axiom instance (lhs, rhs), built on first use and kept on the
    # step, as terms.hash_once keeps a node's hash; not a field, so not
    # part of the value.
    _sides = None

    def __str__(self) -> str:
        return f"{self.axiom.value} {self.direction}"

    def subst(self) -> dict:
        return dict(self.substitution)

    def sides(self) -> tuple:
        """The axiom instance (lhs, rhs) under the substitution."""
        sides = self._sides
        if sides is None:
            sides = self.__dict__["_sides"] = _axiom_sides(self.axiom,
                                                           self.subst())
        return sides

    def moved(self, position: tuple, direction: str) -> "RewriteStep":
        """The same instance at another position or in another direction;
        the new step shares this one's instance."""
        out = RewriteStep(self.axiom, position, direction, self.substitution,
                          self.witness)
        out.__dict__["_sides"] = self._sides
        return out

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

    def inverted(self) -> "ProofTrace":
        """The proof of end = start: the steps in reverse order, each in
        the other direction."""
        return ProofTrace(self.end, tuple(
            step.moved(step.position, "RL" if step.direction == "LR" else "LR")
            for step in reversed(self.steps)), self.start)

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


def _child_at(node, i):
    if isinstance(node, (Sum, PChoice)) and i in (0, 1):
        return node.right if i else node.left
    if isinstance(node, (Prefix, Dirac)) and i == 0:
        return node.body
    raise PositionError(f"no child {i} at {node!r}")


def _with_child(node, i, new):
    """node with its child i, which _child_at found, replaced by new."""
    if isinstance(node, Sum):
        return Sum(node.left, new) if i else Sum(new, node.right)
    if isinstance(node, PChoice):
        return (PChoice(node.left, node.weight, new) if i
                else PChoice(new, node.weight, node.right))
    if isinstance(node, Prefix):
        return Prefix(node.action, new)
    return Dirac(new)


def get_subterm(term, position: tuple):
    for i in position:
        term = _child_at(term, i)
    return term


# ---------------------------------------------------------------------------
# Axiom schemas


def _p2_derived(sub: dict) -> dict:
    """Complete a P2 substitution: (r, s) <-> (rbar, sbar), where

        sbar = 1 - (1-r)(1-s),  rbar = r / sbar
        r = rbar * sbar,        s = 1 - (1-sbar) / (1-r)

    Each derived weight is one rat(n, d) over integer products of the
    given weights' numerators and denominators."""
    out = dict(sub)
    if "r" in out and "s" in out:
        a, b = out["r"].numerator, out["r"].denominator
        c, d = out["s"].numerator, out["s"].denominator
        m = b * d - (b - a) * (d - c)  # sbar = m / bd
        rbar, sbar = rat(a * d, m), rat(m, b * d)
        out.setdefault("rbar", rbar)
        out.setdefault("sbar", sbar)
        if out["rbar"] != rbar or out["sbar"] != sbar:
            raise SubstitutionError("inconsistent P2 re-weighting parameters")
    elif "rbar" in out and "sbar" in out:
        a, b = out["rbar"].numerator, out["rbar"].denominator
        c, d = out["sbar"].numerator, out["sbar"].denominator
        m = b * d - a * c  # 1 - r = m / bd
        if m == 0:
            raise SubstitutionError("degenerate P2 parameters")
        out["r"] = rat(a * c, b * d)
        out["s"] = rat(c * (b - a), m)
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


def _verify_side_condition(axiom: AxiomId, sub: dict):
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


def _replace(term, position: tuple, old, new, what):
    """term with its subterm at position, which must equal old, replaced
    by new.  One walk down to the position keeps the nodes that the
    result is rebuilt along."""
    path = []
    actual = term
    for i in position:
        path.append(actual)
        actual = _child_at(actual, i)
    if actual != old:
        raise SubstitutionError(
            f"{what} does not match at {position}: expected "
            f"{print_term(old)}, found {print_term(actual)}")
    for node, i in zip(reversed(path), reversed(position)):
        new = _with_child(node, i, new)
    return new


def apply_axiom(term, step: RewriteStep):
    """Apply one recorded rewrite step, re-verifying position, matching
    and side conditions."""
    lhs, rhs = step.sides()
    src, dst = (lhs, rhs) if step.direction == "LR" else (rhs, lhs)
    out = _replace(term, step.position, src, dst, step)
    _verify_side_condition(step.axiom, step.subst())
    return out


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

    def spend(self):
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceededError(
                f"step budget of {self.limit} exhausted")


class _Rewriter:
    """A working term, the term it started from and the steps between.
    Each step is applied through apply_axiom and charged to the budget
    once, where `apply` makes it.  By the replacement rule a finished
    proof of a subterm holds in any context, so `splice` places one,
    checking only that it starts at the subterm it replaces."""

    def __init__(self, term, budget: _Budget):
        self.start = self.term = term
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

    def splice(self, position, proof: ProofTrace):
        """Place a finished proof of the subterm at `position`."""
        position = tuple(position)
        self.term = _replace(self.term, position, proof.start, proof.end,
                             "sub-proof")
        self.steps.extend(proof.steps if not position else (
            step.moved(position + step.position, step.direction)
            for step in proof.steps))

    def trace(self) -> ProofTrace:
        return ProofTrace(self.start, tuple(self.steps), self.term)


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


def _sort_merge(rw: _Rewriter, sort: _ListSort, base):
    """Sort the canonical list at base and merge its equal elements, in
    one pass.  The sorted, duplicate-free run grows at the list's
    innermost end (the front of a sum chain, the back of a choice
    spine): each element outside it, taken from the inside out, moves
    inward by adjacent swaps, which cost one A1/P1 step at that end and
    not three, until it is in order or meets an equal element, which
    A3/P3 merges it with at once."""
    items = _items(sort, rw.at(base))
    inward = 1 if sort.nest else -1
    for outside in range(len(items) - 1, 0, -1):
        i = outside - 1 if sort.nest else len(items) - outside
        while 0 <= i + inward < len(items):
            lo = min(i, i + inward)  # the element and its inward neighbour
            if items[lo] == items[lo + 1]:
                pos, innermost = _pair_pos(sort, base, len(items), lo)
                if not innermost:
                    sort.rotate_out(rw, pos)
                    pos.append(1 - sort.nest)
                sort.merge(rw, pos)
                del items[i]
                break
            if sort.key(items[lo]) < sort.key(items[lo + 1]):
                break
            _swap(rw, sort, base, len(items), lo)
            items[lo], items[lo + 1] = items[lo + 1], items[lo]
            i += inward


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
    _sort_merge(rw, sort, pos)
    if sort is _SUMS:
        _chain_drop_zeros(rw, pos)


def normalize_nd(term, budget: int = 100000):
    """Canonical form under A1-A4 and P1-P3: flattened, sorted,
    duplicate- and zero-free (deeply, through prefix bodies); a
    probabilistic term's is its canonical spine.  Returns (term, trace)."""
    rw = _Rewriter(term, _Budget(budget))
    _normalize_at(rw, [])
    return rw.term, rw.trace()


def normalize_p(term: PTerm, budget: int = 100000):
    """Canonical flat probabilistic form: a right-nested spine of Dirac
    components with normalized, sorted, distinct states.  Returns the
    flat decomposition [(mass, state), ...] plus the trace."""
    spine, trace = normalize_nd(term, budget)
    return tuple((w, comp.body) for w, comp in zip(
        _spine_weights(spine), _items(_CHOICES, spine))), trace


# ---------------------------------------------------------------------------
# Derived simplified laws (Lemma-8 style chains)


def _is_tau_prefix(term) -> bool:
    return isinstance(term, Prefix) and term.action.is_tau


def derived_simple_bp(term, budget: int = 100000):
    """Expand the derived law that the term's shape names into its
    primitive chain:

        law 1: a.D(E + tau.P) = a.P        (needs E matched-by P)
        law 2: a.(D(tau.P) +[r] R) = a.(P +[r] R)
        law 3: a.D(tau.P) = a.P

    Laws 1 and 3 apply BP and law 2 to both halves of a P3 split.
    """
    if not isinstance(term, Prefix):
        raise ShapeError("expected a prefix")
    alpha, body = term.action, term.body
    rw = _Rewriter(term, _Budget(budget))
    if isinstance(body, PChoice) and isinstance(body.left, Dirac) \
            and _is_tau_prefix(body.left.body):
        _sbp2_chain(rw, alpha)
    elif isinstance(body, Dirac) and _is_tau_prefix(body.body):
        _sandwich(rw, lambda: _sbp2_chain(rw, alpha))
    elif isinstance(body, Dirac) and isinstance(body.body, Sum) \
            and _is_tau_prefix(body.body.right):
        e, p = body.body.left, body.body.right.body
        if not sqsubseteq(e, p):
            raise SideConditionError("law 1: E is not matched by P")
        _sandwich(rw, lambda: rw.apply(AxiomId.BP, [], "LR", {
            "alpha": alpha, "E": e, "P": p, "Q": rw.at([0, 1]),
            "r": rw.at([0]).weight}))
    else:
        raise ShapeError(
            "expected a.D(E + tau.P), a.(D(tau.P) +[r] R) or a.D(tau.P)")
    return rw.term, rw.trace()


def _sbp2_chain(rw: _Rewriter, alpha):
    """A4 then BP: a.(D(tau.P) +[r] R) = a.(P +[r] R) at the root."""
    shape = rw.term
    tau_state = shape.body.left.body
    rw.apply(AxiomId.A4, [0, 0, 0], "RL", {"E": tau_state})
    _SUMS.commute(rw, [0, 0, 0])
    rw.apply(AxiomId.BP, [], "LR",
             {"alpha": alpha, "E": ZERO_TERM, "P": tau_state.body,
              "Q": shape.body.right, "r": shape.body.weight})


def _sandwich(rw: _Rewriter, law):
    """Rewrite a.P to a.P' where `law` rewrites a.(P (+r) Q) to
    a.(P' (+r) Q) at the root: split P in two halves by P3 right to
    left, apply the law to each half in turn, swapping the halves by P1
    between, and merge the equal halves by P3."""
    rw.apply(AxiomId.P3, [0], "RL", {"P": rw.at([0]), "r": rat(1, 2)})
    law()
    _CHOICES.commute(rw, [0])
    law()
    _CHOICES.merge(rw, [0])


# ---------------------------------------------------------------------------
# The prover


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


def _mixture(items, j):
    """[(body, weight), ...] over the other same-action summands of the
    normalized chain `items`, in chain order, whose fold has the
    distribution of summand j's body, or None.  The bodies are forms, so
    the hull LP reads a distribution's masses per form state.  Distinct
    forms have distinct distributions, so only three or more bodies of
    one action can hold a mixture."""
    if len(items) < 3:  # fewer than three bodies; 0 only stands alone
        return None
    action, body = items[j].action, items[j].body
    bodies = [s.body for s in items if s.action == action]
    if len(bodies) < 3:
        return None
    rest = reduce(Sum, items[:j] + items[j + 1:])
    states = sorted({s for b in bodies for s in den(b).support}, key=nd_key)
    signature = lambda mu: tuple(mu.mass(s) for s in states)
    weights = _direct_step(signature, dirac(rest), action,
                           signature(den(body)), partial=False)
    if weights is None:
        return None
    weight = dict(zip(state_targets(rest, action), weights))
    return [(s.body, weight[den(s.body)]) for s in summands(rest)
            if s.action == action and weight[den(s.body)] != ZERO]


def _memoized(method):
    """Keep each proof the prover method makes, by its arguments: a
    proof made once is placed again at no cost."""
    def memo(self, *args):
        key = (method.__name__,) + args
        if key not in self._proofs:
            self._proofs[key] = method(self, *args)
        return self._proofs[key]
    return memo


class _Prover:
    """Shared memoized engine behind the concretizers and prove_equal.

    conc_prefix concretizes a prefix body one state at a time, each by
    the one step _conc_state: on the body D(E) alone, or on the front
    component of a spine D(E) (+w) Rest, into which each component is
    moved in turn."""

    def __init__(self, budget: int = 100000):
        self.budget = _Budget(budget)
        self._proofs: dict = {}

    # -- one form per term: the completeness proofs, strong and rooted

    def normal_forms(self, a, b) -> tuple:
        """Proofs of a = its normal form and b = its normal form, on the
        shared budget.  Where the two forms meet, they prove a = b by
        soundness alone."""
        forms = (_Rewriter(a, self.budget), _Rewriter(b, self.budget))
        for rw in forms:
            _normalize_at(rw, [])
        return tuple(rw.trace() for rw in forms)

    @_memoized
    def form(self, term, rooted: bool) -> ProofTrace:
        """A proof of term = form, where strong bisimilar terms (rooted
        branching bisimilar ones when `rooted`) have one form.  A
        choice's form has its components' forms, sorted and merged.  A
        state's form is its normalized chain, continuations concretized
        first when `rooted`, with each prefix body in its strong form and
        no summand whose body mixes the other same-action bodies: C right
        to left drops it, as _add_combo in reverse."""
        rw = _Rewriter(term, self.budget)
        _normalize_at(rw, [])
        if isinstance(term, PTerm):
            spine = _items(_CHOICES, rw.term)
            for i, comp in enumerate(spine):
                rw.splice(_elem_pos(_CHOICES, [], len(spine), i) + [0],
                          self.form(comp.body, rooted))
            _sort_merge(rw, _CHOICES, [])
        else:
            if rooted:
                self._concretize_continuations(rw, [])
            items = summands(rw.term)
            for j, s in enumerate(items):
                if isinstance(s, Prefix):
                    rw.splice(_elem_pos(_SUMS, [], len(items), j) + [0],
                              self.form(s.body, False))
            _normalize_at(rw, [])
            j = 0
            while j < len(items := summands(rw.term)):
                match = _mixture(items, j)
                if match is None:
                    j += 1
                    continue
                without = _Rewriter(reduce(Sum, items[:j] + items[j + 1:]),
                                    self.budget)
                _add_combo(without, items[j].action, match)
                _normalize_at(without, [])
                rw.splice([], without.trace().inverted())
        return rw.trace()

    def _chain(self, *proofs) -> ProofTrace:
        """One proof of the proofs in turn, each from where the one
        before it ends."""
        rw = _Rewriter(proofs[0].start, self.budget)
        for proof in proofs:
            rw.splice([], proof)
        return rw.trace()

    def equal(self, a, b, forms=None) -> ProofTrace:
        """A proof of a = b, two rooted branching bisimilar terms: the
        steps of their normal forms (or of `forms`, as normal_forms gives
        them) where those meet, and otherwise each side's steps to its
        rooted form, the right side's inverted."""
        if a == b:
            return ProofTrace(a, (), b)
        norm_a, norm_b = forms or self.normal_forms(a, b)
        proofs = [norm_a, norm_b.inverted()]
        if norm_a.end != norm_b.end:
            proofs[1:1] = [self.form(norm_a.end, True),
                           self.form(norm_b.end, True).inverted()]
        return self._chain(*proofs)

    # -- concretization (full calculus)

    @_memoized
    def conc_prefix(self, action: Action, p: PTerm) -> ProofTrace:
        """A proof of action.p = action.pbar with pbar concrete."""
        rw = _Rewriter(Prefix(action, p), self.budget)
        _normalize_at(rw, [0])
        spine = _items(_CHOICES, rw.at([0]))
        if len(spine) == 1:
            self._conc_state(rw, action, spine=False)
        else:
            for _ in range(len(spine)):
                _reassociate(rw, _CHOICES, [0])
                m = len(_items(_CHOICES, rw.at([0])))
                _move(rw, _CHOICES, [0], m - 1, 0)
                self._conc_state(rw, action, spine=True)
            _reassociate(rw, _CHOICES, [0])
            _sort_merge(rw, _CHOICES, [0])
        return rw.trace()

    def _concretize_continuations(self, rw: _Rewriter, base) -> None:
        """Concretize every prefix body of the state chain at base."""
        _reassociate(rw, _SUMS, base)
        items = summands(rw.at(base))
        for j, s in enumerate(items):
            if not isinstance(s, Prefix):
                continue
            proof = self.conc_prefix(s.action, s.body)
            if proof.end != s:
                rw.splice(_elem_pos(_SUMS, base, len(items), j), proof)

    def _conc_state(self, rw: _Rewriter, action: Action, spine: bool):
        """Concretize the state E of the body D(E) under the prefix, or in
        a spine of the front component of the body D(E) (+w) Rest.  Its
        continuations are concretized first.  A silent summand whose
        body dissolves E, and which the other summands are matched by,
        is removed with its prefix: by SBP2 or BP in a spine and by SBP3
        or SBP1 alone, and E is then done.  A partially inert one is
        dropped as it stands: by G in a spine, after which the rest of E
        is concretized in turn, and alone by the same spine step on both
        halves of a P3 split."""
        base = [0, 0, 0] if spine else [0, 0]
        while not isinstance(rw.at(base), Zero):
            self._concretize_continuations(rw, base)
            state = rw.at(base)
            items = summands(state)
            tables = branching_analysis({state})
            j = next((j for j, s in enumerate(items) if _is_tau_prefix(s)
                      and tables.dissolves(state, den(s.body))
                      and (len(items) == 1 or sqsubseteq(
                          reduce(Sum, items[:j] + items[j + 1:]), s.body))),
                     None)
            if j is not None:
                alone = len(items) == 1
                sub = {"alpha": action, "P": items[j].body}
                if not alone:
                    _move(rw, _SUMS, base, j, len(items) - 1)
                    sub["E"] = rw.at(base + [0])
                if spine:
                    sub["r"] = rw.at([0]).weight
                    sub["R" if alone else "Q"] = rw.at([0, 1])
                law = ((AxiomId.SBP1, AxiomId.BP),
                       (AxiomId.SBP3, AxiomId.SBP2))[alone][spine]
                rw.apply(law, [], "LR", sub)
                return
            j = next((j for j, s in enumerate(items) if _is_tau_prefix(s)
                      and tables.inertness(state, den(s.body)).kind
                      == PARTIALLY_INERT), None)
            if j is None:
                return  # E is concrete
            if not spine:
                _sandwich(rw, lambda: self._conc_state(rw, action, True))
                return
            _move(rw, _SUMS, base, j, 0)
            _reassociate(rw, _SUMS, base, side=1)
            rw.apply(AxiomId.G, [], "LR",
                     {"alpha": action, "E": rw.at(base + [0]),
                      "F": rw.at(base + [1]), "Q": rw.at([0, 1]),
                      "r": rw.at([0]).weight})

    # -- the purely non-deterministic fragment (axiom B route)

    @_memoized
    def conc_nd(self, action: Action, e: NdTerm) -> ProofTrace:
        """A proof of action.D(e) = action.D(ebar) in the nd fragment,
        with ebar concrete, using B."""
        rw = _Rewriter(Prefix(action, Dirac(e)), self.budget)
        base = [0, 0]
        while True:
            _normalize_at(rw, base)
            state = rw.at(base)
            if isinstance(state, Zero):
                break
            items = summands(state)
            for j, s in enumerate(items):
                proof = self.conc_nd(s.action, s.body.body)
                if proof.steps:
                    rw.splice(_elem_pos(_SUMS, base, len(items), j), proof)
            state = rw.at(base)
            items = summands(state)
            tables = branching_analysis({state})
            inert_j = next((j for j, s in enumerate(items) if s.action.is_tau
                            and tables.dissolves(state, den(s.body))), None)
            if inert_j is None:
                break
            if len(items) == 1:  # tau.D(E) as 0 + tau.D(E)
                rw.apply(AxiomId.A4, base, "RL", {"E": state})
                _SUMS.commute(rw, base)
            else:
                _move(rw, _SUMS, base, inert_j, len(items) - 1)
            h_term = rw.at(base + [0])
            inner = rw.at(base + [1]).body.body
            rw.splice(base + [1],
                      self._nd_prefix_eq(TAU, inner, Sum(inner, h_term)))
            rw.apply(AxiomId.B, [], "LR",
                     {"alpha": action, "E": inner, "F": h_term})
        return rw.trace()

    def _nd_prefix_eq(self, action: Action, e1: NdTerm,
                      e2: NdTerm) -> ProofTrace:
        """A proof of action.D(e1) = action.D(e2) in the nd fragment,
        where the two states are branching bisimilar: concretize both and
        match their identical strong normal forms."""
        conc1, conc2 = self.conc_nd(action, e1), self.conc_nd(action, e2)
        norm1, norm2 = self.normal_forms(conc1.end, conc2.end)
        return self._chain(conc1, norm1, norm2.inverted(), conc2.inverted())


# ---------------------------------------------------------------------------
# Public entry points


def concretize(p: PTerm, budget: int = 100000):
    """A concrete process equal to p under any prefix, plus the trace of
    tau.p = tau.pbar (the silent action as representative prefix)."""
    trace = _Prover(budget).conc_prefix(TAU, p)
    return trace.end.body, trace


def concretize_nd(e: NdTerm, budget: int = 100000):
    """Concretization inside the purely non-deterministic fragment; the
    trace discharges inert steps with axiom B."""
    if not is_nd_fragment(e):
        raise FragmentError("term is outside the non-deterministic fragment")
    trace = _Prover(budget).conc_nd(TAU, e)
    return trace.end.body.body, trace


def prove_equal(left, right, budget: int = 100000):
    """A replayable equational proof of left = right, or the checker's
    refutation verdict.

    Both sides are normalized under A1-A4/P1-P3 first.  Forms that meet
    prove the pair by soundness alone, and no decider runs.  Only forms
    that differ are checked for rooted branching bisimilarity; an
    equivalent pair is then proved through the one rooted form of both
    sides: each is concretized under its prefixes, its prefix bodies
    take their strong forms, and C drops the summands that are mixtures
    of the others.  Exceeding the step budget raises
    BudgetExceededError (a resource condition, never a verdict), except
    that an inequivalent pair is refuted whatever the budget."""
    prover = _Prover(budget)
    if isinstance(left, NdTerm) and isinstance(right, NdTerm):
        start, end = left, right
    else:
        start = left if isinstance(left, PTerm) else Dirac(left)
        end = right if isinstance(right, PTerm) else Dirac(right)
    forms = None
    if start != end:
        try:
            forms = prover.normal_forms(start, end)
        except BudgetExceededError:
            pass  # refute below; an equivalent pair raises again in equal
        if forms is None or forms[0].end != forms[1].end:
            verdict = decide("rooted-branching", left, right)
            if not verdict.equivalent:
                return verdict
    trace = prover.equal(start, end, forms=forms)
    trace.replay()
    return trace
