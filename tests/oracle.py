"""References for the cross-checks: the plain weak-derivative membership
test, which the deciders' flow LPs and the vertex enumeration of weak
closures are compared against, and the full-closure route of the rooted
first step and of the matching preorder, which the deciders' route over
the continuations' classes is compared against."""

from __future__ import annotations

from probranch.dist import Distribution, den, derivatives
from probranch.equivalence import (
    _ROOTED_CHECK,
    Verdict,
    _as_dist,
    _direct_step,
    _mismatch_witness,
    _profiles,
    branching_analysis,
    partition_from_classes,
)
from probranch.lp import LP
from probranch.rat import ONE
from probranch.semantics import (
    add_flow_result,
    nd_transitions,
    tau_transition_list,
)
from probranch.terms import NdTerm, PTerm, nd_key


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


def rooted_classes_full_closure(roots) -> tuple:
    """(partition, tables): the rooted-branching classes of the roots and
    the final branching tables of their whole joint closure, roots
    included.  The roots of each branching class are grouped by the
    first-step challenges they answer, one member per shape."""
    tables = branching_analysis(roots)
    by_class: dict = {}
    for s in sorted(set(roots), key=nd_key):
        by_class.setdefault(tables.partition.class_of(s), []).append(s)
    groups = []
    for members in by_class.values():
        groups.extend(_profiles(_ROOTED_CHECK, tables, members).values())
    return partition_from_classes(groups), tables


def rooted_verdict_full_closure(left, right) -> Verdict:
    """The rooted-branching verdict, witness included, on the classes of
    rooted_classes_full_closure."""
    mu, nu = _as_dist(left), _as_dist(right)
    partition, tables = rooted_classes_full_closure(mu.support + nu.support)
    left_sig, right_sig = partition.sig(mu), partition.sig(nu)
    if left_sig == right_sig:
        return Verdict(True, "rooted-branching")
    return Verdict(False, "rooted-branching", _mismatch_witness(
        _ROOTED_CHECK, tables, partition, left_sig, right_sig))


def sqsubseteq_full_closure(state: NdTerm, p: PTerm) -> bool:
    """state ⊑ p on the final branching tables of the joint closure of
    the state and den(p)'s support."""
    target = den(p)
    stab_sig = branching_analysis((state,) + target.support).stab_sig
    return all(
        _direct_step(stab_sig, target, tr.action, stab_sig(tr.target),
                     partial=tr.action.is_tau) is not None
        for tr in nd_transitions(state))
