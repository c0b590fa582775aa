"""The plain weak-derivative membership test, the flow-membership
reference that the cross-checks compare the deciders' flow LPs and the
vertex enumeration of weak closures against."""

from __future__ import annotations

from probranch.dist import Distribution, derivatives
from probranch.lp import LP
from probranch.rat import ONE
from probranch.semantics import add_flow_result, tau_transition_list
from probranch.terms import nd_key


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
