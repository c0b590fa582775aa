from probranch.dist import den, dirac, distribution, mix
from probranch.equivalence import branching_analysis, check, sqsubseteq
from probranch.parse import parse_nd, parse_p
from probranch.rat import rat
from probranch.semantics import nd_transitions, state_targets, to_dot
from probranch.terms import Action, Prefix, Sum, ZERO_TERM
from oracle import weak_reachable
from test_crosschecks import stable_form
from test_dist import weight


def nd(s):
    return parse_nd(s)


def pt(s):
    return parse_p(s)


A = Action("a")
B = Action("b")

# probabilistic choice between two visible behaviours, used throughout
P = pt("D(b.D(0))")
Q = pt("D(c.D(0))")


def test_nd_transitions_zero():
    assert nd_transitions(ZERO_TERM) == ()


def test_nd_transitions_prefix():
    trs = nd_transitions(nd("a.D(0)"))
    assert len(trs) == 1
    assert trs[0].action == A and trs[0].target == dirac(ZERO_TERM)


def test_nd_transitions_choice():
    trs = nd_transitions(nd("a.D(0) + tau.D(0)"))
    assert {(t.action.name, t.target) for t in trs} == {
        ("a", dirac(ZERO_TERM)), ("tau", dirac(ZERO_TERM))}


TWO_BRANCH = "a.(D(b.D(0)) +[1/2] D(c.D(0))) + a.(D(b.D(0)) +[1/3] D(c.D(0)))"


def _a_mix(r):
    """a.(D(b.D(0)) +[r] D(c.D(0)))"""
    return Prefix(A, pt(f"D(b.D(0)) +[{r}] D(c.D(0))"))


def test_combined_transition_five_twelfths():
    # two a-branches with weights 1/2 and 1/3 combine to 5/12: a.(mix r)
    # is directly matched by a combined a-step iff r lies between them
    source = pt(f"D({TWO_BRANCH})")
    assert sqsubseteq(_a_mix("5/12"), source)
    assert sqsubseteq(_a_mix("1/2"), source)
    assert not sqsubseteq(_a_mix("1/4"), source)


def test_polytope_empty_cases():
    # no a-step from 0 and no b-step from a.D(0): nothing can match
    assert state_targets(ZERO_TERM, A) == ()
    assert state_targets(nd("a.D(0)"), B) == ()
    assert not sqsubseteq(nd("a.D(0)"), pt("D(0)"))
    assert not sqsubseteq(nd("b.D(0)"), pt("D(a.D(0))"))


def test_polytope_signature_match():
    # the a-step of a.D(0) lands on the class of 0, not on that of a.D(0)
    assert sqsubseteq(nd("a.D(0)"), pt("D(a.D(0))"))
    assert not sqsubseteq(nd("a.D(a.D(0))"), pt("D(a.D(0))"))


def test_polytope_signature_five_twelfths():
    # adding the 5/12 combination as a summand keeps strong equivalence:
    # the combined step hits its signature exactly
    state = nd(TWO_BRANCH)
    assert check("strong", state, Sum(state, _a_mix("5/12"))).equivalent
    assert not check("strong", state, Sum(state, _a_mix("1/4"))).equivalent


def test_partial_tau_contains_tau_body():
    state = nd("tau.(D(b.D(0)) +[1/2] D(c.D(0)))")
    assert weak_reachable(dirac(state), den(pt("D(b.D(0)) +[1/2] D(c.D(0))")))
    assert weak_reachable(dirac(state), dirac(state))  # zero firing


def test_partial_tau_zero_only_self():
    assert weak_reachable(dirac(ZERO_TERM), dirac(ZERO_TERM))
    assert not weak_reachable(dirac(ZERO_TERM), dirac(nd("a.D(0)")))


def test_partial_tau_mixture_display():
    # 1/3 tau.(P +1/2 Q) mixed with 2/3 of its body can fire to the body
    state = nd("tau.(D(b.D(0)) +[1/2] D(c.D(0)))")
    body = den(pt("D(b.D(0)) +[1/2] D(c.D(0))"))
    mu = mix(dirac(state), rat(1, 3), body)
    assert weak_reachable(mu, body)
    assert not weak_reachable(body, mu)


def test_weak_closure_trivial():
    # no silent step: a state reaches only itself
    assert weak_reachable(dirac(ZERO_TERM), dirac(ZERO_TERM))
    a0 = nd("a.D(0)")
    assert weak_reachable(dirac(a0), dirac(a0))
    assert not weak_reachable(dirac(a0), dirac(ZERO_TERM))


def test_weak_closure_chain_display():
    # 1/2 tau.D(tau.P) + 1/3 tau.P + 1/6 den(P)  =>  den(P)
    a_state = nd("tau.D(tau.D(b.D(0)))")
    b_state = nd("tau.D(b.D(0))")
    target = nd("b.D(0)")
    mu = distribution({a_state: rat(1, 2), b_state: rat(1, 3),
                       target: rat(1, 6)})
    assert weak_reachable(mu, dirac(target))
    assert not weak_reachable(mu, dirac(ZERO_TERM))


def test_weak_reflexivity_and_monotone_weight():
    mu = den(pt("D(tau.D(a.D(0))) +[1/2] D(0)"))
    assert weak_reachable(mu, mu)
    fired = den(pt("D(a.D(0)) +[1/2] D(0)"))
    part = den(pt("D(tau.D(a.D(0))) +[1/4] (D(a.D(0)) +[1/3] D(0))"))
    for nu in (fired, part):
        assert weak_reachable(mu, nu)
        assert weight(nu) < weight(mu)
        assert not weak_reachable(nu, mu)


def test_weak_composition():
    # mu1 => mu1' and mu2 => mu2' implies their mix steps to the mix
    mu1 = dirac(nd("tau.D(a.D(0))"))
    mu1p = dirac(nd("a.D(0)"))
    mu2 = dirac(nd("tau.D(0)"))
    mu2p = dirac(ZERO_TERM)
    assert weak_reachable(mu1, mu1p) and weak_reachable(mu2, mu2p)
    assert weak_reachable(mix(mu1, rat(1, 3), mu2), mix(mu1p, rat(1, 3), mu2p))


def test_weight_decrease_on_transitions():
    for s in ["a.D(0)", "tau.(D(a.D(0)) +[1/2] D(0)) + b.D(b.D(0))"]:
        state = nd(s)
        for tr in nd_transitions(state):
            assert weight(tr.target) < weight(dirac(state))


def _stable_form(state):
    return stable_form(branching_analysis([state]), dirac(state))


def test_stabilize_fires_inert_tau():
    assert _stable_form(nd("tau.D(a.D(0))")) == dirac(nd("a.D(0)"))


def test_stabilize_fixed_points():
    assert _stable_form(ZERO_TERM) == dirac(ZERO_TERM)
    st = nd("a.D(0)")
    assert _stable_form(st) == dirac(st)


def test_stabilize_idempotent():
    for text in ("tau.D(a.D(0))", "a.D(0)", "0", "tau.D(a.D(0)) + b.D(0)",
                 "tau.(D(a.D(0)) +[1/2] D(tau.D(a.D(0))))"):
        tables = branching_analysis([nd(text)])
        once = stable_form(tables, dirac(nd(text)))
        assert stable_form(tables, once) == once


def test_stabilize_respects_signature():
    # the tau target lands in a different class, so nothing may fire
    state = nd("tau.D(a.D(0)) + b.D(0)")
    assert _stable_form(state) == dirac(state)


def test_dot_export_mentions_states_and_weights():
    out = to_dot([nd("a.(D(b.D(0)) +[1/2] D(0))")])
    assert out.startswith("digraph")
    assert 'label="a"' in out
    assert '1/2' in out
    assert "shape=point" in out
