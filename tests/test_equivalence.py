import json
import random
import time
from collections import Counter

import pytest

from probranch import equivalence
from probranch.dist import den, derivatives, dirac, distribution, mix
from probranch.equivalence import (
    INERT,
    NEITHER,
    PARTIALLY_INERT,
    ArgumentError,
    Verdict,
    _pool,
    _profiles,
    _start_partition,
    _StrongCheck,
    _direct_step,
    branching_analysis,
    check,
    decide,
    inertness,
    is_concrete,
    is_rigid,
    partition_from_classes,
    reach,
    shape,
    sqsubseteq,
    strong_partition,
)
from probranch.harness import GenConfig, gen_nd, gen_p
from probranch.lp import LP
from probranch.parse import parse_nd, parse_p, parse_term, print_term
from probranch.rat import ONE, rat
from probranch.semantics import StateTransition, nd_transitions
from probranch.terms import TAU, ZERO_TERM, Action, nd_key
from test_dist import class_mass


def nd(s):
    return parse_nd(s)


def pt(s):
    return parse_p(s)


def same_class(partition, e, f):
    return partition.class_of(e) is partition.class_of(f)


# ---------------------------------------------------------------- strong


def test_profiles_ask_one_member_per_shape():
    """Members of one shape share a profile: `respond` is asked about the
    first member of each shape only, once per question."""
    members = sorted(map(nd, [
        "a.D(b.D(0) + c.D(0))", "a.D(c.D(0) + b.D(0))",
        "a.D(b.D(0) + c.D(0)) + a.D(c.D(0) + b.D(0))",
        "a.D(b.D(0)) + a.D(c.D(0))", "a.D(c.D(0)) + a.D(b.D(0))"]),
        key=nd_key)
    partition = _start_partition(
        frozenset().union(*map(derivatives, members)))
    first = {}
    for m in members:
        first.setdefault(shape(m), m)
    assert len(first) == 2
    asked = Counter()

    class Counting(_StrongCheck):
        def respond(self, ctx, state, *question):
            asked[state] += 1
            return super().respond(ctx, state, *question)

    groups = _profiles(Counting(), partition, members)
    pool, mids = _pool(_StrongCheck(), partition, members)
    assert asked == {m: len(pool) * len(mids) for m in first.values()}
    assert sorted(map(len, groups.values())) == [2, 3]
    assert all(len({shape(m) for m in g}) == 1 for g in groups.values())


def test_reach_is_the_visible_actions_of_the_derivatives():
    """reach(s) is the set of visible actions of every derivative of s,
    on the states of seeded terms of both sorts."""
    for seed in range(40):
        cfg = GenConfig(seed=seed, max_complexity=9)
        for term in (gen_nd(cfg), gen_p(cfg)):
            for s in derivatives(term):
                assert reach(s) == {
                    tr.action for d in derivatives(s)
                    for tr in nd_transitions(d) if not tr.action.is_tau}, s


def test_shape_is_kept_on_the_node(monkeypatch):
    """A second shape(s) is the first one's object and asks for no
    transitions."""
    state = nd("a.D(b.D(0)) + tau.(D(c.D(0)) +[1/3] D(0))")
    first = shape(state)

    def no_transitions(state):
        raise AssertionError("transitions asked for again")

    monkeypatch.setattr(equivalence, "nd_transitions", no_transitions)
    assert shape(state) is first


def test_strong_idempotent_sum():
    part = strong_partition({nd("a.D(0) + a.D(0)"), nd("a.D(0)")})
    assert same_class(part, nd("a.D(0) + a.D(0)"), nd("a.D(0)"))


def test_strong_distinct_actions():
    part = strong_partition({nd("a.D(0)"), nd("b.D(0)")})
    assert not same_class(part, nd("a.D(0)"), nd("b.D(0)"))


def test_strong_combined_matching():
    # a two-branch state strongly matches its 5/12 recombination demand
    e = nd("a.(D(b.D(0)) +[1/2] D(c.D(0))) + a.(D(b.D(0)) +[1/3] D(c.D(0)))")
    f = nd("a.(D(b.D(0)) +[5/12] D(c.D(0))) + " + "a.(D(b.D(0)) +[1/2] D(c.D(0))) + a.(D(b.D(0)) +[1/3] D(c.D(0)))")
    part = strong_partition({e, f})
    assert same_class(part, e, f)


def test_strong_equiv_reflexive():
    mu = den(pt("D(a.D(0)) +[1/2] D(b.D(0))"))
    assert decide("strong", mu, mu).equivalent


def test_strong_distinguishes_dirac_from_mixture():
    mu = den(pt("D(a.D(0)) +[1/2] D(b.D(0))"))
    verdict = decide("strong", mu, dirac(ZERO_TERM))
    assert not verdict.equivalent
    assert verdict.witness is not None


def test_strong_check_on_the_depth_120_chain_refines_nothing(monkeypatch):
    """Strong check of the depth-120 a.D(...) chain against itself, and
    against the chain that ends in b.D(0), reads shapes: neither pair
    refines, the equal pair solves no LP, and both answer within 5 s."""
    chain = nd("a.D(" * 120 + "0" + ")" * 120)
    other = nd("a.D(" * 119 + "b.D(0)" + ")" * 119)
    calls = []
    for owner, attr in ((LP, "minimize"), (equivalence, "_refine")):
        def counting(*args, _real=getattr(owner, attr), _attr=attr):
            calls.append(_attr)
            return _real(*args)
        monkeypatch.setattr(owner, attr, counting)
    start = time.perf_counter()
    assert check("strong", chain, chain).equivalent
    assert calls == []
    assert not check("strong", chain, other).equivalent
    assert time.perf_counter() - start < 5
    assert "_refine" not in calls


def test_direct_step_poses_no_row_for_an_untouched_class(monkeypatch):
    """A direct step over a partition with classes that neither its
    columns nor the challenge touch poses no all-zero row: one row for
    the mass, one per touched class."""
    state = nd("a.D(0) + a.(D(0) +[1/2] D(b.D(0)))")
    partition = partition_from_classes(
        [{s} for s in (ZERO_TERM, nd("a.D(0)"), nd("b.D(0)"),
                       nd("c.D(0)"))])
    rows = []
    feasible = LP.feasible

    def recording(self):
        rows.extend(self._rows)
        return feasible(self)

    monkeypatch.setattr(LP, "feasible", recording)
    weights = _direct_step(partition.sig, dirac(state), Action("a"),
                           partition.sig(dirac(ZERO_TERM)), partial=False)
    assert weights == (ONE, 0)
    assert len(rows) == 3
    assert all(coeffs for coeffs, _, _ in rows)


def test_partition_lookups_reject_a_state_outside_the_universe():
    partition = strong_partition([nd("a.D(0)")])
    outside = nd("b.D(0)")
    for lookup in (partition.index_of, partition.class_of):
        with pytest.raises(KeyError) as info:
            lookup(outside)
        assert info.value.args == (
            f"state not in partition universe: {outside!r}",)
    with pytest.raises(KeyError):
        partition.sig(dirac(outside))


def test_strong_choice_idempotence_semantics():
    p = pt("D(a.D(0)) +[1/2] D(a.D(0))")
    assert decide("strong", den(p), den(pt("D(a.D(0))"))).equivalent


# ---------------------------------------------------------------- branching


def test_branching_tau_prefix_identified():
    part = branching_analysis({nd("tau.D(a.D(0))"), nd("a.D(0)")}).partition
    assert same_class(part, nd("tau.D(a.D(0))"), nd("a.D(0)"))


def test_branching_tau_not_inert_with_alternative():
    # 0 + b.0 is not branching bisimilar to tau.0 + b.0
    e = nd("0 + b.D(0)")
    f = nd("tau.D(0) + b.D(0)")
    part = branching_analysis({e, f}).partition
    assert not same_class(part, e, f)


def test_branching_point_vs_dissolved_mixture():
    # the introduction's key identification: a point mass on a silent
    # mixer equals the mixture it dissolves into
    mixer = nd("tau.(D(b.D(0)) +[1/2] D(c.D(0)))")
    target = den(pt("D(b.D(0)) +[1/2] D(c.D(0))"))
    assert decide("branching", dirac(mixer), target).equivalent


def test_branching_inequivalent_visible():
    v = decide("branching", dirac(nd("a.D(0)")), dirac(nd("b.D(0)")))
    assert not v.equivalent
    assert v.witness is not None
    assert "class_signature_left" in v.witness


def test_branching_lemma8_iii_shape():
    # a.D(tau.P) identified with a.P, checked at the continuation level
    assert decide("branching", dirac(nd("tau.D(b.D(0))")),
                  den(pt("D(b.D(0))"))).equivalent


# ---------------------------------------------------------------- rooted


def test_rooted_reflexive():
    e = nd("a.D(0) + tau.D(b.D(0))")
    assert check("rooted-branching", e, e).equivalent


def test_rooted_intro_terms():
    s0 = nd("a.(D(tau.(D(b.D(0)) +[1/2] D(c.D(0)))) +[3/4] "
            "D(tau.(D(b.D(0)) +[1/2] D(c.D(0)))))")
    t0 = nd("a.(D(b.D(0)) +[1/2] D(c.D(0)))")
    u0 = nd("a.(D(tau.(D(b.D(0)) +[1/2] D(c.D(0)))) +[1/3] "
            "(D(b.D(0)) +[1/2] D(c.D(0))))")
    assert check("rooted-branching", s0, t0).equivalent
    assert check("rooted-branching", t0, u0).equivalent
    assert check("rooted-branching", s0, u0).equivalent
    # strong must separate the first from the second
    assert not decide("strong", dirac(s0), dirac(t0)).equivalent


def test_rooted_counterexample_pterms():
    p = pt("D(tau.D(a.D(0))) +[1/2] D(b.D(0))")
    q = pt("D(a.D(0)) +[1/2] D(b.D(0))")
    assert not decide("rooted-branching", p, q).equivalent
    assert decide("branching", den(p), den(q)).equivalent


def test_rooted_zero_vs_tau_counterexample():
    e = nd("0 + b.D(0)")
    f = nd("tau.D(0) + b.D(0)")
    assert not check("rooted-branching", e, f).equivalent


def test_check_solves_no_lp_where_forms_meet(monkeypatch):
    """Branching and rooted-branching pairs whose normal forms meet are
    answered without an LP; strong pairs, and the deciders themselves,
    still solve them."""
    equivalence._branching_analysis.cache_clear()
    solves = []
    minimize = LP.minimize

    def counting(lp, objective):
        solves.append(objective)
        return minimize(lp, objective)

    monkeypatch.setattr(LP, "minimize", counting)
    left = nd("c.D(0) + b.D(a.D(0) + tau.D(0))")
    right = nd("b.(D(tau.D(0) + a.D(0)) +[1/3] D(a.D(0) + 0 + tau.D(0)))"
               " + c.D(0) + c.D(0)")
    for relation in ("branching", "rooted-branching"):
        assert check(relation, left, right) == Verdict(True, relation)
    assert solves == []
    assert check("strong", nd("a.D(0)"), nd("a.D(0) + a.D(0)")).equivalent
    assert len(solves) >= 1
    solves.clear()
    assert decide("rooted-branching", left, right).equivalent
    assert len(solves) >= 1


_PINNED_VERDICTS = [
    ("strong", "tau.D(a.D(0))", "a.D(0)",
     {"equivalent": False, "relation": "strong", "witness": {
         "action_path": ["tau"],
         "class_signature_left": {"tau.D(a.D(0))": "1/1"},
         "class_signature_right": {"a.D(0)": "1/1"}}}),
    # only `b` separates this pair: each side answers `a` from its own
    # stable row
    ("branching", "a.D(0)", "a.D(0) + b.D(0)",
     {"equivalent": False, "relation": "branching", "witness": {
         "action_path": ["b"],
         "class_signature_left": {"a.D(0)": "1/1"},
         "class_signature_right": {"a.D(0) + b.D(0)": "1/1"}}}),
    ("rooted-branching", "D(tau.D(a.D(0))) +[1/2] D(b.D(0))",
     "D(a.D(0)) +[1/2] D(b.D(0))",
     {"equivalent": False, "relation": "rooted-branching", "witness": {
         "action_path": ["tau"],
         "class_signature_left": {"tau.D(a.D(0))": "1/2", "b.D(0)": "1/2"},
         "class_signature_right": {"a.D(0)": "1/2", "b.D(0)": "1/2"}}}),
    ("branching",
     mix(dirac(nd("a.D(0)")), rat(1, 3),
         den(pt("D(b.D(0)) +[1/2] D(c.D(0))"))),
     mix(dirac(nd("tau.D(a.D(0))")), rat(1, 2), dirac(nd("b.D(0) + c.D(0)"))),
     {"equivalent": False, "relation": "branching", "witness": {
         "action_path": ["tau"],
         "class_signature_left": {
             "tau.D(a.D(0))": "1/3", "b.D(0)": "1/3", "c.D(0)": "1/3"},
         "class_signature_right": {
             "tau.D(a.D(0))": "1/2", "b.D(0) + c.D(0)": "1/2"}}}),
]


@pytest.mark.parametrize(
    "relation,left,right,expected", _PINNED_VERDICTS,
    ids=["strong", "branching", "rooted-branching", "distributions"])
def test_verdict_json_is_pinned(relation, left, right, expected):
    """The verdict JSON, witness included, of one pair per relation and
    one distribution-level pair built with `mix`."""
    if isinstance(left, str):
        left, right = parse_term(left), parse_term(right)
    verdict = decide(relation, left, right)
    assert json.dumps(verdict.to_json()) == json.dumps(expected)


def test_branching_witness_action_separates_the_representatives(
        monkeypatch):
    """Over 300 seeded inequivalent branching pairs, the witness names an
    action that exactly one of the two representatives answers: some
    challenge of that action from their joint moves is answered, each
    from its own stable row, by one of them and not by the other."""
    split_calls = []
    split = equivalence._split_action

    def recording(check, tables, one, other):
        split_calls.append((tables, one, other))
        return split(check, tables, one, other)

    monkeypatch.setattr(equivalence, "_split_action", recording)
    rng = random.Random(5)
    pairs = 0
    while pairs < 300:
        left, right = (gen_nd(GenConfig(seed=rng.randrange(2 ** 32),
                                        max_complexity=rng.randint(3, 9)))
                       for _ in range(2))
        split_calls.clear()
        verdict = decide("branching", left, right)
        if verdict.equivalent:
            continue
        pairs += 1
        [(tables, one, other)] = split_calls
        [name] = verdict.witness["action_path"]

        def answers(state, action, end):
            return tables.transfer_feasible(
                dirac(state), action, end, tables.stabsig_state[state])

        challenges = {(tr.action, tables.stab_sig(tr.target))
                      for state in (one, other)
                      for tr in nd_transitions(state)
                      if tr.action.name == name}
        assert any(answers(one, action, end) != answers(other, action, end)
                   for action, end in challenges), (
            name, print_term(one), print_term(other))


def test_inclusion_chain_on_samples():
    pairs = [
        (nd("a.D(0) + a.D(0)"), nd("a.D(0)")),
        (nd("tau.D(a.D(0))"), nd("a.D(0)")),
        (nd("a.D(0)"), nd("b.D(0)")),
        (nd("a.D(tau.D(b.D(0)))"), nd("a.D(b.D(0))")),
    ]
    for e, f in pairs:
        s = check("strong", e, f).equivalent
        r = check("rooted-branching", e, f).equivalent
        b = check("branching", e, f).equivalent
        assert (not s or r) and (not r or b)


# ---------------------------------------------------------------- inertness


def _tau_transition(state, idx=0):
    taus = [t for t in nd_transitions(state) if t.action.is_tau]
    return taus[idx]


def test_inert_tau_prefix():
    state = nd("tau.(D(b.D(0)) +[1/2] D(c.D(0)))")
    res = inertness(state, _tau_transition(state))
    assert res.kind == INERT


def test_inert_self_absorbing():
    state = nd("a.D(0) + b.D(0) + tau.D(a.D(0) + b.D(0))")
    res = inertness(state, _tau_transition(state))
    assert res.kind == INERT


def test_partially_inert_typical_case():
    # tau.(D(b.P + tau.Q) +[r] Q) + b.P + tau.Q with the canonical split
    state = nd("tau.(D(b.D(c.D(0)) + tau.D(d.D(0))) +[1/3] D(d.D(0)))"
               " + b.D(c.D(0)) + tau.D(d.D(0))")
    taus = [t for t in nd_transitions(state) if t.action.is_tau]
    split = [t for t in taus
             if t.target != den(pt("D(d.D(0))"))][0]
    res = inertness(state, split)
    assert res.kind == PARTIALLY_INERT
    assert res.fraction == rat(1, 3)


def test_partially_inert_onto_a_mixed_stable_row():
    # The source is unstable: its stable signature is the mixture
    # 1/2 X + 1/2 Y of its first target, and the equivalent part of the
    # second target is its X and Y mass, though that target puts no mass
    # on the source's own class.
    x = "D(a.D(0) + tau.D(c.D(0)))"
    y = "D(b.D(0) + tau.D(c.D(0)))"
    first = pt(f"{x} +[1/2] {y}")
    second = pt(f"{x} +[1/4] ({y} +[1/3] D(c.D(0)))")
    state = nd(f"tau.({x} +[1/2] {y}) + tau.({x} +[1/4] ({y} +[1/3] "
               "D(c.D(0))))")
    taus = {t.target: t for t in nd_transitions(state) if t.action.is_tau}
    assert inertness(state, taus[den(first)]).kind == INERT
    res = inertness(state, taus[den(second)])
    assert res.kind == PARTIALLY_INERT
    assert res.fraction == rat(1, 2)
    assert class_mass(den(second), branching_analysis(
        {state}).partition.class_of(state)) == 0


def test_neither_tau():
    state = nd("tau.D(a.D(0)) + b.D(0)")
    res = inertness(state, _tau_transition(state))
    assert res.kind == NEITHER


def test_inertness_argument_error():
    state = nd("a.D(0)")
    tr = nd_transitions(state)[0]
    with pytest.raises(ArgumentError):
        inertness(state, tr)
    other = StateTransition(nd("b.D(0)"), TAU, dirac(ZERO_TERM))
    with pytest.raises(ArgumentError):
        inertness(state, other)


# ------------------------------------------------------- concrete / rigid


def test_concrete_examples():
    assert is_concrete(pt("D(0)"))
    assert not is_concrete(pt("D(tau.D(a.D(0)))"))
    # the tau target is not equivalent to the source (the b-branch differs)
    assert is_concrete(pt("D(tau.D(a.D(0)) + b.D(0))"))


def test_concrete_sees_deep_derivatives():
    assert not is_concrete(pt("D(a.D(tau.D(b.D(0))))"))
    assert not is_concrete(pt("D(a.D(0)) +[1/2] D(tau.D(b.D(0)))"))


def test_rigid():
    assert is_rigid(nd("a.D(0)"))
    assert is_rigid(nd("tau.D(a.D(0)) + b.D(0)"))
    assert not is_rigid(nd("tau.D(a.D(0))"))


def test_concrete_implies_rigid_on_samples():
    for s in ["0", "a.D(0)", "tau.D(a.D(0))", "tau.D(a.D(0)) + b.D(0)",
              "a.D(tau.D(0))"]:
        state = nd(s)
        if is_concrete(pt(f"D({s})")):
            assert is_rigid(state)


# ---------------------------------------------------------------- preorder


def test_sqsubseteq_paper_example():
    e = nd("b.D(0)")
    p = pt("D(a.D(0) + b.D(0)) +[1/2] D(b.D(0))")
    assert sqsubseteq(e, p)


def test_sqsubseteq_tau_label_example():
    # tau.(D(b.P + tau.Q) +[r] Q)  matched by  D(b.P + tau.Q) via a
    # partial silent step
    e = nd("tau.(D(b.D(c.D(0)) + tau.D(d.D(0))) +[1/3] D(d.D(0)))")
    p = pt("D(b.D(c.D(0)) + tau.D(d.D(0)))")
    assert sqsubseteq(e, p)


def test_sqsubseteq_mixture_example():
    e = nd("a.(D(c.D(0)) +[1/3] D(d.D(0)))")
    p = pt("D(b.D(0) + a.D(c.D(0))) +[1/3] D(e.D(0) + a.D(d.D(0)))")
    assert sqsubseteq(e, p)


def test_sqsubseteq_negative():
    assert not sqsubseteq(nd("a.D(0)"), pt("D(b.D(0))"))


def test_sqsubseteq_trivial_zero():
    assert sqsubseteq(ZERO_TERM, pt("D(b.D(0))"))


def test_branching_partition_e1_e6_same_class():
    m = "tau.D(x.D(0)) + c.D(y.D(0)) + tau.D(z.D(0))"
    e1 = nd(f"tau.(D(tau.D({m}) + c.D(y.D(0)) + tau.D(z.D(0))) "
            f"+[1/2] D(tau.(D({m}) +[1/2] D(0))))")
    e6 = nd(f"tau.(D({m}) +[3/4] D(0))")
    part = branching_analysis({e1, e6}).partition
    assert same_class(part, e1, e6)


def test_rooted_first_step_must_be_full():
    # a silent challenge cannot be answered by firing nothing: the pure
    # tau tower is branching equivalent to 0 but not rooted equivalent
    a = pt("D(0) +[4/5] D(0) +[1/2] D(tau.D(0))")
    b = pt("D(tau.D(tau.D(0)))")
    assert decide("branching", den(a), den(b)).equivalent
    assert not decide("rooted-branching", a, b).equivalent
    assert not check("rooted-branching", ZERO_TERM, nd("tau.D(0)")).equivalent
    # both of these offer a genuine first silent step, so they are rooted
    # equivalent even though their towers have different heights
    assert check("rooted-branching", nd("tau.D(0)"),
                 nd("tau.D(tau.D(0))")).equivalent


def test_rooted_state_witness_separates():
    # 0 and tau.D(0) are branching equivalent; only the rooted first step
    # tells them apart, so the witness names tau and two distinct classes
    v = check("rooted-branching", ZERO_TERM, nd("tau.D(0)"))
    assert not v.equivalent
    assert v.witness["action_path"] == ["tau"]
    assert "class" not in v.witness
    assert (v.witness["class_signature_left"]
            != v.witness["class_signature_right"])


def test_rooted_witness_names_the_separating_action():
    # only z tells the two apart; a is answered on both sides
    v = check("rooted-branching", nd("a.D(0)"), nd("a.D(0) + 0 + z.D(0)"))
    assert not v.equivalent
    assert v.witness["action_path"] == ["z"]
    assert check("strong", nd("a.D(0)"),
                 nd("a.D(0) + 0 + z.D(0)")).witness["action_path"] == ["z"]
