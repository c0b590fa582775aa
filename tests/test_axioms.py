import random
from functools import reduce

import pytest

from probranch import axioms
from probranch.axioms import (
    AxiomId,
    BudgetExceededError,
    FragmentError,
    PositionError,
    ProofTrace,
    RewriteStep,
    ShapeError,
    SideConditionError,
    SubstitutionError,
    apply_axiom,
    canonical_pterm,
    concretize,
    concretize_nd,
    derived_simple_bp,
    normalize_nd,
    normalize_p,
    prove_equal,
)
from probranch.dist import den, dirac
from probranch.equivalence import (
    Verdict,
    branching_equiv,
    check,
    is_concrete,
    rooted_branching_equiv,
)
from probranch.harness import GenConfig, gen_nd
from probranch.parse import parse_nd, parse_p, print_term
from probranch.rat import rat
from probranch.terms import (
    Action,
    Dirac,
    PChoice,
    Prefix,
    Sum,
    TAU,
    ZERO_TERM,
    summands,
)


def nd(s):
    return parse_nd(s)


def pt(s):
    return parse_p(s)


def step(axiom, pos, direction, **subst):
    return RewriteStep(axiom, tuple(pos), direction,
                       tuple(sorted(subst.items())))


# ------------------------------------------------------------- apply_axiom


def test_apply_a1():
    t = nd("a.D(0) + b.D(0)")
    out = apply_axiom(t, step(AxiomId.A1, [], "LR",
                              E=nd("a.D(0)"), F=nd("b.D(0)")))
    assert out == nd("b.D(0) + a.D(0)")


def test_apply_a3_requires_equal():
    t = nd("a.D(0) + b.D(0)")
    with pytest.raises(SubstitutionError):
        apply_axiom(t, step(AxiomId.A3, [], "LR", E=nd("a.D(0)")))


def test_apply_position_error():
    with pytest.raises(PositionError):
        apply_axiom(ZERO_TERM, step(AxiomId.A1, [0, 1], "LR",
                                    E=ZERO_TERM, F=ZERO_TERM))


def test_apply_p2_weight_algebra():
    t = pt("D(a.D(0)) +[1/2] (D(b.D(0)) +[1/2] D(0))")
    out = apply_axiom(t, step(AxiomId.P2, [], "LR",
                              P=pt("D(a.D(0))"), Q=pt("D(b.D(0))"),
                              R=pt("D(0)"), r=rat(1, 2), s=rat(1, 2)))
    # sbar = 1 - 1/4 = 3/4, rbar = (1/2)/(3/4) = 2/3
    assert out == pt("(D(a.D(0)) +[2/3] D(b.D(0))) +[3/4] D(0)")
    back = apply_axiom(out, step(AxiomId.P2, [], "RL",
                                 P=pt("D(a.D(0))"), Q=pt("D(b.D(0))"),
                                 R=pt("D(0)"), rbar=rat(2, 3), sbar=rat(3, 4)))
    assert back == t


def test_apply_c_with_combined_weight():
    t = nd("a.D(b.D(0)) + a.D(c.D(0))")
    out = apply_axiom(t, step(AxiomId.C, [], "LR", alpha=Action("a"),
                              P=pt("D(b.D(0))"), Q=pt("D(c.D(0))"),
                              r=rat(5, 12)))
    assert out == nd(
        "a.D(b.D(0)) + a.(D(b.D(0)) +[5/12] D(c.D(0))) + a.D(c.D(0))")


def test_apply_bp_side_condition():
    # the worked example: E = b.D(0), P = D(a.D(0)+b.D(0)) +1/2 D(b.D(0))
    e = nd("b.D(0)")
    p = pt("D(a.D(0) + b.D(0)) +[1/2] D(b.D(0))")
    q = pt("D(0)")
    lhs = Prefix(Action("a"), parse_p(
        "(D(b.D(0) + tau.(D(a.D(0) + b.D(0)) +[1/2] D(b.D(0)))) +[1/3] D(0))"))
    out = apply_axiom(lhs, step(AxiomId.BP, [], "LR", alpha=Action("a"),
                                E=e, P=p, Q=q, r=rat(1, 3)))
    assert out == Prefix(Action("a"), parse_p(
        "(D(a.D(0) + b.D(0)) +[1/2] D(b.D(0))) +[1/3] D(0)"))


def test_apply_bp_rejects_bad_side_condition():
    lhs = Prefix(Action("a"), parse_p("(D(c.D(0) + tau.D(b.D(0))) +[1/3] D(0))"))
    with pytest.raises(SideConditionError):
        apply_axiom(lhs, step(AxiomId.BP, [], "LR", alpha=Action("a"),
                              E=nd("c.D(0)"), P=pt("D(b.D(0))"),
                              Q=pt("D(0)"), r=rat(1, 3)))


def test_apply_g():
    # E = b.P' + tau.Q' alternative absorbed into D(F)
    f = nd("b.D(c.D(0)) + tau.D(d.D(0))")
    e = nd("tau.(D(b.D(c.D(0)) + tau.D(d.D(0))) +[1/3] D(d.D(0)))")
    lhs = Prefix(Action("a"), parse_p(
        f"(D({print_term(e)} + ({print_term(f)})) +[1/2] D(0))"))
    out = apply_axiom(lhs, step(AxiomId.G, [], "LR", alpha=Action("a"),
                                E=e, F=f, Q=pt("D(0)"), r=rat(1, 2)))
    assert out == Prefix(Action("a"), parse_p(
        f"(D({print_term(f)}) +[1/2] D(0))"))


def test_apply_b_nd_fragment_only():
    lhs = Prefix(Action("a"), Dirac(nd("b.D(0) + tau.D(c.D(0) + b.D(0))")))
    out = apply_axiom(lhs, step(AxiomId.B, [], "LR", alpha=Action("a"),
                                E=nd("c.D(0)"), F=nd("b.D(0)")))
    assert out == Prefix(Action("a"), Dirac(nd("c.D(0) + b.D(0)")))
    bad = Prefix(Action("a"), Dirac(
        nd("b.(D(0) +[1/2] D(0)) + tau.D(c.D(0) + b.(D(0) +[1/2] D(0)))")))
    with pytest.raises(FragmentError):
        apply_axiom(bad, step(AxiomId.B, [], "LR", alpha=Action("a"),
                              E=nd("c.D(0)"), F=nd("b.(D(0) +[1/2] D(0))")))


# -------------------------------------------------------------- normalizers


def test_normalize_nd_examples():
    out, trace = normalize_nd(nd("0 + b.D(0)"))
    assert out == nd("b.D(0)")
    trace.replay()

    out, trace = normalize_nd(nd("a.D(0) + a.D(0)"))
    assert out == nd("a.D(0)")
    trace.replay()

    out, trace = normalize_nd(nd("b.D(0) + a.D(0)"))
    assert out == nd("a.D(0) + b.D(0)")
    trace.replay()


def test_normalize_nd_all_zero():
    out, trace = normalize_nd(nd("0 + 0 + 0"))
    assert out == ZERO_TERM
    trace.replay()


def test_normalize_nd_deep():
    out, trace = normalize_nd(nd("a.D(0 + b.D(0)) + a.D(b.D(0) + 0)"))
    assert out == nd("a.D(b.D(0))")
    trace.replay()


def test_normalize_nd_idempotent():
    for s in ["0", "b.D(0) + a.D(0) + a.D(0)", "tau.(D(0) +[1/2] D(a.D(0)))"]:
        once, _ = normalize_nd(nd(s))
        twice, trace = normalize_nd(once)
        assert once == twice
        assert not trace.steps


def test_normalize_p_merges_equal():
    decomp, trace = normalize_p(pt("D(0) +[1/2] D(0)"))
    assert decomp == ((rat(1), ZERO_TERM),)
    trace.replay()


def test_normalize_p_flattens_weights():
    decomp, trace = normalize_p(
        pt("(D(a.D(0)) +[1/2] D(b.D(0))) +[1/2] D(c.D(0))"))
    trace.replay()
    masses = {print_term(state): w for w, state in decomp}
    assert masses == {"a.D(0)": rat(1, 4), "b.D(0)": rat(1, 4),
                      "c.D(0)": rat(1, 2)}


def test_normalize_p_reorders():
    decomp, trace = normalize_p(pt("D(b.D(0)) +[1/3] D(a.D(0))"))
    trace.replay()
    assert [print_term(s) for _, s in decomp] == ["a.D(0)", "b.D(0)"]
    assert [w for w, _ in decomp] == [rat(2, 3), rat(1, 3)]


def test_normalize_p_idempotent():
    p = pt("(D(b.D(0)) +[1/3] D(a.D(0))) +[1/2] D(b.D(0))")
    canon, trace = canonical_pterm(p)
    trace.replay()
    again, trace2 = canonical_pterm(canon)
    assert canon == again and not trace2.steps
    assert den(canon) == den(p)


# ------------------------------------------------------------ list toolkit
#
# Sums and choices are edited by one toolkit over a _ListSort; every test
# runs on both sorts, on lists inside a prefix so positions have a base.

LIST_SORTS = pytest.mark.parametrize(
    "sort", [axioms._SUMS, axioms._CHOICES], ids=["sums", "choices"])


def _list_elements(sort, rng, n, names="abc"):
    """n list elements over a few names, so that duplicates occur."""
    leaves = [Prefix(Action(rng.choice(names)), Dirac(ZERO_TERM))
              for _ in range(n)]
    return leaves if sort is axioms._SUMS else [Dirac(x) for x in leaves]


def _nest(sort, elems, rng, canonical=True):
    """The list of elems in its sort's canonical nesting, or nested at
    random split points; choice weights are drawn from rng."""
    if len(elems) == 1:
        return elems[0]
    if canonical:
        split = 1 if sort.nest else len(elems) - 1
    else:
        split = rng.randint(1, len(elems) - 1)
    left = _nest(sort, elems[:split], rng, canonical)
    right = _nest(sort, elems[split:], rng, canonical)
    if sort is axioms._SUMS:
        return Sum(left, right)
    return PChoice(left, rat(rng.randint(1, 4), 5), right)


def _in_context(sort, term):
    """(term under a prefix, base position of the list)."""
    if sort is axioms._SUMS:
        return Prefix(Action("a"), Dirac(term)), [0, 0]
    return Prefix(Action("a"), term), [0]


def _rewriter(term):
    return axioms._Rewriter(term, axioms._Budget(100000))


def _canonical(sort, term):
    return not any(isinstance(x, sort.node) for x in axioms._items(sort, term))


@LIST_SORTS
def test_list_positions_address_elements_and_pairs(sort):
    rng = random.Random(1)
    for _ in range(40):
        items = _list_elements(sort, rng, rng.randint(1, 7))
        n = len(items)
        term, base = _in_context(sort, _nest(sort, items, rng))
        assert axioms._items(sort, axioms.get_subterm(term, base)) == items
        for i in range(n):
            pos = axioms._elem_pos(sort, base, n, i)
            assert axioms.get_subterm(term, pos) == items[i]
        for i in range(n - 1):
            pos, innermost = axioms._pair_pos(sort, base, n, i)
            held = axioms._items(sort, axioms.get_subterm(term, pos))
            assert held == (items[i:] if sort.nest else items[:i + 2])
            assert innermost == (len(held) == 2)


@LIST_SORTS
def test_list_swap_exchanges_exactly_two_elements(sort):
    rng = random.Random(2)
    for _ in range(40):
        items = _list_elements(sort, rng, rng.randint(2, 7))
        i = rng.randrange(len(items) - 1)
        term, base = _in_context(sort, _nest(sort, items, rng))
        rw = _rewriter(term)
        axioms._swap(rw, sort, base, len(items), i)
        want = list(items)
        want[i], want[i + 1] = want[i + 1], want[i]
        assert axioms._items(sort, rw.at(base)) == want
        assert _canonical(sort, rw.at(base))
        assert ProofTrace(term, tuple(rw.steps), rw.term).replay() == rw.term


@LIST_SORTS
def test_list_merge_equal_removes_adjacent_duplicates(sort):
    rng = random.Random(3)
    for _ in range(40):
        items = _list_elements(sort, rng, rng.randint(1, 7), names="ab")
        term, base = _in_context(sort, _nest(sort, items, rng))
        rw = _rewriter(term)
        axioms._merge_equal(rw, sort, base)
        want = [x for k, x in enumerate(items) if k == 0 or x != items[k - 1]]
        assert axioms._items(sort, rw.at(base)) == want
        assert _canonical(sort, rw.at(base))


@LIST_SORTS
def test_list_reassociate_gives_the_canonical_nesting(sort):
    rng = random.Random(4)
    for _ in range(40):
        items = _list_elements(sort, rng, rng.randint(1, 7))
        term, base = _in_context(
            sort, _nest(sort, items, rng, canonical=False))
        rw = _rewriter(term)
        axioms._reassociate(rw, sort, base)
        assert _canonical(sort, rw.at(base))
        assert axioms._items(sort, rw.at(base)) == items
        if sort is axioms._CHOICES:
            assert den(rw.at(base)) == den(axioms.get_subterm(term, base))


@LIST_SORTS
def test_list_reassociate_300_elements_from_the_opposite_nesting(sort):
    items = [Prefix(Action(f"a{k}"), Dirac(ZERO_TERM)) for k in range(300)]
    if sort is axioms._SUMS:
        term = reduce(lambda rest, x: Sum(x, rest), reversed(items[:-1]),
                      items[-1])
    else:
        items = [Dirac(x) for x in items]
        term = reduce(lambda acc, x: PChoice(acc, rat(1, 2), x), items[1:],
                      items[0])
    rw = _rewriter(term)
    axioms._reassociate(rw, sort, [])
    assert _canonical(sort, rw.term)
    assert axioms._items(sort, rw.term) == items
    # one rotation per node but the innermost
    assert len(rw.steps) == 298


# ---------------------------------------------------------- derived laws


def test_sbp3():
    t = nd("a.D(tau.D(b.D(0)))")
    out, trace = derived_simple_bp(3, t)
    assert out == nd("a.D(b.D(0))")
    trace.replay()
    assert set(trace.rule_multiset()) <= {"P3", "A4", "A1", "BP", "P1"}


def test_sbp2():
    t = nd("a.(D(tau.(D(b.D(0)) +[1/2] D(c.D(0)))) +[1/4] D(d.D(0)))")
    out, trace = derived_simple_bp(2, t)
    assert out == nd("a.((D(b.D(0)) +[1/2] D(c.D(0))) +[1/4] D(d.D(0)))")
    trace.replay()


def test_sbp1():
    # guard E = b.D(0) matched by P = D(a.D(0) + b.D(0)) +1/2 D(b.D(0))
    t = nd("a.D(b.D(0) + tau.(D(a.D(0) + b.D(0)) +[1/2] D(b.D(0))))")
    out, trace = derived_simple_bp(1, t)
    assert out == nd("a.(D(a.D(0) + b.D(0)) +[1/2] D(b.D(0)))")
    trace.replay()


def test_sbp1_bad_guard():
    t = nd("a.D(c.D(0) + tau.D(b.D(0)))")
    with pytest.raises(SideConditionError):
        derived_simple_bp(1, t)


def test_sbp_shape_errors():
    with pytest.raises(ShapeError):
        derived_simple_bp(3, nd("a.D(b.D(0))"))
    with pytest.raises(ShapeError):
        derived_simple_bp(2, nd("a.D(0)"))


# ---------------------------------------------------------- concretizers


def test_concretize_inert_tau():
    pbar, trace = concretize(pt("D(tau.D(a.D(0)))"))
    assert pbar == pt("D(a.D(0))")
    assert is_concrete(pbar)
    trace.replay()


def test_concretize_trivial():
    pbar, trace = concretize(pt("D(0)"))
    assert pbar == pt("D(0)")
    assert not trace.steps


def test_concretize_partially_inert_typical():
    # the partially inert "typical case": the inert fraction is absorbed
    inner = "D(b.D(c.D(0)) + tau.D(d.D(0))) +[1/2] D(d.D(0))"
    state = f"tau.({inner}) + b.D(c.D(0)) + tau.D(d.D(0))"
    pbar, trace = concretize(pt(f"D({state})"))
    assert is_concrete(pbar)
    trace.replay()
    assert branching_equiv(den(pbar),
                           dirac(nd("b.D(c.D(0)) + tau.D(d.D(0))"))).equivalent


def test_concretize_mixture():
    pbar, trace = concretize(pt("D(tau.D(a.D(0))) +[1/2] D(b.D(0))"))
    assert is_concrete(pbar)
    trace.replay()
    assert rooted_branching_equiv(
        Prefix(TAU, pbar).body, pt("D(a.D(0)) +[1/2] D(b.D(0))")).equivalent


def test_concretize_preserves_prefixed_equivalence():
    for s in ["D(tau.D(a.D(0)))",
              "D(a.D(tau.D(b.D(0))))",
              "D(tau.(D(b.D(0)) +[1/2] D(c.D(0))))",
              "D(tau.D(a.D(0)) + b.D(0))"]:
        p = pt(s)
        pbar, trace = concretize(p)
        assert is_concrete(pbar)
        trace.replay()
        assert check("rooted-branching", Prefix(TAU, p),
                     Prefix(TAU, pbar)).equivalent


def test_concretize_nd_examples():
    ebar, trace = concretize_nd(nd("tau.D(0) + b.D(0)"))
    assert ebar == nd("tau.D(0) + b.D(0)")
    assert not trace.steps

    ebar, trace = concretize_nd(nd("a.D(tau.D(0))"))
    assert ebar == nd("a.D(0)")
    trace.replay()
    assert "B" in trace.rule_multiset()

    ebar, trace = concretize_nd(ZERO_TERM)
    assert ebar == ZERO_TERM


def test_concretize_nd_fragment_error():
    with pytest.raises(FragmentError):
        concretize_nd(nd("a.(D(0) +[1/2] D(b.D(0)))"))


# ---------------------------------------------------------- prove_equal


def test_prove_equal_reflexive():
    p = pt("D(a.D(0)) +[1/2] D(b.D(0))")
    trace = prove_equal(p, p)
    assert isinstance(trace, ProofTrace)
    assert not trace.steps


def test_prove_equal_refutation():
    out = prove_equal(pt("D(a.D(0))"), pt("D(b.D(0))"))
    assert isinstance(out, Verdict)
    assert not out.equivalent


def test_prove_equal_normal_forms():
    trace = prove_equal(nd("b.D(0) + a.D(0) + a.D(0)"), nd("a.D(0) + b.D(0)"))
    trace.replay()


def test_prove_equal_inert_tau_states():
    trace = prove_equal(nd("a.D(tau.D(b.D(0)))"), nd("a.D(b.D(0))"))
    assert isinstance(trace, ProofTrace)
    trace.replay()


def test_prove_equal_intro_terms():
    s0 = nd("a.(D(tau.(D(b.D(0)) +[1/2] D(c.D(0)))) +[3/4] "
            "D(tau.(D(b.D(0)) +[1/2] D(c.D(0)))))")
    t0 = nd("a.(D(b.D(0)) +[1/2] D(c.D(0)))")
    trace = prove_equal(s0, t0)
    assert isinstance(trace, ProofTrace)
    trace.replay()
    rules = trace.rule_multiset()
    assert "P3" in rules


@pytest.mark.parametrize("left,right", [
    ("a.D(b.D(0)) + a.D(c.D(0))",
     "a.D(b.D(0)) + a.(D(b.D(0)) +[5/12] D(c.D(0))) + a.D(c.D(0))"),
    # under a prefix the match is strong: the strong saturation path
    ("a.D(b.D(c.D(0)) + b.D(d.D(0)))",
     "a.D(b.D(c.D(0)) + b.(D(c.D(0)) +[1/2] D(d.D(0))) + b.D(d.D(0)))"),
], ids=["rooted", "strong-under-prefix"])
def test_prove_equal_combined_transition_pair(left, right):
    e, f = nd(left), nd(right)
    trace = prove_equal(e, f)
    assert isinstance(trace, ProofTrace)
    trace.replay()
    assert "C" in trace.rule_multiset()


def _c_saturation_pairs(n):
    """n seeded states E (distinct up to A1-A4), each paired with
    E + alpha.(P +[r] Q) for two of its own visible alpha-summands whose
    bodies have distinct distributions.  The extra summand is a combined
    transition of E, so the prover must saturate E against it, and where
    P and Q are not equivalent it has to introduce that summand by C."""
    rng = random.Random(5)
    pairs, seen = [], set()
    seed = 0
    while len(pairs) < n:
        seed += 1
        e = gen_nd(GenConfig(seed=seed, max_complexity=7, actions=("a", "b"),
                             tau_bias=rat(1, 4)))
        bodies = {}
        for s in summands(e):
            if isinstance(s, Prefix) and not s.action.is_tau:
                bodies.setdefault(s.action, {}).setdefault(den(s.body), s.body)
        options = [(action, list(by_den.values()))
                   for action, by_den in sorted(bodies.items(),
                                                key=lambda kv: kv[0].name)
                   if len(by_den) >= 2]
        normal = normalize_nd(e)[0]
        if not options or normal in seen:
            continue
        seen.add(normal)
        action, candidates = rng.choice(options)
        p, q = rng.sample(candidates, 2)
        r = rat(rng.randint(1, 5), 6)
        pairs.append((e, Sum(e, Prefix(action, PChoice(p, r, q)))))
    return pairs


def test_prove_equal_c_saturation_seeded(monkeypatch):
    calls = []
    saturate = axioms._saturate_and_pair

    def counting(*args):
        calls.append(args)
        return saturate(*args)

    monkeypatch.setattr(axioms, "_saturate_and_pair", counting)
    proofs = with_c = 0
    for e, f in _c_saturation_pairs(8):
        # bare: the rooted path; under a prefix: the strong path
        for left, right in ((e, f), (Prefix(Action("a"), Dirac(e)),
                                     Prefix(Action("a"), Dirac(f)))):
            trace = prove_equal(left, right)
            assert isinstance(trace, ProofTrace), print_term(right)
            trace.replay()
            proofs += 1
            with_c += "C" in trace.rule_multiset()
    assert len(calls) >= proofs == 16
    assert with_c >= proofs // 2


def test_prove_equal_budget():
    s0 = nd("a.(D(tau.(D(b.D(0)) +[1/2] D(c.D(0)))) +[3/4] "
            "D(tau.(D(b.D(0)) +[1/2] D(c.D(0)))))")
    t0 = nd("a.(D(b.D(0)) +[1/2] D(c.D(0)))")
    with pytest.raises(BudgetExceededError):
        prove_equal(s0, t0, budget=3)


def test_trace_jsonl():
    trace = prove_equal(nd("b.D(0) + a.D(0)"), nd("a.D(0) + b.D(0)"))
    lines = trace.to_jsonl().splitlines()
    assert lines
    import json

    first = json.loads(lines[0])
    assert {"index", "rule", "direction", "position", "before",
            "after"} <= set(first)


def test_concretize_idempotent_up_to_normal_form():
    for seed in (3, 17, 40, 55):
        from probranch.harness import GenConfig, gen_p

        p = gen_p(GenConfig(seed=seed, max_complexity=7))
        pbar, _ = concretize(p)
        again, trace = concretize(pbar)
        c1, _ = canonical_pterm(pbar)
        c2, _ = canonical_pterm(again)
        assert c1 == c2


def test_concretize_partially_inert_exact_result():
    # the partially inert summand is discharged onto its stable
    # alternative (resulting in that alternative's canonical form)
    inner = "D(b.D(c.D(0)) + tau.D(d.D(0))) +[1/2] D(d.D(0))"
    state = f"tau.({inner}) + b.D(c.D(0)) + tau.D(d.D(0))"
    pbar, trace = concretize(pt(f"D({state})"))
    trace.replay()
    expected, _ = canonical_pterm(pt("D(b.D(c.D(0)) + tau.D(d.D(0)))"))
    assert pbar == expected
