import random
from functools import reduce

import pytest

from probranch import axioms, equivalence, lp
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
    check,
    decide,
    is_concrete,
)
from probranch.harness import (
    GenConfig,
    gen_nd,
    gen_p,
    random_equivalent_pair,
    random_sound_application,
)
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


def test_apply_g_rejects_e_not_matched_by_d_f():
    # E's c-step has no answer from D(F), whose only state does b
    e, f = nd("c.D(0)"), nd("b.D(0)")
    lhs = Prefix(Action("a"), PChoice(Dirac(Sum(e, f)), rat(1, 2), pt("D(0)")))
    with pytest.raises(SideConditionError, match="G: E is not directly"):
        apply_axiom(lhs, step(AxiomId.G, [], "LR", alpha=Action("a"),
                              E=e, F=f, Q=pt("D(0)"), r=rat(1, 2)))


@pytest.mark.parametrize("r", [rat(0), rat(1), rat(3, 2)])
def test_apply_rejects_a_c_or_p3_weight_outside_the_open_interval(r):
    """The instance itself holds the weight as a choice, so the step is
    refused while its sides are built, before any side condition."""
    p, q = pt("D(b.D(0))"), pt("D(c.D(0))")
    c_lhs = nd("a.D(b.D(0)) + a.D(c.D(0))")
    with pytest.raises(ValueError, match=r"\(0,1\)"):
        apply_axiom(c_lhs, step(AxiomId.C, [], "LR", alpha=Action("a"),
                                P=p, Q=q, r=r))
    with pytest.raises(ValueError, match=r"\(0,1\)"):
        apply_axiom(p, step(AxiomId.P3, [], "RL", P=p, r=r))


@pytest.mark.parametrize("weights,message", [
    (dict(r=rat(1, 2), s=rat(1, 2), rbar=rat(1, 2), sbar=rat(3, 4)),
     "inconsistent P2 re-weighting parameters"),
    (dict(rbar=rat(1), sbar=rat(1)), "degenerate P2 parameters"),
    (dict(r=rat(1, 2)), r"P2 requires \(r, s\) or \(rbar, sbar\)"),
])
def test_apply_p2_rejects_bad_weights(weights, message):
    t = pt("D(a.D(0)) +[1/2] (D(b.D(0)) +[1/2] D(0))")
    with pytest.raises(SubstitutionError, match=message):
        apply_axiom(t, step(AxiomId.P2, [], "LR", P=pt("D(a.D(0))"),
                            Q=pt("D(b.D(0))"), R=pt("D(0)"), **weights))


def test_apply_rejects_a_missing_metavariable():
    with pytest.raises(SubstitutionError, match="missing metavariable 'F'"):
        apply_axiom(nd("a.D(0) + b.D(0)"),
                    step(AxiomId.A1, [], "LR", E=nd("a.D(0)")))


def test_replay_rejects_a_trace_that_ends_elsewhere():
    start = nd("a.D(0) + b.D(0)")
    swap = step(AxiomId.A1, [], "LR", E=nd("a.D(0)"), F=nd("b.D(0)"))
    assert ProofTrace(start, (swap,), nd("b.D(0) + a.D(0)")).replay() == (
        nd("b.D(0) + a.D(0)"))
    trace = ProofTrace(start, (swap,), start)
    with pytest.raises(ValueError, match="does not replay to its end term"):
        trace.replay()
    assert trace.terms is None


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
    canon, trace = normalize_nd(p)
    trace.replay()
    again, trace2 = normalize_nd(canon)
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
def test_list_sort_merge_sorts_and_removes_duplicates(sort):
    rng = random.Random(3)
    for _ in range(40):
        items = _list_elements(sort, rng, rng.randint(1, 7), names="abc")
        term, base = _in_context(sort, _nest(sort, items, rng))
        rw = _rewriter(term)
        axioms._sort_merge(rw, sort, base)
        assert axioms._items(sort, rw.at(base)) == sorted(set(items),
                                                          key=sort.key)
        assert _canonical(sort, rw.at(base))
        if sort is axioms._CHOICES:
            assert den(rw.at(base)) == den(axioms.get_subterm(term, base))
        assert ProofTrace(term, tuple(rw.steps), rw.term).replay() == rw.term


@LIST_SORTS
def test_list_sort_merge_swaps_in_one_step_at_the_innermost_end(sort):
    # Descending, so each element moves all the way to the innermost end
    # of the run: k - 1 swaps of three steps (A2/P2, A1/P1, A2/P2) and a
    # last swap of one, for the k-th element inserted.
    items = [Prefix(Action(c), Dirac(ZERO_TERM)) for c in "dcba"]
    if sort is axioms._CHOICES:
        items = [Dirac(x) for x in items]
    term, base = _in_context(sort, _nest(sort, items, random.Random(6)))
    rw = _rewriter(term)
    axioms._sort_merge(rw, sort, base)
    assert axioms._items(sort, rw.at(base)) == items[::-1]
    trace = ProofTrace(term, tuple(rw.steps), rw.term)
    assert trace.replay() == rw.term
    swaps, rotations = ("A1", "A2") if sort is axioms._SUMS else ("P1", "P2")
    assert trace.rule_multiset() == {swaps: 6, rotations: 6}


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
    out, trace = derived_simple_bp(t)
    assert out == nd("a.D(b.D(0))")
    trace.replay()
    assert set(trace.rule_multiset()) <= {"P3", "A4", "A1", "BP", "P1"}


def test_sbp2():
    t = nd("a.(D(tau.(D(b.D(0)) +[1/2] D(c.D(0)))) +[1/4] D(d.D(0)))")
    out, trace = derived_simple_bp(t)
    assert out == nd("a.((D(b.D(0)) +[1/2] D(c.D(0))) +[1/4] D(d.D(0)))")
    trace.replay()


def test_sbp1():
    # guard E = b.D(0) matched by P = D(a.D(0) + b.D(0)) +1/2 D(b.D(0))
    t = nd("a.D(b.D(0) + tau.(D(a.D(0) + b.D(0)) +[1/2] D(b.D(0))))")
    out, trace = derived_simple_bp(t)
    assert out == nd("a.(D(a.D(0) + b.D(0)) +[1/2] D(b.D(0)))")
    trace.replay()


def test_sbp1_bad_guard():
    t = nd("a.D(c.D(0) + tau.D(b.D(0)))")
    with pytest.raises(SideConditionError):
        derived_simple_bp(t)


def test_sbp_shape_errors():
    with pytest.raises(ShapeError):
        derived_simple_bp(nd("a.D(b.D(0))"))
    with pytest.raises(ShapeError):
        derived_simple_bp(nd("a.D(0)"))
    with pytest.raises(ShapeError):
        derived_simple_bp(nd("tau.D(b.D(0)) + b.D(0)"))


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
    assert decide("branching", den(pbar),
                  dirac(nd("b.D(c.D(0)) + tau.D(d.D(0))"))).equivalent


def test_concretize_mixture():
    pbar, trace = concretize(pt("D(tau.D(a.D(0))) +[1/2] D(b.D(0))"))
    assert is_concrete(pbar)
    trace.replay()
    assert decide(
        "rooted-branching", Prefix(TAU, pbar).body, pt("D(a.D(0)) +[1/2] D(b.D(0))")).equivalent


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

    # B's main case: the inert summand leaves other summands behind
    for e, expected, length in (
            ("tau.D(b.D(0)) + b.D(0)", "b.D(0)", 4),
            ("a.D(tau.D(b.D(0) + c.D(0)) + b.D(0))", "a.D(b.D(0) + c.D(0))",
             10)):
        ebar, trace = concretize_nd(nd(e))
        assert ebar == nd(expected)
        trace.replay()
        assert len(trace.steps) == length
        assert trace.rule_multiset()["B"] == 1
        assert check("rooted-branching", Prefix(TAU, Dirac(nd(e))),
                     Prefix(TAU, Dirac(ebar))).equivalent


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
    # under a prefix the body takes its strong form
    ("a.D(b.D(c.D(0)) + b.D(d.D(0)))",
     "a.D(b.D(c.D(0)) + b.(D(c.D(0)) +[1/2] D(d.D(0))) + b.D(d.D(0)))"),
], ids=["rooted", "strong-under-prefix"])
def test_prove_equal_combined_transition_pair(left, right):
    e, f = nd(left), nd(right)
    trace = prove_equal(e, f)
    assert isinstance(trace, ProofTrace)
    trace.replay()
    assert "C" in trace.rule_multiset()


def _own_bodies(e):
    """[(action, bodies)] for each visible action of the state e with
    summand bodies of at least two distributions, one body per
    distribution, by action name."""
    bodies = {}
    for s in summands(e):
        if isinstance(s, Prefix) and not s.action.is_tau:
            bodies.setdefault(s.action, {}).setdefault(den(s.body), s.body)
    return [(action, list(by_den.values()))
            for action, by_den in sorted(bodies.items(),
                                         key=lambda kv: kv[0].name)
            if len(by_den) >= 2]


def _c_saturation_pairs(n):
    """n seeded states E (distinct up to A1-A4), each paired with
    E + alpha.(P +[r] Q) for two of its own visible alpha-summands whose
    bodies have distinct distributions.  The extra summand is a combined
    transition of E, so the right side's form drops it, and where P and
    Q are not equivalent that takes C."""
    rng = random.Random(5)
    pairs, seen = [], set()
    seed = 0
    while len(pairs) < n:
        seed += 1
        e = gen_nd(GenConfig(seed=seed, max_complexity=7, actions=("a", "b"),
                             tau_bias=rat(1, 4)))
        options = _own_bodies(e)
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
    form = axioms._Prover.form

    def counting(self, *args):
        calls.append(args)
        return form(self, *args)

    monkeypatch.setattr(axioms._Prover, "form", counting)
    proofs = with_c = 0
    for e, f in _c_saturation_pairs(8):
        # bare: the rooted form; under a prefix: the strong form of the body
        for left, right in ((e, f), (Prefix(Action("a"), Dirac(e)),
                                     Prefix(Action("a"), Dirac(f)))):
            trace = prove_equal(left, right)
            assert isinstance(trace, ProofTrace), print_term(right)
            trace.replay()
            proofs += 1
            with_c += "C" in trace.rule_multiset()
    assert len(calls) >= proofs == 16
    assert with_c >= proofs // 2


def _combination_pair(rng):
    """A seeded state E against E + alpha.(a fold of 2-3 of E's own
    alpha-bodies), as in _c_saturation_pairs; one time in four the fold
    takes a foreign body instead of its last own one."""
    options = []
    while not options:
        e = gen_nd(GenConfig(seed=rng.randrange(2 ** 32), max_complexity=7,
                             actions=("a", "b"), tau_bias=rat(1, 4)))
        options = _own_bodies(e)
    action, candidates = rng.choice(options)
    bodies = rng.sample(candidates, min(len(candidates), rng.randint(2, 3)))
    if rng.random() < 0.25:
        bodies[-1] = gen_p(GenConfig(seed=rng.randrange(2 ** 32),
                                     max_complexity=4, actions=("a", "b")))
    fold = reduce(lambda acc, body: PChoice(acc, rat(rng.randint(1, 5), 6),
                                            body), bodies)
    return e, Sum(e, Prefix(action, fold))


def test_form_agrees_with_the_decider():
    """Two terms have one form, strong or rooted, exactly when the
    decider finds them strong or rooted branching bisimilar, over four
    seeded families: equivalent pairs, random state pairs, sound axiom
    applications and C-combination pairs."""
    rng = random.Random(22)

    def config():
        return GenConfig(seed=rng.randrange(2 ** 32), max_complexity=8)

    pairs = []
    for _ in range(40):
        pairs.append(random_equivalent_pair(
            rng, config(), sort=rng.choice(("p", "nd")), rewrites=4))
        pairs.append((gen_nd(config()), gen_nd(config())))
        pairs.append(random_sound_application(rng, config())[::2])
        pairs.append(_combination_pair(rng))
    seen = {"strong": set(), "rooted-branching": set()}
    for left, right in pairs:
        for relation, rooted in (("strong", False),
                                 ("rooted-branching", True)):
            prover = axioms._Prover()
            same = (prover.form(left, rooted).end
                    == prover.form(right, rooted).end)
            assert same == decide(relation, left, right).equivalent, (
                relation, print_term(left), print_term(right))
            seen[relation].add(same)
    assert seen == {"strong": {True, False},
                    "rooted-branching": {True, False}}


def test_prove_equal_budget():
    s0 = nd("a.(D(tau.(D(b.D(0)) +[1/2] D(c.D(0)))) +[3/4] "
            "D(tau.(D(b.D(0)) +[1/2] D(c.D(0)))))")
    t0 = nd("a.(D(b.D(0)) +[1/2] D(c.D(0)))")
    with pytest.raises(BudgetExceededError):
        prove_equal(s0, t0, budget=3)


# ------------------------------------------ normal forms before the decider


def _decider_calls(monkeypatch):
    """A list that grows by one entry per LP solve and per partition
    refinement, the two ways into the decider.  The analysis caches are
    emptied first, so no refinement hides behind an earlier test's."""
    equivalence._branching_analysis.cache_clear()
    calls = []
    for owner, attr in ((lp.LP, "minimize"), (equivalence, "_refine")):
        def counting(*args, _real=getattr(owner, attr), _attr=attr):
            calls.append(_attr)
            return _real(*args)
        monkeypatch.setattr(owner, attr, counting)
    return calls


def test_prove_equal_meeting_forms_call_no_decider(monkeypatch):
    calls = _decider_calls(monkeypatch)
    for left, right in (
            (nd("c.D(0) + b.D(a.D(0) + a.D(0)) + c.D(0)"),
             nd("b.D(a.D(0)) + c.D(0)")),
            (pt("D(b.D(0)) +[1/3] (D(a.D(0)) +[1/2] D(b.D(0)))"),
             pt("D(a.D(0)) +[1/3] D(b.D(0))"))):
        trace = prove_equal(left, right)
        assert isinstance(trace, ProofTrace) and trace.steps
        assert calls == []
    # the counter sees the decider where the forms differ
    assert isinstance(prove_equal(nd("a.D(tau.D(b.D(0)))"),
                                  nd("a.D(b.D(0))")), ProofTrace)
    assert "minimize" in calls and "_refine" in calls


def test_prove_equal_shortcut_matches_full_path():
    """prove_equal's proof is the one of the full path: the verdict,
    then the prover from the raw sides."""
    rng = random.Random(21)
    met = 0
    for _ in range(50):
        sort = "p" if rng.random() < 0.5 else "nd"
        left, right = random_equivalent_pair(
            rng, GenConfig(seed=rng.randrange(2 ** 32), max_complexity=10),
            sort=sort, rewrites=4)
        trace = prove_equal(left, right)
        assert check("rooted-branching", left, right).equivalent
        assert trace.steps == axioms._Prover().equal(left, right).steps, (
            print_term(left))
        forms = axioms._Prover().normal_forms(left, right)
        met += forms[0].end == forms[1].end
    assert met == 50  # every draw takes the shortcut


def test_concretize_solves_each_equivalent_fraction_once(monkeypatch):
    """The paper's partially inert example asks `equivalent_fraction`
    9 times about 3 distinct (target, stable row) pairs.  The tables keep
    each answer, so the concretizer solves at most 30 LPs; it solved 36
    when every call posed its LP again."""
    calls = _decider_calls(monkeypatch)
    pbar, trace = concretize(pt(
        "D(tau.(D(b.D(c.D(0)) + tau.D(d.D(0))) +[1/3] D(d.D(0))) "
        "+ b.D(c.D(0)) + tau.D(d.D(0)))"))
    assert pbar == pt("D(tau.D(d.D(0)) + b.D(c.D(0)))")
    assert len(trace.steps) == 15
    assert calls.count("minimize") <= 30


def test_prove_equal_refutes_past_the_budget():
    left = nd("c.D(0) + b.D(0) + a.D(0)")
    with pytest.raises(BudgetExceededError):
        normalize_nd(left, budget=1)
    out = prove_equal(left, nd("z.D(0)"), budget=1)
    assert isinstance(out, Verdict) and not out.equivalent
    with pytest.raises(BudgetExceededError):
        prove_equal(left, nd("a.D(0) + b.D(0) + c.D(0)"), budget=1)


@pytest.fixture
def budgets(monkeypatch):
    """Every _Budget made while the test runs, in order."""
    made = []

    class Recording(axioms._Budget):
        def __init__(self, limit):
            super().__init__(limit)
            made.append(self)

    monkeypatch.setattr(axioms, "_Budget", Recording)
    return made


def test_prove_equal_normalizes_each_side_once(budgets):
    # The C-saturation pair with the longest normalization: 7 of its
    # steps normalize the two sides, and a second normalization would
    # spend them again.  Under a prefix the prover makes the same steps
    # one level down, and placing them there costs nothing.
    e, f = _c_saturation_pairs(8)[7]
    a = Action("a")
    for left, right in ((e, f), (Prefix(a, Dirac(e)), Prefix(a, Dirac(f)))):
        budgets.clear()
        trace = prove_equal(left, right)
        assert "C" in trace.rule_multiset()
        assert [budget.used for budget in budgets] == [17]


@pytest.mark.parametrize("n", [5, 10])
def test_concretize_makes_and_charges_each_step_once(budgets, monkeypatch,
                                                     n):
    """The tau-chain D(a.D(tau.D(...))) with n a/tau pairs concretizes in
    n steps, one per nested prefix.  Each step is verified by apply_axiom
    and charged where it is made, and placing a finished sub-proof under
    the next prefix re-applies and charges nothing: n units, and 2n
    apply_axiom runs with the replay that prints the trace."""
    applied = []
    apply_axiom = axioms.apply_axiom

    def counting(term, step):
        applied.append(step)
        return apply_axiom(term, step)

    monkeypatch.setattr(axioms, "apply_axiom", counting)
    chain = pt("D(" + "a.D(tau.D(" * n + "0" + "))" * n + ")")
    _, trace = concretize(chain, budget=n)
    assert len(trace.to_jsonl().splitlines()) == len(trace.steps) == n
    assert [budget.used for budget in budgets] == [n]
    assert len(applied) == 2 * n
    with pytest.raises(BudgetExceededError):
        concretize(chain, budget=n - 1)


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
        c1, _ = normalize_nd(pbar)
        c2, _ = normalize_nd(again)
        assert c1 == c2


def test_concretize_partially_inert_exact_result():
    # the partially inert summand is discharged onto its stable
    # alternative (resulting in that alternative's canonical form)
    inner = "D(b.D(c.D(0)) + tau.D(d.D(0))) +[1/2] D(d.D(0))"
    state = f"tau.({inner}) + b.D(c.D(0)) + tau.D(d.D(0))"
    pbar, trace = concretize(pt(f"D({state})"))
    trace.replay()
    expected, _ = normalize_nd(pt("D(b.D(c.D(0)) + tau.D(d.D(0)))"))
    assert pbar == expected


def test_concretize_partially_inert_class_mates_differ():
    # The partially inert summand's body reaches two states of the
    # source's class that differ up to C.  G drops the summand as it
    # stands, so no step proves the two states equal.
    s1 = "b.D(c.D(0)) + b.D(e.D(0)) + tau.D(d.D(0))"
    s2 = f"{s1} + b.(D(c.D(0)) +[1/2] D(e.D(0)))"
    pbar, trace = concretize(
        pt(f"D(tau.(D({s1}) +[1/3] (D({s2}) +[1/2] D(d.D(0)))) + {s1})"))
    assert pbar == pt("D(tau.D(d.D(0)) + b.D(c.D(0)) + b.D(e.D(0)))")
    assert is_concrete(pbar)
    trace.replay()
    rules = trace.rule_multiset()
    assert rules["G"] == 2 and "C" not in rules
    assert len(trace.steps) == 32


def test_prove_equal_three_body_fold_drops_intermediate_folds():
    # Dropping the fold replays _add_combo in reverse: two C steps fold
    # the three bodies and a third takes the intermediate fold out.
    left = nd("a.D(b.D(0)) + a.D(c.D(0)) + a.D(d.D(0)) + "
              "a.((D(b.D(0)) +[1/2] D(c.D(0))) +[1/3] D(d.D(0)))")
    right = nd("a.D(d.D(0)) + a.D(c.D(0)) + a.D(b.D(0))")
    trace = prove_equal(left, right)
    assert isinstance(trace, ProofTrace)
    assert trace.replay() == right
    assert len(trace.steps) == 33
    assert trace.rule_multiset()["C"] == 3
