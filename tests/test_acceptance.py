"""Acceptance criteria, one test per criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`)."""

import random

import pytest

from probranch.axioms import (
    ProofTrace,
    derived_simple_bp,
    concretize,
    prove_equal,
)
from probranch.cli import main as cli_main
from probranch.dist import den, derivatives
from probranch.equivalence import (
    check,
    decide,
    is_concrete,
    sqsubseteq,
)
from probranch.harness import (
    GenConfig,
    brute_force_branching,
    gen_nd,
    gen_p,
    random_equivalent_pair,
    random_sound_application,
    run_property_suite,
)
from probranch.parse import parse_nd, parse_p, print_term
from probranch.rat import ONE, rat
from probranch.terms import (
    Action,
    Dirac,
    PChoice,
    Prefix,
    Sum,
    TAU,
    ZERO_TERM,
)

nd = parse_nd
pt = parse_p


def _report(number: int, description: str):
    print(f"criterion {number}: PASS - {description}")


INTRO_S0 = ("a.(D(tau.(D(b.D(0)) +[1/2] D(c.D(0)))) +[3/4] "
            "D(tau.(D(b.D(0)) +[1/2] D(c.D(0)))))")
INTRO_T0 = "a.(D(b.D(0)) +[1/2] D(c.D(0)))"
INTRO_U0 = ("a.(D(tau.(D(b.D(0)) +[1/2] D(c.D(0)))) +[1/3] "
            "(D(b.D(0)) +[1/2] D(c.D(0))))")


def test_criterion_1_intro_triple():
    """The three introduction processes are pairwise rooted-branching
    equivalent; the first two are strongly inequivalent (exit codes
    0/0/0 and 1)."""
    codes = [
        cli_main(["check", "--rel", "rooted-branching",
                  "--left", INTRO_S0, "--right", INTRO_T0]),
        cli_main(["check", "--rel", "rooted-branching",
                  "--left", INTRO_T0, "--right", INTRO_U0]),
        cli_main(["check", "--rel", "rooted-branching",
                  "--left", INTRO_S0, "--right", INTRO_U0]),
    ]
    strong_code = cli_main(["check", "--rel", "strong",
                            "--left", INTRO_S0, "--right", INTRO_T0])
    assert codes == [0, 0, 0]
    assert strong_code == 1
    _report(1, "intro triple pairwise rooted-branching (0/0/0), strong 1")


def test_criterion_2_e1_e6_proof():
    """prove_equal(E1, E6) succeeds with at least one BP, SBP2, P1, P2 and
    P3 application, and the trace replays."""
    m = "tau.D(x.D(0)) + c.D(y.D(0)) + tau.D(z.D(0))"
    e1 = nd(f"tau.(D(tau.D({m}) + c.D(y.D(0)) + tau.D(z.D(0))) "
            f"+[1/2] D(tau.(D({m}) +[1/2] D(0))))")
    e6 = nd(f"tau.(D({m}) +[3/4] D(0))")
    trace = prove_equal(e1, e6)
    assert isinstance(trace, ProofTrace)
    trace.replay()
    rules = trace.rule_multiset()
    assert {"BP", "SBP2", "P1", "P2", "P3"} <= set(rules)
    _report(2, f"E1 = E6 proved; rules {sorted(rules)} replay verified")


def test_criterion_3_rooted_counterexample():
    """P and Q differing by one inert silent prefix fail the rooted check
    but pass the branching check."""
    p = pt("D(tau.D(a.D(0))) +[1/2] D(b.D(0))")
    q = pt("D(a.D(0)) +[1/2] D(b.D(0))")
    assert not decide("rooted-branching", p, q).equivalent
    assert decide("branching", den(p), den(q)).equivalent
    _report(3, "rooted check fails, branching check passes")


def test_criterion_4_combined_transition():
    """The two-branch state combines its 1/2 and 1/3 choices into the
    5/12 mixture, both as a direct match and as an exact strong
    signature; weights outside [1/3, 1/2] are not combinations."""
    state = nd("a.(D(b.D(0)) +[1/2] D(c.D(0))) + "
               "a.(D(b.D(0)) +[1/3] D(c.D(0)))")
    target = den(pt("D(b.D(0)) +[5/12] D(c.D(0))"))
    assert target.mass(nd("b.D(0)")) == rat(5, 12)
    for r, inside in (("5/12", True), ("1/2", True), ("1/3", True),
                      ("1/4", False), ("3/5", False)):
        combo = Prefix(Action("a"), pt(f"D(b.D(0)) +[{r}] D(c.D(0))"))
        assert sqsubseteq(combo, Dirac(state)) == inside, r
        assert check("strong", state, Sum(state, combo)).equivalent == inside, r
    _report(4, "5/12 combined transition feasible and signature-exact")


def test_criterion_5_matching_preorder_fixtures():
    """The three worked direct-matching examples hold; a visible action
    with no counterpart is rejected."""
    assert sqsubseteq(nd("b.D(0)"),
                      pt("D(a.D(0) + b.D(0)) +[1/2] D(b.D(0))"))
    assert sqsubseteq(
        nd("a.(D(c.D(0)) +[1/3] D(d.D(0)))"),
        pt("D(b.D(0) + a.D(c.D(0))) +[1/3] D(e.D(0) + a.D(d.D(0)))"))
    assert sqsubseteq(
        nd("tau.(D(b.D(c.D(0)) + tau.D(d.D(0))) +[1/3] D(d.D(0)))"),
        pt("D(b.D(c.D(0)) + tau.D(d.D(0)))"))
    assert not sqsubseteq(nd("a.D(0)"), pt("D(b.D(0))"))
    _report(5, "all three worked fixtures true, negative case false")


def test_criterion_6_derived_laws_randomized():
    """The three derived simplified laws produce replayable traces on 100
    randomized instances each."""
    failures = 0
    for seed in range(100):
        rng = random.Random(seed)
        cfg = GenConfig(seed=seed, max_complexity=5)
        p = gen_p(cfg)
        e = gen_nd(GenConfig(seed=seed + 10_000, max_complexity=5))
        g = gen_nd(GenConfig(seed=seed + 20_000, max_complexity=5))
        rest = gen_p(GenConfig(seed=seed + 30_000, max_complexity=4))
        alpha = Action(rng.choice(["a", "b", "tau"]))
        r = rat(rng.randint(1, 4), 5)
        guarded = Dirac(Sum(e, g))
        instances = [
            Prefix(alpha, Dirac(Sum(e, Prefix(TAU, guarded)))),
            Prefix(alpha, PChoice(Dirac(Prefix(TAU, p)), r, rest)),
            Prefix(alpha, Dirac(Prefix(TAU, p))),
        ]
        for term in instances:
            try:
                out, trace = derived_simple_bp(term)
                trace.replay()
                assert trace.start == term and trace.end == out
            except Exception:
                failures += 1
    assert failures == 0
    _report(6, "300 derived-law traces (100 seeds x 3 laws) replay")


def test_criterion_7_soundness_fuzz():
    """1000 random axiom applications: rooted-branching preserved in all,
    strong additionally for the unconditional axioms."""
    unconditional = {"A1", "A2", "A3", "A4", "P1", "P2", "P3", "C"}
    cfg = GenConfig(seed=2024, max_complexity=12)
    rng = random.Random(2024)
    seen = set()
    for _ in range(1000):
        before, step, after = random_sound_application(rng, cfg)
        seen.add(step.axiom.value)
        assert decide("rooted-branching", before, after).equivalent, (
            step.axiom, print_term(before))
        if step.axiom.value in unconditional:
            assert decide("strong", before, after).equivalent, (
                step.axiom, print_term(before))
    assert unconditional | {"BP", "G"} <= seen
    _report(7, f"1000 applications sound; axioms seen: {sorted(seen)}")


def test_criterion_8_property_suites():
    """Lemma-level property suites: 500 trials each, no failures."""
    cfg = GenConfig(seed=31337, max_complexity=8)
    for suite in ("congruence", "stuttering", "cancellativity",
                  "inclusion_chain", "lemma_cc", "concrete_strong",
                  "oplus_congruence"):
        report = run_property_suite(suite, 500, cfg)
        assert report["failures"] == [], (suite, report["failures"][:3])
    _report(8, "7 suites x 500 trials, 0 failures")


def test_criterion_9_oracle_agreement():
    """The branching decider and the brute-force oracle agree on 500
    random pairs with at most 5 joint derivative states."""
    checked = 0
    seed = 0
    equivalents = 0
    while checked < 500:
        seed += 1
        mu = den(gen_p(GenConfig(seed=seed * 2, max_complexity=3,
                                 actions=("a", "b"))))
        nu = den(gen_p(GenConfig(seed=seed * 2 + 1, max_complexity=3,
                                 actions=("a", "b"))))
        states = set().union(
            *(derivatives(s) for s in set(mu.support) | set(nu.support)))
        if len(states) > 5:
            continue
        checked += 1
        oracle = brute_force_branching(mu, nu).equivalent
        decider = decide("branching", mu, nu).equivalent
        assert oracle == decider, (mu, nu)
        equivalents += oracle
    _report(9, f"500 pairs, 0 disagreements ({equivalents} equivalent)")


def test_criterion_10_desk_scale_completeness():
    """200 checker-equivalent random pairs with at most 40 joint
    derivative states all get replayable proofs within the budget."""
    rng = random.Random(77)
    proved = 0
    attempts = 0
    while proved < 200:
        attempts += 1
        assert attempts < 2000
        sort = "p" if rng.random() < 0.5 else "nd"
        p, q = random_equivalent_pair(
            rng, GenConfig(seed=rng.randrange(2 ** 32), max_complexity=10),
            sort=sort, rewrites=4)
        if sort == "p":
            roots = set(den(p).support) | set(den(q).support)
        else:
            roots = {p, q}
        states = set().union(*(derivatives(s) for s in roots)) if roots else set()
        if len(states) > 40:
            continue
        if not check("rooted-branching", p, q).equivalent:
            raise AssertionError(f"sound rewriting not accepted: "
                                 f"{print_term(p)} vs {print_term(q)}")
        trace = prove_equal(p, q)
        assert isinstance(trace, ProofTrace), (print_term(p), print_term(q))
        trace.replay()
        proved += 1
    _report(10, "200 equivalent pairs proved and replayed, 0 failures")


def test_criterion_11_concretizer():
    """200 random probabilistic terms concretize to concrete processes
    that stay rooted-branching equivalent under any prefix."""
    for seed in range(200):
        p = gen_p(GenConfig(seed=seed, max_complexity=8))
        pbar, trace = concretize(p)
        assert is_concrete(pbar), print_term(p)
        trace.replay()
        for alpha in (TAU, Action("a")):
            assert check("rooted-branching", Prefix(alpha, p),
                         Prefix(alpha, pbar)).equivalent, print_term(p)
    _report(11, "200 concretizations concrete, prefixed pairs equivalent")
