import pytest

from probranch import equivalence
from probranch.axioms import ProofTrace, prove_equal
from probranch.dist import den, derivatives, dirac
from probranch.equivalence import decide
from probranch.harness import (
    BoundExceeded,
    GenConfig,
    UnknownSuite,
    brute_force_branching,
    gen_nd,
    gen_p,
    random_sound_application,
    run_property_suite,
    suite_names,
)
from probranch.parse import parse_nd, parse_p
from probranch.terms import NdTerm, PTerm, Zero, ZERO_TERM, complexity

import random


def nd(s):
    return parse_nd(s)


def test_gen_deterministic():
    cfg = GenConfig(seed=42, max_complexity=6)
    assert gen_nd(cfg) == gen_nd(cfg)
    assert gen_p(cfg) == gen_p(cfg)


def test_gen_respects_complexity_budget():
    for seed in range(250):
        cfg = GenConfig(seed=seed, max_complexity=7)
        assert complexity(gen_nd(cfg)) <= 7
        assert complexity(gen_p(cfg)) <= 7
        assert isinstance(gen_nd(cfg), NdTerm)
        assert isinstance(gen_p(cfg), PTerm)


def test_gen_minimal_budget():
    for seed in range(40):
        t = gen_nd(GenConfig(seed=seed, max_complexity=1))
        assert complexity(t) <= 1


def test_gen_config_validation():
    with pytest.raises(ValueError):
        GenConfig(seed=1, max_complexity=0)
    with pytest.raises(ValueError):
        GenConfig(seed=1, actions=())


def test_oracle_paper_examples():
    assert brute_force_branching(dirac(nd("tau.D(a.D(0))")),
                                 dirac(nd("a.D(0)"))).equivalent
    v = brute_force_branching(dirac(nd("a.D(0)")), dirac(ZERO_TERM))
    assert not v.equivalent and v.witness is not None


def test_oracle_bound():
    big = nd("a.D(b.D(c.D(a.D(b.D(0)))))")
    with pytest.raises(BoundExceeded):
        brute_force_branching(dirac(big), dirac(ZERO_TERM), state_bound=3)


def test_oracle_agreement_sample():
    checked = 0
    seed = 0
    while checked < 40:
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
        assert (brute_force_branching(mu, nu).equivalent
                == decide("branching", mu, nu).equivalent)


def test_random_sound_application_shapes():
    cfg = GenConfig(seed=7, max_complexity=8)
    rng = random.Random(99)
    seen = set()
    for _ in range(60):
        before, step, after = random_sound_application(rng, cfg)
        seen.add(step.axiom.value)
        assert before != after or step.axiom.value in ("A1", "P1")
    assert {"BP", "G"} & seen  # conditional axioms are exercised


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_property_suite("nope", 1, GenConfig(seed=1))


def test_suite_names_registered():
    assert {"soundness", "congruence", "oplus_congruence", "stuttering",
            "cancellativity", "lemma_cc", "inclusion_chain",
            "concrete_strong"} == set(suite_names())


@pytest.mark.parametrize("suite", suite_names())
def test_suites_smoke(suite):
    report = run_property_suite(suite, 8, GenConfig(seed=11, max_complexity=5))
    assert report["suite"] == suite
    assert report["trials"] == 8
    assert report["failures"] == []


def test_suites_and_prover_run_the_deciders(monkeypatch):
    """The soundness, congruence and inclusion suites test the deciders,
    and the prover has compared normal forms already, so none of them
    takes check's normal-form shortcut: with the form comparison made to
    raise, they all still run clean."""
    def no_forms(left, right):
        raise RuntimeError("normal-form shortcut taken")

    monkeypatch.setattr(equivalence, "_forms_meet", no_forms)
    with pytest.raises(RuntimeError):
        equivalence.check("rooted-branching", nd("a.D(0)"), nd("a.D(0)"))
    cfg = GenConfig(seed=7, max_complexity=8)
    for suite in ("soundness", "congruence", "inclusion_chain"):
        assert run_property_suite(suite, 40, cfg)["failures"] == []
    assert isinstance(prove_equal(nd("a.D(tau.D(b.D(0)))"),
                                  nd("a.D(b.D(0))")), ProofTrace)


def test_suite_reports_reproducible():
    cfg = GenConfig(seed=5, max_complexity=5)
    a = run_property_suite("inclusion_chain", 10, cfg)
    b = run_property_suite("inclusion_chain", 10, cfg)
    assert a == b
