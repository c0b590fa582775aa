"""Cross-route checks: the same semantic questions answered by two
independent representations must agree."""

import itertools
import json
import random
from collections import Counter

from probranch import equivalence
from probranch import lp as lp_module
from probranch.axioms import apply_axiom, normalize_nd
from probranch.dist import den, derivatives, dirac, distribution
from probranch.equivalence import (
    INERT,
    NEITHER,
    PARTIALLY_INERT,
    _ROOTED_CHECK,
    _BranchingCheck,
    _StrongCheck,
    _pool,
    _start_partition,
    branching_analysis,
    check,
    decide,
    form,
    inertness,
    is_concrete,
    is_rigid,
    partition_from_classes,
    shape,
    sqsubseteq,
    strong_partition,
)
from probranch.harness import (
    _UNCONDITIONAL,
    GenConfig,
    _conditional_instance,
    _instances_at,
    _positions,
    gen_nd,
    gen_p,
    random_equivalent_pair,
    random_sound_application,
)
from probranch.lp import LP
from probranch.rat import ONE, ZERO, rat
from probranch.semantics import (
    add_flow_result,
    nd_transitions,
    state_targets,
    tau_transition_list,
)
from probranch.terms import (
    TAU,
    ZERO_TERM,
    Action,
    Dirac,
    PChoice,
    PTerm,
    Prefix,
    Sum,
    nd_key,
)
from oracle import (
    rooted_classes_full_closure,
    rooted_verdict_full_closure,
    sqsubseteq_full_closure,
    weak_reachable,
)


def _hull_contains(gens, point):
    lp = LP()
    for i, _ in enumerate(gens):
        lp.var(("l", i))
    lp.add_eq({("l", i): ONE for i in range(len(gens))}, ONE)
    states = set(point.support)
    for g in gens:
        states.update(g.support)
    for st in states:
        lp.add_eq({("l", i): g.mass(st) for i, g in enumerate(gens)
                   if g.mass(st) != ZERO}, point.mass(st))
    return lp.feasible() is not None


def _weak_closure_vertices(mu):
    """Generators of the weak-derivative set { nu : mu => nu }, by vertex
    enumeration: saturate the moves in which every support state either
    stays or sends all its mass along one silent transition.  Each such
    move lowers the weight of some mass and its targets lie in the finite
    derivative set, so the saturation terminates."""
    gens = [mu]
    seen = {mu}
    frontier = [mu]
    while frontier:
        g = frontier.pop()
        options = [[dirac(s)] + list(state_targets(s, TAU)) for s in g.support]
        for choice in itertools.product(*options):
            acc = {}
            for (_, m), target in zip(g.entries, choice):
                for t, q in target.entries:
                    acc[t] = acc.get(t, ZERO) + m * q
            v = distribution(acc)
            if v not in seen:
                seen.add(v)
                gens.append(v)
                frontier.append(v)
        assert len(gens) <= 400, "weak closure saturation blow-up"
    return gens


def test_weak_closure_generators_match_flow():
    """Generator-hull membership and flow feasibility are two independent
    computations of the same weak-derivative set."""
    rng = random.Random(13)
    for seed in range(40):
        mu = den(gen_p(GenConfig(seed=seed, max_complexity=5)))
        gens = _weak_closure_vertices(mu)
        # every generator must be flow-reachable
        for g in gens:
            assert weak_reachable(mu, g)
        # random candidate points: mixtures of derivative states
        states = sorted(set().union(*(derivatives(s) for s in mu.support)),
                        key=nd_key)
        for _ in range(6):
            masses = [rat(rng.randint(0, 3), 1) for _ in states]
            total = sum(masses, ZERO)
            if total == ZERO:
                continue
            cand = distribution({s: m / total for s, m in zip(states, masses)
                                 if m != ZERO})
            assert _hull_contains(gens, cand) == weak_reachable(mu, cand)


def stable_form(tables, mu):
    """Fire inert transitions to exhaustion, each time the first inert
    transition of the smallest unstable state that holds mass: the
    oracle for the linear stable signature _Tables.stab_sig."""
    work = dict(mu.entries)
    while True:
        movers = [s for s in work if s in tables.unstable]
        if not movers:
            return distribution(work)
        state = min(movers, key=nd_key)
        target = nd_transitions(state)[tables.inert[state][0]].target
        mass = work.pop(state)
        for t, q in target.entries:
            work[t] = work.get(t, ZERO) + mass * q


def test_branching_fixpoint_consistency():
    """At the decider's fixpoint: every inert transition's target
    stabilizes onto its source's stable signature, all inert transitions
    of one state agree on that signature, and stable forms are
    fixpoints.  The linear stable signature equals the class masses of
    the oracle's stable form on the generated distributions, the point
    masses and every transition target."""
    mixtures = 0
    for seed in range(60):
        p = gen_p(GenConfig(seed=seed, max_complexity=7))
        tables = branching_analysis(derivatives(p))
        mu = den(p)
        mixtures += len(mu.support) > 1
        dists = {mu}
        for state in sorted(tables.partition.universe, key=nd_key):
            sigs = set()
            for idx in tables.inert[state]:
                target = nd_transitions(state)[idx].target
                sigs.add(tables.stab_sig(target))
            if sigs:
                assert len(sigs) == 1, state
                assert sigs.pop() == tables.stabsig_state[state], state
            stable = stable_form(tables, dirac(state))
            assert stable_form(tables, stable) == stable
            assert (tables.partition.sig(stable)
                    == tables.stabsig_state[state])
            dists.update(tr.target for tr in nd_transitions(state))
        for nu in dists:
            assert tables.stab_sig(nu) == tables.partition.sig(
                stable_form(tables, nu)), (seed, nu)
    assert mixtures > 0


def test_stable_forms_are_weak_derivatives():
    """The canonical stable form is itself reachable by silent moves."""
    for seed in range(40):
        mu = den(gen_p(GenConfig(seed=seed, max_complexity=6)))
        tables = branching_analysis(frozenset(mu.support))
        assert weak_reachable(mu, stable_form(tables, mu))


def _flow_direct_step(partition, inert: dict, mu, action, end_sig,
                      partial: bool) -> bool:
    """The flow-LP reading of a direct step, the oracle for
    equivalence._direct_step: a full combined `action`-step of mu, or
    with `partial` one that may leave any fraction where it is, whose
    result stabilizes along the inert transitions (`inert` maps a state
    to their indices) onto end_sig.  Strong passes no inert
    transitions."""
    states = sorted(set().union(*(derivatives(s) for s in mu.support)),
                    key=nd_key)
    lp = LP()
    moves = {s: [(i, tr.target) for i, tr in enumerate(nd_transitions(s))
                 if tr.action == action] for s in states}
    for s in states:
        coeffs = {lp.var(("y", s, i)): ONE for i, _ in moves[s]}
        (lp.add_le if partial else lp.add_eq)(coeffs, mu.mass(s))
    for s in states:
        coeffs = {lp.var(("s", "m", s)): ONE}
        if partial:
            for i, _ in moves[s]:
                coeffs[("y", s, i)] = ONE
        for src in states:
            for i, target in moves[src]:
                if target.mass(s) != ZERO:
                    coeffs[("y", src, i)] = (coeffs.get(("y", src, i), ZERO)
                                             - target.mass(s))
        lp.add_eq(coeffs, mu.mass(s) if partial else ZERO)
    inert_moves = [(s, i, nd_transitions(s)[i].target)
                   for s in states for i in inert.get(s, ())]
    end = add_flow_result(lp, "e", {s: ("s", "m", s) for s in states},
                          states, inert_moves)
    for s in states:
        if inert.get(s):
            lp.add_eq({end[s]: ONE}, ZERO)
    for k, cls in enumerate(partition.classes):
        lp.add_eq({end[s]: ONE for s in states if s in cls}, end_sig[k])
    return lp.feasible() is not None


def _rooted_pair_ok(e, f) -> bool:
    """Rooted branching bisimilarity of two states by the pairwise
    definition: every transition of either is answered by a full
    combined step of the other whose target stabilizes onto the same
    branching classes."""
    tables = branching_analysis({e, f})
    for challenger, responder in ((e, f), (f, e)):
        for tr in nd_transitions(challenger):
            if not _flow_direct_step(
                    tables.partition, tables.inert, dirac(responder),
                    tr.action, tables.stab_sig(tr.target), partial=False):
                return False
    return True


def test_rooted_check_matches_pairwise_oracle():
    """The rooted decider's profile step agrees with the pairwise
    first-step check on sound rewrites, fresh-action extensions, silent
    prefixes and added silent summands, and its witnesses separate."""
    rng = random.Random(29)
    fresh = Prefix(Action("z"), Dirac(ZERO_TERM))
    outcomes = set()
    for _ in range(30):
        e, f = random_equivalent_pair(
            rng, GenConfig(seed=rng.randrange(2 ** 32), max_complexity=6),
            sort="nd")
        silent = Prefix(TAU, Dirac(e))
        for left, right in ((e, f), (e, Sum(e, fresh)), (e, silent),
                            (e, Sum(e, silent))):
            verdict = decide("rooted-branching", left, right)
            assert verdict.equivalent == _rooted_pair_ok(left, right), (
                left, right)
            if verdict.equivalent:
                outcomes.add("equivalent")
                continue
            witness = verdict.witness
            assert (witness["class_signature_left"]
                    != witness["class_signature_right"])
            partition = branching_analysis({left, right}).partition
            same = partition.index_of(left) == partition.index_of(right)
            outcomes.add("within" if same else "across")
    assert outcomes == {"equivalent", "within", "across"}


def _silent_prefix(term):
    if isinstance(term, PTerm):
        return Dirac(Prefix(TAU, term))
    return Prefix(TAU, Dirac(term))


def _rooted_pairs(count):
    """Seeded (family, left, right) pairs from four families in turn: two
    gen_nd states, two gen_p terms, the two sides of a
    random_equivalent_pair, of either sort, and of a
    random_sound_application, whose family names its axiom.  Half the
    pairs of the last two families put a silent step in front of their
    right side, which branching bisimilarity absorbs and the rooted first
    step may not."""
    rng = random.Random(31)
    for k in range(count):
        size = rng.randint(3, 8)

        def config():
            return GenConfig(seed=rng.randrange(2 ** 32), max_complexity=size)

        family = ("gen_nd", "gen_p", "equivalent", "application")[k % 4]
        if family == "gen_nd":
            left, right = gen_nd(config()), gen_nd(config())
        elif family == "gen_p":
            left, right = gen_p(config()), gen_p(config())
        elif family == "equivalent":
            left, right = random_equivalent_pair(
                rng, config(), sort=("p", "nd")[k // 4 % 2])
        else:
            left, step, right = random_sound_application(rng, config())
            family = step.axiom.name
        if k // 4 % 4 >= 2 and k % 4 >= 2:
            right = _silent_prefix(right)
        yield family, left, right


def test_rooted_route_matches_the_full_closure_route(monkeypatch):
    """Over 320 seeded pairs, the rooted classes that `decide` builds
    from the continuations' branching classes equal, as sets, those of
    the full-closure route (oracle.rooted_classes_full_closure), and
    the verdict JSON, witness included, is the same."""
    made = []
    make = equivalence.partition_from_classes

    def recording(classes):
        made.append(make(classes))
        return made[-1]

    monkeypatch.setattr(equivalence, "partition_from_classes", recording)
    outcomes, families = Counter(), Counter()
    for family, left, right in _rooted_pairs(320):
        families[family] += 1
        verdict = decide("rooted-branching", left, right)
        roots = (equivalence._as_dist(left).support
                 + equivalence._as_dist(right).support)
        assert made[-1] == rooted_classes_full_closure(roots)[0], (
            left, right)
        assert json.dumps(verdict.to_json()) == json.dumps(
            rooted_verdict_full_closure(left, right).to_json()), (left, right)
        branching = decide("branching", left, right).equivalent
        outcomes[verdict.equivalent, branching] += 1
    assert families["BP"] + families["G"] > 0, families
    assert all(outcomes[key] >= 20 for key in (
        (True, True), (False, True), (False, False))), outcomes


def test_sqsubseteq_matches_the_full_closure_route():
    """On 300 seeded (state, p) pairs, E against a gen_p term, against
    the side-condition body D(E + G) of BP, and E + tau.Q against it,
    sqsubseteq over the continuations' classes agrees with the
    full-closure route (oracle.sqsubseteq_full_closure)."""
    rng = random.Random(37)
    outcomes = Counter()
    for _ in range(100):
        e, g = (gen_nd(GenConfig(seed=rng.randrange(2 ** 32),
                                 max_complexity=rng.randint(2, 6)))
                for _ in range(2))
        q = gen_p(GenConfig(seed=rng.randrange(2 ** 32), max_complexity=4))
        body = Dirac(Sum(e, g))
        for state, p in ((e, q), (e, body), (Sum(e, Prefix(TAU, q)), body)):
            answer = sqsubseteq(state, p)
            assert answer == sqsubseteq_full_closure(state, p), (state, p)
            outcomes[answer] += 1
    assert min(outcomes[True], outcomes[False]) >= 50, outcomes


def test_rooted_decide_analyses_only_the_continuations(monkeypatch):
    """Every universe that rooted `decide` hands to _branching_analysis
    lies in the closure of the sides' continuations, the support states
    of their transition targets, so a root in it is a derivative of a
    continuation."""
    universes = []
    analyse = equivalence._branching_analysis

    def recording(states):
        universes.append(states)
        return analyse(states)

    monkeypatch.setattr(equivalence, "_branching_analysis", recording)
    for _, left, right in _rooted_pairs(120):
        universes.clear()
        decide("rooted-branching", left, right)
        roots = set(equivalence._as_dist(left).support
                    + equivalence._as_dist(right).support)
        reached = frozenset().union(*(
            derivatives(t) for r in roots for tr in nd_transitions(r)
            for t in tr.target.support))
        assert universes, (left, right)
        for universe in universes:
            assert universe <= reached, (left, right)


def test_rooted_route_pivots_less_on_conditional_applications(monkeypatch):
    """On 30 seeded BP and G applications, each decided with cold
    analysis and LP caches, the route over the continuations pivots
    strictly less than the full-closure route."""
    rng = random.Random(43)
    pairs = []
    for _ in range(30):
        before, step = _conditional_instance(
            rng, GenConfig(seed=rng.randrange(2 ** 32), max_complexity=10))
        pairs.append((before, apply_axiom(before, step)))
    pivots = [0]
    pivot = lp_module._pivot

    def counted(*args):
        pivots[0] += 1
        return pivot(*args)

    monkeypatch.setattr(lp_module, "_pivot", counted)

    def pivot_count(route):
        pivots[0] = 0
        for before, after in pairs:
            equivalence._branching_analysis.cache_clear()
            lp_module._simplex.cache_clear()
            assert route(before, after).equivalent, (before, after)
        return pivots[0]

    assert pivot_count(lambda left, right: decide(
        "rooted-branching", left, right)) < pivot_count(
            rooted_verdict_full_closure)


def _same_action_root_sets(count):
    """Seeded root pairs with same-action summands whose targets differ,
    which gen_nd rarely makes: F = E + alpha.P + alpha.Q beside
    F + alpha.(P +[r] Q), E beside E + tau.D(E), E beside
    E + tau.(P +[r] Q), and E + a.(P +[r] Q) beside
    E + a.D(tau.(P +[r] Q)), whose a-target dissolves silently into a
    mixture; alpha is a or tau.  Each comes with the probabilistic terms
    that a summand of it leads to."""
    rng = random.Random(53)
    a = Action("a")
    for k in range(count):
        cfg = GenConfig(seed=rng.randrange(2 ** 32), max_complexity=5)
        e = gen_nd(cfg)
        p = gen_p(GenConfig(seed=cfg.seed + 1, max_complexity=4))
        q = gen_p(GenConfig(seed=cfg.seed + 2, max_complexity=4))
        mix = PChoice(p, rat(rng.randint(1, 4), 5), q)
        alpha = (a, TAU)[k // 4 % 2]
        shape = k % 4
        if shape == 0:
            f = Sum(Sum(e, Prefix(alpha, p)), Prefix(alpha, q))
            yield (f, Sum(f, Prefix(alpha, mix))), (p, q, mix)
        elif shape == 1:
            yield (e, Sum(e, Prefix(TAU, Dirac(e)))), (Dirac(e),)
        elif shape == 2:
            yield (e, Sum(e, Prefix(TAU, mix))), (p, q, mix)
        else:
            silent = Dirac(Prefix(TAU, mix))
            yield (Sum(e, Prefix(a, mix)), Sum(e, Prefix(a, silent))), (
                mix, silent)


def _weights_hit(sig_of, state, action, weights, sig) -> bool:
    targets = state_targets(state, action)
    out = [ZERO] * len(sig)
    for w, target in zip(weights, targets):
        out = [o + w * x for o, x in zip(out, sig_of(target))]
    return sum(weights, ZERO) == ONE and tuple(out) == sig


def test_direct_step_matches_flow_lp():
    """The hull LP of a direct step agrees with the flow LP's reading on
    the strong respond, the rooted respond and sqsubseteq, and the
    weights it returns are a combined step with the asked signature."""
    outcomes = set()
    for roots, bodies in _same_action_root_sets(48):
        partition = strong_partition(roots)
        tables = branching_analysis(roots)
        challenges = {(tr.action, tr.target)
                      for r in roots for tr in nd_transitions(r)}
        for responder in roots:
            for action, target in sorted(
                    challenges, key=lambda c: (c[0].name, repr(c[1]))):
                for name, check_, ctx, inert in (
                        ("strong", _StrongCheck(), partition, {}),
                        ("rooted", _ROOTED_CHECK, tables, tables.inert)):
                    sig = check_.challenge_sig(ctx, target)
                    weights = check_.respond(ctx, responder, action, sig, None)
                    assert (weights is not None) == _flow_direct_step(
                        ctx if name == "strong" else tables.partition, inert,
                        dirac(responder), action, sig, partial=False), (
                            name, responder, action, target)
                    if weights is not None:
                        assert _weights_hit(
                            lambda mu: check_.challenge_sig(ctx, mu),
                            responder, action, weights, sig)
                    outcomes.add((name, weights is not None))
        for state in roots:
            for body in bodies:
                mu = den(body)
                mu_tables = branching_analysis({state} | set(mu.support))
                stab_sig = mu_tables.stab_sig
                oracle = all(
                    _flow_direct_step(
                        mu_tables.partition, mu_tables.inert, mu,
                        tr.action, stab_sig(tr.target), tr.action.is_tau)
                    for tr in nd_transitions(state))
                assert sqsubseteq(state, body) == oracle, (state, body)
                outcomes.add(("sqsubseteq", oracle))
    assert outcomes == {(name, answer) for answer in (True, False)
                        for name in ("strong", "rooted", "sqsubseteq")}


def test_deciders_transitive_on_sampled_triples():
    from probranch.equivalence import check
    from probranch.harness import gen_nd

    found = 0
    seed = 0
    while found < 25 and seed < 6000:
        seed += 1
        a = gen_nd(GenConfig(seed=seed * 3, max_complexity=5,
                             actions=("a", "b")))
        b = gen_nd(GenConfig(seed=seed * 3 + 1, max_complexity=5,
                             actions=("a", "b")))
        c = gen_nd(GenConfig(seed=seed * 3 + 2, max_complexity=5,
                             actions=("a", "b")))
        for rel in ("strong", "branching", "rooted-branching"):
            ab = check(rel, a, b).equivalent
            bc = check(rel, b, c).equivalent
            if ab and bc:
                assert check(rel, a, c).equivalent, (rel, a, b, c)
                found += 1
    assert found >= 25


def test_double_inert_state():
    """Two inert silent moves with different targets must agree on the
    dissolved signature; the state collapses onto the visible core."""
    from probranch.equivalence import check
    from probranch.parse import parse_nd

    e = parse_nd("tau.D(a.D(0)) + tau.D(tau.D(a.D(0)))")
    assert check("branching", e, parse_nd("a.D(0)")).equivalent
    tables = branching_analysis(derivatives(dirac(e).support[0]))
    assert len(tables.inert[e]) == 2


def test_combined_only_equivalence_proved_with_c():
    """The extra summand is reachable only as a combined transition, so
    the proof must introduce it by axiom C."""
    from probranch.axioms import ProofTrace, prove_equal
    from probranch.parse import parse_nd

    e = parse_nd("a.D(b.D(0)) + a.D(c.D(0)) + "
                 "a.(D(b.D(0)) +[1/3] D(c.D(0)))")
    f = parse_nd("a.D(b.D(0)) + a.D(c.D(0))")
    trace = prove_equal(e, f)
    assert isinstance(trace, ProofTrace)
    trace.replay()
    assert "C" in trace.rule_multiset()


def test_two_partially_inert_summands():
    """Concretization iterates the absorption when two summands are
    partially inert."""
    from probranch.axioms import concretize
    from probranch.equivalence import check, is_concrete
    from probranch.parse import parse_p
    from probranch.terms import Prefix, TAU

    core = "b.D(c.D(0)) + tau.D(d.D(0))"
    p = parse_p(
        f"D(tau.(D({core}) +[1/2] D(d.D(0))) + "
        f"tau.(D({core}) +[1/3] D(d.D(0))) + {core})")
    pbar, trace = concretize(p)
    assert is_concrete(pbar)
    trace.replay()
    assert check("rooted-branching", Prefix(TAU, p),
                 Prefix(TAU, pbar)).equivalent


def test_paper_second_bp_display():
    """The mixture-matching BP instance from the worked examples."""
    from probranch.axioms import AxiomId, RewriteStep, apply_axiom
    from probranch.parse import parse_nd, parse_p
    from probranch.rat import rat
    from probranch.terms import Action

    e = parse_nd("a.(D(c.D(0)) +[1/3] D(d.D(0)))")
    p = parse_p("D(b.D(0) + a.D(c.D(0))) +[1/3] D(e.D(0) + a.D(d.D(0)))")
    q = parse_p("D(0)")
    lhs_body = parse_p(f"(D({'a.(D(c.D(0)) +[1/3] D(d.D(0)))'} + "
                       f"tau.(D(b.D(0) + a.D(c.D(0))) +[1/3] "
                       f"D(e.D(0) + a.D(d.D(0))))) +[1/2] D(0))")
    from probranch.terms import Prefix as Pf

    lhs = Pf(Action("f"), lhs_body)
    step = RewriteStep(AxiomId.BP, (), "LR", tuple(sorted(
        {"alpha": Action("f"), "E": e, "P": p, "Q": q,
         "r": rat(1, 2)}.items())))
    out = apply_axiom(lhs, step)
    assert out == Pf(Action("f"), parse_p(
        "(D(b.D(0) + a.D(c.D(0))) +[1/3] D(e.D(0) + a.D(d.D(0)))) "
        "+[1/2] D(0)"))


def test_random_roundtrip_parse_print():
    from probranch.parse import parse_nd, parse_p, print_nd, print_p
    from probranch.harness import gen_nd, gen_p

    for seed in range(120):
        t = gen_nd(GenConfig(seed=seed, max_complexity=9))
        assert parse_nd(print_nd(t)) == t
        p = gen_p(GenConfig(seed=seed + 9999, max_complexity=9))
        assert parse_p(print_p(p)) == p


def _refine_from_one_class(check, roots):
    """The refinement loop started from one class that holds every state
    and profiling every member of every class: the oracle for the
    decider's start partition and its one profile per shape."""
    states = frozenset().union(*(derivatives(r) for r in roots))
    partition = partition_from_classes([states])
    while True:
        ctx = check.context(partition)
        groups = []
        for cls in partition.classes:
            members = sorted(cls, key=nd_key)
            pool, mids = _pool(check, ctx, members)
            profiles = {}
            for m in members:
                key = (check.mid_of(ctx, m), frozenset(
                    (action, end, mid) for action, end in pool for mid in mids
                    if check.respond(ctx, m, action, end, mid)))
                profiles.setdefault(key, []).append(m)
            groups.extend(profiles.values())
        if len(groups) == len(partition.classes):
            return partition, ctx
        partition = partition_from_classes(groups)


def _variant(term, axiom):
    """The term rewritten by one axiom at every node where it applies:
    A1 swaps the operands of every sum, A2 re-associates every
    left-nested sum to the right, and P1 swaps the operands of every
    probabilistic choice.  Every state of the copy has the shape of the
    state it copies."""
    if isinstance(term, Sum):
        left, right = term.left, term.right
        if axiom == "A1":
            return Sum(_variant(right, axiom), _variant(left, axiom))
        if axiom == "A2" and isinstance(left, Sum):
            return _variant(Sum(left.left, Sum(left.right, right)), axiom)
        return Sum(_variant(left, axiom), _variant(right, axiom))
    if isinstance(term, PChoice):
        left, right = _variant(term.left, axiom), _variant(term.right, axiom)
        if axiom == "P1":
            return PChoice(right, ONE - term.weight, left)
        return PChoice(left, term.weight, right)
    if isinstance(term, Prefix):
        return Prefix(term.action, _variant(term.body, axiom))
    if isinstance(term, Dirac):
        return Dirac(_variant(term.body, axiom))
    return term


def _tau_heavy_root_sets(count):
    """Seeded root sets of four shapes: the support of a probabilistic
    term, E beside E + tau.D(E), a sound rewrite pair, and two mixed
    tau-sums of two states; complexity 6-12, tau bias 1/4-2/3."""
    rng = random.Random(41)
    biases = (rat(1, 4), rat(1, 3), rat(1, 2), rat(2, 3))
    for k in range(count):
        cfg = GenConfig(seed=rng.randrange(2 ** 32),
                        max_complexity=6 + k % 7, tau_bias=biases[k % 4])
        shape = k % 4
        if shape == 0:
            yield frozenset(den(gen_p(cfg)).support)
        elif shape == 1:
            e = gen_nd(cfg)
            yield frozenset({e, Sum(e, Prefix(TAU, Dirac(e)))})
        elif shape == 2:
            yield frozenset(random_equivalent_pair(rng, cfg, sort="nd"))
        else:
            e = gen_nd(cfg)
            f = gen_nd(GenConfig(seed=cfg.seed + 1, max_complexity=6,
                                 tau_bias=cfg.tau_bias))
            yield frozenset({Sum(e, Prefix(TAU, Dirac(f))),
                             Sum(Prefix(TAU, Dirac(e)), f)})


def test_start_partition_gives_the_one_class_fixpoint():
    """Refinement from the reachable-visible-action classes, profiling
    one member per shape, ends at the same strong partition, and the
    same branching partition and tables, as refinement from one class
    that profiles every member.  The roots come with A1, A2 and P1
    copies, so that distinct states share shapes.  Every final class
    lies inside one start class, and every shape inside one strong
    class."""
    shared = 0
    for k, roots in enumerate(_tau_heavy_root_sets(96)):
        axiom = ("A1", "A2", "P1")[k % 3]
        roots = roots | {_variant(r, axiom) for r in roots}
        states = frozenset().union(*(derivatives(r) for r in roots))
        start = _start_partition(states)
        shared += len(states) - len({shape(s) for s in states})
        strong, _ = _refine_from_one_class(_StrongCheck(), roots)
        assert equivalence.strong_partition(roots) == strong, roots
        partition, tables = _refine_from_one_class(_BranchingCheck(), roots)
        final = branching_analysis(roots)
        assert final.partition == partition, roots
        assert final.inert == tables.inert, roots
        assert final.stabsig_state == tables.stabsig_state, roots
        for cls in strong.classes + partition.classes:
            assert len({start.index_of(s) for s in cls}) == 1, (roots, cls)
        by_shape = {}
        for s in states:
            by_shape.setdefault(shape(s), set()).add(strong.index_of(s))
        assert all(len(ks) == 1 for ks in by_shape.values()), roots
    assert shared > 150, shared


def test_start_partition_solves_fewer_lps(monkeypatch):
    """On seeded E against E + z.D(0), strong and rooted-branching checks
    solve fewer LPs than with refinement from one class."""
    fresh = Prefix(Action("z"), Dirac(ZERO_TERM))
    pairs = [(e, Sum(e, fresh)) for e in (
        gen_nd(GenConfig(seed=seed, max_complexity=8)) for seed in range(12))]
    solves = [0]
    minimize = LP.minimize

    def counted(self, objective):
        solves[0] += 1
        return minimize(self, objective)

    def lp_count():
        equivalence._branching_analysis.cache_clear()
        equivalence._strong_partition.cache_clear()
        solves[0] = 0
        for rel in ("strong", "rooted-branching"):
            for e, f in pairs:
                assert not check(rel, e, f).equivalent
        return solves[0]

    monkeypatch.setattr(LP, "minimize", counted)
    seeded = lp_count()
    monkeypatch.setattr(equivalence, "_refine", _refine_from_one_class)
    assert seeded < lp_count()


def _dense_add_flow_result(lp, tag, start, states, transitions):
    """The flow stage built densely, one mass lookup per state and
    transition: the oracle for add_flow_result's sparse rows."""
    result = {}
    for st in states:
        result[st] = lp.var((tag, "m", st))
    for t in transitions:
        lp.var((tag, "f", t[0], t[1]))
    for st in states:
        coeffs = {result[st]: ONE}
        rhs = ZERO
        base = start.get(st, ZERO)
        if isinstance(base, tuple):
            coeffs[base] = -ONE
        else:
            rhs = base
        for src, idx, target in transitions:
            delta = target.mass(st) - (ONE if src == st else ZERO)
            if delta != ZERO:
                coeffs[(tag, "f", src, idx)] = -delta
        lp.add_eq(coeffs, rhs)
    return result


def _dense_step_stage(lp, nubar, states, action):
    """The action step built densely: the oracle for _Tables._step_stage."""
    partial = action.is_tau
    moves = {s: [(i, tr.target) for i, tr in enumerate(nd_transitions(s))
                 if tr.action == action] for s in states}
    for s in states:
        for i, _ in moves[s]:
            lp.var(("y", s, i))
    for s in states:
        coeffs = {("y", s, i): ONE for i, _ in moves[s]}
        coeffs[nubar[s]] = coeffs.get(nubar[s], ZERO) - ONE
        (lp.add_le if partial else lp.add_eq)(coeffs, ZERO)
    for s in states:
        coeffs = {lp.var(("s", "m", s)): ONE}
        if partial:
            coeffs[nubar[s]] = coeffs.get(nubar[s], ZERO) - ONE
            for i, _ in moves[s]:
                coeffs[("y", s, i)] = coeffs.get(("y", s, i), ZERO) + ONE
        for src in states:
            for i, target in moves[src]:
                m = target.mass(s)
                if m != ZERO:
                    coeffs[("y", src, i)] = coeffs.get(("y", src, i),
                                                       ZERO) - m
        lp.add_eq(coeffs, ZERO)


def _chained_lp(flow, step, mu, states, action):
    """Weak move, action step and a weak move after it, as the transfer
    LP chains them, but over every silent transition."""
    lp = LP()
    silent = tau_transition_list(states)
    nubar = flow(lp, "w", dict(mu.entries), states, silent)
    step(lp, nubar, states, action)
    flow(lp, "e", {s: ("s", "m", s) for s in states}, states, silent)
    return lp


def _strict(lp):
    return lp._names, [(list(c.items()), rel, rhs) for c, rel, rhs in lp._rows]


def test_sparse_flow_and_step_rows_match_dense():
    """The sparse builders register the same variables and emit the same
    rows, coefficient for coefficient and in the same order, as the
    dense ones, on seeded states with same-action summands (E beside
    E + tau.D(E), E + a.(P +[r] Q), ...) and tau-heavy sets; also when
    the state set leaves out targets of its transitions."""
    def step(lp, nubar, states, action):
        equivalence._Tables._step_stage(None, lp, nubar, states, action)

    root_sets = [frozenset(roots) for roots, _ in _same_action_root_sets(24)]
    root_sets += list(_tau_heavy_root_sets(24))
    for roots in root_sets:
        states = sorted(frozenset().union(*(derivatives(r) for r in roots)),
                        key=nd_key)
        mu = distribution({r: rat(1, len(roots)) for r in roots})
        for subset in (states, states[len(states) // 2:]):
            silent = tau_transition_list(subset)
            start = {s: m for s, m in mu.entries if s in subset}
            sparse, dense = LP(), LP()
            add_flow_result(sparse, "w", start, subset, silent)
            _dense_add_flow_result(dense, "w", start, subset, silent)
            assert _strict(sparse) == _strict(dense), roots
        for action in (TAU, Action("a"), Action("b")):
            assert _strict(_chained_lp(add_flow_result, step, mu, states,
                                       action)) == _strict(
                _chained_lp(_dense_add_flow_result, _dense_step_stage, mu,
                            states, action)), (roots, action)


def _flow_equivalent_fraction(tables, mu, ref_sig):
    """The flow-LP reading of the partial-inertness optimum, the oracle
    for _Tables.equivalent_fraction: the largest part of mu that, with
    its unstable mass sent along any inert transitions, ends stable with
    class masses ref_sig scaled by its size."""
    states = tuple(sorted(set().union(*(derivatives(s) for s in mu.support)),
                          key=nd_key))
    lp = LP()
    part = {}
    for s in states:
        part[s] = lp.var(("p", s))
        lp.add_le({part[s]: ONE}, mu.mass(s))
    omega = add_flow_result(lp, "q", {s: ("p", s) for s in states},
                            states, tables.inert_transitions(states))
    for s in states:
        if s in tables.unstable:
            lp.add_eq({omega[s]: ONE}, ZERO)
    for k, cls in enumerate(tables.partition.classes):
        coeffs = {omega[s]: ONE for s in states if s in cls}
        for s in states:
            if ref_sig[k] != ZERO:
                coeffs[part[s]] = coeffs.get(part[s], ZERO) - ref_sig[k]
        lp.add_eq(coeffs, ZERO)
    return lp.maximize({part[s]: ONE for s in states})["__value__"]


def _oracle_inertness(tables, state, tr):
    ref = tables.stabsig_state[state]
    if tables.stab_sig(tr.target) == ref:
        return INERT, ONE
    r = _flow_equivalent_fraction(tables, tr.target, ref)
    return (PARTIALLY_INERT, r) if r > ZERO else (NEITHER, None)


def _partially_inert_root_sets(count):
    """a.D(E + tau.(D(E) +[r] D(Q))) with E = F + tau.D(Q), for seeded F
    and Q: the outer silent move is partially inert with fraction r
    unless E and Q are equivalent, which gen_nd alone seldom builds."""
    rng = random.Random(43)
    for k in range(count):
        cfg = GenConfig(seed=rng.randrange(2 ** 32),
                        max_complexity=5 + k % 4, tau_bias=rat(1, 3))
        q = gen_nd(GenConfig(seed=cfg.seed + 1, max_complexity=4,
                             tau_bias=cfg.tau_bias))
        e = Sum(gen_nd(cfg), Prefix(TAU, Dirac(q)))
        r = rat(rng.randint(1, 5), 6)
        state = Sum(e, Prefix(TAU, PChoice(Dirac(e), r, Dirac(q))))
        yield frozenset({Prefix(Action("a"), Dirac(state))})


def test_inertness_rigid_concrete_match_flow_oracle():
    """inertness (kind and fraction), is_rigid and is_concrete agree with
    the flow LP over inert transitions and the stable-signature loops,
    read on fresh tables of a joint branching partition, on every
    derivative of seeded states, tau-heavy root sets and states built to
    be partially inert."""
    root_sets = [frozenset({gen_nd(GenConfig(seed=seed, max_complexity=8))})
                 for seed in range(60)]
    root_sets += list(_tau_heavy_root_sets(60))
    root_sets += list(_partially_inert_root_sets(32))
    kinds = {INERT: 0, PARTIALLY_INERT: 0, NEITHER: 0}
    for roots in root_sets:
        final = branching_analysis(roots)
        tables = equivalence._Tables(final.partition)
        seen = {}
        for state in tables.partition.universe:
            seen[state] = set()
            for tr in nd_transitions(state):
                if not tr.action.is_tau:
                    continue
                kind, fraction = _oracle_inertness(tables, state, tr)
                res = inertness(state, tr)
                assert (res.kind, res.fraction) == (kind, fraction), (
                    state, tr)
                kinds[kind] += 1
                seen[state].add(kind)
        for state in tables.partition.universe:
            assert is_rigid(state) == (INERT not in seen[state]), state
            assert is_concrete(Dirac(state)) == all(
                seen[s] <= {NEITHER} for s in derivatives(state)), state
    assert kinds[PARTIALLY_INERT] >= 10 and kinds[INERT] > 0, kinds


def _axiom_application(rng, axiom):
    """A random term and that term with `axiom` applied at one of its
    nodes, chosen at random among the places where it applies."""
    while True:
        cfg = GenConfig(seed=rng.randrange(2 ** 32), max_complexity=8)
        term = gen_nd(cfg) if rng.random() < 0.5 else gen_p(cfg)
        steps = [step for pos, node in _positions(term)
                 for step in _instances_at(term, pos, node, rng, cfg)
                 if step.axiom == axiom]
        if steps:
            return term, apply_axiom(term, rng.choice(steps))


def _prover_form(term):
    return normalize_nd(term)[0]


def test_normal_form_matches_the_prover_and_the_deciders():
    """check's step-free form meets exactly where the prover's
    normalizers give one form, and pairs whose forms meet are equivalent
    under all three deciders, over sound applications of every
    unconditional axiom, sound-rewrite pairs and the same pairs with a
    fresh summand z.D(0) on one side."""
    rng = random.Random(25)
    pairs = [_axiom_application(rng, axiom)
             for axiom in _UNCONDITIONAL for _ in range(15)]
    fresh = Prefix(Action("z"), Dirac(ZERO_TERM))
    for _ in range(50):
        cfg = GenConfig(seed=rng.randrange(2 ** 32), max_complexity=8)
        pairs.append(random_equivalent_pair(rng, cfg,
                                            sort=rng.choice(("p", "nd"))))
        e, f = random_equivalent_pair(rng, cfg, sort="nd")
        pairs.append((e, Sum(f, fresh)))
    seen = set()
    for left, right in pairs:
        meet = form(equivalence._as_dist(left)) == form(
            equivalence._as_dist(right))
        assert meet == (_prover_form(left) == _prover_form(right)), (
            left, right)
        if meet:
            for relation in ("strong", "branching", "rooted-branching"):
                assert decide(relation, left, right).equivalent, (
                    relation, left, right)
        seen.add(meet)
    assert len(pairs) >= 200 and seen == {True, False}
