"""Random term generation, a brute-force equivalence oracle for small
instances, and property suites for the lemma-level claims.

The oracle decides branching equivalence by exhaustive search over
candidate relations of the shape "equal class masses after firing a
chosen silent transition per state": a candidate is a partition of the
derivative states together with a stabilizer selection.  Candidate
validity is checked against the literal transfer and weak-decomposability
conditions by exact linear feasibility.  Relations not of this shape are
out of the oracle's reach; that restriction is a stated limitation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .axioms import (
    AxiomId,
    RewriteStep,
    apply_axiom,
    concretize,
)
from .dist import (
    Distribution,
    den,
    derivatives,
    distribution,
    mix,
)
from .equivalence import (
    Verdict,
    decide,
    is_concrete,
    is_rigid,
)
from .lp import LP
from .parse import print_term
from .rat import ONE, ZERO, format_rat, rat
from .semantics import add_flow_result, nd_transitions, tau_transition_list
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
    complexity,
    nd_key,
)


class BoundExceeded(ValueError):
    """The joint derivative set exceeds the oracle's state bound."""


class UnknownSuite(ValueError):
    """No property suite is registered under the requested name."""


@dataclass(frozen=True)
class GenConfig:
    seed: int
    max_complexity: int = 8
    actions: tuple = ("a", "b", "c")
    tau_bias: object = rat(1, 2)
    weight_denominator_bound: int = 6

    def __post_init__(self):
        if self.max_complexity < 1:
            raise ValueError("max_complexity must be >= 1")
        if not self.actions:
            raise ValueError("action alphabet must be nonempty")
        if self.weight_denominator_bound < 2:
            raise ValueError("weight denominator bound must be >= 2")


def _pick_action(rng: random.Random, cfg: GenConfig) -> Action:
    bias = cfg.tau_bias
    if rng.randrange(bias.denominator) < bias.numerator:
        return TAU
    return Action(rng.choice(list(cfg.actions)))


def _pick_weight(rng: random.Random, cfg: GenConfig):
    d = rng.randint(2, cfg.weight_denominator_bound)
    n = rng.randint(1, d - 1)
    return rat(n, d)


def _gen_nd(rng: random.Random, cfg: GenConfig, budget: int) -> NdTerm:
    # a prefix costs two units: the prefix itself plus the Dirac within
    if budget <= 1:
        return ZERO_TERM
    roll = rng.random()
    if budget >= 4 and roll < 0.35:
        split = rng.randint(2, budget - 2)
        return Sum(_gen_nd(rng, cfg, split), _gen_nd(rng, cfg, budget - split))
    if roll < 0.9:
        return Prefix(_pick_action(rng, cfg), _gen_p(rng, cfg, budget - 1))
    return ZERO_TERM


def _gen_p(rng: random.Random, cfg: GenConfig, budget: int) -> PTerm:
    if budget >= 2 and rng.random() < 0.4:
        split = rng.randint(1, budget - 1)
        return PChoice(_gen_p(rng, cfg, split), _pick_weight(rng, cfg),
                       _gen_p(rng, cfg, budget - split))
    return Dirac(_gen_nd(rng, cfg, budget - 1))


def gen_nd(cfg: GenConfig) -> NdTerm:
    """Deterministic seeded non-deterministic term within the complexity
    budget."""
    rng = random.Random(cfg.seed)
    return _gen_nd(rng, cfg, cfg.max_complexity)


def gen_p(cfg: GenConfig) -> PTerm:
    rng = random.Random(cfg.seed)
    return _gen_p(rng, cfg, max(cfg.max_complexity, 1))


# ---------------------------------------------------------------------------
# Brute-force oracle


def _set_partitions(items: list):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [head]] + part[i + 1:]
        yield part + [[head]]


def _stabilizers(states):
    """All per-state choices of at most one silent transition to fire."""
    options = []
    for s in states:
        taus = [i for i, tr in enumerate(nd_transitions(s))
                if tr.action.is_tau]
        options.append([None] + taus)
    selections = [dict()]
    for s, opts in zip(states, options):
        selections = [{**sel, s: o} for sel in selections for o in opts]
    return selections


class _Candidate:
    """A partition plus a stabilizer selection; induces the linear map
    L(mu) = class masses of mu after firing the selected transitions."""

    def __init__(self, states, classes, selection):
        self.states = states
        self.classes = [frozenset(c) for c in classes]
        self.selection = selection
        self._sigma: dict = {}

    def sigma(self, state) -> dict:
        out = self._sigma.get(state)
        if out is not None:
            return out
        choice = self.selection.get(state)
        if choice is None:
            out = {state: ONE}
        else:
            target = nd_transitions(state)[choice].target
            out = {}
            for t, m in target.entries:
                for g, q in self.sigma(t).items():
                    out[g] = out.get(g, ZERO) + m * q
        self._sigma[state] = out
        return out

    def ell(self, state) -> tuple:
        image = self.sigma(state)
        sig = [ZERO] * len(self.classes)
        for g, m in image.items():
            for k, cls in enumerate(self.classes):
                if g in cls:
                    sig[k] += m
                    break
        return tuple(sig)

    def value(self, mu: Distribution) -> tuple:
        sig = [ZERO] * len(self.classes)
        for t, m in mu.entries:
            for k, v in enumerate(self.ell(t)):
                sig[k] += m * v
        return tuple(sig)


def _candidate_valid(cand: _Candidate) -> bool:
    states = cand.states
    taus = tau_transition_list(states)

    def transfer(responder_masses: dict, action, end_sig, mid_sig) -> bool:
        lp = LP()
        nubar = add_flow_result(lp, "w", responder_masses, states, taus)
        for k in range(len(cand.classes)):
            lp.add_eq({nubar[s]: cand.ell(s)[k] for s in states
                       if cand.ell(s)[k] != ZERO}, mid_sig[k])
        moves = {s: [(i, tr.target) for i, tr in enumerate(nd_transitions(s))
                     if tr.action == action] for s in states}
        for s in states:
            for i, _ in moves[s]:
                lp.var(("y", s, i))
        for s in states:
            coeffs = {("y", s, i): ONE for i, _ in moves[s]}
            coeffs[nubar[s]] = coeffs.get(nubar[s], ZERO) - ONE
            (lp.add_le if action.is_tau else lp.add_eq)(coeffs, ZERO)
        result = {}
        for s in states:
            v = lp.var(("r", s))
            result[s] = v
            coeffs = {v: ONE}
            if action.is_tau:
                coeffs[nubar[s]] = coeffs.get(nubar[s], ZERO) - ONE
                for i, _ in moves[s]:
                    coeffs[("y", s, i)] = coeffs.get(("y", s, i), ZERO) + ONE
            for src in states:
                for i, target in moves[src]:
                    m = target.mass(s)
                    if m != ZERO:
                        coeffs[("y", src, i)] = coeffs.get(
                            ("y", src, i), ZERO) - m
            lp.add_eq(coeffs, ZERO)
        for k in range(len(cand.classes)):
            lp.add_eq({result[s]: cand.ell(s)[k] for s in states
                       if cand.ell(s)[k] != ZERO}, end_sig[k])
        return lp.feasible() is not None

    def decomposable(x_masses: dict, responder_masses: dict) -> bool:
        lp = LP()
        nubar = add_flow_result(lp, "w", responder_masses, states, taus)
        parts = {(e, s): lp.var(("p", e, s)) for e in x_masses for s in states}
        for s in states:
            lp.add_eq({parts[(e, s)]: ONE for e in x_masses}
                      | {nubar[s]: -ONE}, ZERO)
        for e, mass in x_masses.items():
            for k in range(len(cand.classes)):
                lp.add_eq({parts[(e, s)]: cand.ell(s)[k] for s in states
                           if cand.ell(s)[k] != ZERO},
                          mass * cand.ell(e)[k])
        return lp.feasible() is not None

    for e in states:
        le = cand.ell(e)
        partners = [{f: ONE} for f in states if f != e and cand.ell(f) == le]
        sig_e = cand.sigma(e)
        if sig_e != {e: ONE}:
            partners.append(sig_e)
        for partner in partners:
            for tr in nd_transitions(e):
                end = cand.value(tr.target)
                if not transfer(partner, tr.action, end, le):
                    return False
            if not decomposable({e: ONE}, partner):
                return False
            # the symmetric direction: partner challenges answered by e
            partner_dist = distribution(partner)
            for challenge_action, challenge_sig in _vertex_challenges(
                    cand, partner_dist):
                if not transfer({e: ONE}, challenge_action, challenge_sig, le):
                    return False
            if not decomposable(dict(partner_dist.entries), {e: ONE}):
                return False
    return True


def _vertex_challenges(cand: _Candidate, mu: Distribution):
    """Extreme combined transitions of mu: every support state takes one
    of its transitions with the shared action, all selections enumerated."""
    actions = {tr.action for s in mu.support for tr in nd_transitions(s)}
    out = []
    for action in sorted(actions, key=lambda a: a.name):
        per_state = []
        for s in mu.support:
            targets = [tr.target for tr in nd_transitions(s)
                       if tr.action == action]
            per_state.append((mu.mass(s), targets))
        if any(not targets for _, targets in per_state):
            continue
        combos = [dict()]
        for mass, targets in per_state:
            new = []
            for acc in combos:
                for target in targets:
                    nxt = dict(acc)
                    for g, q in target.entries:
                        nxt[g] = nxt.get(g, ZERO) + mass * q
                    new.append(nxt)
            combos = new
        for acc in combos:
            out.append((action, cand.value(distribution(acc))))
    return out


def brute_force_branching(mu: Distribution, nu: Distribution,
                          state_bound: int = 5) -> Verdict:
    """Oracle verdict by exhaustive candidate-relation search."""
    states = sorted(
        set().union(*(derivatives(s) for s in set(mu.support) | set(nu.support))),
        key=nd_key)
    if len(states) > state_bound:
        raise BoundExceeded(
            f"{len(states)} joint derivative states exceed bound {state_bound}")
    for classes in _set_partitions(states):
        for selection in _stabilizers(states):
            cand = _Candidate(states, classes, selection)
            if cand.value(mu) != cand.value(nu):
                continue
            if _candidate_valid(cand):
                return Verdict(True, "branching")
    witness = {
        "action_path": [],
        "class_signature_left": {print_term(t): format_rat(m)
                                 for t, m in mu.entries},
        "class_signature_right": {print_term(t): format_rat(m)
                                  for t, m in nu.entries},
    }
    return Verdict(False, "branching", witness)


# ---------------------------------------------------------------------------
# Sound random rewriting (shared by the soundness suite and the fuzz CLI)


_UNCONDITIONAL = (AxiomId.A1, AxiomId.A2, AxiomId.A3, AxiomId.A4,
                  AxiomId.P1, AxiomId.P2, AxiomId.P3, AxiomId.C)


def _positions(term, out=None, prefix=()):
    if out is None:
        out = []
    out.append((prefix, term))
    if isinstance(term, (Sum, PChoice)):
        _positions(term.left, out, prefix + (0,))
        _positions(term.right, out, prefix + (1,))
    elif isinstance(term, (Prefix, Dirac)):
        _positions(term.body, out, prefix + (0,))
    return out


def _instances_at(term, pos, node, rng: random.Random, cfg: GenConfig):
    """Applicable unconditional-axiom steps at one node."""
    out = []

    def step(axiom, direction, **sub):
        out.append(RewriteStep(axiom, pos, direction,
                               tuple(sorted(sub.items()))))

    if isinstance(node, Sum):
        step(AxiomId.A1, "LR", E=node.left, F=node.right)
        if isinstance(node.left, Sum):
            step(AxiomId.A2, "LR", E=node.left.left, F=node.left.right,
                 G=node.right)
        if isinstance(node.right, Sum):
            step(AxiomId.A2, "RL", E=node.left, F=node.right.left,
                 G=node.right.right)
        if node.left == node.right:
            step(AxiomId.A3, "LR", E=node.left)
        if isinstance(node.right, Zero):
            step(AxiomId.A4, "LR", E=node.left)
        if (isinstance(node.left, Prefix) and isinstance(node.right, Prefix)
                and node.left.action == node.right.action):
            step(AxiomId.C, "LR", alpha=node.left.action, P=node.left.body,
                 Q=node.right.body, r=_pick_weight(rng, cfg))
    if isinstance(node, NdTerm):
        step(AxiomId.A4, "RL", E=node)
        step(AxiomId.A3, "RL", E=node)
    if isinstance(node, PChoice):
        step(AxiomId.P1, "LR", P=node.left, Q=node.right, r=node.weight)
        if isinstance(node.right, PChoice):
            step(AxiomId.P2, "LR", P=node.left, Q=node.right.left,
                 R=node.right.right, r=node.weight, s=node.right.weight)
        if isinstance(node.left, PChoice):
            step(AxiomId.P2, "RL", P=node.left.left, Q=node.left.right,
                 R=node.right, rbar=node.left.weight, sbar=node.weight)
        if node.left == node.right:
            step(AxiomId.P3, "LR", P=node.left, r=node.weight)
    if isinstance(node, PTerm):
        step(AxiomId.P3, "RL", P=node, r=_pick_weight(rng, cfg))
    return out


def _sub_config(rng: random.Random, cfg: GenConfig, scale: int = 1) -> GenConfig:
    return GenConfig(seed=rng.randrange(2 ** 32),
                     max_complexity=max(2, cfg.max_complexity // scale),
                     actions=cfg.actions, tau_bias=cfg.tau_bias,
                     weight_denominator_bound=cfg.weight_denominator_bound)


def _conditional_instance(rng: random.Random, cfg: GenConfig):
    """A synthesized sound BP or G application (side condition holds by
    construction: a state is always directly matched by a process that
    offers all of its summands)."""
    sub = _sub_config(rng, cfg, scale=3)
    rng2 = random.Random(sub.seed)
    e = _gen_nd(rng2, sub, sub.max_complexity)
    g = _gen_nd(rng2, sub, sub.max_complexity)
    q = _gen_p(rng2, sub, max(1, sub.max_complexity // 2))
    alpha = _pick_action(rng2, sub)
    r = _pick_weight(rng2, sub)
    if rng.random() < 0.5:
        p = Dirac(Sum(e, g))
        before = Prefix(alpha, PChoice(Dirac(Sum(e, Prefix(TAU, p))), r, q))
        step = RewriteStep(AxiomId.BP, (), "LR", tuple(sorted(
            {"alpha": alpha, "E": e, "P": p, "Q": q, "r": r}.items())))
    else:
        f = Sum(e, g)
        before = Prefix(alpha, PChoice(Dirac(Sum(e, f)), r, q))
        step = RewriteStep(AxiomId.G, (), "LR", tuple(sorted(
            {"alpha": alpha, "E": e, "F": f, "Q": q, "r": r}.items())))
    return before, step


def random_sound_application(rng: random.Random, cfg: GenConfig):
    """(before, step, after): a random axiom applied somewhere sound.

    Unconditional axioms are applied at a random matching position of a
    random term; BP and G applications are synthesized so their side
    conditions hold by construction."""
    if rng.random() < 0.25:
        before, step = _conditional_instance(rng, cfg)
        return before, step, apply_axiom(before, step)
    for _ in range(40):
        term = _gen_nd(rng, cfg, cfg.max_complexity) if rng.random() < 0.5 \
            else _gen_p(rng, cfg, cfg.max_complexity)
        spots = _positions(term)
        rng.shuffle(spots)
        for pos, node in spots:
            cands = _instances_at(term, pos, node, rng, cfg)
            if not cands:
                continue
            step = rng.choice(cands)
            try:
                return term, step, apply_axiom(term, step)
            except ValueError:
                continue
    raise RuntimeError("could not synthesize a random application")


def random_equivalent_pair(rng: random.Random, cfg: GenConfig, sort="p",
                           rewrites: int = 3):
    """A pair of provably equal terms obtained by sound rewriting."""
    seeded = _sub_config(rng, cfg)
    term = gen_p(seeded) if sort == "p" else gen_nd(seeded)
    other = term
    for _ in range(rewrites):
        spots = _positions(other)
        rng.shuffle(spots)
        applied = False
        for pos, node in spots:
            cands = _instances_at(other, pos, node, rng, cfg)
            rng.shuffle(cands)
            for step in cands:
                try:
                    candidate = apply_axiom(other, step)
                except ValueError:
                    continue
                if complexity(candidate) <= 3 * cfg.max_complexity:
                    other = candidate
                    applied = True
                    break
            if applied:
                break
    return term, other


# ---------------------------------------------------------------------------
# Property suites: (generate, check, shrinkable)


def _walk(seed: int, mu: Distribution, steps: int = 1) -> Distribution:
    """Deterministic random weak derivative of mu."""
    rng = random.Random(seed)
    for _ in range(steps):
        moved: dict = {}
        for state, mass in mu.entries:
            taus = [tr.target for tr in nd_transitions(state)
                    if tr.action.is_tau]
            if taus and rng.random() < 0.6:
                target = rng.choice(taus)
                frac = rat(rng.randint(0, 2), 2)
                stay = mass * (ONE - frac)
                if stay != ZERO:
                    moved[state] = moved.get(state, ZERO) + stay
                for t, q in target.entries:
                    if mass * frac * q != ZERO:
                        moved[t] = moved.get(t, ZERO) + mass * frac * q
            else:
                moved[state] = moved.get(state, ZERO) + mass
        mu = distribution(moved)
    return mu


def _gen_soundness(rng, cfg):
    before, step, after = random_sound_application(rng, cfg)
    return (before, after, step.axiom.value)


def _check_soundness(inputs):
    before, after, axiom = inputs
    if not decide("rooted-branching", before, after).equivalent:
        return (f"{axiom} preserves rooted-branching", "refuted")
    if AxiomId(axiom) in _UNCONDITIONAL:
        if not decide("strong", before, after).equivalent:
            return (f"{axiom} preserves strong", "refuted")
    return None


def _gen_congruence(rng, cfg):
    small = _sub_config(rng, cfg, scale=2)
    e, f = random_equivalent_pair(rng, small, sort="nd")
    g = gen_nd(_sub_config(rng, small))
    alpha = _pick_action(rng, cfg)
    r = _pick_weight(rng, cfg)
    which = rng.randrange(4)  # rotate the context; 500 trials cover all
    return (e, f, g, alpha, r, which)


def _check_congruence(inputs):
    e, f, g, alpha, r, which = inputs
    contexts = [
        lambda: (Prefix(alpha, Dirac(e)), Prefix(alpha, Dirac(f))),
        lambda: (Sum(e, g), Sum(f, g)),
        lambda: (Sum(g, e), Sum(g, f)),
        lambda: (PChoice(Dirac(e), r, Dirac(g)), PChoice(Dirac(f), r, Dirac(g))),
    ]
    left, right = contexts[which % len(contexts)]()
    for rel in ("strong", "rooted-branching"):
        if not decide(rel, e, f).equivalent:
            continue
        if not decide(rel, left, right).equivalent:
            return (f"{rel} congruence", "refuted")
        if not decide(rel, e, e).equivalent:
            return (f"{rel} reflexivity", "refuted")
        if not decide(rel, f, e).equivalent:
            return (f"{rel} symmetry", "refuted")
    return None


def _gen_oplus(rng, cfg):
    small = _sub_config(rng, cfg, scale=2)
    p1, q1 = random_equivalent_pair(rng, small, sort="p")
    p2, q2 = random_equivalent_pair(rng, small, sort="p")
    return (p1, q1, p2, q2, _pick_weight(rng, cfg))


def _check_oplus(inputs):
    p1, q1, p2, q2, r = inputs
    if (decide("branching", p1, q1).equivalent
            and decide("branching", p2, q2).equivalent):
        left = mix(den(p1), r, den(p2))
        right = mix(den(q1), r, den(q2))
        if not decide("branching", left, right).equivalent:
            return ("choice congruence for branching", "refuted")
    return None


def _gen_stuttering(rng, cfg):
    p = gen_p(_sub_config(rng, cfg))
    return (p, rng.randrange(2 ** 32))


def _check_stuttering(inputs):
    p, walk_seed = inputs
    mu = den(p)
    mid = _walk(walk_seed, mu)
    nu = _walk(walk_seed + 1, mid)
    if decide("branching", mu, nu).equivalent:
        if not decide("branching", mu, mid).equivalent:
            return ("stuttering keeps the intermediate equivalent", "refuted")
    return None


def _gen_cancellativity(rng, cfg):
    small = _sub_config(rng, cfg, scale=2)
    nu_p, nu_q = random_equivalent_pair(rng, small, sort="p")
    mu_p, mu_q = random_equivalent_pair(rng, small, sort="p")
    if rng.random() < 0.3:
        mu_q = gen_p(_sub_config(rng, small))
    r = ONE if rng.random() < 0.15 else _pick_weight(rng, cfg)
    return (mu_p, mu_q, nu_p, nu_q, r)


def _check_cancellativity(inputs):
    mu_p, mu_q, nu_p, nu_q, r = inputs
    left = den(mu_p) if r == ONE else mix(den(mu_p), r, den(nu_p))
    right = den(mu_q) if r == ONE else mix(den(mu_q), r, den(nu_q))
    if (decide("branching", left, right).equivalent
            and decide("branching", nu_p, nu_q).equivalent):
        if not decide("branching", mu_p, mu_q).equivalent:
            return ("cancellativity of probabilistic choice", "refuted")
    return None


def _gen_lemma_cc(rng, cfg):
    small = _sub_config(rng, cfg, scale=2)
    p1, _ = concretize(gen_p(small))
    p2, _ = concretize(gen_p(_sub_config(rng, small)))
    return (p1, p2, _pick_weight(rng, cfg), rng.randrange(2 ** 32))


def _check_lemma_cc(inputs):
    p1, p2, r, walk_seed = inputs
    if not (is_concrete(p1) and is_concrete(p2)):
        return None  # shrinking may leave the concrete sublanguage
    if not is_concrete(PChoice(p1, r, p2)):
        return ("cc(b): choice of concretes is concrete", "refuted")
    for state in den(p1).support:
        if not is_concrete(Dirac(state)):
            return ("cc(c): support of a concrete process is concrete",
                    "refuted")
    mu = den(p1)
    if all(is_rigid(s) for s in mu.support):
        nu = _walk(walk_seed, mu)
        if decide("branching", mu, nu).equivalent and mu != nu:
            return ("cc(e): a rigid distribution has no distinct "
                    "equivalent weak derivative", "refuted")
    return None


def _gen_inclusion(rng, cfg):
    return (gen_nd(_sub_config(rng, cfg)), gen_nd(_sub_config(rng, cfg)))


def _check_inclusion(inputs):
    e, f = inputs
    strong = decide("strong", e, f).equivalent
    rooted = decide("rooted-branching", e, f).equivalent
    branching = decide("branching", e, f).equivalent
    if strong and not rooted:
        return ("strong implies rooted-branching", "refuted")
    if rooted and not branching:
        return ("rooted-branching implies branching", "refuted")
    return None


def _gen_concrete_strong(rng, cfg):
    small = _sub_config(rng, cfg, scale=2)
    p, _ = concretize(gen_p(small))
    q, _ = concretize(gen_p(_sub_config(rng, small)))
    return (p, q)


def _check_concrete_strong(inputs):
    p, q = inputs
    if not (is_concrete(p) and is_concrete(q)):
        return None
    b = decide("branching", p, q).equivalent
    s = decide("strong", p, q).equivalent
    if b != s:
        return ("concrete processes: branching iff strong", "refuted")
    return None


_SUITES = {
    "soundness": (_gen_soundness, _check_soundness, False),
    "congruence": (_gen_congruence, _check_congruence, False),
    "oplus_congruence": (_gen_oplus, _check_oplus, False),
    "stuttering": (_gen_stuttering, _check_stuttering, True),
    "cancellativity": (_gen_cancellativity, _check_cancellativity, False),
    "lemma_cc": (_gen_lemma_cc, _check_lemma_cc, True),
    "inclusion_chain": (_gen_inclusion, _check_inclusion, True),
    "concrete_strong": (_gen_concrete_strong, _check_concrete_strong, True),
}


def suite_names():
    return sorted(_SUITES)


def _shrink(inputs, checker, rounds: int = 30):
    """Replace term entries by their own subterms while the failure
    persists; other entries are left alone."""

    def candidates(t):
        if isinstance(t, NdTerm):
            subs = [n for _, n in _positions(t)[1:] if isinstance(n, NdTerm)]
            base = [ZERO_TERM]
        elif isinstance(t, PTerm):
            subs = [n for _, n in _positions(t)[1:] if isinstance(n, PTerm)]
            base = [Dirac(ZERO_TERM)]
        else:
            return []
        out = []
        for c in base + subs:
            if c != t and c not in out:
                out.append(c)
        return out

    current = tuple(inputs)
    for _ in range(rounds):
        improved = False
        for i, t in enumerate(current):
            for cand in candidates(t):
                trial = current[:i] + (cand,) + current[i + 1:]
                try:
                    still_failing = checker(trial) is not None
                except Exception:
                    still_failing = False
                if still_failing:
                    current = trial
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break
    return current


def run_property_suite(name: str, trials: int, cfg: GenConfig) -> dict:
    """Run a registered suite; reports are deterministic per seed, with
    failures in seed order and shrunk where the property permits."""
    entry = _SUITES.get(name)
    if entry is None:
        raise UnknownSuite(f"unknown suite {name!r}; known: {suite_names()}")
    generate, checker, shrinkable = entry
    failures = []
    for i in range(trials):
        trial_seed = cfg.seed * 1_000_003 + i
        rng = random.Random(trial_seed)
        inputs = generate(rng, cfg)
        outcome = checker(inputs)
        if outcome is None:
            continue
        if shrinkable:
            inputs = _shrink(inputs, checker)
            outcome = checker(inputs) or outcome
        expected, got = outcome
        failures.append({
            "seed": trial_seed,
            "input_terms": [print_term(t) for t in inputs
                            if isinstance(t, (NdTerm, PTerm))],
            "expected": expected,
            "got": got,
        })
    return {"suite": name, "trials": trials, "failures": failures}
