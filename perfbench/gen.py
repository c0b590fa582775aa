"""Seeded inputs for the cold-query benchmark.

Run as ``python3 perfbench/gen.py --workload NAME --seed N``; prints one
JSON document with the workload's queries.  Generation runs the decider
(the BP and G side conditions of ``random_sound_application``), so it
always runs in a process of its own: its warm caches must never reach
the process that times the queries.

Every query carries the answer its construction guarantees, never one
obtained from the decider:

* a sound rewrite is rooted-branching equivalent to its source, and
  strongly equivalent for the unconditional axioms;
* adding a summand or a branch with a fresh action ``z`` makes a pair
  inequivalent under every relation, since only one side can ever do z;
* a tau-chain ``a.D(tau.D(...))`` is branching and rooted-branching
  equivalent to the plain chain of the same visible depth (stuttering)
  and strongly distinct from it;
* ``prove`` must print a proof from the left input to the right one, and
  ``concretize`` a concrete, prefix-equivalent term with a trace.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from probranch.dist import den, derivatives  # noqa: E402
from probranch.harness import (  # noqa: E402
    GenConfig,
    gen_nd,
    gen_p,
    random_equivalent_pair,
    random_sound_application,
)
from probranch.parse import print_term  # noqa: E402
from probranch.rat import RAT_BACKEND, rat  # noqa: E402
from probranch.terms import (  # noqa: E402
    Action,
    Dirac,
    NdTerm,
    PChoice,
    Prefix,
    Sum,
    TAU,
    Zero,
    ZERO_TERM,
)

UNCONDITIONAL = {"A1", "A2", "A3", "A4", "P1", "P2", "P3", "C"}
FRESH = Prefix(Action("z"), Dirac(ZERO_TERM))

# fuzz-check draws a fixed number of sound applications per group, in
# proportion to the mix that random_sound_application gives at complexity
# 10.  Measured over 1500 draws (150 each for seeds 1-10), as shares of
# all applications: BP and G (all with 5 joint derivative states) 0.256;
# the other axioms by state count 1: 0.021, 2: 0.071, 3: 0.127, 4: 0.155,
# 5: 0.151, 6: 0.113, 7: 0.063, 8: 0.029, 9 or more: 0.015.  The quotas
# are these shares of 100 applications, rounded by largest remainder;
# group 9 takes every count from 9 up.  Fixed quotas keep the workload's
# total from moving with the seed as a free draw's mix would.
FUZZ_QUOTAS = {1: 2, 2: 7, 3: 13, 4: 16, 5: 15, 6: 11, 7: 6, 8: 3, 9: 1,
               "BP/G": 26}
FUZZ_PERTURB_EVERY = 4

# chains: visible depths of the tau-chain family and of the plain chains
# checked strongly against a copy.  Branching on the tau-chain costs about
# 4x more per depth, so depth 3 keeps enough rounds in a run for the
# fastest of each query's samples.  The plain chains take every depth from
# 10 to 20: their costs lie close together, so the workload's median
# query falls among several of them instead of on one query.  The seed
# picks the visible action and the order of the queries.
TAU_DEPTHS = (1, 2, 3)
PLAIN_DEPTHS = tuple(range(10, 21)) + (40,)
CHAIN_ACTIONS = ("a", "b", "c", "d", "e", "f")

# prove: proofs per joint derivative-state count, drawn like the pairs of
# acceptance criterion 10, plus concretizations.  Criterion 10 allows up
# to 40 states, and its drawing gives, over 995 pairs (100 draws each for
# seeds 1-10), the shares 1: 0.009, 2: 0.083, 3: 0.087, 4: 0.154, 5: 0.146,
# 6: 0.210, 7: 0.111, 8: 0.103, 9: 0.046, 10 to 14: 0.051.  Quotas in that
# proportion (60 proofs) moved the workload's total by 0.38 of its median
# (quartile distance, seeds 11-15): a proof's cost varies up to 3x
# between pairs with the same state count, so a few pairs over 4 states
# decide the total.  So none are drawn, and proofs of 3-state pairs are
# over half of all queries.
PROVE_QUOTAS = {2: 4, 3: 100, 4: 24}
CONCRETIZE_COUNT = 16
# Random terms almost never hold an inert silent summand, so the
# concretizer's side-condition checks (a summand matched by the silent
# step's target, as axiom BP requires) would go untimed.  E + tau.D(E)
# always holds one: tau.D(E) is inert, since E + tau.D(E) and E are
# branching bisimilar.  Its concretization checks that side condition
# before it removes the summand.
INERT_COUNT = 8
INERT_COMPLEXITY = 3


def _joint_states(*terms) -> int:
    return len(frozenset().union(*(derivatives(t) for t in terms)))


def _perturb(term):
    if isinstance(term, NdTerm):
        return Sum(term, FRESH)
    return PChoice(term, rat(1, 2), Dirac(FRESH))


def _check_query(qid, row, rel, left, right, equivalent):
    return {
        "id": qid,
        "row": row,
        "argv": ["check", "--rel", rel, "--left", print_term(left),
                 "--right", print_term(right), "--json"],
        "expect": {"kind": "verdict", "equivalent": equivalent},
        "joint_states": _joint_states(left, right),
    }


def fuzz_check(seed: int) -> list:
    cfg = GenConfig(seed=seed, max_complexity=10)
    rng = random.Random(seed)
    drawn = {group: [] for group in FUZZ_QUOTAS}
    for _ in range(20000):
        if all(len(drawn[g]) == k for g, k in FUZZ_QUOTAS.items()):
            break
        before, step, after = random_sound_application(rng, cfg)
        axiom = step.axiom.value
        group = (min(_joint_states(before, after), 9)
                 if axiom in UNCONDITIONAL else "BP/G")
        if group in drawn and len(drawn[group]) < FUZZ_QUOTAS[group]:
            drawn[group].append((before, axiom, after))
    else:
        raise RuntimeError("fuzz-check quotas not filled")
    queries = []
    for group, apps in drawn.items():
        for i, (before, axiom, after) in enumerate(apps):
            perturbed = i % FUZZ_PERTURB_EVERY == FUZZ_PERTURB_EVERY - 1
            right = _perturb(after) if perturbed else after
            rels = ["rooted-branching"]
            if axiom in UNCONDITIONAL:
                rels.append("strong")
            suffix = "+z" if perturbed else ""
            for rel in rels:
                queries.append(_check_query(
                    f"{group}.{i}.{axiom}.{rel}{suffix}", rel + suffix,
                    rel, before, right, not perturbed))
    return queries


def _chain(depth: int, action: Action, silent: bool):
    term = ZERO_TERM
    for _ in range(depth):
        if silent:
            term = Prefix(Action("tau"), Dirac(term))
        term = Prefix(action, Dirac(term))
    return term


def chains(seed: int) -> list:
    rng = random.Random(seed)
    action = Action(rng.choice(CHAIN_ACTIONS))
    queries = []
    for depth in TAU_DEPTHS:
        tau_chain = _chain(depth, action, True)
        plain = _chain(depth, action, False)
        for rel in ("strong", "branching", "rooted-branching"):
            queries.append(_check_query(
                f"tau-chain.{rel}.d{depth}", f"tau-chain {rel} d{depth}",
                rel, tau_chain, plain, rel != "strong"))
    for depth in PLAIN_DEPTHS:
        plain = _chain(depth, action, False)
        queries.append(_check_query(
            f"plain.strong.d{depth}", f"plain-copy strong d{depth}",
            "strong", plain, plain, True))
    rng.shuffle(queries)
    return queries


def prove(seed: int) -> list:
    rng = random.Random(seed)
    drawn = {n: [] for n in PROVE_QUOTAS}
    for _ in range(20000):
        if all(len(drawn[n]) == k for n, k in PROVE_QUOTAS.items()):
            break
        sort = "p" if rng.random() < 0.5 else "nd"
        left, right = random_equivalent_pair(
            rng, GenConfig(seed=rng.randrange(2 ** 32), max_complexity=10),
            sort=sort, rewrites=4)
        if left == right:
            continue
        roots = (set(den(left).support) | set(den(right).support)
                 if sort == "p" else {left, right})
        n = _joint_states(*roots)
        if n in drawn and len(drawn[n]) < PROVE_QUOTAS[n]:
            drawn[n].append((left, right))
    else:
        raise RuntimeError("prove quotas not filled")
    queries = []
    for n, pairs in drawn.items():
        for i, (left, right) in enumerate(pairs):
            lt, rt = print_term(left), print_term(right)
            queries.append({
                "id": f"prove.n{n}.{i}",
                "row": "prove",
                "argv": ["prove", "--left", lt, "--right", rt, "--json"],
                "expect": {"kind": "proof", "left": lt, "right": rt},
                "joint_states": _joint_states(left, right),
            })
    for i in range(CONCRETIZE_COUNT):
        term = gen_p(GenConfig(seed=rng.randrange(2 ** 32), max_complexity=8))
        queries.append(_concretize_query(f"concretize.{i}",
                                         "concretize --trace", term))
    made = 0
    while made < INERT_COUNT:
        state = gen_nd(GenConfig(seed=rng.randrange(2 ** 32),
                                 max_complexity=INERT_COMPLEXITY))
        if isinstance(state, Zero):
            continue
        term = Dirac(Sum(state, Prefix(TAU, Dirac(state))))
        queries.append(_concretize_query(f"concretize-inert.{made}",
                                         "concretize-inert --trace", term))
        made += 1
    return queries


def _concretize_query(qid, row, term):
    text = print_term(term)
    return {"id": qid, "row": row,
            "argv": ["concretize", "--term", text, "--trace"],
            "expect": {"kind": "concretize", "term": text},
            "joint_states": _joint_states(term)}


WORKLOADS = {"fuzz-check": fuzz_check, "chains": chains, "prove": prove}


def generate(workload: str, seed: int) -> dict:
    return {"workload": workload, "seed": seed, "rat_backend": RAT_BACKEND,
            "queries": WORKLOADS[workload](seed)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    json.dump(generate(args.workload, args.seed), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
