"""Proofs, normal forms and concretization traces do not move.

Each case is one fixed call into the rewriting system.  Its text is the
printed result term followed by the JSONL of its trace, and the
committed ``proof_snapshots.json`` holds the sha256 of that text and its
step count.  A change to how the prover edits terms must keep every
byte.  ``PYTHONPATH=src python tests/test_proof_snapshots.py`` rewrites
the snapshot, for a change that moves proofs on purpose.
"""

import hashlib
import json
import random
import sys
from functools import lru_cache, reduce
from pathlib import Path

import pytest

from probranch.axioms import (
    concretize,
    concretize_nd,
    derived_simple_bp,
    normalize_nd,
    prove_equal,
)
from probranch.dist import den, derivatives
from probranch.harness import (
    GenConfig,
    gen_nd,
    gen_p,
    random_equivalent_pair,
)
from probranch.parse import parse_nd, parse_p, print_term
from probranch.rat import rat
from probranch.terms import Action, Dirac, PChoice, Prefix, Sum, ZERO_TERM

SNAPSHOT = Path(__file__).with_name("proof_snapshots.json")
PAIRS = 30


def _text(term, trace) -> str:
    return print_term(term) + "\n" + trace.to_jsonl()


def _leaf(name: str):
    return Prefix(Action(name), Dirac(ZERO_TERM))


def _against_the_nesting():
    """A sum nested to the right and a choice nested to the left, each
    unsorted and with duplicates (and a 0 summand), so normalization
    reassociates, sorts and merges the whole list."""
    leaves = [_leaf(c) for c in "dbcadb"] + [ZERO_TERM, _leaf("c")]
    chain = reduce(lambda rest, s: Sum(s, rest), reversed(leaves[:-1]),
                   leaves[-1])
    comps = [Dirac(_leaf(c)) for c in "cabca"]
    spine = reduce(lambda acc, c: PChoice(acc, rat(2, 7), c), comps[1:],
                   comps[0])
    return chain, spine


@lru_cache(maxsize=None)
def _equivalent_pairs():
    """PAIRS seeded equivalent pairs, alternating the two sorts, with at
    most 30 joint derivative states."""
    rng = random.Random(15)
    pairs = []
    while len(pairs) < PAIRS:
        sort = "p" if len(pairs) % 2 else "nd"
        left, right = random_equivalent_pair(
            rng, GenConfig(seed=rng.randrange(2 ** 32), max_complexity=8),
            sort=sort, rewrites=4)
        roots = ({left, right} if sort == "nd"
                 else set(den(left).support) | set(den(right).support))
        if left == right or len(set().union(
                *(derivatives(s) for s in roots))) > 30:
            continue
        pairs.append((left, right))
    return tuple(pairs)


def _prove(left, right) -> str:
    trace = prove_equal(left, right)
    return _text(trace.end, trace)


def _cases() -> dict:
    cases = {}
    # seeds whose terms take at least 4 steps to normalize
    for seed in (4, 6, 7, 11, 12):
        cases[f"normalize_nd.gen{seed}"] = lambda seed=seed: _text(
            *normalize_nd(gen_nd(GenConfig(seed=seed, max_complexity=12))))
    for seed in (1, 3, 8, 12, 15):
        cases[f"canonical_pterm.gen{seed}"] = lambda seed=seed: _text(
            *normalize_nd(gen_p(GenConfig(seed=seed, max_complexity=12))))
    cases["normalize_nd.right-nested"] = lambda: _text(
        *normalize_nd(_against_the_nesting()[0]))
    cases["canonical_pterm.left-nested"] = lambda: _text(
        *normalize_nd(_against_the_nesting()[1]))
    for i in range(PAIRS):
        cases[f"prove.pair{i}"] = lambda i=i: _prove(*_equivalent_pairs()[i])
    # C saturation, bare (rooted) and under a prefix (strong)
    cases["prove.saturate-rooted"] = lambda: _prove(
        parse_nd("a.D(b.D(0)) + a.D(c.D(0))"),
        parse_nd("a.D(b.D(0)) + a.(D(b.D(0)) +[5/12] D(c.D(0))) "
                 "+ a.D(c.D(0))"))
    cases["prove.saturate-strong"] = lambda: _prove(
        parse_nd("a.D(b.D(c.D(0)) + b.D(d.D(0)))"),
        parse_nd("a.D(b.D(c.D(0)) + b.(D(c.D(0)) +[1/2] D(d.D(0))) "
                 "+ b.D(d.D(0)))"))
    for seed in range(10):
        cases[f"concretize.gen{seed}"] = lambda seed=seed: _text(
            *concretize(gen_p(GenConfig(seed=seed, max_complexity=8))))
    for seed in (4, 6, 37):
        cases[f"concretize_nd.gen{seed}"] = lambda seed=seed: _text(
            *concretize_nd(gen_nd(GenConfig(seed=seed, max_complexity=8,
                                            actions=("a", "b")))))
    for law, term in ((1, "a.D(b.D(0) + tau.D(b.D(0)))"),
                      (2, "a.(D(tau.D(b.D(0))) +[1/3] D(c.D(0)))"),
                      (3, "a.D(tau.D(b.D(0)))")):
        cases[f"derived_simple_bp.{law}"] = lambda term=term: _text(
            *derived_simple_bp(parse_nd(term)))
    # the paper's partially inert example
    cases["concretize.partially-inert"] = lambda: _text(*concretize(parse_p(
        "D(tau.(D(b.D(c.D(0)) + tau.D(d.D(0))) +[1/3] D(d.D(0))) "
        "+ b.D(c.D(0)) + tau.D(d.D(0)))")))
    # an inert silent summand alone (SBP1) and in a spine (BP), and the
    # partially inert example in a spine (G without a P3 split)
    cases["concretize.sbp1"] = lambda: _text(*concretize(parse_p(
        "D(a.D(0) + tau.D(a.D(0)))")))
    cases["concretize.bp"] = lambda: _text(*concretize(parse_p(
        "D(a.D(0) + tau.D(a.D(0))) +[1/2] D(b.D(0))")))
    cases["concretize.spine-g"] = lambda: _text(*concretize(parse_p(
        "D(tau.(D(b.D(c.D(0)) + tau.D(d.D(0))) +[1/3] D(d.D(0))) "
        "+ b.D(c.D(0)) + tau.D(d.D(0))) +[1/2] D(e.D(0))")))
    return cases


CASES = _cases()


def _record(text: str) -> dict:
    return {"steps": len(text.splitlines()) - 1,
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def test_snapshot_names_every_case():
    assert sorted(json.loads(SNAPSHOT.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_proof_bytes_match_the_snapshot(name):
    assert _record(CASES[name]()) == json.loads(SNAPSHOT.read_text())[name]


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps(
        {name: _record(make()) for name, make in sorted(CASES.items())},
        indent=1) + "\n")
    sys.exit(0)
