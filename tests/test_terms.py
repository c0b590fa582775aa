import os
import pickle
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import probranch
from probranch.dist import Distribution, den, dirac
from probranch.harness import GenConfig, gen_nd, gen_p
from probranch.parse import parse_nd, parse_p, parse_term, print_term
from probranch.rat import rat
from probranch.terms import (
    TAU,
    Action,
    Dirac,
    PChoice,
    Prefix,
    PTerm,
    Sum,
    ZERO_TERM,
    complexity,
    is_nd_fragment,
    nd_key,
    summands,
)


def test_action_validation():
    assert Action("a").name == "a"
    assert TAU.is_tau
    with pytest.raises(ValueError):
        Action("Tau")
    with pytest.raises(ValueError):
        Action("")


def test_pchoice_weight_range():
    d = Dirac(ZERO_TERM)
    with pytest.raises(ValueError):
        PChoice(d, rat(0), d)
    with pytest.raises(ValueError):
        PChoice(d, rat(1), d)
    with pytest.raises(ValueError):
        PChoice(d, rat(3, 2), d)
    assert PChoice(d, rat(1, 2), d).weight == rat(1, 2)


def test_complexity_base_cases():
    # c(0) = 0, c(D(0)) = 1
    assert complexity(ZERO_TERM) == 0
    assert complexity(Dirac(ZERO_TERM)) == 1


def _node_count_oracle(t):
    # Independent reading of the measure: every prefix and every Dirac
    # node contributes exactly one; the other constructors are additive.
    if isinstance(t, Prefix):
        return 1 + _node_count_oracle(t.body)
    if isinstance(t, Sum):
        return _node_count_oracle(t.left) + _node_count_oracle(t.right)
    if isinstance(t, Dirac):
        return 1 + _node_count_oracle(t.body)
    if isinstance(t, PChoice):
        return _node_count_oracle(t.left) + _node_count_oracle(t.right)
    return 0


def test_complexity_hand_evaluated():
    # hand evaluation: body D(0) +[1/2] D(b.D(0)) costs 1 + 3, prefix adds 1
    t = parse_nd("a.(D(0) +[1/2] D(b.D(0)))")
    assert _node_count_oracle(t) == 5
    assert complexity(t) == 5


def test_complexity_matches_node_count_oracle():
    for s in ["0", "a.D(0)", "tau.(D(0) +[1/3] D(a.D(0))) + b.D(0)"]:
        t = parse_nd(s)
        assert complexity(t) == _node_count_oracle(t)


def test_complexity_sum_and_choice_add():
    e = parse_nd("a.D(0) + b.D(0)")
    assert complexity(e) == 4
    p = parse_p("D(a.D(0)) +[1/3] D(0)")
    assert complexity(p) == 4


def mk_sum(*terms):
    """Left-nested sum of the given terms; 0 for the empty list."""
    if not terms:
        return ZERO_TERM
    out = terms[0]
    for t in terms[1:]:
        out = Sum(out, t)
    return out


def test_summands_flatten():
    a = Prefix(Action("a"), Dirac(ZERO_TERM))
    b = Prefix(Action("b"), Dirac(ZERO_TERM))
    c = Prefix(Action("c"), Dirac(ZERO_TERM))
    t = Sum(Sum(a, b), c)
    assert summands(t) == [a, b, c]
    assert summands(Sum(a, Sum(b, c))) == [a, b, c]
    assert mk_sum(a, b, c) == Sum(Sum(a, b), c)
    assert mk_sum() == ZERO_TERM


def test_term_order_tau_first():
    ta = parse_nd("tau.D(0)")
    aa = parse_nd("a.D(0)")
    assert nd_key(ta) < nd_key(aa)
    assert nd_key(ZERO_TERM) < nd_key(ta)


def test_order_total_on_samples():
    terms = [
        parse_nd(s)
        for s in ["0", "a.D(0)", "b.D(0)", "a.D(0) + b.D(0)", "tau.D(a.D(0))"]
    ]
    keys = [nd_key(t) for t in terms]
    assert len(set(keys)) == len(keys)
    assert sorted(keys) == sorted(keys, key=lambda k: k)  # comparable


def test_nd_fragment():
    assert is_nd_fragment(parse_nd("a.D(b.D(0)) + tau.D(0)"))
    assert not is_nd_fragment(parse_nd("a.(D(0) +[1/2] D(0))"))


def test_complexity_positive_with_prefix_or_dirac():
    from probranch.terms import Dirac, Prefix
    for s in ["a.D(0)", "tau.D(0)", "0 + a.D(0)"]:
        assert complexity(parse_nd(s)) > 0
    assert complexity(parse_p("D(0)")) > 0



def _seeded_terms(n=40):
    for seed in range(n):
        cfg = GenConfig(seed=seed, max_complexity=10)
        yield gen_nd(cfg)
        yield gen_p(cfg)


def _fresh_copy(t):
    return parse_term(print_term(t))


def test_equal_nodes_hash_equal_whichever_is_hashed_first():
    for t in _seeded_terms():
        mu = den(t) if isinstance(t, PTerm) else dirac(t)
        for first in (0, 1):
            copies = [_fresh_copy(t), _fresh_copy(t)]
            dists = [Distribution(tuple((_fresh_copy(s), m)
                                        for s, m in mu.entries))
                     for _ in range(2)]
            for nodes in (copies, dists):
                hashes = [None, None]
                hashes[first] = hash(nodes[first])
                hashes[1 - first] = hash(nodes[1 - first])
                assert nodes[0] == nodes[1] == (t if nodes is copies else mu)
                assert hashes[0] == hashes[1] == hash(nodes[0])
                # the value of the generated dataclass hash
                assert hashes[0] == hash(tuple(
                    getattr(nodes[0], f.name) for f in fields(nodes[0])))


def _chain(depth):
    t = ZERO_TERM
    for _ in range(depth):
        t = Prefix(Action("a"), Dirac(t))
    return t


def test_second_hash_of_a_deep_chain_needs_no_recursion():
    t = _chain(150)
    mu = den(Dirac(t))
    first = hash(t), hash(mu)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        again = hash(t), hash(mu)
    finally:
        sys.setrecursionlimit(limit)
    assert again == first


_LOOKUP = """
import pickle, sys
from probranch.parse import parse_term
table = pickle.load(sys.stdin.buffer)
for text in table.values():
    assert table[parse_term(text)] == text, text
print(len(table))
"""


def test_pickled_table_of_terms_loads_under_another_hash_seed():
    terms = list(_seeded_terms(10))
    table = {t: print_term(t) for t in terms}
    assert all(hash(t) == hash(_fresh_copy(t)) for t in terms)
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(Path(probranch.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", _LOOKUP],
                          input=pickle.dumps(table), env=env,
                          capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr.decode()
    assert int(done.stdout) == len(table)
