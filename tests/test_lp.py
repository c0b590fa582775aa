import os
import random
import subprocess
import sys
from pathlib import Path

import probranch
from probranch import lp as lp_module
from probranch.equivalence import decide, is_concrete
from probranch.harness import GenConfig, gen_nd
from probranch.lp import LP
from probranch.rat import ONE, ZERO, rat
from probranch.terms import TAU, Dirac, Prefix, Sum


def test_feasible_simple():
    lp = LP()
    lp.var("x")
    lp.var("y")
    lp.add_eq({"x": rat(1), "y": rat(1)}, rat(1))
    sol = lp.feasible()
    assert sol is not None
    assert sol["x"] + sol["y"] == rat(1)
    assert sol["x"] >= 0 and sol["y"] >= 0


def test_infeasible():
    lp = LP()
    lp.var("x")
    lp.add_eq({"x": rat(1)}, rat(-1))
    assert lp.feasible() is None


def test_infeasible_conflicting():
    lp = LP()
    lp.var("x")
    lp.add_eq({"x": rat(1)}, rat(1, 3))
    lp.add_eq({"x": rat(2)}, rat(1))
    assert lp.feasible() is None


def test_minimize_exact():
    # min x + 2y st x + y = 1, y <= 1/3  ->  x = 1, y = 0
    lp = LP()
    lp.var("x")
    lp.var("y")
    lp.add_eq({"x": rat(1), "y": rat(1)}, rat(1))
    lp.add_le({"y": rat(1)}, rat(1, 3))
    sol = lp.minimize({"x": rat(1), "y": rat(2)})
    assert sol["__value__"] == rat(1)
    assert sol["x"] == rat(1)


def test_minimize_prefers_cheap_var():
    # min x st x + y = 1, x >= y  (i.e. y - x <= 0) -> x = 1/2
    lp = LP()
    lp.var("x")
    lp.var("y")
    lp.add_eq({"x": rat(1), "y": rat(1)}, rat(1))
    lp.add_le({"y": rat(1), "x": rat(-1)}, rat(0))
    sol = lp.minimize({"x": rat(1)})
    assert sol["__value__"] == rat(1, 2)
    assert sol["x"] == rat(1, 2)
    assert sol["y"] == rat(1, 2)


def test_maximize():
    lp = LP()
    lp.var("x")
    lp.var("y")
    lp.add_eq({"x": rat(1), "y": rat(1)}, rat(1))
    sol = lp.maximize({"x": rat(1, 2)})
    assert sol["__value__"] == rat(1, 2)
    assert sol["x"] == rat(1)


def test_degenerate_redundant_rows():
    lp = LP()
    lp.var("x")
    lp.var("y")
    lp.add_eq({"x": rat(1), "y": rat(1)}, rat(1))
    lp.add_eq({"x": rat(2), "y": rat(2)}, rat(2))
    sol = lp.minimize({"y": rat(1)})
    assert sol is not None
    assert sol["y"] == rat(0)
    assert sol["x"] == rat(1)


def test_exactness_with_awkward_fractions():
    lp = LP()
    for name in ("a", "b", "c"):
        lp.var(name)
    lp.add_eq({"a": rat(1, 3), "b": rat(1, 7), "c": rat(1)}, rat(22, 21))
    lp.add_eq({"a": rat(1), "b": rat(1), "c": rat(1)}, rat(3))
    sol = lp.minimize({"c": rat(1)})
    assert sol is not None
    total = rat(1, 3) * sol["a"] + rat(1, 7) * sol["b"] + sol["c"]
    assert total == rat(22, 21)


# ---------------------------------------------------------------------------
# The engine against the dense Fraction tableau it replaced.  The oracle
# below is that solver, kept verbatim: same phases, same Bland pivots, so
# the engine must return the identical point and optimum, not only the
# same verdict (the prover reads its weights from these points).


def _dense_standard_form(lp):
    n = len(lp._names)
    rows = []
    rhs = []
    n_slack = sum(1 for _, rel, _ in lp._rows if rel == "<=")
    total = n + n_slack
    slack_at = n
    for coeffs, rel, b in lp._rows:
        row = [ZERO] * total
        for j, c in coeffs.items():
            row[j] = c
        if rel == "<=":
            row[slack_at] = ONE
            slack_at += 1
        if b < ZERO:
            row = [-c for c in row]
            b = -b
        rows.append(row)
        rhs.append(b)
    return rows, rhs, total


def _oracle_minimize(lp, objective):
    rows, rhs, total = _dense_standard_form(lp)
    cost = [ZERO] * total
    for name, c in objective.items():
        cost[lp._index[name]] += c
    solution = _simplex(rows, rhs, cost)
    if solution is None:
        return None
    x, value = solution
    out = {name: x[j] for name, j in lp._index.items()}
    out["__value__"] = value
    return out


def _simplex(rows, rhs, cost):
    """Solve min cost.x st rows.x = rhs, x >= 0 (rhs >= 0 on entry).

    Returns (x, value) or None when infeasible.  Unboundedness cannot
    occur for the bounded mass/flow polytopes built in this package but
    is reported as a ValueError defensively.
    """
    m = len(rows)
    n = len(rows[0]) if m else len(cost)
    if m == 0:
        return [ZERO] * n, ZERO

    # Phase 1 tableau with one artificial variable per row.
    width = n + m
    tab = [list(rows[i]) + [ONE if k == i else ZERO for k in range(m)] + [rhs[i]]
           for i in range(m)]
    basis = [n + i for i in range(m)]
    # Reduced-cost row z_j - c_j for min sum(artificials); the b-cell
    # holds the current objective value (the artificial mass left).
    zrow = [ZERO] * (width + 1)
    for i in range(m):
        for j in range(n):
            zrow[j] += tab[i][j]
        zrow[width] += tab[i][width]

    _pivot_to_optimum(tab, basis, zrow, width)
    if zrow[width] != ZERO:
        return None  # min sum of artificials > 0: infeasible

    # Drive remaining artificials out of the basis; drop redundant rows.
    keep = []
    for i in range(m):
        if basis[i] >= n:
            pivot_col = next((j for j in range(n) if tab[i][j] != ZERO), None)
            if pivot_col is None:
                continue  # redundant row
            _pivot(tab, basis, zrow, i, pivot_col, width)
        keep.append(i)
    tab = [tab[i] for i in keep]
    basis = [basis[i] for i in keep]
    m = len(tab)

    # Phase 2 with the real objective (artificial columns masked off).
    for row in tab:
        for j in range(n, width):
            row[j] = ZERO
    zrow = [ZERO] * (width + 1)
    for j in range(n):
        zrow[j] = -cost[j]
    for i in range(m):
        cb = cost[basis[i]] if basis[i] < n else ZERO
        if cb != ZERO:
            for j in range(width + 1):
                zrow[j] += cb * tab[i][j]
    for j in range(n, width):
        zrow[j] = -ONE  # forbid artificials from re-entering

    _pivot_to_optimum(tab, basis, zrow, width)

    x = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][width]
    return x, zrow[width]


def _pivot_to_optimum(tab, basis, zrow, width):
    # Maintain zrow[j] = z_j - c_j; optimal when all entries <= 0.
    while True:
        enter = None
        for j in range(width):
            if zrow[j] > ZERO:
                enter = j  # Bland: smallest index
                break
        if enter is None:
            return
        leave = None
        best = None
        for i in range(len(tab)):
            a = tab[i][enter]
            if a > ZERO:
                ratio = tab[i][width] / a
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise ValueError("LP unbounded; malformed constraint system")
        _pivot(tab, basis, zrow, leave, enter, width)


def _pivot(tab, basis, zrow, row, col, width):
    pivot_row = tab[row]
    p = pivot_row[col]
    if p != ONE:
        inv = ONE / p
        for j in range(width + 1):
            if pivot_row[j] != ZERO:
                pivot_row[j] *= inv
    for i, other in enumerate(tab):
        if i == row:
            continue
        f = other[col]
        if f != ZERO:
            for j in range(width + 1):
                if pivot_row[j] != ZERO:
                    other[j] -= f * pivot_row[j]
    f = zrow[col]
    if f != ZERO:
        for j in range(width + 1):
            if pivot_row[j] != ZERO:
                zrow[j] -= f * pivot_row[j]
    basis[row] = col


def _solve_both(lp, objective):
    """(engine answer, oracle answer); "unbounded" stands for the
    ValueError that both raise on an unbounded objective."""
    answers = []
    for solve in (lp.minimize, lambda obj: _oracle_minimize(lp, obj)):
        try:
            answers.append(solve(objective))
        except ValueError:
            answers.append("unbounded")
    return answers


_COEFFS = [rat(c) for c in ("0", "0", "0", "1", "1", "-1", "2", "1/2", "-1/3",
                            "3/4", "5/12", "-2")]


def _random_lp(rng: random.Random):
    """A small LP with the shapes the builders make and the ones they
    avoid: == and <= rows, negative right-hand sides, duplicate and
    scaled (redundant) rows, all-zero rows, zero right-hand sides (ratio
    ties) and conflicting rows."""
    lp = LP()
    names = [("v", k) for k in range(rng.randint(1, 6))]
    for name in names:
        lp.var(name)
    for _ in range(rng.randint(0, 6)):
        shape = rng.random()
        if lp._rows and shape < 0.15:
            coeffs, rel, b = rng.choice(lp._rows)
            k = rng.choice([rat(1), rat(2), rat(-1, 3)])
            named = {names[j]: k * c for j, c in coeffs.items()}
            (lp.add_eq if rel == "==" else lp.add_le)(named, k * b)
            continue
        if shape < 0.22:
            coeffs = {}
        else:
            coeffs = {name: rng.choice(_COEFFS) for name in names
                      if rng.random() < 0.6}
        rhs = rng.choice([rat(0), rat(0), rat(1), rat(-1), rat(2, 3),
                          rat(-5, 4), rat(3)])
        (lp.add_le if rng.random() < 0.4 else lp.add_eq)(coeffs, rhs)
    if rng.random() < 0.7:  # keep most objectives bounded
        lp.add_le({name: ONE for name in names}, rat(rng.randint(1, 4)))
    objective = {name: rng.choice(_COEFFS) for name in names
                 if rng.random() < 0.5}
    return lp, objective


def test_engine_matches_dense_oracle_on_random_lps():
    rng = random.Random(20240917)
    verdicts = set()
    for _ in range(600):
        lp, objective = _random_lp(rng)
        if rng.random() < 0.5:
            got, want = _solve_both(lp, objective)
        else:  # maximize: the oracle minimizes the negated objective
            try:
                got = lp.maximize(objective)
            except ValueError:
                got = "unbounded"
            _, want = _solve_both(lp, {k: -v for k, v in objective.items()})
            if isinstance(want, dict):
                want["__value__"] = -want["__value__"]
        assert got == want, (lp._rows, objective)
        verdicts.add("infeasible" if got is None else
                     got if got == "unbounded" else "solved")
    assert verdicts == {"infeasible", "unbounded", "solved"}


def _tied_lp(rng: random.Random):
    """A feasibility LP whose rows have equal right-hand sides and
    coefficients, so that ratio tests tie often: at a degenerate vertex
    the tie-break decides which of several feasible points is returned."""
    lp = LP()
    names = [("t", k) for k in range(rng.randint(5, 9))]
    for name in names:
        lp.var(name)
    for _ in range(rng.randint(3, 6)):
        r = rng.choice([1, 2, 3])
        coeffs = {name: rat(rng.choice([1, r])) for name in names
                  if rng.random() < 0.5}
        (lp.add_le if rng.random() < 0.3 else lp.add_eq)(coeffs, rat(r))
    return lp


def test_engine_matches_dense_oracle_on_ratio_ties():
    rng = random.Random(7)
    feasible = 0
    for _ in range(500):
        lp = _tied_lp(rng)
        got, want = _solve_both(lp, {})
        assert got == want, lp._rows
        feasible += got is not None
    assert feasible > 250


def _recorded_lps(monkeypatch):
    """Every LP that the deciders and `is_concrete` solve on a few
    seeded states, with the objective it was minimized under."""
    recorded = []
    minimize = LP.minimize

    def spy(lp, objective):
        recorded.append((lp, dict(objective)))
        return minimize(lp, objective)

    monkeypatch.setattr(LP, "minimize", spy)
    cfg = dict(max_complexity=6, actions=("a", "b"), tau_bias=rat(1, 3))
    for seed in range(4):
        e = gen_nd(GenConfig(seed=seed, **cfg))
        f = gen_nd(GenConfig(seed=seed + 100, **cfg))
        for relation in ("strong", "rooted-branching"):
            decide(relation, e, f)
            decide(relation, e, Sum(e, f))
    for seed in range(12):
        e = gen_nd(GenConfig(seed=seed, **cfg))
        is_concrete(Dirac(Sum(e, Prefix(TAU, Dirac(e)))))
    monkeypatch.undo()
    return recorded


def test_engine_matches_dense_oracle_on_recorded_lps(monkeypatch):
    recorded = _recorded_lps(monkeypatch)
    assert any(objective for _, objective in recorded)  # the maximize path
    feasible = 0
    for lp, objective in recorded:
        got, want = _solve_both(lp, objective)
        assert got == want, (lp._rows, objective)
        feasible += got is not None
    assert 0 < feasible < len(recorded)


_CONCRETE_LPS = """
from probranch.equivalence import _branching_analysis, is_concrete
from probranch.harness import GenConfig, gen_nd
from probranch.lp import LP
from probranch.rat import rat
from probranch.terms import TAU, Dirac, Prefix, Sum

solves = [0]
minimize = LP.minimize

def counted(lp, objective):
    solves[0] += 1
    return minimize(lp, objective)

LP.minimize = counted
counts = []
for seed in range(12):
    e = gen_nd(GenConfig(seed=seed, max_complexity=6, actions=("a", "b"),
                         tau_bias=rat(1, 3)))
    _branching_analysis.cache_clear()
    solves[0] = 0
    is_concrete(Dirac(Sum(e, Prefix(TAU, Dirac(e)))))
    counts.append(solves[0])
print(counts)
"""


def test_is_concrete_solves_as_many_lps_under_any_hash_seed():
    """On the is_concrete states of _recorded_lps, each with a cold
    analysis, the LP count is the same under hash seeds 0 and 1."""
    src = str(Path(probranch.__file__).resolve().parents[1])
    counts = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", _CONCRETE_LPS], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        counts.append(done.stdout)
    assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# The memo hands out fresh dicts, under each LP's own names, and is bounded.


def _one_row(names):
    lp = LP()
    for name in names:
        lp.var(name)
    lp.add_eq({names[0]: rat(1), names[1]: rat(2)}, rat(1))
    return lp


def test_memo_answer_survives_mutation():
    lp = _one_row(["x", "y"])
    first = lp.feasible()
    expected = dict(first)
    first["x"] = rat(7)
    first["__value__"] = rat(-1)
    first["z"] = rat(0)
    assert lp.feasible() == expected
    assert _one_row(["x", "y"]).feasible() == expected


def test_memo_keeps_each_lps_names():
    left = _one_row(["x", "y"]).feasible()
    right = _one_row([("p", 1), ("p", 2)]).feasible()
    assert set(left) == {"x", "y", "__value__"}
    assert set(right) == {("p", 1), ("p", 2), "__value__"}
    assert right[("p", 1)] == left["x"] and right[("p", 2)] == left["y"]


def test_memo_is_bounded():
    assert lp_module._simplex.cache_info().maxsize is not None
