"""Distributions, and the decomposition algebra of the paper's
definitions, which the deciders never build: decompositions, convex
sums, joint refinements, weights and class masses."""

from dataclasses import dataclass
from typing import Iterable

import pytest

from probranch.dist import (
    Distribution,
    den,
    derivatives,
    dirac,
    distribution,
    mix,
)
from probranch.parse import parse_nd, parse_p
from probranch.rat import ONE, ZERO, rat
from probranch.terms import ZERO_TERM, Dirac, NdTerm, PChoice, PTerm, complexity


def nd(s):
    return parse_nd(s)


def pt(s):
    return parse_p(s)


class WeightSumError(ValueError):
    """Decomposition weights do not sum to one."""


class MismatchError(ValueError):
    """Two decompositions do not recompose to the same distribution."""


@dataclass(frozen=True)
class Decomposition:
    """Ordered weighted list of component distributions.

    Unlike Distribution, repeats are kept and zero weights are allowed;
    only the weight sum is constrained.
    """

    parts: tuple  # tuple[(Rat, Distribution), ...]

    def __post_init__(self):
        total = sum((w for w, _ in self.parts), ZERO)
        if total != ONE:
            raise WeightSumError(f"decomposition weights must sum to 1, got {total}")
        for w, _ in self.parts:
            if w < ZERO:
                raise WeightSumError("decomposition weights must be non-negative")


def decomposition(parts: Iterable) -> Decomposition:
    return Decomposition(tuple((rat(w) if isinstance(w, int) else w, d)
                               for w, d in parts))


def convex_sum(parts: Decomposition) -> Distribution:
    """Pointwise weighted sum of the component distributions."""
    acc: dict[NdTerm, object] = {}
    for w, comp in parts.parts:
        if w == ZERO:
            continue
        for t, m in comp.entries:
            acc[t] = acc.get(t, ZERO) + w * m
    return distribution(acc)


def joint_refinement(d1: Decomposition, d2: Decomposition):
    """Common refinement of two decompositions of the same distribution.

    Returns a matrix of (r_ij, rho_ij) cells with row sums the d1 weights,
    column sums the d2 weights, and p_i*mu_i = (+)_j r_ij*rho_ij as well as
    q_j*nu_j = (+)_i r_ij*rho_ij.  Cells with r_ij = 0 carry the point mass
    on 0 as a placeholder.
    """
    xi = convex_sum(d1)
    if xi != convex_sum(d2):
        raise MismatchError("decompositions recompose to different distributions")
    placeholder = dirac(ZERO_TERM)
    matrix = []
    for p_i, mu_i in d1.parts:
        row = []
        for q_j, nu_j in d2.parts:
            r_ij = sum((p_i * mu_i.mass(t) * q_j * nu_j.mass(t) / m
                        for t, m in xi.entries), ZERO)
            if r_ij == ZERO:
                row.append((ZERO, placeholder))
                continue
            cell = {}
            for t, m in xi.entries:
                val = p_i * mu_i.mass(t) * q_j * nu_j.mass(t) / (r_ij * m)
                if val != ZERO:
                    cell[t] = val
            row.append((r_ij, distribution(cell)))
        matrix.append(tuple(row))
    return tuple(matrix)


def weight(mu: Distribution):
    """Average structural complexity of the support, weighted by mass."""
    return sum((m * complexity(t) for t, m in mu.entries), ZERO)


def class_mass(mu: Distribution, terms: Iterable[NdTerm]):
    """Total mass the distribution assigns to a set of states."""
    wanted = set(terms)
    return sum((m for t, m in mu.entries if t in wanted), ZERO)


def pterm_of_distribution(mu: Distribution) -> PTerm:
    """Canonical right-nested probabilistic term denoting mu."""
    entries = mu.entries
    if len(entries) == 1:
        return Dirac(entries[0][0])
    head, head_mass = entries[0]
    rest = distribution({t: m / (ONE - head_mass) for t, m in entries[1:]})
    return PChoice(Dirac(head), head_mass, pterm_of_distribution(rest))


def test_den_dirac():
    assert den(pt("D(0)")) == dirac(ZERO_TERM)


def test_den_pchoice_forced():
    mu = den(pt("D(a.D(0)) +[1/3] D(0)"))
    assert mu.mass(nd("a.D(0)")) == rat(1, 3)
    assert mu.mass(ZERO_TERM) == rat(2, 3)


def test_den_merges_equal_support():
    mu = den(pt("D(0) +[1/2] D(0)"))
    assert mu == dirac(ZERO_TERM)


def test_distribution_invariants():
    with pytest.raises(ValueError):
        distribution({ZERO_TERM: rat(1, 2)})  # mass sum != 1
    mu = distribution({ZERO_TERM: rat(1, 2), nd("a.D(0)"): rat(1, 2)})
    assert all(m > ZERO for _, m in mu.entries)


def test_convex_sum_unit_weight():
    mu = den(pt("D(a.D(0)) +[1/2] D(0)"))
    assert convex_sum(decomposition([(ONE, mu)])) == mu


def test_convex_sum_half_half():
    e, f = nd("a.D(0)"), nd("b.D(0)")
    out = convex_sum(decomposition([(rat(1, 2), dirac(e)), (rat(1, 2), dirac(f))]))
    assert out.mass(e) == rat(1, 2) and out.mass(f) == rat(1, 2)


def test_convex_sum_zero_weight_dropped():
    mu, nu = dirac(nd("a.D(0)")), dirac(ZERO_TERM)
    out = convex_sum(decomposition([(ZERO, mu), (ONE, nu)]))
    assert out == nu


def test_convex_sum_weight_error():
    with pytest.raises(WeightSumError):
        decomposition([(rat(1, 2), dirac(ZERO_TERM))])


def test_joint_refinement_identical_diagonal():
    e, f = nd("a.D(0)"), nd("b.D(0)")
    d = decomposition([(rat(1, 2), dirac(e)), (rat(1, 2), dirac(f))])
    matrix = joint_refinement(d, d)
    assert matrix[0][0][0] == rat(1, 2) and matrix[0][0][1] == dirac(e)
    assert matrix[1][1][0] == rat(1, 2) and matrix[1][1][1] == dirac(f)
    assert matrix[0][1][0] == ZERO and matrix[1][0][0] == ZERO


def test_joint_refinement_against_trivial():
    e, f = nd("a.D(0)"), nd("b.D(0)")
    xi = mix(dirac(e), rat(1, 2), dirac(f))
    d1 = decomposition([(rat(1, 2), dirac(e)), (rat(1, 2), dirac(f))])
    d2 = decomposition([(ONE, xi)])
    matrix = joint_refinement(d1, d2)
    # collapses to r_i1 = p_i, rho_i1 = mu_i
    assert matrix[0][0] == (rat(1, 2), dirac(e))
    assert matrix[1][0] == (rat(1, 2), dirac(f))


def test_joint_refinement_equations_hold():
    # row sums/column sums and the recomposition equations, on a mixed case
    e, f, g = nd("a.D(0)"), nd("b.D(0)"), ZERO_TERM
    xi = distribution({e: rat(1, 2), f: rat(1, 4), g: rat(1, 4)})
    d1 = decomposition([
        (rat(1, 2), distribution({e: rat(1, 2), f: rat(1, 2)})),
        (rat(1, 2), distribution({e: rat(1, 2), g: rat(1, 2)})),
    ])
    d2 = decomposition([(rat(1, 2), dirac(e)),
                        (rat(1, 2), distribution({f: rat(1, 2), g: rat(1, 2)}))])
    assert convex_sum(d1) == xi and convex_sum(d2) == xi
    matrix = joint_refinement(d1, d2)
    for i, (p_i, mu_i) in enumerate(d1.parts):
        assert sum((matrix[i][j][0] for j in range(2)), ZERO) == p_i
        recomposed = {}
        for j in range(2):
            r, rho = matrix[i][j]
            for t, m in rho.entries:
                recomposed[t] = recomposed.get(t, ZERO) + r * m
        for t, m in mu_i.entries:
            assert recomposed.get(t, ZERO) == p_i * m
    for j, (q_j, nu_j) in enumerate(d2.parts):
        assert sum((matrix[i][j][0] for i in range(2)), ZERO) == q_j


def test_joint_refinement_mismatch():
    d1 = decomposition([(ONE, dirac(ZERO_TERM))])
    d2 = decomposition([(ONE, dirac(nd("a.D(0)")))])
    with pytest.raises(MismatchError):
        joint_refinement(d1, d2)


def test_weight_examples():
    assert weight(dirac(ZERO_TERM)) == ZERO
    assert weight(dirac(nd("a.D(0)"))) == rat(2)
    mu = distribution({nd("a.D(0)"): rat(1, 2), ZERO_TERM: rat(1, 2)})
    assert weight(mu) == ONE


def test_class_mass():
    e, f = nd("a.D(0)"), nd("b.D(0)")
    mu = mix(dirac(e), rat(1, 3), dirac(f))
    assert class_mass(mu, set()) == ZERO
    assert class_mass(mu, set(mu.support)) == ONE
    assert class_mass(mu, {f}) == rat(2, 3)


def test_derivatives():
    assert derivatives(pt("D(0)")) == frozenset({ZERO_TERM})
    assert derivatives(pt("D(a.D(0))")) == frozenset({nd("a.D(0)"), ZERO_TERM})
    got = derivatives(pt("D(a.D(0)) +[1/2] D(b.D(0))"))
    assert got == frozenset({nd("a.D(0)"), nd("b.D(0)"), ZERO_TERM})


def test_pterm_of_distribution_roundtrip():
    mu = den(pt("D(a.D(0)) +[1/3] (D(b.D(0)) +[1/2] D(0))"))
    assert den(pterm_of_distribution(mu)) == mu


def test_convex_sum_flattening_matches_nested():
    # nested decompositions flatten without changing the result
    rng_weights = [(rat(1, 2), rat(1, 3)), (rat(2, 5), rat(1, 4))]
    e, f, g = nd("a.D(0)"), nd("b.D(0)"), ZERO_TERM
    for w1, w2 in rng_weights:
        inner = convex_sum(decomposition([(w2, dirac(e)),
                                          (ONE - w2, dirac(f))]))
        nested = convex_sum(decomposition([(w1, inner), (ONE - w1, dirac(g))]))
        flat = convex_sum(decomposition([
            (w1 * w2, dirac(e)), (w1 * (ONE - w2), dirac(f)),
            (ONE - w1, dirac(g))]))
        assert nested == flat


def test_joint_refinement_randomized_equations():
    import random

    from probranch.harness import GenConfig, gen_p

    rng = random.Random(5)
    for trial in range(25):
        xi = den(gen_p(GenConfig(seed=trial, max_complexity=6)))
        # random decompositions of xi: split every mass point in two parts
        def random_decomposition():
            parts = []
            for t, m in xi.entries:
                cut = rat(rng.randint(0, 4), 4)
                if cut != 0:
                    parts.append((m * cut, dirac(t)))
                if cut != 1:
                    parts.append((m * (ONE - cut), dirac(t)))
            k = rng.randint(1, len(parts))
            merged = parts[:k - 1]
            tail = parts[k - 1:]
            w = sum((p for p, _ in tail), rat(0))
            merged.append((w, convex_sum(decomposition(
                [(p / w, d) for p, d in tail]))))
            return decomposition(merged)

        d1, d2 = random_decomposition(), random_decomposition()
        matrix = joint_refinement(d1, d2)
        for i, (p_i, mu_i) in enumerate(d1.parts):
            assert sum((matrix[i][j][0] for j in range(len(d2.parts))),
                       rat(0)) == p_i
            recomposed = {}
            for j in range(len(d2.parts)):
                r, rho = matrix[i][j]
                for t, m in rho.entries:
                    recomposed[t] = recomposed.get(t, rat(0)) + r * m
            for t in xi.support:
                assert recomposed.get(t, rat(0)) == p_i * mu_i.mass(t)
        for j, (q_j, nu_j) in enumerate(d2.parts):
            assert sum((matrix[i][j][0] for i in range(len(d1.parts))),
                       rat(0)) == q_j
            recomposed = {}
            for i in range(len(d1.parts)):
                r, rho = matrix[i][j]
                for t, m in rho.entries:
                    recomposed[t] = recomposed.get(t, rat(0)) + r * m
            for t in xi.support:
                assert recomposed.get(t, rat(0)) == q_j * nu_j.mass(t)
