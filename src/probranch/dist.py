"""Finite-support exact-rational distributions over non-deterministic terms,
decompositions, and the structural measures built on them.

A Distribution, like a term, computes its hash on the first call and
keeps it (see ``terms.hash_once``)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

from .rat import ZERO, ONE, rat
from .terms import (
    Dirac,
    Hashed,
    NdTerm,
    PChoice,
    Prefix,
    PTerm,
    Zero,
    ZERO_TERM,
    complexity,
    hash_once,
    nd_key,
    summands,
)


class WeightSumError(ValueError):
    """Decomposition weights do not sum to one."""


class MismatchError(ValueError):
    """Two decompositions do not recompose to the same distribution."""


@dataclass(frozen=True)
class Distribution(Hashed):
    """Probability distribution of finite support.

    Canonical form: entries sorted by the term order, equal support terms
    merged, zero masses dropped, masses summing to exactly 1.
    """

    entries: tuple  # tuple[(NdTerm, Rat), ...]

    __hash__ = hash_once

    def __post_init__(self):
        total = sum((m for _, m in self.entries), ZERO)
        if total != ONE:
            raise ValueError(f"masses must sum to 1, got {total}")
        for _, m in self.entries:
            if m <= ZERO:
                raise ValueError("masses must be positive")

    @property
    def support(self) -> tuple:
        return tuple(t for t, _ in self.entries)

    def mass(self, term: NdTerm):
        for t, m in self.entries:
            if t == term:
                return m
        return ZERO

    def items(self):
        return self.entries

    def class_mass(self, terms: Iterable[NdTerm]):
        """Total mass the distribution assigns to a set of states."""
        wanted = set(terms)
        return sum((m for t, m in self.entries if t in wanted), ZERO)

    def __repr__(self):
        inner = ", ".join(f"{t!r}: {m}" for t, m in self.entries)
        return "{" + inner + "}"


def distribution(masses: Mapping[NdTerm, object] | Iterable) -> Distribution:
    """Build a canonical Distribution from a mapping or (term, mass) pairs."""
    items = masses.items() if isinstance(masses, Mapping) else masses
    acc: dict[NdTerm, object] = {}
    for term, m in items:
        m = m if not isinstance(m, int) else rat(m)
        if m == ZERO:
            continue
        acc[term] = acc.get(term, ZERO) + m
    entries = tuple(sorted(((t, m) for t, m in acc.items() if m != ZERO),
                           key=lambda e: nd_key(e[0])))
    return Distribution(entries)


def dirac(term: NdTerm) -> Distribution:
    return Distribution(((term, ONE),))


def dist_key(mu: Distribution):
    return tuple((nd_key(t), m.numerator, m.denominator) for t, m in mu.entries)


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


def mix(mu: Distribution, r, nu: Distribution) -> Distribution:
    """mu with probability r, nu with probability 1-r."""
    return convex_sum(Decomposition(((r, mu), (ONE - r, nu))))


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


@lru_cache(maxsize=None)
def den(p: PTerm) -> Distribution:
    """The unique distribution a probabilistic term maps to."""
    if isinstance(p, Dirac):
        return dirac(p.body)
    if isinstance(p, PChoice):
        return mix(den(p.left), p.weight, den(p.right))
    raise TypeError(f"not a PTerm: {p!r}")


def pterm_of_distribution(mu: Distribution) -> PTerm:
    """Canonical right-nested probabilistic term denoting mu."""
    entries = mu.entries
    if len(entries) == 1:
        return Dirac(entries[0][0])
    head, head_mass = entries[0]
    rest = distribution({t: m / (ONE - head_mass) for t, m in entries[1:]})
    return PChoice(Dirac(head), head_mass, pterm_of_distribution(rest))


@lru_cache(maxsize=None)
def derivatives(term) -> frozenset:
    """All states reachable from a term, the term's own states included.

    der(P +[r] Q) = der(P) u der(Q);
    der(D(E))     = {E} u the derivatives of every prefix body of E.
    For a state E, der(E) is der(D(E)).
    """
    if isinstance(term, NdTerm):
        return derivatives(Dirac(term))
    if isinstance(term, PChoice):
        return derivatives(term.left) | derivatives(term.right)
    if isinstance(term, Dirac):
        state = term.body
        out = {state}
        for s in summands(state):
            if isinstance(s, Prefix):
                out |= derivatives(s.body)
            elif not isinstance(s, Zero):
                raise TypeError(f"not a term: {s!r}")
        return frozenset(out)
    raise TypeError(f"not a term: {term!r}")
