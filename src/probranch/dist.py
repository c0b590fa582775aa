"""Finite-support exact-rational distributions over non-deterministic
terms, the denotation of probabilistic terms, and derivative sets.

A Distribution, like a term, computes its hash on the first call and
keeps it (see ``terms.hash_once``)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .rat import ZERO, ONE, rat
from .terms import (
    Dirac,
    Hashed,
    NdTerm,
    PChoice,
    Prefix,
    PTerm,
    Zero,
    hash_once,
    nd_key,
    summands,
)


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

    def __repr__(self):
        inner = ", ".join(f"{t!r}: {m}" for t, m in self.entries)
        return "{" + inner + "}"


def distribution(masses: dict | Iterable) -> Distribution:
    """Build a canonical Distribution from a dict or (term, mass) pairs.
    The test is for dict itself: an isinstance test against an abstract
    Mapping walks the ABC subclass tree on its first call in a process."""
    items = masses.items() if isinstance(masses, dict) else masses
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


def mix(mu: Distribution, r, nu: Distribution) -> Distribution:
    """mu with probability r, nu with probability 1-r."""
    return distribution([(t, r * m) for t, m in mu.entries]
                        + [(t, (ONE - r) * m) for t, m in nu.entries])


@lru_cache(maxsize=None)
def den(p: PTerm) -> Distribution:
    """The unique distribution a probabilistic term maps to."""
    if isinstance(p, Dirac):
        return dirac(p.body)
    if isinstance(p, PChoice):
        return mix(den(p.left), p.weight, den(p.right))
    raise TypeError(f"not a PTerm: {p!r}")


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
