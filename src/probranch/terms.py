"""Abstract syntax of the two-sorted calculus.

Non-deterministic terms::

    E ::= 0 | a.P | E + E

Probabilistic terms::

    P ::= D(E) | P +[r] Q        with 0 < r < 1

Terms are immutable trees; structural equality is syntactic identity.
A fixed total order (constructor tag, then action name, then recursive
comparison) is defined here and used by every normalizer so canonical
output is deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .rat import ZERO, ONE, is_rat

_ACTION_RE = re.compile(r"[a-z][a-z0-9_]*\Z")

TAU_NAME = "tau"


@dataclass(frozen=True)
class Action:
    name: str

    def __post_init__(self):
        if not _ACTION_RE.match(self.name):
            raise ValueError(f"invalid action name: {self.name!r}")

    @property
    def is_tau(self) -> bool:
        return self.name == TAU_NAME

    def __repr__(self):
        return f"Action({self.name})"


TAU = Action(TAU_NAME)


class NdTerm:
    """Base class for non-deterministic terms."""

    __slots__ = ()


class PTerm:
    """Base class for probabilistic terms."""

    __slots__ = ()


@dataclass(frozen=True, repr=False)
class Zero(NdTerm):
    __slots__ = ()

    def __repr__(self):
        return "0"


@dataclass(frozen=True, repr=False)
class Prefix(NdTerm):
    action: Action
    body: "PTerm"

    def __repr__(self):
        return f"{self.action.name}.{self.body!r}"


@dataclass(frozen=True, repr=False)
class Sum(NdTerm):
    left: NdTerm
    right: NdTerm

    def __repr__(self):
        return f"({self.left!r} + {self.right!r})"


@dataclass(frozen=True, repr=False)
class Dirac(PTerm):
    body: NdTerm

    def __repr__(self):
        return f"D({self.body!r})"


@dataclass(frozen=True, repr=False)
class PChoice(PTerm):
    left: PTerm
    weight: object  # exact rational, strictly between 0 and 1
    right: PTerm

    def __post_init__(self):
        w = self.weight
        if not is_rat(w) or not (ZERO < w < ONE):
            raise ValueError(f"probabilistic choice weight must be in (0,1): {w!r}")

    def __repr__(self):
        return f"({self.left!r} +[{self.weight}] {self.right!r})"


ZERO_TERM = Zero()


def mk_sum(*terms: NdTerm) -> NdTerm:
    """Left-nested sum of the given terms; 0 for the empty list."""
    if not terms:
        return ZERO_TERM
    out = terms[0]
    for t in terms[1:]:
        out = Sum(out, t)
    return out


def summands(term: NdTerm) -> list[NdTerm]:
    """Flatten nested sums into the list of non-Sum summands."""
    out: list[NdTerm] = []
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Sum):
            stack.append(t.right)
            stack.append(t.left)
        else:
            out.append(t)
    return out


def action_key(a: Action):
    # tau sorts before every visible action
    return (0, "") if a.is_tau else (1, a.name)


@lru_cache(maxsize=None)
def nd_key(term: NdTerm):
    if isinstance(term, Zero):
        return (0,)
    if isinstance(term, Prefix):
        return (1, action_key(term.action), p_key(term.body))
    if isinstance(term, Sum):
        return (2, nd_key(term.left), nd_key(term.right))
    raise TypeError(f"not an NdTerm: {term!r}")


@lru_cache(maxsize=None)
def p_key(term: PTerm):
    if isinstance(term, Dirac):
        return (0, nd_key(term.body))
    if isinstance(term, PChoice):
        return (
            1,
            p_key(term.left),
            (term.weight.numerator, term.weight.denominator),
            p_key(term.right),
        )
    raise TypeError(f"not a PTerm: {term!r}")


@lru_cache(maxsize=None)
def complexity(term) -> int:
    """Structural complexity: c(0)=0, c(a.P)=c(P)+1, c(E+F)=c(E)+c(F),
    c(D(E))=c(E)+1, c(P +[r] Q)=c(P)+c(Q)."""
    if isinstance(term, Zero):
        return 0
    if isinstance(term, Prefix):
        return complexity(term.body) + 1
    if isinstance(term, Sum):
        return complexity(term.left) + complexity(term.right)
    if isinstance(term, Dirac):
        return complexity(term.body) + 1
    if isinstance(term, PChoice):
        return complexity(term.left) + complexity(term.right)
    raise TypeError(f"not a term: {term!r}")


def is_nd_fragment(term) -> bool:
    """True when every prefix body is a Dirac (the purely
    non-deterministic sublanguage, with a.E read as a.D(E))."""
    if isinstance(term, Zero):
        return True
    if isinstance(term, Prefix):
        return isinstance(term.body, Dirac) and is_nd_fragment(term.body.body)
    if isinstance(term, Sum):
        return is_nd_fragment(term.left) and is_nd_fragment(term.right)
    if isinstance(term, Dirac):
        return is_nd_fragment(term.body)
    if isinstance(term, PChoice):
        return False
    raise TypeError(f"not a term: {term!r}")
