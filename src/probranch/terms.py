"""Abstract syntax of the two-sorted calculus.

Non-deterministic terms::

    E ::= 0 | a.P | E + E

Probabilistic terms::

    P ::= D(E) | P +[r] Q        with 0 < r < 1

Terms are immutable trees; structural equality is syntactic identity.
A fixed total order (constructor tag, then action name, then recursive
comparison) is defined here and used by every normalizer so canonical
output is deterministic.

Each node computes its hash, its order key and its complexity on first
use and keeps them on itself, so a later call costs one attribute read
instead of a walk down the tree.  The hash is the one the generated
dataclass hash would give (the hash of the field tuple), so sets and
dicts iterate as they would without the cache.  Nothing is computed at
construction: the first hash of a term recurses one frame per node,
exactly as the generated hash does.  The cached values never leave the
process: a pickled node is rebuilt from its fields.

A state (an NdTerm) keeps two more facts, filled in by equivalence.py:
its shape, its strong class (``equivalence.shape``), and its reach,
the visible actions of its derivatives (``equivalence.reach``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .rat import is_rat

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


def _field_values(node) -> tuple:
    # a dataclass's __match_args__ names its fields in order
    return tuple([getattr(node, name) for name in node.__match_args__])


def hash_once(node) -> int:
    """``__hash__`` of the frozen dataclasses that key the caches: the
    hash of the field tuple, computed on the first call and kept on the
    node.  Each class binds it in its own body, which also keeps the
    dataclass decorator from generating a hash of its own."""
    h = node._hash
    if h is None:
        h = node.__dict__["_hash"] = hash(_field_values(node))
    return h


class Hashed:
    """Base of the classes whose ``__hash__`` is hash_once.  Pickling
    rebuilds an instance from its fields, so the cached hash, which
    depends on the interpreter's string hash seed, stays in the process."""

    __slots__ = ()
    _hash = None

    def __reduce__(self):
        return type(self), _field_values(self)


class NdTerm(Hashed):
    """Base class for non-deterministic terms."""

    __slots__ = ()
    _nd_key = None
    _complexity = None
    _shape = None
    _reach = None


class PTerm(Hashed):
    """Base class for probabilistic terms."""

    __slots__ = ()
    _p_key = None
    _complexity = None


# the generated hash of a dataclass without fields
_ZERO_HASH = hash(())


@dataclass(frozen=True, repr=False)
class Zero(NdTerm):
    __slots__ = ()
    _nd_key = (0,)
    _complexity = 0
    _shape = frozenset()
    _reach = frozenset()

    def __hash__(self):
        return _ZERO_HASH

    def __repr__(self):
        return "0"


@dataclass(frozen=True, repr=False)
class Prefix(NdTerm):
    action: Action
    body: "PTerm"

    __hash__ = hash_once

    def __repr__(self):
        return f"{self.action.name}.{self.body!r}"


@dataclass(frozen=True, repr=False)
class Sum(NdTerm):
    left: NdTerm
    right: NdTerm

    __hash__ = hash_once

    def __repr__(self):
        return f"({self.left!r} + {self.right!r})"


@dataclass(frozen=True, repr=False)
class Dirac(PTerm):
    body: NdTerm

    __hash__ = hash_once

    def __repr__(self):
        return f"D({self.body!r})"


@dataclass(frozen=True, repr=False)
class PChoice(PTerm):
    left: PTerm
    weight: object  # exact rational, strictly between 0 and 1
    right: PTerm

    __hash__ = hash_once

    def __post_init__(self):
        w = self.weight  # in lowest terms with a positive denominator
        if not is_rat(w) or not 0 < w.numerator < w.denominator:
            raise ValueError(f"probabilistic choice weight must be in (0,1): {w!r}")

    def __repr__(self):
        return f"({self.left!r} +[{self.weight}] {self.right!r})"


ZERO_TERM = Zero()


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


def nd_key(term: NdTerm):
    key = term._nd_key
    if key is None:
        if isinstance(term, Prefix):
            key = (1, action_key(term.action), p_key(term.body))
        elif isinstance(term, Sum):
            key = (2, nd_key(term.left), nd_key(term.right))
        else:
            raise TypeError(f"not an NdTerm: {term!r}")
        term.__dict__["_nd_key"] = key
    return key


def p_key(term: PTerm):
    key = term._p_key
    if key is None:
        if isinstance(term, Dirac):
            key = (0, nd_key(term.body))
        elif isinstance(term, PChoice):
            key = (1, p_key(term.left),
                   (term.weight.numerator, term.weight.denominator),
                   p_key(term.right))
        else:
            raise TypeError(f"not a PTerm: {term!r}")
        term.__dict__["_p_key"] = key
    return key


def complexity(term) -> int:
    """Structural complexity: c(0)=0, c(a.P)=c(P)+1, c(E+F)=c(E)+c(F),
    c(D(E))=c(E)+1, c(P +[r] Q)=c(P)+c(Q)."""
    c = term._complexity
    if c is None:
        if isinstance(term, (Prefix, Dirac)):
            c = complexity(term.body) + 1
        elif isinstance(term, (Sum, PChoice)):
            c = complexity(term.left) + complexity(term.right)
        else:
            raise TypeError(f"not a term: {term!r}")
        term.__dict__["_complexity"] = c
    return c


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
