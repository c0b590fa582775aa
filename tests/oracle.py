"""References for the cross-checks: the plain weak-derivative membership
test, which the deciders' flow LPs and the vertex enumeration of weak
closures are compared against, and the full-closure route of strong
bisimilarity, of the rooted first step and of the matching preorder,
which the deciders' route over the continuations' classes is compared
against, and the recursive-descent parser over a tuple per token, which
``parse_term``'s one-scan parser is compared against."""

from __future__ import annotations

import re
from typing import NamedTuple

from probranch.dist import Distribution, den, derivatives
from probranch.equivalence import (
    Verdict,
    _StrongCheck,
    _as_dist,
    _direct_step,
    _mismatch_witness,
    _profiles,
    branching_analysis,
    partition_from_classes,
    strong_partition,
)
from probranch.lp import LP
from probranch.parse import ParseError
from probranch.rat import ONE, ZERO, rat
from probranch.semantics import (
    add_flow_result,
    nd_transitions,
    tau_transition_list,
)
from probranch.terms import (
    Action,
    Dirac,
    NdTerm,
    PChoice,
    Prefix,
    PTerm,
    Sum,
    ZERO_TERM,
    nd_key,
)


def weak_reachable(mu: Distribution, nu: Distribution) -> bool:
    """mu => nu, decided by exact flow feasibility."""
    states = sorted(set().union(*(derivatives(s) for s in mu.support)),
                    key=nd_key)
    if not set(nu.support) <= set(states):
        return False
    lp = LP()
    res = add_flow_result(lp, "w", dict(mu.entries), states,
                          tau_transition_list(states))
    for st in states:
        lp.add_eq({res[st]: ONE}, nu.mass(st))
    return lp.feasible() is not None


def rooted_classes_full_closure(roots) -> tuple:
    """(partition, tables): the rooted-branching classes of the roots and
    the final branching tables of their whole joint closure, roots
    included.  The roots of each branching class are grouped by the
    first-step challenges they answer, one member per shape."""
    tables = branching_analysis(roots)
    by_class: dict = {}
    for s in sorted(set(roots), key=nd_key):
        by_class.setdefault(tables.partition.class_of(s), []).append(s)
    groups = []
    for members in by_class.values():
        groups.extend(_profiles(_StrongCheck(), tables, members).values())
    return partition_from_classes(groups), tables


def rooted_verdict_full_closure(left, right) -> Verdict:
    """The rooted-branching verdict, witness included, on the classes of
    rooted_classes_full_closure."""
    mu, nu = _as_dist(left), _as_dist(right)
    partition, tables = rooted_classes_full_closure(mu.support + nu.support)
    left_sig, right_sig = partition.sig(mu), partition.sig(nu)
    if left_sig == right_sig:
        return Verdict(True, "rooted-branching")
    return Verdict(False, "rooted-branching", _mismatch_witness(
        _StrongCheck(), tables, partition, left_sig, right_sig))


def strong_verdict_full_closure(left, right) -> Verdict:
    """The strong verdict, witness included, on the strong partition of
    the sides' whole joint closure, support states included: class
    masses compared, and a witness whose classes are those of that
    partition."""
    mu, nu = _as_dist(left), _as_dist(right)
    partition = strong_partition(mu.support + nu.support)
    left_sig, right_sig = partition.sig(mu), partition.sig(nu)
    if left_sig == right_sig:
        return Verdict(True, "strong")
    return Verdict(False, "strong", _mismatch_witness(
        _StrongCheck(), partition, partition, left_sig, right_sig))


def sqsubseteq_full_closure(state: NdTerm, p: PTerm) -> bool:
    """state ⊑ p on the final branching tables of the joint closure of
    the state and den(p)'s support."""
    target = den(p)
    stab_sig = branching_analysis((state,) + target.support).stab_sig
    return all(
        _direct_step(stab_sig, target, tr.action, stab_sig(tr.target),
                     partial=tr.action.is_tau) is not None
        for tr in nd_transitions(state))


# The parser that parse.parse_term replaced, unchanged: a tuple per token
# with its line and column, and a method call per token test.


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<PLUSSQ>\+\[)
  | (?P<PLUS>\+)
  | (?P<LPAR>\()
  | (?P<RPAR>\))
  | (?P<RSQ>\])
  | (?P<DOT>\.)
  | (?P<SLASH>/)
  | (?P<DIRAC>D)
  | (?P<INT>\d+)
  | (?P<IDENT>[a-z][a-z0-9_]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Token]:
    """One scan of the text; a gap between two matches, or after the
    last, is an unexpected character."""
    tokens = []
    line, col, pos = 1, 1, 0
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:
            break
        kind = m.lastgroup
        lexeme = m.group()
        if kind != "WS":
            tokens.append(_Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    if pos < len(text):
        raise ParseError("unexpected character", line, col, text[pos])
    tokens.append(_Token("EOF", "<eof>", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def error(self, message: str) -> ParseError:
        tok = self.current
        return ParseError(message, tok.line, tok.column, tok.text)

    def accept(self, kind: str):
        if self.current.kind == kind:
            tok = self.current
            self.pos += 1
            return tok
        return None

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.accept(kind)
        if tok is None:
            raise self.error(f"expected {what}")
        return tok

    def parse_ndterm(self) -> NdTerm:
        term = self.parse_summand()
        while self.accept("PLUS"):
            term = Sum(term, self.parse_summand())
        return term

    def parse_summand(self) -> NdTerm:
        if self.current.kind == "INT" and self.current.text == "0":
            self.pos += 1
            return ZERO_TERM
        if self.current.kind == "IDENT":
            name = self.accept("IDENT").text
            self.expect("DOT", "'.' after action")
            return Prefix(Action(name), self.parse_patom())
        if self.accept("LPAR"):
            term = self.parse_ndterm()
            self.expect("RPAR", "')'")
            return term
        raise self.error("expected '0', an action prefix, or '('")

    def parse_patom(self) -> PTerm:
        if self.accept("DIRAC"):
            self.expect("LPAR", "'(' after 'D'")
            body = self.parse_ndterm()
            self.expect("RPAR", "')'")
            return Dirac(body)
        if self.accept("LPAR"):
            term = self.parse_pterm()
            self.expect("RPAR", "')'")
            return term
        raise self.error("expected 'D(' or '('")

    def parse_pterm(self) -> PTerm:
        left = self.parse_patom()
        if self.accept("PLUSSQ"):
            first = self.current
            weight = self.parse_rational()
            self.expect("RSQ", "']'")
            if not (ZERO < weight < ONE):
                raise ParseError(f"choice weight {weight} outside (0,1)",
                                 first.line, first.column, first.text)
            right = self.parse_pterm()
            return PChoice(left, weight, right)
        return left

    def parse_rational(self):
        num = self.expect("INT", "an integer numerator")
        self.expect("SLASH", "'/'")
        den = self.expect("INT", "a positive denominator")
        if int(den.text) == 0:
            raise ParseError("zero denominator", den.line, den.column,
                             den.text)
        return rat(int(num.text), int(den.text))

    def finish(self, term):
        if self.current.kind != "EOF":
            raise self.error("trailing input")
        return term


def _parse(tokens: list[_Token], rule):
    p = _Parser(tokens)
    return p.finish(rule(p))


def parse_nd(text: str) -> NdTerm:
    return _parse(_tokenize(text), _Parser.parse_ndterm)


def parse_p(text: str) -> PTerm:
    return _parse(_tokenize(text), _Parser.parse_pterm)


def parse_term(text: str):
    """Parse either sort; non-deterministic terms are tried first.  When
    neither parses, the error is that of the parse that got further, the
    non-deterministic one on a tie.  The text is tokenized once, so a
    tokenizer error is raised before either parse."""
    tokens = _tokenize(text)
    try:
        return _parse(tokens, _Parser.parse_ndterm)
    except ParseError as nd_err:
        try:
            return _parse(tokens, _Parser.parse_pterm)
        except ParseError as p_err:
            further = ((p_err.line, p_err.column)
                       > (nd_err.line, nd_err.column))
            raise (p_err if further else nd_err) from None
