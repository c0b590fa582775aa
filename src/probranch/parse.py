"""Concrete text grammar for terms, with an exact round-tripping printer.

    ndterm   := summand ('+' summand)*          (left-nested)
    summand  := '0' | action '.' patom | '(' ndterm ')'
    patom    := 'D' '(' ndterm ')' | '(' pterm ')'
    pterm    := patom ('+[' rational ']' pterm)?   (right-associative)
    rational := integer '/' positive-integer
    action   := [a-z][a-z0-9_]*                 ('tau' is the silent action)

Choice weights outside (0,1) are rejected at parse time.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .rat import ZERO, ONE, rat
from .terms import (
    Action,
    Dirac,
    NdTerm,
    PChoice,
    Prefix,
    PTerm,
    Sum,
    Zero,
    ZERO_TERM,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int, token: str):
        super().__init__(f"{message} at {line}:{column} (token {token!r})")
        self.line = line
        self.column = column
        self.token = token


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


def print_nd(term: NdTerm) -> str:
    if isinstance(term, Zero):
        return "0"
    if isinstance(term, Prefix):
        return f"{term.action.name}.{_print_patom(term.body)}"
    if isinstance(term, Sum):
        left = print_nd(term.left)
        right = print_nd(term.right)
        if isinstance(term.right, Sum):
            right = f"({right})"
        return f"{left} + {right}"
    raise TypeError(f"not an NdTerm: {term!r}")


def _print_patom(p: PTerm) -> str:
    if isinstance(p, Dirac):
        return f"D({print_nd(p.body)})"
    return f"({print_p(p)})"


def print_p(p: PTerm) -> str:
    if isinstance(p, Dirac):
        return f"D({print_nd(p.body)})"
    if isinstance(p, PChoice):
        w = p.weight
        return f"{_print_patom(p.left)} +[{w.numerator}/{w.denominator}] {print_p(p.right)}"
    raise TypeError(f"not a PTerm: {p!r}")


def print_term(term) -> str:
    if isinstance(term, NdTerm):
        return print_nd(term)
    if isinstance(term, PTerm):
        return print_p(term)
    raise TypeError(f"not a term: {term!r}")
