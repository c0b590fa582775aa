"""Concrete text grammar for terms, with an exact round-tripping printer.

    ndterm   := summand ('+' summand)*          (left-nested)
    summand  := '0' | action '.' patom | '(' ndterm ')'
    patom    := 'D' '(' ndterm ')' | '(' pterm ')'
    pterm    := patom ('+[' rational ']' pterm)?   (right-associative)
    rational := integer '/' positive-integer
    action   := [a-z][a-z0-9_]*                 ('tau' is the silent action)

Choice weights outside (0,1) are rejected at parse time.

One regular-expression scan turns the text into a list of plain token
strings: whitespace is skipped, and a character that starts no token
becomes a one-character token that no rule accepts.  A recursive descent
reads the list by index, two Python frames per level of ``a.D(...)``
nesting.  The first token picks the sort: ``D`` starts only a
probabilistic term, and anything but ``(`` only a non-deterministic one,
so only a leading ``(`` tries both parses.  A failing rule names the
index of the token it stopped at, and only then is the text scanned
again, for the token's line and column and for a character that starts
no token, which is reported first wherever it is.
"""

from __future__ import annotations

import re

from .rat import rat
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


_LEXEME = r"\+\[|[+().\]/D]|\d+|[a-z][a-z0-9_]*"
_LEXEME_RE = re.compile(_LEXEME)
_SCAN_RE = re.compile(rf"\s*({_LEXEME}|\S)")


def _tokenize(text: str) -> list[str]:
    """The tokens of the text, then "" for its end."""
    tokens = _SCAN_RE.findall(text)
    tokens.append("")
    return tokens


class _Stop(Exception):
    """A rule failed with `message` at token `index`."""

    def __init__(self, message: str, index: int):
        self.message = message
        self.index = index


def _nd(tokens: list, i: int):
    """An ndterm from token i: (term, index of the token after it)."""
    term = None
    while True:
        tok = tokens[i]
        if tok == "0":
            summand = ZERO_TERM
            i += 1
        elif "a" <= tok < "{":  # an action name
            if tokens[i + 1] != ".":
                raise _Stop("expected '.' after action", i + 1)
            body, i = _patom(tokens, i + 2)
            summand = Prefix(Action(tok), body)
        elif tok == "(":
            summand, i = _nd(tokens, i + 1)
            if tokens[i] != ")":
                raise _Stop("expected ')'", i)
            i += 1
        else:
            raise _Stop("expected '0', an action prefix, or '('", i)
        term = summand if term is None else Sum(term, summand)
        if tokens[i] != "+":
            return term, i
        i += 1


def _patom(tokens: list, i: int):
    tok = tokens[i]
    if tok == "D":
        if tokens[i + 1] != "(":
            raise _Stop("expected '(' after 'D'", i + 1)
        body, i = _nd(tokens, i + 2)
        term = Dirac(body)
    elif tok == "(":
        term, i = _pterm(tokens, i + 1)
    else:
        raise _Stop("expected 'D(' or '('", i)
    if tokens[i] != ")":
        raise _Stop("expected ')'", i)
    return term, i + 1


def _pterm(tokens: list, i: int):
    left, i = _patom(tokens, i)
    if tokens[i] != "+[":
        return left, i
    if not tokens[i + 1].isdecimal():
        raise _Stop("expected an integer numerator", i + 1)
    if tokens[i + 2] != "/":
        raise _Stop("expected '/'", i + 2)
    if not tokens[i + 3].isdecimal():
        raise _Stop("expected a positive denominator", i + 3)
    num, den = int(tokens[i + 1]), int(tokens[i + 3])
    if den == 0:
        raise _Stop("zero denominator", i + 3)
    if tokens[i + 4] != "]":
        raise _Stop("expected ']'", i + 4)
    if not 0 < num < den:
        raise _Stop(f"choice weight {rat(num, den)} outside (0,1)", i + 1)
    right, i = _pterm(tokens, i + 5)
    return PChoice(left, rat(num, den), right), i


def _error(text: str, tokens: list, stop: _Stop) -> ParseError:
    """The ParseError of `stop`, or of the first character of the text
    that starts no token."""
    message, index = stop.message, stop.index
    for k, tok in enumerate(tokens[:-1]):
        if not _LEXEME_RE.fullmatch(tok):
            message, index = "unexpected character", k
            break
    ends = [m.end() for m in _SCAN_RE.finditer(text)]
    ends.append(len(text))
    offset = ends[index] - len(tokens[index])
    line = text.count("\n", 0, offset) + 1
    column = offset - text.rfind("\n", 0, offset)
    return ParseError(message, line, column, tokens[index] or "<eof>")


def _parse(text: str, tokens: list, rules: tuple):
    """The term of the first rule that reads all the tokens; when none
    does, the error of the one that got further, the first on a tie."""
    stop = None
    for rule in rules:
        try:
            term, i = rule(tokens, 0)
            if tokens[i]:
                raise _Stop("trailing input", i)
            return term
        except _Stop as exc:
            if stop is None or exc.index > stop.index:
                stop = exc
    raise _error(text, tokens, stop)


def parse_nd(text: str) -> NdTerm:
    return _parse(text, _tokenize(text), (_nd,))


def parse_p(text: str) -> PTerm:
    return _parse(text, _tokenize(text), (_pterm,))


def parse_term(text: str):
    """Parse either sort.  Only a leading '(' can start both, and then the
    non-deterministic parse is tried first; when neither parses, the error
    is that of the parse that got further, the non-deterministic one on a
    tie.  Any other first token fails the other sort's parse at once, so
    that parse is not tried."""
    tokens = _tokenize(text)
    first = tokens[0]
    rules = ((_pterm,) if first == "D"
             else (_nd, _pterm) if first == "(" else (_nd,))
    return _parse(text, tokens, rules)


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
