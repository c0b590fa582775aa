import sys

import pytest

import oracle
from probranch import parse
from probranch.harness import GenConfig, gen_nd, gen_p
from probranch.parse import (
    ParseError,
    parse_nd,
    parse_p,
    parse_term,
    print_nd,
    print_p,
    print_term,
)
from probranch.rat import rat
from probranch.terms import Action, Dirac, PChoice, Prefix, Sum, Zero, ZERO_TERM


def test_parse_basics():
    assert parse_nd("0") == ZERO_TERM
    t = parse_nd("a.D(0)")
    assert isinstance(t, Prefix) and t.action.name == "a"
    assert isinstance(t.body, Dirac)


def test_parse_sum_left_nested():
    t = parse_nd("a.D(0) + b.D(0) + c.D(0)")
    assert isinstance(t, Sum) and isinstance(t.left, Sum)


def test_parse_explicit_right_nesting():
    t = parse_nd("a.D(0) + (b.D(0) + c.D(0))")
    assert isinstance(t, Sum) and isinstance(t.right, Sum)
    assert not isinstance(t.left, Sum)


def test_parse_pchoice_right_assoc():
    p = parse_p("D(0) +[1/2] D(0) +[1/3] D(0)")
    assert isinstance(p, PChoice)
    assert isinstance(p.right, PChoice)
    assert p.weight == rat(1, 2)


def test_parse_weight_range_rejected():
    with pytest.raises(ParseError):
        parse_p("D(0) +[0/1] D(0)")
    with pytest.raises(ParseError):
        parse_p("D(0) +[1/1] D(0)")
    with pytest.raises(ParseError):
        parse_p("D(0) +[5/3] D(0)")


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as info:
        parse_nd("a.D(0) + + b.D(0)")
    assert info.value.line == 1
    assert info.value.column == 10


def test_whitespace_insensitive():
    a = parse_nd("a.D(0)+b.D(0)")
    b = parse_nd("  a . D( 0 )\n + b.D(0) ")
    assert a == b


def test_tau_is_action():
    t = parse_nd("tau.D(0)")
    assert t.action.is_tau


def test_roundtrip_nd():
    samples = [
        "0",
        "a.D(0)",
        "a.D(0) + b.D(0) + c.D(0)",
        "a.D(0) + (b.D(0) + c.D(0))",
        "tau.(D(a.D(0)) +[1/2] D(0)) + b.D(b.D(0))",
        "a.(D(0) +[1/3] (D(0) +[1/2] D(a.D(0))))",
        "a.((D(0) +[1/3] D(0)) +[1/2] D(a.D(0)))",
    ]
    for s in samples:
        t = parse_nd(s)
        assert parse_nd(print_nd(t)) == t


def test_roundtrip_p():
    samples = [
        "D(0)",
        "D(a.D(0)) +[1/2] D(0)",
        "(D(a.D(0)) +[1/2] D(0)) +[1/3] D(b.D(0))",
        "D(a.D(0)) +[1/2] (D(0) +[1/3] D(b.D(0)))",
    ]
    for s in samples:
        p = parse_p(s)
        assert parse_p(print_p(p)) == p


def test_parse_term_either_sort():
    assert isinstance(parse_term("a.D(0)"), Prefix)
    assert isinstance(parse_term("D(0) +[1/2] D(a.D(0))"), PChoice)
    assert isinstance(parse_term("(a.D(0))"), Prefix)
    assert isinstance(parse_term("(D(0) +[1/2] D(0))"), PChoice)


def test_parse_term_tokenizes_once(monkeypatch):
    texts = []
    tokenize = parse._tokenize
    monkeypatch.setattr(parse, "_tokenize",
                        lambda text: texts.append(text) or tokenize(text))
    assert isinstance(parse_term("D(0) +[1/2] D(a.D(0))"), PChoice)
    assert texts == ["D(0) +[1/2] D(a.D(0))"]


@pytest.mark.parametrize("text, message, position", [
    ("D(0) +[3/2] D(a.D(0))", "choice weight 3/2 outside (0,1)", (1, 8)),
    ("(D(0) +[1/2] D(0)", "expected ')'", (1, 18)),
    ("a.D(0) junk", "trailing input", (1, 8)),
    ("(D(0) +[ 1/1 ] D(0)) +[1/2] D(0)", "choice weight 1 outside (0,1)",
     (1, 10)),
    ("D(0) +[1/0] D(0)", "zero denominator", (1, 10)),
    ("D(0) +[1/2] D(A)", "unexpected character", (1, 15)),
    # positions on the lines after a newline
    ("a.D(0) +\n  b.D(0) $ c.D(0)", "unexpected character", (2, 10)),
    ("a.D(0) +\n\n   b.D(0) +", "expected '0', an action prefix, or '('",
     (3, 12)),
    ("D(0) +[1/2]\n D(0) +[2/1] D(0)", "choice weight 2 outside (0,1)",
     (2, 9)),
])
def test_parse_term_reports_the_parse_that_got_further(text, message,
                                                       position):
    with pytest.raises(ParseError) as info:
        parse_term(text)
    assert str(info.value).startswith(message)
    assert (info.value.line, info.value.column) == position


def test_print_term_dispatch():
    assert print_term(parse_term("a.D(0)")) == "a.D(0)"
    assert print_term(parse_term("D(0) +[1/2] D(0)")) == "D(0) +[1/2] D(0)"


def test_zero_only_in_nd_position():
    assert isinstance(parse_nd("0 + a.D(0)"), Sum)
    with pytest.raises(ParseError):
        parse_p("0")


def _printed_terms(seeds):
    for seed in seeds:
        cfg = GenConfig(seed=seed, max_complexity=8)
        yield print_term(gen_nd(cfg))
        yield print_term(gen_p(cfg))


# Characters to insert: every token start, whitespace, and characters
# that start no token, among them a Unicode decimal digit (which \d and
# int() accept) and a superscript digit (which they do not).
_INSERTED = "09azD()[]+./ \n$_A\u00e9\u0663\u00b2"


def _edits(text):
    """Each one-character deletion and insertion of the text."""
    for k in range(len(text)):
        yield text[:k] + text[k + 1:]
    for k in range(len(text) + 1):
        for c in _INSERTED:
            yield text[:k] + c + text[k:]


def _outcome(parse_fn, text):
    try:
        return parse_fn(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.column, exc.token


def test_parsers_agree_with_the_reference_parser():
    """Printed random terms, and one-character edits of some of them,
    give the reference parser's term, or its error message, line, column
    and token, through each of the three entries."""
    texts = list(_printed_terms(range(200)))
    edited = [e for text in texts[:8] for e in _edits(text)]
    pairs = ((parse_term, oracle.parse_term), (parse_nd, oracle.parse_nd),
             (parse_p, oracle.parse_p))
    errors = 0
    for text in texts + edited:
        for parse_fn, reference in pairs:
            want = _outcome(reference, text)
            assert _outcome(parse_fn, text) == want, text
            errors += isinstance(want, tuple)
    assert errors > len(edited)  # most edits are syntax errors


def _chain_text(depth):
    return "a.D(" * depth + "0" + ")" * depth


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def _deepest_chain(parse_fn, headroom):
    """(depth, term): the deepest a.D(...) chain that parse_fn reads with
    `headroom` frames left under the recursion limit, and its term."""
    depth, parsed = 0, ZERO_TERM
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + headroom)
    try:
        while True:
            try:
                term = parse_fn(_chain_text(depth + 1))
            except RecursionError:
                return depth, parsed
            depth, parsed = depth + 1, term
    finally:
        sys.setrecursionlimit(old)


def test_parse_term_reads_chains_at_least_as_deep_as_the_reference():
    reference, _ = _deepest_chain(oracle.parse_term, 150)
    depth, parsed = _deepest_chain(parse_term, 150)
    assert depth >= reference > 10
    chain = ZERO_TERM
    for _ in range(depth):
        chain = Prefix(Action("a"), Dirac(chain))
    assert parsed == chain
