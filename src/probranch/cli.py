"""Command-line front end: parse, check, prove, normalize, concretize,
export and fuzz.

Exit codes: 0 success / equivalent, 1 not equivalent (or failing fuzz
trials), 2 usage or parse errors, or an @FILE that cannot be read as
UTF-8 text, 3 resource limits: the prover's step budget or the
interpreter's recursion depth.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .axioms import (
    BudgetExceededError,
    canonical_pterm,
    concretize,
    normalize_nd,
    prove_equal,
)
from .dist import den
from .equivalence import Verdict, check as relation_check
from .harness import GenConfig, run_property_suite, suite_names
from .parse import ParseError, parse_term, print_term
from .semantics import to_dot
from .terms import Dirac, NdTerm, PTerm

SCHEMA = "probranch/1"

RELATIONS = ("strong", "branching", "rooted-branching")


class InputFileError(Exception):
    """An @FILE argument that cannot be read as UTF-8 text."""


def _load_term(spec: str):
    if spec.startswith("@"):
        try:
            text = Path(spec[1:]).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InputFileError(f"cannot read {spec[1:]}: {exc}") from exc
    else:
        text = spec
    return parse_term(text)


def _emit_verdict(verdict: Verdict, as_json: bool) -> None:
    if as_json:
        payload = {"schema": SCHEMA, **verdict.to_json()}
        print(json.dumps(payload))
    elif verdict.equivalent:
        print(f"equivalent ({verdict.relation})")
    else:
        print(f"not equivalent ({verdict.relation})")
        if verdict.witness:
            print(json.dumps(verdict.witness))


def _cmd_check(args) -> int:
    left = _load_term(args.left)
    right = _load_term(args.right)
    verdict = relation_check(args.rel, left, right)
    _emit_verdict(verdict, args.json)
    return 0 if verdict.equivalent else 1


def _cmd_prove(args) -> int:
    left = _load_term(args.left)
    right = _load_term(args.right)
    result = prove_equal(left, right, budget=args.budget)
    if isinstance(result, Verdict):
        _emit_verdict(result, args.json)
        return 1
    print(result.to_jsonl())
    return 0


def _cmd_normalize(args) -> int:
    term = _load_term(args.term)
    if args.form == "nd":
        if not isinstance(term, NdTerm):
            raise ParseError("expected a non-deterministic term", 1, 1, "")
        out, _ = normalize_nd(term)
    elif args.form == "p":
        if not isinstance(term, PTerm):
            raise ParseError("expected a probabilistic term", 1, 1, "")
        out, _ = canonical_pterm(term)
    else:  # concrete
        p = term if isinstance(term, PTerm) else Dirac(term)
        out, _ = concretize(p)
    print(print_term(out))
    return 0


def _cmd_concretize(args) -> int:
    term = _load_term(args.term)
    p = term if isinstance(term, PTerm) else Dirac(term)
    out, trace = concretize(p, budget=args.budget)
    print(print_term(out))
    if args.trace:
        jsonl = trace.to_jsonl()
        if jsonl:
            print(jsonl)
    return 0


def _cmd_lts(args) -> int:
    term = _load_term(args.term)
    if isinstance(term, PTerm):
        roots = sorted(den(term).support, key=print_term)
    else:
        roots = [term]
    print(to_dot(roots))
    return 0


def _cmd_fuzz(args) -> int:
    cfg = GenConfig(seed=args.seed, max_complexity=args.max_complexity)
    report = run_property_suite(args.suite, args.trials, cfg)
    print(json.dumps({"schema": SCHEMA, **report}))
    return 0 if not report["failures"] else 1


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`, so that an
    out-of-range budget, trial count or complexity is a usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {value}")
        return value
    return parse


def _check_arguments(p) -> None:
    p.add_argument("--rel", choices=RELATIONS, required=True)
    p.add_argument("--left", required=True, metavar="TERM|@FILE")
    p.add_argument("--right", required=True, metavar="TERM|@FILE")
    p.add_argument("--json", action="store_true")


def _prove_arguments(p) -> None:
    p.add_argument("--left", required=True, metavar="TERM|@FILE")
    p.add_argument("--right", required=True, metavar="TERM|@FILE")
    p.add_argument("--budget", type=_int_at_least(0), default=100000)
    p.add_argument("--json", action="store_true")


def _normalize_arguments(p) -> None:
    p.add_argument("--form", choices=("nd", "p", "concrete"), required=True)
    p.add_argument("--term", required=True, metavar="TERM|@FILE")


def _concretize_arguments(p) -> None:
    p.add_argument("--term", required=True, metavar="TERM|@FILE")
    p.add_argument("--budget", type=_int_at_least(0), default=100000)
    p.add_argument("--trace", action="store_true",
                   help="also print the proof trace as JSON lines")


def _lts_arguments(p) -> None:
    p.add_argument("--term", required=True, metavar="TERM|@FILE")
    p.add_argument("--dot", action="store_true", default=True)


def _fuzz_arguments(p) -> None:
    p.add_argument("--suite", required=True, choices=suite_names())
    p.add_argument("--trials", type=_int_at_least(0), default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-complexity", type=_int_at_least(1), default=8)


# Each command once: its help line, the function that adds its
# arguments, and its handler.
COMMANDS = {
    "check": ("decide an equivalence", _check_arguments, _cmd_check),
    "prove": ("produce a replayable proof", _prove_arguments, _cmd_prove),
    "normalize": ("print a canonical form", _normalize_arguments,
                  _cmd_normalize),
    "concretize": ("remove (partially) inert silent steps",
                   _concretize_arguments, _cmd_concretize),
    "lts": ("export the transition graph", _lts_arguments, _cmd_lts),
    "fuzz": ("run a property suite", _fuzz_arguments, _cmd_fuzz),
}


def _fill(parser: argparse.ArgumentParser, name: str):
    _, add_arguments, handler = COMMANDS[name]
    add_arguments(parser)
    parser.set_defaults(func=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, for the top-level help and usage
    errors."""
    parser = argparse.ArgumentParser(
        prog="probranch",
        description="Exact-arithmetic toolkit for a process calculus with "
                    "non-deterministic and probabilistic choice: semantics, "
                    "bisimilarity checking, and equational proofs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in COMMANDS.items():
        _fill(sub.add_parser(name, help=help_line), name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A named command needs only its own parser: building all six takes
    # about as long as a small query.
    if argv and argv[0] in COMMANDS:
        name, argv = argv[0], argv[1:]
        parser = _fill(argparse.ArgumentParser(prog=f"probranch {name}"),
                       name)
    else:
        parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InputFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print("resource error: term nesting exceeds the recursion depth",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
