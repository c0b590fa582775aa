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
        out, _ = normalize_nd(term)
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


# Each command once: its help line, its handler, and its options as
# argparse's add_argument calls, in the order help lists them.
_TERM = dict(required=True, metavar="TERM|@FILE")
_BUDGET = dict(type=_int_at_least(0), default=100000)
_JSON = dict(action="store_true")

COMMANDS = {
    "check": ("decide an equivalence", _cmd_check, (
        ("--rel", dict(choices=RELATIONS, required=True)),
        ("--left", _TERM),
        ("--right", _TERM),
        ("--json", _JSON),
    )),
    "prove": ("produce a replayable proof", _cmd_prove, (
        ("--left", _TERM),
        ("--right", _TERM),
        ("--budget", _BUDGET),
        ("--json", _JSON),
    )),
    "normalize": ("print a canonical form", _cmd_normalize, (
        ("--form", dict(choices=("nd", "p", "concrete"), required=True)),
        ("--term", _TERM),
    )),
    "concretize": ("remove (partially) inert silent steps", _cmd_concretize, (
        ("--term", _TERM),
        ("--budget", _BUDGET),
        ("--trace", dict(action="store_true",
                         help="also print the proof trace as JSON lines")),
    )),
    "lts": ("export the transition graph", _cmd_lts, (
        ("--term", _TERM),
        ("--dot", dict(action="store_true", default=True)),
    )),
    # The suite names are listed only when the fuzz options are read.
    "fuzz": ("run a property suite", _cmd_fuzz, (
        ("--suite", dict(required=True, choices=suite_names)),
        ("--trials", dict(type=_int_at_least(0), default=100)),
        ("--seed", dict(type=int, default=0)),
        ("--max-complexity", dict(type=_int_at_least(1), default=8)),
    )),
}


def _options(name: str):
    """The command's options as (option string, add_argument keywords)."""
    for flag, kwargs in COMMANDS[name][2]:
        if callable(kwargs.get("choices")):
            kwargs = {**kwargs, "choices": kwargs["choices"]()}
        yield flag, kwargs


def _fill(parser: argparse.ArgumentParser, name: str):
    for flag, kwargs in _options(name):
        parser.add_argument(flag, **kwargs)
    parser.set_defaults(func=COMMANDS[name][1])
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


def _read(argv: list):
    """The namespace argparse returns for a well-formed command line, or
    None for any other.  Well-formed: a command, then its full option
    strings, each valued one followed by a value that does not start
    with '-' and that its type and choices accept (the last of repeats
    wins), and every required option.  Everything else (help, `--opt=v`,
    abbreviations, values such as `-1`, extra arguments, errors) goes to
    argparse.  Building a parser costs a large share of a small query's
    time, most of it the `locale` import that its gettext calls make."""
    if not argv or argv[0] not in COMMANDS:
        return None
    name = argv[0]
    options = dict(_options(name))
    given = {}
    rest = iter(argv[1:])
    for flag in rest:
        kwargs = options.get(flag)
        if kwargs is None:
            return None
        if kwargs.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(rest, None)
        if value is None or value.startswith("-"):
            return None
        convert = kwargs.get("type")
        if convert is not None:
            try:
                value = convert(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[flag] = value
    args = argparse.Namespace(func=COMMANDS[name][1])
    for flag, kwargs in options.items():
        if flag not in given and kwargs.get("required"):
            return None
        unset = False if kwargs.get("action") == "store_true" else None
        setattr(args, flag[2:].replace("-", "_"),
                given.get(flag, kwargs.get("default", unset)))
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is None:
        # A named command needs only its own parser: building all six
        # takes about as long as a small query.
        if argv and argv[0] in COMMANDS:
            name = argv[0]
            parser = _fill(argparse.ArgumentParser(prog=f"probranch {name}"),
                           name)
            argv = argv[1:]
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
