import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from probranch.cli import (
    COMMANDS,
    RELATIONS,
    _fill,
    _read,
    build_parser,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


INTRO_S0 = ("a.(D(tau.(D(b.D(0)) +[1/2] D(c.D(0)))) +[3/4] "
            "D(tau.(D(b.D(0)) +[1/2] D(c.D(0)))))")
INTRO_T0 = "a.(D(b.D(0)) +[1/2] D(c.D(0)))"


def test_check_equivalent_exit_zero(capsys):
    code, out, _ = run(capsys, "check", "--rel", "rooted-branching",
                       "--left", INTRO_S0, "--right", INTRO_T0)
    assert code == 0
    assert "equivalent" in out


def test_check_not_equivalent_exit_one(capsys):
    code, out, _ = run(capsys, "check", "--rel", "strong",
                       "--left", "a.D(0)", "--right", "b.D(0)")
    assert code == 1
    assert "not equivalent" in out


def test_check_json_schema(capsys):
    code, out, _ = run(capsys, "check", "--rel", "branching", "--json",
                       "--left", "tau.D(a.D(0))", "--right", "a.D(0)")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "probranch/1"
    assert payload["equivalent"] is True


def test_check_rooted_witness_json(capsys):
    # the README's second example: branching equivalent, not rooted
    code, out, _ = run(capsys, "check", "--rel", "rooted-branching", "--json",
                       "--left", "D(tau.D(a.D(0))) +[1/2] D(b.D(0))",
                       "--right", "D(a.D(0)) +[1/2] D(b.D(0))")
    assert code == 1
    witness = json.loads(out)["witness"]
    assert "class" not in witness
    assert witness["action_path"] == ["tau"]
    assert (witness["class_signature_left"]
            != witness["class_signature_right"])


def test_check_parse_error_exit_two(capsys):
    code, _, err = run(capsys, "check", "--rel", "strong",
                       "--left", "a.D(0) + +", "--right", "0")
    assert code == 2
    assert "parse error" in err


def test_usage_error_exit_two(capsys):
    code, _, _ = run(capsys, "check", "--rel", "bogus",
                     "--left", "0", "--right", "0")
    assert code == 2


def test_at_file_terms(tmp_path, capsys):
    f = tmp_path / "left.term"
    f.write_text("a.D(0)", encoding="utf-8")
    code, _, _ = run(capsys, "check", "--rel", "strong",
                     "--left", f"@{f}", "--right", "a.D(0)")
    assert code == 0


def test_missing_file_exit_two(capsys):
    code, _, err = run(capsys, "check", "--rel", "strong",
                       "--left", "@/nonexistent/term", "--right", "0")
    assert code == 2


def test_directory_file_exit_two(tmp_path, capsys):
    code, _, err = run(capsys, "check", "--rel", "strong",
                       "--left", f"@{tmp_path}", "--right", "0")
    assert code == 2
    assert err.startswith("error: ")


def test_non_utf8_file_exit_two(tmp_path, capsys):
    f = tmp_path / "left.term"
    f.write_bytes(b"a.D(0) + \xff")
    code, _, err = run(capsys, "check", "--rel", "strong",
                       "--left", f"@{f}", "--right", "0")
    assert code == 2
    assert err.startswith("error: ")


def test_prove_outputs_jsonl(capsys):
    code, out, _ = run(capsys, "prove", "--left", "b.D(0) + a.D(0)",
                       "--right", "a.D(0) + b.D(0)")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines
    assert all({"index", "rule", "direction", "position", "before",
                "after"} <= set(line) for line in lines)


def test_prove_refutation_exit_one(capsys):
    code, out, _ = run(capsys, "prove", "--left", "a.D(0)",
                       "--right", "b.D(0)")
    assert code == 1


def test_prove_budget_exit_three(capsys):
    code, _, err = run(capsys, "prove", "--left", INTRO_S0,
                       "--right", INTRO_T0, "--budget", "2")
    assert code == 3
    assert "resource" in err


def test_prove_refutation_past_the_budget(capsys):
    # the budget runs out while normalizing the left side
    code, out, _ = run(capsys, "prove", "--left", "c.D(0) + b.D(0) + a.D(0)",
                       "--right", "z.D(0)", "--budget", "1")
    assert code == 1
    assert out.startswith("not equivalent")
    code, _, err = run(capsys, "prove", "--left", "c.D(0) + b.D(0) + a.D(0)",
                       "--right", "a.D(0) + b.D(0) + c.D(0)", "--budget", "1")
    assert code == 3
    assert "resource" in err


@pytest.mark.parametrize("argv", [
    ("fuzz", "--suite", "soundness", "--max-complexity", "0"),
    ("fuzz", "--suite", "soundness", "--trials", "-3"),
    ("prove", "--left", "a.D(0) + a.D(0)", "--right", "a.D(0)",
     "--budget", "-1"),
    ("concretize", "--term", "a.D(0)", "--budget", "-1"),
])
def test_out_of_range_number_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "expected an integer >=" in err


def test_deep_term_exit_three(capsys):
    deep = "a.D(" * 300 + "0" + ")" * 300
    code, _, err = run(capsys, "check", "--rel", "strong",
                       "--left", deep, "--right", deep)
    assert code == 3
    assert "resource error" in err


def test_normalize_p(capsys):
    code, out, _ = run(capsys, "normalize", "--form", "p",
                       "--term", "D(a.D(0)) +[1/2] D(a.D(0))")
    assert code == 0
    assert out.strip() == "D(a.D(0))"


def test_normalize_nd(capsys):
    code, out, _ = run(capsys, "normalize", "--form", "nd",
                       "--term", "b.D(0) + 0 + a.D(0)")
    assert code == 0
    assert out.strip() == "a.D(0) + b.D(0)"


def test_normalize_concrete(capsys):
    code, out, _ = run(capsys, "normalize", "--form", "concrete",
                       "--term", "D(tau.D(a.D(0)))")
    assert code == 0
    assert out.strip() == "D(a.D(0))"


def test_concretize_with_trace(capsys):
    code, out, _ = run(capsys, "concretize", "--trace",
                       "--term", "D(tau.D(a.D(0)))")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "D(a.D(0))"
    assert json.loads(lines[1])["rule"]


def test_lts_dot(capsys):
    code, out, _ = run(capsys, "lts", "--dot",
                       "--term", "a.(D(b.D(0)) +[1/2] D(0))")
    assert code == 0
    assert out.startswith("digraph")
    assert "1/2" in out


def test_fuzz_report(capsys):
    code, out, _ = run(capsys, "fuzz", "--suite", "inclusion_chain",
                       "--trials", "5", "--seed", "3",
                       "--max-complexity", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "inclusion_chain"
    assert payload["trials"] == 5
    assert payload["failures"] == []


def test_roundtrip_of_printed_terms(capsys):
    code, out, _ = run(capsys, "normalize", "--form", "p", "--term",
                       "(D(b.D(0)) +[1/3] D(a.D(0))) +[1/2] D(b.D(0))")
    assert code == 0
    code2, out2, _ = run(capsys, "normalize", "--form", "p",
                         "--term", out.strip())
    assert code2 == 0
    assert out2 == out


# Exit code, stdout and stderr of the usage paths at 80 columns.  Each
# named command parses with its own parser, so these pin its output to
# that of the full parser with subcommands, byte for byte.
SNAPSHOTS = json.loads(
    Path(__file__).with_name("cli_snapshots.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", SNAPSHOTS,
                         ids=lambda case: " ".join(case["argv"]) or "<none>")
def test_usage_output_snapshot(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *case["argv"]) == (case["code"], case["stdout"],
                                          case["stderr"])


def test_trailing_argument_usage_names_the_command(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, "check", "--rel", "strong",
                         "--left", "0", "--right", "0", "extra")
    assert (code, out) == (2, "")
    assert err.startswith("usage: probranch check [-h] --rel ")
    assert err.endswith(
        "\nprobranch check: error: unrecognized arguments: extra\n")


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["probranch", "check", "--rel",
                                      "strong", "--left", "a.D(0)",
                                      "--right", "a.D(0)"])
    assert main() == 0
    assert capsys.readouterr().out == "equivalent (strong)\n"


# A well-formed command line is read without argparse; argparse parses
# and reports every other one.
WELL_FORMED = [
    ("check", "--rel", "strong", "--left", "a.D(0)", "--right", "a.D(0)"),
    ("prove", "--left", "b.D(0) + a.D(0)", "--right", "a.D(0) + b.D(0)"),
    ("normalize", "--form", "nd", "--term", "b.D(0) + 0 + a.D(0)"),
    ("concretize", "--term", "D(tau.D(a.D(0)))", "--trace"),
    ("lts", "--term", "a.D(0)"),
    ("fuzz", "--suite", "inclusion_chain", "--trials", "2",
     "--max-complexity", "3"),
]


@pytest.mark.parametrize("argv", WELL_FORMED, ids=lambda argv: argv[0])
def test_well_formed_command_builds_no_parser(capsys, monkeypatch, argv):
    def no_parser(*_args, **_kwargs):
        raise AssertionError("argparse parser built")

    monkeypatch.setattr(argparse, "ArgumentParser", no_parser)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out


def _parsed_by_argparse(argv):
    if argv and argv[0] in COMMANDS:
        parser = _fill(argparse.ArgumentParser(prog=f"probranch {argv[0]}"),
                       argv[0])
        argv = argv[1:]
    else:
        parser = build_parser()
    try:
        return vars(parser.parse_args(argv))
    except SystemExit:
        return None


def _option_groups(argv):
    """The arguments after the command, a flag alone and any other
    argument with the one after it; None if the last one is left over."""
    flags = {flag for flag, kwargs in COMMANDS[argv[0]][2]
             if kwargs.get("action") == "store_true"}
    groups, rest = [], list(argv[1:])
    while rest:
        flag = rest.pop(0)
        if flag in flags:
            groups.append((flag,))
        elif rest:
            groups.append((flag, rest.pop(0)))
        else:
            return None
    return groups


def _agreement_corpus():
    corpus = [tuple(case["argv"]) for case in SNAPSHOTS] + WELL_FORMED + [
        ("check", "--rel", "rooted-branching", "--left", INTRO_S0,
         "--right", INTRO_T0),
        ("check", "--rel", "branching", "--json", "--left", "tau.D(a.D(0))",
         "--right", "a.D(0)"),
        ("check", "--rel", "strong", "--left", "@/nonexistent/term",
         "--right", "0"),
        ("prove", "--left", INTRO_S0, "--right", INTRO_T0, "--budget", "2"),
        ("prove", "--left", "a.D(0)", "--right", "b.D(0)", "--json"),
        ("fuzz", "--suite", "soundness", "--max-complexity", "0"),
        ("fuzz", "--suite", "soundness", "--trials", "-3"),
        ("fuzz", "--suite", "soundness", "--seed", "-3"),
        ("fuzz", "--suite", "soundness", "--seed", "x"),
        ("prove", "--left", "a.D(0) + a.D(0)", "--right", "a.D(0)",
         "--budget", "-1"),
        ("concretize", "--term", "a.D(0)", "--budget", "-1"),
        ("concretize", "--term", "a.D(0)", "--budget", "1.5"),
        ("normalize", "--form", "p", "--term", "D(a.D(0)) +[1/2] D(a.D(0))"),
        ("normalize", "--form", "concrete", "--term", "D(tau.D(a.D(0)))"),
        ("lts", "--dot", "--term", "a.(D(b.D(0)) +[1/2] D(0))"),
        ("fuzz", "--suite", "inclusion_chain", "--trials", "5", "--seed",
         "3", "--max-complexity", "4"),
        # repeats: the last value wins; a flag may be given twice
        ("check", "--rel", "branching", "--rel", "strong", "--left", "0",
         "--right", "0", "--json", "--json"),
        ("concretize", "--trace", "--term", "0", "--trace"),
        ("check", "--rel", "bogus", "--rel", "strong", "--left", "0",
         "--right", "0"),
        ("check", "--rel", "strong", "--rel", "bogus", "--left", "0",
         "--right", "0"),
        ("prove", "--left", "0", "--right", "0", "--budget", "1",
         "--budget", "7"),
        # empty, '-' and option-like values; `--opt=v`; abbreviations
        ("check", "--rel", "strong", "--left", "", "--right", "0"),
        ("check", "--rel", "strong", "--left", "-", "--right", "0"),
        ("check", "--rel", "strong", "--left", "-a.D(0)", "--right", "0"),
        ("check", "--rel", "strong", "--left", "--right", "0"),
        ("check", "--rel=strong", "--left", "0", "--right", "0"),
        ("check", "--rel", "strong", "--left=0", "--right", "0"),
        ("check", "--rel", "strong", "--lef", "0", "--right", "0"),
        ("fuzz", "--suite", "soundness", "--max", "3"),
        ("check", "--rel", "strong", "--left", "0", "--right", "0", "--js"),
        ("check", "-h", "--rel", "strong", "--left", "0", "--right", "0"),
        # missing values and options, extra arguments, bad choices
        ("check", "--rel", "strong", "--left", "0", "--right"),
        ("check", "--rel", "strong", "--left", "0"),
        ("prove", "--left", "0"),
        ("check", "--rel", "strong", "--left", "0", "--right", "0", "extra"),
        ("check", "extra", "--rel", "strong", "--left", "0", "--right", "0"),
        ("check", "--rel", "strong", "--left", "0", "--right", "0", "--"),
        ("check", "--rel", "Strong", "--left", "0", "--right", "0"),
        ("normalize", "--form", "ndp", "--term", "0"),
        ("fuzz", "--suite", "bogus"),
        ("lts",),
        ("prove",),
    ]
    rng = random.Random(5)
    for argv in list(corpus):
        groups = argv and argv[0] in COMMANDS and _option_groups(argv)
        for _ in range(3 if groups else 0):
            rng.shuffle(groups)
            corpus.append((argv[0],) + sum(groups, ()))
    return corpus


def test_reader_agrees_with_argparse(capsys):
    read = declined = 0
    for argv in _agreement_corpus():
        args = _read(list(argv))
        if args is None:
            declined += 1
        else:
            read += 1
            assert vars(args) == _parsed_by_argparse(list(argv)), argv
    capsys.readouterr()
    assert read and declined


def _src_env() -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("relation", ["branching", "rooted-branching"])
def test_depth_150_chain_checks_against_itself(relation):
    """A depth-150 a.D(...) chain checks equivalent to itself in a fresh
    interpreter at the default recursion limit: the facts each node
    keeps are computed with that much headroom."""
    deep = "a.D(" * 150 + "0" + ")" * 150
    code = ("import sys\n"
            "from probranch.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    done = subprocess.run(
        [sys.executable, "-c", code, "check", "--rel", relation,
         "--left", deep, "--right", deep],
        env=_src_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"equivalent ({relation})\n"


_PROFILED_MAIN = """
import os, sys
from probranch.cli import main
entered = set()
def profile(frame, event, arg):
    if event == "call" and os.path.basename(frame.f_code.co_filename) == "typing.py":
        entered.add(frame.f_code.co_name)
sys.setprofile(profile)
code = main(sys.argv[1:])
sys.setprofile(None)
print(code, sorted(entered))
"""


@pytest.mark.parametrize("relation", RELATIONS)
def test_check_of_a_choice_enters_no_typing_code(relation):
    """A cold check never enters typing.py: an isinstance test against a
    typing alias of an abstract class walks its subclass tree."""
    left = "a.(D(b.D(0)) +[1/3] D(tau.D(c.D(0))))"
    done = subprocess.run(
        [sys.executable, "-c", _PROFILED_MAIN, "check", "--rel", relation,
         "--left", left, "--right", left + " + a.D(0)"],
        env=_src_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "1 []"


def test_well_formed_check_imports_no_locale():
    code = ("import sys\n"
            "from probranch.cli import main\n"
            "assert main(['check', '--rel', 'strong', '--left', 'a.D(0)',"
            " '--right', 'a.D(0)']) == 0\n"
            "print('locale' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "equivalent (strong)\nFalse\n"
