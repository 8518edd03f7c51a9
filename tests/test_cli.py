"""Command-line interface: verdict exit codes, text and record output."""

import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from epivote import PROPERTIES, load_model, parse_model
from epivote import cli
from epivote.cli import main
from conftest import fixture_path

HIDDEN_FLIP_MATRIX = """\
   | a   b   c
---------------
aa | aa  bb  aa
ab | ab  bb  ab
ac | aa  bb  ac
ba | ba  bb  ba
bb | bb  bb  bb
bc | ba  bb  bc
ca | aa  bb  ca
cb | ab  bb  cb
cc | aa  bb  cc

   | a     b      c
----------------------
aa | 20.0  11.1*  20.0
ab | 21.0  11.1*  21.0
ac | 20.0  11.1*  22.0
ba | 10.0  11.1*  10.0
bb | 11.1  11.1*  11.1
bc | 10.0  11.1*  12.1
ca | 20.0  11.1*  00.0
cb | 21.0  11.1*  01.1
cc | 20.0  11.1   02.2
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_at_the_point(capsys):
    code, out, _ = run(capsys, "check", fixture_path("nested-doubt"),
                       "--formula", "1: a>c")
    assert code == 0
    assert out.strip() == "true"


def test_check_false_exits_one(capsys):
    code, out, _ = run(capsys, "check", fixture_path("nested-doubt"),
                       "--formula", "K2 1: a>c")
    assert code == 1
    assert out.strip() == "false"


def test_check_other_point(capsys):
    code, out, _ = run(capsys, "check", fixture_path("nested-doubt"),
                       "--formula", "K2 1: a>c", "--point", "s")
    assert code == 0


def test_check_all_states(capsys):
    code, out, _ = run(capsys, "check", fixture_path("nested-doubt"),
                       "--formula", "1: a>c", "--all-states")
    assert code == 1
    assert out.splitlines() == ["s: true", "t: true", "u: false"]
    code, out, _ = run(capsys, "check", fixture_path("nested-doubt"),
                       "--formula", "2: c>a", "--all-states")
    assert code == 0
    assert out.splitlines() == ["s: true", "t: true", "u: true"]


def test_check_records(capsys):
    code, out, _ = run(capsys, "check", fixture_path("nested-doubt"),
                       "--formula", "1: a>c", "--all-states",
                       "--format", "records")
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows == [
        {"command": "check", "state": "s", "value": True},
        {"command": "check", "state": "t", "value": True},
        {"command": "check", "state": "u", "value": False},
    ]


def test_equilibria_matrix_golden(capsys):
    code, out, _ = run(capsys, "equilibria", fixture_path("hidden-flip"),
                       "--by-top", "--matrix")
    assert code == 0
    assert out == HIDDEN_FLIP_MATRIX


def test_equilibria_list(capsys):
    code, out, _ = run(capsys, "equilibria", fixture_path("hidden-flip"),
                       "--by-top")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "8 equilibria"
    assert "(bb, b)" in lines
    assert all("(cc," not in line for line in lines)


def test_equilibria_records_carry_strings(capsys):
    code, out, _ = run(capsys, "equilibria", fixture_path("hidden-flip"),
                       "--by-top", "--format", "records")
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 8
    row = next(r for r in rows if r["labels"] == ["bc", "b"])
    assert row["winners"] == "bb"
    assert row["payoffs"] == "11.1"


def test_manipulations_report(capsys):
    code, out, _ = run(capsys, "manipulations", fixture_path("hidden-flip"),
                       "--point", "u", "--format", "records")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    two = next(r for r in rows if r["voter"] == 2)
    assert two["kind"] == "pessimistic"
    assert two["pessimistic_alts"] and not two["dominant_alts"]
    one = next(r for r in rows if r["voter"] == 1)
    assert one["kind"] == "none"


def test_update_writes_model(capsys, tmp_path):
    out_file = tmp_path / "updated.model"
    code, out, _ = run(capsys, "update", fixture_path("hidden-flip"),
                       "--formula", "1: a>c", "-o", str(out_file))
    assert code == 0
    assert "survived: t" in out
    assert "dropped: u" in out
    m = load_model(str(out_file))
    assert m.states == ("t",)
    assert m.point == "t"


def test_update_then_equilibria_pipeline(capsys, tmp_path):
    out_file = tmp_path / "after.model"
    run(capsys, "update", fixture_path("hidden-flip"), "--point", "u",
        "--formula", "pref 1(c>b>a)", "-o", str(out_file))
    code, out, _ = run(capsys, "equilibria", str(out_file), "--by-top")
    assert code == 0
    assert "(c, c)" in out.splitlines()


def test_hypercube_stdout(capsys):
    code, out, _ = run(capsys, "hypercube", "--candidates", "a,b",
                       "--voters", "1")
    assert code == 0
    assert out.count("state ") == 2
    assert "tiebreak" not in out


@pytest.mark.parametrize("form", ["b>a", "b,a", "b a"])
def test_hypercube_tiebreak_separators(capsys, tmp_path, form):
    out_file = tmp_path / "cube.model"
    code, _, _ = run(capsys, "hypercube", "--candidates", "a,b",
                     "--voters", "2", "--tiebreak", form, "-o", str(out_file))
    assert code == 0
    m = load_model(str(out_file))
    assert m.tiebreak.order == ("b", "a")
    assert len(m.states) == 4


def test_hypercube_bad_tiebreak(capsys):
    code, _, err = run(capsys, "hypercube", "--candidates", "a,b",
                       "--voters", "1", "--tiebreak", "x>y")
    assert code == 2
    assert "error:" in err


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "--formula", "[wins a] K1 wins b",
                       "--candidates", "a,b", "--voters", "1")
    assert code == 0
    assert "[" not in out and "K1" in out


def test_reduce_with_zero_voters_names_the_real_fault(capsys):
    code, out, err = run(capsys, "reduce", "-f", "1: a>b",
                         "--candidates", "a,b", "--voters", "0")
    assert code == 2
    assert out == ""
    assert err == "error: an election needs at least one voter\n"


def test_axioms_valid_fixture(capsys):
    code, out, _ = run(capsys, "axioms", fixture_path("nested-doubt"))
    assert code == 0
    assert out.splitlines() == ["P: valid", "N: valid"]


def test_axioms_broken_model(capsys, tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text(
        "candidates: a b c\n"
        "voters: 2\n"
        "state x = 1: a>b>c ; 2: c>b>a\n"
        "state y = 1: b>a>c ; 2: c>b>a\n"
        "indist 1: {x y}\n"
        "indist 2: {x y}\n"
    )
    code, out, _ = run(capsys, "axioms", str(bad))
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "P: valid"
    assert lines[1] == "N: invalid"
    assert any("voter 1 confuses" in line for line in lines)


def test_preserve_knowledge_exit_zero(capsys):
    code, out, _ = run(capsys, "preserve", fixture_path("hidden-flip"),
                       "--formula", "1: a>c",
                       "--property", "knowledge_de_re", "--voter", "2")
    assert code == 0
    assert "preserved: yes" in out


def test_preserve_equilibrium_can_fail(capsys):
    code, out, _ = run(capsys, "preserve", fixture_path("hidden-flip"),
                       "--point", "u", "--formula", "pref 1(c>b>a)",
                       "--property", "conditional_equilibrium",
                       "--profile", "a>b>c,c>b>a;b>c>a")
    assert code == 1
    assert "before: holds" in out
    assert "after: fails" in out
    assert "preserved: no" in out


def test_preserve_profile_arity_checked(capsys):
    code, _, err = run(capsys, "preserve", fixture_path("hidden-flip"),
                       "--formula", "1: a>c",
                       "--property", "conditional_equilibrium",
                       "--profile", "a>b>c;b>c>a")
    assert code == 2
    assert "information sets" in err


@pytest.mark.parametrize("spec", ["a>b>c,x>y>z;c>b>a", "a>b,c>b>a;c>b>a"])
def test_preserve_profile_ballots_rank_every_candidate(capsys, spec):
    code, _, err = run(capsys, "preserve", fixture_path("hidden-flip"),
                       "--formula", "1: a>c",
                       "--property", "conditional_equilibrium",
                       "--profile", spec)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "exactly once" in err


@pytest.mark.parametrize("argv", [
    ["check", fixture_path("hidden-flip"), "-f", "~" * 3000 + "true"],
    ["check", fixture_path("hidden-flip"), "-f", "(" * 200 + "true" + ")" * 200],
    ["reduce", "--model", fixture_path("hidden-flip"), "-f", "~" * 990 + "true"],
], ids=["check-negations", "check-parentheses", "reduce-negations"])
def test_deep_nesting_is_an_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == "error: formula nests too deeply\n"


def test_hunt_finds_and_repeats(capsys):
    code, first, _ = run(capsys, "hunt", "--property", "conditional_equilibrium",
                         "--seed", "0")
    assert code == 0
    assert "found after" in first
    code, second, _ = run(capsys, "hunt", "--property", "conditional_equilibrium",
                          "--seed", "0")
    assert first == second


def test_hunt_exhausted_exits_one(capsys):
    code, out, _ = run(capsys, "hunt", "--property", "knowledge_de_dicto",
                       "--budget", "40")
    assert code == 1
    assert "budget exhausted after 40 tries" in out


@pytest.mark.parametrize("flags", [
    ["--budget", "-3"], ["--budget", "0"], ["--max-states", "1"],
], ids=["negative-budget", "zero-budget", "one-state"])
def test_hunt_rejects_bad_bounds(capsys, flags):
    code, out, err = run(capsys, "hunt", "--property", "conditional_equilibrium",
                         *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_missing_model_file(capsys):
    code, _, err = run(capsys, "check", "no-such-file.model",
                       "--formula", "true")
    assert code == 2
    assert err.startswith("error:")


def test_unknown_point_rejected(capsys):
    code, _, err = run(capsys, "check", fixture_path("nested-doubt"),
                       "--formula", "true", "--point", "zz")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["manipulations", fixture_path("hidden-flip"), "--voter", "5"],
    ["preserve", fixture_path("hidden-flip"), "-f", "true",
     "--property", "knowledge_de_re", "--voter", "7"],
    ["manipulations", fixture_path("hidden-flip"), "--voter", "-1"],
    ["manipulations", fixture_path("hidden-flip"), "--voter", "0"],
], ids=["manipulations-5", "preserve-7", "manipulations-minus-1",
        "manipulations-0"])
def test_voter_outside_the_election_is_an_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: no voter") and err.count("\n") == 1


@pytest.mark.parametrize("names", ["a b,c", "a,,b", "x>y,z", "a;b,c", "K,a"])
def test_hypercube_rejects_unreadable_candidate_names(capsys, names):
    code, out, err = run(capsys, "hypercube", "--voters", "1",
                         "--candidates", names)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# ----------------------------------------- one parser, and the entry point

INTERLEAVED = [
    ["check", fixture_path("hidden-flip"), "-f", "1: a>c", "--all-states",
     "--format", "records"],
    ["check", fixture_path("hidden-flip"), "-f", "1: a>c", "--point", "u"],
    ["check", fixture_path("hidden-flip"), "-f", "1: a>c"],
    ["hunt", "--property", "conditional_equilibrium", "--budget", "50"],
    ["check", fixture_path("hidden-flip")],  # argparse: --formula missing
    ["hunt", "--property", "knowledge_de_re", "--budget", "5",
     "--format", "records"],
    ["reduce", "-f", "[wins a] K1 wins b", "--candidates", "a,b",
     "--voters", "1"],
    ["check", fixture_path("hidden-flip"), "-f", "1: a>c", "--format",
     "records"],
]


def test_one_parser_serves_interleaved_invocations():
    """Options, defaults and errors of one call do not reach the next."""
    fresh = []
    for argv in INTERLEAVED:
        cli._parser.cache_clear()
        fresh.append(run_in_process(argv))
    cli._parser.cache_clear()
    shared = [run_in_process(argv) for argv in INTERLEAVED]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [1, 1, 0, 0, 2, 1, 0, 0]
    info = cli._parser.cache_info()  # built by the first call only
    assert (info.misses, info.hits) == (1, len(INTERLEAVED) - 1)


def test_python_dash_m_matches_main():
    argv = ["hunt", "--property", "conditional_equilibrium", "--seed", "0",
            "--format", "records"]
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "epivote", *argv],
                          capture_output=True, env=env, timeout=120)
    code, out, err = run_in_process(argv)
    assert code == 0
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, out.encode(), err.encode())


# ------------------------------------------------- the exit-code contract

SUBCOMMANDS = ["check", "equilibria", "manipulations", "update", "hypercube",
               "reduce", "axioms", "preserve", "hunt"]
OUT = "{out}"  # replaced by a path in a fresh temporary directory
MODELS = st.sampled_from([fixture_path(f) for f in (
    "hidden-flip", "known-aligned", "known-opposed", "mutual-doubt",
    "nested-doubt")] + ["no-such-file.model"])
STATES = st.sampled_from([None, "s", "t", "u", "zz"])
FORMULAS = st.sampled_from([
    "true", "wins a", "K1 wins b", "~K2 (wins a | wins c)",
    "[1: a>b] K2 wins c", "pref 1(a>b>c) -> wins a",
    "profile{1: a>b>c; 2: c>b>a}", "K3 true", "wins d", "1: a>", "((true",
    "$", "",
])
VOTERS = st.integers(-1, 5)
CANDIDATES = st.sampled_from(["a,b,c", "a,b", "a", "a b,c", "a,,b", "x>y,z",
                              "a;b,c"])
FORMAT = st.sampled_from(["text", "records"])
PROFILES = st.sampled_from([None, "a>b>c;c>b>a", "a>b>c,b>a>c;c>b>a",
                            "a>b,c>b>a;c>b>a", "a>b>c,x>y>z;c>b>a", "junk"])


def _flag(name, value):
    return [] if value is None else [name, str(value)]


def _switch(name, on):
    return [name] if on else []


@st.composite
def argvs(draw, cmd):
    """argv for the subcommand cmd; OUT stands for a file to write."""
    model, formula = draw(MODELS), draw(FORMULAS)
    if cmd == "check":
        tail = [model, "-f", formula, *_flag("--point", draw(STATES)),
                *_switch("--all-states", draw(st.booleans()))]
    elif cmd == "equilibria":
        tail = [model, *_switch("--by-top", draw(st.booleans())),
                *_switch("--matrix", draw(st.booleans()))]
    elif cmd == "manipulations":
        tail = [model, *_flag("--voter", draw(st.none() | VOTERS)),
                *_flag("--point", draw(STATES))]
    elif cmd == "update":
        tail = [model, "-f", formula, *_flag("--point", draw(STATES)),
                *_flag("-o", draw(st.sampled_from([None, OUT])))]
    elif cmd == "hypercube":
        # at most 3 voters: a 5-voter cube has 7,776 states to write and read
        tail = ["--candidates", draw(CANDIDATES), "--voters",
                str(draw(st.integers(-1, 3))),
                *_flag("--tiebreak", draw(st.sampled_from(
                    [None, "b>a>c", "b,a", "x>y"]))),
                *_flag("-o", draw(st.sampled_from([None, OUT])))]
    elif cmd == "reduce":
        tail = ["-f", formula, *(["--model", model] if draw(st.booleans())
                                 else ["--candidates", draw(CANDIDATES),
                                       "--voters", str(draw(VOTERS))])]
    elif cmd == "axioms":
        tail = [model]
    elif cmd == "preserve":
        tail = [model, "-f", formula, "--property",
                draw(st.sampled_from(PROPERTIES)),
                *_flag("--voter", draw(st.none() | VOTERS)),
                *_flag("--profile", draw(PROFILES)),
                *_flag("--point", draw(STATES))]
    else:
        tail = ["--property", draw(st.sampled_from(PROPERTIES)),
                "--seed", str(draw(st.integers(0, 3))),
                "--budget", str(draw(st.integers(-1, 3))),
                "--max-states", str(draw(st.integers(0, 4))),
                "--candidates", draw(CANDIDATES), "--voters", str(draw(VOTERS))]
    return [cmd, *tail, "--format", draw(FORMAT)]


def run_in_process(argv):
    """Exit code, stdout and stderr of main as the interpreter reports them."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except Exception:  # uncaught: a traceback and exit status 1
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("cmd", SUBCOMMANDS)
@settings(derandomize=True, deadline=None, max_examples=22)
@given(data=st.data())
def test_every_input_keeps_the_exit_code_contract(cmd, data):
    """0, 1 or 2; no traceback; an error says why; records are JSON lines.

    What hypercube and update write is read back, so no command leaves a
    model file epivote itself rejects. 22 drawn argv per subcommand.
    """
    argv = data.draw(argvs(cmd), label="argv")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.model")
        argv = [path if a == OUT else a for a in argv]
        code, out, err = run_in_process(argv)
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        if code == 2:
            assert err.strip(), argv
        if argv[-1] == "records":
            for line in out.splitlines():
                json.loads(line)
        if code == 0 and argv[0] in ("hypercube", "update"):
            if os.path.exists(path):
                load_model(path)
            elif argv[-1] == "text":
                parse_model(out)
