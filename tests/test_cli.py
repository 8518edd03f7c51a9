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

from epivote import (
    PROPERTIES,
    Election,
    PartitionError,
    check_axioms,
    classify,
    hypercube,
    load_model,
    parse,
    parse_model,
    pref,
    rule_for,
    save_model,
    write_model,
)
from epivote import cli
from epivote.cli import main
from conftest import fixture_path, pointed_models

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


# The lines main prints for a crash; the helpers below fail on them, so an
# exit 2 from a bug never passes for an expected error.
CRASHES = ("error: internal error:", "error: out of memory", "error: out of stack")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    assert not out.err.startswith(CRASHES), (argv, out.err)
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


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
EQUILIBRIA_MODES = {
    "list": [], "by-top": ["--by-top"], "matrix": ["--matrix"],
    "by-top-matrix": ["--by-top", "--matrix"],
}


# (fixture, mode): every mode of the two-voter fixtures, and the by-top
# listing of the three-voter file, whose 3^8 search takes its slots state
# by state (its full product, 6^8, is over the size cap).
EQUILIBRIA_CASES = [(name, mode) for name in (
    "hidden-flip", "known-aligned", "known-opposed", "mutual-doubt",
    "nested-doubt") for mode in sorted(EQUILIBRIA_MODES)] + [
    ("three-voters", "by-top")]


@pytest.mark.parametrize("fmt", ["text", "records"])
@pytest.mark.parametrize("name,mode", EQUILIBRIA_CASES)
def test_equilibria_output_matches_golden(capsys, name, mode, fmt):
    """Every listing and grid of every fixture, byte for byte."""
    code, out, err = run(capsys, "equilibria", fixture_path(name),
                         *EQUILIBRIA_MODES[mode], "--format", fmt)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{name}.{mode}.{fmt}.txt").read_text()


@pytest.fixture(scope="module")
def cube42(tmp_path_factory):
    """The file `hypercube --candidates a,b,c,d --voters 2 --tiebreak
    'a>b>c>d' -o` writes."""
    path = tmp_path_factory.mktemp("cube") / "cube42.model"
    save_model(hypercube(Election(("a", "b", "c", "d"), 2),
                         tiebreak=pref("a>b>c>d")), path)
    return str(path)


# One state, 8 candidates, 2 voters: voter 2's 5,040 manipulations fill
# every list of her report, so the file pins the e.orders() order of rows of
# 40,320 ballots.
EIGHT = """\
candidates: a b c d e f g h
voters: 2
tiebreak: b a c d e f g h
state s = 1: a>b>c>d>e>f>g>h ; 2: h>g>f>e>d>c>b>a
point: s
"""


@pytest.fixture(scope="module")
def eight(tmp_path_factory):
    path = tmp_path_factory.mktemp("eight") / "eight.model"
    path.write_text(EIGHT)
    return str(path)


# (golden name, model, point): the five fixtures at their points, two
# points of the 4x2 cube where a voter has manipulations, and the
# 8-candidate file.
MANIPULATIONS_CASES = [(name, name, None) for name in (
    "hidden-flip", "known-aligned", "known-opposed", "mutual-doubt",
    "nested-doubt")] + [(f"cube42-{s}", "cube42", s)
                        for s in ("cabd_dabc", "cabd_dbca")] + [
    ("eight", "eight", None)]


@pytest.mark.parametrize("fmt", ["text", "records"])
@pytest.mark.parametrize("name,model,point", MANIPULATIONS_CASES)
def test_manipulations_output_matches_golden(capsys, cube42, eight, name,
                                             model, point, fmt):
    """Every voter's report, byte for byte."""
    path = {"cube42": cube42, "eight": eight}.get(model) or fixture_path(model)
    at = [] if point is None else ["--point", point]
    code, out, err = run(capsys, "manipulations", path, *at, "--format", fmt)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{name}.manipulations.{fmt}.txt").read_text()


# Tops 'a'+'bc' and 'ab'+'c' both concatenate to 'abc'.
COLLIDING_TOPS = """\
candidates: a bc ab c
voters: 2
tiebreak: c ab bc a
state s = 1: a>bc>ab>c ; 2: c>ab>bc>a
state t = 1: ab>c>a>bc ; 2: c>ab>bc>a
indist 1: {s} {t}
indist 2: {s t}
point: s
"""


def test_by_top_labels_keep_multi_character_tops_apart(capsys, tmp_path):
    path = tmp_path / "colliding.model"
    path.write_text(COLLIDING_TOPS)
    code, out, _ = run(capsys, "equilibria", str(path), "--by-top", "--matrix",
                       "--format", "records")
    assert code == 0
    cells = [json.loads(line) for line in out.splitlines()]
    assert len(cells) == 16 * 4
    rows = list(dict.fromkeys(c["row"] for c in cells))
    assert len(rows) == 16
    assert rows[:2] == ["aa", "a-bc"] and rows[11] == "ab-c"

    def payoffs(row):
        return " ".join(c["payoffs"] for c in cells if c["row"] == row)

    assert payoffs("a-bc") == "30.0 20.1 13.2 02.3"
    assert payoffs("ab-c") == "12.2 12.2 12.2 02.3"

    def winners(row, col):
        return next(c["winners"] for c in cells
                    if (c["row"], c["col"]) == (row, col))

    # winners (a, bc) and (ab, c): joined as the labels are, never as "abc"
    assert winners("a-bc", "a") == "a-bc"
    assert winners("ab-c", "a") == "ab-c"
    code, out, _ = run(capsys, "equilibria", str(path), "--by-top")
    assert "(ab-c, c)" in out.splitlines()


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


def test_cube_without_tiebreak_error_names_the_option(capsys, tmp_path):
    out_file = tmp_path / "cube.model"
    code, _, _ = run(capsys, "hypercube", "--candidates", "a,b,c",
                     "--voters", "2", "-o", str(out_file))
    assert code == 0
    code, out, err = run(capsys, "equilibria", str(out_file), "--by-top")
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "--tiebreak" in lines[0]


def test_matrix_of_one_voter_exits_two(capsys, tmp_path):
    path = tmp_path / "one.model"
    path.write_text("candidates: a b\nvoters: 1\ntiebreak: a b\n"
                    "state s = 1: a>b\n")
    code, out, err = run(capsys, "equilibria", str(path), "--matrix")
    assert (code, out) == (2, "")
    assert err == "error: matrix display needs exactly two voters\n"


def test_brace_in_a_state_name_exits_two_at_load(capsys, tmp_path):
    """An indist line could not list the state, so no command reads it and
    update writes no file that axioms would reject."""
    path = tmp_path / "odd.model"
    path.write_text("candidates: a b\nvoters: 1\nstate a}b = 1: a>b\n"
                    "state t = 1: b>a\n")
    out_file = tmp_path / "out.model"
    for argv in (["axioms", str(path)],
                 ["update", str(path), "-f", "true", "-o", str(out_file)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: line 3: state name 'a}b' contains a brace\n"
    assert not out_file.exists()


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


def test_preserve_empty_profile_is_refused(capsys):
    """An empty --profile is a profile with no ballots, not the sincere one."""
    code, out, err = run(capsys, "preserve", fixture_path("hidden-flip"),
                         "--formula", "true",
                         "--property", "conditional_equilibrium",
                         "--profile", "")
    assert code == 2 and out == ""
    assert err == "error: expected 2 voter rows, got 1\n"


@pytest.mark.parametrize("spec", ["a>b>c,x>y>z;c>b>a", "a>b,c>b>a;c>b>a"])
def test_preserve_profile_ballots_rank_every_candidate(capsys, spec):
    code, _, err = run(capsys, "preserve", fixture_path("hidden-flip"),
                       "--formula", "1: a>c",
                       "--property", "conditional_equilibrium",
                       "--profile", spec)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "exactly once" in err


# formulas deeper than the Python stack: the parser and the rewriters take
# them at any depth; the evaluator exits 2 with one error line
DEEP = {
    "negations": "~" * 3000 + "true",
    "knowledge": "K1 " * 3000 + "true",
    "parentheses": "(" * 200 + "true" + ")" * 200,
    "disjunction": " | ".join(["1: a>b"] * 600),
}
DEEP_ARGV = {
    "check": ["check", fixture_path("hidden-flip")],
    "update": ["update", fixture_path("hidden-flip")],
    "preserve": ["preserve", fixture_path("hidden-flip"),
                 "--property", "knowledge_de_re", "--voter", "1"],
    "reduce": ["reduce", "--candidates", "a,b,c", "--voters", "2"],
}


@pytest.mark.parametrize("argv, want", [
    (["check", fixture_path("hidden-flip"), "-f", "~" * 3000 + "true"], 2),
    (["check", fixture_path("hidden-flip"), "-f",
      "(" * 200 + "true" + ")" * 200], 0),
    (["reduce", "--model", fixture_path("hidden-flip"), "-f",
      "~" * 990 + "true"], 0),
] + [
    ([*DEEP_ARGV[cmd], "-f", DEEP[shape]],
     0 if cmd == "reduce" or shape == "parentheses" else 2)
    for cmd in DEEP_ARGV for shape in DEEP
], ids=["check-negations", "check-parentheses", "reduce-negations"] + [
    f"{cmd}-{shape}-deep" for cmd in DEEP_ARGV for shape in DEEP])
def test_deep_nesting_is_an_error(capsys, argv, want):
    """Too deep for the evaluator: exit 2 with one error line. Brackets
    nest to any depth, so bracketed `true` reads as `true`; reduce takes
    any depth of prefixes and conjuncts, and its output parses back."""
    code, out, err = run(capsys, *argv)
    assert code == want
    if want == 2:
        assert err == "error: formula nests too deeply\n"
        return
    assert err == ""
    if argv[0] == "reduce":
        e = Election(("a", "b", "c"), 2)
        assert parse(out.strip(), e) == parse(argv[-1], e)
    else:
        assert (0, out, "") == run(capsys, *argv[:-1], "true")


def test_reduce_output_is_checkable(capsys):
    """reduce prints a 200-term disjunction nested 199 brackets deep;
    check reads it back and evaluates it."""
    code, out, _ = run(capsys, *DEEP_ARGV["reduce"],
                       "-f", " | ".join(["1: a>b"] * 200))
    assert code == 0 and out.count("(") == 199
    code, out, err = run(capsys, "check", fixture_path("hidden-flip"),
                         "--all-states", "-f", out.strip())
    assert (code, out, err) == (1, "t: true\nu: false\n", "")


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


def test_hunt_on_large_models_exits_one(capsys):
    """The hunt builds no announcement formula it does not report, so no
    formula nests too deeply though the user gave none."""
    code, out, err = run(capsys, "hunt", "--property", "knowledge_de_re",
                         "--candidates", "a,b,c,d", "--voters", "4",
                         "--max-states", "1000", "--budget", "3")
    assert (code, err) == (1, "")
    assert "budget exhausted after 3 tries" in out


@pytest.mark.parametrize("flags", [
    ["--budget", "-3"], ["--budget", "0"], ["--max-states", "1"],
    ["--max-states", "1000000000", "--budget", "3"],
], ids=["negative-budget", "zero-budget", "one-state", "over-cap-states"])
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


# -------------------------------------------------- a crash is not "false"

@pytest.mark.parametrize("exc, want", [
    (MemoryError(), "error: out of memory\n"),
    (RecursionError("maximum recursion depth exceeded"),
     "error: out of stack (recursion too deep)\n"),
    (TypeError("unhashable type: 'list'"),
     "error: internal error: TypeError: unhashable type: 'list'\n"),
    (KeyError("x"), "error: internal error: KeyError: 'x'\n"),
    (RuntimeError("two\nlines"), "error: internal error: RuntimeError: two lines\n"),
], ids=["memory", "recursion", "type", "key", "two-lines"])
def test_a_crash_exits_two_with_one_error_line(capsys, monkeypatch, exc, want):
    """Exit 1 means "false": a crash inside a subcommand exits 2 instead,
    with one line and no traceback."""
    def crash(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "hypercube", crash)
    code = main(["hypercube", "--candidates", "a,b", "--voters", "1"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", want)
    assert want.startswith(CRASHES)


def test_running_out_of_memory_exits_two(tmp_path):
    """The 331,776-state 4x4 cube does not fit in 100 MB of address space;
    the cap is set in the child process only."""
    resource = pytest.importorskip("resource")
    cap = 100 * 1024 * 1024

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    target = tmp_path / "cube.model"
    proc = subprocess.run(
        [sys.executable, "-m", "epivote", "hypercube", "--candidates",
         "a,b,c,d", "--voters", "4", "-o", str(target)],
        capture_output=True, env=env, timeout=120, preexec_fn=limit)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, b"", b"error: out of memory\n")


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
    "$", "", *DEEP.values(),
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


@settings(derandomize=True, deadline=None, max_examples=40)
@given(m=pointed_models())
def test_written_models_read_back_and_report_every_voter(m):
    """A drawn model survives write_model and parse_model, and the CLI's
    manipulations report on its file has one record per voter, of the kind
    classify gives."""
    text = write_model(m)
    assert parse_model(text) == m
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "drawn.model")
        with open(path, "w") as fh:
            fh.write(text)
        code, out, err = run_in_process(
            ["manipulations", path, "--format", "records"])
    assert code == 0, err
    records = [json.loads(line) for line in out.splitlines()]
    F, kp = rule_for(m), m.pointed()
    assert [(r["voter"], r["kind"]) for r in records] == [
        (i, classify(kp, F, i).kind) for i in m.election.voters]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(m=pointed_models(broken=True))
def test_axioms_names_each_violation_of_a_written_model(m):
    """axioms on a drawn model's file prints one line per own-preference
    violation and exits 1, or exits 0 when there is none; a partition that
    misses or repeats a state exits 2 with one error line; no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "drawn.model")
        save_model(m, path)
        code, out, err = run_in_process(["axioms", path])
    try:
        violations = check_axioms(m).introspection_violations
    except PartitionError:
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        return
    assert (code, err) == (1 if violations else 0, "")
    assert [line for line in out.splitlines() if "confuses" in line] == [
        f"  voter {i} confuses {s} and {t}" for i, s, t in violations]


def run_in_process(argv):
    """Exit code, stdout and stderr of main as the interpreter reports them;
    a crash line on stderr fails the calling test."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except Exception:  # uncaught: a traceback and exit status 1
            traceback.print_exc()
            code = 1
    assert not err.getvalue().startswith(CRASHES), (argv, err.getvalue())
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
