"""Model file parsing and the canonical writer."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from epivote import modelfile
from epivote import (
    Election,
    ModelSyntaxError,
    hypercube,
    parse_model,
    pref,
    random_model,
    validate_model,
    write_model,
)

GOOD = """\
# a two-state example
candidates: a b c
voters: 2
tiebreak: b a c

state t = 1: a>b>c ; 2: c>b>a
state u = 1: c>b>a ; 2: c>b>a
indist 1: {t} {u}
indist 2: {t u}
point: t
"""


def test_parse_good_text():
    m = parse_model(GOOD)
    assert m.states == ("t", "u")
    assert m.profile_at("t").pref(1) == pref("a>b>c")
    assert m.blocks(2) == (("t", "u"),)
    assert m.tiebreak == pref("b>a>c")
    assert m.point == "t"


def test_omitted_indist_defaults_to_singletons():
    text = "candidates: a b\nvoters: 1\nstate s = 1: a>b\nstate t = 1: b>a\n"
    m = parse_model(text)
    assert m.blocks(1) == (("s",), ("t",))


def test_write_then_parse_is_identity(all_fixture_models):
    for name, m in all_fixture_models.items():
        again = parse_model(write_model(m))
        assert again == m, name


def test_write_is_canonical_fixed_point(hidden_flip):
    once = write_model(hidden_flip)
    assert write_model(parse_model(once)) == once


@pytest.mark.parametrize("line,fragment", [
    ("candidates: a a b", "twice"),
    ("candidates: a b>c d", "not an identifier"),
    ("candidates: true a b", "reserved word"),
    ("voters: 0", "at least one"),
    ("tiebreak: a b", "tiebreak"),
    ("state t = 1: a>b>c", "lacks voter"),
    ("state t = 1: a>b ; 2: a>b>c", "order"),
    ("indist 3: {t}", "no voter 3"),
    # an indist line could not list these names
    ("state a}b = 1: a>b>c ; 2: c>b>a", "brace"),
    ("state {u = 1: a>b>c ; 2: c>b>a", "brace"),
    ("point: zz", "not a declared state"),
    ("bogus: 1", "bogus"),
])
def test_parse_errors_carry_line_numbers(line, fragment):
    base = ["candidates: a b c", "voters: 2",
            "state t = 1: a>b>c ; 2: c>b>a"]
    if line.startswith("candidates"):
        text = "\n".join([line] + base[1:]) + "\n"
        bad_line = 1
    elif line.startswith("voters"):
        text = "\n".join([base[0], line, base[2]]) + "\n"
        bad_line = 2
    elif line.startswith("state t"):
        text = "\n".join(base[:2] + [line]) + "\n"
        bad_line = 3
    else:
        text = "\n".join(base + [line]) + "\n"
        bad_line = 4
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model(text)
    assert exc.value.line == bad_line
    assert fragment.lower() in str(exc.value).lower()


def test_duplicate_state_rejected():
    text = GOOD.replace("state u =", "state t =")
    with pytest.raises(ModelSyntaxError):
        parse_model(text)


def test_partition_violations_surface_on_parse():
    text = GOOD.replace("indist 1: {t} {u}", "indist 1: {t u}")
    # voter 1's ranking differs between t and u
    with pytest.raises(Exception):
        parse_model(text)
    parse_model(text, validate=False)  # structural parse still possible


def test_comments_and_blank_lines_ignored():
    noisy = "\n\n# hi\n" + GOOD.replace("state u", "# mid\nstate u") + "\n# bye\n"
    assert parse_model(noisy) == parse_model(GOOD)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_round_trip_on_random_models(seed):
    """Property: write_model followed by parse_model reproduces the model."""
    m = random_model(random.Random(seed), tiebreak=pref("b>a>c"))
    validate_model(m)
    assert parse_model(write_model(m)) == m


def test_each_ballot_text_is_checked_once(monkeypatch):
    """The 576-state cube file names 24 ballot texts (and a tiebreak); the
    parsed states share one Preference per text."""
    text = write_model(hypercube(Election(("a", "b", "c", "d"), 2),
                                 tiebreak=pref("c>a>d>b")))
    calls = []
    real = modelfile._check_order

    def counted(lineno, order, candidates, what):
        calls.append(order)
        return real(lineno, order, candidates, what)

    monkeypatch.setattr(modelfile, "_check_order", counted)
    m = parse_model(text)
    assert len(calls) == 24 + 1
    assert len({id(b) for p in m.profiles for b in p.prefs}) == 24


def test_a_bad_ballot_text_is_reported_at_each_first_line():
    head = "candidates: a b c\nvoters: 2\n"
    text = (head + "state s = 1: a>b>c ; 2: a>b>c\n"
            "state t = 1: c>b>a ; 2: a>b\nstate u = 1: a>b ; 2: a>b>c\n")
    with pytest.raises(ModelSyntaxError,
                       match="^line 4: voter 2's order must rank every "):
        parse_model(text)
    text = head + "state s = 1: a>b>c ; 2: a>b>c\nstate t = 1: b>b>a ; 2: c>b>a\n"
    with pytest.raises(ModelSyntaxError,
                       match="^line 4: voter 1's order must rank every "):
        parse_model(text)


def test_a_failed_render_leaves_the_target_file_as_it_was(
        monkeypatch, tmp_path, nested_doubt):
    """save_model renders before it opens the file, so running out of
    memory while rendering does not empty an existing file."""
    path = tmp_path / "kept.model"
    path.write_text(GOOD, encoding="utf-8")
    before = path.read_bytes()

    def fail(m):
        raise MemoryError

    monkeypatch.setattr(modelfile, "write_model", fail)
    with pytest.raises(MemoryError):
        modelfile.save_model(nested_doubt, path)
    assert path.read_bytes() == before
