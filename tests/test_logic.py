"""Formula language: parsing, printing, semantics, axioms, translations."""

import ast
import pathlib
import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epivote import (
    And,
    CompAtom,
    Election,
    EmptySet,
    FormulaSyntaxError,
    Implies,
    IncompleteProfileAtom,
    Indistinguishable,
    Know,
    KnowledgeProfile,
    Not,
    Plurality,
    PrefAtom,
    ProfileAtom,
    SizeLimit,
    TRUE,
    UnknownCandidate,
    UnknownVoter,
    WinsAtom,
    big_and,
    big_or,
    build_concept_formula,
    characteristic_formula,
    check_axioms,
    check_formula,
    denotation,
    dominant_preference,
    evaluate,
    expand_abbreviations,
    is_conditional_equilibrium,
    make_model,
    manipulations,
    parse,
    pref,
    profile,
    random_announcement,
    random_model,
    reduce_announcements,
    to_text,
    valid_on,
)
from conftest import random_formula
from epivote import logic

E2 = Election(("a", "b", "c"), 2)
F = Plurality(pref("b>a>c"))


# ------------------------------------------------------------ parse / print

def test_parse_core_syntax():
    assert parse("1: a>c", E2) == CompAtom(1, "a", "c")
    assert parse("pref 2(c>b>a)", E2) == PrefAtom(2, pref("c>b>a"))
    assert parse("wins b", E2) == WinsAtom("b")
    assert parse("profile{1: a>b>c; 2: c>b>a}", E2) == ProfileAtom(
        profile("a>b>c", "c>b>a")
    )
    assert parse("K2 wins a", E2) == Know(2, WinsAtom("a"))
    assert parse("K 2 wins a", E2) == Know(2, WinsAtom("a"))


def test_full_ranking_comparison_is_a_pref_atom():
    assert parse("1: a>b>c", E2) == PrefAtom(1, pref("a>b>c"))


def test_precedence_and_sugar():
    # ~ binds tighter than &, which binds tighter than | and ->
    assert parse("~wins a & wins b", E2) == And(Not(WinsAtom("a")), WinsAtom("b"))
    phi = parse("wins a -> wins b", E2)
    assert phi == Implies(WinsAtom("a"), WinsAtom("b"))
    assert parse("wins a | wins b", E2) == Not(
        And(Not(WinsAtom("a")), Not(WinsAtom("b")))
    )


def test_round_trip_examples():
    texts = [
        "1: a>c",
        "~K2 1: a>c",
        "[1: a>c] K2 1: a>c",
        "pref 1(a>b>c) & ~(K1 wins b & true)",
        "profile{1: b>a>c; 2: a>c>b}",
    ]
    for src in texts:
        phi = parse(src, E2)
        assert parse(to_text(phi), E2) == phi


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_round_trip_random_formulas(seed):
    phi = random_formula(random.Random(seed), E2)
    assert parse(to_text(phi), E2) == phi


VOTER_VALUES = (1, 2, 0, -1, 3, 2.5, 2.0, 1.0, True, False, "1", None)


@settings(derandomize=True, deadline=None)
@given(voter=st.sampled_from(VOTER_VALUES),
       atom=st.sampled_from(("K", "pref", "comparison")),
       order=st.sampled_from(E2.orders()),
       sub=st.integers(0, 10**9))
def test_every_checked_voter_prints_back(voter, atom, order, sub):
    # True and 2.0 once passed check_formula and printed as KTrue, K2.0
    if atom == "K":
        phi = Know(voter, random_formula(random.Random(sub), E2, depth=1))
    elif atom == "pref":
        phi = PrefAtom(voter, order)
    else:
        phi = CompAtom(voter, order.order[0], order.order[1])
    try:
        check_formula(phi, E2)
    except UnknownVoter:
        return
    assert parse(to_text(phi), E2) == phi


@pytest.mark.parametrize("src", [
    "",
    "&",
    "1:",
    "1: a>",
    "K wins a",
    "wins",
    "(wins a",
    "wins a)",
    "profile{1: a>b>c; 2: a>b>c}extra",
    "1: a>b>c>",
    "true K1",
])
def test_syntax_errors_carry_positions(src):
    with pytest.raises(FormulaSyntaxError) as err:
        parse(src, E2)
    assert str(err.value).startswith("position ")
    assert err.value.pos >= 0


def test_reserved_words_are_not_candidates():
    for word in ("K", "true", "false", "profile", "pref", "wins"):
        with pytest.raises(ValueError, match="reserved word"):
            Election((word, "a"), 1)
    with pytest.raises(FormulaSyntaxError):
        parse("1: true>a", E2)


def test_unknown_voter_and_candidate():
    with pytest.raises(UnknownVoter):
        parse("3: a>c", E2)
    with pytest.raises(UnknownVoter):
        parse("K3 wins a", E2)
    with pytest.raises(UnknownCandidate):
        parse("1: a>d", E2)
    with pytest.raises(UnknownCandidate):
        parse("wins d", E2)


def test_incomplete_orders_rejected():
    with pytest.raises(IncompleteProfileAtom):
        parse("pref 1(a>b)", E2)
    with pytest.raises(IncompleteProfileAtom):
        parse("profile{1: a>b>c}", E2)
    with pytest.raises(IncompleteProfileAtom):
        parse("profile{1: a>b>c; 1: a>b>c}", E2)


# ----------------------------------------------------------------- semantics

def test_atom_semantics(nested_doubt):
    at = lambda s, src: evaluate(
        KnowledgeProfile(nested_doubt, s), F, parse(src, E2)
    )
    assert at("t", "1: a>c")
    assert not at("u", "1: a>c")
    assert at("u", "pref 1(c>b>a)")
    assert at("s", "profile{1: a>b>c; 2: c>b>a}")
    # plurality with tiebreak b>a>c: tops (a, c) tie and b is no one's top
    assert at("s", "wins a")
    assert at("u", "wins c")


def test_knowledge_semantics(nested_doubt):
    at = lambda s, src: evaluate(
        KnowledgeProfile(nested_doubt, s), F, parse(src, E2)
    )
    # voter 2 separates s from {t, u}, voter 1 separates u from {s, t}
    assert at("s", "K2 1: a>c")
    assert not at("t", "K2 1: a>c")
    assert at("u", "K1 pref 1(c>b>a)")
    assert not at("t", "K1 K2 pref 1(a>b>c)")


def test_announcement_semantics(nested_doubt):
    at = lambda s, src: evaluate(
        KnowledgeProfile(nested_doubt, s), F, parse(src, E2)
    )
    assert at("t", "[1: a>c] K2 1: a>c")
    # a false announcement makes the announcement formula vacuously true
    assert at("u", "[1: a>c] false")


def test_ignorance_example_formulas(nested_doubt):
    """The model's signature facts, each stated in the object language.

    At t: voter 1 ranks a over c; voter 2 does not know that; after it is
    announced he does; and voter 1, unsure between s and t, does not know
    whether voter 2 knows her ranking.
    """
    kp = KnowledgeProfile(nested_doubt, "t")
    for src in (
        "1: a>c",
        "~K2 1: a>c",
        "[1: a>c] K2 1: a>c",
        "K1 pref 2(c>b>a) & ~(K1 K2 pref 1(a>b>c) | K1 ~K2 pref 1(a>b>c))",
    ):
        phi = parse(src, E2)
        assert evaluate(kp, F, phi), src
        assert parse(to_text(phi), E2) == phi
        assert evaluate(kp, F, expand_abbreviations(phi, E2, F)), src
        assert evaluate(kp, F, reduce_announcements(phi)), src


def test_denotation(nested_doubt):
    assert denotation(nested_doubt, F, parse("1: a>c", E2)) == ("s", "t")
    assert denotation(nested_doubt, F, parse("K2 1: a>c", E2)) == ("s",)
    assert denotation(nested_doubt, F, parse("false", E2)) == ()
    assert valid_on(nested_doubt, F, parse("2: c>a", E2))


# -------------------------------------------------------------- translations

def test_expansion_counts():
    exp = expand_abbreviations(PrefAtom(1, pref("a>b>c")), E2, F)
    atoms = []
    stack = [exp]
    while stack:
        f = stack.pop()
        if isinstance(f, ProfileAtom):
            atoms.append(f.profile)
        elif isinstance(f, Not):
            stack.append(f.sub)
        elif isinstance(f, And):
            stack.extend((f.left, f.right))
    # one disjunct per choice of the other voter's ranking
    assert len(set(atoms)) == 6
    assert all(p.pref(1) == pref("a>b>c") for p in set(atoms))


def test_expansion_refuses_a_formula_of_another_election():
    """Foreign atoms used to become the unsatisfiable p & ~p, or a K of an
    unknown voter, or a bare ValueError."""
    e = Election(("a", "b", "c"), 2)
    for phi, error in ((WinsAtom("zz"), UnknownCandidate),
                       (PrefAtom(1, pref("a>b")), IncompleteProfileAtom),
                       (Know(7, TRUE), UnknownVoter),
                       (CompAtom(1, "a", "zz"), UnknownCandidate)):
        with pytest.raises(error):
            expand_abbreviations(phi, e, F)


def test_winner_atom_expansion_semantics():
    # one voter, two candidates: a wins exactly at the a>b profile
    e1 = Election(("a", "b"), 1)
    rule = Plurality(pref("a>b"))
    exp = expand_abbreviations(WinsAtom("a"), e1, rule)
    assert exp == ProfileAtom(profile("a>b"))
    m = make_model(e1, ["x"], [profile("a>b")], tiebreak=pref("a>b"), point="x")
    assert evaluate(m.pointed(), rule, exp)


def test_reduction_rules_structure():
    p, q, r = WinsAtom("a"), WinsAtom("b"), WinsAtom("c")
    from epivote import Announce

    assert reduce_announcements(Announce(p, And(q, r))) == And(
        Implies(p, q), Implies(p, r)
    )
    # the knowledge rule guards the body and then pushes into it
    assert reduce_announcements(Announce(p, Know(1, q))) == Implies(
        p, Know(1, Implies(p, Implies(p, q)))
    )
    plain = And(p, Not(q))
    assert reduce_announcements(plain) == plain


def test_translations_agree_with_direct_evaluation():
    rng = random.Random(41)
    agreements = 0
    for _ in range(120):
        m = random_model(rng)
        rule = Plurality(m.tiebreak)
        phi = random_formula(rng, m.election)
        kp = m.pointed()
        direct = evaluate(kp, rule, phi)
        assert evaluate(kp, rule, expand_abbreviations(phi, m.election, rule)) == direct
        assert evaluate(kp, rule, reduce_announcements(phi)) == direct
        agreements += 1
    assert agreements == 120


# ------------------------------------------------------------------- axioms

def test_axioms_hold_on_fixtures(all_fixture_models):
    for name, m in all_fixture_models.items():
        rep = check_axioms(m)
        assert rep.exclusivity_valid, name
        assert rep.introspection_valid, name
        assert rep.introspection_violations == ()


def test_introspection_fails_when_blocks_mix_preferences():
    m = make_model(
        E2,
        ["x", "y"],
        [profile("a>b>c", "c>b>a"), profile("b>a>c", "c>b>a")],
        {1: [("x", "y")], 2: [("x", "y")]},
        tiebreak=pref("b>a>c"),
    )
    rep = check_axioms(m)
    assert rep.exclusivity_valid
    assert not rep.introspection_valid
    assert (1, "x", "y") in rep.introspection_violations


# ----------------------------------------------------- distinguishing formulas

def test_characteristic_formulas_pin_down_states(nested_doubt):
    # s and t carry the same profile; only nesting of knowledge splits them
    for target in [("s",), ("t",), ("u",), ("s", "t"), ("t", "u")]:
        chi = characteristic_formula(nested_doubt, target)
        assert denotation(nested_doubt, F, chi.formula) == target


def test_characteristic_formulas_cover_every_infoset(all_fixture_models):
    for name, m in all_fixture_models.items():
        for i in m.election.voters:
            for block in m.blocks(i):
                chi = characteristic_formula(m, block)
                assert denotation(m, F, chi.formula) == block, (name, i)


def test_bisimilar_states_cannot_be_split():
    # two states, same profile, nobody can tell them apart
    m = make_model(
        E2,
        ["x", "y"],
        [profile("a>b>c", "c>b>a")] * 2,
        {1: [("x", "y")], 2: [("x", "y")]},
        tiebreak=pref("b>a>c"),
    )
    with pytest.raises(Indistinguishable):
        characteristic_formula(m, ("x",))
    with pytest.raises(EmptySet):
        characteristic_formula(m, ())


# ------------------------------------------------------------ concept formulas

def test_equilibrium_concept_formula_tracks_the_checker(hidden_flip):
    e = hidden_flip.election
    orders = e.orders()
    for r1t in orders:
        for r1u in orders:
            for r2 in orders:
                cp = ((r1t, r1u), (r2,))
                ok, _ = is_conditional_equilibrium(hidden_flip, F, cp)
                phi = build_concept_formula(
                    "conditional_equilibrium", m=hidden_flip, F=F, cp=cp
                )
                assert valid_on(hidden_flip, F, phi) == ok


def test_has_manipulation_concept_formula(all_fixture_models):
    for m in all_fixture_models.values():
        e = m.election
        for s in m.states:
            p = m.profile_at(s)
            for i in e.voters:
                phi = build_concept_formula("has_manipulation", e=e, F=F, i=i, p=p)
                got = evaluate(KnowledgeProfile(m, s), F, phi)
                assert got == bool(manipulations(F, e, p, i))


def test_dominant_concept_formula_on_single_state_models():
    """On a one-state model the formula collapses to the profile-free notion.

    The formula reads the voter's ranking off the state, so the other
    voter's ballot must not matter.
    """
    e = E2
    for alt in e.orders():
        phi = build_concept_formula("dominant_manipulation", e=e, F=F, i=1, alt=alt)
        for truth in e.orders():
            want = dominant_preference(F, e, 1, truth, alt)
            for other in e.orders():
                p = profile(truth.as_text(), other.as_text())
                m = make_model(e, ["w"], [p], tiebreak=F.tiebreak, point="w")
                assert evaluate(m.pointed(), F, phi) == want, (truth, alt, other)


def test_unknown_concept_rejected():
    with pytest.raises(ValueError):
        build_concept_formula("bribery", e=E2, F=F)


SINCERE = profile("a>b>c", "c>b>a")


@pytest.mark.parametrize("concept, args, message", [
    ("has_manipulation", dict(i=1, p=profile("a>b>c", "c>b>a", "b>a>c")),
     "^expected 2 ballots, one per voter, got 3$"),
    ("equilibrium", dict(p=profile("a>b>c", "c>b>a", "b>a>c")),
     "^expected 2 ballots, one per voter, got 3$"),
    ("has_manipulation", dict(i=1, p=profile("a>b>c", "a>b")),
     "^voter 2's ballot a>b does not rank every candidate of a b c once$"),
    ("manipulation_with", dict(i=1, p=SINCERE, alt=pref("c>a")),
     "^alt c>a does not rank every candidate of a b c once$"),
    ("manipulation_with", dict(i=1, p=SINCERE, alt=pref("x>y>z")),
     "^alt x>y>z does not rank every candidate of a b c once$"),
    ("dominant_manipulation", dict(i=1, alt=pref("x>y>z")),
     "^alt x>y>z does not rank every candidate of a b c once$"),
], ids=["has-long", "equilibrium-long", "has-short-ballot", "alt-short",
        "alt-foreign", "dominant-foreign"])
def test_concept_formulas_refuse_malformed_arguments(concept, args, message):
    with pytest.raises(ValueError, match=message):
        build_concept_formula(concept, e=E2, F=F, **args)


# ------------------------------------------------------ formulas of any depth

E4X2 = Election(("a", "b", "c", "d"), 2)
F4 = Plurality(pref("b>a>c>d"))


def test_prefix_chains_parse_and_print_at_any_depth():
    for src in ("~" * 3000 + "wins a", "K1 " * 3000 + "true",
                "[true] " * 1000 + "wins a"):
        phi = parse(src, E2)
        assert to_text(phi) == src
        assert parse(to_text(phi), E2) == phi
        check_formula(phi, E2)
    # reduce copies the announced formula per rule: announcements stay few
    phi = parse("K1 " * 3000 + "[wins a] ~" * 3 + "wins b", E2)
    assert to_text(reduce_announcements(phi)).startswith("K1 " * 3000)


def test_expanded_winner_atom_prints_hashes_and_compares():
    phi = expand_abbreviations(WinsAtom("a"), E4X2, F4)
    again = expand_abbreviations(WinsAtom("a"), E4X2, F4)
    assert phi is not again
    assert to_text(phi) == to_text(again)
    assert phi == again and hash(phi) == hash(again)
    assert phi != expand_abbreviations(WinsAtom("b"), E4X2, F4)


@pytest.mark.parametrize("concept, args", [
    ("knows_de_dicto", {"i": 1}),
    ("knows_de_re", {"i": 2}),
    ("dominant_manipulation", {"i": 1, "alt": pref("c>a>b>d")}),
])
def test_concept_formulas_over_four_candidates_hash(concept, args):
    phi = build_concept_formula(concept, e=E4X2, F=F4, **args)
    again = build_concept_formula(concept, e=E4X2, F=F4, **args)
    assert hash(phi) == hash(again) and phi == again


def large_hunt_announcement():
    rng = random.Random(0)
    m = random_model(rng, Election(("a", "b", "c", "d"), 4), 1000)
    assert len(m.states) == 866
    return m.election, random_announcement(rng, m)


def test_hunt_announcement_over_a_large_model_prints():
    phi = large_hunt_announcement()[1]
    assert to_text(phi).count("profile{") > 400


def test_hunt_announcement_over_a_large_model_parses_back():
    e, phi = large_hunt_announcement()
    assert parse(to_text(phi), e) == phi


def right_nested_and(n):
    phi = WinsAtom("a")
    for _ in range(n - 1):
        phi = And(WinsAtom("b"), phi)
    return phi


@pytest.mark.parametrize("phi", [
    big_or(WinsAtom(c) for c in "abc" * 200),
    right_nested_and(3000),
], ids=["or-600", "and-3000"])
def test_deep_formulas_parse_back(phi):
    """Each prints inside some 600 or 3,000 nested brackets (prefix chains
    are checked above)."""
    text = to_text(phi)
    assert parse(text, E2) == phi
    assert to_text(parse(text, E2)) == text


def test_brackets_nest_to_any_depth():
    assert parse("(" * 3000 + "true" + ")" * 3000, E2) == TRUE
    deep = parse("[" * 3000 + "wins a" + "] wins b" * 3000, E2)
    assert to_text(deep).startswith("[" * 3000)
    with pytest.raises(FormulaSyntaxError, match="^position 6003: expected"):
        parse("(" * 3000 + "true" + ")" * 2999, E2)


def iff_chain(n):
    """n `wins a` atoms joined by <->: each Iff shares its two operands
    between its two implications, so the tree has 2^(n-1) paths."""
    return parse(" <-> ".join(["wins a"] * n), E2)


def doubled(rounds):
    phi = WinsAtom("a")
    for _ in range(rounds):
        phi = And(phi, phi)
    return phi


def within_a_second(run):
    """run(), or a failure once it has taken a second. The failure carries
    no frame of run, whose arguments may be too large to print."""
    def expire(*_):
        raise TimeoutError
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1)
    try:
        return run()
    except TimeoutError:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    pytest.fail("took a second or more")


@pytest.mark.parametrize("build, arg", [(iff_chain, 18), (doubled, 40)],
                         ids=["iff-chain-18", "doubled-40"])
def test_shared_subformulas_are_walked_once(build, arg):
    phi, again, shorter = build(arg), build(arg), build(arg - 1)

    def walks():
        assert hash(phi) == hash(again)
        assert phi == again and not phi != again
        assert phi != shorter
        check_formula(phi, E2)

    within_a_second(walks)


def test_repr_of_a_deep_formula():
    deep = big_and([TRUE] * 5000)
    try:
        text = repr(deep)
    except RecursionError:  # caught, so no traceback prints deep's frames
        text = "RecursionError"
    assert text == "And(left=" * 4999 + "Top()" + ", right=Top())" * 4999
    assert repr(And(Not(TRUE), Know(1, WinsAtom("a")))) == (
        "And(left=Not(sub=Top()), right=Know(voter=1, sub=WinsAtom(candidate='a')))")


def test_too_deep_to_evaluate_is_a_size_limit(nested_doubt):
    deep = big_and([TRUE] * 5000)
    for run in (lambda: denotation(nested_doubt, F, deep),
                lambda: evaluate(nested_doubt.pointed(), F, deep),
                lambda: valid_on(nested_doubt, F, deep)):
        with pytest.raises(SizeLimit, match="^formula nests too deeply$"):
            run()
    assert to_text(deep) == " & ".join(["true"] * 5000)
    check_formula(deep, E2)


def call_graph(path):
    """Each function of the module at path, and each method as
    Class.method, with the names it calls and the methods it calls on self."""
    graph = {}
    tree = ast.parse(pathlib.Path(path).read_text())
    scopes = [(None, tree)] + [(c.name, c) for c in tree.body
                               if isinstance(c, ast.ClassDef)]
    for owner, scope in scopes:
        for fn in scope.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            callees = graph[f"{owner}.{fn.name}" if owner else fn.name] = set()
            for call in ast.walk(fn):
                f = call.func if isinstance(call, ast.Call) else None
                if isinstance(f, ast.Name):
                    callees.add(f.id)
                elif (owner and isinstance(f, ast.Attribute)
                      and isinstance(f.value, ast.Name) and f.value.id == "self"):
                    callees.add(f"{owner}.{f.attr}")
    return graph


def reaches_itself(graph):
    """The names of graph from which a chain of calls leads back."""
    out = set()
    for start in graph:
        todo, seen = list(graph[start]), set()
        while todo:
            name = todo.pop()
            if name == start:
                out.add(start)
            elif name in graph and name not in seen:
                seen.add(name)
                todo += graph[name]
    return out


def test_only_the_evaluator_recurses():
    """No parser method reaches itself, directly or through brackets, and
    _eval is the one function of the package that calls itself."""
    modules = pathlib.Path(logic.__file__).parent.glob("*.py")
    assert {(p.name, name) for p in modules
            for name in reaches_itself(call_graph(p))} == {("logic.py", "_eval")}
    assert any(name.startswith("_Parser.") for name in call_graph(logic.__file__))
