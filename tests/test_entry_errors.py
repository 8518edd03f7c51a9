"""The error contract of errors.py at every public entry point.

A public name of ``epivote.__all__`` that takes a ballot, a profile, a
voter, a state, a conditional profile or a formula raises EpivoteError or
ValueError for a bad one, never KeyError, IndexError or TypeError, and
never returns a verdict. A bad voter is an int outside 1..n or no int at
all (``2.5``, ``2.0``, ``"1"``, ``None``, ``True``); a bad formula names
a voter like that, a candidate of another election, or holds a profile
atom with one ballot too many. The two winner functions,
``plurality_winner`` and ``Plurality.winner``, are the unguarded hot path
and are left out, and so is ``make_model``'s valuation, which
``validate_model`` checks.
"""

import random

from hypothesis import given, settings, strategies as st

from conftest import pointed_models
from epivote import (
    TRUE,
    CompAtom,
    EpivoteError,
    Know,
    KnowledgeProfile,
    Plurality,
    PrefAtom,
    Preference,
    Profile,
    ProfileAtom,
    VirtualVoter,
    WinsAtom,
    build_concept_formula,
    check_formula,
    check_preservation,
    classify,
    conditional_profile,
    denotation,
    dominant_manipulation_of_infoset,
    dominant_preference,
    enumerate_equilibria,
    evaluate,
    expand_abbreviations,
    hypercube,
    induced_votes,
    induced_winners,
    is_conditional_equilibrium,
    is_equilibrium_profile,
    is_manipulation,
    knows_manipulation,
    make_model,
    manipulations,
    payoff,
    pessimistic_manipulation,
    random_model,
    restrict,
    search_counterexample,
    sincere_conditional_profile,
    update,
    update_conditional_profile,
    virtual_voters,
    worst_winner,
)


def unchecked(order) -> Preference:
    """A Preference that skips its own repeat check, as a caller could
    build one, so the library's ballot guard is what refuses it."""
    ballot = object.__new__(Preference)
    object.__setattr__(ballot, "order", tuple(order))
    return ballot


@st.composite
def bad_ballots(draw, candidates):
    kind = draw(st.sampled_from(("foreign", "partial", "repeated", "long")))
    if kind == "foreign":
        return Preference(tuple(f"x{k}" for k in range(len(candidates))))
    if kind == "partial":
        return Preference(candidates[:-1])
    if kind == "repeated":
        return unchecked(candidates[:-1] + candidates[:1])
    return Preference(candidates + ("z",))


@st.composite
def bad_profiles(draw, e, p):
    kind = draw(st.sampled_from(("short", "long", "ballot")))
    if kind == "short":
        return Profile(p.prefs[:-1])
    if kind == "long":
        return Profile(p.prefs + p.prefs[:1])
    k = draw(st.integers(0, len(p.prefs) - 1))
    ballot = draw(bad_ballots(e.candidates))
    return Profile(p.prefs[:k] + (ballot,) + p.prefs[k + 1:])


@st.composite
def bad_formulas(draw, e, actual, voter):
    """A formula of another election: one naming the bad voter, a foreign
    candidate, or a profile with n + 1 ballots."""
    a, b = e.candidates[:2]
    kind = draw(st.sampled_from(("K", "pref", "comparison", "wins", "profile")))
    if kind == "K":
        return Know(voter, TRUE)
    if kind == "pref":
        return PrefAtom(voter, e.orders()[0])
    if kind == "comparison":
        return CompAtom(voter, a, b)
    if kind == "wins":
        return WinsAtom("zz")
    return ProfileAtom(Profile(actual.prefs + actual.prefs[:1]))


@st.composite
def bad_conditional_profiles(draw, e, cp):
    kind = draw(st.sampled_from(("rows-", "rows+", "row-", "row+", "ballot")))
    if kind == "rows-":
        return cp[:-1]
    if kind == "rows+":
        return cp + cp[:1]
    k = draw(st.integers(0, len(cp) - 1))
    row = cp[k]
    if kind == "row-":
        row = row[:-1]
    elif kind == "row+":
        row = row + row[:1]
    else:
        row = (draw(bad_ballots(e.candidates)),) + row[1:]
    return cp[:k] + (row,) + cp[k + 1:]


def calls_on(m, data):
    """(name, call) pairs, each with one bad argument drawn from data."""
    e, F, kp = m.election, Plurality(m.tiebreak), m.pointed()
    actual, good = kp.truth(), e.orders()[0]
    cp = sincere_conditional_profile(m)
    vv = virtual_voters(m)[0]
    b = data.draw(bad_ballots(e.candidates), "ballot")
    p = data.draw(bad_profiles(e, actual), "profile")
    n = e.num_voters
    v = data.draw(st.sampled_from(
        (0, -1, n + 1, 99, 2.5, float(n), "1", None, True)), "voter")
    phi = data.draw(bad_formulas(e, actual, v), "formula")
    concept, args = data.draw(st.sampled_from((
        ("manipulation_with", {"p": actual, "alt": good}),
        ("has_manipulation", {"p": actual}),
        ("dominant_manipulation", {"alt": good}),
        ("knows_de_dicto", {}),
        ("knows_de_re", {}))), "concept formula")
    bad_concept, bad_args = data.draw(st.sampled_from((
        ("manipulation_with", {"i": 1, "p": p, "alt": good}),
        ("manipulation_with", {"i": 1, "p": actual, "alt": b}),
        ("has_manipulation", {"i": 1, "p": p}),
        ("dominant_manipulation", {"i": 1, "alt": b}),
        ("equilibrium", {"p": p}))), "concept formula argument")
    s = data.draw(st.sampled_from(("zz", "s9", "")), "state")
    c = data.draw(bad_conditional_profiles(e, cp), "conditional profile")
    choices = {i: {block: ballot for block, ballot in zip(m.blocks(i), row)}
               for i, row in zip(e.voters, cp)}
    lost = data.draw(st.sampled_from(list(e.voters)), "voter without a choice")
    if data.draw(st.booleans(), "drop the voter"):
        del choices[lost]
    else:
        del choices[lost][m.blocks(lost)[0]]
    return [
        ("is_manipulation ballot", lambda: is_manipulation(F, e, actual, 1, b)),
        ("dominant_preference truth", lambda: dominant_preference(F, e, 1, b, good)),
        ("dominant_preference alt", lambda: dominant_preference(F, e, 1, good, b)),
        ("dominant_manipulation_of_infoset ballot",
         lambda: dominant_manipulation_of_infoset(kp, F, 1, b)),
        ("pessimistic_manipulation ballot",
         lambda: pessimistic_manipulation(kp, F, 1, b)),
        ("hypercube", lambda: hypercube(e, b)),
        ("make_model tiebreak", lambda: make_model(e, ["s"], [actual], None, b)),
        ("random_model", lambda: random_model(random.Random(0), e, 4, b)),
        ("search_counterexample",
         lambda: search_counterexample("knowledge_de_re", e, Plurality(b), budget=1)),
        ("manipulations profile", lambda: manipulations(F, e, p, 1)),
        ("is_manipulation profile", lambda: is_manipulation(F, e, p, 1, good)),
        ("is_equilibrium_profile votes", lambda: is_equilibrium_profile(F, e, p)),
        ("is_equilibrium_profile truth",
         lambda: is_equilibrium_profile(F, e, actual, p)),
        ("enumerate_equilibria", lambda: enumerate_equilibria(F, e, p, True)),
        ("classify voter", lambda: classify(kp, F, v)),
        ("knows_manipulation voter", lambda: knows_manipulation(kp, F, v, "de_re")),
        ("dominant_manipulation_of_infoset voter",
         lambda: dominant_manipulation_of_infoset(kp, F, v, good)),
        ("pessimistic_manipulation voter",
         lambda: pessimistic_manipulation(kp, F, v, good)),
        ("manipulations voter", lambda: manipulations(F, e, actual, v)),
        ("is_manipulation voter", lambda: is_manipulation(F, e, actual, v, good)),
        ("dominant_preference voter",
         lambda: dominant_preference(F, e, v, good, good)),
        ("check_preservation voter",
         lambda: check_preservation(m, F, TRUE, "knowledge_de_dicto", v)),
        ("payoff voter", lambda: payoff(m, F, cp, VirtualVoter(v, vv.infoset))),
        ("worst_winner voter",
         lambda: worst_winner(m, F, cp, VirtualVoter(v, vv.infoset))),
        ("Profile.pref voter", lambda: actual.pref(v)),
        ("Profile.replace voter", lambda: actual.replace(v, good)),
        ("ProfileModel.blocks voter", lambda: m.blocks(v)),
        ("build_concept_formula voter",
         lambda: build_concept_formula(concept, e=e, F=F, i=v, **args)),
        ("build_concept_formula argument",
         lambda: build_concept_formula(bad_concept, e=e, F=F, **bad_args)),
        ("check_formula", lambda: check_formula(phi, e)),
        ("expand_abbreviations", lambda: expand_abbreviations(phi, e, F)),
        ("denotation", lambda: denotation(m, F, phi)),
        ("evaluate", lambda: evaluate(kp, F, phi)),
        ("update formula", lambda: update(m, phi, F)),
        ("KnowledgeProfile", lambda: KnowledgeProfile(m, s)),
        ("induced_votes state", lambda: induced_votes(m, cp, s)),
        ("restrict", lambda: restrict(m, [s])),
        ("worst_winner state", lambda: worst_winner(m, F, cp, VirtualVoter(1, (s,)))),
        ("conditional_profile state",
         lambda: conditional_profile(m, {i: {s: good} for i in e.voters})),
        ("conditional_profile choices", lambda: conditional_profile(m, choices)),
        ("induced_votes", lambda: induced_votes(m, c, m.point)),
        ("induced_winners", lambda: induced_winners(m, F, c)),
        ("is_conditional_equilibrium", lambda: is_conditional_equilibrium(m, F, c)),
        ("payoff", lambda: payoff(m, F, c, vv)),
        ("worst_winner", lambda: worst_winner(m, F, c, vv)),
        ("update_conditional_profile",
         lambda: update_conditional_profile(m, c, update(m, TRUE))),
        ("check_preservation conditional profile",
         lambda: check_preservation(m, F, TRUE, "conditional_equilibrium", cp=c)),
    ]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(m=pointed_models(), data=st.data())
def test_bad_arguments_raise_the_contract_errors(m, data):
    for name, call in calls_on(m, data):
        try:
            verdict = call()
        except (EpivoteError, ValueError):
            continue
        raise AssertionError(f"{name} returned {verdict!r}")
