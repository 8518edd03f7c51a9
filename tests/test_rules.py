"""Plurality with tiebreak, manipulations, dominance, profile equilibria."""

import itertools
import random

import pytest

from epivote import (
    Election,
    MissingTiebreak,
    Plurality,
    Profile,
    UnknownVoter,
    dominant_preference,
    enumerate_equilibria,
    is_equilibrium_profile,
    is_manipulation,
    manipulations,
    plurality_winner,
    pref,
    profile,
    rule_for,
)
from epivote.rules import ballot_classes, ballot_space

E2 = Election(("a", "b", "c"), 2)
E3 = Election(("a", "b", "c"), 3)
TIE = pref("b>a>c")
F = Plurality(TIE)


def test_majority_top_wins():
    p = profile("a>b>c", "a>c>b", "c>b>a")
    assert plurality_winner(E3, p, TIE) == "a"


def test_ties_resolve_by_fixed_order():
    assert plurality_winner(E2, profile("a>b>c", "c>b>a"), TIE) == "a"
    assert plurality_winner(E2, profile("a>b>c", "b>c>a"), TIE) == "b"
    assert plurality_winner(E2, profile("c>a>b", "b>a>c"), TIE) == "b"
    # three-way tie: tiebreak decides outright
    p3 = profile("a>b>c", "b>c>a", "c>a>b")
    assert plurality_winner(E3, p3, TIE) == "b"


def test_rule_for_requires_tiebreak():
    with pytest.raises(MissingTiebreak):
        rule_for(None)


def test_rule_for_accepts_model_or_order(hidden_flip):
    assert rule_for(hidden_flip).tiebreak == pref("b>a>c")
    assert rule_for(pref("c>b>a")).tiebreak == pref("c>b>a")


def test_manipulation_by_second_voter():
    # sincere winner is a; voting b instead swings the tiebreak to b,
    # which the manipulator ranks above a
    p = profile("a>b>c", "c>b>a")
    assert is_manipulation(F, E2, p, 2, pref("b>c>a"))
    assert is_manipulation(F, E2, p, 2, pref("b>a>c"))
    assert not is_manipulation(F, E2, p, 2, pref("c>b>a"))
    assert set(manipulations(F, E2, p, 2)) == {pref("b>c>a"), pref("b>a>c")}


def test_no_manipulation_when_top_already_wins():
    p = profile("a>b>c", "c>b>a")
    assert manipulations(F, E2, p, 1) == []


def test_sincere_voting_never_manipulates():
    for p in E2.all_profiles():
        for i in (1, 2):
            assert not is_manipulation(F, E2, p, i, p.pref(i))


def test_dominant_preference_trivial_cases():
    # sincerity weakly dominates itself never strictly: not dominant
    truth = pref("a>b>c")
    assert not dominant_preference(F, E2, 1, truth, truth)


def test_dominant_preference_rejects_same_top_swap():
    # swapping the two bottom candidates never changes any plurality
    # outcome against a sincere row, so the strict clause fails
    truth = pref("a>b>c")
    assert not dominant_preference(F, E2, 1, truth, pref("a>c>b"))


def test_dominant_preference_examples_two_candidates():
    e = Election(("a", "b"), 2)
    t = pref("b>a")
    rule = Plurality(pref("a>b"))
    # with tiebreak favouring a, voting b sincerely is already best;
    # a-voters gain nothing by misreporting
    assert not dominant_preference(rule, e, 1, pref("a>b"), t)


def test_equilibrium_top_sets_for_opposed_and_aligned_voters():
    # single-state game between opposed voters: winner grid row by row
    p_true = profile("a>b>c", "c>b>a")
    eqs = enumerate_equilibria(F, E2, p_true, by_top=True)
    tops = {tuple(q.tops()) for q in eqs}
    assert tops == {("a", "b"), ("b", "b")}

    p_same = profile("c>b>a", "c>b>a")
    eqs2 = enumerate_equilibria(F, E2, p_same, by_top=True)
    tops2 = {tuple(q.tops()) for q in eqs2}
    assert tops2 == {("a", "b"), ("b", "a"), ("b", "b"), ("c", "c")}


def test_is_equilibrium_profile_spot_checks():
    truth = profile("a>b>c", "c>b>a")
    votes = profile("a>b>c", "b>c>a")
    assert is_equilibrium_profile(F, E2, votes, truth)
    # sincere voting is not an equilibrium here: voter 2 swings to b
    assert not is_equilibrium_profile(F, E2, truth, truth)
    assert not is_equilibrium_profile(F, E2, truth)


def test_winner_cache_consistency():
    # same tops through different full orders must agree
    assert (
        plurality_winner(E2, profile("a>b>c", "c>b>a"), TIE)
        == plurality_winner(E2, profile("a>c>b", "c>a>b"), TIE)
    )


@pytest.mark.parametrize("voter", [0, -1, 3])
def test_voter_outside_the_profile_is_unknown(voter):
    # 0 and -1 used to index voters from the end, 3 raised a bare IndexError
    p = profile("a>b>c", "c>b>a")
    for call in (lambda: is_manipulation(F, E2, p, voter, pref("b>c>a")),
                 lambda: manipulations(F, E2, p, voter),
                 lambda: dominant_preference(F, E2, voter, pref("a>b>c"),
                                             pref("b>a>c")),
                 lambda: p.pref(voter),
                 lambda: p.replace(voter, pref("b>a>c"))):
        with pytest.raises(UnknownVoter, match=f"^no voter {voter} in 1..2$"):
            call()


def test_plurality_classes_are_the_by_top_ballots():
    for e in (E2, Election(("a", "b", "c", "d"), 2)):
        classes = ballot_classes(F, e.orders())
        assert [b for _, b in classes] == ballot_space(e, True)
        assert [k for k, _ in classes] == list(e.candidates)


@pytest.mark.parametrize("order", ["x>y>z", "a>b", "a>b>c>d", "c>a"])
def test_ballots_that_do_not_rank_the_candidates_are_refused(order):
    """Checked once at entry, with the argument named, instead of a bare
    KeyError from the winner or a verdict on a partial ballot."""
    p = profile("a>b>c", "c>b>a")
    tail = f"{order} does not rank every candidate of a b c once$"
    cases = [
        (lambda: is_manipulation(F, E2, p, 2, pref(order)), "alt"),
        (lambda: dominant_preference(F, E2, 1, pref("a>b>c"), pref(order)), "alt"),
        (lambda: dominant_preference(F, E2, 1, pref(order), pref("a>b>c")), "truth"),
        (lambda: manipulations(F, E2, p.replace(1, pref(order)), 2),
         "voter 1's ballot"),
    ]
    for call, what in cases:
        with pytest.raises(ValueError, match=f"^{what} {tail}"):
            call()


@pytest.mark.parametrize("ballots", [1, 3])
def test_profiles_with_the_wrong_number_of_ballots_are_refused(ballots):
    """One ValueError naming both counts, instead of a verdict on a profile
    of another election."""
    p = profile(*["c>b>a", "c>a>b", "c>b>a"][:ballots])
    named = f"^expected 2 ballots, one per voter, got {ballots}$"
    for call in (lambda: manipulations(F, E2, p, 1),
                 lambda: is_manipulation(F, E2, p, 1, pref("b>a>c"))):
        with pytest.raises(ValueError, match=named):
            call()


# The deviation loops as they were before every notion read one deviation
# table: a fresh replace and winner call per ballot, kept as oracles.

def old_is_manipulation(F, e, p, i, alt):
    truth = p.pref(i)
    return truth.prefers(F.winner(e, p.replace(i, alt)), F.winner(e, p))


def old_manipulations(F, e, p, i):
    truth, sincere = p.pref(i), F.winner(e, p)
    return [alt for alt in e.orders()
            if truth.prefers(F.winner(e, p.replace(i, alt)), sincere)]


def old_dominant_preference(F, e, i, truth, alt):
    orders = e.orders()
    strict_somewhere = False
    for others in itertools.product(orders, repeat=e.num_voters - 1):
        sincere = Profile(others[:i - 1] + (truth,) + others[i - 1:])
        with_alt = F.winner(e, sincere.replace(i, alt))
        for mine in orders:
            if truth.prefers(F.winner(e, sincere.replace(i, mine)), with_alt):
                return False
        if truth.prefers(with_alt, F.winner(e, sincere)):
            strict_somewhere = True
    return strict_somewhere


class LastOfVoterOne:
    """Voter 1's bottom candidate wins: her reversed ballot dominates."""

    name = "last"

    def winner(self, e, votes):
        return votes.prefs[0].order[-1]


def test_deviation_notions_match_the_old_loops():
    """Seeded profiles at 3 and 4 candidates, under plurality, the keyless
    veto rule and a rule with dominant ballots; manipulations in the same
    order."""
    from test_games_oracle import Veto
    rng, found = random.Random(31), set()
    for e in (E2, E3, Election(("a", "b", "c", "d"), 2),
              Election(("a", "b", "c", "d"), 3)):
        orders = e.orders()
        for rule in (Plurality(rng.choice(orders)), Veto(rng.choice(orders)),
                     LastOfVoterOne()):
            for _ in range(25):
                p = Profile(tuple(rng.choice(orders) for _ in e.voters))
                for i in e.voters:
                    got = manipulations(rule, e, p, i)
                    assert got == old_manipulations(rule, e, p, i)
                    assert [is_manipulation(rule, e, p, i, a) for a in orders] \
                        == [old_is_manipulation(rule, e, p, i, a) for a in orders]
                    found.add((rule.name, bool(got)))
            if e.num_voters == 2:
                pairs = list(itertools.product(orders, repeat=2))
                for truth, alt in rng.sample(pairs, min(len(pairs), 36)):
                    for i in e.voters:
                        got = dominant_preference(rule, e, i, truth, alt)
                        assert got == old_dominant_preference(rule, e, i, truth, alt)
                        found.add((rule.name, "dominant", got))
    assert {(r, b) for r in ("plurality", "veto") for b in (True, False)} <= found
    assert ("last", "dominant", True) in found
