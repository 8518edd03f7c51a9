"""Announcements: model updates, profile carry-over, what survives."""

import dataclasses
import random

import pytest

from epivote import dynamics
from epivote import (
    EmptyResult,
    MissingTiebreak,
    Plurality,
    PROPERTIES,
    VirtualVoter,
    check_preservation,
    conditional_profile,
    denotation,
    enumerate_conditional_equilibria,
    is_conditional_equilibrium,
    parse,
    pref,
    random_announcement,
    random_conditional_profile,
    random_model,
    search_counterexample,
    update,
    update_conditional_profile,
    validate_model,
)
from test_dynamics_oracle import old_search_counterexample

F = Plurality(pref("b>a>c"))


def test_update_drops_failing_states(hidden_flip):
    phi = parse("1: a>c", hidden_flip.election)
    u = update(hidden_flip, phi, F)
    assert u.survived == ("t",)
    assert u.dropped == ("u",)
    assert u.point_survives is True
    assert u.model.point == "t"
    assert u.model.blocks(2) == (("t",),)
    validate_model(u.model)


def test_update_point_dropped_leaves_unpointed(hidden_flip):
    phi = parse("pref 1(c>b>a)", hidden_flip.election)
    u = update(hidden_flip, phi, F)
    assert u.survived == ("u",)
    assert u.point_survives is False
    assert u.model.point is None


def test_update_unpointed_input(hidden_flip):
    bare = dataclasses.replace(hidden_flip, point=None)
    u = update(bare, parse("1: a>c", bare.election), F)
    assert u.point_survives is None


def test_update_nothing_survives(hidden_flip):
    with pytest.raises(EmptyResult):
        update(hidden_flip, parse("false", hidden_flip.election), F)


def test_update_winner_atom_needs_rule(hidden_flip):
    # the fixture's winners are a at t and c at u, so ~wins b keeps both
    phi = parse("~wins b", hidden_flip.election)
    with pytest.raises(MissingTiebreak):
        update(hidden_flip, phi)
    assert update(hidden_flip, phi, F).survived == hidden_flip.states


def test_update_survivors_match_denotation():
    rng = random.Random(7)
    for _ in range(80):
        m = random_model(rng)
        rule = Plurality(m.tiebreak)
        phi = random_announcement(rng, m)
        u = update(m, phi, rule)
        assert u.survived == denotation(m, rule, phi)
        assert set(u.survived) | set(u.dropped) == set(m.states)
        validate_model(u.model)
        # partitions of the restriction are intersections with the survivors
        for i in m.election.voters:
            for block in u.model.blocks(i):
                old = m.block_of(i, block[0])
                assert set(block) == set(old) & set(u.survived)


def test_updated_conditional_profile_inherits_choices(nested_doubt):
    cp = conditional_profile(nested_doubt, {
        1: {"s": pref("b>a>c"), "u": pref("c>a>b")},
        2: {"s": pref("a>c>b"), "t": pref("b>c>a")},
    })
    # kill u: voter 1 keeps only the {s, t} block, voter 2's {t, u}
    # shrinks to {t} and keeps the ballot it chose for {t, u}
    u = update(nested_doubt, parse("~pref 1(c>b>a)", nested_doubt.election), F)
    assert u.survived == ("s", "t")
    new = update_conditional_profile(nested_doubt, cp, u)
    assert new[0] == (pref("b>a>c"),)
    assert new[1] == (pref("a>c>b"), pref("b>c>a"))


def test_announcing_alignment_keeps_equilibrium(hidden_flip):
    """Voter 1 reveals she ranks a over c; the cautious profile survives.

    Before the announcement voter 2 votes b to hedge between the two
    possible opponents. Telling him the state is t keeps that profile an
    equilibrium of the smaller game.
    """
    cp = conditional_profile(hidden_flip, {
        1: {"t": pref("b>a>c"), "u": pref("c>b>a")},
        2: {"t": pref("b>c>a")},
    })
    ok, _ = is_conditional_equilibrium(hidden_flip, F, cp)
    assert ok
    rep = check_preservation(
        hidden_flip, F, parse("1: a>c", hidden_flip.election),
        "conditional_equilibrium", cp=cp,
    )
    assert rep.held_before and rep.held_after and rep.preserved
    assert rep.updated.survived == ("t",)


def test_announcing_reversal_breaks_equilibrium(hidden_flip):
    """At the other state the same caution stops being an equilibrium.

    With the reversal public, voter 2 knows both voters rank c on top, so
    his hedge on b now loses to voting c outright.
    """
    at_u = dataclasses.replace(hidden_flip, point="u")
    cp = conditional_profile(at_u, {
        1: {"t": pref("a>b>c"), "u": pref("c>b>a")},
        2: {"t": pref("b>c>a")},
    })
    rep = check_preservation(
        at_u, F, parse("pref 1(c>b>a)", at_u.election),
        "conditional_equilibrium", cp=cp,
    )
    assert rep.held_before and not rep.held_after
    assert not rep.preserved
    blocker, alt = rep.witness_after
    assert blocker == VirtualVoter(2, ("u",))
    assert alt.top == "c"
    # and the all-c profile is an equilibrium of the updated game
    eqs = enumerate_conditional_equilibria(rep.updated.model, F, by_top=True)
    assert ((pref("c>a>b"),), (pref("c>a>b"),)) in eqs


def test_knowledge_survives_truthful_announcements():
    """Both flavours of knowing a manipulation persist through updates."""
    rng = random.Random(11)
    checked = 0
    for _ in range(150):
        m = random_model(rng)
        rule = Plurality(m.tiebreak)
        phi = random_announcement(rng, m, keep_point=True)
        for i in m.election.voters:
            for prop in ("knowledge_de_re", "knowledge_de_dicto"):
                rep = check_preservation(m, rule, phi, prop, voter=i)
                assert rep.preserved, (prop, m, phi)
                checked += 1
    assert checked == 600


def test_hunts_find_the_fragile_properties():
    for prop in (
        "dominant_manipulation",
        "conditional_equilibrium",
        "not_conditional_equilibrium",
    ):
        hit = search_counterexample(prop, F=F, seed=0, budget=2000)
        assert hit.found, prop
        assert hit.model is not None and hit.announcement is not None
        assert "fails after" in hit.detail


def test_hunts_are_deterministic():
    a = search_counterexample("conditional_equilibrium", F=F, seed=0)
    b = search_counterexample("conditional_equilibrium", F=F, seed=0)
    assert (a.tries, a.detail) == (b.tries, b.detail)
    assert a.model == b.model


def test_hunting_knowledge_exhausts_its_budget():
    hit = search_counterexample("knowledge_de_re", F=F, seed=0, budget=120)
    assert not hit.found
    assert hit.tries == 120
    assert hit.model is None
    assert "exhausted" in hit.detail


@pytest.mark.parametrize("prop", PROPERTIES)
def test_hunts_update_once_per_attempt(monkeypatch, prop):
    """One denotation per attempt, however many profiles, and one restricted
    model per attempt at which the property held before the announcement."""
    before = search_counterexample(prop, F=F, seed=4, budget=50)
    _, held = old_search_counterexample(prop, F=F, seed=4, budget=50)
    calls = {"denotation": 0, "restrict": 0}
    for name in calls:
        real = getattr(dynamics, name)

        def counted(*args, name=name, real=real, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(dynamics, name, counted)
    hit = search_counterexample(prop, F=F, seed=4, budget=50)
    assert calls == {"denotation": hit.tries, "restrict": held}
    assert (hit.found, hit.tries, hit.detail) == (
        before.found, before.tries, before.detail)


def test_unknown_property_rejected(hidden_flip):
    with pytest.raises(ValueError):
        search_counterexample("stability")
    with pytest.raises(ValueError):
        check_preservation(
            hidden_flip, F, parse("true", hidden_flip.election), "stability"
        )
    assert "conditional_equilibrium" in PROPERTIES


def test_preservation_argument_checks(hidden_flip):
    phi = parse("1: a>c", hidden_flip.election)
    with pytest.raises(ValueError):
        check_preservation(hidden_flip, F, phi, "knowledge_de_re")
    with pytest.raises(ValueError):
        check_preservation(hidden_flip, F, phi, "conditional_equilibrium")
    # announcement false at the point is not truthful there
    with pytest.raises(EmptyResult):
        check_preservation(
            hidden_flip, F, parse("pref 1(c>b>a)", hidden_flip.election),
            "knowledge_de_re", voter=2,
        )


def test_profile_announcements_are_idempotent():
    """Atoms are state-local, so repeating an announcement changes nothing."""
    rng = random.Random(3)
    for _ in range(60):
        m = random_model(rng)
        rule = Plurality(m.tiebreak)
        phi = random_announcement(rng, m)
        once = update(m, phi, rule)
        twice = update(once.model, phi, rule)
        assert twice.survived == once.model.states
        assert twice.dropped == ()
        assert twice.model == once.model


def test_updated_profiles_stay_wellformed():
    rng = random.Random(19)
    for _ in range(60):
        m = random_model(rng)
        rule = Plurality(m.tiebreak)
        phi = random_announcement(rng, m)
        cp = random_conditional_profile(rng, m)
        u = update(m, phi, rule)
        new = update_conditional_profile(m, cp, u)
        for i in m.election.voters:
            assert len(new[i - 1]) == len(u.model.blocks(i))
