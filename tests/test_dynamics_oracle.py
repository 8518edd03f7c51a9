"""The counterexample hunt against the loop it replaced.

``old_search_counterexample`` is the hunt that announced on every attempt:
it builds the updated model (``update``) whether or not the announcement
keeps every state, and evaluates the property before and after it for every
voter or conditional profile it draws. The hunt now makes one denotation
per attempt and builds and checks the updated model only where the property
held before. Both must draw the same random numbers and report the same
witness.
"""

import itertools
import random

from epivote import (
    Election,
    HuntResult,
    Plurality,
    PROPERTIES,
    is_conditional_equilibrium,
    pref,
    search_counterexample,
    to_text,
    update,
    update_conditional_profile,
    write_model,
)
from epivote.dynamics import (
    random_announcement,
    random_conditional_profile,
    random_model,
)
from epivote.games import strategy_label
from epivote.strategic import dominant_manipulation_of_infoset, knows_manipulation

POINTED = ("knowledge_de_re", "knowledge_de_dicto", "dominant_manipulation")

ELECTIONS = (
    Election(("a", "b", "c"), 2),
    Election(("a", "b", "c"), 3),
    Election(("a", "b", "c", "d"), 2),
)


def old_preservation(m, F, upd, property, voter, cp):
    """(held before, held after) of the property across the update."""
    if property in POINTED:
        assert upd.point_survives  # hunts announce truthfully
        before = old_pointed_property(m.pointed(), F, property, voter)
        after = old_pointed_property(upd.model.pointed(), F, property, voter)
        return before[0], after[0]
    eq_before, _ = is_conditional_equilibrium(m, F, cp)
    new_cp = update_conditional_profile(m, cp, upd)
    eq_after, _ = is_conditional_equilibrium(upd.model, F, new_cp)
    if property == "not_conditional_equilibrium":
        return not eq_before, not eq_after
    return eq_before, eq_after


def old_pointed_property(kp, F, property, i):
    if property == "knowledge_de_re":
        return knows_manipulation(kp, F, i, mode="de_re")
    if property == "knowledge_de_dicto":
        return knows_manipulation(kp, F, i, mode="de_dicto")
    alts = tuple(
        alt
        for alt in kp.election.orders()
        if dominant_manipulation_of_infoset(kp, F, i, alt)
    )
    return (bool(alts), alts)


def old_search_counterexample(property, e=None, F=None, seed=0, budget=2000,
                              max_states=4):
    """The hunt's result, and how many attempts held the property before.

    An attempt counts when the property held before the announcement for at
    least one of the voters or profiles it checked."""
    if e is None:
        e = Election(("a", "b", "c"), 2)
    fixed_tiebreak = getattr(F, "tiebreak", None)
    rng = random.Random(seed)
    pointed = property in POINTED
    held_attempts = 0
    for attempt in range(1, budget + 1):
        m = random_model(rng, e, max_states, tiebreak=fixed_tiebreak)
        rule = F if F is not None else Plurality(m.tiebreak)
        phi = random_announcement(rng, m, keep_point=pointed)
        upd = update(m, phi, rule)
        if not upd.dropped:
            continue  # identity update, nothing can break
        if pointed:
            voter = rng.choice(list(e.voters))
            before, after = old_preservation(m, rule, upd, property, voter, None)
            held_attempts += before
            if before and not after:
                return HuntResult(
                    property, True, attempt, seed, m, phi,
                    f"voter {voter} at point {m.point}: holds before announcing "
                    f"{to_text(phi)}, fails after",
                ), held_attempts
            continue
        held = False
        for _ in range(12):
            cp = random_conditional_profile(rng, m)
            before, after = old_preservation(m, rule, upd, property, None, cp)
            if before and not held:
                held = True
                held_attempts += 1
            if before and not after:
                label = " / ".join(
                    strategy_label(row, by_top=False) for row in cp
                )
                return HuntResult(
                    property, True, attempt, seed, m, phi,
                    f"conditional profile ({label}): holds before announcing "
                    f"{to_text(phi)}, fails after",
                ), held_attempts
    return HuntResult(property, False, budget, seed, None, None,
                      "budget exhausted"), held_attempts


def observed(hit):
    return (hit.property, hit.found, hit.tries, hit.seed, hit.detail,
            None if hit.model is None else write_model(hit.model),
            None if hit.announcement is None else to_text(hit.announcement))


def test_hunts_match_the_announce_every_time_oracle():
    """Every property, rule drawn per model or fixed, three elections and
    max_states 2-5: 180 seeded hunts, each compared field by field."""
    found = 0
    for e, fixed, prop in itertools.product(ELECTIONS, (False, True), PROPERTIES):
        F = Plurality(pref(">".join(e.candidates))) if fixed else None
        for seed in range(6):
            args = dict(e=e, F=F, seed=seed, budget=40, max_states=2 + seed % 4)
            hit = search_counterexample(prop, **args)
            old, _ = old_search_counterexample(prop, **args)
            assert observed(hit) == observed(old), (prop, args)
            found += hit.found
    # the comparison covers witnesses as well as exhausted budgets
    assert 0 < found < 180
