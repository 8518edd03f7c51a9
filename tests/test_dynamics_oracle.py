"""The counterexample hunt and its random draws against the code they replaced.

``old_search_counterexample`` is the hunt that announced on every attempt:
it builds the updated model (``update``) whether or not the announcement
keeps every state, and evaluates the property before and after it for every
voter or conditional profile it draws. The hunt now makes one denotation
per attempt and builds and checks the updated model only where the property
held before. Both must draw the same random numbers and report the same
witness.

The hunt oracle draws with the library's own ``random_model`` and
``random_announcement``, so those are checked here against
``old_random_model`` and ``old_random_announcement``, which group states by
name, leave the ordering of blocks to ``make_model`` and remove duplicate
profiles by a list scan.
"""

import itertools
import random

from epivote import (
    Election,
    HuntResult,
    Plurality,
    PROPERTIES,
    Profile,
    ProfileAtom,
    big_or,
    check_preservation,
    is_conditional_equilibrium,
    make_model,
    pref,
    search_counterexample,
    to_text,
    update,
    update_conditional_profile,
    validate_model,
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


def old_random_model(rng, e=None, max_states=4, tiebreak=None):
    """random_model as it was: states grouped by name, blocks sorted by
    make_model."""
    if max_states < 2:
        raise ValueError(f"max_states must be at least 2, got {max_states}")
    if e is None:
        e = Election(("a", "b", "c"), 2)
    orders = e.orders()
    count = rng.randint(2, max_states)
    states = tuple(f"s{j}" for j in range(count))
    profiles = {
        s: Profile(tuple(rng.choice(orders) for _ in range(e.num_voters)))
        for s in states
    }
    partitions = {}
    for i in e.voters:
        groups = {}
        for s in states:
            groups.setdefault(profiles[s].pref(i), []).append(s)
        blocks = []
        for members in groups.values():
            members = members[:]
            rng.shuffle(members)
            while members:
                take = rng.randint(1, len(members))
                blocks.append(members[:take])
                members = members[take:]
        partitions[i] = blocks
    return make_model(
        e,
        states,
        profiles,
        partitions,
        tiebreak=tiebreak if tiebreak is not None else rng.choice(orders),
        point=rng.choice(states),
    )


def old_random_announcement(rng, m, keep_point=True):
    """random_announcement as it was: duplicate profiles removed by a list
    scan."""
    pool = list(m.states)
    chosen = [s for s in pool if rng.random() < 0.5]
    if keep_point and m.point is not None and m.point not in chosen:
        chosen.append(m.point)
    if not chosen:
        chosen = [rng.choice(pool)]
    seen = []
    for s in chosen:
        p = m.profile_at(s)
        if p not in seen:
            seen.append(p)
    return big_or(ProfileAtom(p) for p in seen)


def test_draws_match_the_old_draws():
    """Same model, same announcement and the same generator state after
    each, for three elections, max_states 2-6, a drawn or a fixed tiebreak,
    and announcements with and without the point: 4,500 draws of each."""
    for e, max_states in itertools.product(ELECTIONS, range(2, 7)):
        for seed in range(300):
            tiebreak = pref(">".join(e.candidates)) if seed % 2 else None
            new, old = random.Random(seed), random.Random(seed)
            m = random_model(new, e, max_states, tiebreak=tiebreak)
            expected = old_random_model(old, e, max_states, tiebreak=tiebreak)
            assert m == expected, (e, max_states, seed)
            assert write_model(m) == write_model(expected)
            assert new.getstate() == old.getstate()
            keep = seed % 3 != 0
            phi = random_announcement(new, m, keep_point=keep)
            assert to_text(phi) == to_text(
                old_random_announcement(old, m, keep_point=keep))
            assert new.getstate() == old.getstate()


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
    """The hunt's result, how many attempts checked the property, and how
    many held it before.

    An attempt checks the property when its announcement drops a state. It
    holds the property when it held before the announcement for at least
    one of the voters or profiles it checked."""
    if e is None:
        e = Election(("a", "b", "c"), 2)
    fixed_tiebreak = getattr(F, "tiebreak", None)
    rng = random.Random(seed)
    pointed = property in POINTED
    checked_attempts = held_attempts = 0
    for attempt in range(1, budget + 1):
        m = random_model(rng, e, max_states, tiebreak=fixed_tiebreak)
        rule = F if F is not None else Plurality(m.tiebreak)
        phi = random_announcement(rng, m, keep_point=pointed)
        upd = update(m, phi, rule)
        if not upd.dropped:
            continue  # identity update, nothing can break
        checked_attempts += 1
        if pointed:
            voter = rng.choice(list(e.voters))
            before, after = old_preservation(m, rule, upd, property, voter, None)
            held_attempts += before
            if before and not after:
                return HuntResult(
                    property, True, attempt, seed, m, phi,
                    f"voter {voter} at point {m.point}: holds before announcing "
                    f"{to_text(phi)}, fails after",
                ), checked_attempts, held_attempts
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
                ), checked_attempts, held_attempts
    return HuntResult(property, False, budget, seed, None, None,
                      "budget exhausted"), checked_attempts, held_attempts


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
            old, _, _ = old_search_counterexample(prop, **args)
            assert observed(hit) == observed(old), (prop, args)
            found += hit.found
    # the comparison covers witnesses as well as exhausted budgets
    assert 0 < found < 180


def rejudged(hit, F):
    """check_preservation on a pointed hunt's witness model, for the voter
    its detail names, after validate_model accepts the model."""
    validate_model(hit.model)
    voter = int(hit.detail.removeprefix("voter ").split()[0])
    rule = F if F is not None else Plurality(hit.model.tiebreak)
    return check_preservation(hit.model, rule, hit.announcement, hit.property, voter)


def test_pointed_witnesses_hold_on_their_models():
    """A pointed hunt judges its draw and builds a model only for the
    witness; every witness is judged again on that model. The oracle's
    hunts and a seeded dominant-manipulation sweep, three elections, rule
    drawn per model or fixed."""
    hunts = [(prop, dict(seed=seed, budget=40, max_states=2 + seed % 4))
             for prop in POINTED for seed in range(6)]
    hunts += [("dominant_manipulation", dict(seed=seed, budget=150,
                                              max_states=2 + seed % 5))
              for seed in range(6, 46)]
    found = 0
    for e, fixed in itertools.product(ELECTIONS, (False, True)):
        F = Plurality(pref(">".join(e.candidates))) if fixed else None
        for prop, args in hunts:
            hit = search_counterexample(prop, e=e, F=F, **args)
            if hit.found:
                rep = rejudged(hit, F)
                assert rep.held_before and not rep.held_after, (prop, e, F, args)
                found += 1
    assert found >= 30
