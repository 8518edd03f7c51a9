"""Public announcements: model updates and what survives them.

An announcement of a true formula deletes the states where it fails and
intersects every voter's partition with the survivors. Knowledge of a
manipulation (in either sense) survives any truthful announcement, since
information sets only shrink. Dominant manipulations of an information set
and conditional equilibria do not, and a non-equilibrium can become one;
`search_counterexample` hunts seeded random models for witnesses of all
three failures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import EmptyResult, UnknownState
from .games import ConditionalProfile, _check_shape, _Game, strategy_label
from .logic import Formula, ProfileAtom, big_or, denotation, to_text
from .model import (
    Election,
    Preference,
    Profile,
    ProfileModel,
    Voter,
    check_ranking,
    check_size,
    make_model,
    restrict,
)
from .rules import Plurality, VotingRule, _deviation_rows
from .strategic import _considered, _dominant, _knows


@dataclass(frozen=True)
class UpdateResult:
    """Outcome of announcing a formula on a model.

    The restricted model keeps the original point only when it survives;
    `point_survives` is None for unpointed input."""

    model: ProfileModel
    survived: tuple[str, ...]
    dropped: tuple[str, ...]
    point_survives: bool | None


def update(
    m: ProfileModel, phi: Formula, F: VotingRule | None = None
) -> UpdateResult:
    """Restrict the model to the states where phi holds.

    F is needed only when phi mentions winner atoms. Raises EmptyResult when
    phi holds nowhere. An announcement false at the point is allowed; the
    result is simply unpointed, and callers that evaluate at the point
    reject it there.
    """
    return _updated(m, denotation(m, F, phi))


def _updated(m: ProfileModel, kept: tuple[str, ...]) -> UpdateResult:
    """update from the announcement's denotation on m."""
    if not kept:
        raise EmptyResult("the announced formula holds at no state")
    keep_set = set(kept)
    return UpdateResult(
        model=restrict(m, kept),
        survived=kept,
        dropped=tuple(s for s in m.states if s not in keep_set),
        point_survives=None if m.point is None else m.point in keep_set,
    )


def update_conditional_profile(
    m: ProfileModel, cp: ConditionalProfile, u: UpdateResult
) -> ConditionalProfile:
    """Carry a conditional profile across an update of m.

    Each information set of the updated model is contained in exactly one
    old set (updates only split blocks), so it inherits that set's choice;
    sets with no surviving state disappear along with their choices.
    Raises ValueError for a cp of the wrong shape for m (see games).
    """
    _check_shape(m, cp)
    return _carried(m, cp, u)


def _carried(m: ProfileModel, cp: ConditionalProfile, u: UpdateResult):
    """update_conditional_profile of a cp known to fit m, unchecked."""
    return tuple(
        tuple(cp[i - 1][m.block_ids(i)[m.index(block[0])]]
              for block in u.model.blocks(i))
        for i in m.election.voters
    )


# ------------------------------------------------------------- preservation

_POINTED_PROPERTIES = ("knowledge_de_re", "knowledge_de_dicto", "dominant_manipulation")
_PROFILE_PROPERTIES = ("conditional_equilibrium", "not_conditional_equilibrium")
PROPERTIES = _POINTED_PROPERTIES + _PROFILE_PROPERTIES


@dataclass(frozen=True)
class PreservationReport:
    """Whether a strategic property survives one announcement.

    `preserved` is vacuously true when the property failed already before
    the announcement. Witness fields are filled per property: the ballots
    involved for the pointed properties, the blocking deviation (or None)
    for the conditional-profile ones."""

    property: str
    held_before: bool
    held_after: bool
    witness_before: object
    witness_after: object
    updated: UpdateResult

    @property
    def preserved(self) -> bool:
        return self.held_after or not self.held_before


def check_preservation(
    m: ProfileModel,
    F: VotingRule,
    phi: Formula,
    property: str,
    voter: Voter | None = None,
    cp: ConditionalProfile | None = None,
) -> PreservationReport:
    """Evaluate a strategic property before and after announcing phi.

    The knowledge and dominant-manipulation properties need a pointed model
    and a voter, and the announcement must be true at the point (EmptyResult
    otherwise). The conditional-(non-)equilibrium properties need cp and
    ignore the point.
    """
    if property not in PROPERTIES:
        raise ValueError(f"unknown property {property!r}; choose from {PROPERTIES}")
    upd = update(m, phi, F)
    before = _holds(m, F, property, voter, cp)
    if property in _POINTED_PROPERTIES and not upd.point_survives:
        raise EmptyResult("the announced formula is false at the point")
    after = _holds_after(m, upd, F, property, voter, cp)
    return PreservationReport(property, before[0], after[0], before[1], after[1], upd)


def _holds(m: ProfileModel, F, property: str, voter, cp) -> tuple[bool, object]:
    """Whether the property holds on m, and its witness."""
    if property in _PROFILE_PROPERTIES:
        if cp is None:
            raise ValueError(f"property {property!r} needs a conditional profile")
        game = _Game(m, F)
        return _profile_holds(property, game, game.keys_of(cp))
    if voter is None:
        raise ValueError(f"property {property!r} needs a voter")
    if m.point is None:
        raise UnknownState("property needs a pointed model")
    kp = m.pointed()
    considered = _considered(kp, voter)
    return _pointed(m.election, F, property, voter, kp.truth().pref(voter), considered)


def _profile_holds(property: str, game: _Game, keys) -> tuple[bool, object]:
    """A conditional-profile property of the profile whose slots hold
    ballots with these keys in game, and its blocking deviation."""
    eq, blocker = game.scan(keys)
    return (not eq if property == "not_conditional_equilibrium" else eq), blocker


def _pointed(e, F, property, voter, truth, considered) -> tuple[bool, object]:
    """A pointed property and its witness for voter, whose ballot at the
    point is truth, over the profiles she considers possible there."""
    alts = e.orders()
    rows = _deviation_rows(e, F, voter, considered, alts)
    if property != "dominant_manipulation":
        return _knows(voter, considered, rows, alts,
                      property.removeprefix("knowledge_"))
    found = _dominant(truth, rows, alts)
    return (bool(found), found)


def _holds_after(m, upd: UpdateResult, F, property, voter, cp) -> tuple[bool, object]:
    """_holds on the updated model, with cp carried across the update."""
    if property in _PROFILE_PROPERTIES:
        cp = update_conditional_profile(m, cp, upd)
    return _holds(upd.model, F, property, voter, cp)


# ------------------------------------------------------- seeded random hunts

def random_model(rng: random.Random, e: Election | None = None, max_states: int = 4,
                 tiebreak: Preference | None = None) -> ProfileModel:
    """A random pointed model over e (default: 3 candidates, 2 voters).

    Partitions are built by randomly splitting, per voter, the groups of
    states that share that voter's preference, so the result always
    satisfies the own-preference constraint. The tiebreak order is drawn at
    random unless one is supplied. Raises ValueError when max_states < 2 or
    a supplied tiebreak does not rank e's candidates, and SizeLimit when
    max_states exceeds the size cap, each before any draw.
    """
    return _model(*_draw(rng, e, max_states, tiebreak))


def _draw(rng: random.Random, e, max_states: int, tiebreak):
    """random_model's draw: (e, states, profiles, blocks, tiebreak, point).
    blocks[i - 1] lists voter i's blocks as sorted lists of state positions,
    in the model's canonical order; point is a position."""
    if max_states < 2:
        raise ValueError(f"max_states must be at least 2, got {max_states}")
    check_size(max_states, "states")
    if e is None:
        e = Election(("a", "b", "c"), 2)
    if tiebreak is not None:
        check_ranking(tiebreak, e.candidates, "tiebreak")
    orders = e.orders()
    count = rng.randint(2, max_states)
    profiles = [Profile(tuple(rng.choice(orders) for _ in range(e.num_voters)))
                for _ in range(count)]
    partition = []
    for i in e.voters:
        groups: dict[Preference, list[int]] = {}
        for k, p in enumerate(profiles):
            groups.setdefault(p.prefs[i - 1], []).append(k)
        blocks = []
        for members in groups.values():
            rng.shuffle(members)
            while members:
                take = rng.randint(1, len(members))
                blocks.append(sorted(members[:take]))
                members = members[take:]
        blocks.sort()
        partition.append(blocks)
    if tiebreak is None:
        tiebreak = rng.choice(orders)
    states = tuple(f"s{j}" for j in range(count))
    return e, states, profiles, partition, tiebreak, rng.randrange(count)


def _model(e, states, profiles, partition, tiebreak, point) -> ProfileModel:
    """The pointed model of a _draw."""
    partitions = {i: [[states[k] for k in block] for block in blocks]
                  for i, blocks in zip(e.voters, partition)}
    return make_model(e, states, profiles, partitions, tiebreak, states[point])


def random_announcement(rng: random.Random, m: ProfileModel,
                        keep_point: bool = True) -> Formula:
    """A random profile-atom disjunction true at a nonempty set of states.

    With keep_point (and a pointed model) the point is always in the chosen
    set, making the announcement truthful there. The denotation can exceed
    the chosen set when other states carry the same profiles.
    """
    point = m.index(m.point) if keep_point and m.point is not None else None
    return big_or(map(ProfileAtom, _announced_profiles(rng, m.profiles, point)))


def _announced_profiles(rng: random.Random, profiles, point) -> dict[Profile, None]:
    """random_announcement's profiles, in disjunct order, as dict keys; point
    is the position of a state always chosen, or None."""
    chosen = [k for k in range(len(profiles)) if rng.random() < 0.5]
    if point is not None and point not in chosen:
        chosen.append(point)
    if not chosen:
        chosen = [rng.randrange(len(profiles))]
    return dict.fromkeys(profiles[k] for k in chosen)


def random_conditional_profile(
    rng: random.Random, m: ProfileModel
) -> ConditionalProfile:
    orders = m.election.orders()
    return tuple(
        tuple(rng.choice(orders) for _ in m.blocks(i)) for i in m.election.voters
    )


@dataclass(frozen=True)
class HuntResult:
    """Outcome of a counterexample search.

    When found, `model` / `announcement` / `detail` describe the witness;
    an exhausted budget is reported with found=False, never raised."""

    property: str
    found: bool
    tries: int
    seed: int
    model: ProfileModel | None
    announcement: Formula | None
    detail: str


def search_counterexample(
    property: str,
    e: Election | None = None,
    F: VotingRule | None = None,
    seed: int = 0,
    budget: int = 2000,
    max_states: int = 4,
) -> HuntResult:
    """Hunt random models for an announcement that breaks the property.

    For dominant_manipulation and conditional_equilibrium the witness holds
    the property before the announcement and loses it after; for
    not_conditional_equilibrium a non-equilibrium becomes one. The two
    knowledge properties are preserved by every truthful announcement, so
    hunting them documents that fact by exhausting the budget. Deterministic
    given the seed; with F supplied its tiebreak is used for every model,
    otherwise each model draws its own. The conditional-profile properties
    check every drawn profile on one game per model, and one per updated
    model, from its slot keys with no shape check, since each profile was
    drawn to fit. The pointed properties are judged on the draw itself; the
    kept states are read off the announcement's drawn profiles, and the
    model and formula are built only for the witness returned. Raises
    ValueError when budget < 1, max_states < 2 or F's tiebreak does not rank
    e's candidates, and SizeLimit when max_states exceeds the size cap.
    """
    if property not in PROPERTIES:
        raise ValueError(f"unknown property {property!r}; choose from {PROPERTIES}")
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if e is None:
        e = Election(("a", "b", "c"), 2)
    fixed_tiebreak = getattr(F, "tiebreak", None)
    rng = random.Random(seed)
    pointed = property in _POINTED_PROPERTIES
    for attempt in range(1, budget + 1):
        draw = _draw(rng, e, max_states, fixed_tiebreak)
        _, states, profiles, partition, tiebreak, point = draw
        rule = F if F is not None else Plurality(tiebreak)
        drawn = _announced_profiles(rng, profiles, point if pointed else None)
        keep = [p in drawn for p in profiles]  # the states the formula keeps
        if all(keep):
            continue  # identity update, nothing can break
        if pointed:
            voter = rng.choice(list(e.voters))
            block = next(b for b in partition[voter - 1] if point in b)
            held = (_pointed(e, rule, property, voter, profiles[point].prefs[voter - 1],
                             list(dict.fromkeys(profiles[k] for k in cut)))[0]
                    for cut in (block, [k for k in block if keep[k]]))  # before, after
            if not next(held) or next(held):
                continue
            m = _model(*draw)
            who = f"voter {voter} at point {m.point}"
        else:
            m = _model(*draw)
            game, upd = _Game(m, rule), None
            for cp in [random_conditional_profile(rng, m) for _ in range(12)]:
                if not _profile_holds(property, game, game.slot_keys(cp))[0]:
                    continue
                if upd is None:  # built the first time the property holds before
                    upd = _updated(m, tuple(s for s, k in zip(states, keep) if k))
                    after = _Game(upd.model, rule)
                carried = after.slot_keys(_carried(m, cp, upd))
                if not _profile_holds(property, after, carried)[0]:
                    break
            else:
                continue
            label = " / ".join(strategy_label(row, by_top=False) for row in cp)
            who = f"conditional profile ({label})"
        phi = big_or(map(ProfileAtom, drawn))
        return HuntResult(property, True, attempt, seed, m, phi,
                          f"{who}: holds before announcing {to_text(phi)}, fails after")
    return HuntResult(property, False, budget, seed, None, None, "budget exhausted")
