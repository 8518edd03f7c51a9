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
from .games import ConditionalProfile, is_conditional_equilibrium, strategy_label
from .logic import Formula, ProfileAtom, big_or, denotation, to_text
from .model import (
    Election,
    Preference,
    Profile,
    ProfileModel,
    Voter,
    make_model,
    restrict,
)
from .rules import Plurality, VotingRule
from .strategic import dominant_manipulation_of_infoset, knows_manipulation


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
    """
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
        eq, blocker = is_conditional_equilibrium(m, F, cp)
        return (not eq if property == "not_conditional_equilibrium" else eq), blocker
    if voter is None:
        raise ValueError(f"property {property!r} needs a voter")
    if m.point is None:
        raise UnknownState("property needs a pointed model")
    kp = m.pointed()
    if property != "dominant_manipulation":
        return knows_manipulation(kp, F, voter, mode=property.removeprefix("knowledge_"))
    alts = tuple(
        alt
        for alt in kp.election.orders()
        if dominant_manipulation_of_infoset(kp, F, voter, alt)
    )
    return (bool(alts), alts)


def _holds_after(m, upd: UpdateResult, F, property, voter, cp) -> tuple[bool, object]:
    """_holds on the updated model, with cp carried across the update."""
    if property in _PROFILE_PROPERTIES:
        cp = update_conditional_profile(m, cp, upd)
    return _holds(upd.model, F, property, voter, cp)


# ------------------------------------------------------- seeded random hunts

def random_model(
    rng: random.Random,
    e: Election | None = None,
    max_states: int = 4,
    tiebreak: Preference | None = None,
) -> ProfileModel:
    """A random pointed model over e (default: 3 candidates, 2 voters).

    Partitions are built by randomly splitting, per voter, the groups of
    states that share that voter's preference, so the result always
    satisfies the own-preference constraint. The tiebreak order is drawn at
    random unless one is supplied. Raises ValueError when max_states < 2.
    """
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
        groups: dict[Preference, list[str]] = {}
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


def random_announcement(
    rng: random.Random, m: ProfileModel, keep_point: bool = True
) -> Formula:
    """A random profile-atom disjunction true at a nonempty set of states.

    With keep_point (and a pointed model) the point is always in the chosen
    set, making the announcement truthful there. The denotation can exceed
    the chosen set when other states carry the same profiles.
    """
    pool = list(m.states)
    chosen = [s for s in pool if rng.random() < 0.5]
    if keep_point and m.point is not None and m.point not in chosen:
        chosen.append(m.point)
    if not chosen:
        chosen = [rng.choice(pool)]
    seen: list[Profile] = []
    for s in chosen:
        p = m.profile_at(s)
        if p not in seen:
            seen.append(p)
    return big_or(ProfileAtom(p) for p in seen)


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
    otherwise each model draws its own. Raises ValueError when budget < 1.
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
        m = random_model(rng, e, max_states, tiebreak=fixed_tiebreak)
        rule = F if F is not None else Plurality(m.tiebreak)
        phi = random_announcement(rng, m, keep_point=pointed)
        kept = denotation(m, rule, phi)
        if len(kept) == len(m.states):
            continue  # identity update, nothing can break
        if pointed:
            cases = [(rng.choice(list(e.voters)), None)]
        else:
            cases = [(None, random_conditional_profile(rng, m)) for _ in range(12)]
        upd = None  # built the first time the property holds before
        for voter, cp in cases:
            if not _holds(m, rule, property, voter, cp)[0]:
                continue
            upd = upd or _updated(m, kept)
            if _holds_after(m, upd, rule, property, voter, cp)[0]:
                continue
            if pointed:
                who = f"voter {voter} at point {m.point}"
            else:
                label = " / ".join(strategy_label(row, by_top=False) for row in cp)
                who = f"conditional profile ({label})"
            return HuntResult(
                property, True, attempt, seed, m, phi,
                f"{who}: holds before announcing {to_text(phi)}, fails after",
            )
    return HuntResult(property, False, budget, seed, None, None, "budget exhausted")
