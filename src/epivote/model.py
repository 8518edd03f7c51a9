"""Core data model: elections, preferences, profiles, and profile models.

A profile model is an S5 Kripke structure whose states are labeled with vote
profiles and whose accessibility relations are stored as partitions (blocks of
states a voter cannot tell apart). Every voter always knows her own
preference, so within any block of voter i the i-th preference is constant;
``validate_model`` enforces this and the other structural invariants.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DanglingState,
    EmptySet,
    OwnPreferenceViolation,
    PartitionError,
    SizeLimit,
    UnknownState,
    UnknownVoter,
)

Candidate = str
Voter = int

# An information set is a block of the voter's partition: the states she
# considers possible, in file order.
InformationSet = tuple[str, ...]

# The most items any enumeration may hold; check_size alone reads it.
SIZE_CAP = 10**6

# A candidate name is a word of the formula language other than a reserved
# word, so every model can be written out and read back and every candidate
# can be named in a formula.
_CANDIDATE_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
RESERVED_WORDS = frozenset({"K", "true", "false", "profile", "pref", "wins"})


def check_size(total: int, what: str) -> None:
    """Raise SizeLimit when an enumeration of total items (named by what in
    the message) would exceed SIZE_CAP; callers count before they build."""
    if total > SIZE_CAP:
        raise SizeLimit(f"{total} {what} exceed the cap of {SIZE_CAP}")


def check_voter(voter, n: int) -> None:
    """Raise UnknownVoter unless voter is an int (not a bool) in 1..n.

    The one voter rule: Profile, ProfileModel, check_formula and
    dominant_preference take their voters through it, so the work behind
    them may index ``prefs[voter - 1]`` without a check of its own.
    """
    if type(voter) is not int or not 1 <= voter <= n:
        raise UnknownVoter(f"no voter {voter!r} in 1..{n}")


def check_candidate_names(candidates) -> None:
    """Raise ValueError for the first name that is not a formula identifier
    or is a reserved word of the formula language."""
    for c in candidates:
        if not _CANDIDATE_NAME.fullmatch(c):
            raise ValueError(f"candidate name {c!r} is not an identifier")
        if c in RESERVED_WORDS:
            raise ValueError(f"candidate name {c!r} is a reserved word")


@dataclass(frozen=True)
class Election:
    """Candidates in file order plus the number of voters (named 1..n)."""

    candidates: tuple[Candidate, ...]
    num_voters: int

    def __post_init__(self):
        if not self.candidates:
            raise EmptySet("an election needs at least one candidate")
        check_candidate_names(self.candidates)
        if len(set(self.candidates)) != len(self.candidates):
            raise ValueError("duplicate candidate names")
        if self.num_voters < 1:
            raise EmptySet("an election needs at least one voter")

    @property
    def voters(self) -> range:
        return range(1, self.num_voters + 1)

    def orders(self) -> tuple["Preference", ...]:
        """All linear orders over the candidates, in permutation order."""
        return self._orders

    @cached_property
    def _orders(self) -> tuple["Preference", ...]:
        check_size(math.factorial(len(self.candidates)), "ballots")
        return tuple(
            Preference(p) for p in itertools.permutations(self.candidates))

    def all_profiles(self) -> list["Profile"]:
        """Every assignment of a linear order to each voter: (m!)^n profiles."""
        check_size(math.factorial(len(self.candidates)) ** self.num_voters,
                   "profiles")
        orders = self.orders()
        return [
            Profile(combo)
            for combo in itertools.product(orders, repeat=self.num_voters)
        ]


@dataclass(frozen=True)
class Preference:
    """A strict linear order over candidates, best first."""

    order: tuple[Candidate, ...]

    def __post_init__(self):
        if len(set(self.order)) != len(self.order):
            raise ValueError(f"order repeats a candidate: {self.order}")

    @property
    def top(self) -> Candidate:
        return self.order[0]

    def rank_value(self, c: Candidate) -> int:
        """m-1 for the favourite down to 0 for the least preferred."""
        return len(self.order) - 1 - self.order.index(c)

    def prefers(self, a: Candidate, b: Candidate) -> bool:
        """Strictly prefers a to b. False when a == b."""
        return self.order.index(a) < self.order.index(b)

    def worst_of(self, cs) -> Candidate:
        """The least preferred element of a nonempty candidate collection;
        ValueError for a candidate this order does not rank."""
        items = list(cs)
        if not items:
            raise EmptySet("worst_of needs at least one candidate")
        return max(items, key=self.order.index)

    def as_text(self) -> str:
        return ">".join(self.order)


def pref(text: str) -> Preference:
    """Parse 'a>b>c' into a Preference. Convenience for tests and fixtures."""
    return Preference(tuple(part.strip() for part in text.split(">")))


@dataclass(frozen=True)
class Profile:
    """One preference per voter; index 0 belongs to voter 1."""

    prefs: tuple[Preference, ...]

    def pref(self, voter: Voter) -> Preference:
        """Voter's ballot; UnknownVoter outside 1..len(prefs) (check_voter)."""
        check_voter(voter, len(self.prefs))
        return self.prefs[voter - 1]

    def replace(self, voter: Voter, p: Preference) -> "Profile":
        """The profile with voter's ballot swapped for p."""
        check_voter(voter, len(self.prefs))
        return Profile(self.prefs[:voter - 1] + (p,) + self.prefs[voter:])

    def tops(self) -> tuple[Candidate, ...]:
        return tuple([p.order[0] for p in self.prefs])

    def as_text(self) -> str:
        return " ; ".join(
            f"{i + 1}: {p.as_text()}" for i, p in enumerate(self.prefs)
        )


def profile(*orders: str) -> Profile:
    """profile('a>b>c', 'c>b>a') -> Profile for voters 1, 2."""
    return Profile(tuple(pref(o) for o in orders))


@dataclass(frozen=True)
class ProfileModel:
    """States with vote-profile valuations and one partition per voter.

    ``partitions[i-1]`` lists voter i's blocks; blocks and their members are
    kept in file order (block order = order of each block's first state).
    ``tiebreak`` and ``point`` are optional at this layer: rules that need a
    tie-breaking order and pointed operations check for them at use time.

    Every state lookup reads one index, built on first use and not part of
    equality: a state -> position dict, and per voter a tuple aligned with
    ``states`` holding the number of the block that contains each state.
    The per-voter reads take their voter through check_voter. A model with
    fewer partitions than voters raises PartitionError from ``blocks`` of a
    voter without one and from every read of the index, which needs them all.
    ``block_ids(i)[k]`` is the position in ``blocks(i)`` of the block holding
    ``states[k]``, or -1 when no block covers it. Only models that
    ``validate_model`` rejects have -1 entries or overlapping blocks (where
    the first block wins), so they still construct and can be reported.
    """

    election: Election
    states: tuple[str, ...]
    profiles: tuple[Profile, ...]
    partitions: tuple[tuple[InformationSet, ...], ...]
    tiebreak: Preference | None = None
    point: str | None = None

    @cached_property
    def _positions(self) -> dict[str, int]:
        pos: dict[str, int] = {}
        for k, s in enumerate(self.states):
            pos.setdefault(s, k)
        return pos

    @cached_property
    def _block_ids(self) -> tuple[tuple[int, ...], ...]:
        if len(self.partitions) < self.election.num_voters:
            raise PartitionError("need one partition per voter")
        pos = self._positions
        table = []
        for blocks in self.partitions:
            row = [-1] * len(self.states)
            for k, block in enumerate(blocks):
                for s in block:
                    if s in pos and row[pos[s]] < 0:
                        row[pos[s]] = k
            table.append(tuple(row))
        return tuple(table)

    def index(self, state: str) -> int:
        try:
            return self._positions[state]
        except KeyError:
            raise UnknownState(f"no state named {state!r}") from None

    def profile_at(self, state: str) -> Profile:
        return self.profiles[self.index(state)]

    def blocks(self, voter: Voter) -> tuple[InformationSet, ...]:
        check_voter(voter, self.election.num_voters)
        if voter > len(self.partitions):
            raise PartitionError("need one partition per voter")
        return self.partitions[voter - 1]

    def block_ids(self, voter: Voter) -> tuple[int, ...]:
        """Per state (in ``states`` order), voter's block number or -1."""
        check_voter(voter, self.election.num_voters)
        return self._block_ids[voter - 1]

    def block_ids_at(self, si: int) -> tuple[int, ...]:
        """Each voter's block number at the si-th state, voters ascending.

        Raises PartitionError when some voter's partition does not cover it.
        """
        ks = tuple([row[si] for row in self._block_ids])
        if -1 in ks:
            raise self._uncovered(ks.index(-1) + 1, self.states[si])
        return ks

    def _uncovered(self, voter, state) -> PartitionError:
        return PartitionError(
            f"voter {voter}'s partition does not cover state {state!r}")

    def block_of(self, voter: Voter, state: str) -> InformationSet:
        check_voter(voter, self.election.num_voters)
        k = self._block_ids[voter - 1][self.index(state)]
        if k < 0:
            raise self._uncovered(voter, state)
        return self.partitions[voter - 1][k]

    def profiles_of(self, block: InformationSet) -> list[Profile]:
        """Distinct profiles labelling the block's states, first-seen order."""
        return list(dict.fromkeys(self.profile_at(s) for s in block))

    def pointed(self) -> "KnowledgeProfile":
        if self.point is None:
            raise UnknownState("model has no designated point")
        return KnowledgeProfile(self, self.point)

    def at(self, state: str) -> "KnowledgeProfile":
        return KnowledgeProfile(self, state)


@dataclass(frozen=True)
class KnowledgeProfile:
    """A profile model with a designated actual state."""

    model: ProfileModel
    point: str

    def __post_init__(self):
        self.model.index(self.point)

    @property
    def election(self) -> Election:
        return self.model.election

    def truth(self) -> Profile:
        return self.model.profile_at(self.point)

    def information_set(self, voter: Voter) -> InformationSet:
        return self.model.block_of(voter, self.point)


def make_model(
    election: Election,
    states,
    profiles,
    partitions=None,
    tiebreak: Preference | None = None,
    point: str | None = None,
) -> ProfileModel:
    """Build a ProfileModel with canonical block ordering.

    ``profiles`` maps state -> Profile (dict) or is a sequence aligned with
    ``states``. ``partitions`` maps voter -> iterable of state-iterables;
    omitted voters (or a None value) get all-singleton partitions. A
    tiebreak that does not rank every candidate once raises ValueError.
    """
    if tiebreak is not None:
        check_ranking(tiebreak, election.candidates, "tiebreak")
    states = tuple(states)
    if isinstance(profiles, dict):
        missing = [s for s in states if s not in profiles]
        if missing:
            raise DanglingState(f"no valuation for state(s) {missing}")
        profs = tuple(profiles[s] for s in states)
    else:
        profs = tuple(profiles)
        if len(profs) != len(states):
            raise DanglingState("profiles sequence does not match states")
    order = {s: k for k, s in enumerate(states)}
    parts = []
    raw = partitions or {}
    for voter in election.voters:
        given = raw.get(voter)
        if given is None:
            parts.append(tuple((s,) for s in states))
            continue
        blocks = []
        for blk in given:
            members = tuple(sorted(blk, key=lambda s: _state_index(order, s)))
            blocks.append(members)
        blocks.sort(key=lambda b: order[b[0]])
        parts.append(tuple(blocks))
    return ProfileModel(
        election=election,
        states=states,
        profiles=profs,
        partitions=tuple(parts),
        tiebreak=tiebreak,
        point=point,
    )


def _state_index(order: dict[str, int], s: str) -> int:
    if s not in order:
        raise UnknownState(f"block member {s!r} is not a state")
    return order[s]


def validate_model(m: ProfileModel) -> None:
    """Check every invariant; raise the first violation found.

    Raises DanglingState, PartitionError, OwnPreferenceViolation, or
    UnknownState. Returning normally means the model is well formed.
    """
    validate_structure(m)
    for voter, state, other in own_preference_violations(m):
        raise OwnPreferenceViolation(voter, state, other)


def own_preference_violations(m: ProfileModel):
    """Yield (voter, state, witness) for every state whose block holds a
    state with another ballot of that voter; the witness is the first such
    state of the block. Voters ascending, blocks and members in model order.

    Linear in each block: every member's ballot differs from the block's
    first ballot or from that of its first member with another ballot, so
    those two states are the only witnesses.
    """
    for voter in m.election.voters:
        for block in m.blocks(voter):
            ballots = [m.profile_at(s).pref(voter) for s in block]
            odd = next((k for k, b in enumerate(ballots) if b != ballots[0]), None)
            if odd is None:
                continue
            for s, b in zip(block, ballots):
                yield voter, s, block[odd] if b == ballots[0] else block[0]


def ranks_every_candidate(order, candidates) -> bool:
    """Whether the sequence order lists every candidate exactly once."""
    return len(order) == len(candidates) and set(order).issuperset(candidates)


def check_ranking(ballot: Preference, candidates, what: str) -> None:
    """Raise ValueError, naming the argument what, unless the ballot (or
    tiebreak) ranks every candidate exactly once. Library entry points call
    it once per call, so the work behind them may assume checked ballots."""
    if not ranks_every_candidate(ballot.order, candidates):
        raise ValueError(f"{what} {ballot.as_text()} does not rank every "
                         f"candidate of {' '.join(candidates)} once")


def validate_structure(m: ProfileModel) -> None:
    """Everything validate_model checks except the own-preference condition.

    The axiom checker runs on models that may violate own-preference (that is
    what it reports), but it still needs real partitions and a total valuation.
    """
    if not m.states:
        raise EmptySet("a model needs at least one state")
    if len(set(m.states)) != len(m.states):
        raise PartitionError("duplicate state names")
    if len(m.profiles) != len(m.states):
        raise DanglingState("valuation does not cover every state")
    candidates = m.election.candidates
    ranked: set[Preference] = set()  # ballots already found complete
    for s, p in zip(m.states, m.profiles):
        if len(p.prefs) != m.election.num_voters:
            raise DanglingState(
                f"state {s!r} ranks {len(p.prefs)} voters, "
                f"expected {m.election.num_voters}"
            )
        for i, r in enumerate(p.prefs, start=1):
            if r in ranked:
                continue
            if not ranks_every_candidate(r.order, candidates):
                raise DanglingState(
                    f"state {s!r}, voter {i}: order {r.as_text()} does not "
                    f"rank every candidate exactly once"
                )
            ranked.add(r)
    if len(m.partitions) != m.election.num_voters:
        raise PartitionError("need one partition per voter")
    for voter in m.election.voters:
        seen: dict[str, InformationSet] = {}
        for block in m.blocks(voter):
            if not block:
                raise PartitionError(f"voter {voter} has an empty block")
            for s in block:
                if s not in m._positions:
                    raise UnknownState(
                        f"voter {voter}'s partition mentions unknown state {s!r}"
                    )
                if s in seen:
                    raise PartitionError(
                        f"voter {voter}: state {s!r} appears in two blocks"
                    )
                seen[s] = block
        if len(seen) != len(m.states):
            missing = [s for s in m.states if s not in seen]
            raise PartitionError(
                f"voter {voter}'s partition misses state(s) {missing}"
            )
    if m.tiebreak is not None and not ranks_every_candidate(
            m.tiebreak.order, candidates):
        raise DanglingState("tiebreak order must rank every candidate once")
    if m.point is not None and m.point not in m.states:
        raise UnknownState(f"point {m.point!r} is not a state")


def restrict(m: ProfileModel, keep) -> ProfileModel:
    """Submodel on the given states, in original order.

    The valuation is cut down and every partition block is intersected with
    the kept states; blocks that lose all members disappear. The point is
    kept if it survives, dropped to None otherwise. Raises EmptySet when no
    state survives (models must be nonempty).
    """
    keep_set = set(m.states).intersection(keep)
    states = [s for s in m.states if s in keep_set]
    if not states:
        raise EmptySet("restriction keeps no state")
    partitions = {}
    for voter in m.election.voters:
        cuts = ([s for s in block if s in keep_set] for block in m.blocks(voter))
        partitions[voter] = [cut for cut in cuts if cut]
    return make_model(
        m.election, states, [m.profile_at(s) for s in states],
        partitions=partitions, tiebreak=m.tiebreak,
        point=m.point if m.point in keep_set else None,
    )


def hypercube(
    election: Election,
    tiebreak: Preference | None = None,
) -> ProfileModel:
    """The model of total mutual ignorance: one state per possible profile.

    Each voter knows exactly her own preference, so her blocks group the
    (m!)^n states by her component. Raises SizeLimit when the state count
    would exceed the cap (see check_size), and ValueError, before building
    anything, for a tiebreak that does not rank every candidate once.
    """
    if tiebreak is not None:
        check_ranking(tiebreak, election.candidates, "tiebreak")
    profiles = election.all_profiles()
    states = tuple(_hypercube_label(p) for p in profiles)
    partitions: dict[Voter, list[list[str]]] = {}
    for voter in election.voters:
        groups: dict[Preference, list[str]] = {}
        for s, p in zip(states, profiles):
            groups.setdefault(p.prefs[voter - 1], []).append(s)
        partitions[voter] = list(groups.values())
    return make_model(
        election, states, dict(zip(states, profiles)),
        partitions=partitions, tiebreak=tiebreak,
    )


def _hypercube_label(p: Profile) -> str:
    parts = []
    for r in p.prefs:
        if all(len(c) == 1 for c in r.order):
            parts.append("".join(r.order))
        else:
            parts.append("-".join(r.order))
    return "_".join(parts)
