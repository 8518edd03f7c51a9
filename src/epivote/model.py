"""Core data model: elections, preferences, profiles, and profile models.

A profile model is an S5 Kripke structure whose states are labeled with vote
profiles and whose accessibility relations are stored as partitions (blocks of
states a voter cannot tell apart). A ProfileModel checks its structure when it
is built, so every model has real partitions and a complete valuation. Every
voter always knows her own preference, so within any block of voter i the
i-th preference is constant; ``validate_model`` enforces this rule, which
construction leaves to it.
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

# A state name is what the model file can read back: a non-empty run of
# characters without whitespace, comment marks, '=' or block braces.
_STATE_NAME = re.compile(r"[^\s#={}]+")


def check_size(total: int, what: str) -> None:
    """Raise SizeLimit when an enumeration of total items (named by what in
    the message) would exceed SIZE_CAP; callers count before they build."""
    if total > SIZE_CAP:
        raise SizeLimit(f"{total} {what} exceed the cap of {SIZE_CAP}")


def listed(items, count: int) -> str:
    """The list repr of items, a lazy iterable of count things an error
    message names: the first five of them, then '...' and the count when
    there are more, so a message stays one short line at any count."""
    first = list(itertools.islice(items, 5))
    if count <= 5:
        return repr(first)
    return f"{repr(first)[:-1]}, ...] ({count} in all)"


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
        if not (isinstance(c, str) and _CANDIDATE_NAME.fullmatch(c)):
            raise ValueError(f"candidate name {c!r} is not an identifier")
        if c in RESERVED_WORDS:
            raise ValueError(f"candidate name {c!r} is a reserved word")


@dataclass(frozen=True)
class Election:
    """Candidates in file order plus the number of voters (named 1..n).

    Any sequence of candidate names is stored as a tuple; a bare string is
    refused rather than split into letters. The voter count is an int, not a
    bool, as in check_voter.
    """

    candidates: tuple[Candidate, ...]
    num_voters: int

    def __post_init__(self):
        object.__setattr__(self, "candidates", _names(self.candidates))
        if not self.candidates:
            raise EmptySet("an election needs at least one candidate")
        check_candidate_names(self.candidates)
        if len(set(self.candidates)) != len(self.candidates):
            raise ValueError("duplicate candidate names")
        if type(self.num_voters) is not int:
            raise ValueError(f"voter count {self.num_voters!r} is not an int")
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
    """A strict linear order over candidates, best first, stored as a tuple
    (a bare string is refused, as in Election)."""

    order: tuple[Candidate, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", _names(self.order))
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


def _names(names) -> tuple[Candidate, ...]:
    """The candidate sequence names as a tuple; ValueError for one string."""
    if isinstance(names, str):
        raise ValueError(f"candidates {names!r} are one string, not a sequence")
    return tuple(names)


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

    ``partitions[i-1]`` lists voter i's blocks; the constructor stores them in
    ``states`` order (members, and blocks by first state) however given.
    ``tiebreak`` and ``point`` are optional at this layer: rules that need a
    tie-breaking order and pointed operations check for them at use time.

    Building a model checks its structure, whether it comes from make_model,
    restrict, hypercube, parse_model, dataclasses.replace or this
    constructor. There is at least one state and no name twice, each name
    one the model file can hold (else ValueError). There is one profile per
    state, with one ballot per voter that ranks every candidate once (else
    DanglingState). There is one partition per voter whose non-empty blocks
    cover each state once (else PartitionError, or UnknownState for a member
    that is no state). The tiebreak ranks every candidate once (else
    ValueError) and the point is a state (else UnknownState). The first
    broken rule is raised, in that order. The own-preference rule is left to
    validate_model, so models that break it can be built and reported.

    The check builds the one index every state lookup reads; it is not part
    of equality: a state -> position dict, and per voter a tuple aligned
    with ``states`` holding the number of the block that contains each
    state. The per-voter reads take their voter through check_voter.
    """

    election: Election
    states: tuple[str, ...]
    profiles: tuple[Profile, ...]
    partitions: tuple[tuple[InformationSet, ...], ...]
    tiebreak: Preference | None = None
    point: str | None = None

    def __post_init__(self):
        e, states = self.election, self.states
        if not states:
            raise EmptySet("a model needs at least one state")
        pos = {s: k for k, s in enumerate(states)}
        if len(pos) != len(states):
            raise PartitionError("duplicate state names")
        for s in states:
            if not (isinstance(s, str) and _STATE_NAME.fullmatch(s)):
                raise ValueError(f"state name {s!r} cannot be written to a "
                                 f"model file")
        if len(self.profiles) != len(states):
            raise DanglingState("valuation does not cover every state")
        ranked: set[Preference] = set()  # ballots already found complete
        for s, p in zip(states, self.profiles):
            if len(p.prefs) != e.num_voters:
                raise DanglingState(
                    f"state {s!r} ranks {len(p.prefs)} voters, "
                    f"expected {e.num_voters}"
                )
            for i, r in enumerate(p.prefs, start=1):
                if r in ranked:
                    continue
                if not ranks_every_candidate(r.order, e.candidates):
                    raise DanglingState(
                        f"state {s!r}, voter {i}: order {r.as_text()} does not "
                        f"rank every candidate exactly once"
                    )
                ranked.add(r)
        if len(self.partitions) != e.num_voters:
            raise PartitionError("need one partition per voter")
        table, parts = [], []
        for voter, blocks in enumerate(self.partitions, start=1):
            row = [-1] * len(states)  # -1 until a block covers the state
            for k, block in enumerate(blocks):
                if not block:
                    raise PartitionError(f"voter {voter} has an empty block")
                for s in block:
                    si = pos.get(s)
                    if si is None:
                        raise UnknownState(f"voter {voter}'s partition "
                                           f"mentions unknown state {s!r}")
                    if row[si] >= 0:
                        raise PartitionError(
                            f"voter {voter}: state {s!r} appears in two blocks")
                    row[si] = k
            if -1 in row:
                missing = (s for s, k in zip(states, row) if k < 0)
                raise PartitionError(f"voter {voter}'s partition misses "
                                     f"state(s) {listed(missing, row.count(-1))}")
            # canonical order: blocks by their first state, members by state
            order = dict.fromkeys(row)  # block numbers, first-seen
            number = dict(zip(order, itertools.count()))
            table.append(tuple(map(number.__getitem__, row)))
            parts.append(tuple(tuple(sorted(blocks[k], key=pos.__getitem__))
                               for k in order))
        if self.tiebreak is not None:
            check_ranking(self.tiebreak, e.candidates, "tiebreak")
        if self.point is not None and self.point not in pos:
            raise UnknownState(f"point {self.point!r} is not a state")
        object.__setattr__(self, "partitions", tuple(parts))
        object.__setattr__(self, "_positions", pos)
        object.__setattr__(self, "_block_ids", tuple(table))

    def index(self, state: str) -> int:
        try:
            return self._positions[state]
        except KeyError:
            raise UnknownState(f"no state named {state!r}") from None

    def profile_at(self, state: str) -> Profile:
        return self.profiles[self.index(state)]

    def blocks(self, voter: Voter) -> tuple[InformationSet, ...]:
        check_voter(voter, self.election.num_voters)
        return self.partitions[voter - 1]

    def block_ids(self, voter: Voter) -> tuple[int, ...]:
        """Per state (in ``states`` order), voter's block number."""
        check_voter(voter, self.election.num_voters)
        return self._block_ids[voter - 1]

    def block_ids_at(self, si: int) -> tuple[int, ...]:
        """Each voter's block number at the si-th state, voters ascending."""
        return tuple([row[si] for row in self._block_ids])

    def block_of(self, voter: Voter, state: str) -> InformationSet:
        check_voter(voter, self.election.num_voters)
        return self.partitions[voter - 1][
            self._block_ids[voter - 1][self.index(state)]]

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
    """Build a ProfileModel from a dict or sequence valuation.

    ``profiles`` maps state -> Profile (dict) or is a sequence aligned with
    ``states``. ``partitions`` maps voter -> iterable of state-iterables;
    omitted voters (or a None value) get all-singleton partitions, and a key
    that is no voter raises UnknownVoter (check_voter). The ProfileModel
    constructor checks the rest of the structure and sets the block order.
    """
    states = tuple(states)
    if isinstance(profiles, dict):
        missing = [s for s in states if s not in profiles]
        if missing:
            raise DanglingState(
                f"no valuation for state(s) {listed(missing, len(missing))}")
        profs = tuple(profiles[s] for s in states)
    else:
        profs = tuple(profiles)
    raw = partitions or {}
    for voter in raw:
        check_voter(voter, election.num_voters)
    parts = []
    for voter in election.voters:
        given = raw.get(voter)
        if given is None:
            given = [(s,) for s in states]
        parts.append(tuple(map(tuple, given)))
    return ProfileModel(
        election=election,
        states=states,
        profiles=profs,
        partitions=tuple(parts),
        tiebreak=tiebreak,
        point=point,
    )


def validate_model(m: ProfileModel) -> None:
    """Check the own-preference rule, the one rule construction leaves out.

    Raises OwnPreferenceViolation for the first voter and block where two
    states give her different ballots; returning normally means the model is
    well formed.
    """
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


def restrict(m: ProfileModel, keep) -> ProfileModel:
    """Submodel on the given states, in original order.

    The valuation is cut down and every block is intersected with the kept
    states; empty cuts disappear and the constructor orders the rest. The
    point is kept if it survives, dropped to None otherwise. EmptySet when
    no state survives (the constructor's, as models must be nonempty).
    """
    keep_set = set(m.states).intersection(keep)
    kept = [k for k, s in enumerate(m.states) if s in keep_set]
    partitions = []
    for blocks in m.partitions:
        cuts = (tuple(s for s in block if s in keep_set) for block in blocks)
        partitions.append(tuple(cut for cut in cuts if cut))
    return ProfileModel(
        m.election, tuple(m.states[k] for k in kept),
        tuple(m.profiles[k] for k in kept), tuple(partitions),
        m.tiebreak, m.point if m.point in keep_set else None,
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
    partitions = []
    for voter in election.voters:
        groups: dict[Preference, list[str]] = {}
        for s, p in zip(states, profiles):
            groups.setdefault(p.prefs[voter - 1], []).append(s)
        partitions.append(tuple(map(tuple, groups.values())))
    return ProfileModel(election, states, tuple(profiles), tuple(partitions),
                        tiebreak)


def _hypercube_label(p: Profile) -> str:
    parts = []
    for r in p.prefs:
        if all(len(c) == 1 for c in r.order):
            parts.append("".join(r.order))
        else:
            parts.append("-".join(r.order))
    return "_".join(parts)
