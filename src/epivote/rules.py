"""Voting rules and the classical (single-profile) strategic notions.

Ships plurality with a mandatory tie-breaking order behind a small VotingRule
protocol so other resolute rules can plug in. The strategic notions here take
a single profile (or the full profile space); uncertainty lives in the
strategic-analysis and conditional-games modules.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Protocol, runtime_checkable

from .errors import MissingTiebreak, SizeLimit
from .model import (
    DEFAULT_MAX_STATES,
    Candidate,
    Election,
    Preference,
    Profile,
    Voter,
)


@runtime_checkable
class VotingRule(Protocol):
    """A resolute social choice function over complete linear-order votes."""

    name: str

    def winner(self, e: Election, votes: Profile) -> Candidate:
        ...


def plurality_winner(
    e: Election, votes: Profile, tiebreak: Preference
) -> Candidate:
    """Most top-choice votes; ties go to the tiebreak-highest candidate."""
    return _plurality_from_tops(e.candidates, votes.tops(), tiebreak.order)


@lru_cache(maxsize=200_000)
def _plurality_from_tops(
    candidates: tuple[Candidate, ...],
    tops: tuple[Candidate, ...],
    tiebreak: tuple[Candidate, ...],
) -> Candidate:
    counts = {c: 0 for c in candidates}
    for t in tops:
        counts[t] += 1
    best = max(counts.values())
    tied = [c for c in candidates if counts[c] == best]
    return min(tied, key=tiebreak.index)


@dataclass(frozen=True)
class Plurality:
    """Plurality rule. The tiebreak order is required, not defaulted."""

    tiebreak: Preference

    name = "plurality"

    def winner(self, e: Election, votes: Profile) -> Candidate:
        return plurality_winner(e, votes, self.tiebreak)


def rule_for(m_or_tiebreak) -> Plurality:
    """Plurality for a model (using its tiebreak) or for a bare tiebreak."""
    tiebreak = getattr(m_or_tiebreak, "tiebreak", m_or_tiebreak)
    if tiebreak is None:
        raise MissingTiebreak(
            "plurality needs a tiebreak order; the model declares none"
        )
    return Plurality(tiebreak)


def is_manipulation(
    F: VotingRule, e: Election, p: Profile, i: Voter, alt: Preference
) -> bool:
    """Does voting alt instead of her true p-preference strictly help i?"""
    truth = p.pref(i)
    return truth.prefers(F.winner(e, p.replace(i, alt)), F.winner(e, p))


def manipulations(F: VotingRule, e: Election, p: Profile, i: Voter) -> list[Preference]:
    """All ballots that strictly improve on sincere voting for i at p."""
    return [alt for alt in e.orders() if is_manipulation(F, e, p, i, alt)]


def dominant_preference(
    F: VotingRule,
    e: Election,
    i: Voter,
    truth: Preference,
    alt: Preference,
    max_profiles: int = DEFAULT_MAX_STATES,
) -> bool:
    """Is alt a weakly dominant ballot for voter i whose real preference is truth?

    Against every combination of ballots by everyone, alt's outcome is at
    least as good for i as the outcome of any ballot she could cast instead,
    and against some combination of the others' ballots it is strictly
    better than voting truth.
    """
    others = [v for v in e.voters if v != i]
    total = len(e.orders()) ** e.num_voters
    if total > max_profiles:
        raise SizeLimit(f"{total} profiles exceed the cap of {max_profiles}")
    orders = e.orders()
    strict_somewhere = False
    for combo in itertools.product(orders, repeat=len(others)):
        assignment = dict(zip(others, combo))
        with_alt = F.winner(e, _assemble(e, i, alt, assignment))
        for mine in orders:
            base = F.winner(e, _assemble(e, i, mine, assignment))
            if truth.prefers(base, with_alt):
                return False
        sincere = F.winner(e, _assemble(e, i, truth, assignment))
        if truth.prefers(with_alt, sincere):
            strict_somewhere = True
    return strict_somewhere


def _assemble(e: Election, i: Voter, mine: Preference, others: dict[Voter, Preference]) -> Profile:
    prefs = []
    for v in e.voters:
        prefs.append(mine if v == i else others[v])
    return Profile(tuple(prefs))


def is_equilibrium_profile(
    F: VotingRule, e: Election, votes: Profile, truth: Profile | None = None
) -> bool:
    """No voter can change her ballot and get an outcome she truly prefers.

    With truth omitted the votes serve as the true preferences as well (the
    sincere profile checked against itself); pass truth to score an arbitrary
    ballot profile against fixed real preferences.
    """
    if truth is None:
        truth = votes
    current = F.winner(e, votes)
    for i in e.voters:
        mine = truth.pref(i)
        for alt in e.orders():
            if mine.prefers(F.winner(e, votes.replace(i, alt)), current):
                return False
    return True


def enumerate_equilibria(
    F: VotingRule,
    e: Election,
    truth: Profile,
    by_top: bool = False,
    max_profiles: int = DEFAULT_MAX_STATES,
) -> list[Profile]:
    """All ballot profiles that are equilibria against the given truth.

    by_top quotients ballots by their top choice (one canonical order per
    top: the top followed by the other candidates in election order). Only
    meaningful for rules whose outcome depends just on top choices, which
    plurality satisfies.
    """
    ballots = ballot_space(e, by_top)
    total = len(ballots) ** e.num_voters
    if total > max_profiles:
        raise SizeLimit(f"{total} ballot profiles exceed the cap of {max_profiles}")
    out = []
    for combo in itertools.product(ballots, repeat=e.num_voters):
        votes = Profile(combo)
        if _equilibrium_within(F, e, votes, truth, ballots):
            out.append(votes)
    return out


def _equilibrium_within(F, e, votes, truth, ballots) -> bool:
    current = F.winner(e, votes)
    for i in e.voters:
        mine = truth.pref(i)
        for alt in ballots:
            if mine.prefers(F.winner(e, votes.replace(i, alt)), current):
                return False
    return True


def ballot_space(e: Election, by_top: bool) -> list[Preference]:
    """All ballots, or one canonical ballot per top candidate.

    The canonical ballot for top x is x followed by the remaining candidates
    in election order. Quotienting by top is sound only for rules that read
    nothing but the top choices, as plurality does.
    """
    if by_top:
        return [_top_order(e, c) for c in e.candidates]
    return list(e.orders())


def _top_order(e: Election, top: Candidate) -> Preference:
    rest = tuple(c for c in e.candidates if c != top)
    return Preference((top,) + rest)
