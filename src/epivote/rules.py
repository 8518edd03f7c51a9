"""Voting rules and the classical (single-profile) manipulation notions.

Ships plurality with a mandatory tie-breaking order behind a small VotingRule
protocol so other resolute rules can plug in. The manipulation and dominance
notions here take a single profile (or the full profile space); uncertainty
lives in the strategic-analysis and conditional-games modules. The classical
equilibrium notions live in the conditional-games module, where the
single-profile game is the game of a one-state model.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Protocol, runtime_checkable

from .errors import MissingTiebreak
from .model import (
    Candidate,
    Election,
    Preference,
    Profile,
    Voter,
    check_ranking,
    check_size,
    check_voter,
)


@runtime_checkable
class VotingRule(Protocol):
    """A resolute social choice function over complete linear-order votes.

    A rule may also declare ``ballot_key(ballot)`` when its winner reads
    nothing of a ballot but that key: ballots with equal keys are then
    interchangeable, and the equilibrium engine tries one ballot per key
    (see ballot_classes). A rule without it has every ballot in a class of
    its own.
    """

    name: str

    def winner(self, e: Election, votes: Profile) -> Candidate:
        ...


def plurality_winner(
    e: Election, votes: Profile, tiebreak: Preference
) -> Candidate:
    """Most top-choice votes; ties go to the tiebreak-highest candidate.

    The hot path, unguarded: it takes checked ballots and tiebreak, each
    ranking e's candidates once (see model.check_ranking).
    """
    return Plurality(tiebreak).winner(e, votes)


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
        """plurality_winner under this tiebreak, in one call to the cached
        core that reads the tops; it takes checked ballots."""
        return _plurality_from_tops(
            e.candidates, tuple([b.order[0] for b in votes.prefs]),
            self.tiebreak.order)

    def ballot_key(self, ballot: Preference) -> Candidate:
        """Plurality reads only the top of each ballot."""
        return ballot.top


def rule_for(m_or_tiebreak) -> Plurality:
    """Plurality for a model (using its tiebreak) or for a bare tiebreak."""
    tiebreak = getattr(m_or_tiebreak, "tiebreak", m_or_tiebreak)
    if tiebreak is None:
        raise MissingTiebreak(
            "plurality needs a tiebreak order; the model declares none "
            "(add a 'tiebreak:' line; hypercube --tiebreak writes one)"
        )
    return Plurality(tiebreak)


def is_manipulation(
    F: VotingRule, e: Election, p: Profile, i: Voter, alt: Preference
) -> bool:
    """Does voting alt instead of her true p-preference strictly help i?

    ValueError when p does not hold one ballot per voter, or when alt or a
    ballot of p does not rank e's candidates once.
    """
    _check_profile(e, p)
    check_ranking(alt, e.candidates, "alt")
    truth = p.pref(i)
    [(sincere, [won])] = _deviation_rows(e, F, i, [p], [alt])
    return truth.prefers(won, sincere)


def manipulations(F: VotingRule, e: Election, p: Profile, i: Voter) -> list[Preference]:
    """All ballots that strictly improve on sincere voting for i at p, in
    e.orders() order. ValueError as for is_manipulation."""
    _check_profile(e, p)
    truth, alts = p.pref(i), e.orders()
    [(sincere, winners)] = _deviation_rows(e, F, i, [p], alts)
    return [alt for alt, won in zip(alts, winners) if truth.prefers(won, sincere)]


def _check_profile(e: Election, p: Profile) -> None:
    if len(p.prefs) != e.num_voters:
        raise ValueError(
            f"expected {e.num_voters} ballots, one per voter, got {len(p.prefs)}")
    for voter, ballot in enumerate(p.prefs, start=1):
        check_ranking(ballot, e.candidates, f"voter {voter}'s ballot")


def _deviation_rows(e: Election, F: VotingRule, i: Voter, profiles, ballots):
    """The deviation table every manipulation notion reads: per profile,
    lazily and in order, its sincere winner and the list of winners when
    voter i casts each of ballots instead. Its callers check i first.

    Ballots of one class of F (see ballot_classes) give one winner, so each
    row decides one winner per class, on the class's first ballot, and
    copies it into the column of every ballot of that class through a
    column-to-class index built once per call: under plurality one winner
    per top, under a keyless rule one per ballot.
    """
    classes, key = ballot_classes(F, ballots), _key_of(F)
    place = {k: j for j, (k, _) in enumerate(classes)}
    column = [place[key(b)] for b in ballots]
    for p in profiles:
        head, tail = p.prefs[:i - 1], p.prefs[i:]
        won = [F.winner(e, Profile(head + (b,) + tail)) for _, b in classes]
        yield F.winner(e, p), [won[j] for j in column]


def dominant_preference(
    F: VotingRule,
    e: Election,
    i: Voter,
    truth: Preference,
    alt: Preference,
) -> bool:
    """Is alt a weakly dominant ballot for voter i whose real preference is truth?

    Against every combination of ballots by everyone, alt's outcome is at
    least as good for i as the outcome of any ballot she could cast instead,
    and against some combination of the others' ballots it is strictly
    better than voting truth. ValueError when truth or alt does not rank
    e's candidates once.
    """
    check_voter(i, e.num_voters)
    check_ranking(truth, e.candidates, "truth")
    check_ranking(alt, e.candidates, "alt")
    check_size(ballot_count(e, False) ** e.num_voters, "profiles")
    orders = e.orders()
    mine = orders.index(alt)
    sincere_profiles = (Profile(others[:i - 1] + (truth,) + others[i - 1:])
                        for others in itertools.product(orders, repeat=e.num_voters - 1))
    strict_somewhere = False
    for sincere, winners in _deviation_rows(e, F, i, sincere_profiles, orders):
        with_alt = winners[mine]
        if any(truth.prefers(won, with_alt) for won in winners):
            return False
        if truth.prefers(with_alt, sincere):
            strict_somewhere = True
    return strict_somewhere


def ballot_count(e: Election, by_top: bool) -> int:
    """len(ballot_space(e, by_top)), counted without building a ballot."""
    m = len(e.candidates)
    return m if by_top else math.factorial(m)


def ballot_space(e: Election, by_top: bool) -> list[Preference]:
    """All ballots, or one canonical ballot per top candidate.

    The canonical ballot for top x is x followed by the remaining candidates
    in election order. Quotienting by top is sound only for rules that read
    nothing but the top choices, as plurality does.
    """
    if by_top:
        return [
            Preference((top,) + tuple(c for c in e.candidates if c != top))
            for top in e.candidates
        ]
    return list(e.orders())


def ballot_classes(F: VotingRule, ballots) -> list[tuple[object, Preference]]:
    """One (key, first ballot) pair per class of ballots F can tell apart.

    Classes come in the order each first appears in ``ballots``. A rule
    without ``ballot_key`` gets one class per ballot, keyed by the ballot.
    """
    key = _key_of(F)
    first: dict = {}
    for b in ballots:
        first.setdefault(key(b), b)
    return list(first.items())


def _key_of(F: VotingRule):
    """F's ballot_key, or the whole ballot for a rule that declares none."""
    return getattr(F, "ballot_key", lambda ballot: ballot)
