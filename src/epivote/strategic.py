"""Manipulation under uncertainty: what a voter knows she can do.

All notions here are relative to a knowledge profile (model + actual state).
The voter's information set fixes a set of profiles she considers possible;
her own preference is constant across it, so "she prefers" is unambiguous.
Deviations are judged against the others voting sincerely in each considered
profile, which is what separates this module from the conditional-games view
where deviations are judged against a strategy profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import KnowledgeProfile, Preference, Profile, Voter, check_ranking
from .rules import VotingRule, _key_of, ballot_classes


def knows_manipulation(
    kp: KnowledgeProfile, F: VotingRule, i: Voter, mode: str = "de_dicto"
):
    """Does voter i know she has a manipulation, de dicto or de re?

    de_dicto: in every profile she considers possible there is some ballot
    that strictly helps her there (the ballot may differ per profile).
    de_re: one single ballot strictly helps her in every considered profile.

    Returns (verdict, witnesses); witnesses are per-profile ballot lists for
    de_dicto, and the list of uniformly-working ballots for de_re.
    """
    if mode not in ("de_dicto", "de_re"):
        raise ValueError(f"mode must be de_dicto or de_re, not {mode!r}")
    e, considered = kp.election, _considered(kp, i)
    return _knows(e, F, i, considered, _winners(e, F, considered), mode)


def dominant_manipulation_of_infoset(
    kp: KnowledgeProfile, F: VotingRule, i: Voter, alt: Preference
) -> bool:
    """Weakly improves on sincerity across the whole information set.

    For every considered profile, casting alt does at least as well for i as
    everyone (including i) voting sincerely there, and for at least one
    considered profile it does strictly better. ValueError when alt does not
    rank the candidates once.
    """
    e = kp.election
    check_ranking(alt, e.candidates, "alt")
    considered = _considered(kp, i)
    return _dominant(e, F, i, kp.truth().pref(i), considered,
                     _winners(e, F, considered), alt)


def pessimistic_manipulation(
    kp: KnowledgeProfile, F: VotingRule, i: Voter, alt: Preference
) -> bool:
    """Maximin improvement: alt's worst considered outcome beats sincerity's.

    Worst is taken with i's true preference over the outcomes of the
    considered profiles, others sincere in each. ValueError when alt does
    not rank the candidates once.
    """
    e = kp.election
    check_ranking(alt, e.candidates, "alt")
    considered = _considered(kp, i)
    truth = kp.truth().pref(i)
    worst = truth.worst_of(_winners(e, F, considered))
    return _pessimistic(e, F, i, truth, considered, worst, alt)


def _considered(kp: KnowledgeProfile, i: Voter) -> list[Profile]:
    """Distinct profiles i considers possible; UnknownVoter outside 1..n."""
    return kp.model.profiles_of(kp.information_set(i))


def _winners(e, F: VotingRule, profiles):
    """Each profile's sincere winner, lazily and in order."""
    return (F.winner(e, p) for p in profiles)


# The helpers below take the considered profiles, so classify reads them once,
# and their sincere winners in the same order, so each is computed once a call.

def _knows(e, F: VotingRule, i: Voter, considered: list[Profile], sincere,
           mode: str):
    """knows_manipulation on the considered profiles.

    sincere may be lazy: a winner is drawn only for a profile visited before
    an early exit. Ballots with equal keys under F win alike (see
    ballot_classes), so each profile's helping ballots are found from its
    sincere winner and one deviated winner per class, then listed in
    e.orders() order.
    """
    alts, key = e.orders(), _key_of(F)
    classes = ballot_classes(F, alts)

    def helping(p: Profile, won) -> set:
        truth = p.pref(i)
        return {k for k, alt in classes
                if truth.prefers(F.winner(e, p.replace(i, alt)), won)}

    if mode == "de_dicto":
        witnesses: dict[Profile, tuple[Preference, ...]] = {}
        for p, won in zip(considered, sincere):
            working = helping(p, won)
            if not working:
                return False, {}
            witnesses[p] = tuple(alt for alt in alts if key(alt) in working)
        return True, witnesses
    common = {k for k, _ in classes}
    for p, won in zip(considered, sincere):
        common &= helping(p, won)
        if not common:
            break
    uniform = tuple(alt for alt in alts if key(alt) in common)
    return bool(uniform), uniform


def _dominant(e, F: VotingRule, i: Voter, truth: Preference,
              considered: list[Profile], sincere, alt: Preference) -> bool:
    strict = False
    for p, won in zip(considered, sincere):
        deviated = F.winner(e, p.replace(i, alt))
        if truth.prefers(won, deviated):
            return False
        if truth.prefers(deviated, won):
            strict = True
    return strict


def _dominant_alts(
    e, F: VotingRule, i: Voter, truth: Preference, considered: list[Profile]
) -> tuple[Preference, ...]:
    """The ballots dominant_manipulation_of_infoset accepts, in e.orders() order."""
    sincere = list(_winners(e, F, considered))
    return tuple(alt for alt in e.orders()
                 if _dominant(e, F, i, truth, considered, sincere, alt))


def _pessimistic(e, F: VotingRule, i: Voter, truth: Preference,
                 considered: list[Profile], worst, alt: Preference) -> bool:
    """Does alt's worst considered winner beat worst, the worst sincere one?"""
    deviated = truth.worst_of(F.winner(e, p.replace(i, alt)) for p in considered)
    return truth.prefers(deviated, worst)


# Strongest label first; classify() reports the first one that applies.
KIND_ORDER = (
    "knows_de_re",
    "knows_de_dicto",
    "dominant_of_infoset",
    "pessimistic",
    "has_manipulation",
    "none",
)


@dataclass(frozen=True)
class ManipulationReport:
    """Everything classify() established about one voter at the point."""

    voter: Voter
    kind: str
    has_manipulation: bool
    knows_de_dicto: bool
    knows_de_re: bool
    manipulation_alts: tuple[Preference, ...]
    dominant_alts: tuple[Preference, ...]
    pessimistic_alts: tuple[Preference, ...]
    de_re_alts: tuple[Preference, ...]
    de_dicto_witnesses: dict = field(default_factory=dict, compare=False)


def classify(kp: KnowledgeProfile, F: VotingRule, i: Voter) -> ManipulationReport:
    """Run every manipulation notion for voter i and label the strongest."""
    e, orders = kp.election, kp.election.orders()
    considered = _considered(kp, i)
    actual = kp.truth()
    truth = actual.pref(i)
    sincere = list(_winners(e, F, considered))
    won = sincere[considered.index(actual)]
    manipulation_alts = tuple(
        alt for alt in orders
        if truth.prefers(F.winner(e, actual.replace(i, alt)), won))
    dominant_alts = tuple(
        alt for alt in orders
        if _dominant(e, F, i, truth, considered, sincere, alt))
    worst = truth.worst_of(sincere)
    pessimistic_alts = tuple(
        alt for alt in orders
        if _pessimistic(e, F, i, truth, considered, worst, alt))
    de_dicto, dicto_witnesses = _knows(e, F, i, considered, sincere, "de_dicto")
    de_re, re_alts = _knows(e, F, i, considered, sincere, "de_re")
    flags = {
        "knows_de_re": de_re,
        "knows_de_dicto": de_dicto,
        "dominant_of_infoset": bool(dominant_alts),
        "pessimistic": bool(pessimistic_alts),
        "has_manipulation": bool(manipulation_alts),
        "none": True,
    }
    kind = next(k for k in KIND_ORDER if flags[k])
    return ManipulationReport(
        voter=i,
        kind=kind,
        has_manipulation=bool(manipulation_alts),
        knows_de_dicto=de_dicto,
        knows_de_re=de_re,
        manipulation_alts=manipulation_alts,
        dominant_alts=dominant_alts,
        pessimistic_alts=pessimistic_alts,
        de_re_alts=tuple(re_alts) if de_re else (),
        de_dicto_witnesses=dicto_witnesses if de_dicto else {},
    )
