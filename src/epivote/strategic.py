"""Manipulation under uncertainty: what a voter knows she can do.

All notions here are relative to a knowledge profile (model + actual state).
The voter's information set fixes a set of profiles she considers possible;
her own preference is constant across it, so "she prefers" is unambiguous.
Deviations are judged against the others voting sincerely in each considered
profile, which is what separates this module from the conditional-games view
where deviations are judged against a strategy profile.

Every notion reads one deviation table (rules._deviation_rows): per
considered profile, its sincere winner and the winner after each ballot she
could cast instead, one column per ballot. The table decides one winner per
ballot class of the rule and repeats it across the class's columns, so the
reads here see every ballot and never the classes. The knowledge scans draw
its rows one at a time and stop early; classify lists them once and shares
them across all five notions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import KnowledgeProfile, Preference, Profile, Voter, check_ranking
from .rules import VotingRule, _deviation_rows


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
    alts = e.orders()
    return _knows(i, considered, _deviation_rows(e, F, i, considered, alts),
                  alts, mode)


def dominant_manipulation_of_infoset(
    kp: KnowledgeProfile, F: VotingRule, i: Voter, alt: Preference
) -> bool:
    """Weakly improves on sincerity across the whole information set.

    For every considered profile, casting alt does at least as well for i as
    everyone (including i) voting sincerely there, and for at least one
    considered profile it does strictly better. ValueError when alt does not
    rank the candidates once.
    """
    check_ranking(alt, kp.election.candidates, "alt")
    rows = _deviation_rows(kp.election, F, i, _considered(kp, i), [alt])
    return bool(_dominant(kp.truth().pref(i), rows, [alt]))


def pessimistic_manipulation(
    kp: KnowledgeProfile, F: VotingRule, i: Voter, alt: Preference
) -> bool:
    """Maximin improvement: alt's worst considered outcome beats sincerity's.

    Worst is taken with i's true preference over the outcomes of the
    considered profiles, others sincere in each. ValueError when alt does
    not rank the candidates once.
    """
    check_ranking(alt, kp.election.candidates, "alt")
    rows = list(_deviation_rows(kp.election, F, i, _considered(kp, i), [alt]))
    return bool(_pessimistic(kp.truth().pref(i), rows, [alt]))


def _considered(kp: KnowledgeProfile, i: Voter) -> list[Profile]:
    """Distinct profiles i considers possible; UnknownVoter outside 1..n."""
    return kp.model.profiles_of(kp.information_set(i))


# The reads below take deviation rows, one per considered profile, whose
# columns follow alts.

def _knows(i: Voter, considered: list[Profile], rows, alts, mode: str):
    """knows_manipulation on rows aligned with the considered profiles.

    rows may be lazy: a row is drawn only for a profile visited before an
    early exit. Each row is judged by that profile's own ranking of i,
    whom _considered has checked.
    """
    if mode == "de_dicto":
        witnesses: dict[Profile, tuple[Preference, ...]] = {}
        for p, (won, winners) in zip(considered, rows):
            truth = p.prefs[i - 1]
            working = tuple(alt for alt, w in zip(alts, winners)
                            if truth.prefers(w, won))
            if not working:
                return False, {}
            witnesses[p] = working
        return True, witnesses
    live = range(len(alts))
    for p, (won, winners) in zip(considered, rows):
        truth = p.prefs[i - 1]
        live = [k for k in live if truth.prefers(winners[k], won)]
        if not live:
            break
    uniform = tuple(alts[k] for k in live)
    return bool(uniform), uniform


def _dominant(truth: Preference, rows, alts) -> tuple[Preference, ...]:
    """The alts never worse than sincerity in a row and better in one.

    rows may be lazy: they are drawn until every alt is worse in one.
    """
    live, better = range(len(alts)), set()
    for won, winners in rows:
        live = [k for k in live if not truth.prefers(won, winners[k])]
        if not live:
            break
        better.update(k for k in live if truth.prefers(winners[k], won))
    return tuple(alts[k] for k in live if k in better)


def _pessimistic(truth: Preference, rows: list, alts) -> tuple[Preference, ...]:
    """The alts whose worst winner over the rows beats the worst sincere one."""
    worst = truth.worst_of(won for won, _ in rows)
    return tuple(alt for k, alt in enumerate(alts)
                 if truth.prefers(truth.worst_of(w[k] for _, w in rows), worst))


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
    rows = list(_deviation_rows(e, F, i, considered, orders))
    won, winners = rows[considered.index(actual)]
    manipulation_alts = tuple(
        alt for alt, w in zip(orders, winners) if truth.prefers(w, won))
    dominant_alts = _dominant(truth, rows, orders)
    pessimistic_alts = _pessimistic(truth, rows, orders)
    de_dicto, dicto_witnesses = _knows(i, considered, rows, orders, "de_dicto")
    de_re, re_alts = _knows(i, considered, rows, orders, "de_re")
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
