"""The Bayesian game induced by a profile model.

Players are virtual voters: pairs of a voter and one of her information
sets. A conditional profile hands every virtual voter a ballot; the induced
vote at a state is each voter's ballot for the block containing that state.
A virtual voter scores a conditional profile by the worst winner (under her
true preference, constant on the block) across her block's states, and an
equilibrium is a conditional profile where no virtual voter can raise that
worst-case score by changing her own block's ballot while everything else
stays fixed. Deviations are judged against the induced votes of the profile
under test, not against sincere votes; the sincere-baseline notions live in
the strategic-analysis module and coincide with these on the sincere
conditional profile.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import PartitionError, SizeLimit
from .model import (
    DEFAULT_MAX_STATES,
    Candidate,
    InformationSet,
    Preference,
    Profile,
    ProfileModel,
    Voter,
)
from .rules import VotingRule, ballot_space

# cp[i-1][k] is the ballot voter i casts on her k-th block (model block order).
ConditionalProfile = tuple[tuple[Preference, ...], ...]


@dataclass(frozen=True)
class VirtualVoter:
    voter: Voter
    infoset: InformationSet


def virtual_voters(m: ProfileModel) -> list[VirtualVoter]:
    """All (voter, block) players, voters ascending, blocks in model order."""
    return [
        VirtualVoter(i, block) for i in m.election.voters for block in m.blocks(i)
    ]


def sincere_conditional_profile(m: ProfileModel) -> ConditionalProfile:
    """Every block votes its own true preference (constant on the block)."""
    return tuple(
        tuple(m.profile_at(block[0]).pref(i) for block in m.blocks(i))
        for i in m.election.voters
    )


def conditional_profile(m: ProfileModel, choices) -> ConditionalProfile:
    """Build a ConditionalProfile from {voter: {block: Preference}}.

    Accepts blocks keyed by the tuple itself or by any member state.
    """
    out = []
    for i in m.election.voters:
        given = choices[i]
        row = []
        for block in m.blocks(i):
            if block in given:
                row.append(given[block])
            else:
                members = [s for s in block if s in given]
                if not members:
                    raise KeyError(f"no choice for voter {i} block {block}")
                row.append(given[members[0]])
        out.append(tuple(row))
    return tuple(out)


def induced_votes(m: ProfileModel, cp: ConditionalProfile, state: str) -> Profile:
    """The ballot each voter actually casts if the state is `state`."""
    si = m.index(state)
    votes = []
    for vi, i in enumerate(m.election.voters):
        k = m.block_ids(i)[si]
        if k < 0:
            raise PartitionError(
                f"voter {i}'s partition does not cover state {state!r}"
            )
        votes.append(cp[vi][k])
    return Profile(tuple(votes))


def induced_winners(
    m: ProfileModel, F: VotingRule, cp: ConditionalProfile
) -> tuple[Candidate, ...]:
    """Winner per state, states in file order."""
    e = m.election
    ids = [m.block_ids(i) for i in e.voters]
    return tuple(
        F.winner(e, Profile(tuple(row[k[si]] for row, k in zip(cp, ids))))
        for si in range(len(m.states))
    )


def worst_winner(
    m: ProfileModel, F: VotingRule, cp: ConditionalProfile, v: VirtualVoter
) -> Candidate:
    """The winner v fears most across her block, by her true preference."""
    truth = m.profile_at(v.infoset[0]).pref(v.voter)
    winners = induced_winners(m, F, cp)
    return truth.worst_of(winners[m.index(s)] for s in v.infoset)


def payoff(
    m: ProfileModel, F: VotingRule, cp: ConditionalProfile, v: VirtualVoter
) -> int:
    """Worst-case rank of the winner over v's block, by v's true preference."""
    truth = m.profile_at(v.infoset[0]).pref(v.voter)
    return truth.rank_value(worst_winner(m, F, cp, v))


def deviate(
    m: ProfileModel,
    cp: ConditionalProfile,
    i: Voter,
    block_index: int,
    alt: Preference,
) -> ConditionalProfile:
    """cp with voter i's ballot on her block_index-th block swapped for alt."""
    row = list(cp[i - 1])
    row[block_index] = alt
    out = list(cp)
    out[i - 1] = tuple(row)
    return tuple(out)


def is_conditional_equilibrium(
    m: ProfileModel, F: VotingRule, cp: ConditionalProfile
) -> tuple[bool, tuple[VirtualVoter, Preference] | None]:
    """No virtual voter can raise her worst-case rank by a unilateral change.

    Returns (True, None) or (False, (virtual voter, better ballot)) with the
    first improving deviation in enumeration order. All m! ballots are tried.
    A change by (i, B) only shifts winners at states inside B, so only those
    states are recomputed.
    """
    e = m.election
    ids = [m.block_ids(i) for i in e.voters]
    winners = induced_winners(m, F, cp)
    alts = e.orders()
    for vi, i in enumerate(e.voters):
        for k, block in enumerate(m.blocks(i)):
            truth = m.profile_at(block[0]).pref(i)
            here = min(truth.rank_value(winners[m.index(s)]) for s in block)
            if here == len(e.candidates) - 1:
                continue  # already gets her top everywhere, nothing beats it
            for alt in alts:
                if alt == cp[vi][k]:
                    continue
                worst = len(e.candidates)
                for s in block:
                    si = m.index(s)
                    votes = Profile(tuple(
                        alt if wj == vi else cp[wj][ids[wj][si]]
                        for wj in range(e.num_voters)
                    ))
                    worst = min(worst, truth.rank_value(F.winner(e, votes)))
                    if worst <= here:
                        break
                if worst > here:
                    return False, (VirtualVoter(i, block), alt)
    return True, None


def enumerate_conditional_equilibria(
    m: ProfileModel,
    F: VotingRule,
    by_top: bool = False,
    max_profiles: int = DEFAULT_MAX_STATES,
) -> list[ConditionalProfile]:
    """All equilibria, in deterministic enumeration order.

    Order: ballots per block from ballot_space, blocks in model order, the
    later voter's strategy cycling fastest.
    """
    out = []
    for cp in _all_conditional_profiles(m, by_top, max_profiles):
        ok, _ = is_conditional_equilibrium(m, F, cp)
        if ok:
            out.append(cp)
    return out


def _all_conditional_profiles(m: ProfileModel, by_top: bool, max_profiles: int):
    e = m.election
    space = ballot_space(e, by_top)
    total = 1
    for i in e.voters:
        total *= len(space) ** len(m.blocks(i))
    if total > max_profiles:
        raise SizeLimit(
            f"{total} conditional profiles exceed the cap of {max_profiles}"
        )
    per_voter = [
        itertools.product(space, repeat=len(m.blocks(i))) for i in e.voters
    ]
    return itertools.product(*per_voter)


def strategy_label(choices: tuple[Preference, ...], by_top: bool = True) -> str:
    """Row/column label: tops concatenated ('ac'), or full orders joined."""
    if by_top:
        return "".join(p.top for p in choices)
    return " ".join(p.as_text() for p in choices)


def winners_string(m: ProfileModel, F: VotingRule, cp: ConditionalProfile) -> str:
    """Winners at each state in file order, concatenated ('bbc')."""
    return "".join(induced_winners(m, F, cp))


def payoff_string(m: ProfileModel, F: VotingRule, cp: ConditionalProfile) -> str:
    """Worst-case ranks, one digit per block, voters separated by dots.

    A two-voter model where voter 1 has two blocks and voter 2 has one reads
    like '11.1': voter 1's blocks in model order, then voter 2's.
    """
    groups = []
    for vi, i in enumerate(m.election.voters):
        digits = "".join(
            str(payoff(m, F, cp, VirtualVoter(i, block)))
            for block in m.blocks(i)
        )
        groups.append(digits)
    return ".".join(groups)


@dataclass(frozen=True)
class PayoffMatrix:
    """Two-voter grid: voter 1's strategies as rows, voter 2's as columns."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    winners: tuple[tuple[str, ...], ...]
    payoffs: tuple[tuple[str, ...], ...]
    equilibria: tuple[tuple[bool, ...], ...]

    def winners_at(self, row: str, col: str) -> str:
        return self.winners[self.row_labels.index(row)][self.col_labels.index(col)]

    def payoff_at(self, row: str, col: str) -> str:
        return self.payoffs[self.row_labels.index(row)][self.col_labels.index(col)]

    def is_equilibrium_at(self, row: str, col: str) -> bool:
        return self.equilibria[self.row_labels.index(row)][self.col_labels.index(col)]


def payoff_matrix(
    m: ProfileModel,
    F: VotingRule,
    by_top: bool = True,
    max_profiles: int = DEFAULT_MAX_STATES,
) -> PayoffMatrix:
    """Full winners/payoff grids with equilibrium flags, two voters only."""
    e = m.election
    if e.num_voters != 2:
        raise SizeLimit("matrix display needs exactly two voters")
    space = ballot_space(e, by_top)
    rows = list(itertools.product(space, repeat=len(m.blocks(1))))
    cols = list(itertools.product(space, repeat=len(m.blocks(2))))
    if len(rows) * len(cols) > max_profiles:
        raise SizeLimit(
            f"{len(rows) * len(cols)} cells exceed the cap of {max_profiles}"
        )
    winners, payoffs, stars = [], [], []
    for r in rows:
        wrow, prow, srow = [], [], []
        for c in cols:
            cp = (r, c)
            wrow.append(winners_string(m, F, cp))
            prow.append(payoff_string(m, F, cp))
            ok, _ = is_conditional_equilibrium(m, F, cp)
            srow.append(ok)
        winners.append(tuple(wrow))
        payoffs.append(tuple(prow))
        stars.append(tuple(srow))
    return PayoffMatrix(
        row_labels=tuple(strategy_label(r, by_top) for r in rows),
        col_labels=tuple(strategy_label(c, by_top) for c in cols),
        winners=tuple(winners),
        payoffs=tuple(payoffs),
        equilibria=tuple(stars),
    )


def render_matrix(mat: PayoffMatrix, mark: str = "*") -> str:
    """Plain-text winners and payoff grids; equilibria marked on the payoff."""
    lines = []
    lines.append(_grid(mat.row_labels, mat.col_labels, mat.winners))
    lines.append("")
    marked = tuple(
        tuple(
            p + (mark if star else "")
            for p, star in zip(prow, srow)
        )
        for prow, srow in zip(mat.payoffs, mat.equilibria)
    )
    lines.append(_grid(mat.row_labels, mat.col_labels, marked))
    return "\n".join(lines)


def _grid(row_labels, col_labels, cells) -> str:
    widths = [
        max(len(col_labels[j]), max(len(row[j]) for row in cells))
        for j in range(len(col_labels))
    ]
    lead = max(len(r) for r in row_labels)
    head = " " * lead + " | " + "  ".join(
        c.ljust(widths[j]) for j, c in enumerate(col_labels)
    )
    lines = [head, "-" * len(head)]
    for label, row in zip(row_labels, cells):
        lines.append(
            label.ljust(lead) + " | " + "  ".join(
                cell.ljust(widths[j]) for j, cell in enumerate(row)
            )
        )
    # no trailing spaces: golden files and diffs stay clean
    return "\n".join(line.rstrip() for line in lines)
