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

The classical game of one ballot profile is the game of a one-state model,
where each voter's only information set is that state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from operator import itemgetter
from typing import NamedTuple

from .model import (
    Candidate,
    Election,
    InformationSet,
    Preference,
    Profile,
    ProfileModel,
    Voter,
    check_size,
    make_model,
    ranks_every_candidate,
)
from .rules import (
    VotingRule,
    _check_profile,
    _key_of,
    ballot_classes,
    ballot_count,
    ballot_space,
)

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
    Raises ValueError when a voter or one of her blocks has no choice.
    """
    out = []
    for i in m.election.voters:
        if i not in choices:
            raise ValueError(f"no choices for voter {i}")
        given = choices[i]
        row = []
        for block in m.blocks(i):
            if block in given:
                row.append(given[block])
            else:
                members = [s for s in block if s in given]
                if not members:
                    raise ValueError(f"no choice for voter {i} block {block}")
                row.append(given[members[0]])
        out.append(tuple(row))
    return tuple(out)


def induced_votes(m: ProfileModel, cp: ConditionalProfile, state: str) -> Profile:
    """The ballot each voter actually casts if the state is `state`."""
    _check_shape(m, cp)
    ks = m.block_ids_at(m.index(state))
    return Profile(tuple(row[k] for row, k in zip(cp, ks)))


def induced_winners(
    m: ProfileModel, F: VotingRule, cp: ConditionalProfile
) -> tuple[Candidate, ...]:
    """Winner per state, states in file order, with one shape check."""
    _check_shape(m, cp)
    return tuple(
        F.winner(m.election,
                 Profile(tuple(row[k] for row, k in zip(cp, m.block_ids_at(si)))))
        for si in range(len(m.states))
    )


def _check_shape(m: ProfileModel, cp: ConditionalProfile) -> None:
    """Raise ValueError unless cp has one row per voter, one ballot per block,
    and every ballot ranks every candidate exactly once."""
    if len(cp) != m.election.num_voters:
        raise ValueError(
            f"expected {m.election.num_voters} voter rows, got {len(cp)}")
    for i, row in zip(m.election.voters, cp):
        if len(row) != len(m.blocks(i)):
            raise ValueError(
                f"voter {i} has {len(m.blocks(i))} information sets, "
                f"got {len(row)} ballots")
        for ballot in row:
            if not ranks_every_candidate(ballot.order, m.election.candidates):
                raise ValueError(
                    f"voter {i}: ballot {ballot.as_text()} does not rank every "
                    f"candidate exactly once")


def worst_winner(
    m: ProfileModel, F: VotingRule, cp: ConditionalProfile, v: VirtualVoter
) -> Candidate:
    """The winner v fears most across her block, by her true preference.
    ValueError unless v's information set is one of her blocks."""
    if v.infoset not in m.blocks(v.voter):
        raise ValueError(f"{v.infoset} is not an information set of voter "
                         f"{v.voter}")
    truth = m.profile_at(v.infoset[0]).pref(v.voter)
    winners = induced_winners(m, F, cp)
    return truth.worst_of(winners[m.index(s)] for s in v.infoset)


def payoff(
    m: ProfileModel, F: VotingRule, cp: ConditionalProfile, v: VirtualVoter
) -> int:
    """Worst-case rank of the winner over v's block, by v's true preference
    (ValueError as in worst_winner)."""
    worst = worst_winner(m, F, cp, v)
    return m.profile_at(v.infoset[0]).pref(v.voter).rank_value(worst)


class _Player(NamedTuple):
    """A virtual voter as the game's tables see her.

    ``rank`` maps each candidate to its rank_value under her true
    preference. ``states`` holds the positions of her block's states, and
    ``rows`` the slots of every voter's ballot at each of them. Her payoff
    and her deviations read those slots and her own, nothing else.
    """

    voter: Voter
    block: InformationSet
    slot: int
    rank: dict[Candidate, int]
    states: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]


class _Game:
    """The tables of the game m induces under F, built once per call.

    Ballots sit in slots, one per virtual voter in virtual_voters order, so
    slot order is the flattened conditional profile; voter i's slots run
    from bounds[i-1] to bounds[i]. ``classes`` are F's ballot classes over
    e.orders() (see ballot_classes), ``place`` their positions by key.
    ``players`` holds one _Player per virtual voter in slot order.
    ``outcomes`` is the one outcome memo, keyed by the tuple of slot keys,
    and ``responses`` that of _payoffs' response tables.
    """

    def __init__(self, m: ProfileModel, F: VotingRule):
        e = m.election
        self.m, self.key = m, _key_of(F)
        self.classes = ballot_classes(F, e.orders())
        self.place = {k: j for j, (k, _) in enumerate(self.classes)}
        self.bounds = list(itertools.accumulate(
            (len(m.blocks(i)) for i in e.voters), initial=0))
        # per state in file order, the slot of each voter's ballot there
        self.at = [tuple(o + k for o, k in zip(self.bounds, m.block_ids_at(si)))
                   for si in range(len(m.states))]
        self.players: list[_Player] = []
        for i in e.voters:
            for block in m.blocks(i):
                truth = m.profile_at(block[0]).pref(i)
                states = tuple(map(m.index, block))
                self.players.append(_Player(
                    i, block, len(self.players),
                    {c: truth.rank_value(c) for c in truth.order},
                    states, tuple(self.at[si] for si in states)))
        self.outcomes: dict[tuple, tuple[str, str]] = {}
        self.responses: dict[int, tuple[list, dict]] = {}
        first, memo = dict(self.classes), {}

        def winner(keys: tuple) -> Candidate:
            """F's winner when the i-th voter casts a ballot with the i-th
            key: the first ballot of its class, one Profile per key tuple."""
            won = memo.get(keys)
            if won is None:
                won = memo[keys] = F.winner(
                    e, Profile(tuple(first[k] for k in keys)))
            return won

        self.winner = winner

    def keys_of(self, cp: ConditionalProfile) -> tuple:
        """The ballot key in each slot of cp; ValueError for a wrong shape."""
        _check_shape(self.m, cp)
        return self.slot_keys(cp)

    def slot_keys(self, cp: ConditionalProfile) -> tuple:
        """keys_of without the shape check, for a cp known to fit the model."""
        key = self.key
        return tuple(key(b) for row in cp for b in row)

    def outcome(self, keys: tuple) -> tuple[str, str]:
        """The winners string ('bbc': the winner at each state in file
        order, joined as _joined does) and the payoff string ('11.1': the
        worst-case rank per information set, voters separated by dots) of
        any conditional profile whose slots hold ballots with these keys,
        computed once per key tuple."""
        got = self.outcomes.get(keys)
        if got is None:
            winner = self.winner
            won = [winner(tuple(map(keys.__getitem__, slots)))
                   for slots in self.at]
            digits = [str(min(p.rank[won[si]] for si in p.states))
                      for p in self.players]
            cuts = zip(self.bounds, self.bounds[1:])
            got = self.outcomes[keys] = (
                _joined(won), ".".join("".join(digits[a:b]) for a, b in cuts))
        return got

    def equilibrium(
        self, cp: ConditionalProfile
    ) -> tuple[bool, tuple[VirtualVoter, Preference] | None]:
        """is_conditional_equilibrium of cp on this game's model and rule."""
        return self.scan(self.keys_of(cp))

    def scan(
        self, keys: tuple
    ) -> tuple[bool, tuple[VirtualVoter, Preference] | None]:
        """equilibrium of the conditional profile whose slots hold ballots
        with these keys (see keys_of and slot_keys)."""
        for p in self.players:
            alt = _first_improvement(self, p, keys)
            if alt is not None:
                return False, (VirtualVoter(p.voter, p.block), alt)
        return True, None


def _first_improvement(game: _Game, p: _Player, keys) -> Preference | None:
    """The first ballot in e.orders() that raises p's worst-case rank, or
    None: the first ballot of the first class that pays her more than her
    own ballot's class (see _payoffs)."""
    pays = _payoffs(game, p, keys)
    here = pays[game.place[keys[p.slot]]]
    for j, paid in enumerate(pays):
        if paid > here:
            return game.classes[j][1]
    return None


def _payoffs(game: _Game, p: _Player, keys) -> tuple[int, ...]:
    """p's worst-case rank under each class of game.classes, the others
    casting ballots with these keys: the game's one payoff read.

    ``keys`` holds the ballot key of each slot and is read only at the
    slots in p.rows other than her own. Her options are the classes (equal
    keys, equal winners). At each state of her block, her response table
    holds her rank of the winner under each class; it is built on first
    use and memoised for the call on the other voters' keys there. The
    element-wise minimum of her block's tables is her payoff per class.
    """
    got = game.responses.get(p.slot)
    if got is None:
        got = game.responses[p.slot] = (
            [_keys_at(row[:p.voter - 1] + row[p.voter:]) for row in p.rows], {})
    others, memo = got
    tables = []
    for keys_around in others:
        around = keys_around(keys)
        table = memo.get(around)
        if table is None:
            head, tail = around[:p.voter - 1], around[p.voter - 1:]
            table = memo[around] = tuple(p.rank[game.winner(head + (k,) + tail)]
                                         for k, _ in game.classes)
        tables.append(table)
    return tables[0] if len(tables) == 1 else tuple(map(min, *tables))


def _keys_at(slots: tuple[int, ...]):
    """keys -> the tuple of keys at slots; itemgetter alone returns a bare
    key for one slot and refuses none."""
    return itemgetter(*slots) if len(slots) > 1 else (
        lambda keys: tuple(keys[s] for s in slots))


def is_conditional_equilibrium(
    m: ProfileModel, F: VotingRule, cp: ConditionalProfile
) -> tuple[bool, tuple[VirtualVoter, Preference] | None]:
    """No virtual voter can raise her worst-case rank by a unilateral change.

    Returns (True, None) or (False, (virtual voter, better ballot)) with the
    first improving deviation in enumeration order: virtual voters in
    virtual_voters order, ballots in e.orders() order. One ballot is tried
    per class the rule tells apart (see ballot_classes); the witness is the
    same as if all m! ballots were tried. Raises ValueError when cp does not
    have one row per voter and one ballot per information set.
    """
    return _Game(m, F).equilibrium(cp)


def enumerate_conditional_equilibria(
    m: ProfileModel,
    F: VotingRule,
    by_top: bool = False,
) -> list[ConditionalProfile]:
    """All equilibria, in deterministic enumeration order.

    Order: ballots per block from ballot_space, blocks in model order, the
    later voter's strategy cycling fastest (see _search). Deviations try one
    ballot per class the rule tells apart (see is_conditional_equilibrium).
    Raises SizeLimit, before any ballot is built, when the full product of
    conditional profiles exceeds the cap.
    """
    n = sum(len(m.blocks(i)) for i in m.election.voters)
    check_size(ballot_count(m.election, by_top) ** n, "conditional profiles")
    space = ballot_space(m.election, by_top)
    game = _Game(m, F)
    voters = [slice(a, b) for a, b in zip(game.bounds, game.bounds[1:])]
    rows: dict[tuple[int, ...], tuple[Preference, ...]] = {}  # by voter positions
    out = []
    for pos in _search(game, space):
        cp = []
        for at in voters:
            row = rows.get(pos[at])
            if row is None:
                row = rows[pos[at]] = tuple(map(space.__getitem__, pos[at]))
            cp.append(row)
        out.append(tuple(cp))
    return out


def _search(game: _Game, space: list[Preference]) -> list[tuple[int, ...]]:
    """Each equilibrium of game over the ballots of space, as the position in
    space of the ballot in every slot, in itertools.product order.

    Depth-first over slots taken state by state (each state's slots in file
    order, each when first met), trying ballots in space order. A virtual
    voter's payoff reads only the ballots of the blocks that meet her own
    block (her scope), so she is checked once her scope is assigned (after
    n slots if her block is one state), and the branch is cut if she has
    an improving ballot. Her verdict is memoised on the ballot keys of her
    scope for the length of the search. The equilibria are sorted back.
    """
    n = game.bounds[-1]
    order = list(dict.fromkeys(s for slots in game.at for s in slots))
    depth = {s: d for d, s in enumerate(order)}
    due: list[list[tuple[_Player, itemgetter, dict]]] = [[] for _ in range(n)]
    for p in game.players:
        scope = sorted({p.slot}.union(*p.rows))
        due[max(map(depth.__getitem__, scope))].append((p, itemgetter(*scope), {}))
    space_keys = [game.key(b) for b in space]
    keys: list = [None] * n
    pos = [-1] * n  # per slot, the position in space of the ballot there
    last = len(space) - 1
    found = []
    d = 0  # slots order[:d] are assigned and every player due by then is stable
    while d >= 0:
        if d == n:
            found.append(tuple(pos))
            d -= 1
        elif pos[order[d]] == last:
            pos[order[d]] = -1
            d -= 1
        else:
            s = order[d]
            pos[s] += 1
            keys[s] = space_keys[pos[s]]
            for p, scope_of, memo in due[d]:
                scope_keys = scope_of(keys)
                stable = memo.get(scope_keys)
                if stable is None:
                    stable = memo[scope_keys] = (
                        _first_improvement(game, p, keys) is None
                    )
                if not stable:
                    break
            else:
                d += 1
    found.sort()
    return found


def _one_state(e: Election, truth: Profile) -> ProfileModel:
    """The full-knowledge model: one state, labelled with truth."""
    return make_model(e, ("s",), (truth,))


def is_equilibrium_profile(
    F: VotingRule, e: Election, votes: Profile, truth: Profile | None = None
) -> bool:
    """No voter can change her ballot and get an outcome she truly prefers.

    With truth omitted the votes serve as the true preferences as well (the
    sincere profile checked against itself); pass truth to score an arbitrary
    ballot profile against fixed real preferences. Deviations try one ballot
    per class the rule tells apart, which decides as all m! ballots would.
    Raises ValueError unless votes and truth hold one ballot per voter, each
    ranking e's candidates once.
    """
    if truth is not None:
        _check_profile(e, truth)
    m = _one_state(e, votes if truth is None else truth)
    return is_conditional_equilibrium(m, F, tuple((b,) for b in votes.prefs))[0]


def enumerate_equilibria(
    F: VotingRule, e: Election, truth: Profile, by_top: bool = False
) -> list[Profile]:
    """All ballot profiles that are equilibria against the given truth.

    Profiles are drawn from ballot_space(e, by_top), the later voter cycling
    fastest; deviations try one ballot per class the rule tells apart, with
    the verdicts of all m! ballots. The by-top space is sound only for rules
    that read nothing but the top choices. ValueError as for
    is_equilibrium_profile.
    """
    _check_profile(e, truth)
    m = _one_state(e, truth)
    cps = enumerate_conditional_equilibria(m, F, by_top)
    return [Profile(tuple(row[0] for row in cp)) for cp in cps]


def _joined(names) -> str:
    """Names concatenated ('abc'), or joined with '-' when some name is
    longer than one character ('a-bc', 'ab-c'), so different lists never
    read alike; candidate names never contain '-'."""
    return ("-" if max(map(len, names), default=0) > 1 else "").join(names)


def strategy_label(choices: tuple[Preference, ...], by_top: bool = True) -> str:
    """Row/column label: tops concatenated ('ac'), or full orders joined.

    Tops are joined as winners are (see _Game.outcome), so different
    strategies never share a label.
    """
    if by_top:
        return _joined([p.top for p in choices])
    return " ".join(p.as_text() for p in choices)


def outcome_strings(
    m: ProfileModel, F: VotingRule, cps: list[ConditionalProfile]
) -> list[tuple[str, str]]:
    """The winners and payoff strings (see _Game.outcome) of each
    conditional profile.

    Profiles whose ballots have equal keys under F (see ballot_classes) have
    equal strings, so they are computed once per tuple of ballot keys.
    Raises ValueError for a profile of the wrong shape, as induced_winners.
    """
    game = _Game(m, F)
    return [game.outcome(game.keys_of(cp)) for cp in cps]


@dataclass(frozen=True)
class PayoffMatrix:
    """Two-voter grid: voter 1's strategies as rows, voter 2's as columns.

    The ``*_at`` accessors look a cell up by its labels; walk the tuples to
    read the grid in order.
    """

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
) -> PayoffMatrix:
    """Full winners/payoff grids with equilibrium flags, two voters only.

    Strategies whose ballots have equal keys under F (see ballot_classes)
    have equal cells, and _Game.outcome computes once per key tuple: 81
    times instead of 1,296 on the full three-candidate plurality grid with
    two blocks per voter. A rule without a ballot key computes every cell.
    The cells of the equilibria that enumerate_conditional_equilibria lists
    are starred by their row and column positions. Raises ValueError unless
    the model has two voters.
    """
    e = m.election
    if e.num_voters != 2:
        raise ValueError("matrix display needs exactly two voters")
    n1, n2 = len(m.blocks(1)), len(m.blocks(2))
    check_size(ballot_count(e, by_top) ** (n1 + n2), "cells")
    space = ballot_space(e, by_top)
    rows = list(itertools.product(space, repeat=n1))
    cols = list(itertools.product(space, repeat=n2))
    game = _Game(m, F)
    row_keys = [tuple(map(game.key, r)) for r in rows]
    col_keys = [tuple(map(game.key, c)) for c in cols]
    cells = [[game.outcome(rk + ck) for ck in col_keys] for rk in row_keys]

    def place(positions) -> int:
        """Where these ballot positions come in itertools.product over space."""
        return reduce(lambda v, j: v * len(space) + j, positions, 0)

    stars = [[False] * len(cols) for _ in rows]
    for pos in _search(game, space):
        stars[place(pos[:n1])][place(pos[n1:])] = True
    return PayoffMatrix(
        row_labels=tuple(strategy_label(r, by_top) for r in rows),
        col_labels=tuple(strategy_label(c, by_top) for c in cols),
        winners=tuple(tuple(w for w, _ in row) for row in cells),
        payoffs=tuple(tuple(p for _, p in row) for row in cells),
        equilibria=tuple(map(tuple, stars)),
    )


def render_matrix(mat: PayoffMatrix) -> str:
    """Plain-text winners and payoff grids; equilibria marked on the payoff."""
    marked = tuple(
        tuple(
            p + ("*" if star else "")
            for p, star in zip(prow, srow)
        )
        for prow, srow in zip(mat.payoffs, mat.equilibria)
    )
    return "\n".join([_grid(mat.row_labels, mat.col_labels, mat.winners), "",
                      _grid(mat.row_labels, mat.col_labels, marked)])


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
