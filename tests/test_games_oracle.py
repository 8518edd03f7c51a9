"""The equilibrium engine against a full scan of every ballot.

The engine tries one ballot per class the rule can tell apart and reads
winners from a memo on ballot keys. The oracle below is the scan it
replaced: for each virtual voter, every one of the m! ballots in
``e.orders()`` order, a new Profile per deviation and a call of F.winner.
``winners_string`` and ``payoff_string`` are the per-profile references for
the grid's cells and ``outcome_strings``. Models come from the ``pointed_models`` strategy in conftest.
"""

import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from unittest import mock

from hypothesis import given, settings, strategies as st

from conftest import pointed_models
from epivote import (
    Plurality,
    Preference,
    enumerate_conditional_equilibria,
    induced_votes,
    is_conditional_equilibrium,
    payoff_matrix,
    validate_model,
    virtual_voters,
)
from epivote import games
from epivote.games import (
    VirtualVoter,
    _joined,
    induced_winners,
    outcome_strings,
    payoff,
    strategy_label,
)
from epivote.rules import ballot_classes, ballot_space

# Full products of conditional profiles beyond this are not enumerated.
PRODUCT_CAP = 3 ** 8


@dataclass(frozen=True)
class Veto:
    """Fewest last places wins, ties by tiebreak; declares no ballot key."""

    tiebreak: Preference

    name = "veto"

    def winner(self, e, votes):
        vetoes = {c: 0 for c in e.candidates}
        for ballot in votes.prefs:
            vetoes[ballot.order[-1]] += 1
        fewest = min(vetoes.values())
        return min((c for c in e.candidates if vetoes[c] == fewest),
                   key=self.tiebreak.order.index)


def first_improvement(m, F, cp, vv):
    """The first of all m! ballots that raises vv's worst-case rank."""
    e, i = m.election, vv.voter
    truth = m.profile_at(vv.infoset[0]).pref(i)
    base = [induced_votes(m, cp, s) for s in vv.infoset]
    here = min(truth.rank_value(F.winner(e, votes)) for votes in base)
    own = cp[i - 1][m.blocks(i).index(vv.infoset)]
    for alt in e.orders():
        if alt == own:
            continue
        worst = min(truth.rank_value(F.winner(e, votes.replace(i, alt)))
                    for votes in base)
        if worst > here:
            return alt
    return None


def oracle_verdict(m, F, cp):
    for vv in virtual_voters(m):
        alt = first_improvement(m, F, cp, vv)
        if alt is not None:
            return False, (vv, alt)
    return True, None


def strategies(m, space):
    """Per voter, every assignment of a ballot of space to her blocks."""
    return [list(itertools.product(space, repeat=len(m.blocks(i))))
            for i in m.election.voters]


def oracle_equilibria(m, F, space):
    return [cp for cp in itertools.product(*strategies(m, space))
            if oracle_verdict(m, F, cp)[0]]


def product_size(m, space):
    slots = sum(len(m.blocks(i)) for i in m.election.voters)
    return len(space) ** slots


def conditional_profiles(m):
    """Draws conditional profiles of m with ballots from all m! orders."""
    ballot = st.sampled_from(m.election.orders())
    return st.tuples(*(
        st.tuples(*(ballot for _ in m.blocks(i))) for i in m.election.voters))


def winners_string(m, F, cp):
    """Winners at each state in file order, concatenated ('bbc'), or joined
    with '-' when some candidate name is longer than one character."""
    return _joined(induced_winners(m, F, cp))


def payoff_string(m, F, cp):
    """Worst-case ranks, one digit per block, voters separated by dots.

    A two-voter model where voter 1 has two blocks and voter 2 has one reads
    like '11.1': voter 1's blocks in model order, then voter 2's.
    """
    return ".".join(
        "".join(str(payoff(m, F, cp, VirtualVoter(i, block)))
                for block in m.blocks(i))
        for i in m.election.voters
    )


def check_against_oracle(data, m, F, by_tops):
    validate_model(m)
    for cp in data.draw(st.lists(conditional_profiles(m), min_size=1,
                                 max_size=6)):
        assert is_conditional_equilibrium(m, F, cp) == oracle_verdict(m, F, cp)
    for by_top in by_tops:
        space = ballot_space(m.election, by_top)
        if product_size(m, space) > PRODUCT_CAP:
            continue
        expected = oracle_equilibria(m, F, space)
        assert enumerate_conditional_equilibria(m, F, by_top) == expected
        if m.election.num_voters == 2:
            rows, cols = strategies(m, space)
            stars = set(expected)
            mat = payoff_matrix(m, F, by_top)
            assert mat.row_labels == tuple(
                strategy_label(r, by_top) for r in rows)
            assert mat.col_labels == tuple(
                strategy_label(c, by_top) for c in cols)
            assert mat.winners == tuple(
                tuple(winners_string(m, F, (r, c)) for c in cols)
                for r in rows)
            assert mat.payoffs == tuple(
                tuple(payoff_string(m, F, (r, c)) for c in cols)
                for r in rows)
            assert mat.equilibria == tuple(
                tuple((r, c) in stars for c in cols) for r in rows)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(m=pointed_models(), data=st.data())
def test_plurality_engine_matches_full_scan(m, data):
    check_against_oracle(data, m, Plurality(m.tiebreak), (True, False))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(m=pointed_models(), data=st.data())
def test_keyless_rule_engine_matches_full_scan(m, data):
    check_against_oracle(data, m, Veto(m.tiebreak), (False,))


def test_keyless_rule_has_one_class_per_ballot(hidden_flip):
    orders = hidden_flip.election.orders()
    assert ballot_classes(Veto(hidden_flip.tiebreak), orders) == [
        (b, b) for b in orders]


class Stores(dict):
    """An outcome memo that counts its stores: one per computation."""

    stores = 0

    def __setitem__(self, key, value):
        self.stores += 1
        super().__setitem__(key, value)


@contextmanager
def built_games():
    """The game tables built inside the block, each with a counting memo."""
    built = []
    init = games._Game.__init__

    def recorded(self, *args):
        init(self, *args)
        self.outcomes = Stores()
        built.append(self)

    with mock.patch.object(games._Game, "__init__", recorded):
        yield built


@settings(derandomize=True, deadline=None, max_examples=30)
@given(m=pointed_models(), data=st.data())
def test_outcome_strings_match_the_per_profile_strings(m, data):
    drawn = data.draw(st.lists(conditional_profiles(m), min_size=1, max_size=8))
    cps = drawn + drawn[:2]  # repeats are read back from the memo
    for F in (Plurality(m.tiebreak), Veto(m.tiebreak)):
        with built_games() as built:
            got = outcome_strings(m, F, cps)
        assert got == [
            (winners_string(m, F, cp), payoff_string(m, F, cp)) for cp in cps]
        (game,) = built
        distinct = {game.keys_of(cp) for cp in cps}
        assert game.outcomes.stores == len(distinct) <= len(drawn)


def test_grid_builds_one_game(mutual_doubt):
    """The grid's cells and its equilibrium search read one game table."""
    with built_games() as built:
        payoff_matrix(mutual_doubt, Plurality(mutual_doubt.tiebreak), False)
    assert len(built) == 1


def test_full_grid_computes_once_per_key_pair(mutual_doubt):
    """Plurality keys a ballot by its top: 3^2 row keys x 3^2 column keys."""
    with built_games() as built:
        mat = payoff_matrix(mutual_doubt, Plurality(mutual_doubt.tiebreak),
                            False)
    assert (len(mat.row_labels), len(mat.col_labels)) == (36, 36)
    assert built[0].outcomes.stores == 81


def test_keyless_grid_computes_every_cell(mutual_doubt):
    with built_games() as built:
        payoff_matrix(mutual_doubt, Veto(mutual_doubt.tiebreak), False)
    assert built[0].outcomes.stores == 36 * 36
