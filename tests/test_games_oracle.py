"""The equilibrium engine against a full scan of every ballot.

The engine tries one ballot per class the rule can tell apart and reads
winners from a memo on ballot keys. The oracle below is the scan it
replaced: for each virtual voter, every one of the m! ballots in
``e.orders()`` order, a new Profile per deviation and a call of F.winner.
``winners_string`` and ``payoff_string`` are the per-profile references for
the grid's cells and ``outcome_strings``. Models come from the ``pointed_models`` strategy in conftest.

``old_first_improvement`` and ``old_search`` are the engine's search before
its response tables and its state-by-state slot order: a class scan at
every check and slots in slot order. The new search must list the same
positions in the same order, and give the same witnesses and stars, on
seeded three-voter, three-state games of the benchmark's by-top shapes, on
the fixtures with full ballots, and under the keyless Veto.
"""

import itertools
import random
from contextlib import contextmanager
from dataclasses import dataclass
from functools import reduce
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import pointed_models
from epivote import (
    Election,
    Plurality,
    Preference,
    Profile,
    enumerate_conditional_equilibria,
    enumerate_equilibria,
    induced_votes,
    is_conditional_equilibrium,
    is_equilibrium_profile,
    make_model,
    payoff_matrix,
    pref,
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


def old_first_improvement(game, p, keys):
    """The first ballot in e.orders() that raises p's worst-case rank, or None.

    The engine's per-node class scan before its response tables: one ballot
    per class of game.classes, skipping the class of her own ballot, each
    judged at the states of her block until one state does not improve.
    """
    rank, vi, winner = p.rank, p.voter - 1, game.winner
    base = [tuple(map(keys.__getitem__, row)) for row in p.rows]
    here = min(rank[winner(ks)] for ks in base)
    if here == len(rank) - 1:
        return None  # already gets her top everywhere, nothing beats it
    own = keys[p.slot]
    for k, alt in game.classes:
        if k == own:
            continue
        for ks in base:
            if rank[winner(ks[:vi] + (k,) + ks[vi + 1:])] <= here:
                break
        else:
            return alt
    return None


def old_search(game, space):
    """Each equilibrium of game over the ballots of space, as the position in
    space of the ballot in every slot, in itertools.product order.

    The engine's search before it took slots state by state: depth first
    over slots in slot order, each player checked with old_first_improvement
    once the last slot of her scope is assigned, her verdict memoised on
    the ballot keys of her scope.
    """
    n = game.bounds[-1]
    due = [[] for _ in range(n)]
    for p in game.players:
        scope = sorted({p.slot}.union(*p.rows))
        due[scope[-1]].append((p, itemgetter(*scope), {}))
    space_keys = [game.key(b) for b in space]
    keys = [None] * n
    pos = [-1] * n
    last = len(space) - 1
    d = 0
    while d >= 0:
        if d == n:
            yield tuple(pos)
            d -= 1
        elif pos[d] == last:
            pos[d] = -1
            d -= 1
        else:
            pos[d] += 1
            keys[d] = space_keys[pos[d]]
            for p, scope_of, memo in due[d]:
                scope_keys = scope_of(keys)
                stable = memo.get(scope_keys)
                if stable is None:
                    stable = memo[scope_keys] = (
                        old_first_improvement(game, p, keys) is None
                    )
                if not stable:
                    break
            else:
                d += 1


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


# ------------------------------------------------ the search before its tables

def old_verdict(m, F, cp):
    """is_conditional_equilibrium through old_first_improvement."""
    game = games._Game(m, F)
    keys = game.keys_of(cp)
    for p in game.players:
        alt = old_first_improvement(game, p, keys)
        if alt is not None:
            return False, (VirtualVoter(p.voter, p.block), alt)
    return True, None


def three_by_three(rng, k):
    """A seeded 3-voter, 3-state model with k blocks in all (by-top product
    3^k), as the benchmark draws them: each voter cuts the shuffled states
    into 1-3 blocks and casts one drawn order per block."""
    e = Election(("a", "b", "c"), 3)
    states = ("s", "t", "u")
    counts = rng.choice([c for c in itertools.product((1, 2, 3), repeat=3)
                         if sum(c) == k])
    partitions, prefs = {}, {}
    for i, count in zip(e.voters, counts):
        order = rng.sample(states, 3)
        cuts = [0] + sorted(rng.sample((1, 2), count - 1)) + [3]
        partitions[i] = [order[a:b] for a, b in zip(cuts, cuts[1:])]
        for block in partitions[i]:
            ballot = rng.choice(e.orders())
            prefs.update({(i, s): ballot for s in block})
    profiles = [Profile(tuple(prefs[i, s] for i in e.voters)) for s in states]
    return make_model(e, states, profiles, partitions,
                      tiebreak=rng.choice(e.orders()), point="s")


def check_search_against_old(m, F, by_top, rng):
    """Positions, listings, witnesses and stars of the new search against
    the old one, on one model, rule and ballot space."""
    space = ballot_space(m.election, by_top)
    old = list(old_search(games._Game(m, F), space))
    assert games._search(games._Game(m, F), space) == old
    bounds = games._Game(m, F).bounds
    assert enumerate_conditional_equilibria(m, F, by_top) == [
        tuple(tuple(space[j] for j in pos[a:b])
              for a, b in zip(bounds, bounds[1:])) for pos in old]
    ballots = m.election.orders()
    for _ in range(8):
        cp = tuple(tuple(rng.choice(ballots) for _ in m.blocks(i))
                   for i in m.election.voters)
        assert is_conditional_equilibrium(m, F, cp) == old_verdict(m, F, cp)
    if m.election.num_voters == 2:
        n1 = bounds[1]

        def place(positions):
            return reduce(lambda v, j: v * len(space) + j, positions, 0)

        rows = len(space) ** n1
        cols = len(space) ** (bounds[2] - n1)
        stars = [[False] * cols for _ in range(rows)]
        for pos in old:
            stars[place(pos[:n1])][place(pos[n1:])] = True
        assert payoff_matrix(m, F, by_top).equilibria == tuple(map(tuple, stars))


@pytest.mark.parametrize("k", range(4, 9))
def test_search_matches_the_old_search_on_three_voter_games(k):
    rng = random.Random(k)
    for _ in range(8):
        m = three_by_three(rng, k)
        validate_model(m)
        assert sum(len(m.blocks(i)) for i in m.election.voters) == k
        check_search_against_old(m, Plurality(m.tiebreak), True, rng)


@pytest.mark.parametrize("k", range(4, 7))
def test_keyless_search_matches_the_old_search_on_three_voter_games(k):
    """Under Veto every ballot is its own class, so each table has a column
    per ballot of e.orders()."""
    rng = random.Random(100 + k)
    for _ in range(4):
        m = three_by_three(rng, k)
        check_search_against_old(m, Veto(m.tiebreak), True, rng)


def test_full_ballot_search_matches_the_old_search_on_fixtures(
        all_fixture_models):
    rng = random.Random(0)
    for m in all_fixture_models.values():
        for F in (Plurality(m.tiebreak), Veto(m.tiebreak)):
            for by_top in (True, False):
                check_search_against_old(m, F, by_top, rng)


# ---------------------------------------------------------- one-voter games

ONE_VOTER = [Election(("a", "b", "c"), 1), Election(("a", "b", "c", "d"), 1)]


@pytest.mark.parametrize("e", ONE_VOTER, ids=["3", "4"])
def test_one_voter_games_match_brute_force(e):
    """A lone voter is in equilibrium exactly when no ballot elects a
    candidate she ranks higher; with several states, the full scan decides."""
    for F in (Plurality(e.orders()[-1]), Veto(e.orders()[-1])):
        for truth in e.orders():
            def better(alt, ballot):
                return truth.rank_value(F.winner(e, Profile((alt,)))) > \
                    truth.rank_value(F.winner(e, Profile((ballot,))))

            stable = [b for b in e.orders()
                      if not any(better(alt, b) for alt in e.orders())]
            for b in e.orders():
                assert is_equilibrium_profile(
                    F, e, Profile((b,)), Profile((truth,))) == (b in stable)
            assert is_equilibrium_profile(F, e, Profile((truth,))) == (
                truth in stable)
            for by_top in (True, False):
                space = ballot_space(e, by_top)
                assert enumerate_equilibria(F, e, Profile((truth,)), by_top) == [
                    Profile((b,)) for b in space if b in stable]
        hers = [pref("a>b>c"), pref("c>b>a")] if len(e.candidates) == 3 else [
            pref("a>b>c>d"), pref("d>c>b>a")]
        m = make_model(e, ("s", "t", "u"),
                       [Profile((hers[0],)), Profile((hers[0],)),
                        Profile((hers[1],))],
                       {1: [["s", "t"], ["u"]]}, tiebreak=e.orders()[-1])
        for by_top in (True, False):
            space = ballot_space(e, by_top)
            assert enumerate_conditional_equilibria(m, F, by_top) == \
                oracle_equilibria(m, F, space)
