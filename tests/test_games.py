"""Conditional games: induced votes, maximin payoffs, equilibrium grids.

The four golden grids below were transcribed from worked matrices for the
fixture models and then frozen. A trailing '*' marks a cell that is a
conditional equilibrium. Rows belong to voter 1, columns to voter 2; every
strategy letter is the top of the ballot cast at one of the voter's
information sets, blocks in state-file order.
"""

import itertools
import random
import tracemalloc

import pytest

from epivote import (
    TRUE,
    Election,
    Plurality,
    SizeLimit,
    Preference,
    Profile,
    conditional_profile,
    enumerate_conditional_equilibria,
    enumerate_equilibria,
    induced_votes,
    induced_winners,
    is_conditional_equilibrium,
    is_equilibrium_profile,
    make_model,
    payoff,
    payoff_matrix,
    pref,
    profile,
    random_model,
    sincere_conditional_profile,
    update,
    update_conditional_profile,
    virtual_voters,
    VirtualVoter,
    worst_winner,
)
from epivote.games import strategy_label
from epivote.rules import ballot_space

E2 = Election(("a", "b", "c"), 2)
F = Plurality(pref("b>a>c"))

OPPOSED_GRID = """
a 2.0  1.1* 2.0
b 1.1  1.1* 1.1
c 2.0  1.1  0.2
"""

ALIGNED_GRID = """
a 0.0  1.1* 0.0
b 1.1* 1.1* 1.1
c 0.0  1.1  2.2*
"""

HIDDEN_FLIP_GRID = """
aa 20.0 11.1* 20.0
ab 21.0 11.1* 21.0
ac 20.0 11.1* 22.0
ba 10.0 11.1* 10.0
bb 11.1 11.1* 11.1
bc 10.0 11.1* 12.1
ca 20.0 11.1* 00.0
cb 21.0 11.1* 01.1
cc 20.0 11.1  02.2
"""

NESTED_DOUBT_GRID = """
aa 20.00 11.01 20.00 10.10 11.11* 10.10 20.00 11.01 20.00
ab 21.00 11.01 21.00 11.10 11.11* 11.10 21.00 11.01 21.00
ac 20.00 11.01 22.00 10.10 11.11* 12.10 20.00 11.01 22.00
ba 10.10 11.11* 10.10 10.10 11.11* 10.10 10.10 11.11* 10.10
bb 11.11 11.11* 11.11 11.11* 11.11* 11.11 11.11 11.11* 11.11
bc 10.10 11.11* 12.11 10.10 11.11* 12.11* 10.10 11.11* 12.11
ca 20.00 11.01 00.00 10.10 11.11 00.10 00.20 01.21 00.20
cb 21.00 11.01 01.01 11.10 11.11 01.11 01.20 01.21 01.21
cc 20.00 11.01 02.02 10.10 11.11 02.12 00.20 01.21 02.22
"""

MUTUAL_DOUBT_GRID = """
aa 20.00 20.01 20.00 10.10 11.11* 10.10 20.00 20.01 20.00
ab 21.01 21.01 21.01 11.11* 11.11* 11.11* 21.01 21.01 21.01
ac 20.00 20.01 20.02 10.10 11.11 11.12* 20.00 21.01 22.02
ba 10.00 10.01 10.00 10.10 11.11* 10.10 10.00 10.01 10.00
bb 11.11 11.11 11.11 11.11* 11.11* 11.11* 11.11 11.11 11.11
bc 10.00 10.01 10.02 10.10 11.11 11.12* 10.10 11.11 12.12
ca 20.00 20.01 20.00 10.10 11.11* 10.10 00.00 00.01 00.00
cb 21.01 21.01 21.01 11.11* 11.11* 11.11* 01.11 01.11 01.11
cc 20.00 20.01 20.02 10.10 11.11 11.12 00.20 01.21 02.22
"""


def parse_grid(text):
    payoffs, stars = {}, set()
    rows = []
    for line in text.strip().splitlines():
        parts = line.split()
        row, cells = parts[0], parts[1:]
        rows.append(row)
        for ci, cell in enumerate(cells):
            if cell.endswith("*"):
                stars.add((row, ci))
                cell = cell[:-1]
            payoffs[(row, ci)] = cell
    return rows, payoffs, stars


def assert_matches_grid(m, grid_text):
    rows, want_pay, want_stars = parse_grid(grid_text)
    mat = payoff_matrix(m, F, by_top=True)
    assert list(mat.row_labels) == rows
    got_stars = set()
    for ri, r in enumerate(mat.row_labels):
        for ci in range(len(mat.col_labels)):
            assert mat.payoffs[ri][ci] == want_pay[(r, ci)], (
                r, mat.col_labels[ci])
            if mat.equilibria[ri][ci]:
                got_stars.add((r, ci))
    assert got_stars == want_stars


def test_single_state_grids(known_opposed, known_aligned):
    assert_matches_grid(known_opposed, OPPOSED_GRID)
    assert_matches_grid(known_aligned, ALIGNED_GRID)


def test_single_state_winner_rows(known_opposed):
    mat = payoff_matrix(known_opposed, F, by_top=True)
    assert mat.winners == (("a", "b", "a"), ("b", "b", "b"), ("a", "b", "c"))


def test_two_state_grid(hidden_flip):
    assert_matches_grid(hidden_flip, HIDDEN_FLIP_GRID)
    mat = payoff_matrix(hidden_flip, F, by_top=True)
    eq_cells = {
        (mat.row_labels[ri], mat.col_labels[ci])
        for ri in range(9) for ci in range(3) if mat.equilibria[ri][ci]
    }
    want = {(row, "b") for row in mat.row_labels if row != "cc"}
    assert eq_cells == want


def test_three_state_grids(nested_doubt, mutual_doubt):
    assert_matches_grid(nested_doubt, NESTED_DOUBT_GRID)
    assert_matches_grid(mutual_doubt, MUTUAL_DOUBT_GRID)


def test_second_voter_votes_c_only_where_it_is_safe(mutual_doubt):
    """Voter 2 may vote c at the state he is sure about, never at the other.

    In this model voter 2's first block mixes the two profiles and his
    second block is the singleton where everyone prefers c. Equilibria may
    let him vote c on the singleton but never on the mixed block.
    """
    eqs = enumerate_conditional_equilibria(mutual_doubt, F, by_top=True)
    assert eqs
    second_letters = {cp[1][1].top for cp in eqs}
    first_letters = {cp[1][0].top for cp in eqs}
    assert "c" in second_letters
    assert "c" not in first_letters


def test_induced_votes_and_winners(mutual_doubt):
    cp = conditional_profile(mutual_doubt, {
        1: {"t": pref("a>b>c"), "u": pref("c>b>a")},
        2: {"t": pref("b>c>a"), "v": pref("c>b>a")},
    })
    assert induced_votes(mutual_doubt, cp, "u").tops() == ("c", "b")
    assert induced_votes(mutual_doubt, cp, "v").tops() == ("c", "c")
    assert induced_winners(mutual_doubt, F, cp) == ("b", "b", "c")


def test_payoff_is_worst_over_block(mutual_doubt):
    cp = conditional_profile(mutual_doubt, {
        1: {"t": pref("a>b>c"), "u": pref("c>b>a")},
        2: {"t": pref("b>c>a"), "v": pref("c>b>a")},
    })
    v1 = VirtualVoter(1, ("t",))
    v2 = VirtualVoter(2, ("t", "u"))
    # winners are (b, b, c); voter 1 truly prefers a>b>c at t
    assert payoff(mutual_doubt, F, cp, v1) == 1
    # voter 2's truth is c>b>a on {t,u}; worst of {b,b} is b
    assert payoff(mutual_doubt, F, cp, v2) == 1
    assert worst_winner(mutual_doubt, F, cp, v2) == "b"


def test_sincere_conditional_profile_matches_valuation(nested_doubt):
    cp = sincere_conditional_profile(nested_doubt)
    for s in nested_doubt.states:
        assert induced_votes(nested_doubt, cp, s) == nested_doubt.profile_at(s)


def test_virtual_voters_enumeration(nested_doubt):
    vvs = virtual_voters(nested_doubt)
    assert vvs == [
        VirtualVoter(1, ("s", "t")),
        VirtualVoter(1, ("u",)),
        VirtualVoter(2, ("s",)),
        VirtualVoter(2, ("t", "u")),
    ]


def test_deviations_are_local(mutual_doubt):
    """Changing one block's ballot only moves winners inside that block."""
    base = sincere_conditional_profile(mutual_doubt)
    before = induced_winners(mutual_doubt, F, base)
    cp = conditional_profile(mutual_doubt, {
        1: {"t": pref("a>b>c"), "u": pref("c>b>a")},
        2: {"t": pref("b>c>a"), "v": pref("c>b>a")},
    })
    after = induced_winners(mutual_doubt, F, cp)
    changed = {s for s, w0, w1 in zip(mutual_doubt.states, before, after)
               if w0 != w1}
    assert changed <= {"t", "u"}


def test_singleton_partitions_reduce_to_profile_equilibria():
    """With no uncertainty the conditional game is the classical game."""
    from epivote import enumerate_equilibria

    m = make_model(
        E2, ["w"], [profile("a>b>c", "c>b>a")], tiebreak=pref("b>a>c")
    )
    cond = enumerate_conditional_equilibria(m, F, by_top=True)
    flat = enumerate_equilibria(F, E2, m.profile_at("w"), by_top=True)
    cond_tops = {(cp[0][0].top, cp[1][0].top) for cp in cond}
    flat_tops = {tuple(q.tops()) for q in flat}
    assert cond_tops == flat_tops


def test_classical_equilibria_match_brute_force():
    """The one-state game against a product of ballots and a full scan.

    Written without the library's ballot spaces or search: every ballot
    profile of the space, every voter, every one of the m! ballots.
    """
    abc = ("a", "b", "c")

    def space(e, by_top):
        if by_top:
            return [Preference((c,) + tuple(d for d in e.candidates if d != c))
                    for c in e.candidates]
        return [Preference(o) for o in itertools.permutations(e.candidates)]

    def stable(rule, e, votes, truth):
        won = rule.winner(e, votes)
        return not any(
            truth.pref(i).prefers(
                rule.winner(e, votes.replace(i, Preference(o))), won)
            for i in e.voters
            for o in itertools.permutations(e.candidates)
        )

    cases = [(Election(abc, 2), (True, False)), (Election(abc, 3), (True,))]
    for e, spaces in cases:
        for tiebreak in (pref("a>b>c"), pref("c>a>b")):
            rule = Plurality(tiebreak)
            for truth in e.all_profiles():
                for by_top in spaces:
                    expected = [
                        Profile(combo)
                        for combo in itertools.product(
                            space(e, by_top), repeat=e.num_voters)
                        if stable(rule, e, Profile(combo), truth)
                    ]
                    assert enumerate_equilibria(
                        rule, e, truth, by_top=by_top) == expected
    e = Election(abc, 2)
    for tiebreak in (pref("a>b>c"), pref("c>a>b")):
        rule = Plurality(tiebreak)
        for votes in e.all_profiles():
            assert is_equilibrium_profile(rule, e, votes) == stable(
                rule, e, votes, votes)
            for truth in e.all_profiles():
                assert is_equilibrium_profile(rule, e, votes, truth) == stable(
                    rule, e, votes, truth)


def test_brute_force_oracle_agreement():
    """is_conditional_equilibrium vs a from-scratch maximin check."""

    def oracle(m, rule, cp):
        for vi, i in enumerate(m.election.voters):
            blocks = m.blocks(i)
            for k, block in enumerate(blocks):
                truth = m.profile_at(block[0]).pref(i)
                base_worst = min(
                    truth.rank_value(w)
                    for s, w in zip(m.states, induced_winners(m, rule, cp))
                    if s in block
                )
                for alt in m.election.orders():
                    row = list(cp[vi])
                    row[k] = alt
                    dev = tuple(
                        tuple(row) if j == vi else cp[j]
                        for j in range(len(cp))
                    )
                    dev_worst = min(
                        truth.rank_value(w)
                        for s, w in zip(m.states, induced_winners(m, rule, dev))
                        if s in block
                    )
                    if dev_worst > base_worst:
                        return False
        return True

    rng = random.Random(23)
    for _ in range(40):
        m = random_model(rng, tiebreak=pref("b>a>c"))
        rule = Plurality(m.tiebreak)
        space = [
            list(itertools.product(m.election.orders(),
                                   repeat=len(m.blocks(i))))
            for i in m.election.voters
        ]
        # cap the cartesian product per model to keep the loop quick
        combos = itertools.islice(itertools.product(*space), 200)
        for cp in combos:
            mine, _ = is_conditional_equilibrium(m, rule, cp)
            assert mine == oracle(m, rule, cp)


def _equilibria_by_brute_force(m, rule, by_top):
    space = ballot_space(m.election, by_top)
    per_voter = [itertools.product(space, repeat=len(m.blocks(i)))
                 for i in m.election.voters]
    return [cp for cp in itertools.product(*per_voter)
            if is_conditional_equilibrium(m, rule, cp)[0]]


def test_search_matches_brute_force(all_fixture_models):
    """The pruned search lists what the full product lists, in its order."""
    rng = random.Random(4)
    E3 = Election(("a", "b", "c"), 3)
    models = list(all_fixture_models.values())
    models += [random_model(rng) for _ in range(60)]
    models += [random_model(rng, E3, max_states=rng.choice((3, 4)))
               for _ in range(30)]
    compared = 0
    for m in models:
        rule = Plurality(m.tiebreak)
        slots = sum(len(m.blocks(i)) for i in m.election.voters)
        for by_top in (True, False):
            if len(ballot_space(m.election, by_top)) ** slots > 3 ** 8:
                continue
            found = enumerate_conditional_equilibria(m, rule, by_top=by_top)
            assert found == _equilibria_by_brute_force(m, rule, by_top)
            compared += 1
    assert compared >= 100


def test_matrix_requires_two_voters():
    """A one-voter model is a wrong input, not one over a size cap."""
    m = make_model(
        Election(("a", "b"), 1), ["x"], [profile("a>b")],
        tiebreak=pref("a>b"),
    )
    with pytest.raises(ValueError) as err:
        payoff_matrix(m, Plurality(pref("a>b")))
    assert not isinstance(err.value, SizeLimit)
    assert str(err.value) == "matrix display needs exactly two voters"


def test_over_cap_grid_refuses_before_building():
    """24 ballots on 4 + 4 singleton blocks: 24^8 cells, refused at once."""
    e = Election(("a", "b", "c", "d"), 2)
    orders = e.orders()
    states = [f"s{k}" for k in range(4)]
    m = make_model(e, states, [Profile((orders[k], orders[0])) for k in range(4)],
                   tiebreak=orders[0])
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimit) as err:
            payoff_matrix(m, Plurality(orders[0]), by_top=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "110075314176 cells exceed the cap of 1000000"
    assert peak < 10 ** 6


@pytest.mark.parametrize("build, what", [
    (enumerate_conditional_equilibria, "conditional profiles"),
    (payoff_matrix, "cells"),
])
def test_over_cap_full_ballots_refused_before_building(build, what):
    """9! ballots per voter on one state: 9!^2 strategy pairs, refused
    before the 9! ballots are built."""
    e = Election(tuple("abcdefghi"), 2)
    ballot = Preference(e.candidates)
    m = make_model(e, ["s"], [Profile((ballot, ballot))], tiebreak=ballot)
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimit) as err:
            build(m, Plurality(ballot), by_top=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"131681894400 {what} exceed the cap of 1000000"
    assert peak < 10 ** 6


_ABC, _ACB, _BAC = pref("a>b>c"), pref("a>c>b"), pref("b>a>c")


@pytest.mark.parametrize("cp, message", [
    (((_ABC,), (_ACB, _BAC)), "voter 1 has 2 information sets, got 1 ballots"),
    (((_ABC, _ACB, _BAC), ()), "voter 1 has 2 information sets, got 3 ballots"),
    (((_ABC, _ACB),), "expected 2 voter rows, got 1"),
    (((Preference(("a", "x")), _ACB), (_BAC,)),
     "voter 1: ballot a>x does not rank every candidate exactly once"),
    (((_ABC, _ACB), (pref("z>y>x"),)),
     "voter 2: ballot z>y>x does not rank every candidate exactly once"),
])
def test_conditional_profile_shape_is_checked(hidden_flip, cp, message):
    # voter 1 has two blocks and voter 2 one; flattening these profiles
    # shifted the slots silently, so the check returned (True, None), and
    # carrying them across an update raised a bare IndexError or kept them
    rule = Plurality(hidden_flip.tiebreak)
    for call in (lambda: is_conditional_equilibrium(hidden_flip, rule, cp),
                 lambda: induced_votes(hidden_flip, cp, "t"),
                 lambda: induced_winners(hidden_flip, rule, cp),
                 lambda: update_conditional_profile(
                     hidden_flip, cp, update(hidden_flip, TRUE, rule))):
        with pytest.raises(ValueError, match=message):
            call()


def test_conditional_profile_names_the_missing_choice(hidden_flip):
    # both used to escape as a bare KeyError
    with pytest.raises(ValueError, match=r"^no choices for voter 2$"):
        conditional_profile(hidden_flip, {1: {"t": _ABC, "u": _ABC}})
    with pytest.raises(ValueError,
                       match=r"^no choice for voter 1 block \('u',\)$"):
        conditional_profile(hidden_flip, {1: {"t": _ABC}, 2: {"t": _ABC}})


def test_equilibrium_truth_profiles_are_checked():
    # a foreign truth used to raise a bare KeyError, a short one to give a
    # verdict
    rule, votes = Plurality(_BAC), profile("a>b>c", "c>b>a")
    for truth, message in ((profile("a>b>c"), "^expected 2 ballots, one per voter, got 1$"),
                           (profile("a>b>c", "z>y>x"),
                            "^voter 2's ballot z>y>x does not rank every candidate")):
        for call in (lambda: is_equilibrium_profile(rule, E2, votes, truth),
                     lambda: enumerate_equilibria(rule, E2, truth, by_top=True)):
            with pytest.raises(ValueError, match=message):
                call()


def test_by_top_labels_join_multi_character_tops():
    a, bc, ab, c = (Preference((x,) + tuple(y for y in ("a", "bc", "ab", "c")
                                            if y != x))
                    for x in ("a", "bc", "ab", "c"))
    assert strategy_label((a, c)) == "ac"
    assert strategy_label((a, bc)) == "a-bc"
    assert strategy_label((ab, c)) == "ab-c"
    assert strategy_label((bc,)) == "bc"
    assert strategy_label((a, bc), by_top=False) == "a>bc>ab>c bc>a>ab>c"
