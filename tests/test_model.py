"""Core model layer: elections, preferences, profiles, S5 structure."""

import itertools
import random
import tracemalloc

import pytest

from conftest import fixture_path
from epivote import model
from epivote import (
    DanglingState,
    Election,
    EmptySet,
    KnowledgeProfile,
    OwnPreferenceViolation,
    PartitionError,
    Plurality,
    Preference,
    SizeLimit,
    UnknownState,
    UnknownVoter,
    classify,
    dominant_manipulation_of_infoset,
    dominant_preference,
    enumerate_conditional_equilibria,
    hypercube,
    induced_votes,
    induced_winners,
    is_conditional_equilibrium,
    load_model,
    make_model,
    pessimistic_manipulation,
    pref,
    profile,
    random_conditional_profile,
    random_model,
    restrict,
    validate_model,
)

ABC = Election(("a", "b", "c"), 2)


def test_preference_rank_value():
    p = pref("a>b>c")
    assert p.top == "a"
    assert p.rank_value("a") == 2
    assert p.rank_value("b") == 1
    assert p.rank_value("c") == 0
    assert p.prefers("a", "c")
    assert not p.prefers("c", "a")
    assert not p.prefers("a", "a")


def test_preference_worst_of():
    p = pref("b>a>c")
    assert p.worst_of(["a", "b", "c"]) == "c"
    assert p.worst_of(["b"]) == "b"
    assert pref("c>b>a").worst_of(["a", "c"]) == "a"
    with pytest.raises(EmptySet):
        p.worst_of([])


def test_profile_replace_is_pure():
    p = profile("a>b>c", "c>b>a")
    q = p.replace(1, pref("b>a>c"))
    assert q.pref(1) == pref("b>a>c")
    assert q.pref(2) == pref("c>b>a")
    assert p.pref(1) == pref("a>b>c")
    assert p.tops() == ("a", "c")


def test_orders_follow_candidate_file_order():
    orders = ABC.orders()
    assert len(orders) == 6
    assert orders[0] == pref("a>b>c")
    # first by first candidate, then second, mirroring itertools.permutations
    assert orders[-1] == pref("c>b>a")
    # built once per election; equality and hashing still see only the fields
    assert ABC.orders() is ABC.orders()
    assert orders == tuple(
        Preference(p) for p in itertools.permutations(ABC.candidates))
    assert Election(("a", "b", "c"), 2) == ABC
    assert hash(Election(("a", "b", "c"), 2)) == hash(ABC)


@pytest.mark.parametrize("names", [
    ("a b", "c"), ("a", "", "b"), ("x>y", "z"), ("a;b", "c"), ("1a", "b"),
    ("a-b", "c"), ("{a}", "b"),
])
def test_candidate_names_are_formula_identifiers(names):
    with pytest.raises(ValueError, match="not an identifier"):
        Election(names, 1)


def test_identifier_candidate_names_are_accepted():
    assert Election(("_x", "B2", "long_name"), 1).candidates[2] == "long_name"


def test_all_profiles_count_and_cap(monkeypatch):
    assert len(ABC.all_profiles()) == 36
    monkeypatch.setattr("epivote.model.SIZE_CAP", 10)
    with pytest.raises(SizeLimit):
        ABC.all_profiles()
    with pytest.raises(SizeLimit, match="exceed the cap of 10"):
        dominant_preference(Plurality(pref("a>b>c")), ABC, 1, pref("a>b>c"),
                            pref("b>a>c"))


def test_ballot_list_refuses_before_building():
    """10! ballots are counted and refused before one is built."""
    e = Election(tuple("abcdefghij"), 1)
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimit) as err:
            e.orders()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "3628800 ballots exceed the cap of 1000000"
    assert peak < 10 ** 6


def test_make_model_sorts_blocks_by_first_state():
    m = make_model(
        ABC,
        ["s", "t", "u"],
        {
            "s": profile("a>b>c", "c>b>a"),
            "t": profile("a>b>c", "c>b>a"),
            "u": profile("c>b>a", "c>b>a"),
        },
        partitions={1: [["u"], ["t", "s"]], 2: [["u", "t"], ["s"]]},
    )
    assert m.blocks(1) == (("s", "t"), ("u",))
    assert m.blocks(2) == (("s",), ("t", "u"))


def test_make_model_defaults_to_singletons():
    m = make_model(ABC, ["x"], [profile("a>b>c", "a>b>c")])
    assert m.blocks(1) == (("x",),)
    assert m.blocks(2) == (("x",),)
    validate_model(m)


def test_validate_rejects_overlapping_blocks():
    m = make_model(
        ABC,
        ["s", "t"],
        [profile("a>b>c", "c>b>a"), profile("a>b>c", "c>b>a")],
        partitions={1: [["s", "t"], ["t"]]},
    )
    with pytest.raises(PartitionError):
        validate_model(m)


def test_validate_rejects_uncovered_state():
    m = make_model(
        ABC,
        ["s", "t"],
        [profile("a>b>c", "c>b>a"), profile("a>b>c", "c>b>a")],
        partitions={1: [["s"]]},
    )
    with pytest.raises(PartitionError):
        validate_model(m)


def test_validate_reports_own_preference_witness():
    # voter 1 cannot confuse two states where her own ranking differs
    m = make_model(
        ABC,
        ["s", "u"],
        {"s": profile("a>b>c", "c>b>a"), "u": profile("c>b>a", "c>b>a")},
        partitions={1: [["s", "u"]]},
    )
    with pytest.raises(OwnPreferenceViolation) as exc:
        validate_model(m)
    assert exc.value.voter == 1
    assert {exc.value.state_a, exc.value.state_b} == {"s", "u"}


def test_validate_rejects_unknown_point():
    m = make_model(ABC, ["s"], [profile("a>b>c", "c>b>a")], point="zz")
    with pytest.raises(UnknownState):
        validate_model(m)


def test_information_set_lookup(nested_doubt):
    assert nested_doubt.block_of(1, "t") == ("s", "t")
    assert nested_doubt.block_of(2, "t") == ("t", "u")
    assert nested_doubt.block_of(2, "s") == ("s",)


def _scan_block(m, voter, state):
    # the linear scan the index replaces: first block holding the state
    for k, block in enumerate(m.blocks(voter)):
        if state in block:
            return k, block
    return -1, None


def _assert_lookup_matches_scans(m, rng):
    for si, s in enumerate(m.states):
        assert m.index(s) == m.states.index(s) == si
    for i in m.election.voters:
        assert m.block_ids(i) == tuple(_scan_block(m, i, s)[0] for s in m.states)
        for s in m.states:
            assert m.block_of(i, s) == _scan_block(m, i, s)[1]
        for block in m.blocks(i):
            seen = []
            for s in block:
                p = m.profiles[m.states.index(s)]
                if p not in seen:
                    seen.append(p)
            assert m.profiles_of(block) == seen
    cp = random_conditional_profile(rng, m)
    for s in m.states:
        votes = tuple(
            cp[i - 1][_scan_block(m, i, s)[0]] for i in m.election.voters
        )
        assert induced_votes(m, cp, s).prefs == votes


def _restrict_by_scans(m, keep):
    # restrict as a cut of every block, blocks ordered by first state
    states = tuple(s for s in m.states if s in keep)
    partitions = tuple(
        tuple(sorted(
            (cut for cut in (tuple(s for s in b if s in keep) for b in m.blocks(i))
             if cut),
            key=lambda b: states.index(b[0]),
        ))
        for i in m.election.voters
    )
    return states, tuple(m.profiles[m.states.index(s)] for s in states), partitions


def test_state_lookup_matches_linear_scans():
    rng = random.Random(2018)
    models = [load_model(fixture_path(name)) for name in (
        "hidden-flip", "known-aligned", "known-opposed", "mutual-doubt",
        "nested-doubt")]
    models += [hypercube(ABC), hypercube(Election(("a", "b", "c"), 3))]
    for k in range(40):
        e = Election(("a", "b", "c"), 2 + k % 2)
        m = random_model(rng, e, max_states=7)
        models.append(m)
        keep = rng.sample(m.states, rng.randint(1, len(m.states)))
        r = restrict(m, keep)
        assert (r.states, r.profiles, r.partitions) == _restrict_by_scans(
            m, set(keep))
        models.append(r)
    for m in models:
        _assert_lookup_matches_scans(m, rng)


def test_lookup_on_unvalidated_partitions():
    uncovered = make_model(ABC, ["s", "t"], [profile("a>b>c", "c>b>a")] * 2,
                           partitions={1: [["s"]]})
    assert uncovered.block_ids(1) == (0, -1)
    with pytest.raises(PartitionError):
        uncovered.block_of(1, "t")
    with pytest.raises(UnknownState):
        uncovered.block_of(1, "zz")
    with pytest.raises(UnknownState):
        uncovered.index("zz")
    ballots = ((pref("a>b>c"),), (pref("b>a>c"), pref("c>a>b")))
    assert induced_votes(uncovered, ballots, "s") == profile("a>b>c", "b>a>c")
    with pytest.raises(PartitionError):
        induced_votes(uncovered, ballots, "t")
    # voter 2 has one block that misses t: nothing may read her last ballot
    half = make_model(ABC, ["s", "t"], [profile("a>b>c", "c>b>a")] * 2,
                      partitions={2: [["s"]]})
    cp = ((pref("a>b>c"), pref("b>a>c")), (pref("c>a>b"),))
    rule = Plurality(pref("a>b>c"))
    for call in (lambda: induced_votes(half, cp, "t"),
                 lambda: induced_winners(half, rule, cp),
                 lambda: is_conditional_equilibrium(half, rule, cp),
                 lambda: enumerate_conditional_equilibria(half, rule)):
        with pytest.raises(PartitionError, match="voter 2's partition"):
            call()
    overlapping = make_model(ABC, ["s", "t"], [profile("a>b>c", "c>b>a")] * 2,
                             partitions={1: [["s", "t"], ["t"]]})
    assert overlapping.block_ids(1) == (0, 0)
    assert overlapping.block_of(1, "t") == ("s", "t")


def test_fewer_partitions_than_voters_raise_partition_error():
    """Built directly, such a model constructs and validate_model reports
    it; every per-voter read refuses it with the same PartitionError."""
    e = Election(("a", "b"), 2)
    m = model.ProfileModel(e, ("s",), (profile("a>b", "b>a"),), ((("s",),),),
                           pref("a>b"), "s")
    rule, cp = Plurality(m.tiebreak), ((pref("a>b"),), (pref("b>a"),))
    for call in (lambda: validate_model(m),
                 lambda: m.blocks(2),
                 lambda: m.block_ids(1),
                 lambda: m.block_of(1, "s"),
                 lambda: m.block_ids_at(0),
                 lambda: classify(m.pointed(), rule, 2),
                 lambda: induced_votes(m, cp, "s"),
                 lambda: is_conditional_equilibrium(m, rule, cp),
                 lambda: enumerate_conditional_equilibria(m, rule)):
        with pytest.raises(PartitionError, match="^need one partition per voter$"):
            call()
    assert m.blocks(1) == (("s",),)


@pytest.mark.parametrize("voter", [0, -1, 3, 7])
def test_voter_outside_the_election_is_unknown(hidden_flip, voter):
    # negative and zero numbers used to index voters from the end
    rule = Plurality(hidden_flip.tiebreak)
    for call in (lambda: hidden_flip.blocks(voter),
                 lambda: hidden_flip.block_ids(voter),
                 lambda: hidden_flip.block_of(voter, "t"),
                 lambda: hidden_flip.pointed().information_set(voter),
                 lambda: classify(hidden_flip.pointed(), rule, voter),
                 lambda: dominant_manipulation_of_infoset(
                     hidden_flip.pointed(), rule, voter, pref("a>b>c")),
                 lambda: pessimistic_manipulation(
                     hidden_flip.pointed(), rule, voter, pref("a>b>c"))):
        with pytest.raises(UnknownVoter, match=f"no voter {voter}"):
            call()
    assert hidden_flip.blocks(2) == (("t", "u"),)


def test_profiles_of_collapses_duplicates(nested_doubt):
    # s and t carry the same profile on purpose
    block = nested_doubt.block_of(1, "s")
    assert len(block) == 2
    assert len(nested_doubt.profiles_of(block)) == 1
    block2 = nested_doubt.block_of(2, "t")
    assert len(nested_doubt.profiles_of(block2)) == 2


def test_knowledge_profile_accessors(hidden_flip):
    kp = KnowledgeProfile(hidden_flip, "t")
    assert kp.truth() == hidden_flip.profile_at("t")
    assert kp.information_set(2) == ("t", "u")
    assert kp.election is hidden_flip.election


def test_hypercube_shapes():
    m22 = hypercube(Election(("a", "b"), 2))
    assert len(m22.states) == 4
    assert len(m22.blocks(1)) == 2
    assert all(len(b) == 2 for b in m22.blocks(1))

    m31 = hypercube(Election(("a", "b", "c"), 1))
    assert len(m31.states) == 6
    assert all(len(b) == 1 for b in m31.blocks(1))

    m32 = hypercube(ABC)
    assert len(m32.states) == 36
    for i in (1, 2):
        assert len(m32.blocks(i)) == 6
        assert all(len(b) == 6 for b in m32.blocks(i))
    validate_model(m32)


def test_hypercube_size_limit():
    with pytest.raises(SizeLimit):
        hypercube(Election(("a", "b", "c", "d"), 8))


def test_restrict_drops_states_and_cuts_blocks(nested_doubt):
    r = restrict(nested_doubt, ["t", "u"])
    assert r.states == ("t", "u")
    assert r.blocks(1) == (("t",), ("u",))
    assert r.blocks(2) == (("t", "u"),)
    assert r.point == "t"
    validate_model(r)


def test_restrict_unpoints_when_point_removed(nested_doubt):
    r = restrict(nested_doubt, ["s", "u"])
    assert r.point is None


def test_restrict_empty_is_an_error(nested_doubt):
    with pytest.raises(EmptySet):
        restrict(nested_doubt, [])


def test_preference_requires_strict_order():
    with pytest.raises(ValueError):
        Preference(("a", "a", "b"))


def test_profile_replace_swaps_exactly_one_ballot():
    orders = Election(("a", "b", "c"), 4).orders()
    rng = random.Random(3)
    for _ in range(200):
        ballots = tuple(rng.choice(orders) for _ in range(rng.randint(1, 4)))
        voter, alt = rng.randint(1, len(ballots)), rng.choice(orders)
        old = list(ballots)
        old[voter - 1] = alt
        assert profile(*(b.as_text() for b in ballots)).replace(voter, alt).prefs \
            == tuple(old)


def test_worst_of_matches_the_rank_value_form():
    """The least preferred item, as min(key=rank_value) finds it, on random
    candidate lists with repeats; the same errors for empty and foreign."""
    rng = random.Random(7)
    names = ("a", "b", "c", "d", "e")
    for _ in range(500):
        ranked = rng.sample(names, rng.randint(1, 5))
        p = Preference(tuple(ranked))
        items = [rng.choice(ranked) for _ in range(rng.randint(1, 8))]
        assert p.worst_of(items) == min(items, key=p.rank_value)
        assert p.worst_of(iter(items)) == min(items, key=p.rank_value)
        foreign = items + ["z"]
        rng.shuffle(foreign)
        with pytest.raises(ValueError) as got:
            p.worst_of(foreign)
        with pytest.raises(ValueError) as want:
            min(foreign, key=p.rank_value)
        assert str(got.value) == str(want.value)
    with pytest.raises(EmptySet, match="^worst_of needs at least one candidate$"):
        pref("a>b").worst_of(iter(()))


@pytest.mark.parametrize("order", ["x>y>z", "a>b", "b>a>c>d", "c>a"])
def test_tiebreak_that_does_not_rank_the_candidates_is_refused(order):
    named = f"^tiebreak {order} does not rank every candidate of a b c once$"
    with pytest.raises(ValueError, match=named):
        hypercube(ABC, tiebreak=pref(order))
    with pytest.raises(ValueError, match=named):
        make_model(ABC, ["s"], [profile("a>b>c", "c>b>a")], tiebreak=pref(order))


def test_validate_checks_each_distinct_ballot_once(monkeypatch):
    """The 576-state cube has 24 distinct ballots (and a tiebreak); a ballot
    that fails is still reported at its first state and voter."""
    cube = hypercube(Election(("a", "b", "c", "d"), 2), tiebreak=pref("c>a>d>b"))
    calls = []
    real = model.ranks_every_candidate

    def counted(order, candidates):
        calls.append(order)
        return real(order, candidates)

    monkeypatch.setattr(model, "ranks_every_candidate", counted)
    validate_model(cube)
    assert len(calls) == 24 + 1
    bad = make_model(ABC, ["s", "t", "u"],
                     [profile("a>b>c", "a>b>c"), profile("a>b>c", "a>b"),
                      profile("a>b", "c>b>a")])
    with pytest.raises(DanglingState, match="^state 't', voter 2: order a>b does"):
        validate_model(bad)
