"""Core model layer: elections, preferences, profiles, S5 structure."""

import dataclasses
import itertools
import random
import re
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fixture_path, pointed_models
from epivote import model
from epivote import (
    DanglingState,
    Election,
    EmptySet,
    EpivoteError,
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
    hypercube,
    induced_votes,
    load_model,
    make_model,
    sincere_conditional_profile,
    parse_model,
    pessimistic_manipulation,
    pref,
    profile,
    random_conditional_profile,
    random_model,
    restrict,
    validate_model,
    write_model,
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
    """Refused when built, with the message validate_model gave."""
    with pytest.raises(PartitionError,
                       match="^voter 1: state 't' appears in two blocks$"):
        make_model(
            ABC,
            ["s", "t"],
            [profile("a>b>c", "c>b>a"), profile("a>b>c", "c>b>a")],
            partitions={1: [["s", "t"], ["t"]]},
        )


def test_validate_rejects_uncovered_state():
    """Refused when built, with the message validate_model gave."""
    with pytest.raises(PartitionError,
                       match=r"^voter 1's partition misses state\(s\) \['t'\]$"):
        make_model(
            ABC,
            ["s", "t"],
            [profile("a>b>c", "c>b>a"), profile("a>b>c", "c>b>a")],
            partitions={1: [["s"]]},
        )


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
    with pytest.raises(UnknownState, match="^point 'zz' is not a state$"):
        make_model(ABC, ["s"], [profile("a>b>c", "c>b>a")], point="zz")


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
    """The partitions the index once had to survive (a state in no block or
    in two) are refused when built, with validate_model's old message, so
    every lookup finds one block."""
    two = [profile("a>b>c", "c>b>a")] * 2
    for partitions, message in (
            ({1: [["s"]]}, r"^voter 1's partition misses state\(s\) \['t'\]$"),
            ({2: [["s"]]}, r"^voter 2's partition misses state\(s\) \['t'\]$"),
            ({1: [["s", "t"], ["t"]]}, "^voter 1: state 't' appears in two blocks$")):
        with pytest.raises(PartitionError, match=message):
            make_model(ABC, ["s", "t"], two, partitions=partitions)
    m = make_model(ABC, ["s", "t"], two, partitions={2: [["t", "s"]]})
    assert (m.block_ids(1), m.block_ids(2)) == ((0, 1), (0, 0))
    assert [m.block_ids_at(si) for si in (0, 1)] == [(0, 0), (1, 0)]
    assert m.block_of(2, "t") == ("s", "t")
    with pytest.raises(UnknownState):
        m.block_of(1, "zz")
    with pytest.raises(UnknownState):
        m.index("zz")


def test_fewer_partitions_than_voters_raise_partition_error():
    """Built directly or by dataclasses.replace, such a model is refused with
    the PartitionError validate_model and every per-voter read gave."""
    e = Election(("a", "b"), 2)
    m = model.ProfileModel(e, ("s",), (profile("a>b", "b>a"),),
                           ((("s",),), (("s",),)), pref("a>b"), "s")
    for call in (lambda: model.ProfileModel(
                     e, ("s",), (profile("a>b", "b>a"),), ((("s",),),),
                     pref("a>b"), "s"),
                 lambda: dataclasses.replace(m, partitions=m.partitions[:1])):
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
    """Building the 576-state cube's model checks its 24 distinct ballots
    (and the tiebreak) once each; a ballot that fails is still reported at
    its first state and voter, when the model is built."""
    cube = hypercube(Election(("a", "b", "c", "d"), 2), tiebreak=pref("c>a>d>b"))
    calls = []
    real = model.ranks_every_candidate

    def counted(order, candidates):
        calls.append(order)
        return real(order, candidates)

    monkeypatch.setattr(model, "ranks_every_candidate", counted)
    assert dataclasses.replace(cube) == cube
    assert len(calls) == 24 + 1
    with pytest.raises(DanglingState, match="^state 't', voter 2: order a>b does"):
        make_model(ABC, ["s", "t", "u"],
                   [profile("a>b>c", "a>b>c"), profile("a>b>c", "a>b"),
                    profile("a>b", "c>b>a")])


# ------------------------------------------------- the construction check

def old_validate_structure(m):
    """validate_model's structural pass before models checked themselves
    when built, the oracle for what construction refuses. m needs only the
    fields, ``blocks`` and the first-wins ``_positions``."""
    if not m.states:
        raise EmptySet("a model needs at least one state")
    if len(set(m.states)) != len(m.states):
        raise PartitionError("duplicate state names")
    if len(m.profiles) != len(m.states):
        raise DanglingState("valuation does not cover every state")
    candidates = m.election.candidates
    ranked = set()
    for s, p in zip(m.states, m.profiles):
        if len(p.prefs) != m.election.num_voters:
            raise DanglingState(
                f"state {s!r} ranks {len(p.prefs)} voters, "
                f"expected {m.election.num_voters}"
            )
        for i, r in enumerate(p.prefs, start=1):
            if r in ranked:
                continue
            if not model.ranks_every_candidate(r.order, candidates):
                raise DanglingState(
                    f"state {s!r}, voter {i}: order {r.as_text()} does not "
                    f"rank every candidate exactly once"
                )
            ranked.add(r)
    if len(m.partitions) != m.election.num_voters:
        raise PartitionError("need one partition per voter")
    for voter in m.election.voters:
        seen = {}
        for block in m.blocks(voter):
            if not block:
                raise PartitionError(f"voter {voter} has an empty block")
            for s in block:
                if s not in m._positions:
                    raise UnknownState(
                        f"voter {voter}'s partition mentions unknown state {s!r}"
                    )
                if s in seen:
                    raise PartitionError(
                        f"voter {voter}: state {s!r} appears in two blocks"
                    )
                seen[s] = block
        if len(seen) != len(m.states):
            missing = [s for s in m.states if s not in seen]
            raise PartitionError(
                f"voter {voter}'s partition misses state(s) {missing}"
            )
    if m.point is not None and m.point not in m.states:
        raise UnknownState(f"point {m.point!r} is not a state")


FAULTS = ("miss", "repeat", "unknown member", "empty block", "unknown point",
          "twin state", "short valuation", "partial ballot", "lost partition")


@st.composite
def faulty_fields(draw):
    """(fault, fields) of a drawn pointed model with one structural fault.
    "miss" and "repeat" break one voter's partition: it misses a state, or
    repeats one in a block of its own."""
    m = draw(pointed_models(broken=True))
    fields = {f.name: getattr(m, f.name) for f in dataclasses.fields(m)}
    parts = [list(blocks) for blocks in m.partitions]
    i = draw(st.sampled_from(list(m.election.voters)))
    s = draw(st.sampled_from(m.states))
    fault = draw(st.sampled_from(FAULTS))
    if fault == "miss":
        cut = [tuple(t for t in block if t != s) for block in parts[i - 1]]
        parts[i - 1] = [block for block in cut if block]
    elif fault == "repeat":
        parts[i - 1].append((s,))
    elif fault == "unknown member":
        parts[i - 1][0] += ("zz",)
    elif fault == "empty block":
        parts[i - 1].append(())
    elif fault == "unknown point":
        fields["point"] = "zz"
    elif fault == "twin state":
        fields["states"] += (s,)
        fields["profiles"] += (m.profile_at(s),)
    elif fault == "short valuation":
        fields["profiles"] = m.profiles[:-1]
    elif fault == "partial ballot":
        k = m.index(s)
        ballots = list(m.profiles[k].prefs)
        ballots[i - 1] = Preference(ballots[i - 1].order[:-1])
        fields["profiles"] = (m.profiles[:k] + (model.Profile(tuple(ballots)),)
                              + m.profiles[k + 1:])
    else:
        parts.pop(i - 1)
    fields["partitions"] = tuple(map(tuple, parts))
    return fault, fields


@settings(derandomize=True, deadline=None, max_examples=300)
@given(faulty=faulty_fields())
def test_building_raises_what_validate_model_raised(faulty):
    """Every structural fault is refused when the model is built, with the
    exception and message the structural pass of validate_model gave. A
    partition fault is refused by make_model too, which named an unknown
    member in its own words and crashed on an empty block."""
    fault, fields = faulty
    positions = {}
    for k, s in enumerate(fields["states"]):
        positions.setdefault(s, k)
    old = SimpleNamespace(**fields, _positions=positions,
                          blocks=lambda voter: fields["partitions"][voter - 1])
    with pytest.raises(EpivoteError) as want:
        old_validate_structure(old)
    expected = f"^{re.escape(str(want.value))}$"
    with pytest.raises(type(want.value), match=expected):
        model.ProfileModel(**fields)
    if fault in FAULTS[:4]:
        with pytest.raises(type(want.value), match=expected):
            make_model(fields["election"], fields["states"], fields["profiles"],
                       dict(enumerate(fields["partitions"], start=1)),
                       fields["tiebreak"], fields["point"])


def test_make_model_refuses_partition_keys_that_are_no_voters():
    """A key outside the voters used to be dropped, so voter 1 below got
    singletons and the model validated."""
    two = [profile("a>b>c", "c>b>a")] * 2
    for key in ("1", 3, 0, True):
        with pytest.raises(UnknownVoter, match=f"^no voter {key!r} in 1..2$"):
            make_model(ABC, ["s", "t"], two, partitions={key: [["s", "t"]]})
    m = make_model(ABC, ["s", "t"], two, partitions={1: [["s", "t"]], 2: None})
    assert m.blocks(1) == (("s", "t"),) and m.blocks(2) == (("s",), ("t",))


@pytest.mark.parametrize("name", ["s t", "s#1", "s=1", "", "s}", "{s", "s\tt",
                                  "s\n", 7, None])
def test_state_names_the_model_file_cannot_hold_are_refused(name):
    """write_model would save such a name in a file parse_model rejects."""
    with pytest.raises(ValueError, match="^state name .* cannot be written"):
        make_model(ABC, ["s", name], [profile("a>b>c", "c>b>a")] * 2)


def test_state_names_round_trip_through_the_model_file():
    names = ["a:b", "s;1", "x>y", "(t)", "\u00e9t\u00e9", "1"]
    m = make_model(ABC, names, [profile("a>b>c", "c>b>a")] * len(names),
                   partitions={1: [names[:2], names[2:]]}, point="a:b")
    assert parse_model(write_model(m)) == m


# ------------------------------------------------- the canonical block order

FIXTURE_MODELS = [load_model(fixture_path(name), validate=False) for name in (
    "hidden-flip", "known-aligned", "known-opposed", "mutual-doubt",
    "nested-doubt", "three-voters")]


@st.composite
def shuffled_partitions(draw):
    """(m, parts): a drawn or fixture model, and its partitions with every
    voter's blocks and every block's members in a drawn order."""
    m = draw(st.one_of(pointed_models(), st.sampled_from(FIXTURE_MODELS)))
    parts = tuple(
        tuple(tuple(draw(st.permutations(block)))
              for block in draw(st.permutations(blocks)))
        for blocks in m.partitions)
    return m, parts


@settings(derandomize=True, deadline=None, max_examples=200)
@given(drawn=shuffled_partitions())
def test_the_constructor_sets_the_canonical_block_order(drawn):
    """However the blocks are given, the model is the canonical one, and
    restricting to every state and the model file give it back."""
    m, parts = drawn
    built = model.ProfileModel(m.election, m.states, m.profiles, parts,
                               m.tiebreak, m.point)
    assert built == m
    assert all(built.block_ids(i) == m.block_ids(i) for i in m.election.voters)
    assert restrict(built, built.states) == built
    assert parse_model(write_model(built), validate=False) == built


def test_reversed_blocks_give_the_same_game(mutual_doubt):
    """Built with its blocks reversed, mutual-doubt once kept them reversed,
    so its sincere conditional profile listed each voter's ballots
    backwards."""
    m = mutual_doubt
    backwards = tuple(tuple(reversed(blocks)) for blocks in m.partitions)
    built = dataclasses.replace(m, partitions=backwards)
    assert built.blocks(1) == (("t",), ("u", "v"))
    assert sincere_conditional_profile(built) == sincere_conditional_profile(m)
    assert parse_model(write_model(built)) == built == m


def test_a_long_list_of_missing_states_is_cut_short():
    states = [f"s{k}" for k in range(8)]
    ballots = [profile("a>b>c", "c>b>a")] * 8
    with pytest.raises(PartitionError, match=re.escape(
            "voter 1's partition misses state(s) "
            "['s1', 's2', 's3', 's4', 's5', ...] (7 in all)")):
        make_model(ABC, states, ballots, partitions={1: [["s0"]]})
    with pytest.raises(DanglingState, match=re.escape(
            "no valuation for state(s) ['s2', 's3', 's4', 's5', 's6', ...] "
            "(6 in all)")):
        make_model(ABC, states, dict(zip(states[:2], ballots)))
    assert model.listed(iter("abcde"), 5) == "['a', 'b', 'c', 'd', 'e']"
