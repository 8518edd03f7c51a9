"""Knowledge of manipulation, dominance over information sets, maximin."""

import collections
import itertools
import random

import pytest
from hypothesis import given, settings

from conftest import pointed_models
from test_games_oracle import Veto
from test_rules import old_is_manipulation
from epivote import (
    KIND_ORDER,
    Election,
    KnowledgeProfile,
    ManipulationReport,
    Plurality,
    Profile,
    ProfileModel,
    classify,
    dominant_manipulation_of_infoset,
    dominant_preference,
    hypercube,
    is_manipulation,
    knows_manipulation,
    make_model,
    manipulations,
    pessimistic_manipulation,
    pref,
    profile,
    random_model,
)
from epivote.rules import _deviation_rows
from epivote.strategic import _knows

E2 = Election(("a", "b", "c"), 2)
F = Plurality(pref("b>a>c"))


def two_state_models():
    """All models where voter 2 confuses two states, voter 1 does not.

    Voter 2's own ranking must be constant on her block; voter 1's ranking
    varies freely between the states. 6*6*6 = 216 models.
    """
    for p1a, p1b, q in itertools.product(E2.orders(), repeat=3):
        m = make_model(
            E2,
            ["s", "t"],
            {"s": profile(p1a.as_text(), q.as_text()),
             "t": profile(p1b.as_text(), q.as_text())},
            partitions={2: [["s", "t"]]},
            tiebreak=pref("b>a>c"),
        )
        yield m


def test_singleton_infoset_collapses_all_notions(known_opposed):
    kp = KnowledgeProfile(known_opposed, "s")
    actual = known_opposed.profile_at("s")
    dicto, _ = knows_manipulation(kp, F, 2, "de_dicto")
    re_, re_alts = knows_manipulation(kp, F, 2, "de_re")
    assert dicto and re_
    for alt in E2.orders():
        fires = is_manipulation(F, E2, actual, 2, alt)
        assert dominant_manipulation_of_infoset(kp, F, 2, alt) == fires
        assert pessimistic_manipulation(kp, F, 2, alt) == fires
        assert (alt in re_alts) == fires


def test_hidden_flip_voter2_is_pessimistic_not_dominant(hidden_flip):
    """The two-state doubt model: b is the safe vote, not a dominant one.

    Against the opposed profile a b-ballot strictly helps voter 2; against
    the aligned profile it strictly hurts (c would have won outright). So
    no dominance, but the maximin comparison favours b: worst sincere
    outcome a, worst b-outcome b.
    """
    for point in ("t", "u"):
        kp = KnowledgeProfile(hidden_flip, point)
        for alt in (pref("b>c>a"), pref("b>a>c")):
            assert not dominant_manipulation_of_infoset(kp, F, 2, alt)
            assert pessimistic_manipulation(kp, F, 2, alt)
        assert not knows_manipulation(kp, F, 2, "de_dicto")[0]
        assert not knows_manipulation(kp, F, 2, "de_re")[0]
        report = classify(kp, F, 2)
        assert report.kind == "pessimistic"
        assert {a.top for a in report.pessimistic_alts} == {"b"}


def test_voter1_report_at_the_point(hidden_flip):
    kp = KnowledgeProfile(hidden_flip, "t")
    report = classify(kp, F, 1)
    # voter 1's top already wins at t and she knows the state exactly
    assert report.kind == "none"
    assert report.manipulation_alts == ()


def test_de_dicto_implies_de_re_for_three_candidate_plurality():
    """Exhaustive scan: plurality over 3 candidates never separates the modes.

    The sincere ballot already tops the voter's favourite, so a profile
    whose sincere winner is her middle candidate admits no manipulation at
    all, and profiles whose sincere winner is her worst are all improved by
    the same middle-topping ballot. Separating de dicto from de re needs a
    different rule (or a fourth candidate); with plurality the two modes
    coincide on every one of these models.
    """
    separations = 0
    dictos = 0
    for m in two_state_models():
        kp = KnowledgeProfile(m, "s")
        dicto, _ = knows_manipulation(kp, F, 2, "de_dicto")
        re_, _ = knows_manipulation(kp, F, 2, "de_re")
        if dicto:
            dictos += 1
            if not re_:
                separations += 1
    assert separations == 0
    assert dictos > 0  # the scan is not vacuous


def test_dominant_without_manipulation_found_by_search():
    """Dominance may owe its strict clause to a non-actual profile."""
    hits = []
    for m in two_state_models():
        kp = KnowledgeProfile(m, "s")
        actual = m.profile_at("s")
        for alt in E2.orders():
            if dominant_manipulation_of_infoset(kp, F, 2, alt) and not (
                is_manipulation(F, E2, actual, 2, alt)
            ):
                hits.append((m, alt))
    assert hits, "expected a dominant-but-not-manipulation witness"


def test_dominant_without_de_dicto_found_by_search():
    hits = []
    for m in two_state_models():
        kp = KnowledgeProfile(m, "s")
        has_dominant = any(
            dominant_manipulation_of_infoset(kp, F, 2, alt)
            for alt in E2.orders()
        )
        if has_dominant and not knows_manipulation(kp, F, 2, "de_dicto")[0]:
            hits.append(m)
    assert hits, "expected dominance without de dicto knowledge"


def test_dominant_is_constant_across_infoset():
    """A voter cannot learn dominance by moving inside her own block."""
    rng = random.Random(7)
    for _ in range(150):
        m = random_model(rng, tiebreak=pref("b>a>c"))
        for i in m.election.voters:
            for block in m.blocks(i):
                verdicts = {
                    tuple(
                        dominant_manipulation_of_infoset(
                            KnowledgeProfile(m, s), F, i, alt
                        )
                        for alt in m.election.orders()
                    )
                    for s in block
                }
                assert len(verdicts) == 1


def test_de_re_witness_is_dominant():
    """A ballot known to manipulate everywhere in the block also dominates."""
    rng = random.Random(11)
    checked = 0
    for _ in range(300):
        m = random_model(rng, tiebreak=pref("b>a>c"))
        for s in m.states:
            kp = KnowledgeProfile(m, s)
            for i in m.election.voters:
                ok, alts = knows_manipulation(kp, F, i, "de_re")
                if not ok:
                    continue
                for alt in alts:
                    checked += 1
                    assert dominant_manipulation_of_infoset(kp, F, i, alt)
    assert checked > 0


def test_hypercube_kills_knowledge_of_manipulation():
    m = hypercube(E2, tiebreak=pref("b>a>c"))
    rule = Plurality(pref("b>a>c"))
    for s in m.states[:6]:
        kp = KnowledgeProfile(m, s)
        for i in (1, 2):
            assert not knows_manipulation(kp, rule, i, "de_dicto")[0]
            assert not knows_manipulation(kp, rule, i, "de_re")[0]
            # pessimistic or dominant labels may still fire on the hypercube;
            # only the knowledge labels are ruled out
            assert classify(kp, rule, i).kind not in (
                "knows_de_re", "knows_de_dicto"
            )


def test_classify_reads_the_considered_profiles_once(monkeypatch):
    """One profiles_of call per classify, and the same report as the parts."""
    m = hypercube(Election(("a", "b", "c"), 3), tiebreak=pref("b>a>c"))
    rule = Plurality(pref("b>a>c"))
    calls = []
    real = ProfileModel.profiles_of

    def counted(self, block):
        calls.append(block)
        return real(self, block)

    reports = {}
    monkeypatch.setattr(ProfileModel, "profiles_of", counted)
    for s in m.states[::37]:
        for i in m.election.voters:
            calls.clear()
            reports[s, i] = classify(KnowledgeProfile(m, s), rule, i)
            assert len(calls) == 1
    monkeypatch.undo()
    for (s, i), rep in reports.items():
        kp = KnowledgeProfile(m, s)
        orders = m.election.orders()
        assert rep.dominant_alts == tuple(
            a for a in orders if dominant_manipulation_of_infoset(kp, rule, i, a))
        assert rep.pessimistic_alts == tuple(
            a for a in orders if pessimistic_manipulation(kp, rule, i, a))
        assert rep.knows_de_re == knows_manipulation(kp, rule, i, "de_re")[0]
        assert rep.knows_de_dicto == knows_manipulation(kp, rule, i, "de_dicto")[0]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(m=pointed_models())
def test_classify_agrees_with_each_notion(m):
    """Every field of each report at the point equals the single-notion API,
    and the kind is the first entry of KIND_ORDER that it makes hold."""
    rule, kp, orders = Plurality(m.tiebreak), m.pointed(), m.election.orders()
    for i in m.election.voters:
        rep = classify(kp, rule, i)
        alts = tuple(manipulations(rule, m.election, kp.truth(), i))
        de_dicto = knows_manipulation(kp, rule, i, "de_dicto")
        de_re = knows_manipulation(kp, rule, i, "de_re")
        dominant = tuple(
            a for a in orders if dominant_manipulation_of_infoset(kp, rule, i, a))
        pessimistic = tuple(
            a for a in orders if pessimistic_manipulation(kp, rule, i, a))
        assert rep.manipulation_alts == alts
        assert (rep.knows_de_dicto, rep.de_dicto_witnesses) == de_dicto
        assert (rep.knows_de_re, rep.de_re_alts) == de_re
        assert rep.dominant_alts == dominant
        assert rep.pessimistic_alts == pessimistic
        holds = {
            "knows_de_re": de_re[0],
            "knows_de_dicto": de_dicto[0],
            "dominant_of_infoset": bool(dominant),
            "pessimistic": bool(pessimistic),
            "has_manipulation": bool(alts),
            "none": True,
        }
        assert rep.kind == next(k for k in KIND_ORDER if holds[k])


def old_knows(e, F, i, considered, mode):
    """_knows as it was: every ballot of e.orders() tried in every
    considered profile, with the old is_manipulation loop."""
    alts = e.orders()
    if mode == "de_dicto":
        witnesses = {}
        for p in considered:
            working = tuple(
                alt for alt in alts if old_is_manipulation(F, e, p, i, alt)
            )
            if not working:
                return False, {}
            witnesses[p] = working
        return True, witnesses
    uniform = tuple(
        alt
        for alt in alts
        if all(old_is_manipulation(F, e, p, i, alt) for p in considered)
    )
    return bool(uniform), uniform


def assert_knows_matches_the_oracle(m, points, voters) -> set:
    """Verdicts and witnesses of both modes, de dicto witnesses in the same
    dict order, under plurality and under the keyless veto rule. Returns
    the (rule, mode) pairs that found a known manipulation."""
    known = set()
    for F in (Plurality(m.tiebreak), Veto(m.tiebreak)):
        for s, i in itertools.product(points, voters):
            considered = m.profiles_of(m.block_of(i, s))
            alts = m.election.orders()
            for mode in ("de_dicto", "de_re"):
                rows = _deviation_rows(m.election, F, i, considered, alts)
                got = _knows(i, considered, rows, alts, mode)
                want = old_knows(m.election, F, i, considered, mode)
                assert got == want, (s, i, mode)
                if mode == "de_dicto":
                    assert list(got[1].items()) == list(want[1].items())
                if got[0]:
                    known.add((F.name, mode))
    return known


@settings(derandomize=True, deadline=None, max_examples=60)
@given(m=pointed_models())
def test_knows_matches_the_oracle_on_small_models(m):
    assert_knows_matches_the_oracle(m, m.states, m.election.voters)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(m=pointed_models(broken=True))
def test_knows_matches_the_oracle_on_models_validate_model_rejects(m):
    """Each row is judged by its own profile's ranking of the voter, also
    where that ranking varies within her block."""
    covered = [s for s in m.states
               if all(m.block_ids(i)[m.index(s)] >= 0 for i in m.election.voters)]
    assert_knows_matches_the_oracle(m, covered, m.election.voters)


def test_knows_matches_the_oracle_on_seeded_models():
    """Models with several states per block, where both modes hold under
    both rules, so witnesses are compared and not only empty verdicts."""
    rng, known = random.Random(23), set()
    for e in (E2, Election(("a", "b", "c", "d"), 2), Election(("a", "b", "c"), 3)):
        for _ in range(100):
            m = random_model(rng, e, max_states=5)
            known |= assert_knows_matches_the_oracle(m, m.states, e.voters)
    assert known == {(rule, mode) for rule in ("plurality", "veto")
                     for mode in ("de_dicto", "de_re")}


class Borda:
    """Borda count, ties by tiebreak: every ballot scores differently, so a
    single ballot can be the only one that helps."""

    name = "borda"

    def __init__(self, tiebreak):
        self.tiebreak = tiebreak

    def winner(self, e, votes):
        score = {c: 0 for c in e.candidates}
        for ballot in votes.prefs:
            for points, c in enumerate(reversed(ballot.order)):
                score[c] += points
        best = max(score.values())
        return min((c for c in e.candidates if score[c] == best),
                   key=self.tiebreak.order.index)


def test_knows_matches_the_oracle_under_borda():
    rng, sizes = random.Random(29), collections.Counter()
    for e in (E2, Election(("a", "b", "c", "d"), 2)):
        for _ in range(60):
            m = random_model(rng, e, max_states=4)
            F, alts = Borda(m.tiebreak), e.orders()
            for s, i in itertools.product(m.states, e.voters):
                considered = m.profiles_of(m.block_of(i, s))
                for mode in ("de_dicto", "de_re"):
                    rows = _deviation_rows(e, F, i, considered, alts)
                    got = _knows(i, considered, rows, alts, mode)
                    assert got == old_knows(e, F, i, considered, mode), (s, i, mode)
                    if mode == "de_re":
                        sizes[len(got[1])] += 1
    assert sizes[1] > 0


def test_knows_matches_the_oracle_on_the_cubes():
    """Every state of the 3x3 cube and 48 seeded points of the 4x2 cube:
    information sets of 36 and 24 profiles. Only veto's de dicto knowledge
    holds on them."""
    cube = hypercube(Election(("a", "b", "c"), 3), tiebreak=pref("b>a>c"))
    assert_knows_matches_the_oracle(cube, cube.states, cube.election.voters)
    cube = hypercube(Election(("a", "b", "c", "d"), 2), tiebreak=pref("c>a>d>b"))
    points = random.Random(5).sample(cube.states, 48)
    known = assert_knows_matches_the_oracle(cube, points, cube.election.voters)
    assert known == {("veto", "de_dicto")}


def old_classify(kp, F, i):
    """classify as it was: every notion tried ballot by ballot, each
    considered profile's sincere winner recomputed for every ballot, the
    manipulations by the old is_manipulation loop and the worst outcome by
    the min(key=rank_value) form."""
    e, orders = kp.election, kp.election.orders()
    considered = kp.model.profiles_of(kp.information_set(i))
    actual = kp.truth()
    truth = actual.pref(i)

    def worst(cs):
        return min(cs, key=truth.rank_value)

    def dominant(alt):
        strict = False
        for p in considered:
            deviated, sincere = F.winner(e, p.replace(i, alt)), F.winner(e, p)
            if truth.prefers(sincere, deviated):
                return False
            if truth.prefers(deviated, sincere):
                strict = True
        return strict

    def pessimistic(alt):
        sincere = worst([F.winner(e, p) for p in considered])
        deviated = worst([F.winner(e, p.replace(i, alt)) for p in considered])
        return truth.prefers(deviated, sincere)

    manipulation_alts = tuple(
        alt for alt in orders if old_is_manipulation(F, e, actual, i, alt))
    dominant_alts = tuple(alt for alt in orders if dominant(alt))
    pessimistic_alts = tuple(alt for alt in orders if pessimistic(alt))
    de_dicto, witnesses = old_knows(e, F, i, considered, "de_dicto")
    de_re, re_alts = old_knows(e, F, i, considered, "de_re")
    flags = {
        "knows_de_re": de_re,
        "knows_de_dicto": de_dicto,
        "dominant_of_infoset": bool(dominant_alts),
        "pessimistic": bool(pessimistic_alts),
        "has_manipulation": bool(manipulation_alts),
        "none": True,
    }
    return ManipulationReport(
        voter=i,
        kind=next(k for k in KIND_ORDER if flags[k]),
        has_manipulation=bool(manipulation_alts),
        knows_de_dicto=de_dicto,
        knows_de_re=de_re,
        manipulation_alts=manipulation_alts,
        dominant_alts=dominant_alts,
        pessimistic_alts=pessimistic_alts,
        de_re_alts=tuple(re_alts) if de_re else (),
        de_dicto_witnesses=witnesses if de_dicto else {},
    )


def assert_classify_matches_the_oracle(m, points, rules) -> set:
    """Every report field, kind included and the de dicto witnesses in the
    same dict order, at each point for every voter. Returns the kinds seen."""
    kinds = set()
    for F in rules:
        for s, i in itertools.product(points, m.election.voters):
            kp = KnowledgeProfile(m, s)
            got, want = classify(kp, F, i), old_classify(kp, F, i)
            assert got == want, (F.name, s, i)
            assert got.kind == want.kind
            assert (list(got.de_dicto_witnesses.items())
                    == list(want.de_dicto_witnesses.items())), (F.name, s, i)
            kinds.add(got.kind)
    return kinds


@settings(derandomize=True, deadline=None, max_examples=60)
@given(m=pointed_models())
def test_classify_matches_the_per_ballot_oracle_on_small_models(m):
    assert_classify_matches_the_oracle(
        m, m.states, (Plurality(m.tiebreak), Veto(m.tiebreak)))


def test_classify_matches_the_per_ballot_oracle_on_the_cubes():
    """Every point of the 3x3 cube and 48 seeded points of the 4x2 cube,
    under plurality and the keyless veto rule."""
    cube = hypercube(Election(("a", "b", "c"), 3), tiebreak=pref("b>a>c"))
    kinds = assert_classify_matches_the_oracle(
        cube, cube.states, (Plurality(cube.tiebreak), Veto(cube.tiebreak)))
    cube = hypercube(Election(("a", "b", "c", "d"), 2), tiebreak=pref("c>a>d>b"))
    points = random.Random(5).sample(cube.states, 48)
    kinds |= assert_classify_matches_the_oracle(
        cube, points, (Plurality(cube.tiebreak), Veto(cube.tiebreak)))
    assert {"pessimistic", "has_manipulation", "none"} <= kinds


class CountingRule:
    """A rule that counts its winner calls per profile object and keeps
    every profile it was asked about; it declares the ballot key of the
    rule it wraps, if that rule has one."""

    def __init__(self, rule):
        self.rule, self.name = rule, rule.name
        self.calls, self.asked = collections.Counter(), []
        if hasattr(rule, "ballot_key"):
            self.ballot_key = rule.ballot_key

    def winner(self, e, votes):
        self.calls[id(votes)] += 1
        self.asked.append(votes)
        return self.rule.winner(e, votes)


def test_classify_computes_each_sincere_winner_once(all_fixture_models):
    """Deviated profiles are fresh objects, so a call on a considered
    profile's own object is its sincere winner."""
    cube = hypercube(Election(("a", "b", "c"), 3), tiebreak=pref("b>a>c"))
    cube42 = hypercube(Election(("a", "b", "c", "d"), 2), tiebreak=pref("c>a>d>b"))
    pointed = [(cube, s) for s in cube.states[::37]]
    pointed += [(cube42, s) for s in cube42.states[::97]]
    pointed += [(m, s) for m in all_fixture_models.values() for s in m.states]
    for m, s in pointed:
        kp = KnowledgeProfile(m, s)
        for i in m.election.voters:
            F = CountingRule(Plurality(m.tiebreak))
            report = classify(kp, F, i)
            considered = m.profiles_of(m.block_of(i, s))
            assert [F.calls[id(p)] for p in considered] == [1] * len(considered)
            assert report == classify(kp, Plurality(m.tiebreak), i)


def old_deviation_rows(e, F, i, profiles, ballots):
    """rules._deviation_rows as it was: per profile, its sincere winner and
    one winner decided per ballot."""
    for p in profiles:
        head, tail = p.prefs[:i - 1], p.prefs[i:]
        yield F.winner(e, p), [F.winner(e, Profile(head + (b,) + tail))
                               for b in ballots]


def assert_rows_match_the_oracle(m, rules, rng):
    """Row for row, for every voter's every block, over the ballots in
    e.orders() order, over a shuffled list with one ballot repeated (so a
    class's first ballot is not its first in e.orders()) and over one
    ballot."""
    e, orders = m.election, m.election.orders()
    for F in rules:
        for i in e.voters:
            for block in m.blocks(i):
                considered = m.profiles_of(block)
                shuffled = rng.sample(orders, len(orders)) + [rng.choice(orders)]
                for ballots in (orders, shuffled, [rng.choice(orders)]):
                    got = list(_deviation_rows(e, F, i, considered, ballots))
                    want = list(old_deviation_rows(e, F, i, considered, ballots))
                    assert got == want, (F.name, i, block)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(m=pointed_models())
def test_deviation_rows_match_the_per_ballot_oracle_on_small_models(m):
    assert_rows_match_the_oracle(
        m, (Plurality(m.tiebreak), Veto(m.tiebreak), Borda(m.tiebreak)),
        random.Random(3))


def test_deviation_rows_match_the_per_ballot_oracle_on_the_cubes():
    """Every block of the 3x3 and 4x2 cubes, under plurality (one class
    per top), the keyless veto rule and Borda (one class per ballot)."""
    rng = random.Random(11)
    for e, tiebreak in ((Election(("a", "b", "c"), 3), pref("b>a>c")),
                        (Election(("a", "b", "c", "d"), 2), pref("c>a>d>b"))):
        cube = hypercube(e, tiebreak=tiebreak)
        assert_rows_match_the_oracle(
            cube, (Plurality(tiebreak), Veto(tiebreak), Borda(tiebreak)), rng)


def calls_around(F: CountingRule, i) -> collections.Counter:
    """F's winner calls per tuple of the ballots of every voter but i."""
    return collections.Counter(p.prefs[:i - 1] + p.prefs[i:] for p in F.asked)


def test_each_row_decides_one_winner_per_ballot_class(all_fixture_models):
    """Each profile a notion visits costs one sincere winner call and one
    per ballot class: 3 classes on a, b, c and 4 on the 4x2 cube under
    plurality, m! under veto. Calls are grouped by the other voters'
    ballots, which tell the considered profiles apart (i's own ballot is
    the same across her block). The knowledge scans and dominant_preference
    may stop early, so they visit some of the profiles."""
    cube = hypercube(Election(("a", "b", "c"), 3), tiebreak=pref("b>a>c"))
    cube42 = hypercube(Election(("a", "b", "c", "d"), 2), tiebreak=pref("c>a>d>b"))
    pointed = [(cube, s) for s in cube.states[::43]]
    pointed += [(cube42, s) for s in cube42.states[::115]]
    pointed += [(m, s) for m in all_fixture_models.values() for s in m.states]
    seen = set()
    for m, s in pointed:
        e, kp = m.election, KnowledgeProfile(m, s)
        for rule, classes in ((Plurality(m.tiebreak), len(e.candidates)),
                              (Veto(m.tiebreak), len(e.orders()))):
            seen.add((rule.name, classes))
            for i in e.voters:
                around = {p.prefs[:i - 1] + p.prefs[i:]: classes + 1
                          for p in m.profiles_of(m.block_of(i, s))}
                F = CountingRule(rule)
                classify(kp, F, i)
                assert calls_around(F, i) == around
                for mode in ("de_dicto", "de_re"):
                    F = CountingRule(rule)
                    knows_manipulation(kp, F, i, mode)
                    got = calls_around(F, i)
                    assert got and got.keys() <= around.keys()
                    assert set(got.values()) == {classes + 1}
                F = CountingRule(rule)
                manipulations(F, e, kp.truth(), i)
                truth = kp.truth().prefs
                assert calls_around(F, i) == {truth[:i - 1] + truth[i:]: classes + 1}
                F = CountingRule(rule)
                dominant_preference(F, e, i, kp.truth().pref(i), e.orders()[-1])
                assert set(calls_around(F, i).values()) == {classes + 1}
    assert seen == {("plurality", 3), ("plurality", 4), ("veto", 6), ("veto", 24)}


def test_ballots_that_do_not_rank_the_candidates_are_refused(nested_doubt):
    kp, e = nested_doubt.pointed(), nested_doubt.election
    actual = kp.truth()
    for order in ("a>b", "a>b>c>d", "c>a", "x>y>z"):
        named = f"^alt {order} does not rank every candidate of a b c once$"
        for call in (
                lambda: pessimistic_manipulation(kp, F, 1, pref(order)),
                lambda: dominant_manipulation_of_infoset(kp, F, 1, pref(order)),
                lambda: is_manipulation(F, e, actual, 2, pref(order))):
            with pytest.raises(ValueError, match=named):
                call()
    foreign = actual.replace(2, pref("x>y>z"))
    named = "^voter 2's ballot x>y>z does not rank every candidate of a b c once$"
    for call in (lambda: is_manipulation(F, e, foreign, 1, pref("b>a>c")),
                 lambda: manipulations(F, e, foreign, 1)):
        with pytest.raises(ValueError, match=named):
            call()
