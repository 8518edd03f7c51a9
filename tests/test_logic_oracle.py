"""The model checker and the concept-formula builder against their old forms.

``old_eval`` is the evaluator the memoised one replaced: it decides K_i by
evaluating the subformula at every state of the block, and it builds a
restricted model (``model.restrict``) for each state at which an
announcement is evaluated. ``old_conditional_equilibrium`` is the builder
that computed every conjunct anew for each combination of information sets,
with one winner call per ballot. ``old_first_violation`` and
``old_introspection_violations`` are the own-preference loops that
``validate_model`` and ``check_axioms`` each kept, the second rescanning the
block per member. ``old_bisim_rounds`` and ``old_class_formula_table`` are
the partition refinement that rebuilt a block's class set per member state,
in two passes. ``old_manipulation_with``, ``old_has_manipulation``,
``old_dominant_manipulation``, ``old_knows_de_dicto``, ``old_knows_de_re``
and ``old_equilibrium`` are the concept builders that decided each winner
themselves, the sincere one anew for every deviation, before they read the
deviation table (``rules._deviation_rows``); given a rule wrapped in
``EveryBallot`` they try every ballot, as before ballot classes.
``old_game_conditional_equilibrium`` took each worst-case winner from the
game's winners before the game's payoff read (``games._payoffs``). ``old_fmt``,
``old_check_formula``, ``old_expand_abbreviations``,
``old_reduce_announcements`` and ``old_eq`` are the tree walks that recursed
on the Python stack before the explicit-stack fold; ``old_repr`` is the
dataclass repr they printed with. ``old_parse`` is the recursive-descent
parser, one method per precedence level, that the precedence loop
replaced. Models come from the ``pointed_models`` strategy in conftest,
the five fixtures and the hypercubes.
"""

import ast
import copy
import dataclasses
import functools
import itertools
import pathlib
import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import pointed_models, random_formula
from test_games_oracle import Veto
from test_strategic import Borda, CountingRule
from epivote import (
    And,
    Announce,
    CompAtom,
    Election,
    Indistinguishable,
    Know,
    MissingTiebreak,
    Not,
    OwnPreferenceViolation,
    PartitionError,
    Plurality,
    PrefAtom,
    ProfileAtom,
    SizeLimit,
    TRUE,
    EpivoteError,
    FALSE,
    FormulaSyntaxError,
    IncompleteProfileAtom,
    Top,
    WinsAtom,
    build_concept_formula,
    denotation,
    evaluate,
    hypercube,
    induced_votes,
    make_model,
    parse,
    pref,
    profile,
    to_text,
)
from epivote import games, logic, model, rules
from epivote.logic import (
    Implies,
    big_and,
    big_or,
    characteristic_formula,
)

F = Plurality(pref("b>a>c"))
CUBE3X2 = hypercube(Election(("a", "b", "c"), 2), tiebreak=F.tiebreak)
CUBE3X3 = hypercube(Election(("a", "b", "c"), 3), tiebreak=F.tiebreak)


def old_eval(m, s, F, phi):
    match phi:
        case ProfileAtom(profile=p):
            return m.profile_at(s) == p
        case PrefAtom(voter=i, order=r):
            return m.profile_at(s).pref(i) == r
        case CompAtom(voter=i, better=a, worse=b):
            return a != b and m.profile_at(s).pref(i).prefers(a, b)
        case WinsAtom(candidate=c):
            if F is None:
                raise MissingTiebreak("winner atoms need a voting rule")
            return F.winner(m.election, m.profile_at(s)) == c
        case Top():
            return True
        case Not(sub=sub):
            return not old_eval(m, s, F, sub)
        case And(left=l, right=r):
            return old_eval(m, s, F, l) and old_eval(m, s, F, r)
        case Know(voter=i, sub=sub):
            return all(old_eval(m, t, F, sub) for t in m.block_of(i, s))
        case Announce(announced=a, sub=sub):
            if not old_eval(m, s, F, a):
                return True
            kept = [t for t in m.states if old_eval(m, t, F, a)]
            return old_eval(model.restrict(m, kept), s, F, sub)
    raise TypeError(f"not a formula: {phi!r}")


def old_denotation(m, F, phi):
    return tuple(s for s in m.states if old_eval(m, s, F, phi))


def outcome(run):
    """The value of run(), or the MissingTiebreak it raised."""
    try:
        return run()
    except MissingTiebreak:
        return MissingTiebreak


def shaped(rng, e, k, a):
    """A random formula whose K operators nest k deep and announcements a deep."""
    if k == a == 0:
        return random_formula(rng, e, depth=0)
    if a and (not k or rng.random() < 0.5):
        phi = Announce(shaped(rng, e, rng.randrange(k + 1), rng.randrange(a)),
                       shaped(rng, e, k, a - 1))
    else:
        phi = Know(rng.choice(list(e.voters)), shaped(rng, e, k - 1, a))
    return rng.choice([phi, Not(phi), And(random_formula(rng, e, depth=0), phi)])


@given(m=pointed_models(), seed=st.integers(0, 2**32 - 1),
       depth=st.integers(0, 4))
@settings(derandomize=True, deadline=None, max_examples=150)
def test_evaluator_matches_the_restricting_oracle(m, seed, depth):
    phi = random_formula(random.Random(seed), m.election, depth=depth)
    rule = Plurality(m.tiebreak)
    assert denotation(m, rule, phi) == old_denotation(m, rule, phi)
    assert evaluate(m.pointed(), rule, phi) == old_eval(m, m.point, rule, phi)
    assert (outcome(lambda: denotation(m, None, phi))
            == outcome(lambda: old_denotation(m, None, phi)))
    assert (outcome(lambda: evaluate(m.pointed(), None, phi))
            == outcome(lambda: old_eval(m, m.point, None, phi)))


def test_deep_formulas_match_the_oracle(all_fixture_models):
    rng = random.Random(7)
    models = list(all_fixture_models.values()) + [CUBE3X2]
    for m in models:
        rule = Plurality(m.tiebreak)
        for _ in range(10):
            phi = shaped(rng, m.election, 3, 2)
            assert denotation(m, rule, phi) == old_denotation(m, rule, phi), (
                to_text(phi))


def test_shared_k_node_is_decided_per_live_set():
    # One K1 node, once at the top and once after an announcement that
    # tells voter 1 the winner: its verdict on a block differs between them.
    k = Know(1, WinsAtom("a"))
    phi = And(Not(k), Announce(WinsAtom("a"), k))
    holds = denotation(CUBE3X2, F, phi)
    assert holds and holds == old_denotation(CUBE3X2, F, phi)


def test_shared_announcement_is_decided_per_live_set():
    # One announced formula object, announced twice: the second time it
    # holds at fewer of the states left by the first.
    psi = parse("wins a & ~K2 1: a>b", CUBE3X2.election)
    phi = Announce(psi, Announce(psi, parse("K1 2: a>b", CUBE3X2.election)))
    holds = denotation(CUBE3X2, F, phi)
    assert holds == CUBE3X2.states == old_denotation(CUBE3X2, F, phi)


def test_announcements_build_no_restricted_model(monkeypatch, nested_doubt):
    calls = []
    restrict = model.restrict

    def counted(m, keep):
        calls.append(keep)
        return restrict(m, keep)

    for mod in (model, logic):
        if hasattr(mod, "restrict"):
            monkeypatch.setattr(mod, "restrict", counted)
    ann = parse("[1: a>b] K2 (1: a>b | wins c)", CUBE3X3.election)
    old_denotation(nested_doubt, F, parse("[wins a] K1 wins a",
                                          nested_doubt.election))
    assert calls  # the wrapper sees the oracle's restrictions
    calls.clear()
    assert denotation(CUBE3X3, F, ann)
    assert calls == []


def test_depth_three_canary_on_the_cube():
    phi = parse("K1 K2 K3 (wins a | wins b | wins c)", CUBE3X3.election)
    assert denotation(CUBE3X3, F, phi) == CUBE3X3.states


# --------------------------------------------- conditional-equilibrium formula

def old_conditional_equilibrium(m, F, cp):
    e = m.election
    chars = {
        (i, block): characteristic_formula(m, block).formula
        for i in e.voters
        for block in m.blocks(i)
    }
    alts = e.orders()
    conjuncts = []
    cells = itertools.product(
        *[list(enumerate(m.blocks(i))) for i in e.voters]
    )
    for cell in cells:
        guard = big_and(
            chars[(i, block)] for i, (_, block) in zip(e.voters, cell)
        )
        body = []
        for vi, i in enumerate(e.voters):
            k, block = cell[vi]
            truth = m.profile_at(block[0]).pref(i)
            votes = [induced_votes(m, cp, s) for s in block]
            base = truth.worst_of(F.winner(e, v) for v in votes)
            for alt in alts:
                if alt == cp[vi][k]:
                    continue
                dev = truth.worst_of(
                    F.winner(e, v.replace(i, alt)) for v in votes)
                body.append(Not(CompAtom(i, dev, base)))
        conjuncts.append(Implies(guard, big_and(body)))
    return big_and(conjuncts)


def test_conditional_equilibrium_formula_matches_the_old_builder(
        all_fixture_models):
    rng = random.Random(3)
    for m in all_fixture_models.values():
        rule = Plurality(m.tiebreak)
        orders = m.election.orders()
        cps = [games.sincere_conditional_profile(m)] + [
            tuple(tuple(rng.choice(orders) for _ in m.blocks(i))
                  for i in m.election.voters)
            for _ in range(3)
        ]
        for cp in cps:
            new = build_concept_formula(
                "conditional_equilibrium", m=m, F=rule, cp=cp)
            assert denotation(m, rule, new) == denotation(
                m, rule, old_conditional_equilibrium(m, rule, cp))
            conjuncts = []
            while isinstance(new, And):  # big_and nests to the left
                new, last = new.left, new.right
                conjuncts.append(last)
            conjuncts.append(new)
            # each conjunct is Implies(guard, body), that is ~(guard & ~body)
            guards = [c.sub.left for c in reversed(conjuncts)]
            vvs = games.virtual_voters(m)
            assert len(guards) == len(vvs)
            assert list(map(to_text, guards)) == [
                to_text(characteristic_formula(m, v.infoset).formula)
                for v in vvs]


def test_conditional_equilibrium_formula_work(monkeypatch, nested_doubt):
    counts = {"winner": 0, "shape": 0}
    winner, check_shape = rules.Plurality.winner, games._check_shape

    def counted_winner(self, e, votes):
        counts["winner"] += 1
        return winner(self, e, votes)

    def counted_shape(m, cp):
        counts["shape"] += 1
        return check_shape(m, cp)

    monkeypatch.setattr(rules.Plurality, "winner", counted_winner)
    monkeypatch.setattr(games, "_check_shape", counted_shape)
    rule = Plurality(nested_doubt.tiebreak)
    cp = games.sincere_conditional_profile(nested_doubt)
    old_conditional_equilibrium(nested_doubt, rule, cp)
    assert counts == {"winner": 72, "shape": 12}
    counts.update(winner=0, shape=0)
    build_concept_formula("conditional_equilibrium", m=nested_doubt, F=rule,
                          cp=cp)
    assert counts == {"winner": 7, "shape": 1}


def test_conditional_equilibrium_formula_refines_once(monkeypatch,
                                                      all_fixture_models):
    """One partition refinement per formula, however many information sets
    need a characteristic formula."""
    calls = []
    real = logic._refine

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(logic, "_refine", counted)
    for m in all_fixture_models.values():
        calls.clear()
        build_concept_formula("conditional_equilibrium", m=m,
                              F=Plurality(m.tiebreak),
                              cp=games.sincere_conditional_profile(m))
        assert calls == [m]


def test_conditional_equilibrium_formula_fails_on_the_same_set():
    """Voter 1 has one set; voter 2 has two, each bisimilar to the other:
    the first one in voter-then-block order is the one reported."""
    e = Election(("a", "b", "c"), 2)
    same = profile("a>b>c", "c>b>a")
    m = make_model(e, ["s", "t", "u"], [same, same, profile("a>b>c", "b>c>a")],
                   {1: [("s", "t", "u")], 2: [("s",), ("t",), ("u",)]},
                   tiebreak=pref("b>a>c"), point="s")
    rule = Plurality(m.tiebreak)
    cp = games.sincere_conditional_profile(m)
    with pytest.raises(Indistinguishable) as old:
        old_conditional_equilibrium(m, rule, cp)
    with pytest.raises(Indistinguishable) as new:
        build_concept_formula("conditional_equilibrium", m=m, F=rule, cp=cp)
    assert str(new.value) == str(old.value) == (
        "state 't' cannot be separated from the target")


# ------------------------------------------------------ own preference rule

def old_first_violation(m):
    """validate_model's own-preference loop before the shared scan: the
    first (voter, block's first state, member with another ballot)."""
    for voter in m.election.voters:
        for block in m.blocks(voter):
            anchor = m.profile_at(block[0]).pref(voter)
            for s in block[1:]:
                if m.profile_at(s).pref(voter) != anchor:
                    return voter, block[0], s
    return None


def old_introspection_violations(m):
    """check_axioms' loop before the shared scan: each member against its
    whole block."""
    viols = []
    for i in m.election.voters:
        for block in m.blocks(i):
            for s in block:
                mine = m.profile_at(s).pref(i)
                witness = next(
                    (t for t in block if m.profile_at(t).pref(i) != mine), None
                )
                if witness is not None:
                    viols.append((i, s, witness))
    return tuple(viols)


def scrambled(m, rng, blocks):
    """m with every voter's states dealt into `blocks` random blocks."""
    partitions = {}
    for i in m.election.voters:
        dealt = [[] for _ in range(blocks)]
        for s in m.states:
            dealt[rng.randrange(blocks)].append(s)
        partitions[i] = [b for b in dealt if b]
    return make_model(m.election, m.states, m.profiles, partitions,
                      tiebreak=m.tiebreak, point=m.point)


CUBE4X2 = hypercube(Election(("a", "b", "c", "d"), 2),
                    tiebreak=pref("b>a>c>d"))


def partitions_cover_once(m):
    """Whether every voter's blocks hold each state exactly once."""
    return all(sorted(s for block in m.blocks(i) for s in block)
               == sorted(m.states) for i in m.election.voters)


def assert_own_preference_matches(m):
    want = old_introspection_violations(m)
    assert tuple(model.own_preference_violations(m)) == want
    if not partitions_cover_once(m):
        with pytest.raises(PartitionError):
            model.validate_model(m)
        with pytest.raises(PartitionError):
            logic.check_axioms(m)
        return
    rep = logic.check_axioms(m)
    assert rep.introspection_violations == want
    assert rep.introspection_valid == (not want)
    first = old_first_violation(m)
    if first is None:
        model.validate_model(m)
        return
    with pytest.raises(OwnPreferenceViolation) as raised:
        model.validate_model(m)
    assert (raised.value.voter, raised.value.state_a,
            raised.value.state_b) == first


def test_own_preference_matches_the_old_loops(all_fixture_models):
    rng = random.Random(11)
    models = [*all_fixture_models.values(), CUBE3X3, CUBE4X2,
              scrambled(CUBE3X3, rng, 9), scrambled(CUBE4X2, rng, 40)]
    for m in models:
        assert_own_preference_matches(m)
    assert not logic.check_axioms(models[-1]).introspection_valid


@given(m=pointed_models() | pointed_models(broken=True))
@settings(derandomize=True, deadline=None, max_examples=400)
def test_own_preference_matches_the_old_loops_on_drawn_models(m):
    assert_own_preference_matches(m)


def test_axiom_check_reads_each_ballot_once(monkeypatch):
    calls = 0
    real = model.Profile.pref

    def counted(self, voter):
        nonlocal calls
        calls += 1
        return real(self, voter)

    monkeypatch.setattr(model.Profile, "pref", counted)
    assert logic.check_axioms(CUBE3X3).introspection_valid
    e = CUBE3X3.election
    assert calls <= 3 * e.num_voters * len(CUBE3X3.states)  # 23,976 before


# ------------------------------------------------------ partition refinement

def old_bisim_rounds(m):
    """The refinement's rounds before block ids: each member's block and its
    class set rebuilt per state. The last round holds the classes."""
    cls = logic._group([m.profiles[si] for si in range(len(m.states))])
    rounds = [cls]
    while True:
        sigs = []
        for si, s in enumerate(m.states):
            seen = tuple(
                frozenset(cls[m.index(t)] for t in m.block_of(i, s))
                for i in m.election.voters
            )
            sigs.append((cls[si], seen))
        new = logic._group(sigs)
        if new == cls:
            return rounds
        cls = new
        rounds.append(cls)


def old_class_formula_table(m, rounds):
    """Per state, a formula true at exactly its class in rounds[-1]."""
    table = [ProfileAtom(m.profiles[si]) for si in range(len(m.states))]
    for k in range(1, len(rounds)):
        prev = rounds[k - 1]
        new_table = []
        for si, s in enumerate(m.states):
            parts = [table[si]]
            for i in m.election.voters:
                reps = []
                for t in m.block_of(i, s):
                    c = prev[m.index(t)]
                    if c not in reps:
                        reps.append(c)
                for c in reps:
                    parts.append(Not(Know(i, Not(table[c]))))
                parts.append(Know(i, big_or(table[c] for c in reps)))
            new_table.append(big_and(parts))
        table = new_table
    return table


def assert_refinement_matches(m):
    try:
        rounds = old_bisim_rounds(m)
    except PartitionError:  # a partition misses a state
        with pytest.raises(PartitionError):
            logic._refine(m)
        return
    classes, formulas = logic._refine(m)
    assert classes == rounds[-1]
    assert list(map(to_text, formulas)) == list(
        map(to_text, old_class_formula_table(m, rounds)))


def test_refinement_matches_the_old_scans(all_fixture_models):
    # each cube profile on two states: the random blocks take two rounds
    twins = make_model(CUBE3X2.election,
                       [*CUBE3X2.states, *(s + "_2" for s in CUBE3X2.states)],
                       CUBE3X2.profiles * 2, tiebreak=F.tiebreak)
    for m in [*all_fixture_models.values(), CUBE3X3,
              scrambled(twins, random.Random(5), 3)]:
        assert_refinement_matches(m)


@given(m=pointed_models() | pointed_models(broken=True))
@settings(derandomize=True, deadline=None, max_examples=200)
def test_refinement_matches_the_old_scans_on_drawn_models(m):
    assert_refinement_matches(m)


# ------------------------------------------------ concept formulas per ballot

def old_manipulation_with(e, F, i, p, alt):
    return CompAtom(i, F.winner(e, p.replace(i, alt)), F.winner(e, p))


def old_deviations(e, F):
    return [alt for _, alt in rules.ballot_classes(F, e.orders())]


def old_has_manipulation(e, F, i, p):
    return big_or(old_manipulation_with(e, F, i, p, alt)
                  for alt in old_deviations(e, F))


def old_dominant_manipulation(e, F, i, alt):
    profiles = e.all_profiles()
    weak = big_and(
        Not(CompAtom(i, F.winner(e, p), F.winner(e, p.replace(i, alt))))
        for p in profiles)
    anchor = e.orders()[0]
    combos = [p for p in profiles if p.pref(i) == anchor]
    strict = big_or(
        And(PrefAtom(i, r), big_or(
            CompAtom(i, F.winner(e, p.replace(i, alt)),
                     F.winner(e, p.replace(i, r)))
            for p in combos))
        for r in e.orders())
    return And(weak, strict)


def old_knows_de_dicto(e, F, i):
    return Know(i, big_and(
        Implies(ProfileAtom(p), old_has_manipulation(e, F, i, p))
        for p in e.all_profiles()))


def old_knows_de_re(e, F, i):
    return big_or(
        Know(i, big_and(
            Implies(ProfileAtom(p), old_manipulation_with(e, F, i, p, alt))
            for p in e.all_profiles()))
        for alt in old_deviations(e, F))


def old_equilibrium(e, F, p):
    return big_and(Not(old_manipulation_with(e, F, i, p, alt))
                   for i in e.voters for alt in old_deviations(e, F))


def old_game_conditional_equilibrium(m, F, cp):
    e = m.election
    chars = logic._characteristic_formulas(
        m, [block for i in e.voters for block in m.blocks(i)])
    game = games._Game(m, F)
    keys, winner = game.keys_of(cp), game.winner
    conjuncts = []
    for p in game.players:
        vi, rank = p.voter - 1, p.rank.__getitem__
        base = [tuple(map(keys.__getitem__, row)) for row in p.rows]
        here = min(map(winner, base), key=rank)
        dev = [min((winner(ks[:vi] + (k,) + ks[vi + 1:]) for ks in base),
                   key=rank) for k, _ in game.classes if k != keys[p.slot]]
        conjuncts.append(Implies(chars[p.slot], big_and(
            Not(CompAtom(p.voter, d, here)) for d in dev)))
    return big_and(conjuncts)


OLD_BUILDERS = {
    "manipulation_with": old_manipulation_with,
    "has_manipulation": old_has_manipulation,
    "dominant_manipulation": old_dominant_manipulation,
    "knows_de_dicto": old_knows_de_dicto,
    "knows_de_re": old_knows_de_re,
    "equilibrium": old_equilibrium,
}


class EveryBallot:
    """F without its ballot key: a builder then deviates to every ballot,
    one class each, as the builders did before ballot classes."""

    def __init__(self, F):
        self.F, self.name = F, F.name

    def winner(self, e, votes):
        return self.F.winner(e, votes)


@functools.lru_cache(maxsize=None)
def ballot_formulas(concept, e, F, args):
    """The concept formula and its per-ballot oracle's, built once per
    election, rule and arguments, since neither reads a model. The formula
    read off the deviation table must be the tree, so print the text, that
    the old builder given F itself writes, deciding each winner directly.
    For a rule without a ballot key that is the per-ballot oracle too, and
    the formula stands in for it."""
    new = build_concept_formula(concept, e=e, F=F, **dict(args))
    assert new == OLD_BUILDERS[concept](e, F, **dict(args)), (
        e, F.name, concept, args)
    if not hasattr(F, "ballot_key"):
        return new, new
    return new, OLD_BUILDERS[concept](e, EveryBallot(F), **dict(args))


def ballot_concepts(m, rng, wide):
    """(rule, concept, arguments) for every voter, at the first state's
    profile and at one random profile, under plurality (one class per top)
    and the keyless veto rule. ``wide`` adds Borda and the concepts that
    take a ballot, alt drawn at random. On 4 candidates a knows formula
    holds 24 x 24^n comparisons, so there only plurality's are built, for
    voter 1."""
    e, orders = m.election, m.election.orders()
    profiles = [m.profiles[0],
                profile(*(rng.choice(orders).as_text() for _ in e.voters))]
    for rule in (Plurality, Veto, Borda) if wide else (Plurality, Veto):
        F = rule(m.tiebreak)
        for i in e.voters:
            if len(orders) < 24 or (rule is Plurality and i == 1):
                yield F, "knows_de_dicto", (("i", i),)
                yield F, "knows_de_re", (("i", i),)
            for p in profiles:
                yield F, "has_manipulation", (("i", i), ("p", p))
            if wide:
                yield F, "dominant_manipulation", (
                    ("i", i), ("alt", rng.choice(orders)))
                for p in profiles:
                    yield F, "manipulation_with", (
                        ("i", i), ("p", p), ("alt", rng.choice(orders)))
        for p in profiles:
            yield F, "equilibrium", (("p", p),)


def built_or_refused(build):
    """The formula build() returns, or the Indistinguishable message."""
    try:
        return build()
    except Indistinguishable as err:
        return str(err)


def assert_concepts_match(m, rng, conditional=True, wide=False):
    """Each concept formula denotes on m what its old builder's does."""
    for F, concept, args in ballot_concepts(m, rng, wide):
        new, old = ballot_formulas(concept, m.election, F, args)
        if old is not new:
            assert denotation(m, F, new) == denotation(m, F, old), concept
    if not conditional:
        return
    orders = m.election.orders()
    cps = [games.sincere_conditional_profile(m),
           tuple(tuple(rng.choice(orders) for _ in m.blocks(i))
                 for i in m.election.voters)]
    for F in (Plurality(m.tiebreak), Veto(m.tiebreak)):
        for cp in cps:
            new = built_or_refused(lambda: build_concept_formula(
                "conditional_equilibrium", m=m, F=F, cp=cp))
            old = built_or_refused(
                lambda: old_conditional_equilibrium(m, F, cp))
            if isinstance(old, str):
                assert new == old
            else:
                assert denotation(m, F, new) == denotation(m, F, old)


@given(m=pointed_models(), seed=st.integers(0, 2**32 - 1))
@settings(derandomize=True, deadline=None, max_examples=20)
def test_concept_formulas_match_the_per_ballot_builders(m, seed):
    # formulas grow as (m!)^n: 4 candidates take seconds per model
    assume(len(m.election.candidates) == 3)
    assert_concepts_match(m, random.Random(seed))


# voter 2 cannot tell voter 1's two rankings apart
DOUBT4X2 = make_model(Election(("a", "b", "c", "d"), 2), ["s", "t"],
                      [profile("a>b>c>d", "d>c>b>a"), profile("b>d>a>c", "d>c>b>a")],
                      {2: [["s", "t"]]}, tiebreak=pref("c>a>d>b"))


def test_concept_formulas_match_the_per_ballot_builders_on_fixtures(
        all_fixture_models):
    """The 3x2 fixtures, the 3x3 cube and a 4x2 model, every concept under
    plurality, veto and Borda."""
    rng = random.Random(13)
    for m in all_fixture_models.values():
        assert_concepts_match(m, rng, wide=True)
    # the old conditional-equilibrium builder takes seconds on the cube
    assert_concepts_match(CUBE3X3, rng, conditional=False, wide=True)
    assert_concepts_match(DOUBT4X2, rng, wide=True)


# ------------------------------------ concept formulas as reads of the tables


def test_conditional_equilibrium_formula_reads_as_the_winner_builder(
        all_fixture_models):
    """The formula read off the game's payoffs prints as the one that took
    each worst-case winner from the game's winners."""
    rng = random.Random(19)
    for m in [*all_fixture_models.values(), CUBE3X2]:
        orders = m.election.orders()
        cps = [games.sincere_conditional_profile(m)] + [
            tuple(tuple(rng.choice(orders) for _ in m.blocks(i))
                  for i in m.election.voters) for _ in range(2)]
        for F in (Plurality(m.tiebreak), Veto(m.tiebreak), Borda(m.tiebreak)):
            for cp in cps:
                new = built_or_refused(lambda: build_concept_formula(
                    "conditional_equilibrium", m=m, F=F, cp=cp))
                old = built_or_refused(
                    lambda: old_game_conditional_equilibrium(m, F, cp))
                if isinstance(old, str):
                    assert new == old
                else:
                    assert to_text(new) == to_text(old)


def winner_calls(build, rule, **args):
    F = CountingRule(rule)
    build(e=CUBE3X2.election, F=F, **args)
    return sum(F.calls.values())


def test_concept_formulas_decide_one_winner_per_ballot_class():
    """On 3x2, each profile the table reads costs its sincere winner and
    one winner per ballot class, where the direct builders paid two calls
    per ballot class: 3 classes under plurality, 6 under veto. equilibrium
    reads one table per voter, so it pays p's sincere winner once per voter
    (2 x (1 + 3)), not once per profile."""
    p, alt = profile("a>b>c", "c>b>a"), pref("c>a>b")
    concepts = {"knows_de_dicto": dict(i=1), "knows_de_re": dict(i=2),
                "dominant_manipulation": dict(i=1, alt=alt),
                "has_manipulation": dict(i=2, p=p), "equilibrium": dict(p=p)}

    def calls(rule, names):
        return {c: (winner_calls(OLD_BUILDERS[c], rule, **concepts[c]),
                    winner_calls(functools.partial(build_concept_formula, c), rule,
                                 **concepts[c])) for c in names}

    assert calls(F, concepts) == {
        "knows_de_dicto": (216, 144), "knows_de_re": (216, 144),
        "dominant_manipulation": (144, 96), "has_manipulation": (6, 4),
        "equilibrium": (12, 8)}
    assert calls(Veto(F.tiebreak), ("knows_de_dicto", "knows_de_re")) == {
        "knows_de_dicto": (432, 252), "knows_de_re": (432, 252)}


# ------------------------------------------------ the recursive tree walks

def old_fmt(phi):
    if isinstance(phi, And):
        return f"{old_fmt(phi.left)} & {old_fmt_unary(phi.right)}"
    return old_fmt_unary(phi)


def old_fmt_unary(phi):
    match phi:
        case Top():
            return "true"
        case Not(sub=Top()):
            return "false"
        case Not(sub=sub):
            return "~" + old_fmt_unary(sub)
        case Know(voter=i, sub=sub):
            return f"K{i} " + old_fmt_unary(sub)
        case Announce(announced=a, sub=sub):
            return f"[{old_fmt(a)}] " + old_fmt_unary(sub)
        case And():
            return "(" + old_fmt(phi) + ")"
        case ProfileAtom(profile=p):
            inner = "; ".join(
                f"{v}: {r.as_text()}" for v, r in enumerate(p.prefs, start=1)
            )
            return "profile{" + inner + "}"
        case PrefAtom(voter=i, order=r):
            return f"pref {i}({r.as_text()})"
        case CompAtom(voter=i, better=a, worse=b):
            return f"{i}: {a}>{b}"
        case WinsAtom(candidate=c):
            return f"wins {c}"
    raise TypeError(f"not a formula: {phi!r}")


def old_check_formula(phi, e):
    match phi:
        case ProfileAtom(profile=p):
            if len(p.prefs) != e.num_voters:
                raise IncompleteProfileAtom(
                    f"profile atom has {len(p.prefs)} voters, "
                    f"expected {e.num_voters}"
                )
            for r in p.prefs:
                if not model.ranks_every_candidate(r.order, e.candidates):
                    raise IncompleteProfileAtom(
                        f"profile atom ranking {r.as_text()} incomplete"
                    )
        case PrefAtom(voter=i, order=r):
            model.check_voter(i, e.num_voters)
            if not model.ranks_every_candidate(r.order, e.candidates):
                raise IncompleteProfileAtom(
                    f"pref atom ranking {r.as_text()} incomplete"
                )
        case CompAtom(voter=i, better=a, worse=b):
            model.check_voter(i, e.num_voters)
            logic._need_candidate(a, e)
            logic._need_candidate(b, e)
        case WinsAtom(candidate=c):
            logic._need_candidate(c, e)
        case Top():
            pass
        case Not(sub=sub):
            old_check_formula(sub, e)
        case And(left=l, right=r):
            old_check_formula(l, e)
            old_check_formula(r, e)
        case Know(voter=i, sub=sub):
            model.check_voter(i, e.num_voters)
            old_check_formula(sub, e)
        case Announce(announced=a, sub=sub):
            old_check_formula(a, e)
            old_check_formula(sub, e)
        case _:
            raise TypeError(f"not a formula: {phi!r}")


def old_expand_abbreviations(phi, e, F):
    """The recursive expansion, after old_check_formula: expand_abbreviations
    refuses a formula of another election as check_formula does."""
    old_check_formula(phi, e)
    profiles = e.all_profiles()

    def dis(selected):
        chosen = [ProfileAtom(p) for p in selected]
        if not chosen:
            anchor = ProfileAtom(profiles[0])
            return And(anchor, Not(anchor))
        return big_or(chosen)

    def walk(f):
        match f:
            case ProfileAtom():
                return f
            case PrefAtom(voter=i, order=r):
                return dis(p for p in profiles if p.pref(i) == r)
            case CompAtom(voter=i, better=a, worse=b):
                if a == b:
                    return dis([])
                return dis(p for p in profiles if p.pref(i).prefers(a, b))
            case WinsAtom(candidate=c):
                if F is None:
                    raise MissingTiebreak("winner atoms need a voting rule")
                return dis(p for p in profiles if F.winner(e, p) == c)
            case Top():
                return dis(profiles)
            case Not(sub=sub):
                return Not(walk(sub))
            case And(left=l, right=r):
                return And(walk(l), walk(r))
            case Know(voter=i, sub=sub):
                return Know(i, walk(sub))
            case Announce(announced=a, sub=sub):
                return Announce(walk(a), walk(sub))
        raise TypeError(f"not a formula: {f!r}")

    return walk(phi)


def old_reduce_announcements(phi):
    match phi:
        case Not(sub=sub):
            return Not(old_reduce_announcements(sub))
        case And(left=l, right=r):
            return And(old_reduce_announcements(l), old_reduce_announcements(r))
        case Know(voter=i, sub=sub):
            return Know(i, old_reduce_announcements(sub))
        case Announce(announced=a, sub=sub):
            return old_push(old_reduce_announcements(a),
                            old_reduce_announcements(sub))
        case _:
            return phi


def old_push(a, b):
    match b:
        case Not(sub=sub):
            return Implies(a, Not(old_push(a, sub)))
        case And(left=l, right=r):
            return And(old_push(a, l), old_push(a, r))
        case Know(voter=i, sub=sub):
            return Implies(a, Know(i, Implies(a, old_push(a, sub))))
        case _:
            return Implies(a, b)


CONNECTIVES = (Not, And, Know, Announce)


def old_eq(a, b):
    """The dataclass equality of formulas: same class and equal fields,
    connectives compared field by field on the Python stack."""
    if a.__class__ is not b.__class__:
        return False
    if not isinstance(a, CONNECTIVES):
        return a == b
    return all(old_eq(getattr(a, f.name), getattr(b, f.name))
               for f in dataclasses.fields(a))


def raised(run):
    """run()'s value, or the type and message of the error it raised."""
    try:
        return run()
    except (EpivoteError, TypeError) as err:
        return type(err), str(err)


NOT_FORMULAS = [And(WinsAtom("a"), 5), Not(Know(1, "x")),
                Announce(None, TRUE), Know(9, [])]


def assert_walks_match(phi, e, F, small):
    """Each fold-based walk gives the old walk's text, tree or error; the
    check also against the election small, where phi may not fit."""
    assert raised(lambda: to_text(phi)) == raised(lambda: old_fmt(phi))
    for where in (e, small):
        assert (raised(lambda: logic.check_formula(phi, where))
                == raised(lambda: old_check_formula(phi, where)))
    for rule in (F, None):
        new = raised(lambda: logic.expand_abbreviations(phi, e, rule))
        old = raised(lambda: old_expand_abbreviations(phi, e, rule))
        assert_same_tree(new, old)
    assert_same_tree(logic.reduce_announcements(phi),
                     old_reduce_announcements(phi))


def assert_same_tree(new, old):
    """Equal by the new equality and the old, with equal hashes and texts;
    or the same error."""
    if isinstance(old, tuple):
        assert new == old
        return
    assert new == old and old == new and old_eq(new, old)
    assert raised(lambda: hash(new)) == raised(lambda: hash(old))
    assert raised(lambda: to_text(new)) == raised(lambda: old_fmt(old))


E3X2 = CUBE3X2.election
E2X1 = Election(("a", "b"), 1)
E4X1 = Election(("a", "b", "c", "d"), 1)


def test_walks_match_the_recursive_oracles_on_drawn_formulas():
    """1,000 drawn formulas over 3 candidates and 2 voters, checked also
    over 2 candidates and 1 voter, and 200 over 4 candidates and 1 voter,
    checked also over 3 and 2: the checks reject many of them."""
    rng = random.Random(17)
    for e, small, count in ((E3X2, E2X1, 1000), (E4X1, E3X2, 200)):
        rule = Plurality(e.orders()[-1])
        for _ in range(count):
            phi = random_formula(rng, e, depth=rng.randrange(5))
            assert_walks_match(phi, e, rule, small)


def test_walks_match_the_recursive_oracles_on_malformed_trees():
    for phi in NOT_FORMULAS:
        assert_walks_match(phi, E3X2, F, E3X2)


def test_walks_match_the_recursive_oracles_on_fixture_formulas(
        all_fixture_models):
    """Every information set's characteristic formula and the sincere
    profile's conditional-equilibrium formula of each fixture."""
    for m in all_fixture_models.values():
        rule = Plurality(m.tiebreak)
        formulas = [characteristic_formula(m, block).formula
                    for i in m.election.voters for block in m.blocks(i)]
        formulas.append(build_concept_formula(
            "conditional_equilibrium", m=m, F=rule,
            cp=games.sincere_conditional_profile(m)))
        for phi in formulas:
            assert_walks_match(phi, m.election, rule, E3X2)


def test_walks_match_the_recursive_oracles_on_concept_formulas():
    rng = random.Random(19)
    orders = E3X2.orders()
    for i in E3X2.voters:
        p = profile(*(rng.choice(orders).as_text() for _ in E3X2.voters))
        for concept, args in [
                ("manipulation_with", dict(i=i, p=p, alt=orders[1])),
                ("has_manipulation", dict(i=i, p=p)),
                ("dominant_manipulation", dict(i=i, alt=orders[2])),
                ("knows_de_dicto", dict(i=i)),
                ("knows_de_re", dict(i=i)),
                ("equilibrium", dict(p=p))]:
            phi = build_concept_formula(concept, e=E3X2, F=F, **args)
            assert_walks_match(phi, E3X2, F, E3X2)


def test_equal_formulas_hash_alike():
    """The new equality agrees with the dataclass one on pairs of drawn
    formulas, and equal formulas hash alike."""
    rng = random.Random(23)
    atoms = [WinsAtom("a"), WinsAtom("b"), TRUE]
    for _ in range(2000):
        # shallow draws over few atoms, so some pairs are equal
        a, b = (random_formula(rng, Election(("a", "b"), 2), depth=2)
                for _ in range(2))
        a = rng.choice([a, copy.deepcopy(b), rng.choice(atoms)])
        assert (a == b) == old_eq(a, b) == (b == a)
        assert (a != b) == (not old_eq(a, b))
        if a == b:
            assert hash(a) == hash(b)
    assert Know(1, TRUE) != Know(2, TRUE)
    assert len({hash(Know(i, atoms[0])) for i in (1, 2, 3)}) == 3
    assert Not(TRUE) == FALSE and hash(Not(TRUE)) == hash(FALSE)
    assert Not(TRUE) != TRUE and Not(TRUE) != 5 and not (Not(TRUE) == "x")
    assert Not(5) == Not(5.0) and hash(Not(5)) == hash(Not(5.0))


# ------------------------------------------------ the recursive-descent parser

class OldParser(logic._Parser):
    """The grammar levels the precedence loop replaced: one method per
    level, with brackets read by atom on the Python stack."""

    def formula(self):
        out = self.implies()
        while self.at_sym("<->"):
            self.take()
            out = logic.Iff(out, self.implies())
        return out

    def implies(self):
        left = self.disjunction()
        if self.at_sym("->"):
            self.take()
            return Implies(left, self.implies())
        return left

    def disjunction(self):
        out = self.conjunction()
        while self.at_sym("|"):
            self.take()
            out = logic.Or(out, self.conjunction())
        return out

    def conjunction(self):
        out = self.unary()
        while self.at_sym("&"):
            self.take()
            out = And(out, self.unary())
        return out

    def unary(self):
        wraps = []
        while True:
            kind, text, pos = self.take()
            if kind == "sym" and text == "~":
                wraps.append(Not)
            elif kind == "sym" and text == "[":
                wraps.append(functools.partial(Announce, self.formula()))
                self.expect_sym("]")
            elif kind == "word" and re.fullmatch(r"K[0-9]*", text):
                if text == "K":
                    kind, text, pos = self.take()
                    if kind != "int":
                        raise FormulaSyntaxError(pos, "K needs a voter number")
                voter = int(text.removeprefix("K"))
                self._check_voter(voter, pos)
                wraps.append(functools.partial(Know, voter))
            else:
                self.k -= 1
                return functools.reduce(lambda f, wrap: wrap(f),
                                        reversed(wraps), self.atom())

    def atom(self):
        if self.at_sym("("):
            self.take()
            out = self.formula()
            self.expect_sym(")")
            return out
        return super().atom()


def old_parse(src, e):
    p = OldParser(src, e)
    try:
        out = p.formula()
    except RecursionError:
        raise SizeLimit("formula nests too deeply") from None
    kind, text, pos = p.peek()
    if kind != "end":
        raise FormulaSyntaxError(pos, f"trailing input {text!r}")
    return out


def parsed(parser, src, e):
    """parser's tree, or the type, message and position of its error."""
    try:
        return parser(src, e)
    except EpivoteError as err:
        return type(err), str(err), getattr(err, "pos", None)


def sharing(phi):
    """phi's connectives in pre-order, each as the number of the first
    occurrence of that node: equal lists mean equally shared nodes."""
    first, out, stack = {}, [], [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, CONNECTIVES):
            out.append(first.setdefault(id(f), len(first)))
            stack += reversed([getattr(f, x.name) for x in dataclasses.fields(f)])
    return out


def assert_parses_alike(src, e):
    new, old = parsed(parse, src, e), parsed(old_parse, src, e)
    assert new == old, src
    if not isinstance(old, tuple):
        assert sharing(new) == sharing(old), src


def vocabulary(e):
    """Whole atoms over e, and tokens: the operators, brackets, and some
    that cannot start or continue a formula over e."""
    c, order = e.candidates, ">".join(e.candidates)
    atoms = [f"wins {c[0]}", f"1: {c[0]}>{c[-1]}", f"pref 1({order})",
             "profile{" + "; ".join(f"{v}: {order}" for v in e.voters) + "}",
             "true", "false"]
    tokens = ["{", "}", ":", ";", ">", "K", "K1", f"K{e.num_voters + 1}",
              "1", "2", "wins", "pref", "profile", *c, "z", "@"]
    return atoms, ["~", "K1", "&", "|", "->", "<->", "(", ")", "[", "]"], tokens


def formula_tokens(rng, atoms, depth):
    """The tokens of a random well-formed formula over the given atoms."""
    if depth == 0 or rng.random() < 0.25:
        return [rng.choice(atoms)]
    kind = rng.randrange(5)
    if kind == 0:
        return [rng.choice(["~", "K1"])] + formula_tokens(rng, atoms, depth - 1)
    if kind == 1:
        return (["["] + formula_tokens(rng, atoms, depth - 1) + ["]"]
                + formula_tokens(rng, atoms, depth - 1))
    if kind == 2:
        return ["("] + formula_tokens(rng, atoms, depth - 1) + [")"]
    return (formula_tokens(rng, atoms, depth - 1)
            + [rng.choice(["&", "|", "->", "<->"])]
            + formula_tokens(rng, atoms, depth - 1))


def token_soup(rng, vocab):
    """Random tokens and whole atoms, or a well-formed formula with up to
    two tokens replaced, inserted or deleted; separated by spaces or not
    at all."""
    atoms, syntax, tokens = vocab
    if rng.random() < 0.5:
        pool = atoms * 3 + syntax * 2 + tokens
        out = [rng.choice(pool) for _ in range(rng.randint(1, 12))]
    else:
        out = formula_tokens(rng, atoms, rng.randrange(5))
        for _ in range(rng.randrange(3)):
            k = rng.randrange(len(out) + 1)
            out[k:k + rng.randrange(2)] = rng.choice(
                [[], [rng.choice(syntax + tokens)]])
    return rng.choice([" ", " ", ""]).join(out)


SHAPES = {"3x2": E3X2, "2x1": E2X1, "4x3": Election(("a", "b", "c", "d"), 3)}


@pytest.mark.parametrize("shape", SHAPES)
def test_parser_matches_the_recursive_oracle_on_token_soup(monkeypatch, shape):
    """100,000 strings per shape. Both parsers read the tokens of one
    tokenizer call: the tokenizer is shared and takes half the time."""
    monkeypatch.setattr(logic, "_tokenize",
                        functools.lru_cache(maxsize=1)(logic._tokenize))
    e, rng = SHAPES[shape], random.Random(shape)
    vocab = vocabulary(e)
    for _ in range(100_000):
        assert_parses_alike(token_soup(rng, vocab), e)


def test_printed_formulas_parse_back_as_the_oracle_reads_them():
    """to_text of drawn formulas over each election shape: parse gives the
    formula back, and the recursive parser the same tree."""
    rng = random.Random(29)
    for e, count in zip(SHAPES.values(), (700, 700, 150)):
        for _ in range(count):
            phi = random_formula(rng, e, depth=rng.randrange(6))
            assert parse(to_text(phi), e) == phi
            assert_parses_alike(to_text(phi), e)


def string_literals():
    """Every string constant in the test modules."""
    return sorted({node.value for path in pathlib.Path(__file__).parent.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)})


def test_parser_matches_the_recursive_oracle_on_the_tests_strings():
    """Every string in the tests, formula or not, over each election shape."""
    texts = string_literals()
    assert "pref 1(a>b>c) & ~(K1 wins b & true)" in texts
    for e in SHAPES.values():
        for text in texts:
            assert_parses_alike(text, e)


def old_repr(phi):
    """The dataclass repr of a formula, field by field on the Python stack."""
    if not isinstance(phi, CONNECTIVES):
        return repr(phi)
    args = ", ".join(f"{f.name}={old_repr(getattr(phi, f.name))}"
                     for f in dataclasses.fields(phi))
    return f"{type(phi).__qualname__}({args})"


def test_repr_matches_the_dataclass_repr():
    rng = random.Random(31)
    for e, count in zip(SHAPES.values(), (300, 300, 50)):
        for _ in range(count):
            phi = random_formula(rng, e, depth=rng.randrange(6))
            assert repr(phi) == old_repr(phi)
    for phi in NOT_FORMULAS + [FALSE, Know(2, FALSE), Announce(TRUE, TRUE)]:
        assert repr(phi) == old_repr(phi)
    assert old_repr(Know(1, WinsAtom("a"))) == (
        "Know(voter=1, sub=WinsAtom(candidate='a'))")
