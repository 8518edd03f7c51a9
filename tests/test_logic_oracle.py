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
in two passes. ``old_has_manipulation``, ``old_knows_de_dicto``,
``old_knows_de_re`` and ``old_equilibrium`` are the concept builders that
tried every ballot, not one per ballot class. Models come from the
``pointed_models`` strategy in conftest, the five fixtures and the
hypercubes.
"""

import functools
import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import pointed_models, random_formula
from test_games_oracle import Veto
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
    Plurality,
    PrefAtom,
    ProfileAtom,
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
    formula_manipulation_with,
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


def assert_own_preference_matches(m):
    want = old_introspection_violations(m)
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
    classes, formulas = logic._refine(m)
    rounds = old_bisim_rounds(m)
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

def old_has_manipulation(e, F, i, p):
    return big_or(formula_manipulation_with(e, F, i, p, alt)
                  for alt in e.orders())


def old_knows_de_dicto(e, F, i):
    return Know(i, big_and(
        Implies(ProfileAtom(p), old_has_manipulation(e, F, i, p))
        for p in e.all_profiles()))


def old_knows_de_re(e, F, i):
    return big_or(
        Know(i, big_and(
            Implies(ProfileAtom(p), formula_manipulation_with(e, F, i, p, alt))
            for p in e.all_profiles()))
        for alt in e.orders())


def old_equilibrium(e, F, p):
    return big_and(Not(formula_manipulation_with(e, F, i, p, alt))
                   for i in e.voters for alt in e.orders())


OLD_BUILDERS = {
    "has_manipulation": old_has_manipulation,
    "knows_de_dicto": old_knows_de_dicto,
    "knows_de_re": old_knows_de_re,
    "equilibrium": old_equilibrium,
}


@functools.lru_cache(maxsize=None)
def ballot_formulas(concept, e, F, args):
    """The concept formula and its per-ballot oracle's, built once per
    election, rule and arguments, since neither reads a model. Under the
    keyless Veto every ballot is its own class, so the texts must agree."""
    new = build_concept_formula(concept, e=e, F=F, **dict(args))
    old = OLD_BUILDERS[concept](e, F, **dict(args))
    if isinstance(F, Veto):
        assert to_text(new) == to_text(old), concept
    return new, old


def ballot_concepts(m, rng):
    """(rule, concept, arguments) for every voter, at the first state's
    profile and at one random profile."""
    e = m.election
    profiles = [m.profiles[0],
                profile(*(rng.choice(e.orders()).as_text() for _ in e.voters))]
    for F in (Plurality(m.tiebreak), Veto(m.tiebreak)):
        for i in e.voters:
            yield F, "knows_de_dicto", (("i", i),)
            yield F, "knows_de_re", (("i", i),)
            for p in profiles:
                yield F, "has_manipulation", (("i", i), ("p", p))
        for p in profiles:
            yield F, "equilibrium", (("p", p),)


def built_or_refused(build):
    """The formula build() returns, or the Indistinguishable message."""
    try:
        return build()
    except Indistinguishable as err:
        return str(err)


def assert_concepts_match(m, rng, conditional=True):
    """Each concept formula denotes on m what its old builder's does."""
    for F, concept, args in ballot_concepts(m, rng):
        new, old = ballot_formulas(concept, m.election, F, args)
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


def test_concept_formulas_match_the_per_ballot_builders_on_fixtures(
        all_fixture_models):
    rng = random.Random(13)
    for m in all_fixture_models.values():
        assert_concepts_match(m, rng)
    # the old conditional-equilibrium builder takes seconds on the cube
    assert_concepts_match(CUBE3X3, rng, conditional=False)
