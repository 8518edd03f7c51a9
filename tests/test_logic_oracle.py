"""The model checker and the concept-formula builder against their old forms.

``old_eval`` is the evaluator the memoised one replaced: it decides K_i by
evaluating the subformula at every state of the block, and it builds a
restricted model (``model.restrict``) for each state at which an
announcement is evaluated. ``old_conditional_equilibrium`` is the builder
that computed every conjunct anew for each combination of information sets,
with one winner call per ballot. Models come from the ``pointed_models``
strategy in conftest, the five fixtures and the hypercubes.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import pointed_models, random_formula
from epivote import (
    And,
    Announce,
    CompAtom,
    Election,
    Indistinguishable,
    Know,
    MissingTiebreak,
    Not,
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
from epivote.logic import Implies, big_and, characteristic_formula

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
            assert to_text(new) == to_text(
                old_conditional_equilibrium(m, rule, cp))


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
    assert counts == {"winner": 24, "shape": 1}


def test_conditional_equilibrium_formula_refines_once(monkeypatch,
                                                      all_fixture_models):
    """One partition refinement and one class-formula table per formula,
    however many information sets need a characteristic formula."""
    counts = {"_bisim_rounds": 0, "_class_formula_table": 0}
    for name in counts:
        real = getattr(logic, name)

        def counted(*args, name=name, real=real):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(logic, name, counted)
    for m in all_fixture_models.values():
        counts.update(_bisim_rounds=0, _class_formula_table=0)
        build_concept_formula("conditional_equilibrium", m=m,
                              F=Plurality(m.tiebreak),
                              cp=games.sincere_conditional_profile(m))
        assert counts == {"_bisim_rounds": 1, "_class_formula_table": 1}


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
