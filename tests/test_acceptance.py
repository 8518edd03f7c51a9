"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line with its headline numbers; a failing
assertion marks the criterion failed. Time budgets are asserted where a
criterion carries one.
"""

import itertools
import random
import time

from epivote import (
    Election,
    KnowledgeProfile,
    Plurality,
    build_concept_formula,
    check_axioms,
    check_preservation,
    conditional_profile,
    dominant_manipulation_of_infoset,
    dominant_preference,
    enumerate_conditional_equilibria,
    evaluate,
    expand_abbreviations,
    hypercube,
    is_conditional_equilibrium,
    is_equilibrium_profile,
    is_manipulation,
    knows_manipulation,
    manipulations,
    parse,
    payoff_matrix,
    pref,
    random_announcement,
    random_model,
    reduce_announcements,
    search_counterexample,
    update,
    update_conditional_profile,
    valid_on,
)
from conftest import random_formula
from test_games import (
    ALIGNED_GRID,
    HIDDEN_FLIP_GRID,
    MUTUAL_DOUBT_GRID,
    NESTED_DOUBT_GRID,
    OPPOSED_GRID,
    parse_grid,
)

E2 = Election(("a", "b", "c"), 2)
F = Plurality(pref("b>a>c"))


def grid_mismatches(m, grid_text, by_top=True):
    rows, want_pay, want_stars = parse_grid(grid_text)
    mat = payoff_matrix(m, F, by_top=by_top)
    bad = []
    if list(mat.row_labels) != rows:
        bad.append("row labels")
    for ri, r in enumerate(mat.row_labels):
        for ci in range(len(mat.col_labels)):
            if mat.payoffs[ri][ci] != want_pay[(r, ci)]:
                bad.append((r, ci, "payoff"))
            if mat.equilibria[ri][ci] != ((r, ci) in want_stars):
                bad.append((r, ci, "star"))
    return mat, bad


def test_criterion_01_single_state_grids(known_opposed, known_aligned):
    t0 = time.monotonic()
    mat_o, bad_o = grid_mismatches(known_opposed, OPPOSED_GRID)
    mat_a, bad_a = grid_mismatches(known_aligned, ALIGNED_GRID)
    assert not bad_o and not bad_a, (bad_o, bad_a)

    def stars(mat):
        return {
            (mat.row_labels[ri], mat.col_labels[ci])
            for ri in range(3) for ci in range(3)
            if mat.equilibria[ri][ci]
        }

    assert stars(mat_o) == {("a", "b"), ("b", "b")}
    assert stars(mat_a) == {("a", "b"), ("b", "a"), ("b", "b"), ("c", "c")}
    took = time.monotonic() - t0
    assert took < 1.0
    print(f"criterion 1: PASS - both 3x3 grids exact, "
          f"equilibrium sets match ({took:.2f}s)")


def test_criterion_02_two_state_grid(hidden_flip):
    t0 = time.monotonic()
    mat, bad = grid_mismatches(hidden_flip, HIDDEN_FLIP_GRID)
    assert not bad, bad
    want_winners = [
        "aa bb aa", "ab bb ab", "aa bb ac",
        "ba bb ba", "bb bb bb", "ba bb bc",
        "aa bb ca", "ab bb cb", "aa bb cc",
    ]
    got_winners = [" ".join(mat.winners[ri]) for ri in range(9)]
    assert got_winners == want_winners
    eq = {
        (mat.row_labels[ri], mat.col_labels[ci])
        for ri in range(9) for ci in range(3) if mat.equilibria[ri][ci]
    }
    assert eq == {(xy, "b") for xy in mat.row_labels if xy != "cc"}
    took = time.monotonic() - t0
    assert took < 1.0
    print(f"criterion 2: PASS - 9x3 winners and payoff grids exact, "
          f"8 equilibria all in column b ({took:.2f}s)")


def test_criterion_03_three_state_grids(nested_doubt, mutual_doubt):
    t0 = time.monotonic()
    _, bad_n = grid_mismatches(nested_doubt, NESTED_DOUBT_GRID)
    mat_m, bad_m = grid_mismatches(mutual_doubt, MUTUAL_DOUBT_GRID)
    assert not bad_n and not bad_m, (bad_n, bad_m)
    # spot anchors in the mutual-doubt grid
    assert mat_m.payoff_at("ac", "bc") == "11.12"
    assert mat_m.winners_at("ac", "bc") == "bbc"
    assert mat_m.is_equilibrium_at("ac", "bc")
    assert mat_m.payoff_at("cc", "cc") == "02.22"
    assert not mat_m.is_equilibrium_at("cc", "cc")
    # voter 2 votes c at her singleton set in some equilibrium, never at
    # the set that straddles both profiles
    eqs = enumerate_conditional_equilibria(mutual_doubt, F, by_top=True)
    assert any(cp[1][1].top == "c" for cp in eqs)
    assert all(cp[1][0].top != "c" for cp in eqs)
    took = time.monotonic() - t0
    assert took < 5.0
    print(f"criterion 3: PASS - both 9x9 grids exact, anchors hold, "
          f"hedge asymmetry over {len(eqs)} equilibria ({took:.2f}s)")


def test_criterion_04_example_formulas(nested_doubt):
    kp = KnowledgeProfile(nested_doubt, "t")
    texts = [
        "1: a>c",
        "~K2 1: a>c",
        "[1: a>c] K2 1: a>c",
        "K1 pref 2(c>b>a) & ~(K1 K2 pref 1(a>b>c) | K1 ~K2 pref 1(a>b>c))",
    ]
    for src in texts:
        assert evaluate(kp, F, parse(src, E2)), src
    print(f"criterion 4: PASS - all {len(texts)} formulas true at the point")


def test_criterion_05_announcement_dynamics(hidden_flip):
    import dataclasses

    # t side: announcing the comparison keeps the hedged profile in play
    cp_bc = conditional_profile(hidden_flip, {
        1: {"t": pref("b>a>c"), "u": pref("c>b>a")},
        2: {"t": pref("b>c>a")},
    })
    u_t = update(hidden_flip, parse("1: a>c", E2), F)
    assert u_t.survived == ("t",)
    new_bc = update_conditional_profile(hidden_flip, cp_bc, u_t)
    assert [r.top for row in new_bc for r in row] == ["b", "b"]
    ok, _ = is_conditional_equilibrium(u_t.model, F, new_bc)
    assert ok

    # u side: the full-reversal announcement breaks (ac, b)
    at_u = dataclasses.replace(hidden_flip, point="u")
    cp_ac = conditional_profile(at_u, {
        1: {"t": pref("a>b>c"), "u": pref("c>b>a")},
        2: {"t": pref("b>c>a")},
    })
    u_u = update(at_u, parse("pref 1(c>b>a)", E2), F)
    assert u_u.survived == ("u",)
    assert len(u_u.model.states) == 1
    new_ac = update_conditional_profile(at_u, cp_ac, u_u)
    assert [r.top for row in new_ac for r in row] == ["c", "b"]
    ok, blocker = is_conditional_equilibrium(u_u.model, F, new_ac)
    assert not ok and blocker is not None
    eq_tops = {
        tuple(row[0].top for row in cp)
        for cp in enumerate_conditional_equilibria(u_u.model, F, by_top=True)
    }
    assert ("c", "c") in eq_tops
    print("criterion 5: PASS - (bc,b)->(b,b) stays an equilibrium, "
          "(ac,b)->(c,b) does not, (c,c) equilibrates the updated game")


def test_criterion_06_hypercubes_never_know():
    t0 = time.monotonic()
    shapes = [(2, 2), (2, 3), (3, 2), (3, 3)]
    candidates = ("a", "b", "c", "d")
    checked = 0
    for n, m in shapes:
        e = Election(candidates[:m], n)
        for tiebreak in e.orders():
            cube = hypercube(e, tiebreak=tiebreak)
            rule = Plurality(tiebreak)
            for s in cube.states:
                kp = KnowledgeProfile(cube, s)
                for i in e.voters:
                    for mode in ("de_dicto", "de_re"):
                        known, _ = knows_manipulation(kp, rule, i, mode)
                        assert not known, (n, m, tiebreak, s, i, mode)
                        checked += 1
    took = time.monotonic() - t0
    assert took < 60.0
    print(f"criterion 6: PASS - {checked} point/voter/mode checks across "
          f"{len(shapes)} hypercube shapes, no knowledge anywhere ({took:.1f}s)")


def test_criterion_07_dominance_collapses_on_the_hypercube():
    t0 = time.monotonic()
    cube = hypercube(E2, tiebreak=F.tiebreak)
    agreements = 0
    for s in cube.states:
        kp = KnowledgeProfile(cube, s)
        for i in E2.voters:
            truth = cube.profile_at(s).pref(i)
            for alt in E2.orders():
                infoset = dominant_manipulation_of_infoset(kp, F, i, alt)
                plain = dominant_preference(F, E2, i, truth, alt)
                assert infoset == plain, (s, i, alt)
                agreements += 1
    took = time.monotonic() - t0
    assert took < 60.0
    print(f"criterion 7: PASS - information-set dominance matches plain "
          f"dominance on all {agreements} cases ({took:.1f}s)")


def test_criterion_08_preservation_and_hunts():
    t0 = time.monotonic()
    rng = random.Random(2026)
    pairs = 0
    for _ in range(1000):
        m = random_model(rng)
        rule = Plurality(m.tiebreak)
        phi = random_announcement(rng, m, keep_point=True)
        pairs += 1
        for i in m.election.voters:
            for prop in ("knowledge_de_re", "knowledge_de_dicto"):
                rep = check_preservation(m, rule, phi, prop, voter=i)
                assert rep.preserved, (prop, i, m, phi)
    found = {}
    for prop in (
        "dominant_manipulation",
        "conditional_equilibrium",
        "not_conditional_equilibrium",
    ):
        hit = search_counterexample(prop, F=F, seed=0, budget=2000)
        assert hit.found, prop
        found[prop] = hit.tries
    took = time.monotonic() - t0
    assert took < 120.0
    print(f"criterion 8: PASS - knowledge preserved on {pairs} pairs; "
          f"counterexamples at tries {sorted(found.values())} ({took:.1f}s)")


def test_criterion_09_logic_faithfulness(all_fixture_models):
    t0 = time.monotonic()
    rng = random.Random(77)
    pairs = 0
    for _ in range(500):
        m = random_model(rng)
        rule = Plurality(m.tiebreak)
        phi = random_formula(rng, m.election)
        kp = m.pointed()
        direct = evaluate(kp, rule, phi)
        assert evaluate(kp, rule, expand_abbreviations(phi, m.election, rule)) == direct
        assert evaluate(kp, rule, reduce_announcements(phi)) == direct
        rep = check_axioms(m)
        assert rep.exclusivity_valid and rep.introspection_valid
        pairs += 1

    concept_checks = 0
    for name, m in all_fixture_models.items():
        e = m.election
        orders = e.orders()
        for s in m.states:
            kp = KnowledgeProfile(m, s)
            p = m.profile_at(s)
            for i in e.voters:
                for alt in orders:
                    phi = build_concept_formula(
                        "manipulation_with", e=e, F=F, i=i, p=p, alt=alt)
                    assert evaluate(kp, F, phi) == is_manipulation(F, e, p, i, alt)
                    phi = build_concept_formula(
                        "dominant_manipulation", e=e, F=F, i=i, alt=alt)
                    assert evaluate(kp, F, phi) == dominant_preference(
                        F, e, i, p.pref(i), alt)
                    concept_checks += 2
                phi = build_concept_formula("has_manipulation", e=e, F=F, i=i, p=p)
                assert evaluate(kp, F, phi) == bool(manipulations(F, e, p, i))
                for mode in ("de_dicto", "de_re"):
                    phi = build_concept_formula(f"knows_{mode}", e=e, F=F, i=i)
                    assert evaluate(kp, F, phi) == knows_manipulation(kp, F, i, mode)[0]
                concept_checks += 3
            for q in e.all_profiles():
                phi = build_concept_formula("equilibrium", e=e, F=F, p=q)
                assert evaluate(kp, F, phi) == is_equilibrium_profile(F, e, q, p)
                concept_checks += 1
        # conditional equilibria: sweep every profile on the smaller models,
        # sample the four-set ones
        space = [
            list(itertools.product(orders, repeat=len(m.blocks(i))))
            for i in e.voters
        ]
        total = 1
        for rows in space:
            total *= len(rows)
        if total <= 216:
            cps = itertools.product(*space)
        else:
            sample_rng = random.Random(5)
            cps = (
                tuple(sample_rng.choice(rows) for rows in space)
                for _ in range(120)
            )
        for cp in cps:
            phi = build_concept_formula(
                "conditional_equilibrium", m=m, F=F, cp=cp)
            ok, _ = is_conditional_equilibrium(m, F, cp)
            assert valid_on(m, F, phi) == ok, (name, cp)
            concept_checks += 1
    took = time.monotonic() - t0
    print(f"criterion 9: PASS - {pairs} model/formula pairs agree under "
          f"expansion and reduction, {concept_checks} concept checks "
          f"({took:.1f}s)")


def test_criterion_10_oracle_equivalence(all_fixture_models):
    t0 = time.monotonic()

    def naive_winner(e, tops, tiebreak_order):
        counts = {c: 0 for c in e.candidates}
        for c in tops:
            counts[c] += 1
        best = max(counts.values())
        leaders = [c for c in e.candidates if counts[c] == best]
        for c in tiebreak_order:
            if c in leaders:
                return c
        raise AssertionError("tiebreak order missed the leaders")

    def naive_winners(m, tiebreak_order, cp):
        out = []
        for s in m.states:
            tops = []
            for vi, i in enumerate(m.election.voters):
                block_index = list(m.blocks(i)).index(m.block_of(i, s))
                tops.append(cp[vi][block_index].order[0])
            out.append(naive_winner(m.election, tops, tiebreak_order))
        return out

    def oracle(m, tiebreak_order, cp):
        """Maximin deviation scan built only on model accessors."""
        winners = naive_winners(m, tiebreak_order, cp)
        for vi, i in enumerate(m.election.voters):
            blocks = list(m.blocks(i))
            for k, block in enumerate(blocks):
                truth = m.profile_at(block[0]).pref(i).order
                score = {c: len(truth) - 1 - truth.index(c) for c in truth}
                mine = min(
                    score[w] for s, w in zip(m.states, winners) if s in block
                )
                for alt in m.election.orders():
                    row = list(cp[vi])
                    row[k] = alt
                    dev = tuple(
                        tuple(row) if j == vi else cp[j]
                        for j in range(len(cp))
                    )
                    worst = min(
                        score[w]
                        for s, w in zip(m.states, naive_winners(m, tiebreak_order, dev))
                        if s in block
                    )
                    if worst > mine:
                        return False
        return True

    rng = random.Random(55)
    verdicts = 0
    models = [random_model(rng) for _ in range(120)]
    models.extend(all_fixture_models.values())
    for m in models:
        tiebreak = m.tiebreak if m.tiebreak else pref("b>a>c")
        rule = Plurality(tiebreak)
        space = [
            list(itertools.product(m.election.orders(),
                                   repeat=len(m.blocks(i))))
            for i in m.election.voters
        ]
        for cp in itertools.islice(itertools.product(*space), 200):
            mine, _ = is_conditional_equilibrium(m, rule, cp)
            assert mine == oracle(m, tiebreak.order, cp), (m, cp)
            verdicts += 1
    took = time.monotonic() - t0
    assert took < 120.0
    print(f"criterion 10: PASS - {verdicts} verdicts agree with the "
          f"brute-force oracle on {len(models)} models ({took:.1f}s)")
