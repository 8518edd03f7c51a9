"""The four benchmark workloads: inputs, operations, output encodings, checks.

Every input is generated here from the workload seed, with this module's own
random draws, and handed to the library as plain data (elections, profiles,
partitions, formula text, model files, argv lists). Each workload is a list
of operations that the runner cycles through in whole passes.

An operation's result is turned into a canonical, JSON-able encoding before
it is checked. Encodings use only public fields of the results (ballots as
text, state names, exit codes and printed output), so an internal redesign
of the library that keeps its answers keeps its encodings. Where a result is
a formula, it is encoded by the states it denotes, not by its syntax tree.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import random
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

MODULES = ("model", "rules", "strategic", "games", "logic", "dynamics", "modelfile", "cli")

FIXTURES = ("hidden-flip", "known-aligned", "known-opposed", "mutual-doubt", "nested-doubt")

ABC = ("a", "b", "c")
ABCD = ("a", "b", "c", "d")


def load_epivote() -> SimpleNamespace:
    """Import epivote afresh and return its layer modules by short name.

    Previously imported epivote modules are dropped first, so each call pays
    the full import and starts with an empty winner cache.
    """
    for name in [n for n in sys.modules if n == "epivote" or n.startswith("epivote.")]:
        del sys.modules[name]
    importlib.import_module("epivote")
    return SimpleNamespace(**{n: importlib.import_module(f"epivote.{n}") for n in MODULES})


@dataclass
class Op:
    """One operation: a call into the library and how to judge its result."""

    kind: str
    fn: Callable[[], object]
    encode: Callable[[object], object]
    validate: Callable[[object], str | None] | None = None
    cold: bool = False  # clear the winner cache first, as a fresh process would
    args: tuple = ()  # inputs, kept for the cross-checks
    id: int = -1


@dataclass
class Workload:
    """Operations in pass order (numbered here), and what surrounds them."""

    ops: list[Op]
    warmup: list[Callable[[], object]]
    summary: dict
    cross_check: Callable[[random.Random, dict], list[str]]
    clear_cache: Callable[[], None]
    close: Callable[[], None] = lambda: None

    def __post_init__(self):
        for k, op in enumerate(self.ops):
            op.id = k


def _clear_winner_cache(ep) -> Callable[[], None]:
    cached = getattr(ep.rules, "_plurality_from_tops", None)
    return getattr(cached, "cache_clear", lambda: None)


# ------------------------------------------------------------ generated data

def orders(cands) -> list[tuple[str, ...]]:
    return list(itertools.permutations(cands))


def otext(order) -> str:
    return ">".join(order)


@dataclass
class ModelSpec:
    """A model as plain data: the generator's output, before the library."""

    cands: tuple[str, ...]
    voters: int
    states: tuple[str, ...]
    profiles: dict  # state -> tuple of orders, one per voter
    partitions: dict  # voter -> list of blocks (lists of states)
    tiebreak: tuple[str, ...]
    point: str | None

    def blocks_per_voter(self) -> list[int]:
        return [len(self.partitions[i]) for i in range(1, self.voters + 1)]

    def text(self) -> str:
        lines = [f"candidates: {' '.join(self.cands)}", f"voters: {self.voters}",
                 f"tiebreak: {' '.join(self.tiebreak)}"]
        for s in self.states:
            lines.append(f"state {s} = " + " ; ".join(
                f"{i}: {otext(o)}" for i, o in enumerate(self.profiles[s], start=1)))
        for i in range(1, self.voters + 1):
            lines.append(f"indist {i}: " + " ".join(
                "{" + " ".join(b) + "}" for b in self.partitions[i]))
        if self.point is not None:
            lines.append(f"point: {self.point}")
        return "\n".join(lines) + "\n"


def spec_with_blocks(rng: random.Random, cands, voter_choices, state_choices,
                     blocks: int, distinct: bool = False) -> ModelSpec:
    """A random model with exactly `blocks` information sets over all voters.

    Each voter's states are cut at random into her share of the blocks, and
    each of her blocks gets one random ranking: her own, constant on the
    block as the model class requires. Nothing is drawn and thrown away
    except, with distinct, drawings in which two states share a profile;
    then profile atoms alone separate every state, and characteristic
    formulas always exist.
    """
    ords = orders(cands)
    while True:
        voters, n = rng.choice(voter_choices), rng.choice(state_choices)
        if voters <= blocks <= voters * n:
            break
    states = tuple(f"s{j}" for j in range(n))
    share = [1] * voters
    for _ in range(blocks - voters):
        share[rng.choice([i for i in range(voters) if share[i] < n])] += 1
    while True:
        partitions, own = {}, {}
        for i in range(voters):
            shuffled = list(states)
            rng.shuffle(shuffled)
            cuts = [0] + sorted(rng.sample(range(1, n), share[i] - 1)) + [n]
            partitions[i + 1] = [shuffled[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
            for block in partitions[i + 1]:
                ranking = rng.choice(ords)
                own.update({(i, s): ranking for s in block})
        profiles = {s: tuple(own[(i, s)] for i in range(voters)) for s in states}
        if not distinct or len(set(profiles.values())) == n:
            return ModelSpec(tuple(cands), voters, states, profiles, partitions,
                             rng.choice(ords), rng.choice(states))


def cube_spec(cands, voters: int, tiebreak) -> ModelSpec:
    """The hypercube as plain data: one state per profile, voters know their own."""
    ords = orders(cands)
    profiles = {}
    for combo in itertools.product(ords, repeat=voters):
        profiles["_".join("".join(o) for o in combo)] = combo
    states = tuple(profiles)
    partitions = {}
    for i in range(1, voters + 1):
        groups: dict = {}
        for s in states:
            groups.setdefault(profiles[s][i - 1], []).append(s)
        partitions[i] = list(groups.values())
    return ModelSpec(tuple(cands), voters, states, profiles, partitions, tuple(tiebreak), None)


def build_model(ep, spec: ModelSpec):
    M = ep.model
    pref = lambda o: M.Preference(tuple(o))
    return M.make_model(
        M.Election(spec.cands, spec.voters),
        spec.states,
        {s: M.Profile(tuple(pref(o) for o in spec.profiles[s])) for s in spec.states},
        {i: [list(b) for b in blocks] for i, blocks in spec.partitions.items()},
        tiebreak=pref(spec.tiebreak),
        point=spec.point,
    )


def fixture_specs(root: Path) -> dict[str, str]:
    return {name: (root / "fixtures" / f"{name}.model").read_text() for name in FIXTURES}


# ----------------------------------------------------------------- formulas

def atom(rng: random.Random, cands, voters: int) -> str:
    kind = rng.random()
    if kind < 0.3:
        return f"wins {rng.choice(cands)}"
    if kind < 0.8:
        x, y = rng.sample(cands, 2)
        return f"{rng.randint(1, voters)}: {x}>{y}"
    return f"pref {rng.randint(1, voters)}({otext(rng.choice(orders(cands)))})"


def boolean(rng: random.Random, cands, voters: int) -> str:
    """A negated or plain atom, or two of them joined by &, | or ->."""
    lits = [("~" if rng.random() < 0.3 else "") + atom(rng, cands, voters)
            for _ in range(rng.choice((1, 2)))]
    if len(lits) == 1:
        return lits[0]
    return "(" + f" {rng.choice(('&', '|', '->'))} ".join(lits) + ")"


def literal(rng: random.Random, cands, voters: int) -> str:
    """A pairwise comparison or its negation: true at half of a hypercube's states."""
    x, y = rng.sample(cands, 2)
    return f"{'~' if rng.random() < 0.5 else ''}{rng.randint(1, voters)}: {x}>{y}"


def formula(rng: random.Random, cands, voters: int, k: int, a: int, big: bool) -> str:
    """Text of a formula with K-nesting depth k and announcement depth a.

    Announcements announce knowledge-free formulas. With big, meant for the
    216-state cube, every announcement is a single comparison literal, every
    K sits inside the announcements, and the propositional parts join two
    comparison literals: each literal holds at half the states, and each
    announcement is evaluated once per state rather than once per state of a
    block, so the cost of one formula varies little from seed to seed.
    """
    if a and (not k or big or rng.random() < 0.5):
        announced = literal(rng, cands, voters) if big else boolean(rng, cands, voters)
        return f"[{announced}] " + formula(rng, cands, voters, k, a - 1, big)
    if k:
        inner = formula(rng, cands, voters, k - 1, a, big)
        body = f"{'~' if rng.random() < 0.4 else ''}K{rng.randint(1, voters)} ({inner})"
        if rng.random() < 0.3:
            return f"({boolean(rng, cands, voters)} & {body})"
        return body
    if big:
        op = rng.choice(("&", "|", "->"))
        return f"({literal(rng, cands, voters)} {op} {literal(rng, cands, voters)})"
    return boolean(rng, cands, voters)


def formula_shape(phi) -> tuple[int, int, int]:
    """(K-nesting depth, announcement depth, node count) of a formula tree.

    Walks the tree iteratively: concept formulas nest deeper than the
    interpreter's recursion limit allows.
    """
    done: dict[int, tuple[int, int, int]] = {}
    stack = [(phi, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in done:
            continue
        kids = [getattr(node, f) for f in ("announced", "left", "right", "sub") if hasattr(node, f)]
        if not expanded:
            stack.append((node, True))
            stack.extend((c, False) for c in kids)
            continue
        shapes = [done[id(c)] for c in kids]
        k = max((s[0] for s in shapes), default=0)
        a = max((s[1] for s in shapes), default=0)
        kind = type(node).__name__
        done[id(node)] = (k + (kind == "Know"), a + (kind == "Announce"),
                          1 + sum(s[2] for s in shapes))
    return done[id(phi)]


def shape_class(k: int, a: int) -> str:
    return f"k{k}a{a}" if k <= 2 and a <= 2 else "deep"


DENOTATION_CLASSES = tuple(f"k{k}a{a}" for k in range(3) for a in range(3)) + ("deep",)


# ------------------------------------------------------------- encodings

def enc_prefs(prefs) -> list[str]:
    return [p.as_text() for p in prefs]


def enc_report(rep) -> dict:
    return {
        "voter": rep.voter, "kind": rep.kind,
        "flags": [rep.has_manipulation, rep.knows_de_dicto, rep.knows_de_re],
        "manipulation": enc_prefs(rep.manipulation_alts),
        "dominant": enc_prefs(rep.dominant_alts),
        "pessimistic": enc_prefs(rep.pessimistic_alts),
        "de_re": enc_prefs(rep.de_re_alts),
        "de_dicto": [[p.as_text(), enc_prefs(alts)] for p, alts in rep.de_dicto_witnesses.items()],
    }


def enc_cps(cps) -> list:
    return [[enc_prefs(row) for row in cp] for cp in cps]


def enc_matrix(mat) -> dict:
    return {"rows": list(mat.row_labels), "cols": list(mat.col_labels),
            "winners": [list(r) for r in mat.winners],
            "payoffs": [list(r) for r in mat.payoffs],
            "stars": [list(r) for r in mat.equilibria]}


def _count_kinds(ops) -> dict:
    out: dict = {}
    for o in ops:
        out[o.kind] = out.get(o.kind, 0) + 1
    return out


def _model_summary(name: str, m) -> dict:
    return {"name": name, "states": len(m.states),
            "blocks_per_voter": [len(m.blocks(i)) for i in m.election.voters],
            "ballots": len(m.election.orders())}


# ========================================================== strategic-cube

def strategic_cube(ep, seed: int, root: Path, tiny: bool = False) -> Workload:
    """classify for every voter at every state of the 3x3 cube, and for both
    voters at a seeded sample of points of the 4x2 cube."""
    rng = random.Random(seed)
    P, E = ep.model.Preference, ep.model.Election
    F3 = ep.rules.Plurality(P(("b", "a", "c")))
    F4 = ep.rules.Plurality(P(("b", "a", "c", "d")))
    m33 = ep.model.hypercube(E(ABC, 3), tiebreak=F3.tiebreak)
    m42 = ep.model.hypercube(E(ABCD, 2), tiebreak=F4.tiebreak)
    points33 = list(m33.states)
    points42 = rng.sample(list(m42.states), 48)
    if tiny:
        points33, points42 = rng.sample(points33, 4), points42[:2]

    def op(kind, m, F, s, i):
        return Op(kind, lambda: ep.strategic.classify(m.at(s), F, i), enc_report,
                  args=(m, F, s, i))

    ops = [op("classify-3x3", m33, F3, s, i) for s in points33 for i in (1, 2, 3)]
    ops += [op("classify-4x2", m42, F4, s, i) for s in points42 for i in (1, 2)]
    rng.shuffle(ops)  # every stretch of a pass visits both cubes

    def cross_check(crng: random.Random, first: dict) -> list[str]:
        bad = []
        for o in crng.sample(ops, min(16, len(ops))):
            if o.id not in first:
                continue
            m, F, s, i = o.args
            dicto, _ = ep.strategic.knows_manipulation(m.at(s), F, i, "de_dicto")
            de_re, alts = ep.strategic.knows_manipulation(m.at(s), F, i, "de_re")
            want = [dicto, de_re, enc_prefs(alts) if de_re else []]
            enc = first[o.id]
            got = [enc["flags"][1], enc["flags"][2], enc["de_re"]]
            if got != want:
                bad.append(f"op {o.id} ({o.kind} {s}, voter {i}): classify says {got}, "
                           f"knows_manipulation says {want}")
        return bad

    summary = {"models": [_model_summary("cube3x3", m33),
                          dict(_model_summary("cube4x2", m42), sampled_points=len(points42))],
               "ops": _count_kinds(ops)}
    warm = [lambda: ep.strategic.classify(m33.at(points33[0]), F3, 1),
            lambda: ep.strategic.classify(m42.at(points42[0]), F4, 2)]
    return Workload(ops, warm, summary, cross_check, _clear_winner_cache(ep))


# =============================================================== modelcheck

CANARY = "K1 K2 (wins a | wins b | wins c)"

# (model, class, formulas per pass). On the 216-state cube, k2a1, nested
# announcements and the depth-3 canary are left out: one of them can outlast
# a run. The single canary operation takes seconds, and probes between
# operations cannot correct for the machine's speed inside it, so the
# announcement classes are large enough to keep its share of a pass near a
# quarter. Random k2a0 formulas are few: under short-circuit evaluation their
# cost ranges from 2 ms to 0.9 s. The 160 k0a0 checks over 216 states are
# the median operation: as many cheaper operations (mostly k0a0 over 36
# states) rank below them as dearer ones rank above.
MODELCHECK_PLAN = (
    ("cube3x3", "k0a0", 160), ("cube3x3", "k1a0", 24), ("cube3x3", "k2a0", 4),
    ("cube3x3", "k0a1", 48), ("cube3x3", "k1a1", 48), ("cube3x2", "k0a0", 167),
) + tuple(("cube3x2", f"k{k}a{a}", 8) for k in range(3) for a in range(3) if k or a)


def modelcheck(ep, seed: int, root: Path, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    L, S, G = ep.logic, ep.strategic, ep.games
    P, E = ep.model.Preference, ep.model.Election
    F = ep.rules.Plurality(P(("b", "a", "c")))
    cubes = {"cube3x3": ep.model.hypercube(E(ABC, 3), tiebreak=F.tiebreak),
             "cube3x2": ep.model.hypercube(E(ABC, 2), tiebreak=F.tiebreak)}
    ops: list[Op] = []
    classes: dict = {}

    def denote(kind, m, rule, text):
        phi = L.parse(text, m.election)
        k, a, nodes = formula_shape(phi)
        entry = classes.setdefault(f"{kind.split('/')[0]}/{shape_class(k, a)}",
                                   {"formulas": 0, "node_states": 0})
        entry["formulas"] += 1
        entry["node_states"] += nodes * len(m.states)
        ops.append(Op(f"{kind}/{shape_class(k, a)}", lambda: L.denotation(m, rule, phi),
                      list, args=(m, rule, phi)))

    for name, cls, count in MODELCHECK_PLAN:
        m = cubes[name]
        k, a = int(cls[1]), int(cls[3])
        for _ in range(1 if tiny else count):
            denote(name, m, F, formula(rng, ABC, m.election.num_voters, k, a, name == "cube3x3"))
    if not tiny:
        denote("cube3x3-canary", cubes["cube3x3"], F, CANARY)

    small = [ep.modelfile.parse_model(text) for text in fixture_specs(root).values()]
    # five blocks each: the same operation count for every seed
    small += [build_model(ep, spec_with_blocks(rng, ABC, (2,), (3,), 5, distinct=True))
              for _ in range(2 if tiny else 6)]
    concept_ops = []
    for m in small:
        rule = ep.rules.Plurality(m.tiebreak)
        for i in m.election.voters:
            for mode in ("knows_de_re", "knows_de_dicto"):
                concept_ops.append(Op(
                    f"concept-{mode}",
                    lambda m=m, rule=rule, i=i, mode=mode: L.denotation(
                        m, rule, L.build_concept_formula(mode, e=m.election, F=rule, i=i)),
                    list, args=(m, rule, i, mode)))
        orders_ = m.election.orders()
        cp = tuple(tuple(rng.choice(orders_) for _ in m.blocks(i)) for i in m.election.voters)
        concept_ops.append(Op(
            "concept-conditional_equilibrium",
            lambda m=m, rule=rule, cp=cp: L.valid_on(
                m, rule, L.build_concept_formula("conditional_equilibrium", m=m, F=rule, cp=cp)),
            bool, args=(m, rule, cp)))
        for i in m.election.voters:
            for block in m.blocks(i):
                ops.append(Op("characteristic_formula",
                              lambda m=m, block=block: L.characteristic_formula(m, block),
                              lambda cf, m=m: {"target": list(cf.target),
                                               "denotes": list(L.denotation(m, None, cf.formula))},
                              validate=lambda enc: None if enc["denotes"] == enc["target"]
                              else f"formula denotes {enc['denotes']}, target {enc['target']}"))
    ops += concept_ops
    rng.shuffle(ops)

    def cross_check(crng: random.Random, first: dict) -> list[str]:
        bad = []
        for o in concept_ops:
            if o.id not in first:
                continue
            if o.kind == "concept-conditional_equilibrium":
                m, rule, cp = o.args
                want = G.is_conditional_equilibrium(m, rule, cp)[0]
            else:
                m, rule, i, mode = o.args
                want = [s for s in m.states
                        if S.knows_manipulation(m.at(s), rule, i, mode[len("knows_"):])[0]]
            if first[o.id] != want:
                bad.append(f"op {o.id} ({o.kind}): formula gives {first[o.id]}, "
                           f"strategic layer gives {want}")
        cheap = [o for o in ops if o.kind.startswith("cube3x2/")
                 or o.kind in ("cube3x3/k0a0", "cube3x3/k1a0")]
        for o in crng.sample(cheap, min(12, len(cheap))):
            if o.id not in first:
                continue
            m, rule, phi = o.args
            want = [s for s in m.states if L.evaluate(m.at(s), rule, phi)]
            if first[o.id] != want:
                bad.append(f"op {o.id} ({o.kind}): denotation {first[o.id]}, "
                           f"per-state evaluate {want}")
        return bad

    summary = {"models": [_model_summary(n, m) for n, m in cubes.items()]
               + [_model_summary(f"small{j}", m) for j, m in enumerate(small)],
               "formula_classes": classes, "ops": _count_kinds(ops)}
    m32 = cubes["cube3x2"]
    warm = [lambda: L.denotation(m32, F, L.parse("K1 wins a", m32.election)),
            lambda: L.characteristic_formula(small[0], small[0].blocks(1)[0])]
    return Workload(ops, warm, summary, cross_check, _clear_winner_cache(ep))


# =============================================================== equilibria

# By-top product size 3^k -> seeded models per pass. Sizes 3^9 and 3^10 are
# left out: a single such model takes 0.8-2.5 s, so a pass's time and its
# spread across seeds would be that of one or two models.
# 3^5 is the bulk class, with as many cheaper operations as dearer ones, so
# the median operation is a 243-profile search; the 30 models of 3^8 hold
# the tail and most of a pass's time. Models of these two classes all have
# 3 voters and 3 states: across shapes their search times vary twice as much.
EQUILIBRIA_PLAN = {4: 64, 5: 40, 6: 14, 7: 20, 8: 30}
FIXED_SHAPE = {5, 8}


def equilibria(ep, seed: int, root: Path, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    G = ep.games
    plan = {4: 2, 5: 1} if tiny else EQUILIBRIA_PLAN
    specs = [spec_with_blocks(rng, ABC, (3,) if k in FIXED_SHAPE else (2, 3),
                              (3,) if k in FIXED_SHAPE else (3, 4, 5), k)
             for k, count in plan.items() for _ in range(count)]
    ops = []
    for spec in specs:
        m = build_model(ep, spec)
        rule = ep.rules.Plurality(m.tiebreak)
        ops.append(Op(f"by-top-3^{sum(spec.blocks_per_voter())}",
                      lambda m=m, rule=rule: G.enumerate_conditional_equilibria(m, rule, by_top=True),
                      enc_cps, args=(m, rule, spec)))
    fixtures = {name: ep.modelfile.parse_model(text) for name, text in fixture_specs(root).items()}
    for name, m in fixtures.items():
        rule = ep.rules.Plurality(m.tiebreak)
        ops.append(Op("fixture-full", lambda m=m, rule=rule:
                      G.enumerate_conditional_equilibria(m, rule, by_top=False),
                      enc_cps, args=(name,)))
        for by_top in (True, False):
            ops.append(Op(f"fixture-matrix-{'by-top' if by_top else 'full'}",
                          lambda m=m, rule=rule, by_top=by_top: G.payoff_matrix(m, rule, by_top=by_top),
                          enc_matrix, args=(name,)))
    rng.shuffle(ops)

    def stars(enc) -> list:
        return sorted([r, c] for r, row in zip(enc["rows"], enc["stars"])
                      for c, star in zip(enc["cols"], row) if star)

    def cross_check(crng: random.Random, first: dict) -> list[str]:
        bad = []
        # fixtures: full enumeration against the starred cells of the full matrix
        full = {o.args[0]: first.get(o.id) for o in ops if o.kind == "fixture-full"}
        for o in ops:
            if o.kind == "fixture-matrix-full" and o.id in first and full.get(o.args[0]) is not None:
                listed = sorted([" ".join(row) for row in cp] for cp in full[o.args[0]])
                if listed != stars(first[o.id]):
                    bad.append(f"op {o.id} ({o.args[0]}): matrix stars {stars(first[o.id])}, "
                               f"enumeration {listed}")
        # seeded two-voter models: by-top enumeration against the by-top matrix
        small = [o for o in ops if o.kind.startswith("by-top-3^") and o.args[2].voters == 2
                 and sum(o.args[2].blocks_per_voter()) <= 6]
        for o in crng.sample(small, min(6, len(small))):
            if o.id not in first:
                continue
            m, rule, _ = o.args
            listed = sorted(["".join(b.split(">")[0] for b in row) for row in cp]
                            for cp in first[o.id])
            want = stars(enc_matrix(G.payoff_matrix(m, rule, by_top=True)))
            if listed != want:
                bad.append(f"op {o.id} ({o.kind}): enumeration {listed}, matrix stars {want}")
        return bad

    summary = {
        "models": [{"voters": s.voters, "states": len(s.states),
                    "blocks_per_voter": s.blocks_per_voter(), "ballots_by_top": 3,
                    "by_top_product": 3 ** sum(s.blocks_per_voter())} for s in specs]
        + [dict(_model_summary(name, m), full_product=len(m.election.orders()) ** sum(
            len(m.blocks(i)) for i in m.election.voters)) for name, m in fixtures.items()],
        "by_top_product_sizes": {f"3^{k}": n for k, n in plan.items()},
        "ops": _count_kinds(ops),
    }
    first_fixture = fixtures[FIXTURES[0]]
    warm = [lambda: G.enumerate_conditional_equilibria(
        first_fixture, ep.rules.Plurality(first_fixture.tiebreak), by_top=True)]
    return Workload(ops, warm, summary, cross_check, _clear_winner_cache(ep))


# ====================================================================== cli

def _fixture_facts(text: str) -> tuple[dict, str, int]:
    """States with their profile text, the point and the voter count of a model file."""
    states, point, voters = {}, None, 0
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("state "):
            name, _, prof = line[len("state "):].partition("=")
            states[name.strip()] = prof.strip()
        elif line.startswith("point:"):
            point = line.partition(":")[2].strip()
        elif line.startswith("voters:"):
            voters = int(line.partition(":")[2])
    return states, point, voters


def _announcement(rng: random.Random, states: dict, point: str) -> str:
    """Disjunction of the profile atoms of a random set of states with the point."""
    chosen = {point} | {s for s in states if rng.random() < 0.5}
    profs = list(dict.fromkeys(states[s] for s in states if s in chosen))
    return " | ".join("profile{" + p + "}" for p in profs)


def cli(ep, seed: int, root: Path, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    out = root / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=out))
    targets = {}  # path -> (states, point, voters)
    for name, text in fixture_specs(root).items():
        targets[str(root / "fixtures" / f"{name}.model")] = _fixture_facts(text)
    for j in range(2 if tiny else 8):
        # five blocks each: a by-top enumeration of any file visits 3^5 profiles
        spec = spec_with_blocks(rng, ABC, (3,) if j < 2 else (2,), (2, 3, 4), 5)
        path = tmp / f"random-{j}.model"
        path.write_text(spec.text())
        targets[str(path)] = _fixture_facts(spec.text())
    cube = cube_spec(ABC, 3, ("b", "a", "c"))
    cube_path = str(tmp / "cube3x3.model")
    Path(cube_path).write_text(cube.text())

    argvs: list[list[str]] = []
    properties = ("knowledge_de_re", "knowledge_de_dicto", "dominant_manipulation",
                  "conditional_equilibrium", "not_conditional_equilibrium")
    for path, (states, point, voters) in targets.items():
        k, a = rng.choice(((0, 0), (1, 0), (0, 1)))
        argvs.append(["check", path, "-f", formula(rng, ABC, voters, k, a, False)]
                     + (["--all-states"] if rng.random() < 0.5 else []))
        argvs.append(["equilibria", path, "--by-top"])
        if path.startswith(str(root / "fixtures")):  # two voters: --matrix applies
            argvs.append(["equilibria", path, "--by-top", "--matrix"])
            argvs.append(["equilibria", path, "--matrix"])
        argvs.append(["manipulations", path])
        upd = ["update", path, "-f", _announcement(rng, states, point)]
        if rng.random() < 0.5:
            upd += ["-o", str(tmp / f"updated-{len(argvs)}.model")]
        argvs.append(upd)
        argvs.append(["axioms", path])
        prop = rng.choice(properties)
        argvs.append(["preserve", path, "-f", _announcement(rng, states, point), "--property", prop]
                     + (["--voter", str(rng.randint(1, voters))] if prop.startswith(("knowledge", "dominant")) else []))
        argvs.append(["reduce", "--model", path, "-f", formula(rng, ABC, voters, 1, 1, False)])
    cube_points = rng.sample(cube.states, 2)
    argvs += [["check", cube_path, "-f", formula(rng, ABC, 3, k, 0, True), "--all-states"]
              for k in (0, 1)]
    argvs += [["manipulations", cube_path, "--point", s] for s in cube_points]
    argvs += [["axioms", cube_path],
              ["update", cube_path, "-f", literal(rng, ABC, 3)],
              ["hypercube", "--candidates", "a,b,c", "--voters", "2",
               "--tiebreak", otext(rng.choice(orders(ABC)))],
              ["hypercube", "--candidates", "a,b,c", "--voters", "3",
               "--tiebreak", otext(rng.choice(orders(ABC))), "-o", str(tmp / "hypercube-out.model")]]
    for prop in properties:
        # Hunts that find a witness stop after a seed-dependent number of
        # tries; budgets bound how far that number can spread. The knowledge
        # properties always use up their budget.
        knowledge = prop.startswith("knowledge")
        for _ in range(1 if tiny else 3 if knowledge else 6):
            argvs.append(["hunt", "--property", prop, "--seed", str(rng.randrange(10**6)),
                          "--budget", "400" if knowledge else "60"])
    if tiny:
        argvs = rng.sample(argvs, 12)
    for argv in argvs:
        if rng.random() < 0.5:
            argv += ["--format", "records"]

    def run(argv):
        o, e = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(o), contextlib.redirect_stderr(e):
            try:
                rc = ep.cli.main(argv)
            except SystemExit as exc:  # argparse rejects its input this way
                rc = exc.code
        return rc, o.getvalue(), e.getvalue()

    def encode(res):
        rc, o, e = res
        return [rc, o.replace(str(tmp), "<tmp>"), e.replace(str(tmp), "<tmp>")]

    def validate(enc):
        rc, _, err = enc
        if rc not in (0, 1) or err:
            return f"exit code {rc}, stderr {err.strip()[:200]!r}"
        return None

    ops = [Op(f"cli-{argv[0]}", lambda argv=argv: run(argv), encode, validate,
              cold=True, args=(argv,)) for argv in argvs]
    rng.shuffle(ops)

    def cross_check(crng: random.Random, first: dict) -> list[str]:
        bad = []
        L, D = ep.logic, ep.dynamics
        checks = [o for o in ops if o.kind == "cli-check" and o.id in first]
        for o in crng.sample(checks, min(6, len(checks))):
            argv = o.args[0]
            m = ep.modelfile.load_model(argv[1])
            rule = None if m.tiebreak is None else ep.rules.Plurality(m.tiebreak)
            phi = L.parse(argv[3], m.election)
            if "--all-states" in argv or m.point is None:
                want = L.valid_on(m, rule, phi)
            else:
                want = L.evaluate(m.pointed(), rule, phi)
            if first[o.id][0] != (0 if want else 1):
                bad.append(f"op {o.id} ({' '.join(argv)}): exit {first[o.id][0]}, library says {want}")
        hunts = [o for o in ops if o.kind == "cli-hunt" and o.id in first]
        for o in crng.sample(hunts, min(3, len(hunts))):
            argv = o.args[0]
            res = D.search_counterexample(argv[2], e=ep.model.Election(ABC, 2),
                                          seed=int(argv[4]), budget=int(argv[6]))
            if first[o.id][0] != (0 if res.found else 1):
                bad.append(f"op {o.id} ({' '.join(argv)}): exit {first[o.id][0]}, "
                           f"search_counterexample found={res.found}")
        return bad

    summary = {"targets": {Path(p).name: {"states": len(st), "voters": v}
                           for p, (st, _, v) in targets.items()}
               | {"cube3x3.model": {"states": len(cube.states), "voters": 3}},
               "ops": _count_kinds(ops)}
    warm = [lambda: run(["axioms", str(root / "fixtures" / f"{FIXTURES[0]}.model")])]
    return Workload(ops, warm, summary, cross_check, _clear_winner_cache(ep),
                    close=lambda: shutil.rmtree(tmp, ignore_errors=True))


WORKLOADS = {
    "strategic-cube": strategic_cube,
    "modelcheck": modelcheck,
    "equilibria": equilibria,
    "cli": cli,
}
