"""Formulas about preferences, knowledge, and announcements, with a model checker.

The core language is: profile atoms, negation, conjunction, K_i ("voter i
knows"), and [phi]psi ("after truthfully announcing phi, psi holds"). On top
of that sit derived atoms that are evaluated directly but can be expanded
into profile-atom disjunctions: pref atoms (voter i's full ranking), pairwise
comparison atoms (i ranks a above b), and winner atoms (candidate x wins
under the ambient rule). Or/implication/iff and "false" are parse-time sugar
over negation and conjunction; "true" is kept primitive.

Concrete syntax (whitespace-insensitive)::

    formula := iff
    iff     := implies ("<->" implies)*
    implies := or ("->" implies)?
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "~" unary | "K" INT unary | "[" formula "]" unary | atom
    atom    := "(" formula ")" | "true" | "false"
             | "profile{" INT ":" order (";" INT ":" order)* "}"
             | "pref" INT "(" order ")"
             | INT ":" ID ">" ID          (pairwise comparison)
             | "wins" ID
    order   := ID (">" ID)+               (complete ranking for profile/pref)

"K", "true", "false", "profile", "pref", and "wins" are reserved words (no
candidate may take one as a name); an INT:order with a complete ranking is
accepted as a pref atom. to_text is the inverse of parse up to sugar
(parse(to_text(f)) == f for core-only f).

The checker evaluates state by state with a memo per evaluate/denotation
call: each K_i subformula is decided once per block, and each announcement
once per set of live states, which then filters the blocks below it; no
restricted model is built. Its cost is polynomial in formula size and model
size.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .errors import (
    EmptySet,
    FormulaSyntaxError,
    IncompleteProfileAtom,
    Indistinguishable,
    MissingTiebreak,
    UnknownCandidate,
    UnknownVoter,
)
from .games import ConditionalProfile, induced_profiles
from .model import (
    DEFAULT_MAX_STATES,
    RESERVED_WORDS,
    Candidate,
    Election,
    InformationSet,
    KnowledgeProfile,
    Preference,
    Profile,
    ProfileModel,
    Voter,
    validate_structure,
)
from .rules import VotingRule, _key_of, ballot_classes


@dataclass(frozen=True)
class ProfileAtom:
    profile: Profile


@dataclass(frozen=True)
class PrefAtom:
    voter: Voter
    order: Preference


@dataclass(frozen=True)
class CompAtom:
    """Voter ranks `better` strictly above `worse`. False when they coincide."""

    voter: Voter
    better: Candidate
    worse: Candidate


@dataclass(frozen=True)
class WinsAtom:
    candidate: Candidate


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Know:
    voter: Voter
    sub: "Formula"


@dataclass(frozen=True)
class Announce:
    announced: "Formula"
    sub: "Formula"


Formula = (
    ProfileAtom | PrefAtom | CompAtom | WinsAtom | Top | Not | And | Know | Announce
)

TRUE = Top()
FALSE = Not(TRUE)

_ATOMS = (ProfileAtom, PrefAtom, CompAtom, WinsAtom, Top)


def Or(a: Formula, b: Formula) -> Formula:
    return Not(And(Not(a), Not(b)))


def Implies(a: Formula, b: Formula) -> Formula:
    return Not(And(a, Not(b)))


def Iff(a: Formula, b: Formula) -> Formula:
    return And(Implies(a, b), Implies(b, a))


def big_and(items) -> Formula:
    items = list(items)
    if not items:
        return TRUE
    out = items[0]
    for f in items[1:]:
        out = And(out, f)
    return out


def big_or(items) -> Formula:
    items = list(items)
    if not items:
        return FALSE
    out = items[0]
    for f in items[1:]:
        out = Or(out, f)
    return out


# ---------------------------------------------------------------- parsing

_TOKEN = re.compile(
    r"(<->|->|[~&|()\[\]{}:;>]|[A-Za-z_][A-Za-z0-9_]*|[0-9]+)"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(src):
        if src[pos].isspace():
            pos += 1
            continue
        mtc = _TOKEN.match(src, pos)
        if not mtc:
            raise FormulaSyntaxError(pos, f"unexpected character {src[pos]!r}")
        text = mtc.group(0)
        if text.isdigit():
            out.append(("int", text, pos))
        elif text[0].isalpha() or text[0] == "_":
            out.append(("word", text, pos))
        else:
            out.append(("sym", text, pos))
        pos = mtc.end()
    out.append(("end", "", len(src)))
    return out


class _Parser:
    def __init__(self, src: str, e: Election):
        self.toks = _tokenize(src)
        self.e = e
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def take(self):
        tok = self.toks[self.k]
        self.k += 1
        return tok

    def at_sym(self, s: str) -> bool:
        kind, text, _ = self.peek()
        return kind == "sym" and text == s

    def expect_sym(self, s: str):
        kind, text, pos = self.take()
        if kind != "sym" or text != s:
            raise FormulaSyntaxError(pos, f"expected {s!r}, found {text!r}")

    def fail(self, msg: str):
        _, _, pos = self.peek()
        raise FormulaSyntaxError(pos, msg)

    # grammar levels

    def formula(self) -> Formula:
        out = self.implies()
        while self.at_sym("<->"):
            self.take()
            out = Iff(out, self.implies())
        return out

    def implies(self) -> Formula:
        left = self.disjunction()
        if self.at_sym("->"):
            self.take()
            return Implies(left, self.implies())
        return left

    def disjunction(self) -> Formula:
        out = self.conjunction()
        while self.at_sym("|"):
            self.take()
            out = Or(out, self.conjunction())
        return out

    def conjunction(self) -> Formula:
        out = self.unary()
        while self.at_sym("&"):
            self.take()
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        kind, text, pos = self.peek()
        if kind == "sym" and text == "~":
            self.take()
            return Not(self.unary())
        if kind == "sym" and text == "[":
            self.take()
            ann = self.formula()
            self.expect_sym("]")
            return Announce(ann, self.unary())
        if kind == "word" and (text == "K" or re.fullmatch(r"K[0-9]+", text)):
            self.take()
            if text == "K":
                nkind, ntext, npos = self.take()
                if nkind != "int":
                    raise FormulaSyntaxError(npos, "K needs a voter number")
                voter = int(ntext)
                vpos = npos
            else:
                voter = int(text[1:])
                vpos = pos
            self._check_voter(voter, vpos)
            return Know(voter, self.unary())
        return self.atom()

    def atom(self) -> Formula:
        kind, text, pos = self.take()
        if kind == "sym" and text == "(":
            out = self.formula()
            self.expect_sym(")")
            return out
        if kind == "word" and text == "true":
            return TRUE
        if kind == "word" and text == "false":
            return FALSE
        if kind == "word" and text == "wins":
            ckind, ctext, cpos = self.take()
            if ckind != "word":
                raise FormulaSyntaxError(cpos, "wins needs a candidate name")
            self._check_candidate(ctext, cpos)
            return WinsAtom(ctext)
        if kind == "word" and text == "pref":
            vkind, vtext, vpos = self.take()
            if vkind != "int":
                raise FormulaSyntaxError(vpos, "pref needs a voter number")
            voter = int(vtext)
            self._check_voter(voter, vpos)
            self.expect_sym("(")
            order = self._order(pos)
            self.expect_sym(")")
            return PrefAtom(voter, self._complete(order, pos))
        if kind == "word" and text == "profile":
            self.expect_sym("{")
            prefs: dict[int, Preference] = {}
            while True:
                vkind, vtext, vpos = self.take()
                if vkind != "int":
                    raise FormulaSyntaxError(vpos, "profile entry needs a voter")
                voter = int(vtext)
                self._check_voter(voter, vpos)
                if voter in prefs:
                    raise IncompleteProfileAtom(
                        f"position {vpos}: voter {voter} listed twice"
                    )
                self.expect_sym(":")
                prefs[voter] = self._complete(self._order(vpos), vpos)
                if self.at_sym(";"):
                    self.take()
                    continue
                break
            self.expect_sym("}")
            missing = [v for v in self.e.voters if v not in prefs]
            if missing:
                raise IncompleteProfileAtom(
                    f"position {pos}: profile atom lacks voter(s) {missing}"
                )
            return ProfileAtom(Profile(tuple(prefs[v] for v in self.e.voters)))
        if kind == "int":
            voter = int(text)
            self._check_voter(voter, pos)
            self.expect_sym(":")
            order = self._order(pos)
            if len(order) == 2:
                return CompAtom(voter, order[0], order[1])
            return PrefAtom(voter, self._complete(order, pos))
        raise FormulaSyntaxError(pos, f"unexpected {text!r}")

    def _order(self, pos: int) -> tuple[str, ...]:
        names = []
        while True:
            kind, text, cpos = self.take()
            if kind != "word":
                raise FormulaSyntaxError(cpos, "expected a candidate name")
            self._check_candidate(text, cpos)
            names.append(text)
            if self.at_sym(">"):
                self.take()
                continue
            break
        if len(names) < 2:
            raise FormulaSyntaxError(pos, "ranking needs at least two candidates")
        return tuple(names)

    def _complete(self, order: tuple[str, ...], pos: int) -> Preference:
        if sorted(order) != sorted(self.e.candidates):
            raise IncompleteProfileAtom(
                f"position {pos}: ranking {'>'.join(order)!r} must list every "
                f"candidate exactly once"
            )
        return Preference(order)

    def _check_voter(self, voter: int, pos: int):
        if voter not in self.e.voters:
            raise UnknownVoter(f"position {pos}: no voter {voter}")

    def _check_candidate(self, c: str, pos: int):
        if c in RESERVED_WORDS:
            raise FormulaSyntaxError(pos, f"{c!r} is a reserved word")
        if c not in self.e.candidates:
            raise UnknownCandidate(f"position {pos}: no candidate {c!r}")


def parse(src: str, e: Election) -> Formula:
    p = _Parser(src, e)
    out = p.formula()
    kind, text, pos = p.peek()
    if kind != "end":
        raise FormulaSyntaxError(pos, f"trailing input {text!r}")
    return out


# ---------------------------------------------------------------- printing

def to_text(phi: Formula) -> str:
    """Concrete syntax for a formula; inverse of parse on core formulas."""
    return _fmt(phi)


def _fmt(phi: Formula) -> str:
    if isinstance(phi, And):
        return f"{_fmt(phi.left)} & {_fmt_unary(phi.right)}"
    return _fmt_unary(phi)


def _fmt_unary(phi: Formula) -> str:
    match phi:
        case Top():
            return "true"
        case Not(sub=Top()):
            return "false"
        case Not(sub=sub):
            return "~" + _fmt_unary(sub)
        case Know(voter=i, sub=sub):
            return f"K{i} " + _fmt_unary(sub)
        case Announce(announced=a, sub=sub):
            return f"[{_fmt(a)}] " + _fmt_unary(sub)
        case And():
            return "(" + _fmt(phi) + ")"
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


# ---------------------------------------------------------------- semantics

def check_formula(phi: Formula, e: Election) -> None:
    """Raise if the formula mentions voters or candidates outside e."""
    match phi:
        case ProfileAtom(profile=p):
            if len(p.prefs) != e.num_voters:
                raise IncompleteProfileAtom(
                    f"profile atom has {len(p.prefs)} voters, "
                    f"expected {e.num_voters}"
                )
            for r in p.prefs:
                if sorted(r.order) != sorted(e.candidates):
                    raise IncompleteProfileAtom(
                        f"profile atom ranking {r.as_text()} incomplete"
                    )
        case PrefAtom(voter=i, order=r):
            _need_voter(i, e)
            if sorted(r.order) != sorted(e.candidates):
                raise IncompleteProfileAtom(
                    f"pref atom ranking {r.as_text()} incomplete"
                )
        case CompAtom(voter=i, better=a, worse=b):
            _need_voter(i, e)
            _need_candidate(a, e)
            _need_candidate(b, e)
        case WinsAtom(candidate=c):
            _need_candidate(c, e)
        case Top():
            pass
        case Not(sub=sub):
            check_formula(sub, e)
        case And(left=l, right=r):
            check_formula(l, e)
            check_formula(r, e)
        case Know(voter=i, sub=sub):
            _need_voter(i, e)
            check_formula(sub, e)
        case Announce(announced=a, sub=sub):
            check_formula(a, e)
            check_formula(sub, e)
        case _:
            raise TypeError(f"not a formula: {phi!r}")


def _need_voter(i: Voter, e: Election):
    if i not in e.voters:
        raise UnknownVoter(f"no voter {i}")


def _need_candidate(c: Candidate, e: Election):
    if c not in e.candidates:
        raise UnknownCandidate(f"no candidate {c!r}")


def evaluate(kp: KnowledgeProfile, F: VotingRule | None, phi: Formula) -> bool:
    """Truth of phi at the knowledge profile's actual state.

    F is only consulted for winner atoms; passing None is fine for formulas
    without them (MissingTiebreak otherwise). An announcement false at the
    state makes the whole announcement formula true.
    """
    check_formula(phi, kp.election)
    m = kp.model
    return _eval(m, kp.point, F, phi, frozenset(m.states), {})


def denotation(
    m: ProfileModel, F: VotingRule | None, phi: Formula
) -> tuple[str, ...]:
    """The states where phi holds, in file order."""
    check_formula(phi, m.election)
    live, memo = frozenset(m.states), {}
    return tuple(s for s in m.states if _eval(m, s, F, phi, live, memo))


def valid_on(m: ProfileModel, F: VotingRule | None, phi: Formula) -> bool:
    """True when phi holds at every state of the model."""
    return len(denotation(m, F, phi)) == len(m.states)


def _eval(
    m: ProfileModel,
    s: str,
    F: VotingRule | None,
    phi: Formula,
    live: frozenset[str],
    memo: dict,
) -> bool:
    """Truth of phi at s in m cut down to the live states.

    The cut model is never built: its block at s is s's block of m filtered
    by live, and winners read only the state's profile. memo (one per
    evaluate/denotation call) holds K_i's verdict per (live set, K node,
    block) and the live set after an announcement per (live set, announced
    formula). Keys are object ids, since hashing a formula walks all of it;
    every live set but the caller's is a memo value, so no id is reused
    during the call.
    """
    # connectives first: most nodes a check visits are connectives
    match phi:
        case Not(sub=sub):
            return not _eval(m, s, F, sub, live, memo)
        case And(left=l, right=r):
            return (_eval(m, s, F, l, live, memo)
                    and _eval(m, s, F, r, live, memo))
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
        case Know(voter=i, sub=sub):
            block = m.block_of(i, s)
            key = (id(live), id(phi), id(block))
            known = memo.get(key)
            if known is None:
                known = memo[key] = all(_eval(m, t, F, sub, live, memo)
                                        for t in block if t in live)
            return known
        case Announce(announced=a, sub=sub):
            if not _eval(m, s, F, a, live, memo):
                return True
            key = (id(live), id(a))
            kept = memo.get(key)
            if kept is None:
                kept = memo[key] = frozenset(
                    t for t in m.states
                    if t in live and _eval(m, t, F, a, live, memo))
            return _eval(m, s, F, sub, kept, memo)
    raise TypeError(f"not a formula: {phi!r}")


# ------------------------------------------------------- derived-atom expansion

def expand_abbreviations(
    phi: Formula,
    e: Election,
    F: VotingRule | None,
    max_profiles: int = DEFAULT_MAX_STATES,
) -> Formula:
    """Rewrite every derived atom to a disjunction of profile atoms.

    pref/comparison/winner atoms (and "true") become disjunctions over all
    (m!)^n profiles, so the result uses profile atoms, negation, conjunction,
    K, and announcement only. Semantically equivalent on every model of the
    election, and exponentially larger; exists to pin the derived atoms to
    their definitions, not for regular use.
    """
    profiles = e.all_profiles(max_profiles)

    def dis(selected) -> Formula:
        chosen = [ProfileAtom(p) for p in selected]
        if not chosen:
            # unsatisfiable in primitives: a profile atom and its negation
            anchor = ProfileAtom(profiles[0])
            return And(anchor, Not(anchor))
        return big_or(chosen)

    def walk(f: Formula) -> Formula:
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


# ------------------------------------------------------- announcement removal

def reduce_announcements(phi: Formula) -> Formula:
    """Equivalent announcement-free formula.

    Announcements are pushed inward, innermost first, by the rewrite rules
    [a]p = a -> p for atoms, [a]~b = a -> ~[a]b, [a](b & c) = [a]b & [a]c,
    and [a]K_i b = a -> K_i (a -> [a]b). Each rule copies the announced
    formula, so the result can be exponentially larger than the input.
    """
    match phi:
        case Not(sub=sub):
            return Not(reduce_announcements(sub))
        case And(left=l, right=r):
            return And(reduce_announcements(l), reduce_announcements(r))
        case Know(voter=i, sub=sub):
            return Know(i, reduce_announcements(sub))
        case Announce(announced=a, sub=sub):
            return _push(reduce_announcements(a), reduce_announcements(sub))
        case _:
            return phi


def _push(a: Formula, b: Formula) -> Formula:
    # both a and b are announcement-free here
    match b:
        case Not(sub=sub):
            return Implies(a, Not(_push(a, sub)))
        case And(left=l, right=r):
            return And(_push(a, l), _push(a, r))
        case Know(voter=i, sub=sub):
            return Implies(a, Know(i, Implies(a, _push(a, sub))))
        case _:
            return Implies(a, b)


# ---------------------------------------------------------------- axiom checks

@dataclass(frozen=True)
class AxiomReport:
    """Validity of the two model-class axioms on one model.

    exclusivity: every state satisfies exactly one complete profile atom.
    Since a model's valuation maps each state to a single complete profile,
    this holds for any structurally well-formed model; the checker verifies
    the structure and reports it. introspection: every voter knows her own
    ranking, i.e. a true pref atom is true throughout the voter's block.
    Violations carry (voter, state, confused state)."""

    exclusivity_valid: bool
    introspection_valid: bool
    introspection_violations: tuple[tuple[Voter, str, str], ...]


def check_axioms(m: ProfileModel) -> AxiomReport:
    """Check both axioms; accepts models that fail the own-preference rule."""
    validate_structure(m)
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
    return AxiomReport(
        exclusivity_valid=True,
        introspection_valid=not viols,
        introspection_violations=tuple(viols),
    )


# ------------------------------------------------------ characteristic formulas

@dataclass(frozen=True)
class CharacteristicFormula:
    """A formula true at exactly the target states, within one model."""

    target: InformationSet
    formula: Formula


def characteristic_formula(
    m: ProfileModel, target: InformationSet
) -> CharacteristicFormula:
    """Build a formula that holds at the target states and nowhere else.

    States are grouped by partition refinement: start from profile equality
    and split until states in one group see the same groups through every
    voter's block. Each final group gets a formula (its profile atom, then
    per round one "considers possible" conjunct per seen group and one
    "knows the disjunction" conjunct per voter); the target's formula is the
    disjunction of its groups' formulas. When a state outside the target
    ends in the same group as one inside, no formula of any shape can
    separate them and Indistinguishable is raised.
    """
    (formula,) = _characteristic_formulas(m, [target])
    return CharacteristicFormula(target=tuple(target), formula=formula)


def _characteristic_formulas(m: ProfileModel, targets) -> list[Formula]:
    """characteristic_formula's formulas for several targets of one model,
    with one partition refinement and one class-formula table for all."""
    idxs = []
    for target in targets:
        if not target:
            raise EmptySet("target needs at least one state")
        idxs.append([m.index(s) for s in target])
    rounds = _bisim_rounds(m)
    cls = rounds[-1]
    table = _class_formula_table(m, rounds)
    out = []
    for idx in idxs:
        target_classes = []
        for ti in idx:
            if cls[ti] not in target_classes:
                target_classes.append(cls[ti])
        inside = set(idx)
        for si in range(len(m.states)):
            if si not in inside and cls[si] in target_classes:
                raise Indistinguishable(
                    f"state {m.states[si]!r} cannot be separated from the target"
                )
        out.append(big_or(table[c] for c in target_classes))
    return out


def _bisim_rounds(m: ProfileModel) -> list[list[int]]:
    # class id = index of the first state in the class; round 0 groups by profile
    cls = _group([m.profiles[si] for si in range(len(m.states))])
    rounds = [cls]
    while True:
        sigs = []
        for si, s in enumerate(m.states):
            seen = tuple(
                frozenset(cls[m.index(t)] for t in m.block_of(i, s))
                for i in m.election.voters
            )
            sigs.append((cls[si], seen))
        new = _group(sigs)
        if new == cls:
            return rounds
        cls = new
        rounds.append(cls)


def _group(keys) -> list[int]:
    first: dict = {}
    out = []
    for idx, key in enumerate(keys):
        if key not in first:
            first[key] = idx
        out.append(first[key])
    return out


def _class_formula_table(
    m: ProfileModel, rounds: list[list[int]]
) -> list[Formula]:
    # table[si] is true at exactly the states sharing si's final class
    table: list[Formula] = [ProfileAtom(m.profiles[si]) for si in range(len(m.states))]
    for k in range(1, len(rounds)):
        prev = rounds[k - 1]
        new_table: list[Formula] = []
        for si, s in enumerate(m.states):
            parts = [table[si]]
            for i in m.election.voters:
                reps: list[int] = []
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


# ---------------------------------------------------------- concept formulas

def formula_manipulation_with(
    e: Election, F: VotingRule, i: Voter, p: Profile, alt: Preference
) -> Formula:
    """True where the state's i-ranking prefers the deviated winner of p."""
    return CompAtom(i, F.winner(e, p.replace(i, alt)), F.winner(e, p))


def formula_has_manipulation(
    e: Election, F: VotingRule, i: Voter, p: Profile
) -> Formula:
    """Some ballot beats sincerity at p, judged by the state's i-ranking."""
    return big_or(
        formula_manipulation_with(e, F, i, p, alt) for alt in e.orders()
    )


def formula_dominant_manipulation(
    e: Election,
    F: VotingRule,
    i: Voter,
    alt: Preference,
    max_profiles: int = DEFAULT_MAX_STATES,
) -> Formula:
    """alt weakly beats every ballot everywhere and beats sincerity somewhere.

    The weak half compares alt against every full profile; the strict half
    cases over the state's possible i-rankings, since "better than voting
    sincerely" depends on what the sincere ballot is at the state.
    """
    profiles = e.all_profiles(max_profiles)
    weak = big_and(
        Not(CompAtom(i, F.winner(e, p), F.winner(e, p.replace(i, alt))))
        for p in profiles
    )
    anchor = e.orders()[0]
    combos = [p for p in profiles if p.pref(i) == anchor]
    strict = big_or(
        And(
            PrefAtom(i, r),
            big_or(
                CompAtom(
                    i,
                    F.winner(e, p.replace(i, alt)),
                    F.winner(e, p.replace(i, r)),
                )
                for p in combos
            ),
        )
        for r in e.orders()
    )
    return And(weak, strict)


def formula_knows_de_dicto(
    e: Election, F: VotingRule, i: Voter, max_profiles: int = DEFAULT_MAX_STATES
) -> Formula:
    """i knows that whatever the profile is, some ballot manipulates it."""
    profiles = e.all_profiles(max_profiles)
    body = big_and(
        Implies(ProfileAtom(p), formula_has_manipulation(e, F, i, p))
        for p in profiles
    )
    return Know(i, body)


def formula_knows_de_re(
    e: Election, F: VotingRule, i: Voter, max_profiles: int = DEFAULT_MAX_STATES
) -> Formula:
    """Some single ballot manipulates every profile i considers possible."""
    profiles = e.all_profiles(max_profiles)
    return big_or(
        Know(
            i,
            big_and(
                Implies(
                    ProfileAtom(p), formula_manipulation_with(e, F, i, p, alt)
                )
                for p in profiles
            ),
        )
        for alt in e.orders()
    )


def formula_equilibrium(e: Election, F: VotingRule, p: Profile) -> Formula:
    """No voter's deviation from the vote profile p beats its winner,
    judged by each voter's ranking at the evaluation state."""
    return big_and(
        Not(formula_manipulation_with(e, F, i, p, alt))
        for i in e.voters
        for alt in e.orders()
    )


def formula_conditional_equilibrium(
    m: ProfileModel, F: VotingRule, cp: ConditionalProfile
) -> Formula:
    """Valid on m exactly when cp is a conditional equilibrium.

    One conjunct per combination of information sets (one per voter): the
    conjunction of the sets' characteristic formulas guards, for every voter
    and ballot, a comparison between the worst-case winners of the deviated
    and the original conditional profile on that voter's set. Combinations
    no state realizes are vacuously true on m. Indistinguishable propagates
    from characteristic-formula construction.
    """
    e = m.election
    sets = [(i, block) for i in e.voters for block in m.blocks(i)]
    chars = dict(zip(sets, _characteristic_formulas(m, [b for _, b in sets])))
    votes_at = dict(zip(m.states, induced_profiles(m, cp)))
    key, classes = _key_of(F), ballot_classes(F, e.orders())
    # a virtual voter's conjuncts do not depend on the other voters' sets
    parts = {}
    for vi, i in enumerate(e.voters):
        for k, block in enumerate(m.blocks(i)):
            truth = m.profile_at(block[0]).pref(i)
            votes = [votes_at[s] for s in block]
            base = truth.worst_of(F.winner(e, v) for v in votes)
            dev = {c: truth.worst_of(F.winner(e, v.replace(i, alt)) for v in votes)
                   for c, alt in classes}
            parts[vi, k] = [Not(CompAtom(i, dev[key(alt)], base))
                            for alt in e.orders() if alt != cp[vi][k]]
    conjuncts = []
    cells = itertools.product(
        *[list(enumerate(m.blocks(i))) for i in e.voters]
    )
    for cell in cells:
        guard = big_and(
            chars[(i, block)] for i, (_, block) in zip(e.voters, cell)
        )
        body = [f for vi, (k, _) in enumerate(cell) for f in parts[vi, k]]
        conjuncts.append(Implies(guard, big_and(body)))
    return big_and(conjuncts)


def build_concept_formula(concept: str, **args) -> Formula:
    """Dispatch to the formula builders by concept name.

    Concepts: manipulation_with(e,F,i,p,alt), has_manipulation(e,F,i,p),
    dominant_manipulation(e,F,i,alt), knows_de_dicto(e,F,i),
    knows_de_re(e,F,i), equilibrium(e,F,p), conditional_equilibrium(m,F,cp).
    """
    builders = {
        "manipulation_with": formula_manipulation_with,
        "has_manipulation": formula_has_manipulation,
        "dominant_manipulation": formula_dominant_manipulation,
        "knows_de_dicto": formula_knows_de_dicto,
        "knows_de_re": formula_knows_de_re,
        "equilibrium": formula_equilibrium,
        "conditional_equilibrium": formula_conditional_equilibrium,
    }
    if concept not in builders:
        raise ValueError(
            f"unknown concept {concept!r}; choose from {sorted(builders)}"
        )
    return builders[concept](**args)
