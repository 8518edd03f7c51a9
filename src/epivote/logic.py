"""Formulas about preferences, knowledge, and announcements, with a model checker.

The core language is: profile atoms, negation, conjunction, K_i ("voter i
knows"), and [phi]psi ("after truthfully announcing phi, psi holds"). On top
of that sit derived atoms that are evaluated directly but can be expanded
into profile-atom disjunctions: pref atoms (voter i's full ranking), pairwise
comparison atoms (i ranks a above b), and winner atoms (candidate x wins
under the ambient rule). Or/implication/iff and "false" are parse-time sugar
over negation and conjunction; "true" is kept primitive.

Concrete syntax (whitespace-insensitive)::

    formula := unary | formula OP formula
    OP      := "<->" | "->" | "|" | "&"   (loosest first; "->" groups right)
    unary   := "~" unary | "K" INT unary | "[" formula "]" unary | atom
    atom    := "(" formula ")" | "true" | "false"
             | "profile{" INT ":" order (";" INT ":" order)* "}"
             | "pref" INT "(" order ")"
             | INT ":" ID ">" ID          (pairwise comparison)
             | "wins" ID
    order   := ID (">" ID)+               (complete ranking for profile/pref)

"K", "true", "false", "profile", "pref", and "wins" are reserved words (no
candidate may take one as a name); an INT:order with a complete ranking is
accepted as a pref atom. to_text is the inverse of parse: parse(to_text(f))
== f for every formula check_formula accepts, at any depth.

The checker evaluates state by state with a memo per evaluate/denotation
call: each K_i subformula is decided once per block, and each announcement
once per set of live states, which then filters the blocks below it; no
restricted model is built. Its cost is polynomial in formula size and model
size.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial, reduce

from .errors import (
    EmptySet,
    FormulaSyntaxError,
    IncompleteProfileAtom,
    Indistinguishable,
    MissingTiebreak,
    SizeLimit,
    UnknownCandidate,
    UnknownVoter,
)
from .games import ConditionalProfile, _Game, _payoffs
from .model import (
    RESERVED_WORDS,
    Candidate,
    Election,
    InformationSet,
    KnowledgeProfile,
    Preference,
    Profile,
    ProfileModel,
    Voter,
    check_ranking,
    check_voter,
    listed,
    own_preference_violations,
    ranks_every_candidate,
)
from .rules import VotingRule, _check_profile, _deviation_rows, ballot_classes


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


class _Connective:
    """The dataclass equality (identity first), hash and repr, on an explicit
    stack for any depth and once per shared node or pair of nodes; a hash
    reads its subformulas' hashes. Atoms keep theirs."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs, seen = [(self, other)], set()  # seen: pairs of connectives
        while pairs:
            x, y = pairs.pop()
            if x is y or (id(x), id(y)) in seen:
                continue
            if x.__class__ is y.__class__ and isinstance(x, _Connective):
                seen.add((id(x), id(y)))
                pairs += zip(vars(x).values(), vars(y).values())
            elif not x == y:
                return False
        return True

    def __hash__(self):
        return _fold(self, lambda f, kids: hash(
            (f.voter, *kids) if type(f) is Know else tuple(kids)) if kids else hash(f))

    def __repr__(self):
        def visit(f, kids):  # the dataclass repr; Know's voter is no child
            if not kids:
                return repr(f)
            heads = map(repr, list(vars(f).values())[:-len(kids)])
            args = ", ".join(map("{}={}".format, vars(f), [*heads, *kids]))
            return f"{type(f).__qualname__}({args})"
        return _fold(self, visit)


@dataclass(frozen=True, eq=False, repr=False)
class Not(_Connective):
    sub: "Formula"


@dataclass(frozen=True, eq=False, repr=False)
class And(_Connective):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, eq=False, repr=False)
class Know(_Connective):
    voter: Voter
    sub: "Formula"


@dataclass(frozen=True, eq=False, repr=False)
class Announce(_Connective):
    announced: "Formula"
    sub: "Formula"


Formula = (
    ProfileAtom | PrefAtom | CompAtom | WinsAtom | Top | Not | And | Know | Announce
)

TRUE = Top()
FALSE = Not(TRUE)


def Or(a: Formula, b: Formula) -> Formula:
    return Not(And(Not(a), Not(b)))


def Implies(a: Formula, b: Formula) -> Formula:
    return Not(And(a, Not(b)))


def Iff(a: Formula, b: Formula) -> Formula:
    return And(Implies(a, b), Implies(b, a))


def big_and(items) -> Formula:
    items = list(items)
    return reduce(And, items) if items else TRUE


def big_or(items) -> Formula:
    items = list(items)
    return reduce(Or, items) if items else FALSE


def _children(phi) -> tuple:
    """phi's subformulas in field order; () for an atom. With _rebuild and
    _eval, the one place that knows which fields hold subformulas."""
    t = type(phi)
    if t is Not or t is Know:
        return phi.sub,
    if t is And:
        return phi.left, phi.right
    return (phi.announced, phi.sub) if t is Announce else ()


def _rebuild(phi, kids) -> Formula:
    """phi with kids in place of its subformulas; an atom is itself."""
    if type(phi) is Know:
        return Know(phi.voter, *kids)
    return type(phi)(*kids) if kids else phi


def _fold(phi, visit):
    """visit(node, its children's values) once per distinct node of phi,
    children first and left to right, on an explicit stack: the root's
    value. Only a node with several parents keeps its value, in a memo."""
    parents, stack = {id(phi): 1}, [phi]  # by id: every node lives in phi
    while stack:
        for kid in _children(stack.pop()):
            parents[id(kid)] = parents.get(id(kid), 0) + 1
            if parents[id(kid)] == 1:
                stack.append(kid)
    memo, values, stack = {}, [], [(phi, None)]
    while stack:
        node, kids = stack.pop()
        if kids is None and id(node) in memo:
            values.append(memo[id(node)])
        elif kids is None and (kids := _children(node)):
            stack += [(node, kids)] + [(kid, None) for kid in reversed(kids)]
        else:
            cut = len(values) - len(kids)
            values[cut:] = [visit(node, values[cut:])]
            if parents[id(node)] > 1:
                memo[id(node)] = values[-1]
    return values[0]


# ---------------------------------------------------------------- parsing

# whitespace, the three token kinds, and any other character, which is an
# error; the kinds are disjoint by their first character
_TOKEN = re.compile(
    r"\s+|(?P<sym><->|->|[~&|()\[\]{}:;>])|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<int>[0-9]+)|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    out = []
    for mtc in _TOKEN.finditer(src):
        kind = mtc.lastgroup
        if kind == "bad":
            raise FormulaSyntaxError(
                mtc.start(), f"unexpected character {mtc.group()!r}")
        if kind is not None:
            out.append((kind, mtc.group(), mtc.start()))
    out.append(("end", "", len(src)))
    return out


# binary operators: (level, builder); a higher level binds tighter, and
# "->" alone groups to the right
_BINARY = {"<->": (1, Iff), "->": (2, Implies), "|": (3, Or), "&": (4, And)}


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

    def formula(self) -> Formula:
        """One loop on two stacks, for brackets nested to any depth: the
        operands that wait for a binary operator's right side, and the
        operators, prefixes and open brackets (as their closers) pending."""
        operands: list[Formula] = []
        ops: list = []
        while True:  # an operand is due
            kind, text, pos = self.take()
            if kind == "sym" and text == "~":
                ops.append(Not)
            elif kind == "sym" and text in ("(", "["):
                ops.append(")" if text == "(" else "]")
            elif kind == "word" and re.fullmatch(r"K[0-9]*", text):
                if text == "K":
                    kind, text, pos = self.take()
                    if kind != "int":
                        raise FormulaSyntaxError(pos, "K needs a voter number")
                voter = int(text.removeprefix("K"))
                self._check_voter(voter, pos)
                ops.append(partial(Know, voter))
            else:
                self.k -= 1
                out = self.atom()
                while True:  # out is complete: wrap it, then read what follows
                    while ops and callable(ops[-1]):
                        out = ops.pop()(out)
                    text = self.peek()[1]
                    level = _BINARY[text][0] if text in _BINARY else 0
                    while ops and ops[-1] in _BINARY and (
                            _BINARY[ops[-1]][0] >= level + (text == "->")):
                        out = _BINARY[ops.pop()][1](operands.pop(), out)
                    if level:
                        operands.append(out)
                        ops.append(self.take()[1])
                        break
                    if not ops:
                        return out
                    self.expect_sym(closer := ops.pop())
                    if closer == "]":
                        ops.append(partial(Announce, out))
                        break

    def atom(self) -> Formula:
        kind, text, pos = self.take()
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
            if len(prefs) < self.e.num_voters:
                missing = (v for v in self.e.voters if v not in prefs)
                raise IncompleteProfileAtom(
                    f"position {pos}: profile atom lacks voter(s) "
                    f"{listed(missing, self.e.num_voters - len(prefs))}"
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
        if not ranks_every_candidate(order, self.e.candidates):
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
    return _fold(phi, _text)


def _text(phi: Formula, kids: list[str]) -> str:
    """phi's text from its children's. Only a connective's last child is
    ever bracketed: when it is a conjunction."""
    if kids:
        last = f"({kids[-1]})" if type(_children(phi)[-1]) is And else kids[-1]
    match phi:
        case ProfileAtom(profile=p):
            inner = "; ".join(
                f"{v}: {r.as_text()}" for v, r in enumerate(p.prefs, start=1)
            )
            return "profile{" + inner + "}"
        case Top():
            return "true"
        case Not(sub=Top()):
            return "false"
        case Not():
            return "~" + last
        case And():
            return f"{kids[0]} & {last}"
        case Know(voter=i):
            return f"K{i} " + last
        case Announce():
            return f"[{kids[0]}] " + last
        case PrefAtom(voter=i, order=r):
            return f"pref {i}({r.as_text()})"
        case CompAtom(voter=i, better=a, worse=b):
            return f"{i}: {a}>{b}"
        case WinsAtom(candidate=c):
            return f"wins {c}"
    raise TypeError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------- semantics

def check_formula(phi: Formula, e: Election) -> None:
    """Raise if the formula mentions voters or candidates outside e; the
    first offending node in pre-order raises."""
    _check(phi, e, True)


def _check(phi: Formula, e: Election, have_rule: bool) -> None:
    """check_formula, then MissingTiebreak if the formula has a winner atom
    and not have_rule: whether a rule is needed is decided once, before any
    atom is read, so it does not depend on evaluation order."""
    wins = False
    stack, seen = [phi], set()  # seen: connectives whose subformulas are pushed
    while stack:
        phi = stack.pop()
        # the commonest nodes by an exact type test, which is cheaper than match
        t = type(phi)
        if t is ProfileAtom:
            p = phi.profile
            if len(p.prefs) != e.num_voters:
                raise IncompleteProfileAtom(
                    f"profile atom has {len(p.prefs)} voters, "
                    f"expected {e.num_voters}"
                )
            for r in p.prefs:
                if not ranks_every_candidate(r.order, e.candidates):
                    raise IncompleteProfileAtom(
                        f"profile atom ranking {r.as_text()} incomplete"
                    )
            continue
        if t is not Not and t is not And:
            match phi:
                case PrefAtom(voter=i, order=r):
                    check_voter(i, e.num_voters)
                    if not ranks_every_candidate(r.order, e.candidates):
                        raise IncompleteProfileAtom(
                            f"pref atom ranking {r.as_text()} incomplete"
                        )
                case CompAtom(voter=i, better=a, worse=b):
                    check_voter(i, e.num_voters)
                    _need_candidate(a, e)
                    _need_candidate(b, e)
                case WinsAtom(candidate=c):
                    _need_candidate(c, e)
                    wins = True
                case Know(voter=i):
                    check_voter(i, e.num_voters)
                case Top() | Announce():
                    pass
                case _:
                    raise TypeError(f"not a formula: {phi!r}")
        if (kids := _children(phi)) and id(phi) not in seen:
            seen.add(id(phi))
            stack += kids[::-1]
    if wins and not have_rule:
        raise MissingTiebreak("winner atoms need a voting rule")


def _need_candidate(c: Candidate, e: Election):
    if c not in e.candidates:
        raise UnknownCandidate(f"no candidate {c!r}")


def evaluate(kp: KnowledgeProfile, F: VotingRule | None, phi: Formula) -> bool:
    """Truth of phi at the knowledge profile's actual state.

    F is only consulted for winner atoms; passing None is fine for formulas
    without them (MissingTiebreak otherwise). An announcement false at the
    state makes the whole announcement formula true.
    """
    return bool(_holding(kp.model, F, phi, (kp.point,)))


def denotation(
    m: ProfileModel, F: VotingRule | None, phi: Formula
) -> tuple[str, ...]:
    """The states where phi holds, in file order."""
    return _holding(m, F, phi, m.states)


def _holding(m: ProfileModel, F: VotingRule | None, phi: Formula, states):
    """The given states where phi holds; SizeLimit if _eval runs out of stack."""
    _check(phi, m.election, F is not None)
    live, memo = frozenset(m.states), {}
    try:
        return tuple(s for s in states if _eval(m, s, F, phi, live, memo))
    except RecursionError:
        raise SizeLimit("formula nests too deeply") from None


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
    during the call. phi has passed check_formula, so an atom reads its
    voter's ballot without a check.
    """
    # most nodes a check visits are connectives and profile atoms (every
    # disjunction is ~(~a & ~b)); an exact type test finds them faster
    # than match
    t = type(phi)
    if t is Not:
        return not _eval(m, s, F, phi.sub, live, memo)
    if t is And:
        return (_eval(m, s, F, phi.left, live, memo)
                and _eval(m, s, F, phi.right, live, memo))
    if t is ProfileAtom:
        return m.profile_at(s) == phi.profile
    match phi:
        case PrefAtom(voter=i, order=r):
            return m.profile_at(s).prefs[i - 1] == r
        case CompAtom(voter=i, better=a, worse=b):
            return a != b and m.profile_at(s).prefs[i - 1].prefers(a, b)
        case WinsAtom(candidate=c):
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


# ------------------------------------------------------- derived-atom expansion

def expand_abbreviations(
    phi: Formula,
    e: Election,
    F: VotingRule | None,
) -> Formula:
    """Rewrite every derived atom to a disjunction of profile atoms.

    pref/comparison/winner atoms (and "true") become disjunctions over all
    (m!)^n profiles, so the result uses profile atoms, negation, conjunction,
    K, and announcement only. Semantically equivalent on every model of the
    election, and exponentially larger; exists to pin the derived atoms to
    their definitions, not for regular use. A formula of another election
    raises as check_formula does, and one with winner atoms raises
    MissingTiebreak when F is None.
    """
    _check(phi, e, F is not None)
    profiles = e.all_profiles()

    def dis(selected) -> Formula:
        chosen = [ProfileAtom(p) for p in selected]
        if not chosen:
            # unsatisfiable in primitives: a profile atom and its negation
            anchor = ProfileAtom(profiles[0])
            return And(anchor, Not(anchor))
        return big_or(chosen)

    def visit(f: Formula, kids: list[Formula]) -> Formula:
        match f:
            case PrefAtom(voter=i, order=r):
                return dis(p for p in profiles if p.pref(i) == r)
            case CompAtom(voter=i, better=a, worse=b):
                if a == b:
                    return dis([])
                return dis(p for p in profiles if p.pref(i).prefers(a, b))
            case WinsAtom(candidate=c):
                return dis(p for p in profiles if F.winner(e, p) == c)
            case Top():
                return dis(profiles)
            case _:
                return _rebuild(f, kids)

    return _fold(phi, visit)


# ------------------------------------------------------- announcement removal

def reduce_announcements(phi: Formula) -> Formula:
    """Equivalent announcement-free formula.

    Announcements are pushed inward, innermost first, by the rewrite rules
    [a]p = a -> p for atoms, [a]~b = a -> ~[a]b, [a](b & c) = [a]b & [a]c,
    and [a]K_i b = a -> K_i (a -> [a]b). Each rule copies the announced
    formula, so the result can be exponentially larger than the input.
    """
    return _fold(phi, lambda f, kids: (
        _push(*kids) if type(f) is Announce else _rebuild(f, kids)))


def _push(a: Formula, b: Formula) -> Formula:
    """[a]b by the rules above, for announcement-free a and b."""
    def visit(f: Formula, kids: list[Formula]) -> Formula:
        t = type(f)
        if t is Not:
            return Implies(a, Not(kids[0]))
        if t is And:
            return And(*kids)
        if t is Know:
            return Implies(a, Know(f.voter, Implies(a, kids[0])))
        return Implies(a, f)

    return _fold(b, visit)


# ---------------------------------------------------------------- axiom checks

@dataclass(frozen=True)
class AxiomReport:
    """Validity of the two model-class axioms on one model.

    exclusivity: every state satisfies exactly one complete profile atom.
    Since a model's valuation maps each state to a single complete profile,
    and every model's structure is checked when it is built, this always
    holds and the checker reports it. introspection: every voter knows her own
    ranking, i.e. a true pref atom is true throughout the voter's block.
    Violations carry (voter, state, confused state)."""

    exclusivity_valid: bool
    introspection_valid: bool
    introspection_violations: tuple[tuple[Voter, str, str], ...]


def check_axioms(m: ProfileModel) -> AxiomReport:
    """Check both axioms; accepts models that fail the own-preference rule."""
    viols = tuple(own_preference_violations(m))
    return AxiomReport(
        exclusivity_valid=True,
        introspection_valid=not viols,
        introspection_violations=viols,
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
    with one partition refinement for all."""
    idxs = []
    for target in targets:
        if not target:
            raise EmptySet("target needs at least one state")
        idxs.append([m.index(s) for s in target])
    cls, table = _refine(m)
    out = []
    for idx in idxs:
        target_classes = list(dict.fromkeys(cls[ti] for ti in idx))
        inside = set(idx)
        for si in range(len(m.states)):
            if si not in inside and cls[si] in target_classes:
                raise Indistinguishable(
                    f"state {m.states[si]!r} cannot be separated from the target"
                )
        out.append(big_or(table[c] for c in target_classes))
    return out


def _refine(m: ProfileModel) -> tuple[list[int], list[Formula]]:
    """Each state's bisimulation class, named by the index of its first
    state, and per state a formula true at exactly its class's states (see
    characteristic_formula). Stops at the first round that splits nothing."""
    voters = m.election.voters
    at = [m.block_ids_at(si) for si in range(len(m.states))]
    cls = _group(m.profiles)
    table: list[Formula] = [ProfileAtom(p) for p in m.profiles]
    while True:
        # per voter and block, its members' classes in first-seen order
        seen = [[list(dict.fromkeys(cls[m.index(t)] for t in b))
                 for b in m.blocks(i)] for i in voters]
        new = _group(
            (cls[si], tuple(frozenset(row[k]) for row, k in zip(seen, ks)))
            for si, ks in enumerate(at))
        if new == cls:
            return cls, table
        new_table: list[Formula] = []
        for si, ks in enumerate(at):
            parts = [table[si]]
            for i, row, k in zip(voters, seen, ks):
                for c in row[k]:
                    parts.append(Not(Know(i, Not(table[c]))))
                parts.append(Know(i, big_or(table[c] for c in row[k])))
            new_table.append(big_and(parts))
        cls, table = new, new_table


def _group(keys) -> list[int]:
    first: dict = {}
    out = []
    for idx, key in enumerate(keys):
        if key not in first:
            first[key] = idx
        out.append(first[key])
    return out


# ---------------------------------------------------------- concept formulas
# The builders decide no winner of their own: the deviation formulas read
# rules._deviation_rows, the conditional equilibrium games._payoffs.

def _rows(e: Election, F: VotingRule, i: Voter, profiles, ballots) -> list:
    """rules._deviation_rows of voter i over profiles and ballots, listed,
    after the voter check its callers owe it."""
    check_voter(i, e.num_voters)
    return list(_deviation_rows(e, F, i, profiles, ballots))


def _deviations(e: Election, F: VotingRule) -> list[Preference]:
    """The first ballot of each class F tells apart (see ballot_classes):
    the others in its class deviate to the same winners."""
    return [alt for _, alt in ballot_classes(F, e.orders())]


def formula_manipulation_with(
    e: Election, F: VotingRule, i: Voter, p: Profile, alt: Preference
) -> Formula:
    """True where the state's i-ranking prefers the deviated winner of p."""
    _check_profile(e, p)
    check_ranking(alt, e.candidates, "alt")
    [(sincere, [won])] = _rows(e, F, i, [p], [alt])
    return CompAtom(i, won, sincere)


def formula_has_manipulation(
    e: Election, F: VotingRule, i: Voter, p: Profile
) -> Formula:
    """Some ballot beats sincerity at p, judged by the state's i-ranking."""
    _check_profile(e, p)
    [(sincere, winners)] = _rows(e, F, i, [p], _deviations(e, F))
    return big_or(CompAtom(i, won, sincere) for won in winners)


def formula_dominant_manipulation(
    e: Election,
    F: VotingRule,
    i: Voter,
    alt: Preference,
) -> Formula:
    """alt weakly beats every ballot everywhere and beats sincerity somewhere.

    The weak half compares alt against every full profile; the strict half
    cases over the state's possible i-rankings, since "better than voting
    sincerely" depends on what the sincere ballot is at the state.
    """
    check_ranking(alt, e.candidates, "alt")
    profiles = e.all_profiles()
    weak = big_and(
        Not(CompAtom(i, sincere, won))
        for sincere, [won] in _rows(e, F, i, profiles, [alt])
    )
    anchor = e.orders()[0]
    combos = _rows(
        e, F, i, [p for p in profiles if p.pref(i) == anchor], (alt,) + e.orders()
    )
    strict = big_or(
        And(
            PrefAtom(i, r),
            big_or(CompAtom(i, winners[0], winners[k]) for _, winners in combos),
        )
        for k, r in enumerate(e.orders(), start=1)
    )
    return And(weak, strict)


def formula_knows_de_dicto(e: Election, F: VotingRule, i: Voter) -> Formula:
    """i knows that whatever the profile is, some ballot manipulates it."""
    profiles = e.all_profiles()
    rows = _rows(e, F, i, profiles, _deviations(e, F))
    body = big_and(
        Implies(ProfileAtom(p), big_or(CompAtom(i, won, sincere) for won in winners))
        for p, (sincere, winners) in zip(profiles, rows)
    )
    return Know(i, body)


def formula_knows_de_re(e: Election, F: VotingRule, i: Voter) -> Formula:
    """Some single ballot manipulates every profile i considers possible."""
    profiles, alts = e.all_profiles(), _deviations(e, F)
    rows = _rows(e, F, i, profiles, alts)
    return big_or(
        Know(
            i,
            big_and(
                Implies(ProfileAtom(p), CompAtom(i, winners[j], sincere))
                for p, (sincere, winners) in zip(profiles, rows)
            ),
        )
        for j in range(len(alts))
    )


def formula_equilibrium(e: Election, F: VotingRule, p: Profile) -> Formula:
    """No voter's deviation from the vote profile p beats its winner,
    judged by each voter's ranking at the evaluation state."""
    _check_profile(e, p)
    alts = _deviations(e, F)
    return big_and(
        Not(CompAtom(i, won, sincere))
        for i in e.voters
        for sincere, winners in _rows(e, F, i, [p], alts)
        for won in winners
    )


def formula_conditional_equilibrium(
    m: ProfileModel, F: VotingRule, cp: ConditionalProfile
) -> Formula:
    """Valid on m exactly when cp is a conditional equilibrium.

    One conjunct per virtual voter: her information set's characteristic
    formula guards, for every ballot class but her own ballot's, a
    comparison between her worst-case winners on that set under the
    deviated and the original conditional profile. Her worst-case ranks
    are the game's payoff read (games._payoffs), mapped back to candidates
    through her rank table. Indistinguishable propagates from
    characteristic-formula construction.
    """
    e = m.election
    chars = _characteristic_formulas(
        m, [block for i in e.voters for block in m.blocks(i)])
    game = _Game(m, F)
    keys = game.keys_of(cp)
    conjuncts = []
    for p in game.players:
        of_rank = {rank: c for c, rank in p.rank.items()}
        pays, mine = _payoffs(game, p, keys), game.place[keys[p.slot]]
        conjuncts.append(Implies(chars[p.slot], big_and(
            Not(CompAtom(p.voter, of_rank[paid], of_rank[pays[mine]]))
            for j, paid in enumerate(pays) if j != mine)))
    return big_and(conjuncts)


def build_concept_formula(concept: str, **args) -> Formula:
    """Dispatch to the formula builders by concept name.

    Concepts: manipulation_with(e,F,i,p,alt), has_manipulation(e,F,i,p),
    dominant_manipulation(e,F,i,alt), knows_de_dicto(e,F,i),
    knows_de_re(e,F,i), equilibrium(e,F,p), conditional_equilibrium(m,F,cp).
    Each builder checks its arguments once: UnknownVoter for a bad voter,
    ValueError for a profile without one ballot per voter or a ballot, alt
    included, that does not rank e's candidates once.
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
