"""Command-line front end.

Subcommands wrap the library one-to-one: check (model-check a formula),
equilibria (list or grid), manipulations (per-voter strategic report),
update (announce and write the restricted model), hypercube (generate the
all-profiles model), reduce (eliminate announcement operators), axioms
(validity of the two model-class axioms), preserve (property before/after
one announcement), hunt (seeded counterexample search).

Exit codes: 0 for a positive verdict (true / preserved / found / plain
success), 1 for a negative verdict, 2 for any error with one "error:" line
on stderr: a library error, a bad file, running out of memory or stack, or
an internal error (any other exception, named by its type). --format
records emits one JSON object per result line instead of prose; field
order is fixed so golden files diff cleanly.

The argument parser is built once per process, on the first call of main;
each call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import dynamics, games, logic, strategic
from .errors import EpivoteError, UnknownState
from .model import (Election, Preference, ProfileModel, hypercube, pref,
                    validate_model)
from .modelfile import load_model, save_model, write_model
from .rules import Plurality, rule_for


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (EpivoteError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
    except RecursionError:
        print("error: out of stack (recursion too deep)", file=sys.stderr)
    except Exception as exc:  # a bug: still exit 2, never the 1 of "false"
        detail = " ".join(str(exc).split())
        print(f"error: internal error: {type(exc).__name__}: {detail}",
              file=sys.stderr)
    return 2


@functools.cache
def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="epivote",
        description="strategic voting under higher-order uncertainty",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check", help="evaluate a formula on a model")
    p.add_argument("model")
    p.add_argument("--formula", "-f", required=True)
    p.add_argument("--point", help="evaluate at this state instead of the model's point")
    p.add_argument("--all-states", action="store_true",
                   help="report every state; exit 0 only if true everywhere")
    _common(p)
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("equilibria", help="conditional equilibria of a model")
    p.add_argument("model")
    p.add_argument("--by-top", action="store_true",
                   help="restrict ballots to one per top candidate")
    p.add_argument("--matrix", action="store_true",
                   help="print winners and payoff grids (two voters only)")
    _common(p)
    p.set_defaults(run=cmd_equilibria)

    p = sub.add_parser("manipulations", help="per-voter strategic report at the point")
    p.add_argument("model")
    p.add_argument("--voter", type=int, help="report a single voter")
    p.add_argument("--point")
    _common(p)
    p.set_defaults(run=cmd_manipulations)

    p = sub.add_parser("update", help="announce a formula, output the restricted model")
    p.add_argument("model")
    p.add_argument("--formula", "-f", required=True)
    p.add_argument("--point")
    p.add_argument("-o", "--output", help="write the updated model here")
    _common(p)
    p.set_defaults(run=cmd_update)

    p = sub.add_parser("hypercube", help="model with every profile as a state")
    p.add_argument("--candidates", required=True, help="comma-separated names")
    p.add_argument("--voters", type=int, required=True)
    p.add_argument("--tiebreak", help="order like b>a>c")
    p.add_argument("-o", "--output")
    _common(p)
    p.set_defaults(run=cmd_hypercube)

    p = sub.add_parser("reduce", help="rewrite a formula without announcements")
    p.add_argument("--formula", "-f", required=True)
    p.add_argument("--model", help="model file supplying the election")
    p.add_argument("--candidates", help="comma-separated names (with --voters)")
    p.add_argument("--voters", type=int)
    _common(p)
    p.set_defaults(run=cmd_reduce)

    p = sub.add_parser("axioms", help="check the two model-class axioms")
    p.add_argument("model")
    _common(p)
    p.set_defaults(run=cmd_axioms)

    p = sub.add_parser("preserve", help="property before and after one announcement")
    p.add_argument("model")
    p.add_argument("--formula", "-f", required=True)
    p.add_argument("--property", required=True, choices=dynamics.PROPERTIES)
    p.add_argument("--voter", type=int)
    p.add_argument("--profile",
                   help="conditional profile: per-voter ballot lists like "
                        "'a>b>c,c>b>a;b>a>c' (default: sincere)")
    p.add_argument("--point")
    _common(p)
    p.set_defaults(run=cmd_preserve)

    p = sub.add_parser("hunt", help="search for a preservation counterexample")
    p.add_argument("--property", required=True, choices=dynamics.PROPERTIES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--max-states", type=int, default=4)
    p.add_argument("--candidates", default="a,b,c")
    p.add_argument("--voters", type=int, default=2)
    _common(p)
    p.set_defaults(run=cmd_hunt)

    return top


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["text", "records"], default="text")


def _emit(args, record: dict, text: str) -> None:
    if args.format == "records":
        print(json.dumps(record))
    else:
        print(text)


def _load(args) -> ProfileModel:
    m = load_model(args.model)
    point = getattr(args, "point", None)
    if point is not None:
        m.index(point)
        m = dataclasses.replace(m, point=point)
    return m


def _rule(m: ProfileModel):
    return None if m.tiebreak is None else Plurality(m.tiebreak)


def _parse_order(text: str) -> Preference:
    """Parse a candidate order given with '>', ',', or space separators."""
    for sep in (">", ","):
        text = text.replace(sep, " ")
    return Preference(tuple(text.split()))


def _election(args) -> Election:
    if getattr(args, "model", None):
        return load_model(args.model).election
    if args.candidates and args.voters is not None:
        return _listed_election(args)
    raise ValueError("need --model, or --candidates with --voters")


def _listed_election(args) -> Election:
    """The election of the comma-separated --candidates and of --voters."""
    return Election(tuple(c.strip() for c in args.candidates.split(",")), args.voters)


# ------------------------------------------------------------- subcommands

def cmd_check(args) -> int:
    m = _load(args)
    phi = logic.parse(args.formula, m.election)
    F = _rule(m)
    if args.all_states or m.point is None:
        holds = set(logic.denotation(m, F, phi))
        for s in m.states:
            _emit(args, {"command": "check", "state": s, "value": s in holds},
                  f"{s}: {'true' if s in holds else 'false'}")
        return 0 if len(holds) == len(m.states) else 1
    value = logic.evaluate(m.pointed(), F, phi)
    _emit(args, {"command": "check", "state": m.point, "value": value},
          "true" if value else "false")
    return 0 if value else 1


def cmd_equilibria(args) -> int:
    m = _load(args)
    F = rule_for(m)
    if args.matrix:
        mat = games.payoff_matrix(m, F, by_top=args.by_top)
        if args.format == "records":
            for row, wrow, prow, srow in zip(
                    mat.row_labels, mat.winners, mat.payoffs, mat.equilibria):
                for col, winners, payoffs, star in zip(
                        mat.col_labels, wrow, prow, srow):
                    print(json.dumps({
                        "command": "equilibria", "row": row, "col": col,
                        "winners": winners, "payoffs": payoffs,
                        "equilibrium": star,
                    }))
        else:
            print(games.render_matrix(mat))
        return 0
    found = games.enumerate_conditional_equilibria(m, F, by_top=args.by_top)
    labels = [[games.strategy_label(row, by_top=args.by_top) for row in cp]
              for cp in found]
    if args.format == "text":
        print(f"{len(found)} equilibria")
        for ls in labels:
            print("(" + ", ".join(ls) + ")")
        return 0
    for ls, (winners, payoffs) in zip(labels, games.outcome_strings(m, F, found)):
        print(json.dumps({"command": "equilibria", "labels": ls,
                          "winners": winners, "payoffs": payoffs}))
    return 0


def cmd_manipulations(args) -> int:
    m = _load(args)
    if m.point is None:
        raise UnknownState("the model has no point; pass --point")
    F = rule_for(m)
    kp = m.pointed()
    voters = list(m.election.voters) if args.voter is None else [args.voter]
    for i in voters:
        rep = strategic.classify(kp, F, i)
        record = {
            "command": "manipulations", "voter": i, "kind": rep.kind,
            "has_manipulation": rep.has_manipulation,
            "knows_de_dicto": rep.knows_de_dicto,
            "knows_de_re": rep.knows_de_re,
            "manipulation_alts": [a.as_text() for a in rep.manipulation_alts],
            "dominant_alts": [a.as_text() for a in rep.dominant_alts],
            "pessimistic_alts": [a.as_text() for a in rep.pessimistic_alts],
            "de_re_alts": [a.as_text() for a in rep.de_re_alts],
        }
        parts = [f"voter {i}: {rep.kind}"]
        for label, alts in [("manipulations", rep.manipulation_alts),
                            ("dominant", rep.dominant_alts),
                            ("pessimistic", rep.pessimistic_alts),
                            ("de re", rep.de_re_alts)]:
            if alts:
                parts.append(f"{label}: " + " ".join(a.as_text() for a in alts))
        _emit(args, record, "; ".join(parts))
    return 0


def cmd_update(args) -> int:
    m = _load(args)
    phi = logic.parse(args.formula, m.election)
    res = dynamics.update(m, phi, _rule(m))
    record = {
        "command": "update",
        "survived": list(res.survived), "dropped": list(res.dropped),
        "point_survives": res.point_survives,
    }
    if args.output:
        save_model(res.model, args.output)
        record["output"] = args.output
        _emit(args, record,
              f"survived: {' '.join(res.survived)}\n"
              f"dropped: {' '.join(res.dropped) or '(none)'}\n"
              f"wrote {args.output}")
    else:
        text = write_model(res.model)
        if args.format == "records":
            record["model"] = text
            print(json.dumps(record))
        else:
            print(text, end="")
    return 0


def cmd_hypercube(args) -> int:
    e = _listed_election(args)
    tiebreak = _parse_order(args.tiebreak) if args.tiebreak else None
    m = hypercube(e, tiebreak=tiebreak)
    validate_model(m)
    if args.output:
        save_model(m, args.output)
        _emit(args, {"command": "hypercube", "states": len(m.states),
                     "output": args.output},
              f"{len(m.states)} states; wrote {args.output}")
    else:
        text = write_model(m)
        if args.format == "records":
            print(json.dumps({"command": "hypercube", "states": len(m.states),
                              "model": text}))
        else:
            print(text, end="")
    return 0


def cmd_reduce(args) -> int:
    e = _election(args)
    phi = logic.parse(args.formula, e)
    out = logic.to_text(logic.reduce_announcements(phi))
    _emit(args, {"command": "reduce", "formula": out}, out)
    return 0


def cmd_axioms(args) -> int:
    m = load_model(args.model, validate=False)
    rep = logic.check_axioms(m)
    record = {
        "command": "axioms",
        "exclusivity": rep.exclusivity_valid,
        "introspection": rep.introspection_valid,
        "violations": [list(v) for v in rep.introspection_violations],
    }
    lines = [
        f"P: {'valid' if rep.exclusivity_valid else 'invalid'}",
        f"N: {'valid' if rep.introspection_valid else 'invalid'}",
    ]
    for voter, state, other in rep.introspection_violations:
        lines.append(f"  voter {voter} confuses {state} and {other}")
    _emit(args, record, "\n".join(lines))
    return 0 if rep.exclusivity_valid and rep.introspection_valid else 1


def cmd_preserve(args) -> int:
    m = _load(args)
    F = rule_for(m)
    phi = logic.parse(args.formula, m.election)
    cp = None
    if args.property in dynamics._PROFILE_PROPERTIES:
        cp = (_parse_conditional_profile(args.profile)
              if args.profile is not None
              else games.sincere_conditional_profile(m))
    rep = dynamics.check_preservation(
        m, F, phi, args.property, voter=args.voter, cp=cp)
    record = {
        "command": "preserve", "property": rep.property,
        "held_before": rep.held_before, "held_after": rep.held_after,
        "preserved": rep.preserved,
    }
    text = (f"before: {'holds' if rep.held_before else 'fails'}\n"
            f"after: {'holds' if rep.held_after else 'fails'}\n"
            f"preserved: {'yes' if rep.preserved else 'no'}")
    _emit(args, record, text)
    return 0 if rep.preserved else 1


def _parse_conditional_profile(spec: str):
    """'a>b>c,c>b>a;b>c>a' -> one row of ballots per voter, unchecked."""
    return tuple(tuple(pref(c) for c in row.split(",")) for row in spec.split(";"))


def cmd_hunt(args) -> int:
    e = _listed_election(args)
    res = dynamics.search_counterexample(
        args.property, e=e, seed=args.seed,
        budget=args.budget, max_states=args.max_states)
    record = {
        "command": "hunt", "property": res.property, "found": res.found,
        "tries": res.tries, "seed": res.seed, "detail": res.detail,
    }
    if res.found:
        model_text = write_model(res.model)
        record["model"] = model_text
        record["announcement"] = logic.to_text(res.announcement)
        _emit(args, record,
              f"found after {res.tries} tries (seed {res.seed})\n{res.detail}\n"
              + model_text)
        return 0
    _emit(args, record, f"budget exhausted after {res.tries} tries (seed {res.seed})")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
