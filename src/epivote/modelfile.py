"""Text format for profile models.

    # strategic situation with one hidden flip
    candidates: a b c
    voters: 2
    tiebreak: b a c
    state t = 1: a>b>c ; 2: c>b>a
    state u = 1: c>b>a ; 2: c>b>a
    indist 1: {t} {u}
    indist 2: {t u}
    point: t

'#' starts a comment. ``tiebreak`` and ``point`` are optional; a voter with no
``indist`` line gets all-singleton blocks. Parse errors carry the 1-based line
number. ``write_model(parse_model(text))`` is canonical: parse . write is the
identity on models.
"""

from __future__ import annotations

from .errors import ModelSyntaxError
from .model import (
    Election,
    Preference,
    Profile,
    ProfileModel,
    check_candidate_names,
    listed,
    make_model,
    ranks_every_candidate,
    validate_model,
)


def parse_model(text: str, validate: bool = True) -> ProfileModel:
    """Parse the text format into a ProfileModel, whose construction checks
    the structure (a partition that misses or repeats a state raises
    PartitionError). validate=True also runs validate_model's own-preference
    rule; validate=False skips it, so the axiom checker can examine models
    that break it.
    """
    candidates: tuple[str, ...] | None = None
    num_voters: int | None = None
    tiebreak: Preference | None = None
    point: str | None = None
    states: list[str] = []
    profiles: dict[str, Profile] = {}
    indist: dict[int, list[tuple[str, ...]]] = {}
    indist_lines: dict[int, int] = {}
    point_line = 1
    ballots: dict[str, Preference] = {}  # each ballot text parsed and checked once

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        keyword = key.split()[0] if key.split() else ""
        if keyword == "candidates":
            if candidates is not None:
                raise ModelSyntaxError(lineno, "duplicate candidates line")
            candidates = tuple(rest.split())
            if not candidates:
                raise ModelSyntaxError(lineno, "no candidates listed")
            if len(set(candidates)) != len(candidates):
                raise ModelSyntaxError(lineno, "candidate listed twice")
            try:
                check_candidate_names(candidates)
            except ValueError as exc:
                raise ModelSyntaxError(lineno, str(exc)) from None
        elif keyword == "voters":
            if num_voters is not None:
                raise ModelSyntaxError(lineno, "duplicate voters line")
            try:
                num_voters = int(rest.strip())
            except ValueError:
                raise ModelSyntaxError(lineno, f"bad voter count {rest.strip()!r}")
            if num_voters < 1:
                raise ModelSyntaxError(lineno, "need at least one voter")
        elif keyword == "tiebreak":
            _need_header(lineno, candidates, num_voters)
            order = tuple(rest.split())
            _check_order(lineno, order, candidates, "tiebreak")
            tiebreak = Preference(order)
        elif keyword == "state":
            _need_header(lineno, candidates, num_voters)
            name, profiles_part = _split_state_line(lineno, line)
            if name in profiles:
                raise ModelSyntaxError(lineno, f"duplicate state {name!r}")
            states.append(name)
            profiles[name] = _parse_profile(
                lineno, profiles_part, candidates, num_voters, ballots
            )
        elif keyword == "indist":
            _need_header(lineno, candidates, num_voters)
            voter = _parse_voter_key(lineno, key)
            if voter < 1 or voter > num_voters:
                raise ModelSyntaxError(lineno, f"no voter {voter}")
            if voter in indist:
                raise ModelSyntaxError(lineno, f"duplicate indist for voter {voter}")
            indist[voter] = _parse_blocks(lineno, rest)
            indist_lines[voter] = lineno
        elif keyword == "point":
            point = rest.strip()
            point_line = lineno
            if not point:
                raise ModelSyntaxError(lineno, "empty point")
        else:
            raise ModelSyntaxError(lineno, f"unrecognized line {line!r}")

    if candidates is None:
        raise ModelSyntaxError(1, "missing candidates line")
    if num_voters is None:
        raise ModelSyntaxError(1, "missing voters line")
    if not states:
        raise ModelSyntaxError(1, "no states declared")
    if point is not None and point not in profiles:
        raise ModelSyntaxError(
            point_line, f"point {point!r} is not a declared state"
        )
    for voter, blocks in indist.items():
        for block in blocks:
            for s in block:
                if s not in profiles:
                    raise ModelSyntaxError(
                        indist_lines[voter],
                        f"indist {voter} mentions unknown state {s!r}",
                    )

    election = Election(candidates, num_voters)
    m = make_model(
        election,
        states,
        profiles,
        partitions={v: blocks for v, blocks in indist.items()},
        tiebreak=tiebreak,
        point=point,
    )
    if validate:
        validate_model(m)
    return m


def _need_header(lineno, candidates, num_voters):
    if candidates is None or num_voters is None:
        raise ModelSyntaxError(
            lineno, "candidates and voters must be declared first"
        )


def _split_state_line(lineno: int, line: str) -> tuple[str, str]:
    head, eq, rest = line.partition("=")
    if not eq:
        raise ModelSyntaxError(lineno, "state line needs '='")
    parts = head.split()
    if len(parts) != 2:
        raise ModelSyntaxError(lineno, "expected 'state NAME = ...'")
    if "{" in parts[1] or "}" in parts[1]:
        # an indist line could not list it: braces delimit its blocks
        raise ModelSyntaxError(
            lineno, f"state name {parts[1]!r} contains a brace")
    return parts[1], rest


def _parse_profile(lineno, text, candidates, num_voters, ballots) -> Profile:
    """One state's profile. ballots maps each ballot text already parsed in
    this file to its Preference; only texts that pass the check enter it,
    so a bad one is reported at its first line."""
    prefs: dict[int, Preference] = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise ModelSyntaxError(lineno, "empty voter entry")
        voter_part, colon, order_part = chunk.partition(":")
        if not colon:
            raise ModelSyntaxError(lineno, f"voter entry {chunk!r} needs ':'")
        try:
            voter = int(voter_part.strip())
        except ValueError:
            raise ModelSyntaxError(lineno, f"bad voter {voter_part.strip()!r}")
        if voter < 1 or voter > num_voters:
            raise ModelSyntaxError(lineno, f"no voter {voter}")
        if voter in prefs:
            raise ModelSyntaxError(lineno, f"voter {voter} listed twice")
        ballot = ballots.get(order_part)
        if ballot is None:
            order = tuple(c.strip() for c in order_part.split(">"))
            _check_order(lineno, order, candidates, f"voter {voter}'s order")
            ballot = ballots[order_part] = Preference(order)
        prefs[voter] = ballot
    if len(prefs) < num_voters:
        missing = (v for v in range(1, num_voters + 1) if v not in prefs)
        raise ModelSyntaxError(lineno, f"state lacks voter(s) "
                               f"{listed(missing, num_voters - len(prefs))}")
    return Profile(tuple(prefs[v] for v in range(1, num_voters + 1)))


def _check_order(lineno, order, candidates, what):
    if not ranks_every_candidate(order, candidates):
        raise ModelSyntaxError(
            lineno,
            f"{what} must rank every candidate exactly once, got "
            f"{'>'.join(order)!r}",
        )


def _parse_voter_key(lineno: int, key: str) -> int:
    parts = key.split()
    if len(parts) != 2:
        raise ModelSyntaxError(lineno, "expected 'indist VOTER: ...'")
    try:
        return int(parts[1])
    except ValueError:
        raise ModelSyntaxError(lineno, f"bad voter {parts[1]!r}")


def _parse_blocks(lineno: int, text: str) -> list[tuple[str, ...]]:
    blocks: list[tuple[str, ...]] = []
    rest = text.strip()
    while rest:
        if not rest.startswith("{"):
            raise ModelSyntaxError(lineno, f"expected '{{' in {rest!r}")
        close = rest.find("}")
        if close < 0:
            raise ModelSyntaxError(lineno, "unclosed '{'")
        members = tuple(rest[1:close].split())
        if not members:
            raise ModelSyntaxError(lineno, "empty block")
        blocks.append(members)
        rest = rest[close + 1:].strip()
    if not blocks:
        raise ModelSyntaxError(lineno, "indist line lists no blocks")
    return blocks


def write_model(m: ProfileModel) -> str:
    """Serialize to the canonical text form (inverse of parse_model)."""
    lines = [
        "candidates: " + " ".join(m.election.candidates),
        f"voters: {m.election.num_voters}",
    ]
    if m.tiebreak is not None:
        lines.append("tiebreak: " + " ".join(m.tiebreak.order))
    for s in m.states:
        lines.append(f"state {s} = {m.profile_at(s).as_text()}")
    for voter in m.election.voters:
        blocks = " ".join(
            "{" + " ".join(block) + "}" for block in m.blocks(voter)
        )
        lines.append(f"indist {voter}: {blocks}")
    if m.point is not None:
        lines.append(f"point: {m.point}")
    return "\n".join(lines) + "\n"


def load_model(path, validate: bool = True) -> ProfileModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read(), validate=validate)


def save_model(m: ProfileModel, path) -> None:
    """Write m to path. The text is rendered before the file is opened, so a
    failed render leaves an existing file as it was."""
    text = write_model(m)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
