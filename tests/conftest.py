import pathlib

import pytest
from hypothesis import strategies as st

from epivote import (
    And,
    Announce,
    CompAtom,
    Election,
    Know,
    Not,
    Plurality,
    PrefAtom,
    Profile,
    ProfileAtom,
    WinsAtom,
    load_model,
    make_model,
    pref,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def fixture_path(name: str) -> str:
    return str(FIXTURES / f"{name}.model")


def random_formula(rng, e, depth=3):
    """A random formula over e, announcement and K operators included."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(4)
        if kind == 0:
            return ProfileAtom(rng.choice(e.all_profiles()))
        if kind == 1:
            return PrefAtom(rng.choice(list(e.voters)), rng.choice(e.orders()))
        if kind == 2:
            a, b = rng.sample(list(e.candidates), 2)
            return CompAtom(rng.choice(list(e.voters)), a, b)
        return WinsAtom(rng.choice(list(e.candidates)))
    kind = rng.randrange(4)
    if kind == 0:
        return Not(random_formula(rng, e, depth - 1))
    if kind == 1:
        return And(
            random_formula(rng, e, depth - 1), random_formula(rng, e, depth - 1)
        )
    if kind == 2:
        return Know(rng.choice(list(e.voters)), random_formula(rng, e, depth - 1))
    return Announce(
        random_formula(rng, e, depth - 1), random_formula(rng, e, depth - 1)
    )


@st.composite
def pointed_models(draw, broken=False):
    """Small valid pointed models for oracle tests.

    2-3 voters, 3 candidates (sometimes 4), 1-4 states and a drawn tiebreak.
    Each voter's preference at a state comes from a pool of one or two
    orders, so information sets often hold several states. Each voter's
    partition splits the states sharing one of her preferences into blocks
    at random, so she always knows her own preference. With broken=True it
    splits all states at random instead, so a block may mix her
    preferences, and one draw in two also breaks one voter's partition: it
    misses a state, or repeats one in a block of its own. The model is
    otherwise well formed.
    """
    e = Election(("a", "b", "c", "d")[:draw(st.sampled_from((3, 3, 3, 4)))],
                 draw(st.integers(2, 3)))
    orders = st.sampled_from(e.orders())
    pools = [draw(st.lists(orders, min_size=1, max_size=2)) for _ in e.voters]
    states = [f"s{j}" for j in range(draw(st.sampled_from((1, 2, 3, 4))))]
    profiles = [
        Profile(tuple(draw(st.sampled_from(pool)) for pool in pools))
        for _ in states
    ]
    partitions = {}
    for i in e.voters:
        groups: dict = {}
        for s, p in zip(states, profiles):
            groups.setdefault(None if broken else p.pref(i), []).append(s)
        blocks: list[list[str]] = []
        for members in groups.values():
            mine: list[list[str]] = []
            for s in members:
                j = draw(st.integers(0, len(mine)))
                if j == len(mine):
                    mine.append([])
                mine[j].append(s)
            blocks += mine
        partitions[i] = blocks
    fault = draw(st.sampled_from((None, None, "miss", "repeat"))) if broken else None
    if fault is not None:
        blocks = partitions[draw(st.sampled_from(list(e.voters)))]
        s = draw(st.sampled_from(states))
        if fault == "repeat":
            blocks.append([s])
        else:
            for block in blocks:
                if s in block:
                    block.remove(s)
            blocks[:] = [b for b in blocks if b]
    return make_model(e, states, profiles, partitions,
                      tiebreak=draw(orders), point=draw(st.sampled_from(states)))


@pytest.fixture(scope="session")
def rule():
    return Plurality(pref("b>a>c"))


@pytest.fixture(scope="session")
def known_opposed():
    return load_model(fixture_path("known-opposed"))


@pytest.fixture(scope="session")
def known_aligned():
    return load_model(fixture_path("known-aligned"))


@pytest.fixture(scope="session")
def hidden_flip():
    return load_model(fixture_path("hidden-flip"))


@pytest.fixture(scope="session")
def nested_doubt():
    return load_model(fixture_path("nested-doubt"))


@pytest.fixture(scope="session")
def mutual_doubt():
    return load_model(fixture_path("mutual-doubt"))


@pytest.fixture(scope="session")
def all_fixture_models(known_opposed, known_aligned, hidden_flip,
                       nested_doubt, mutual_doubt):
    return {
        "known-opposed": known_opposed,
        "known-aligned": known_aligned,
        "hidden-flip": hidden_flip,
        "nested-doubt": nested_doubt,
        "mutual-doubt": mutual_doubt,
    }
