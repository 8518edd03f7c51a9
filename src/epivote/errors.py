"""Exception types shared across the package.

The library raises two kinds of error. Faults of a model, a formula or a
size cap derive from EpivoteError. A bad argument value raises the
builtin ValueError: an Election or Preference that cannot be built (one
string of candidates, a voter count that is no int or is a bool), a
state name the model file cannot hold, a ballot or tiebreak that does
not rank the candidates once, a profile without one ballot per voter
(rules, games, the concept formulas), a conditional profile of the wrong
shape (games, update_conditional_profile) or with a missing choice
(conditional_profile), a grid of other than two voters (payoff_matrix),
an unknown mode (knows_manipulation), and an unknown property, a budget
or a state count out of range (dynamics). Each entry checks its profile
and ballots once per call (rules._check_profile, model.check_ranking).
The CLI maps both, and OSError, to exit code 2 without enumerating
causes; it maps running out of memory or stack, and any other exception,
to exit code 2 as well.

A voter is an int, not a bool, in 1..n; anything else raises UnknownVoter
from model.check_voter, the one voter rule. Profile.pref and
Profile.replace, ProfileModel.blocks, block_ids and block_of, the
partition keys of make_model, check_formula, dominant_preference and the
concept formulas call it, so every entry that takes a voter refuses a bad
one before it judges anything.

A ProfileModel checks its structure when it is built, so DanglingState,
PartitionError and UnknownState for a broken partition, valuation or point
come from construction; validate_model adds only OwnPreferenceViolation.
"""


class EpivoteError(Exception):
    """Base class for all library errors."""


class ModelSyntaxError(EpivoteError):
    """Malformed model text. Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class PartitionError(EpivoteError):
    """A voter's indistinguishability blocks do not partition the state set,
    state names repeat, or a voter has no partition; raised when the model
    is built."""


class OwnPreferenceViolation(EpivoteError):
    """Two states a voter cannot tell apart assign her different preferences."""

    def __init__(self, voter: int, state_a: str, state_b: str):
        super().__init__(
            f"voter {voter} cannot distinguish {state_a} and {state_b} "
            f"but has different preferences there"
        )
        self.voter = voter
        self.state_a = state_a
        self.state_b = state_b


class DanglingState(EpivoteError):
    """A state is mentioned without a valuation, or a valuation is incomplete."""


class UnknownState(EpivoteError):
    """A state name that is not in the model (bad point, bad block member)."""


class SizeLimit(EpivoteError):
    """An enumeration would exceed the cap ``model.SIZE_CAP`` on its item
    count, or a formula nests deeper than the evaluator's Python stack."""


class EmptySet(EpivoteError):
    """An operation was given an empty set where a nonempty one is required."""


class EmptyResult(EpivoteError):
    """An update removed every state; the restricted model would be empty."""


class MissingTiebreak(EpivoteError):
    """A voting rule that needs a tie-breaking order was requested without one."""


class FormulaSyntaxError(EpivoteError):
    """Malformed formula text. Carries the 0-based character position."""

    def __init__(self, pos: int, message: str):
        super().__init__(f"position {pos}: {message}")
        self.pos = pos


class UnknownVoter(EpivoteError):
    """A voter that is not an int in 1..n, in a formula or in a query."""


class UnknownCandidate(EpivoteError):
    """A formula or order refers to a candidate outside the election."""


class IncompleteProfileAtom(EpivoteError):
    """A profile or preference atom does not rank every candidate exactly once."""


class Indistinguishable(EpivoteError):
    """No formula can separate the target states: bisimilar states straddle it."""
