"""Exception types, and the bound and integer checks, shared across the package."""

from operator import index


def integer(name: str, value) -> int:
    """`value` read with `operator.index`: a float or a string raises
    ValueError naming it, where `int` would truncate or parse it."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def integers(name: str, values) -> tuple[int, ...]:
    """`integer` over `values`, each one named `name` in the error."""
    values = tuple(values)
    try:
        return tuple(map(index, values))  # the common case, looped in C
    except TypeError:
        return tuple(integer(name, v) for v in values)


def require_nonnegative(name: str, value) -> int:
    """The size bound `value` read with `integer`; below 0 raises ValueError naming it."""
    if (value := integer(name, value)) < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


class GGError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidSpecialPartition(GGError):
    """An overline sits on a value that is not the largest odd part."""


class MissingEntryError(GGError):
    """A surgery referenced a (value, mark) pair that the marking does not contain.

    Raised whenever a map step cannot find the part it is supposed to move;
    this is the well-definedness failure mode of the whole construction, so it
    carries enough context to reconstruct the offending step.
    """

    def __init__(self, message, partition=None):
        super().__init__(message)
        self.partition = partition


class MembershipError(GGError):
    """An operation was applied to a partition outside its domain family."""


class ClassificationError(GGError):
    """A pass that must find exactly one match found none or several: the
    starting-type cases of a 2-marked part, the subset clauses of a
    confirmed family member, or the typed runs of a group-typing pass."""


class UniquenessError(GGError):
    """A scan that must produce at most one decomposition produced two."""
