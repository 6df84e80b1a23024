"""Exception types, the pole names and their one check, and the integer check shared across the package.

Every exception derives from ValueError, except SearchBudgetExceeded, so
callers that only care about "bad input" can catch one base class, while
the CLI maps specific types to specific exit codes.  Nothing here needs
numpy, so the integer commands of the CLI can use it without loading it.
"""

NORTH = "north"
SOUTH = "south"


def pole_name(pole):
    """NORTH or SOUTH for a pole named in any case and with surrounding blanks; ValueError otherwise."""
    name = str(pole).strip().lower()
    if name not in (NORTH, SOUTH):
        raise ValueError(f"pole must be {NORTH!r} or {SOUTH!r}, got {pole!r}")
    return name


def as_integer(value, name):
    """value as an int; ValueError unless it equals one, so 12.7 and inf are refused, not truncated."""
    try:
        n = int(value)
    except (OverflowError, ValueError):
        n = None
    if n is None or n != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return n


class InvalidMode(ValueError):
    """(s, j, m) violates j >= |s| or |m| <= j, or a j or band leaves the envelope j <= modes.J_MAX."""


class DomainError(ValueError):
    """Evaluation point off the open sphere: theta outside (0, pi), or phi not finite."""


class UnsupportedOrder(ValueError):
    """Derivative order other than 1 or 2."""


class BandLimitExceeded(ValueError):
    """Mode or coefficient content above the grid's band limit."""


class GridMismatch(ValueError):
    """Two grid functions live on different grids."""


class SpinWeightMismatch(ValueError):
    """Spin weights that were required to agree do not."""


class InsufficientNodes(ValueError):
    """Fewer grid nodes than a band limit or an extrapolation needs."""


class TooManyNodes(ValueError):
    """A grid node count past the envelope n_theta, n_phi <= modes.NODES_MAX."""


class UnsupportedHelicity(ValueError):
    """Embedded sections exist only for |h| in {1, 2}."""


class NegativeSpin(ValueError):
    """Multiplet labels must be nonnegative integers."""


class SearchBudgetExceeded(RuntimeError):
    """A walk over factor_search's free pairs would branch past the limit."""
