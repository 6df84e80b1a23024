"""Exception types, the pole names and their one check, the integer check shared across the package, and the multiplet size cap.

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


MULTIPLET_J_MAX = 1024


def check_multiplet_j(value, what):
    """Raise InvalidMode("<what> exceeds the supported maximum multiplet j = MULTIPLET_J_MAX") if value > MULTIPLET_J_MAX.

    The cap is declared here, not in modes.py, which re-exports it, so multiplets.py checks it without numpy.
    """
    if value > MULTIPLET_J_MAX:
        raise InvalidMode(f"{what} exceeds the supported maximum multiplet j = {MULTIPLET_J_MAX}")


class InvalidMode(ValueError):
    """(s, j, m) violates j >= |s| or |m| <= j, a j or band leaves the envelope j <= modes.J_MAX, or a multiplet j leaves j <= MULTIPLET_J_MAX."""


class DomainError(ValueError):
    """A value off its domain: theta outside (0, pi), or an angle, scale or quadrature result that is not finite."""


class UnsupportedOrder(ValueError):
    """Derivative order other than 1 or 2."""


class BandLimitExceeded(ValueError):
    """Mode or coefficient content above the grid's band limit."""


class GridMismatch(ValueError):
    """Two grid functions live on different grids."""


class SpinWeightMismatch(ValueError):
    """Spin weights that were required to agree do not."""


class InsufficientNodes(ValueError):
    """Fewer grid nodes than a band limit needs."""


class TooManyNodes(ValueError):
    """A grid node count past the envelope n_theta, n_phi <= modes.NODES_MAX."""


class UnsupportedHelicity(ValueError):
    """Embedded sections exist only for |h| in {1, 2}."""


class NegativeSpin(ValueError):
    """Multiplet labels must be nonnegative integers."""


class SearchBudgetExceeded(RuntimeError):
    """A walk over factor_search's free pairs would branch past the limit."""
