"""Stable evaluation of spin-weighted harmonics and their theta-derivatives.

The value of a mode factorizes as

    sY_jm(theta, phi) = p_{sjm}(theta) * exp(i m phi)

with a real theta-profile p. Profiles (and their first and second
derivatives) are evaluated from precomputed log-space term tables, see
kernels.py. Evaluation refuses the poles; the finite limiting data there
lives exclusively in eval_swsh_pole_limit, because as plain functions the
modes are singular at theta = 0, pi even though the objects they describe
are not.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError, InvalidMode, UnsupportedOrder

NORTH = "north"
SOUTH = "south"


@dataclass(frozen=True)
class SWMode:
    """Index triple (spin weight s, total j, magnetic m) of one harmonic."""

    s: int
    j: int
    m: int

    def __post_init__(self):
        validate_mode(self.s, self.j, self.m)


def validate_mode(s, j, m):
    """Raise InvalidMode unless (s, j, m) is an admissible mode with j <= kernels.J_MAX."""
    for name, val in (("s", s), ("j", j), ("m", m)):
        if val != int(val):
            raise InvalidMode(f"{name}={val!r} is not an integer")
    if j < 0:
        raise InvalidMode(f"j={j} is negative")
    if j < abs(s):
        raise InvalidMode(f"invalid mode: j < |s| (j={j}, s={s})")
    if abs(m) > j:
        raise InvalidMode(f"invalid mode: |m| > j (j={j}, m={m})")
    kernels.check_j_supported(j)


# Grid transforms read the per-grid mode tables, so a term table is reused
# only by repeated profile() calls.  The bound holds one order-0 table for
# every mode of one spin weight up to the j cap.
TERM_TABLE_CACHE_SIZE = (kernels.J_MAX + 1) ** 2


@functools.lru_cache(maxsize=TERM_TABLE_CACHE_SIZE)
def _term_table(s, j, m, order):
    if order == 0:
        return kernels.goldberg_terms(s, j, m)
    return kernels.differentiate_terms(_term_table(s, j, m, order - 1))


def profile(s, j, m, theta, order=0):
    """Real theta-profile of sY_jm (or its theta-derivative) at interior theta."""
    validate_mode(s, j, m)
    return kernels.eval_profile(_term_table(s, j, m, order), theta)


def _check_interior(theta):
    theta = np.asarray(theta, dtype=np.float64)
    if theta.size and not np.all((theta > 0.0) & (theta < math.pi)):
        raise DomainError(
            "theta must lie strictly inside (0, pi); "
            "pole data is available via eval_swsh_pole_limit"
        )
    return theta


def eval_swsh(mode, theta, phi):
    """Value of the mode at interior points.

    Arguments
    ---------
    mode : SWMode
    theta : float or array, radians in (0, pi)
    phi : float or array, radians

    Returns a complex scalar for scalar input, else a complex array of the
    broadcast shape.
    """
    theta = _check_interior(theta)
    phi = np.asarray(phi, dtype=np.float64)
    theta_b, phi_b = np.broadcast_arrays(theta, phi)
    p = profile(mode.s, mode.j, mode.m, theta_b)
    out = p * np.exp(1j * mode.m * phi_b)
    if out.ndim == 0:
        return complex(out)
    return out


def eval_swsh_dtheta(mode, theta, phi, order=1):
    """Analytic d/dtheta (order 1) or d2/dtheta2 (order 2) of the mode."""
    if order not in (1, 2):
        raise UnsupportedOrder(f"derivative order must be 1 or 2, got {order}")
    theta = _check_interior(theta)
    phi = np.asarray(phi, dtype=np.float64)
    theta_b, phi_b = np.broadcast_arrays(theta, phi)
    p = profile(mode.s, mode.j, mode.m, theta_b, order=order)
    out = p * np.exp(1j * mode.m * phi_b)
    if out.ndim == 0:
        return complex(out)
    return out


def eval_swsh_pole_limit(mode, pole):
    """Coefficient c with sY_jm ~ c * exp(i m phi) approaching the pole.

    Nonzero only for m = -s at the north pole and m = s at the south pole;
    the values are +-sqrt((2j+1)/4pi) with sign (-1)^|s| (north) and
    (-1)^j (south).
    """
    p = str(pole).strip().lower()
    if p not in (NORTH, SOUTH):
        raise ValueError(f"pole must be 'north' or 'south', got {pole!r}")
    amp = math.sqrt((2 * mode.j + 1) / (4.0 * math.pi))
    if p == NORTH:
        if mode.m != -mode.s:
            return 0.0 + 0.0j
        return complex((-1.0 if mode.s % 2 else 1.0) * amp)
    if mode.m != mode.s:
        return 0.0 + 0.0j
    return complex((-1.0 if mode.j % 2 else 1.0) * amp)
