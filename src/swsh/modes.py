"""Stable evaluation of spin-weighted harmonics and their theta-derivatives.

The value of a mode factorizes as

    sY_jm(theta, phi) = p_{sjm}(theta) * exp(i m phi)

with a real theta-profile p.  Every profile comes from one j-recurrence,
_climb: a batch of (s, m) rows starts at j0 = max(|m|, |s|), where a
profile is one half-angle monomial in closed form (_seeds), and climbs by
the three-term recurrence and, for the derivative orders in the same
loop, by its theta-derivatives, plain calculus that restates no ladder
algebra:

    a_{j+1} p_{j+1}   = b_j p_j - a_j p_{j-1},
    a_{j+1} p'_{j+1}  = b_j p'_j - sin(theta) p_j - a_j p'_{j-1},
    a_{j+1} p''_{j+1} = b_j p''_j - 2 sin(theta) p'_j - cos(theta) p_j - a_j p''_{j-1},
    a_j = sqrt((j^2 - m^2)(j^2 - s^2) / (j^2 (4 j^2 - 1))),  b_j = cos(theta) + m s / (j (j+1)).

profile() climbs one row and holds only rows j - 1 and j; it serves
point evaluation.  The mode tables of tables.py climb many rows and keep
every one; grid sampling reads them.  J_MAX declares the envelope j <= J_MAX
in which the recurrence is verified against an independent double-double
Horner evaluation of the closed-form sum; check_j_supported holds it, with
one message form, at the public entries: validate_mode, CoefficientSet
(its declared band), mode_coefficients (an analysis band) and profile_table.
Evaluation refuses the poles; the finite limiting data there lives
exclusively in eval_swsh_pole_limit, because as plain functions the modes
are singular at theta = 0, pi even though the objects they describe are
not.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NORTH, SOUTH, DomainError, InvalidMode, UnsupportedOrder, pole_name  # noqa: F401 (SOUTH)

J_MAX = 64


@dataclass(frozen=True)
class SWMode:
    """Index triple (spin weight s, total j, magnetic m) of one harmonic."""

    s: int
    j: int
    m: int

    def __post_init__(self):
        validate_mode(self.s, self.j, self.m)


def check_j_supported(value, what):
    """Raise InvalidMode("<what> exceeds the supported maximum j = J_MAX") if value > J_MAX."""
    if value > J_MAX:
        raise InvalidMode(f"{what} exceeds the supported maximum j = {J_MAX}")


def validate_mode(s, j, m):
    """Raise InvalidMode unless (s, j, m) is an admissible mode with j <= J_MAX."""
    for name, val in (("s", s), ("j", j), ("m", m)):
        try:
            whole = val == int(val)
        except (OverflowError, ValueError):  # inf, NaN, 'x'; None keeps int()'s TypeError
            whole = False
        if not whole:
            raise InvalidMode(f"{name}={val!r} is not an integer")
    if j < 0:
        raise InvalidMode(f"j={j} is negative")
    if j < abs(s):
        raise InvalidMode(f"invalid mode: j < |s| (j={j}, s={s})")
    if abs(m) > j:
        raise InvalidMode(f"invalid mode: |m| > j (j={j}, m={m})")
    check_j_supported(j, f"j={j}")


def _seeds(s, m, theta, order):
    """j0 = max(|m|, |s|) and d^k/dtheta^k p_{s j0 m}(theta) [k, row, t], k <= order.

    With q = max(0, m - s), the closed-form sum over q has the single term
    +-exp(lead) c^e1 h^e2, c = cos(theta/2), h = sin(theta/2), e1 = 2q + s - m,
    e2 = 2 j0 - e1, and exp(2 lead) = (2 j0 + 1) binomial(2 j0, j0 + a) / (4 pi),
    a the smaller of s, m in magnitude; the exact binomial keeps the lead to
    rounding, where log-factorials would lose 1e-13 at j0 = 64.  With
    u = cot(theta/2) and v = tan(theta/2): p' = (e2 u - e1 v) p / 2 and, free
    of cancellation, p'' = (e2 (e2 - 1) u^2 + e1 (e1 - 1) v^2 - 2 e1 e2 - e1 - e2) p / 4.
    """
    j = np.maximum(np.abs(m), np.abs(s))
    q = np.maximum(0, m - s)
    e1 = (2 * q + s - m)[:, None]
    e2 = (2 * j - 2 * q - s + m)[:, None]
    a = np.where(np.abs(m) >= np.abs(s), s, m)
    pairs = zip(j.tolist(), a.tolist())
    lead = 0.5 * np.log([math.comb(2 * k, k + b) * (2 * k + 1) / (4 * math.pi) for k, b in pairs])
    sign = np.where((j - q - s - m) % 2, -1.0, 1.0)[:, None]
    c, h = np.cos(0.5 * theta), np.sin(0.5 * theta)
    out = np.empty((order + 1, m.size, theta.size))
    out[0] = sign * np.exp(lead[:, None] + e1 * np.log(c) + e2 * np.log(h))
    if order >= 1:
        u, v = c / h, h / c
        out[1] = 0.5 * (e2 * u - e1 * v) * out[0]
    if order >= 2:
        out[2] = 0.25 * (e2 * (e2 - 1) * u * u + e1 * (e1 - 1) * v * v - 2 * e1 * e2 - e1 - e2)
        out[2] *= out[0]
    return j, out


def _climb(s, m, theta, L, order=0, table=None):
    """P[k, row, t] = d^k/dtheta^k p_{s[row], L, m[row]}(theta_t) for k <= order, zero where L < j0.

    Only rows j - 1 and j are held.  Given a zeroed table [k, row, j, t],
    every row j <= L is also written to it; entries below j0 stay zero.
    The rows climb sorted by j0, so the live ones are always a leading
    slice and a row joins, with its seed, at its own j0.
    """
    by_j0 = np.argsort(np.maximum(np.abs(m), np.abs(s)), kind="stable")
    s, m = s[by_j0], m[by_j0]
    j0, seeds = _seeds(s, m, theta, order)
    live = np.searchsorted(j0, np.arange(L + 1), side="right").tolist()
    prev, cur, nxt = (np.zeros_like(seeds) for _ in range(3))
    # a_j of the live rows; a row joining at j0 has a_j0 = 0, as the zeros here
    a_cur, a_next = np.zeros(m.size), np.zeros(m.size)
    x, sin = np.cos(theta), np.sin(theta)
    m, s = m.astype(np.float64), s.astype(np.float64)
    ms, m2, s2 = m * s, m * m, s * s
    n = 0
    for j in range(int(j0[0]), L + 1):
        if live[j] > n:
            cur[:, n : live[j]] = seeds[:, n : live[j]]
            n = live[j]
        if table is not None:
            table[:, by_j0[:n], j] = cur[:, :n]
        if j == L:
            break
        p = cur[:, :n]
        row = np.multiply(x, p, out=nxt[:, :n])
        if j > 0:
            row += (ms[:n] / (j * (j + 1)))[:, None] * p
            row -= a_cur[:n, None] * prev[:, :n]
        if order >= 1:
            row[1] -= sin * p[0]
        if order >= 2:
            row[2] -= 2.0 * sin * p[1] + x * p[0]
        jj = (j + 1) * (j + 1)
        np.sqrt((jj - m2[:n]) * (jj - s2[:n]) / (jj * (4.0 * jj - 1.0)), out=a_next[:n])
        row /= a_next[:n, None]
        prev, cur, nxt = cur, nxt, prev
        a_cur, a_next = a_next, a_cur
    out = np.empty_like(cur)
    out[:, by_j0] = cur
    return out


def profile(s, j, m, theta, order=0):
    """Real theta-profile of sY_jm, or its order-th theta-derivative, at interior theta.

    order is 0, 1 or 2; the (s, m) row climbs from its seed to j.
    """
    if order not in (0, 1, 2):
        raise UnsupportedOrder(f"profile order must be 0, 1 or 2, got {order!r}")
    validate_mode(s, j, m)
    theta = np.asarray(theta, dtype=np.float64)
    p = _climb(np.array([int(s)]), np.array([int(m)]), theta.ravel(), int(j), int(order))
    return p[order, 0].reshape(theta.shape)


def _check_interior(theta):
    theta = np.asarray(theta, dtype=np.float64)
    if theta.size and not np.all((theta > 0.0) & (theta < math.pi)):
        raise DomainError(
            "theta must lie strictly inside (0, pi); "
            "pole data is available via eval_swsh_pole_limit"
        )
    return theta


def _evaluate(mode, theta, phi, order):
    theta = _check_interior(theta)
    phi = np.asarray(phi, dtype=np.float64)
    theta_b, phi_b = np.broadcast_arrays(theta, phi)
    out = profile(mode.s, mode.j, mode.m, theta_b, order) * np.exp(1j * mode.m * phi_b)
    if out.ndim == 0:
        return complex(out)
    return out


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
    return _evaluate(mode, theta, phi, 0)


def eval_swsh_dtheta(mode, theta, phi, order=1):
    """Analytic d/dtheta (order 1) or d2/dtheta2 (order 2) of the mode."""
    if order not in (1, 2):
        raise UnsupportedOrder(f"derivative order must be 1 or 2, got {order}")
    return _evaluate(mode, theta, phi, order)


def eval_swsh_pole_limit(mode, pole):
    """Coefficient c with sY_jm ~ c * exp(i m phi) approaching the pole.

    Nonzero only for m = -s at the north pole and m = s at the south pole;
    the values are +-sqrt((2j+1)/4pi) with sign (-1)^|s| (north) and
    (-1)^j (south).
    """
    amp = math.sqrt((2 * mode.j + 1) / (4.0 * math.pi))
    if pole_name(pole) == NORTH:
        if mode.m != -mode.s:
            return 0.0 + 0.0j
        return complex((-1.0 if mode.s % 2 else 1.0) * amp)
    if mode.m != mode.s:
        return 0.0 + 0.0j
    return complex((-1.0 if mode.j % 2 else 1.0) * amp)
