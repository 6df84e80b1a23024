"""Stable evaluation of spin-weighted harmonics and their theta-derivatives.

The value of a mode factorizes as

    sY_jm(theta, phi) = p_{sjm}(theta) * exp(i m phi)

with a real theta-profile p.  Every profile comes from one j-recurrence,
_climb: a batch of (s, m) rows starts at j0 = max(|m|, |s|), where a
profile is one half-angle monomial in closed form (_seeds), and climbs by

    a_{j+1} p_{j+1} = b_j p_j - a_j p_{j-1},
    a_j = sqrt((j^2 - m^2)(j^2 - s^2) / (j^2 (4 j^2 - 1))),  b_j = cos(theta) + m s / (j (j+1)).

A theta-derivative climbs nothing of its own: _dtheta takes it from the
profiles of the neighbouring spins, which climb in the same batch, by the
spin-raising relation of CONVENTIONS.md.  profile() climbs the 1, 2 or 3
spin rows of one m that its order reads, spins s - order .. s + order two
apart, holding only rows j - 1 and j, for point evaluation; the tables of
tables.py keep every row.  J_MAX declares the envelope j <= J_MAX in which
the recurrence is verified against an independent double-double Horner
evaluation of the closed-form sum; check_j_supported holds it, with one
message form, at the public entries: validate_mode, CoefficientSet (its
declared band), mode_coefficients (an analysis band) and every table
build.  NODES_MAX caps each node count of a grid, n_theta and n_phi;
SphereGrid checks it before it builds a node.  Evaluation refuses the
poles; the finite limiting data there lives exclusively in
eval_swsh_pole_limit, because as plain functions the modes are singular
at theta = 0, pi even though the objects they describe are not.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NORTH, DomainError, InvalidMode, UnsupportedOrder, pole_name

J_MAX = 64
NODES_MAX = 2**13 + 1


@dataclass(frozen=True)
class SWMode:
    """Index triple (spin weight s, total j, magnetic m) of one harmonic, stored as ints."""

    s: int
    j: int
    m: int

    def __post_init__(self):
        validate_mode(self.s, self.j, self.m)
        for name in ("s", "j", "m"):
            object.__setattr__(self, name, int(getattr(self, name)))


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
    # compared as ints, named as given: np.complex128(2) and Fraction(1) do not order
    si, ji, mi = int(s), int(j), int(m)
    if ji < 0:
        raise InvalidMode(f"j={j} is negative")
    if ji < abs(si):
        raise InvalidMode(f"invalid mode: j < |s| (j={j}, s={s})")
    if abs(mi) > ji:
        raise InvalidMode(f"invalid mode: |m| > j (j={j}, m={m})")
    check_j_supported(ji, f"j={j}")


def _seeds(s, m, theta):
    """j0 = max(|m|, |s|) and p_{s j0 m}(theta) [row, t].

    With q = max(0, m - s), the closed-form sum over q has the single term
    +-exp(lead) c^e1 h^e2, c = cos(theta/2), h = sin(theta/2), e1 = 2q + s - m,
    e2 = 2 j0 - e1, and exp(2 lead) = (2 j0 + 1) binomial(2 j0, j0 + a) / (4 pi),
    a the smaller of s, m in magnitude; the exact binomial keeps the lead to
    rounding, where log-factorials would lose 1e-13 at j0 = 64.
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
    return j, sign * np.exp(lead[:, None] + e1 * np.log(c) + e2 * np.log(h))


def _climb(s, m, theta, L, table=None):
    """P[row, t] = p_{s[row], L, m[row]}(theta_t), zero where L < j0.

    Only rows j - 1 and j are held.  Given a zeroed table [row, j, t],
    every row j <= L is also written to it; entries below j0 stay zero.
    The rows climb sorted by j0, so the live ones are always a leading
    slice and a row joins, with its seed, at its own j0.
    """
    by_j0 = np.argsort(np.maximum(np.abs(m), np.abs(s)), kind="stable")
    s, m = s[by_j0], m[by_j0]
    j0, seeds = _seeds(s, m, theta)
    live = np.searchsorted(j0, np.arange(L + 1), side="right").tolist()
    prev, cur, nxt = (np.zeros_like(seeds) for _ in range(3))
    # a_j of the live rows; a row joining at j0 has a_j0 = 0, as the zeros here
    a_cur, a_next = np.zeros(m.size), np.zeros(m.size)
    x = np.cos(theta)
    m, s = m.astype(np.float64), s.astype(np.float64)
    ms, m2, s2 = m * s, m * m, s * s
    n = 0
    for j in range(int(j0[0]), L + 1):
        if live[j] > n:
            cur[n : live[j]] = seeds[n : live[j]]
            n = live[j]
        if table is not None:
            table[by_j0[:n], j] = cur[:n]
        if j == L:
            break
        p = cur[:n]
        row = np.multiply(x, p, out=nxt[:n])
        if j > 0:
            row += (ms[:n] / (j * (j + 1)))[:, None] * p
            row -= a_cur[:n, None] * prev[:n]
        jj = (j + 1) * (j + 1)
        np.sqrt((jj - m2[:n]) * (jj - s2[:n]) / (jj * (4.0 * jj - 1.0)), out=a_next[:n])
        row /= a_next[:n, None]
        prev, cur, nxt = cur, nxt, prev
        a_cur, a_next = a_next, a_cur
    out = np.empty_like(cur)
    out[by_j0] = cur
    return out


def _dtheta(p, s, j):
    """p'_s = (lam_- p_{s-1} - lam_+ p_{s+1}) / 2 for s in s[:-1] + 1, from profiles p[k, ...] of spins s[k].

    The spins s are two apart, so p'_s at each midpoint reads p[k] and p[k + 1];
    lam_+- = sqrt((j -+ s)(j +- s + 1)), clipped at 0; j broadcasts against p[k].
    """
    s = np.reshape(s[:-1] + 1, (-1,) + (1,) * (p.ndim - 1))
    up = np.sqrt(np.maximum((j - s) * (j + s + 1), 0))
    down = np.sqrt(np.maximum((j + s) * (j - s + 1), 0))
    return 0.5 * (down * p[:-1] - up * p[1:])


def profile(s, j, m, theta, order=0):
    """Real theta-profile of sY_jm, or its order-th theta-derivative, at interior theta.

    order is 0, 1 or 2: the spins s - order .. s + order, two apart, climb to j, and _dtheta takes order steps.
    """
    if order not in (0, 1, 2):
        raise UnsupportedOrder(f"profile order must be 0, 1 or 2, got {order!r}")
    order = int(order)
    validate_mode(s, j, m)
    theta = np.asarray(theta, dtype=np.float64)
    spins = np.arange(int(s) - order, int(s) + order + 1, 2)
    p = _climb(spins, np.full_like(spins, int(m)), theta.ravel(), int(j))
    for _ in range(order):
        p, spins = _dtheta(p, spins, int(j)), spins[:-1] + 1
    return p[0].reshape(theta.shape)


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
    if not np.isfinite(phi).all():
        raise DomainError("phi must be finite")
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
    phi : float or array, finite radians

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
