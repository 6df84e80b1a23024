"""Double-double Horner evaluation of the closed-form profile sum: the test reference.

A mode's theta-profile is a signed sum of monomials in the half-angle
cosine and sine,

    p(theta) = exp(lead) * sum_r  C_r * c^(e1+2r) * s^(e2-2r),

with c = cos(theta/2), s = sin(theta/2), nonnegative integer exponents,
and every term of the same total degree e1 + e2. The lead carries the
factorial prefactor in natural-log scale (no factorial overflow); the C_r
are exact signed integers, or exact dyadic rationals after
differentiation.

Evaluation rewrites the homogeneous sum around whichever of u = c^2,
v = s^2 is larger, leaving a polynomial in w = min(u,v)/max(u,v) <= 1
that is run through Horner's rule in double-double arithmetic. The C_r
alternate in sign and the sum cancels heavily at large j; compensated
accumulation keeps the cancellation from eating the budget, while the
common magnitude exp(lead + a*log c + b*log s) is applied once per point,
where its rounding is harmless. Profiles stay finite (no overflow, no
NaN) for every j <= 64.

Derivative profiles are just more term tables: differentiating shifts the
exponent ladder by one and mixes neighboring coefficients, so first and
second derivatives reuse the same evaluator.

The library evaluates every profile by the j-recurrence of swsh.modes;
this evaluator shares none of that code and is the independent reference
the recurrence is tested against.  It agrees with the recurrence to
rounding for j <= 64 and drifts from it past about j = 70.
"""

import functools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

# log-factorial table; grown on demand
_log_fact = [0.0]


def log_factorial(n):
    """log(n!) from a cached table (exact lgamma entries, not cumsums)."""
    if n < 0:
        raise ValueError(f"factorial of negative {n}")
    while len(_log_fact) <= n:
        _log_fact.append(math.lgamma(len(_log_fact) + 1))
    return _log_fact[n]


# --------------------------------------------------------------------------
# term tables
# --------------------------------------------------------------------------

class TermTable(NamedTuple):
    """Homogeneous half-angle polynomial: exp(lead) * sum C_r c^(e1+2r) s^(e2-2r).

    chi/clo hold the coefficients as double-double pairs (chi[r] + clo[r]
    rounds C_r to ~107 bits); exact keeps the same coefficients as
    Fractions so differentiation never accumulates rounding.
    """

    lead: float
    e1: int
    e2: int
    chi: np.ndarray
    clo: np.ndarray
    exact: tuple


def _dd_split(value):
    """Round an exact Fraction/int to a double-double (hi, lo) pair."""
    frac = Fraction(value)
    hi = float(frac)
    lo = float(frac - Fraction(hi))
    return hi, lo


def _pack_table(lead, e1, e2, coeffs):
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
        e1 += 2
        e2 -= 2
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if not coeffs:
        return TermTable(0.0, 0, 0, np.zeros(1), np.zeros(1), (Fraction(0),))
    if e1 < 0 or e2 - 2 * (len(coeffs) - 1) < 0:
        raise AssertionError("half-angle exponents must stay nonnegative")
    pairs = [_dd_split(c) for c in coeffs]
    chi = np.array([p[0] for p in pairs], dtype=np.float64)
    clo = np.array([p[1] for p in pairs], dtype=np.float64)
    return TermTable(lead, e1, e2, chi, clo, tuple(Fraction(c) for c in coeffs))


def goldberg_terms(s, j, m):
    """Base term table (order 0) for the theta-profile of mode (s, j, m).

    Exponents e1 = 2q+s-m and e2 = 2j-2q-s+m are both nonnegative over the
    admissible q-range, which is what makes the half-angle power form
    stable at both poles; the signed binomial products are exact integers.
    """
    lead = 0.5 * (
        log_factorial(j + m)
        + log_factorial(j - m)
        + math.log(2 * j + 1)
        - math.log(4.0 * math.pi)
        - log_factorial(j + s)
        - log_factorial(j - s)
    )
    q0 = max(0, m - s)
    q1 = min(j - s, j + m)
    coeffs = []
    for q in range(q0, q1 + 1):
        k = math.comb(j - s, q) * math.comb(j + s, q + s - m)
        if (j - q - s - m) % 2:
            k = -k
        coeffs.append(Fraction(k))
    return _pack_table(lead, 2 * q0 + s - m, 2 * j - 2 * q0 - s + m, coeffs)


def differentiate_terms(table):
    """Term table of d/dtheta applied to a term table.

    d/dtheta [c^e1 s^e2] = (1/2) (e2 c^(e1+1) s^(e2-1) - e1 c^(e1-1) s^(e2+1))
    with c = cos(theta/2), s = sin(theta/2). The result is the same kind of
    exponent ladder shifted by one; edge terms with a zero multiplier drop
    out, which is exactly what keeps the exponents nonnegative.
    """
    top = len(table.exact) - 1
    out = [Fraction(0)] * (top + 2)
    for r, coeff in enumerate(table.exact):
        exp_c = table.e1 + 2 * r
        exp_s = table.e2 - 2 * r
        out[r] -= coeff * Fraction(exp_c, 2)
        out[r + 1] += coeff * Fraction(exp_s, 2)
    return _pack_table(table.lead, table.e1 - 1, table.e2 + 1, out)


# --------------------------------------------------------------------------
# evaluator
# --------------------------------------------------------------------------
#
# Double-double Horner step, H <- H*w + C, with Dekker splitting (no FMA
# dependence), array-at-a-time over the points.

_SPLITTER = 134217729.0  # 2^27 + 1


def eval_table_numpy(table, log_c, log_s, w, uside):
    top = table.chi.shape[0] - 1
    chi, clo = table.chi, table.clo
    idx = np.where(uside, top, 0)
    hi = chi[idx]
    lo = clo[idx]
    for k in range(1, top + 1):
        idx = np.where(uside, top - k, k)
        p = hi * w
        t = _SPLITTER * hi
        ah = t - (t - hi)
        al = hi - ah
        t = _SPLITTER * w
        bh = t - (t - w)
        bl = w - bh
        perr = ((ah * bh - p) + ah * bl + al * bh) + al * bl
        perr += lo * w
        c = chi[idx]
        s = p + c
        bb = s - p
        serr = (p - (s - bb)) + (c - bb)
        lo = perr + clo[idx] + serr
        hi = s + lo
        lo = lo - (hi - s)
    ec = np.where(uside, table.e1, table.e1 + 2 * top)
    es = np.where(uside, table.e2, table.e2 - 2 * top)
    return np.exp(table.lead + ec * log_c + es * log_s) * (hi + lo)


def eval_profile(table, theta):
    """Evaluate a term table at interior angles (theta strictly in (0, pi))."""
    theta = np.asarray(theta, dtype=np.float64)
    flat = theta.ravel()
    c = np.cos(0.5 * flat)
    s = np.sin(0.5 * flat)
    u = c * c
    v = s * s
    uside = u <= v
    w = np.where(uside, u / v, v / u)
    vals = eval_table_numpy(table, np.log(c), np.log(s), w, uside)
    return vals.reshape(theta.shape)


@functools.lru_cache(maxsize=65**2)
def term_table(s, j, m, order=0):
    """Term table of the order-th theta-derivative of the profile of mode (s, j, m)."""
    if order == 0:
        return goldberg_terms(s, j, m)
    return differentiate_terms(term_table(s, j, m, order - 1))


def profile(s, j, m, theta, order=0):
    """Real theta-profile of sY_jm (or its order-th theta-derivative) at interior theta."""
    return eval_profile(term_table(s, j, m, order), theta)


def eval_swsh(s, j, m, theta, phi):
    """sY_jm(theta, phi) at interior points, theta and phi broadcast together."""
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=np.float64), phi)
    return profile(s, j, m, theta) * np.exp(1j * m * phi)
