"""Per-grid mode tables and the azimuthal FFT: the one synthesis path.

For a grid of band limit L, spin weight s and derivative order k,

    mode_table(grid, s, k)[m + L, j, t] = d^k/dtheta^k p_{sjm}(theta_t),

with a zero row wherever j < max(|m|, |s|).  The order-0 table climbs in
j with the spin-weighted three-term recurrence

    cos(theta) p_j = a_{j+1} p_{j+1} - (m s / (j (j+1))) p_j + a_j p_{j-1},
    a_j = sqrt((j^2 - m^2)(j^2 - s^2) / (j^2 (4 j^2 - 1))),

seeded per m by the Horner profile at j0 = max(|m|, |s|), a single-term
monomial; the upward recurrence is stable for every m.  Derivative tables
are filled once from the Horner derivative profiles.  Tables are cached by
grid geometry (never by object id) in a byte-bounded LRU: an entry holds
(2L+1)(L+1) n_theta doubles, about 4.4 MB at L = 64.

A function on the grid is sum_m R_m(theta) exp(i m phi); ring_modes gives
the R_m of grid samples by an FFT over phi and rings_to_grid puts radial
factors back on the grid by an inverse FFT.  Both need the uniform azimuths
that make_grid builds.
"""

import numpy as np

from . import kernels
from .errors import BandLimitExceeded, GridMismatch
from .grid import GridCache, geometry_key
from .modes import profile

TABLE_CACHE_BYTES = 64 * 2**20

_tables = GridCache(TABLE_CACHE_BYTES)


def recurrence_table(s, L, theta):
    """Order-0 profiles [m + L, j, i] at any interior colatitudes theta[i]."""
    ms = np.arange(-L, L + 1)
    j0 = np.maximum(np.abs(ms), abs(s))
    x = np.cos(theta)
    table = np.zeros((2 * L + 1, L + 1, theta.size))
    for i, m in enumerate(ms):
        if j0[i] <= L:
            table[i, j0[i]] = profile(s, int(j0[i]), int(m), theta)

    def alpha(j, m):
        return np.sqrt((j * j - m * m) * (j * j - s * s) / (j * j * (4.0 * j * j - 1.0)))

    for j in range(L):
        live = j0 <= j
        m = ms[live].astype(np.float64)
        row = x * table[live, j]
        if j > 0:
            row += (m * s / (j * (j + 1)))[:, None] * table[live, j]
            row -= alpha(j, m)[:, None] * table[live, j - 1]
        table[live, j + 1] = row / alpha(j + 1, m)[:, None]
    return table


def _horner_table(s, L, theta, order, built=None):
    """Derivative profiles by Horner, reusing the rows of a smaller table."""
    table = np.zeros((2 * L + 1, L + 1, theta.size))
    j_next = abs(s)
    if built is not None:
        Lb = built.shape[1] - 1
        table[L - Lb : L + Lb + 1, : Lb + 1] = built
        j_next = max(j_next, Lb + 1)
    for j in range(j_next, L + 1):
        for m in range(-j, j + 1):
            table[m + L, j] = profile(s, j, m, theta, order=order)
    return table


def mode_table(grid, s, order=0, band_limit=None):
    """Read-only table [m + L, j, t] of order-th theta-derivative profiles.

    L is band_limit, at most the grid's (the default).  A cached table is
    built only as far as the largest band limit asked for so far, and
    rebuilt when a larger one is asked for.
    """
    Lg = grid.band_limit
    L = Lg if band_limit is None else int(band_limit)
    if not 0 <= L <= Lg:
        raise BandLimitExceeded(f"table band limit {L} outside [0, {Lg}]")
    s, order = int(s), int(order)
    key = (geometry_key(grid), s, order)
    table = _tables.get(key)
    if table is None or table.shape[1] <= L:
        kernels.check_j_supported(L)
        if order == 0:
            table = recurrence_table(s, L, grid.theta)
        else:
            table = _horner_table(s, L, grid.theta, order, built=table)
        _tables.put(key, table)
    Lt = table.shape[1] - 1
    return table[Lt - L : Lt + L + 1, : L + 1]


def radial_factors(grid, s, coeffs, order=0):
    """R[m + L, t] = sum_j coeffs[m + L, j] * mode_table(grid, s, order)[m + L, j, t].

    Only the table rows up to the highest j with a nonzero coefficient
    are read, so a table is never built past the band a function uses.
    """
    L = coeffs.shape[1] - 1
    used = np.flatnonzero(coeffs.any(axis=0))
    top = int(used[-1]) if used.size else 0
    out = np.zeros((2 * L + 1, grid.n_theta), dtype=np.complex128)
    out[L - top : L + top + 1] = np.einsum(
        "mjt,mj->mt", mode_table(grid, s, order, top), coeffs[L - top : L + top + 1, : top + 1]
    )
    return out


def _check_azimuths(grid):
    n = grid.n_phi
    if np.abs(grid.phi - 2.0 * np.pi * np.arange(n) / n).max() > 1e-12:
        raise GridMismatch("transforms need n_phi uniform azimuths starting at phi = 0")


def ring_modes(f, band_limit):
    """Azimuthal quadrature R[m + L, t] = sum_p f[t, p] exp(-i m phi_p) dphi, |m| <= L."""
    grid = f.grid
    _check_azimuths(grid)
    spec = np.fft.fft(f.samples, axis=1) * grid.phi_weight
    ms = np.arange(-band_limit, band_limit + 1)
    return spec[:, ms % grid.n_phi].T


def rings_to_grid(grid, radial, shift=0):
    """Samples of sum_m radial[m + L, t] exp(i (m + shift) phi) on the grid nodes.

    The 2L+1 frequencies m + shift must be distinct modulo n_phi; on the
    nodes an aliased frequency takes exactly the values of the one it
    folds onto.
    """
    _check_azimuths(grid)
    L = (radial.shape[0] - 1) // 2
    spec = np.zeros(grid.shape, dtype=np.complex128)
    spec[:, (np.arange(-L, L + 1) + shift) % grid.n_phi] = radial.T
    return np.fft.ifft(spec, axis=1, norm="forward")
