"""Every table from the one j-recurrence of modes._climb: the profiles of
a short list of spins,

    spin_tables(grid, spins, L)[k, m + L, j, t] = p_{spins[k], j, m}(theta_t),

zero below j0 = max(|m|, |s|): the rows (spin, m), m = -L..L, climb
together from their closed-form seeds, and every row j is kept.  A
theta-derivative is taken from the neighbouring spins by modes._dtheta.
mode_table caches one spin.  mode_samples samples every mode (s, j, m) of
one m on the grid from row m; mode_row reads one mode's profile from a
cached table, or else evaluates it by modes.profile.

One byte-bounded LRU of read-only arrays, the GridCache _tables and the
library's only module-level cache of derived arrays, holds mode tables by
the grid's geometry_key (L, n_theta, n_phi), so equal grids share them,
and spin weight (4.4 MB at L = 64), the operator tables of operators.py by
geometry_key, spin weight and kind (4.4 MB each at L = 64), and of
bundle.py J_perp's spin-0 table [m csc(theta) p, dp/dtheta], made from
spins +-1, by geometry_key (8.7 MB at L = 64), the transverse projectors
by geometry_key and rank (5.4 MB at rank 2, L = 64), two azimuthal
matrices per n_phi, the DFT matrix and the phi-weighted analysis matrix
made from it.  Each is fetched by one GridCache.cached(key, build) call,
or, for the tables indexed by band, by band_table, the one rule that
grows and slices them: a band-L table is the centered slice
[..., T - L : T + L + 1, : L + 1, :] of the one entry of band T >= L, and
every table is read at the band its coefficients declare.  So a
transform call on a warm grid, at its band or any lower one, builds
nothing: it slices cached operands and pays for its products.  The one
other module-level cache holds no array: transform.py's label index
{(j, m): flat cell} per |s| and band, a functools.lru_cache of at most 8
dicts, each about 0.55 MiB and built in about 1 ms at L = 64.

The spherical transform lives here, in one layout: the frequency axis
leads and component axes trail (A[m + L, j, ...], samples [t, p, ...],
radial factors R[k..., m + L, t, ...]).  mode_coefficients is the one
analysis and contract_table the one colatitude contraction; each does one
real matmul per m by pair_matmul, which copies an operand only when its
last axis is not contiguous.
The azimuthal transform is a DFT matrix product: W[f, p] = exp(2 pi i (f p
mod n) / n) over the n = n_phi azimuths, uniform from phi = 0 on every
grid, for every frequency |f| <= J_MAX + 1, built from exact integer
angles and cached once per n, 270 KB at n = 129.  phi_synthesis slices its
rows for the band and ladder shift asked for, and phi_analysis slices the
same-sized analysis matrix, its rows reversed and weighted by dphi; each
applies its rows in one GEMM per call, which at these small n costs less
than an FFT's fixed cost and keeps each transform O(L^3), like its
colatitude step.  Their callers sit behind the entries that hold j <= J_MAX
(modes.py), so no slice leaves W.
"""

import threading
from collections import OrderedDict

import numpy as np

from .errors import BandLimitExceeded, InvalidMode
from .modes import J_MAX, _climb, check_j_supported, profile

TABLE_CACHE_BYTES = 64 * 2**20
_F = J_MAX + 1  # the highest azimuthal frequency: a band of J_MAX shifted by a ladder


class GridCache:
    """Least-recently-used map to read-only arrays, bounded in total bytes.

    An array larger than the whole budget is returned to its caller but
    never stored.  An array held by two entries counts in both.
    """

    def __init__(self, max_bytes):
        self.max_bytes = int(max_bytes)
        self._items = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def __len__(self):
        return len(self._items)

    @property
    def nbytes(self):
        return self._bytes

    def clear(self):
        with self._lock:
            self._items.clear()
            self._bytes = 0

    def get(self, key):
        with self._lock:
            value = self._items.get(key)
            if value is not None:
                self._items.move_to_end(key)
            return value

    def put(self, key, value):
        """Store the array value, made read-only, under key, replacing any older entry."""
        value.setflags(write=False)
        with self._lock:
            old = self._items.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            if value.nbytes > self.max_bytes:
                return value
            while self._bytes + value.nbytes > self.max_bytes:
                _, old = self._items.popitem(last=False)
                self._bytes -= old.nbytes
            self._items[key] = value
            self._bytes += value.nbytes
        return value

    def cached(self, key, build):
        """The array under key; on a miss, build() stored under it."""
        value = self.get(key)
        return self.put(key, build()) if value is None else value


_tables = GridCache(TABLE_CACHE_BYTES)


def band_table(key, grid, band, build):
    """The band-L slice [..., T - L : T + L + 1, : L + 1, :] of the table [..., m + T, j, t] cached under key.

    The one rule for every table indexed by band; L is band.  A missing
    entry, or one of a band T < L, is replaced by build(T), at T = L, or
    past a held band at least double it, up to the grid's band and J_MAX,
    so a rising sweep of bands rebuilds a table O(log L) times.  A row does
    not depend on the band it was built to, so every band reads the same
    bytes from any entry.
    """
    held = _tables.get(key)
    top = -1 if held is None else held.shape[-2] - 1
    if top < band:
        top = max(band, min(2 * top, grid.band_limit, J_MAX))
        held = _tables.put(key, build(top))
    return held[..., top - band : top + band + 1, : band + 1, :]


def spin_tables(grid, spins, L):
    """Fresh tables [k, m + L, j, t] = p_{spins[k], j, m}(theta_t) from one climb of a row per (spin, m).

    Never cached: mode_table keeps one spin, and each derived table climbs the spins it reads.
    """
    check_j_supported(L, f"j={L}")
    ms = np.arange(-L, L + 1)
    table = np.zeros((len(spins) * ms.size, L + 1, grid.theta.size))
    _climb(np.repeat(spins, ms.size), np.tile(ms, len(spins)), grid.theta, L, table)
    return table.reshape((len(spins), ms.size) + table.shape[1:])


def mode_table(grid, s, band_limit=None):
    """Read-only table [m + L, j, t] of the profiles p_{sjm}(theta_t).

    L is band_limit, at most the grid's (the default).  The cached entry
    [m + T, j, t] is spin_tables of the one spin; band_table grows it.
    """
    Lg = grid.band_limit
    L = Lg if band_limit is None else int(band_limit)
    if not 0 <= L <= Lg:
        raise BandLimitExceeded(f"table band limit {L} outside [0, {Lg}]")
    s = int(s)
    return band_table((grid.geometry_key, s), grid, L, lambda top: spin_tables(grid, [s], top)[0])


def mode_samples(grid, s, m):
    """Samples [j, t, p] of every mode (s, j, m), j <= L, on the grid's nodes.

    Row m of mode_table times exp(i m phi), L the grid's band limit; rows
    j < max(|m|, |s|) are zero.
    """
    L = grid.band_limit
    if abs(m) > L:
        raise InvalidMode(f"|m| = {abs(m)} exceeds the band limit {L}")
    return mode_table(grid, s)[m + L, :, :, None] * np.exp(1j * m * grid.phi)


def mode_row(grid, s, j, m):
    """p_{sjm} at the grid's colatitudes: a cached mode table's row, else modes.profile, unstored."""
    table = _tables.get((grid.geometry_key, int(s)))
    if table is None or table.shape[1] <= j:
        return profile(s, j, m, grid.theta)
    return table[m + table.shape[1] - 1, j]


def pair_matmul(op, x):
    """op @ x for a real operator stack op[..., i, j] and complex x[..., j, k], x read as real pairs.

    x is copied only when it is not complex128 or its last axis is not
    contiguous; the product is one real matmul.
    """
    if x.dtype != np.complex128 or (x.shape[-1] > 1 and x.strides[-1] != 16):
        x = np.ascontiguousarray(x, dtype=np.complex128)
    return np.matmul(op, x.view(np.float64)).view(np.complex128)


def contract_table(table, coeffs):
    """R[k..., m + L, t, ...] = sum_j table[k..., m + L, j, t] * coeffs[m + L, j, ...].

    table is a [k..., m + L, j, t] table of the band L of coeffs, such as
    mode_table or spin_tables; its leading axes lead R and the trailing
    axes of coeffs trail it.  One real matmul per m.
    """
    r = pair_matmul(table.swapaxes(-1, -2), coeffs.reshape(coeffs.shape[:2] + (-1,)))
    return r.reshape(r.shape[:-1] + coeffs.shape[2:])


def radial_factors(grid, s, coeffs):
    """R[m + L, t, ...] = sum_j mode_table(grid, s)[m + L, j, t] * coeffs[m + L, j, ...].

    L is the band of coeffs, so the table is read, and built if it must
    be, at the band a function declares.
    """
    return contract_table(mode_table(grid, s, coeffs.shape[1] - 1), coeffs)


def _dft_matrix(grid):
    """Read-only W[f + F, p] = exp(2 pi i (f p mod n) / n) for |f| <= F = J_MAX + 1, n = n_phi.

    Rows run over signed frequency, so the frequencies of one band sit in
    one contiguous slice.  Each row is built from the exact integer residues
    f p mod n, so an aliased frequency's row is exactly the row of the one
    it folds onto, and exp(2 pi i (n - q) / n) is taken as the conjugate of
    exp(2 pi i q / n).  Its 2F + 1 rows, not n, keep it O(n) on grids with
    many azimuths.  Cached once per n.
    """
    n = grid.n_phi

    def build():
        half = np.exp(2j * np.pi / n * np.arange(n // 2 + 1))
        roots = np.concatenate((half, np.conj(half[1 : (n + 1) // 2][::-1])))
        return roots[np.outer(np.arange(-_F, _F + 1), np.arange(n)) % n]
    return _tables.cached(("dft", n), build)


def _dft_analysis_matrix(grid):
    """Read-only _dft_matrix(grid)[::-1] * phi_weight: row f + F is exp(-2 pi i f p / n) dphi.

    The rows of one band sit in one contiguous slice, which holds exactly
    the bytes of that band's rows of W reversed and weighted.  Cached once
    per n = n_phi, not per band, so an analysis at any band builds nothing.
    """
    return _tables.cached(("dft-analysis", grid.n_phi), lambda: _dft_matrix(grid)[::-1] * grid.phi_weight)


def phi_analysis(grid, x, band_limit):
    """y[m + L, ...] = sum_p exp(-i m phi_p) x[p, ...] dphi for |m| <= L: the azimuthal quadrature.

    The phi axis leads x (any strides) and the frequency axis leads y.  One
    GEMM with the rows |m| <= L of the cached analysis matrix, a slice that
    holds the bytes of the DFT matrix's rows L .. -L times dphi.
    """
    L = int(band_limit)
    w = _dft_analysis_matrix(grid)[_F - L : _F + L + 1]
    return (w @ x.reshape(grid.n_phi, -1)).reshape((2 * L + 1,) + x.shape[1:])


def phi_synthesis(grid, y, shift=0):
    """x[..., p] = sum_m y[m + L, ...] exp(i (m + shift) phi_p), C-ordered with phi last.

    The frequency axis leads y.  One GEMM with the rows -L + shift ..
    L + shift of the DFT matrix, so a frequency past the grid's takes
    exactly the values, on the nodes, of the one it folds onto.
    """
    L = (y.shape[0] - 1) // 2
    w = _dft_matrix(grid)[_F - L + shift : _F + L + shift + 1]
    return (y.reshape(2 * L + 1, -1).T @ w).reshape(y.shape[1:] + (grid.n_phi,))


def mode_coefficients(grid, s, samples, band_limit):
    """Quadrature A[m + L, j, ...] of samples[t, p, ...] against every mode (s, j, m), j <= L.

    One DFT matrix product over phi, then one real matmul per m with the
    order-0 mode table; trailing axes pass through.  L must be at most J_MAX.
    """
    check_j_supported(band_limit, f"analysis band limit {band_limit}")
    rings = phi_analysis(grid, samples.swapaxes(0, 1), band_limit)
    rings = rings.reshape(rings.shape[:2] + (-1,))
    rings *= grid.theta_weights[:, None]
    a = pair_matmul(mode_table(grid, s, band_limit), rings)
    return a.reshape(a.shape[:2] + samples.shape[2:])
