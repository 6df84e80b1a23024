"""Every table from the one j-recurrence of modes._climb: the profiles of
a short list of spins,

    spin_tables(grid, spins, L)[k, m + L, j, t] = p_{spins[k], j, m}(theta_t),

zero below j0 = max(|m|, |s|): the rows (spin, m), m = -L..L, climb
together from their closed-form seeds, and every row j is kept.  A
theta-derivative is taken from the neighbouring spins by modes._dtheta.
mode_operands caches one spin, and mode_table is its table.  mode_samples
samples every mode (s, j, m) of one m on the grid from row m.

One byte-bounded LRU, the GridCache _tables and the library's only
module-level cache of derived arrays, holds two sorts of entry.  Each table
indexed by band is held, together with the azimuthal rows that its
transform step applies, as one read-only Operands entry built at band
T = min(grid band, J_MAX):

- the mode table of a spin, by the grid's geometry_key (L, n_theta, n_phi)
  and spin weight, with the DFT rows |f| <= T, those rows reversed and
  weighted by dphi for the analysis, and the colatitude weights as a
  complex column (4.4 MB of table, 2 x 0.27 MB of rows and 1 KB of
  weights at L = 64);
- the operator tables of operators.py, by ("op", geometry_key, spin
  weight, kind), one for each of the three differential kinds J_+, J_-
  and J^2, with the DFT rows of the kind's shift (4.4 + 0.27 MB; J_z and
  helicity scale coefficients and keep no table);
- bundle.py J_perp's spin-0 table [m csc(theta) p, dp/dtheta], made from
  spins +-1, by ("orbital", geometry_key), with the DFT rows (8.7 + 0.27 MB).

The other entries are plain arrays: the transverse projectors by
geometry_key and rank (5.4 MB at rank 2, L = 64) and the standard frame's
fiber tensor e_h by geometry_key and helicity (1.2 MB at |h| = 2, L = 64).

The read rule: a transform step reads its entry once, by band_operands,
and then runs its two products.  Over a mode entry the only such steps
are mode_coefficients and mode_synthesis, both here: every analysis, and
synthesize, apply_grid's J_z and helicity and bundle.py's rotation
generators, go through them, and no other module calls mode_operands.
An operator table or J_perp's entry is read, the same way, by the one
apply_grid or J_perp step of its module.  At the entry's own band a
step uses the entry as held, with no check; a lower band L reads the
centered slices [..., T - L : T + L + 1, : L + 1, :] of the table and
[T - L : T + L + 1] of the rows, and only that path and a miss check the
band.  So one path serves every band, and a call on a warm grid builds
nothing.  A plain entry is read by one GridCache.cached(key, build,
*args) call, which on a hit makes no closure.  The byte accounting is
exact: an entry counts every array it holds at its own size, and since
no held array views another, the count is the memory held.  The one other
module-level cache holds no array: transform.py's label index
{(j, m): flat cell} per |s| and band, a functools.lru_cache of at most 8
dicts, each about 0.55 MiB and built in about 1 ms at L = 64.

The spherical transform lives here, in one layout: the frequency axis
leads and component axes trail (A[m + L, j, ...], samples [t, p, ...],
radial factors R[k..., m + L, t, ...]).  mode_coefficients is the one
analysis, mode_synthesis the one synthesis from a mode table and
contract_table the one colatitude contraction; each does one real matmul
per m by pair_matmul, which copies an operand only when its last axis is
not contiguous.
The azimuthal transform is a DFT matrix product: W[f, p] = exp(2 pi i (f p
mod n) / n) over the n = n_phi azimuths, uniform from phi = 0 on every
grid, built from exact integer angles.  phi_synthesis applies the rows
f = -L + shift .. L + shift of W that dft_rows builds, for the band and
ladder shift asked for, and phi_analysis the rows |f| <= L reversed and
weighted by dphi; each entry above builds its own rows at its band.  Each
applies its rows in one GEMM per call, which at these small n costs less
than an FFT's fixed cost and keeps each transform O(L^3), like its
colatitude step.
"""

import threading
from collections import OrderedDict
from typing import NamedTuple, Optional

import numpy as np

from .errors import BandLimitExceeded, InvalidMode
from .modes import J_MAX, _climb, check_j_supported

TABLE_CACHE_BYTES = 64 * 2**20


class GridCache:
    """Least-recently-used map to read-only arrays or Operands, bounded in total bytes.

    A value is counted at its nbytes, an Operands at the sum of its
    arrays' sizes; no two held arrays share memory, so the count is exact.
    A value larger than the whole budget is returned to its caller but
    never stored.  One lock guards the map, so threads may share it; two
    threads that miss the same key both build it, and the later put
    replaces the earlier.
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
        """Store the value, made read-only, under key, replacing any older entry."""
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

    def cached(self, key, build, *args):
        """The value under key; on a miss, build(*args) stored under it."""
        value = self.get(key)
        return self.put(key, build(*args)) if value is None else value


_tables = GridCache(TABLE_CACHE_BYTES)


class Operands(NamedTuple):
    """What one transform step applies at band L: a table and its azimuthal rows.

    table is [..., m + L, j, t]; synthesis the rows [m + L, p] that
    phi_synthesis applies after contracting it, the entry's own.  A mode
    table's operands also serve its analysis: analysis, the rows that
    phi_analysis applies, synthesis's rows reversed and weighted by dphi,
    and weights, the colatitude weights as a complex column [t, 1],
    w + 0j, the value numpy multiplies complex rings by, so the weighting
    casts nothing.
    """

    table: np.ndarray
    synthesis: np.ndarray
    analysis: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None

    @property
    def nbytes(self):
        return sum(a.nbytes for a in self if a is not None)

    def setflags(self, write):
        for a in self:
            if a is not None:
                a.setflags(write=write)


def band_operands(key, grid, band, build, *args):
    """The Operands under key at band L: the entry itself at its band T, else its centered slices.

    The one rule for every table indexed by band.  T is the grid's band,
    capped at J_MAX, and the entry is build(grid, *args, T), made once; a
    lower band reads the slices [..., T - L : T + L + 1, : L + 1, :] of the
    table and [T - L : T + L + 1] of the rows.  A band above J_MAX, or
    outside [0, grid band], is refused before anything is built; a hit at
    the entry's band checks nothing.
    """
    held = _tables.get(key)
    if held is not None and held.synthesis.shape[0] == 2 * band + 1:
        return held
    top = min(grid.band_limit, J_MAX)
    if not 0 <= band <= top:
        check_j_supported(band, f"j={band}")
        raise BandLimitExceeded(f"table band limit {band} outside [0, {grid.band_limit}]")
    if held is None:
        held = _tables.put(key, build(grid, *args, top))
        if band == top:
            return held
    table, synthesis, analysis, weights = held
    lo, hi = top - band, top + band + 1
    if analysis is not None:
        analysis = analysis[lo:hi]
    return Operands(table[..., lo:hi, : band + 1, :], synthesis[lo:hi], analysis, weights)


def spin_tables(grid, spins, L):
    """Fresh tables [k, m + L, j, t] = p_{spins[k], j, m}(theta_t) from one climb of a row per (spin, m).

    Never cached: mode_operands keeps one spin, and each derived table climbs the spins it reads.
    """
    check_j_supported(L, f"j={L}")
    ms = np.arange(-L, L + 1)
    table = np.zeros((len(spins) * ms.size, L + 1, grid.theta.size))
    _climb(np.repeat(spins, ms.size), np.tile(ms, len(spins)), grid.theta, L, table)
    return table.reshape((len(spins), ms.size) + table.shape[1:])


def _mode_entry(grid, s, top):
    rows = dft_rows(grid, top)
    weights = grid.theta_weights.astype(np.complex128)[:, None]
    return Operands(spin_tables(grid, [s], top)[0], rows, rows[::-1] * grid.phi_weight, weights)


def mode_operands(grid, s, band):
    """Operands of spin s at band L: the mode table [m + L, j, t] = p_{sjm}(theta_t), its rows and weights.

    The entry under (geometry_key, s) holds spin_tables of the one spin at
    the grid's band with the DFT rows |f| <= T, those rows reversed and
    weighted by dphi, and the complex colatitude weights; band_operands
    builds and slices it.
    """
    return band_operands((grid.geometry_key, s), grid, band, _mode_entry, s)


def mode_table(grid, s):
    """Read-only table [m + L, j, t] of the profiles p_{sjm}(theta_t), L the grid's band limit.

    The table of mode_operands at the grid's band.
    """
    return mode_operands(grid, int(s), grid.band_limit).table


def mode_samples(grid, s, m):
    """Samples [j, t, p] of every mode (s, j, m), j <= L, on the grid's nodes.

    Row m of mode_table times exp(i m phi), L the grid's band limit; rows
    j < max(|m|, |s|) are zero.
    """
    L = grid.band_limit
    if abs(m) > L:
        raise InvalidMode(f"|m| = {abs(m)} exceeds the band limit {L}")
    return mode_table(grid, s)[m + L, :, :, None] * np.exp(1j * m * grid.phi)


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


def dft_rows(grid, band, shift=0):
    """Fresh DFT rows exp(2 pi i (f p mod n) / n), f = -L + shift .. L + shift: phi_synthesis's operand.

    L is band, n = n_phi and p = 0 .. n - 1.  Each row is built from the
    exact integer residues f p mod n, so an aliased frequency's row is
    exactly the row of the one it folds onto, and exp(2 pi i (n - q) / n)
    is taken as the conjugate of exp(2 pi i q / n).  Cached nowhere: each
    entry that applies rows builds and holds its own.
    """
    n = grid.n_phi
    half = np.exp(2j * np.pi / n * np.arange(n // 2 + 1))
    roots = np.concatenate((half, np.conj(half[1 : (n + 1) // 2][::-1])))
    return roots[np.outer(np.arange(shift - band, shift + band + 1), np.arange(n)) % n]


def phi_analysis(rows, x):
    """y[m + L, ...] = sum_p exp(-i m phi_p) x[p, ...] dphi for |m| <= L: the azimuthal quadrature.

    rows is dft_rows at band L reversed and weighted by dphi, a mode
    entry's analysis.  The phi axis leads x (any strides) and the
    frequency axis leads y; one GEMM.
    """
    return (rows @ x.reshape(rows.shape[1], -1)).reshape(rows.shape[:1] + x.shape[1:])


def phi_synthesis(rows, y):
    """x[..., p] = sum_m y[m + L, ...] exp(i (m + shift) phi_p), C-ordered with phi last.

    rows is dft_rows at band L and the shift asked for, so a frequency past
    the grid's takes exactly the values, on the nodes, of the one it folds
    onto.  The frequency axis leads y; one GEMM.
    """
    return (y.reshape(rows.shape[0], -1).T @ rows).reshape(y.shape[1:] + rows.shape[1:])


def mode_coefficients(grid, s, samples, band_limit):
    """Quadrature A[m + L, j, ...] of samples[t, p, ...] against every mode (s, j, m), j <= L.

    One read of the mode operands, one DFT matrix product over phi, then
    one real matmul per m with the order-0 mode table; trailing axes pass
    through.  L must be at most J_MAX.
    """
    if band_limit > J_MAX:  # so the message is formatted only for a band refused
        check_j_supported(band_limit, f"analysis band limit {band_limit}")
    table, _, rows, weights = mode_operands(grid, s, band_limit)
    rings = phi_analysis(rows, samples.swapaxes(0, 1))
    rings = rings.reshape(rings.shape[:2] + (-1,))
    rings *= weights
    a = pair_matmul(table, rings)
    return a.reshape(a.shape[:2] + samples.shape[2:])


def mode_synthesis(grid, s, coeffs):
    """Samples [t, ..., p] of sum coeffs[m + L, j, ...] p_{sjm}(theta_t) exp(i m phi_p), L = coeffs.shape[1] - 1.

    The twin of mode_coefficients: one read of the mode operands at band L,
    one real matmul per m with the order-0 mode table by contract_table,
    then one DFT matrix product over phi by phi_synthesis; the trailing
    axes of coeffs sit between t and p.  A band above the grid's is
    refused by band_operands.
    """
    table, rows, _, _ = mode_operands(grid, s, coeffs.shape[1] - 1)
    return phi_synthesis(rows, contract_table(table, coeffs))
