"""Forward and inverse transforms between grid samples and mode coefficients.

Both directions run through the per-grid mode tables of tables.py:
analysis by tables.mode_coefficients and synthesis by tables.mode_synthesis,
which hold the transform's one layout and its two products.  A table costs
O(L^3) to build, once per grid geometry and spin weight, and then each call
costs O(L^3) arithmetic in a few array operations.  Output is
deterministic: the tables, their cached DFT rows and the matrix products
are fixed sequences of floating-point operations for a given input and
grid, so repeated runs produce identical bytes.

A CoefficientSet holds its amplitudes in the same dense A[m + L, j]
matrix the contractions read and write, so analyze wraps its result and
synthesize reads the set without a per-entry step.  Coefficients with
magnitude below 1e-13 are stored as exact zeros; an infinite or NaN
amplitude given in a mapping is refused by its (j, m), and analyze refuses
non-finite samples.  The sparse
(j, m) -> amplitude view lists the nonzero coefficients and is built on
first use.  A mapping's labels are looked up, all in one pass, in a
cached index of the modes of its band and spin, which gives each its flat
cell; a label the index lacks, or a complex one (2+0j equals 2 to a dict),
sends the set on one walk over its entries in order, which validates
each and names the first bad one.

A grid function is analyzed at most once, at T = min(grid band, J_MAX):
the read-only matrix is kept on the GridFunction, so analyze and every
apply_grid on the same function share one quadrature, and a lower band
limit L reads its centered slice [T - L : T + L + 1, : L + 1].
"""

import json
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import starmap
from types import MappingProxyType

import numpy as np

from .errors import BandLimitExceeded, as_integer
from .grid import GridFunction
from .modes import J_MAX, check_j_supported, validate_mode
from .serial import json_dumps
from .tables import mode_coefficients, mode_synthesis

COEFF_CLIP = 1e-13


def _clip(a):
    """Zero, in place, every entry of a whose magnitude is below COEFF_CLIP or NaN; return a."""
    a[~(np.abs(a) >= COEFF_CLIP)] = 0.0
    return a


@dataclass(frozen=True, eq=False, init=False)
class CoefficientSet:
    """Mode coefficients of one spin-weighted function, held densely.

    matrix[m + L, j] is the amplitude of mode (j, m), read-only, with
    L = band_limit, which must lie in [|s|, J_MAX]; entries with no mode
    (j < |s| or |m| > j) are zero.  entries is the read-only sparse view,
    (j, m) -> complex amplitude for every nonzero coefficient, in order of
    j then m.  The constructor takes such a mapping; its keys must satisfy
    |s| <= j <= band_limit and |m| <= j.  Missing keys mean zero,
    amplitudes below COEFF_CLIP are dropped, and an infinite or NaN one is
    refused.
    """

    spin_weight: int
    band_limit: int
    matrix: np.ndarray

    def __init__(self, spin_weight, band_limit, entries):
        s, L = as_integer(spin_weight, "spin weight"), as_integer(band_limit, "band limit")
        if L < abs(s):
            raise ValueError(f"band limit {L} is below |spin weight| {abs(s)}")
        check_j_supported(L, f"coefficient band limit {L}")
        self._set(s, L, _entry_matrix(s, L, entries))

    def _set(self, s, L, matrix):
        matrix.setflags(write=False)
        vars(self).update(spin_weight=s, band_limit=L, matrix=matrix)

    @classmethod
    def _wrap(cls, s, L, matrix):
        """A set around a clipped A[m + L, j], L <= J_MAX, whose nonzeros all sit on modes."""
        c = cls.__new__(cls)
        c._set(s, L, matrix)
        return c

    @cached_property
    def entries(self):
        L = self.matrix.shape[1] - 1
        js, ms = np.nonzero(self.matrix.T)
        vals = self.matrix[ms, js].tolist()
        return MappingProxyType(dict(zip(zip(js.tolist(), (ms - L).tolist()), vals)))

    def get(self, j, m):
        return self.entries.get((j, m), 0j)

    def sorted_items(self):
        return sorted(self.entries.items())

    def __eq__(self, other):
        if not isinstance(other, CoefficientSet):
            return NotImplemented
        return (
            self.spin_weight == other.spin_weight
            and self.band_limit == other.band_limit
            and np.array_equal(self.matrix, other.matrix)
        )

    __hash__ = None


def _entry_matrix(s, L, entries):
    """Clipped A[m + L, j] of a (j, m) -> amplitude mapping.

    Every label is looked up in the index of the modes |s| <= j <= L.  Once
    each lookup succeeds, every label equals an int, so the sum of the
    labels fails to be a real number only if some label is complex (or a
    Decimal, which numbers.Real does not register); such a set, and one
    with a label the index lacks, takes _walk_cells, which accepts it or
    raises the first fault.  Then the first amplitude that is not finite
    is refused by its (j, m), as infinite or NaN, and amplitudes below
    COEFF_CLIP become zero.
    """
    index = _label_index(abs(s), L)
    try:
        cells = np.fromiter(map(index.__getitem__, entries), np.intp, len(entries))
        indexed = isinstance(sum(starmap(operator.add, entries)), numbers.Real)
    except (KeyError, TypeError):
        indexed = False
    if not indexed:
        cells = _walk_cells(s, L, entries)
    # through complex(), since fromiter alone would also read bytes
    amps = np.fromiter(map(complex, entries.values()), np.complex128, len(entries))
    bad = ~np.isfinite(amps)
    if bad.any():
        k = bad.argmax()
        j, m = list(entries)[k]
        raise ValueError(f"amplitude of mode (j={j}, m={m}) is {'infinite' if np.isinf(amps[k]) else 'NaN'}")
    out = np.zeros((2 * L + 1) * (L + 1), dtype=np.complex128)
    out[cells] = _clip(amps)
    return out.reshape(2 * L + 1, L + 1)


@lru_cache(maxsize=8)
def _label_index(j_low, L):
    """{(j, m): (m + L) * (L + 1) + j}, the flat cells of A[m + L, j] of the modes j_low <= j <= L."""
    return {(j, m): (m + L) * (L + 1) + j for j in range(j_low, L + 1) for m in range(-j, j + 1)}


def _walk_cells(s, L, entries):
    """Flat cells of the entries, walked in the mapping's order: the first one
    that validate_mode, the band limit or complex() refuses raises."""
    cells = []
    for (j, m), v in entries.items():
        validate_mode(s, j, m)
        if j > L:
            raise BandLimitExceeded(f"entry j={j} exceeds band limit {L}")
        complex(v)
        cells.append((int(m) + L) * (L + 1) + int(j))
    return np.array(cells, dtype=np.intp)


def coefficient_set(spin_weight, band_limit, entries=None):
    return CoefficientSet(spin_weight, band_limit, dict(entries or {}))


def analysis_matrix(f, band_limit=None):
    """Read-only analysis coefficients A[m + L, j] of a grid function, clipped like analyze.

    Entries with no mode (j < max(|m|, |s|)) are zero.  Computed once, at
    T = min(grid band, J_MAX), from samples that must all be finite, and
    kept on f; L = T returns it and a lower L its centered slice.
    """
    grid = f.grid
    L = grid.band_limit if band_limit is None else as_integer(band_limit, "band limit")
    if L < 0:
        raise ValueError(f"analysis band limit {L} is negative")
    top = min(grid.band_limit, J_MAX)
    if L > top:
        check_j_supported(L, f"analysis band limit {L}")
        raise BandLimitExceeded(f"analysis band limit {L} exceeds grid band limit {grid.band_limit}")
    a = f._analysis
    if a is None:
        if not np.isfinite(f.samples).all():
            raise ValueError("cannot analyze a grid function with non-finite samples")
        a = _clip(mode_coefficients(grid, f.spin_weight, f.samples, top))
        a.setflags(write=False)
        object.__setattr__(f, "_analysis", a)
    return a if L == top else a[top - L : top + L + 1, : L + 1]


def analyze(f, band_limit=None):
    """Project a grid function onto the mode basis up to the band limit."""
    s = f.spin_weight
    a = analysis_matrix(f, band_limit)
    L = a.shape[1] - 1
    if L < abs(s):
        return coefficient_set(s, abs(s))
    return CoefficientSet._wrap(s, L, a)


def synthesize(c, grid):
    """Evaluate the mode sum on every node of the grid."""
    if c.band_limit > grid.band_limit:
        raise BandLimitExceeded(
            f"coefficient band limit {c.band_limit} exceeds grid band limit"
            f" {grid.band_limit}"
        )
    return GridFunction._wrap(grid, c.spin_weight, mode_synthesis(grid, c.spin_weight, c.matrix))


def coefficients_to_json(c):
    payload = {
        "spin_weight": c.spin_weight,
        "band_limit": c.band_limit,
        "entries": [
            {"j": j, "m": m, "re": v.real, "im": v.imag}
            for (j, m), v in c.sorted_items()
        ],
    }
    return json_dumps(payload)


def coefficients_from_json(text):
    payload = json.loads(text)
    try:
        s = payload["spin_weight"]
        L = payload["band_limit"]
        entries = {
            (e["j"], e["m"]): complex(e["re"], e["im"]) for e in payload["entries"]
        }
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed coefficient JSON: {exc}") from exc
    return coefficient_set(s, L, entries)


def write_coefficients_json(c, path):
    with open(path, "w", newline="\n") as fh:
        fh.write(coefficients_to_json(c) + "\n")


def read_coefficients_json(path):
    with open(path) as fh:
        return coefficients_from_json(fh.read())
