"""Forward/inverse transforms and coefficient serialization."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from swsh import kernels
from swsh.errors import BandLimitExceeded, InvalidMode
from swsh.grid import GridFunction, inner_product, make_grid, sample_swsh
from swsh.modes import SWMode
from swsh.transform import (
    COEFF_CLIP,
    CoefficientSet,
    analysis_matrix,
    analyze,
    coefficient_set,
    coefficients_from_json,
    coefficients_to_json,
    mode_counts,
    read_coefficients_json,
    synthesize,
    write_coefficients_json,
)

from conftest import random_entries


# ------------------------------------------------------------ coefficient set

def test_entries_validated():
    # the first bad key in the mapping raises its own error, good keys around it or not
    good = {(2, 1): 1.0, (3, -2): 2.0j}
    for s, L, bad, error in (
        (-1, 4, (0, 0), InvalidMode),  # j < |s|
        (0, 4, (2, 3), InvalidMode),  # |m| > j
        (0, 100, (kernels.J_MAX + 1, 0), InvalidMode),  # j > J_MAX
        (0, 4, (5, 0), BandLimitExceeded),  # j > L
    ):
        for entries in ({bad: 1.0}, {bad: 1.0, **good}, {(2, 0): 1.0, bad: 1.0, **good}):
            with pytest.raises(error):
                coefficient_set(s, L, entries)
    with pytest.raises(BandLimitExceeded):
        coefficient_set(0, 4, {(1, 0): 1.0, (5, 0): 1.0, (2, 3): 1.0})
    with pytest.raises(InvalidMode):
        coefficient_set(0, 4, {(1, 0): 1.0, (2, 3): 1.0, (5, 0): 1.0})


def test_tiny_entries_clipped():
    c = coefficient_set(0, 4, {(1, 0): 0.5 * COEFF_CLIP, (2, 1): 1.0})
    assert c.get(1, 0) == 0
    assert c.get(2, 1) == 1.0


def test_sorted_items_order():
    c = coefficient_set(0, 4, {(3, -1): 1.0, (1, 1): 2.0, (3, -3): 3.0})
    assert [jm for jm, _ in c.sorted_items()] == [(1, 1), (3, -3), (3, -1)]


def test_structural_equality():
    a = coefficient_set(0, 4, {(1, 0): 1.0 + 2.0j})
    b = coefficient_set(0, 4, {(1, 0): 1.0 + 2.0j})
    assert a == b
    assert a != coefficient_set(0, 5, {(1, 0): 1.0 + 2.0j})


def _sparse_entries(a):
    """(j, m) -> amplitude of the nonzeros of a clipped A[m + L, j], j-major."""
    a = a.T
    L = a.shape[0] - 1
    js, ms = np.nonzero(a)
    return dict(zip(zip(js.tolist(), (ms - L).tolist()), a[js, ms].tolist()))


def test_analyze_entries_are_the_nonzeros_of_the_analysis_matrix(rng):
    grid = make_grid(12)
    for s in (-2, 0, 1):
        f = synthesize(coefficient_set(s, 12, random_entries(rng, s, 12)), grid)
        c = analyze(f)
        want = _sparse_entries(analysis_matrix(f))
        assert list(c.entries.items()) == list(want.items())
        assert all(type(v) is complex for v in c.entries.values())
        assert repr(c.sorted_items()) == repr(sorted(want.items()))


def test_set_from_dict_equals_set_from_matrix(rng):
    grid = make_grid(9)
    c = analyze(synthesize(coefficient_set(-1, 9, random_entries(rng, -1, 9)), grid))
    again = coefficient_set(-1, 9, dict(c.entries))
    assert again == c
    assert np.array_equal(again.matrix, c.matrix)


def test_numpy_and_integral_float_labels():
    want = coefficient_set(0, 4, {(2, -1): 1.0, (3, 3): -2.0})
    for j, m in ((np.int64(2), np.int32(-1)), (2.0, -1.0), (np.float64(2.0), -1)):
        c = coefficient_set(0, 4, {(j, m): 1.0, (3, 3): -2.0})
        assert c == want
        assert all(type(j) is int and type(m) is int for j, m in c.entries)
    with pytest.raises(InvalidMode):
        coefficient_set(0, 4, {(2.5, 0): 1.0})
    with pytest.raises(InvalidMode):
        coefficient_set(0, 4, {(np.float64(2), 0.5): 1.0})


def test_huge_band_limit_stores_at_most_the_supported_modes():
    tracemalloc.start()
    try:
        c = coefficient_set(0, 10**6, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.matrix.shape == (2 * kernels.J_MAX + 1, kernels.J_MAX + 1)
    assert peak < 10**6
    assert c.band_limit == 10**6 and c.sorted_items() == []


def test_stored_matrix_is_read_only():
    c = coefficient_set(1, 4, {(2, -1): 1.5})
    assert not c.matrix.flags.writeable
    with pytest.raises(ValueError):
        c.matrix[0, 0] = 1.0
    assert not analyze(synthesize(c, make_grid(4))).matrix.flags.writeable


def test_nan_amplitudes_are_dropped():
    nan = float("nan")
    c = coefficient_set(0, 4, {(1, 0): nan, (2, 1): complex(1.0, nan), (3, -1): 2.0})
    assert c.sorted_items() == [((3, -1), 2.0 + 0j)]
    assert c == c
    text = json.dumps({
        "spin_weight": 0,
        "band_limit": 4,
        "entries": [
            {"j": 1, "m": 0, "re": nan, "im": 0.0},
            {"j": 3, "m": -1, "re": 2.0, "im": 0.0},
        ],
    })
    assert coefficients_from_json(text) == c
    assert np.all(np.isfinite(synthesize(coefficients_from_json(text), make_grid(4)).samples))


def test_analyze_refuses_non_finite_samples():
    grid = make_grid(4)
    for bad in (float("nan"), float("inf")):
        samples = np.ones_like(sample_swsh(grid, SWMode(0, 1, 0)).samples)
        samples[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            analyze(GridFunction(grid, 0, samples))


# ------------------------------------------------------------------ transform

def test_analyze_single_modes_gives_delta():
    grid = make_grid(8)
    for s, j, m in ((0, 3, 2), (-1, 5, -4), (2, 8, 0), (-2, 2, -2)):
        c = analyze(sample_swsh(grid, SWMode(s, j, m)))
        assert abs(c.get(j, m) - 1.0) < 1e-12
        off = sum(abs(v) for jm, v in c.sorted_items() if jm != (j, m))
        assert off < 1e-11


def test_round_trip_coefficients_to_grid(rng):
    grid = make_grid(12)
    for s in (-2, -1, 0, 1, 2):
        c = coefficient_set(s, 12, random_entries(rng, s, 12))
        f = synthesize(c, grid)
        back = analyze(f)
        worst = max(
            abs(back.get(j, m) - c.get(j, m))
            for j in range(abs(s), 13)
            for m in range(-j, j + 1)
        )
        assert worst < 1e-10


def test_round_trip_grid_to_grid(rng):
    grid = make_grid(10)
    s = -1
    samples = np.zeros(grid.shape, dtype=complex)
    for (j, m), a in random_entries(rng, s, 10).items():
        samples += a * sample_swsh(grid, SWMode(s, j, m)).samples
    f = GridFunction(grid, s, samples)
    g = synthesize(analyze(f), grid)
    assert np.abs(g.samples - f.samples).max() < 1e-10


def test_analyze_linearity(rng):
    grid = make_grid(6)
    fa = sample_swsh(grid, SWMode(-1, 3, 1))
    fb = sample_swsh(grid, SWMode(-1, 5, -2))
    mix = GridFunction(grid, -1, 2.5 * fa.samples - 1j * fb.samples)
    c = analyze(mix)
    assert c.get(3, 1) == pytest.approx(2.5, abs=1e-12)
    assert c.get(5, -2) == pytest.approx(-1j, abs=1e-12)


def test_parseval(rng):
    grid = make_grid(9)
    s = 2
    c = coefficient_set(s, 9, random_entries(rng, s, 9))
    f = synthesize(c, grid)
    lhs = inner_product(f, f).real
    rhs = sum(abs(v) ** 2 for _, v in c.sorted_items())
    assert lhs == pytest.approx(rhs, rel=1e-11)


def test_band_limit_vs_grid():
    f = sample_swsh(make_grid(4), SWMode(0, 2, 0))
    with pytest.raises(BandLimitExceeded):
        analyze(f, band_limit=6)


def test_below_spin_band_is_empty():
    grid = make_grid(6)
    f = GridFunction(grid, 3, np.ones(grid.shape, dtype=complex))
    c = analyze(f, band_limit=2)  # no valid modes below j = |s|
    assert c.sorted_items() == []


def test_synthesize_empty_is_zero():
    grid = make_grid(4)
    f = synthesize(coefficient_set(-1, 4), grid)
    assert np.all(f.samples == 0)
    assert f.spin_weight == -1


# ---------------------------------------------------------------- mode counts

def test_mode_counts_shape():
    counts = mode_counts(-2, 4)
    assert counts == {0: 0, 1: 0, 2: 5, 3: 7, 4: 9}
    assert mode_counts(0, 2) == {0: 1, 1: 3, 2: 5}


# -------------------------------------------------------------- serialization

def test_json_round_trip(rng):
    c = coefficient_set(-1, 9, random_entries(rng, -1, 9))
    blob = coefficients_to_json(c)
    back = coefficients_from_json(blob)
    assert back == c


def test_json_layout():
    c = coefficient_set(1, 3, {(2, -1): 1.5 - 0.25j, (1, 1): 2.0})
    doc = json.loads(coefficients_to_json(c))
    assert doc["spin_weight"] == 1
    assert doc["band_limit"] == 3
    assert doc["entries"] == [
        {"j": 1, "m": 1, "re": 2.0, "im": 0.0},
        {"j": 2, "m": -1, "re": 1.5, "im": -0.25},
    ]


def test_file_round_trip_and_determinism(tmp_path, rng):
    c = coefficient_set(2, 7, random_entries(rng, 2, 7))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_coefficients_json(c, p1)
    write_coefficients_json(c, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert read_coefficients_json(p1) == c


def test_from_json_validates():
    with pytest.raises(ValueError):
        coefficients_from_json("[1, 2, 3]")
    with pytest.raises(ValueError):
        coefficients_from_json('{"spin_weight": 0}')
