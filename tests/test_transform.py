"""Forward/inverse transforms and coefficient serialization."""

import json
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from swsh import modes, tables, transform
from swsh.errors import BandLimitExceeded, InvalidMode
from swsh.grid import GridFunction, inner_product, make_grid, sample_swsh
from swsh.modes import J_MAX, SWMode
from swsh.multiplets import mode_counts
from swsh.transform import (
    COEFF_CLIP,
    analysis_matrix,
    analyze,
    coefficient_set,
    coefficients_from_json,
    coefficients_to_json,
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
        (0, modes.J_MAX, (modes.J_MAX + 1, 0), InvalidMode),  # j > J_MAX
        (0, 4, (5, 0), BandLimitExceeded),  # j > L
    ):
        for entries in ({bad: 1.0}, {bad: 1.0, **good}, {(2, 0): 1.0, bad: 1.0, **good}):
            with pytest.raises(error):
                coefficient_set(s, L, entries)
    with pytest.raises(BandLimitExceeded):
        coefficient_set(0, 4, {(1, 0): 1.0, (5, 0): 1.0, (2, 3): 1.0})
    with pytest.raises(InvalidMode):
        coefficient_set(0, 4, {(1, 0): 1.0, (2, 3): 1.0, (5, 0): 1.0})
    # labels that are not plain ints: each raises the type and message the
    # per-key validate_mode check gives, and a float-parsed check would not
    # (it would read '3' as 3 and None as NaN)
    big, cap = 2**70, modes.J_MAX
    for bad, error, message in (
        (("3", 1), InvalidMode, "j='3' is not an integer"),
        ((b"3", 1), InvalidMode, "j=b'3' is not an integer"),
        ((3, "1"), InvalidMode, "m='1' is not an integer"),
        ((None, 1), TypeError, _int_error(None)),
        ((float("nan"), 0), InvalidMode, "j=nan is not an integer"),
        ((float("inf"), 0), InvalidMode, "j=inf is not an integer"),
        ((0, float("-inf")), InvalidMode, "m=-inf is not an integer"),
        ((2.5, 1), InvalidMode, "j=2.5 is not an integer"),
        ((big, 0), InvalidMode, f"j={big} exceeds the supported maximum j = {cap}"),
        ((3, big), InvalidMode, f"invalid mode: |m| > j (j=3, m={big})"),
        ((3, -(2**63)), InvalidMode, f"invalid mode: |m| > j (j=3, m={-(2**63)})"),
        ((-1, 0), InvalidMode, "j=-1 is negative"),
        ((6, 0), BandLimitExceeded, "entry j=6 exceeds band limit 4"),
        ((cap + 1, 0), InvalidMode, f"j={cap + 1} exceeds the supported maximum j = {cap}"),
    ):
        for entries in ({bad: 1.0}, {**good, bad: 1.0}, {bad: 1.0, (5, 0): 1.0, (2, 3): 1.0}):
            with pytest.raises(error) as info:
                coefficient_set(0, 4, entries)
            assert type(info.value) is error and str(info.value) == message, (bad, entries)
    # labels equal to ints are read as those ints, wherever they sit
    for label, want in ((True, 1), (np.int64(3), 3), (3.0, 3)):
        c = coefficient_set(0, 4, {**good, (label, 1): 1.0})
        assert c == coefficient_set(0, 4, {**good, (want, 1): 1.0})
    with pytest.raises(BandLimitExceeded, match="entry j=5 exceeds band limit 4"):
        coefficient_set(0, 4, {(True, 0): 1.0, (5, 0): 1.0, (2, 3): 1.0})
    # keys that are not (j, m) pairs, and amplitudes complex() refuses, in order
    for entries, error, message in (
        ({(2, 1): 1.0, (1, 1, 0): 1.0, (0,): 1.0}, ValueError, "too many values to unpack"),
        ({(2, 1): 1.0, 1: 2.0}, TypeError, "cannot unpack non-iterable int object"),
        ({(1, 0): b"1"}, TypeError, _complex_error(b"1")),
        ({(1, 0): None, (9, 0): 1.0}, TypeError, _complex_error(None)),
        ({(9, 0): 1.0, (1, 0): None}, BandLimitExceeded, "entry j=9 exceeds band limit 4"),
    ):
        with pytest.raises(error) as info:
            coefficient_set(0, 4, entries)
        assert type(info.value) is error and str(info.value).startswith(message), entries
    assert coefficient_set(0, 4, {(1, 0): "1+2j"}).get(1, 0) == 1 + 2j


def test_a_complex_label_is_refused_though_it_equals_an_int():
    # 2+0j == 2 and hashes alike, so a bare dict lookup would take it;
    # it raises int()'s TypeError, alone, after good keys, or next to a
    # float32 label that makes the labels' sum a numpy complex64
    good = {(2, 1): 1.0, (3, -2): 2.0j}
    for entries in (
        {(2 + 0j, 1): 1.0},
        {**good, (2 + 0j, 0): 1.0},
        {**good, (4, -1 + 0j): 1.0},
        {**good, (2 + 0j, np.float32(0)): 1.0},
    ):
        with pytest.raises(TypeError) as info:
            coefficient_set(0, 4, entries)
        assert type(info.value) is TypeError and str(info.value) == _int_error(2 + 0j), entries


@pytest.mark.filterwarnings("ignore::numpy.exceptions.ComplexWarning")
def test_numeric_labels_equal_to_ints_are_read_as_those_ints():
    good = {(2, 1): 1.0, (3, -2): 2.0j}
    want = coefficient_set(0, 4, {**good, (2, 0): 3.0})
    for label in (np.complex128(2), Fraction(2), Decimal(2)):
        assert coefficient_set(0, 4, {**good, (label, 0): 3.0}) == want, label
        assert coefficient_set(0, 4, {(label, 0): 3.0, **good}) == want, label
    # labels that do not order against each other are compared as ints
    want = coefficient_set(0, 3, {(2, 1): 1.0})
    for label in ((np.complex128(2), Fraction(1)), (np.complex128(2), Decimal(1))):
        assert coefficient_set(0, 3, {label: 1.0}) == want, label


@pytest.mark.filterwarnings("ignore::numpy.exceptions.ComplexWarning")
def test_the_label_walk_and_the_label_index_give_the_same_bytes(monkeypatch):
    # int and float labels are read through the index; Decimal labels (not
    # registered as real numbers) and numpy complex ones take the walk
    walks = []
    walk = transform._walk_cells
    monkeypatch.setattr(transform, "_walk_cells", lambda *a: walks.append(1) or walk(*a))
    rng = np.random.default_rng(26)
    for s, L in ((0, 12), (-2, 12), (1, 5)):
        ints = random_entries(rng, s, L, count=40)
        want = coefficient_set(s, L, ints).matrix.tobytes()
        for label, walked in ((int, 0), (float, 0), (Decimal, 1), (np.complex128, 1)):
            walks.clear()
            twin = {(label(j), label(m)): v for (j, m), v in ints.items()}
            assert coefficient_set(s, L, twin).matrix.tobytes() == want, (s, L, label)
            assert len(walks) == walked, (s, L, label)


def _int_error(label):
    """The message int() gives for label, which validate_mode passes on."""
    try:
        int(label)
    except (TypeError, ValueError) as exc:
        return str(exc)


def _complex_error(value):
    try:
        complex(value)
    except TypeError as exc:
        return str(exc)


def test_sizes_must_be_integers():
    # a fractional spin weight, band limit or node count is refused, never truncated
    for s, L in ((-1.5, 12), (0, 12.7), (-1.5, 12.7), ("1", 4)):
        with pytest.raises(ValueError, match="must be an integer"):
            coefficient_set(s, L, {})
    c = coefficient_set(-1.0, 4.0, {(2, 1): 1.0})
    assert (c.spin_weight, c.band_limit) == (-1, 4)
    assert type(c.spin_weight) is int and type(c.band_limit) is int
    doc = {"spin_weight": 0, "band_limit": 4, "entries": [{"j": 1, "m": 0, "re": 1.0, "im": 0.0}]}
    for field, value in (("spin_weight", 0.9), ("band_limit", 3.99)):
        with pytest.raises(ValueError, match="must be an integer"):
            coefficients_from_json(json.dumps({**doc, field: value}))
    grid = make_grid(6)
    f = sample_swsh(grid, SWMode(0, 2, 1))
    with pytest.raises(ValueError, match="must be an integer"):
        analyze(f, band_limit=4.7)
    assert analyze(f, band_limit=4.0) == analyze(f, band_limit=4)
    for nodes in ({"n_theta": 12.7}, {"n_phi": 23.9}, {"n_theta": 12.7, "n_phi": 23.9},
                  {"n_theta": float("inf")}, {"n_phi": float("nan")}):
        with pytest.raises(ValueError, match="must be an integer"):
            make_grid(8, **nodes)
    assert make_grid(8, n_theta=12.0, n_phi=23.0) == make_grid(8, n_theta=12, n_phi=23)


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


def test_one_analysis_per_grid_function(rng, monkeypatch):
    grid = make_grid(8)
    f = synthesize(coefficient_set(-1, 8, random_entries(rng, -1, 8)), grid)
    calls = []
    real = transform.mode_coefficients
    monkeypatch.setattr(
        transform, "mode_coefficients", lambda g, s, x, L: calls.append(L) or real(g, s, x, L)
    )
    # a lower band is analyzed afresh each time and never kept
    low = analyze(f, band_limit=6)
    assert calls == [6] and f._analysis is None
    c = analyze(f)
    assert calls == [6, 8]
    a = analysis_matrix(f)
    assert a is c.matrix and not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0] = 1.0
    assert analyze(f) == c and analyze(f, band_limit=8) == c
    assert calls == [6, 8]
    assert analyze(f, band_limit=6) == low
    assert calls == [6, 8, 6] and f._analysis is a


def test_analysis_is_of_the_samples_as_given(rng):
    # a function made from a view keeps its own samples, so writing the
    # view's base afterwards changes neither them nor their kept analysis
    grid = make_grid(6)
    base = np.zeros((2, *grid.shape), dtype=np.complex128)
    base[0] = synthesize(coefficient_set(0, 6, random_entries(rng, 0, 6)), grid).samples
    f = GridFunction(grid, 0, base[0])
    before = f.samples.copy()
    c = analyze(f)
    base[0] = 1.0
    assert np.array_equal(f.samples, before) and not f.samples.flags.writeable
    assert analyze(f) == c == analyze(GridFunction(grid, 0, before))
    assert base.flags.writeable


def test_band_limit_vs_grid():
    f = sample_swsh(make_grid(4), SWMode(0, 2, 0))
    with pytest.raises(BandLimitExceeded):
        analyze(f, band_limit=6)


def test_an_analysis_above_j_max_names_its_limit(monkeypatch):
    grid = make_grid(J_MAX + 6)
    f = sample_swsh(grid, SWMode(-1, 3, 2))

    def refuse(*args):
        raise AssertionError("an analysis past J_MAX reached a table or DFT")

    monkeypatch.setattr(tables, "phi_analysis", refuse)
    monkeypatch.setattr(tables, "mode_table", refuse)
    for band, asked in ((J_MAX + 6, None), (J_MAX + 1, J_MAX + 1)):
        message = f"analysis band limit {band} exceeds the supported maximum j = {J_MAX}"
        with pytest.raises(InvalidMode, match=message):
            analyze(f, band_limit=asked)
    monkeypatch.undo()
    assert analyze(f, band_limit=J_MAX).entries.keys() == {(3, 2)}


def test_a_negative_analysis_band_is_named():
    f = sample_swsh(make_grid(4), SWMode(0, 2, 0))
    for band in (-1, -5):
        for entry in (analyze, analysis_matrix):
            with pytest.raises(ValueError) as info:
                entry(f, band_limit=band)
            assert type(info.value) is ValueError
            assert str(info.value) == f"analysis band limit {band} is negative"


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
    assert mode_counts(-2.0, 3.0) == mode_counts(-2, 3)
    # fractions are refused, not truncated to the counts of s = 1, j_max = 3
    for args in ((-1.7, 3.9), (-1, 3.9), (-1.7, 3)):
        with pytest.raises(ValueError, match="must be an integer"):
            mode_counts(*args)


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
