"""Mode tables and the reference Wigner-d: recurrence against Horner, orthonormality, caching."""

import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from swsh import (OperatorSpec, SWMode, analyze, apply_grid, apply_J_rotation, apply_projected_orbital,
                  apply_projected_spin, coefficient_set, embed, make_grid, modes, operators, profile, sample_swsh,
                  section_norm, section_scale, synthesize, tables)
from swsh.errors import BandLimitExceeded
from swsh.grid import SphereGrid
from swsh.modes import _dtheta, _seeds
from swsh.tables import (GridCache, contract_table, dft_rows, mode_coefficients, mode_operands, mode_synthesis,
                         mode_table, spin_tables)
from swsh.transform import analysis_matrix

import horner_reference as horner
from conftest import random_entries
from rotation_reference import wigner_d

SPINS = (0, 1, -1, 2, -2)


@pytest.mark.parametrize("L", [16, 32, 64])
@pytest.mark.parametrize("s", SPINS)
def test_recurrence_rows_match_horner_profiles(L, s):
    grid = make_grid(L)
    table = mode_table(grid, s)
    worst = 0.0
    for m in range(-L, L + 1):
        j0 = max(abs(m), abs(s))
        assert not table[m + L, :j0].any()
        for j in range(j0, L + 1):
            want = horner.profile(s, j, m, grid.theta)
            worst = max(worst, float(np.abs(table[m + L, j] - want).max()))
    assert worst <= 1e-12


def _derivative_table(grid, s, L, order):
    """d^order/dtheta^order p_{sjm}(theta_t) [m + L, j, t], as the differential reference tables take it:
    one climb of the spins s - order, s - order + 2 .. s + order, then order spin-raising steps."""
    spins = np.arange(s - order, s + order + 1, 2)
    table = spin_tables(grid, spins, L)
    for _ in range(order):
        table = _dtheta(table, spins, np.arange(L + 1)[:, None])
        spins = spins[:-1] + 1
    return table[0]


@pytest.mark.parametrize("order", [1, 2])
def test_derivative_tables_are_the_horner_derivatives(order):
    # the spin-raising derivatives against the Horner derivative profiles,
    # each table within 1e-12 of its largest entry.  A Horner derivative
    # profile costs about a millisecond, so at L = 32 and 64 every eighth and
    # every 32nd m, and the rows |m| <= 2 seeded at j0 = |s|, stand for all
    for L, stride in ((6, 1), (32, 8), (64, 32)):
        grid = make_grid(L)
        ms = [m for m in range(-L, L + 1) if m % stride == 0 or abs(m) <= 2]
        for s in SPINS:
            table = _derivative_table(grid, s, L, order)
            worst = 0.0
            for m in ms:
                for j in range(max(abs(m), abs(s)), L + 1):
                    want = horner.profile(s, j, m, grid.theta, order=order)
                    worst = max(worst, float(np.abs(table[m + L, j] - want).max()))
            assert worst <= 1e-12 * np.abs(table).max()


def test_spin_raising_relations_hold_for_every_mode_at_64():
    # CONVENTIONS.md, with lam_+- = sqrt((j -+ s)(j +- s + 1)) clipped at 0:
    #   p'_s = (lam_- p_{s-1} - lam_+ p_{s+1}) / 2, and p''_s that applied twice,
    #   (m + s cos) / sin p_s = (lam_+ p_{s+1} + lam_- p_{s-1}) / 2.
    # The derivatives are checked against a complex step, the climb at
    # theta + i h, whose imaginary part is h times the derivative to rounding
    # (no difference is taken).  The derivative forms hold to 1e-13 of each
    # table's largest entry; the csc form, whose left side divides by sin
    # near the poles, to 5e-12 of p_s's largest entry.
    grid, L, h = make_grid(64), 64, 1e-30
    ms = np.arange(-L, L + 1)
    j, m = np.arange(L + 1)[:, None], ms[:, None, None]

    def raised(p, s):
        up = np.sqrt(np.maximum((j - s) * (j + s + 1), 0))
        down = np.sqrt(np.maximum((j + s) * (j - s + 1), 0))
        return up, down, 0.5 * (down * p[s - 1] - up * p[s + 1])

    for s in range(-2, 3):
        spins = np.arange(s - 2, s + 3)
        stepped = np.zeros((spins.size * ms.size, L + 1, grid.n_theta), dtype=np.complex128)
        modes._climb(np.repeat(spins, ms.size), np.tile(ms, spins.size), grid.theta + h * 1j, L, stepped)
        stepped = dict(zip(spins.tolist(), stepped.reshape((spins.size, ms.size, L + 1, -1))))
        p = dict(zip(spins.tolist(), spin_tables(grid, spins, L)))
        up, down, dp = raised(p, s)
        want = stepped[s].imag / h
        assert np.abs(dp - want).max() <= 1e-13 * np.abs(want).max()
        d2p = raised({k: raised(p, k)[2] for k in (s - 1, s + 1)}, s)[2]
        want = raised(stepped, s)[2].imag / h
        assert np.abs(d2p - want).max() <= 1e-13 * np.abs(want).max()
        csc = (m + s * np.cos(grid.theta)) / np.sin(grid.theta) * p[s]
        assert np.abs(csc - 0.5 * (up * p[s + 1] + down * p[s - 1])).max() <= 5e-12 * np.abs(p[s]).max()


def test_closed_form_seeds_are_the_horner_profiles():
    # the single-term profile at j0 = max(|m|, |s|) for every |s|, |m| <= 64;
    # the Horner side carries the 1e-13 of its log-factorial lead
    theta = make_grid(64).theta
    ms = np.arange(-64, 65)
    for s in range(-64, 65):
        j0, seeds = _seeds(np.full_like(ms, s), ms, theta)
        for m, j, row in zip(ms.tolist(), j0.tolist(), seeds):
            want = horner.profile(s, j, m, theta)
            assert np.abs(row - want).max() <= 5e-13 * np.abs(want).max()


def test_wigner_d_at_zero_is_the_identity():
    L = 9
    d = wigner_d(L, 0.0)
    for j in range(L + 1):
        block = np.zeros((2 * L + 1, 2 * L + 1))
        block[L - j : L + j + 1, L - j : L + j + 1] = np.eye(2 * j + 1)
        assert np.array_equal(d[j], block)


@pytest.mark.parametrize(
    "L, beta", [(12, 0.7), (32, 1e-4), (32, 2e-4), (32, 0.7), (32, 2.5), (64, 0.7), (64, 2.5)]
)
def test_wigner_d_blocks_are_orthogonal(L, beta):
    d = wigner_d(L, beta)
    for j in range(L + 1):
        inside = (slice(L - j, L + j + 1),) * 2
        block = d[j][inside]
        assert np.abs(block @ block.T - np.eye(2 * j + 1)).max() <= 1e-13
        outside = d[j].copy()
        outside[inside] = 0.0
        assert not outside.any()


@pytest.mark.parametrize("s", SPINS)
def test_per_m_gram_is_identity_at_64(s):
    L = 64
    grid = make_grid(L)
    table = mode_table(grid, s)
    worst = 0.0
    for m in range(-L, L + 1):
        rows = table[m + L, max(abs(m), abs(s)) :]
        gram = (rows * grid.theta_weights) @ rows.T * (2.0 * np.pi)
        worst = max(worst, float(np.abs(gram - np.eye(len(rows))).max()))
    assert worst <= 1e-12


def test_band_limited_view_keeps_low_rows():
    grid = make_grid(8, n_phi=21)
    low = mode_operands(grid, -2, 5).table  # a slice of the one table, built at the grid's band 8
    full = mode_table(grid, -2)  # that table itself
    assert low.shape == (11, 6, grid.n_theta)
    assert full.shape == (17, 9, grid.n_theta)
    assert np.array_equal(low, full[3:14, :6])


def test_contract_table_skips_only_zero_bands(rng):
    grid = make_grid(8)
    coeffs = np.zeros((17, 9), dtype=np.complex128)
    for j in range(4):
        coeffs[8 - j : 8 + j + 1, j] = rng.normal(size=2 * j + 1)
    derivative = _derivative_table(grid, 0, 8, 1)
    got = contract_table(derivative, coeffs)
    want = np.einsum("mjt,mj->mt", derivative, coeffs)
    assert np.abs(got - want).max() <= 1e-14
    assert not got[:5].any() and not got[12:].any()
    # trailing axes pass through: a [..., 2] stack is its slices, bit for bit
    stack = np.stack([coeffs, 1j * coeffs[::-1]], axis=-1)
    got = contract_table(derivative, stack)
    assert got.shape == (17, grid.n_theta, 2)
    assert np.array_equal(contract_table(derivative, stack[..., ::-1]), got[..., ::-1])
    samples = rng.normal(size=grid.shape + (2,)) + 1j * rng.normal(size=grid.shape + (2,))
    analysis = mode_coefficients(grid, 0, samples, 5)
    assert analysis.shape == (11, 6, 2)
    for i in range(2):
        assert np.array_equal(got[..., i], contract_table(derivative, stack[..., i]))
        assert np.array_equal(analysis[..., i], mode_coefficients(grid, 0, samples[..., i], 5))


@pytest.mark.parametrize("band", [8, 5])
def test_mode_synthesis_reads_its_band_from_the_coefficients(rng, monkeypatch, band):
    # the twin of mode_coefficients: A[m + L, j, ...] at L = A.shape[1] - 1
    # gives samples [t, ..., p]; a [..., 2] stack is its slices, bit for bit,
    # and once warm, a call at any band puts nothing in the cache
    grid, s = make_grid(8), -1
    coeffs = np.stack([coefficient_set(s, band, random_entries(rng, s, band)).matrix for _ in range(2)], axis=-1)
    got = mode_synthesis(grid, s, coeffs)
    assert got.shape == (grid.n_theta, 2, grid.n_phi)
    m = np.arange(-band, band + 1)[:, None]
    table = mode_table(grid, s)[8 - band : 9 + band, : band + 1]
    want = np.einsum("mjt,mji,mp->tip", table, coeffs, np.exp(1j * m * grid.phi))
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    puts, put = [], tables._tables.put
    monkeypatch.setattr(tables._tables, "put", lambda key, value: puts.append(key) or put(key, value))
    for i in range(2):
        assert mode_synthesis(grid, s, coeffs[..., i]).tobytes() == got[:, i].tobytes()
    assert mode_synthesis(grid, s, coeffs).tobytes() == got.tobytes()
    assert puts == []


def test_mode_synthesis_refuses_a_band_above_the_grid_band():
    grid = make_grid(6)
    with pytest.raises(BandLimitExceeded, match=r"^table band limit 7 outside \[0, 6\]$"):
        mode_synthesis(grid, 0, np.zeros((15, 8), np.complex128))


def test_tables_are_read_only():
    table = mode_table(make_grid(4), 0)
    with pytest.raises(ValueError):
        table[0, 0, 0] = 1.0


def test_repeat_transforms_are_byte_identical(rng):
    grid = make_grid(12)
    c = coefficient_set(-2, 12, random_entries(rng, -2, 12))
    first = synthesize(c, grid)
    second = synthesize(c, grid)
    assert first.samples.tobytes() == second.samples.tobytes()
    a, b = analyze(first), analyze(second)
    assert a.sorted_items() == b.sorted_items()
    assert repr(a.sorted_items()) == repr(b.sorted_items())


def test_grids_sharing_a_band_limit_never_share_a_table():
    coarse = make_grid(6)
    fine = make_grid(6, n_theta=9)
    a, b = mode_table(coarse, 0), mode_table(fine, 0)
    assert a.shape[2] == 7 and b.shape[2] == 9
    for grid, table in ((coarse, a), (fine, b)):
        assert np.allclose(table[6 + 2, 3], profile(0, 3, 2, grid.theta), rtol=0, atol=1e-14)
    assert not np.shares_memory(a, b)
    # an equal grid built from its sizes reuses the table
    twin = SphereGrid(6, 7, 13)
    assert np.shares_memory(mode_table(twin, 0), a)


AZIMUTHAL_CASES = [(make_grid(L), 0) for L in (0, 1, 8, 24, 64)] + [
    (make_grid(5, n_phi=16), 0),
    (make_grid(8), 3),
    (make_grid(3, n_phi=1025), 2),
    (make_grid(24), 5),
]


@pytest.mark.parametrize("grid, lower", AZIMUTHAL_CASES)
def test_azimuthal_transforms_match_numpy_fft(rng, grid, lower):
    # the DFT matrix products against numpy.fft, the independent reference,
    # at the grid's band and, sliced from the same entry, lower bands
    L, n = grid.band_limit - lower, grid.n_phi
    ms = np.arange(-L, L + 1)
    def draw(shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    samples = draw((n, grid.n_theta, 2))
    want = (np.fft.fft(samples, axis=0) * grid.phi_weight)[ms % n]
    got = tables.phi_analysis(mode_operands(grid, 0, L).analysis, samples)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    radial = draw((2 * L + 1, grid.n_theta, 2))
    spec = np.zeros((grid.n_theta, 2, n), dtype=np.complex128)
    spec[..., ms % n] = radial.transpose(1, 2, 0)
    want = np.fft.ifft(spec, axis=-1, norm="forward")
    got = tables.phi_synthesis(mode_operands(grid, 0, L).synthesis, radial)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    # the rows of one band, 2L + 1 of them whatever n_phi: O(n_phi)
    assert dft_rows(grid, L).shape == (2 * L + 1, n)
    assert mode_operands(grid, 0, L).synthesis.tobytes() == dft_rows(grid, L).tobytes()


@pytest.mark.parametrize("n_phi, L", [(25, 12), (25, 5), (16, 5), (16, 0), (129, 64), (1025, 3)])
def test_phi_analysis_is_the_weighted_reversed_dft_rows_bit_for_bit(rng, n_phi, L):
    # the mode entry's analysis rows, at its band and sliced below it, hold
    # the bytes of the band's DFT rows reversed and weighted by dphi, so the
    # GEMM gives the same bytes
    grid = make_grid(L, n_phi=n_phi)
    samples = rng.normal(size=(n_phi, grid.n_theta, 2)) + 1j * rng.normal(size=(n_phi, grid.n_theta, 2))
    for band in (L, L // 2):
        w = dft_rows(grid, band)[::-1] * grid.phi_weight
        rows = mode_operands(grid, 0, band).analysis
        assert rows.tobytes() == w.tobytes()
        want = (w @ samples.reshape(n_phi, -1)).reshape((2 * band + 1,) + samples.shape[1:])
        assert tables.phi_analysis(rows, samples).tobytes() == want.tobytes()
    assert mode_operands(grid, 0, L).analysis is mode_operands(make_grid(L, n_phi=n_phi), 0, L).analysis


def test_warm_transforms_put_nothing_in_the_cache(rng, monkeypatch):
    # after one call of each at the grid's band, the transforms and a grid
    # operator at that band or a lower one only slice cached operands
    grid, low = make_grid(12), 7
    sets = {band: [coefficient_set(s, band, random_entries(rng, s, band)) for s in (0, -2)]
            for band in (grid.band_limit, low)}
    ops = [OperatorSpec(kind, s) for kind, s in (("Jplus", 0), ("Jminus", -2))]

    def run(band, limit=None):
        for c, op in zip(sets[band], ops):
            f = synthesize(c, grid)
            analyze(f, band_limit=limit)
            apply_grid(op, f, band_limit=limit)

    run(grid.band_limit)
    puts, put = [], tables._tables.put
    monkeypatch.setattr(tables._tables, "put", lambda key, value: puts.append(key) or put(key, value))
    run(grid.band_limit)
    run(low, low)
    run(grid.band_limit, low)
    assert puts == []


@pytest.mark.parametrize("band", [12, 7])
def test_a_warm_transform_step_reads_the_cache_once(rng, monkeypatch, band):
    # one op of the transform-reuse benchmark's shape, at the grid's band or
    # a lower one: once warm, each synthesize, analysis and apply_grid step
    # reads its one entry, and nothing is put or climbed
    grid, limit = make_grid(12), None if band == 12 else band
    key = grid.geometry_key

    def op():
        for s, kind in ((0, "Jplus"), (-2, "Jminus")):
            f = synthesize(coefficient_set(s, band, random_entries(rng, s, band)), grid)
            analyze(f, band_limit=limit)
            analyze(apply_grid(OperatorSpec(kind, s), f, band_limit=limit), band_limit=limit)

    op()
    gets, puts, climbs = [], [], []
    get, put = tables._tables.get, tables._tables.put
    monkeypatch.setattr(tables._tables, "get", lambda key: gets.append(key) or get(key))
    monkeypatch.setattr(tables._tables, "put", lambda key, value: puts.append(key) or put(key, value))
    monkeypatch.setattr(tables, "_climb", lambda *args: climbs.append(args))
    op()
    assert puts == [] and climbs == []
    # synthesize, analyze, apply_grid (the analysis is kept on f, the
    # ladder-shifted coefficients synthesized), analyze
    assert gets == [(key, 0)] * 4 + [(key, -2)] * 4


def test_the_cache_holds_three_kinds_of_entry_and_counts_its_bytes_exactly(rng):
    # after one op of the transform-reuse benchmark's shape and one of
    # bundle-lemma's (|h| = 1 at band 5), every held array owns its memory,
    # so the byte count is the memory the cache holds
    tables._tables.clear()
    grid = make_grid(12)
    for s, kind in ((0, "Jplus"), (-2, "Jminus")):
        f = synthesize(coefficient_set(s, 12, random_entries(rng, s, 12)), grid)
        analyze(f)
        analyze(apply_grid(OperatorSpec(kind, s), f))
    sec = embed(synthesize(coefficient_set(-1, 5, random_entries(rng, -1, 5)), make_grid(10)))
    sec = section_scale(1.0 / section_norm(sec), sec)
    apply_projected_spin(sec)
    apply_projected_orbital(sec)
    for axis in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)):
        apply_J_rotation(sec, axis)
    items = tables._tables._items
    kinds = {"mode" if isinstance(key[0], tuple) else key[0] for key in items}
    assert kinds == {"mode", "projector", "fiber"}
    held = [a for value in items.values() for a in (value if isinstance(value, tuple) else (value,))]
    assert not [(i, k) for (i, a), (k, b) in itertools.combinations(enumerate(held), 2) if np.shares_memory(a, b)]
    assert tables._tables.nbytes == sum(a.nbytes for a in held)
    # mode entries of spins 0 and -2 at band 12 (54008 B each) and of spins
    # -1 and 0 at band 10 (34616 B each), the rank-1 projector (16632 B) and
    # the h = 1 fiber (11088 B)
    assert tables._tables.nbytes == 2 * 54008 + 2 * 34616 + 16632 + 11088
    tables._tables.clear()


def test_threads_share_the_table_cache(rng):
    # four threads run warm transforms on two grids while a fifth clears
    # the cache and puts into it, so entries vanish and are rebuilt under
    # them; every result keeps the bytes of the one-thread run, and under
    # the cache's lock its byte count is the sum of what it holds
    work = [(grid, coefficient_set(s, grid.band_limit, random_entries(rng, s, grid.band_limit)), OperatorSpec(kind, s))
            for grid in (make_grid(12), make_grid(7, n_phi=16)) for s, kind in ((0, "Jplus"), (-2, "Jminus"))]

    def run(grid, c, op):
        f = synthesize(c, grid)
        moved = apply_grid(op, f)
        return b"".join(a.tobytes() for a in (f.samples, analyze(f).matrix, moved.samples, analyze(moved).matrix))

    want = [run(*case) for case in work]
    faults, done = [], []
    stop = threading.Event()

    def transform(k):
        try:
            for i in range(24):
                case = (k + i) % len(work)
                if run(*work[case]) != want[case]:
                    faults.append(f"thread {k}, case {case}: bytes differ")
            done.append(k)
        except Exception as exc:  # recorded, so the assertion below names it
            faults.append(repr(exc))

    def churn():
        cache = tables._tables
        try:
            for i in itertools.count():
                if stop.is_set():
                    break
                cache.clear()
                cache.put(("churn", i % 3), np.zeros(64))
                with cache._lock:  # a snapshot: the byte count is the sum of what is held
                    if cache.nbytes != sum(value.nbytes for value in cache._items.values()):
                        faults.append(f"byte count {cache.nbytes} after clear {i}")
        except Exception as exc:
            faults.append(repr(exc))

    workers = [threading.Thread(target=transform, args=(k,)) for k in range(4)]
    churner = threading.Thread(target=churn)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        churner.start()
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=120)
    finally:
        stop.set()
        churner.join(timeout=120)
        sys.setswitchinterval(interval)
        tables._tables.clear()
    assert not any(t.is_alive() for t in workers + [churner])
    assert faults == [] and sorted(done) == [0, 1, 2, 3]


def test_sparse_content_is_read_at_the_declared_band(rng, monkeypatch):
    # content that stops at j = 2 in a set declaring band 12 is synthesized
    # and apply_grid-ed from tables climbed to band 12, no lower, and a warm
    # repeat puts nothing in the cache
    tables._tables.clear()
    grid, s, L = make_grid(12), -1, 12
    c = coefficient_set(s, L, {(j, m): complex(rng.normal(), rng.normal())
                               for j in (1, 2) for m in range(-j, j + 1)})
    op = OperatorSpec("Jplus", s)
    tops, climb = [], tables._climb
    monkeypatch.setattr(tables, "_climb", lambda *args: tops.append(args[3]) or climb(*args))
    f = synthesize(c, grid)
    raised = apply_grid(op, f)
    assert tops == [L]  # spin s, for both transforms and J_+'s synthesis
    assert tables._tables.get((grid.geometry_key, s)).table.shape[-2] == L + 1
    m = np.arange(-L, L + 1)[:, None]
    want = np.einsum("mjt,mj,mp->tp", mode_table(grid, s), c.matrix, np.exp(1j * m * grid.phi))
    assert np.abs(f.samples - want).max() <= 1e-15 * np.abs(want).max()
    raised_coeffs = operators.ladder_shift(analysis_matrix(f), +1)
    want = np.einsum("mjt,mj,mp->tp", mode_table(grid, s), raised_coeffs, np.exp(1j * m * grid.phi))
    assert np.abs(raised.samples - want).max() <= 1e-15 * np.abs(want).max()
    puts, put = [], tables._tables.put
    monkeypatch.setattr(tables._tables, "put", lambda key, value: puts.append(key) or put(key, value))
    again = synthesize(c, grid)
    assert apply_grid(op, again).samples.tobytes() == raised.samples.tobytes()
    assert again.samples.tobytes() == f.samples.tobytes()
    assert puts == []
    tables._tables.clear()


def test_cached_mode_tables_hold_order_zero_only(rng):
    # after every operator kind and a bundle J_perp, each (geometry_key, s)
    # entry is one [m + L, j, t] table: the derivative orders live only in
    # the tables built from them
    tables._tables.clear()
    grid = make_grid(12)
    for s in (0, -2):
        f = synthesize(coefficient_set(s, 12, random_entries(rng, s, 12)), grid)
        for kind in operators.KINDS:
            apply_grid(OperatorSpec(kind, s), f)
    apply_projected_orbital(embed(synthesize(coefficient_set(-1, 12, random_entries(rng, -1, 12)), grid)))
    held = {key[1]: entry.table for key, entry in tables._tables._items.items() if key[0] == grid.geometry_key}
    assert held.keys() == {0, -2, -1}
    assert all(table.shape == (25, 13, grid.n_theta) for table in held.values())
    tables._tables.clear()


def test_geometry_key_is_built_once_per_grid():
    grid = make_grid(6)
    assert grid.geometry_key is grid.geometry_key
    twin = SphereGrid(6, 7, 13)
    assert twin.geometry_key == grid.geometry_key == (6, 7, 13)
    other = make_grid(6, n_theta=8)
    assert other.geometry_key != grid.geometry_key


def test_stacked_spins_are_the_single_spin_factors(rng):
    grid = make_grid(9)
    c = coefficient_set(0, 7, random_entries(rng, 0, 7)).matrix
    coeffs = np.stack([c, 2j * c], axis=-1)
    stacked = contract_table(spin_tables(grid, (-1, 0, 1), 7), coeffs)
    assert stacked.shape == (3, 15, grid.n_theta, 2)
    for k in range(3):
        want = contract_table(spin_tables(grid, [k - 1], 7)[0], coeffs)
        assert np.abs(stacked[k] - want).max() <= 1e-15 * np.abs(want).max()


def test_grid_cache_stays_within_its_byte_budget():
    cache = GridCache(max_bytes=3000)
    for k in range(5):
        cache.put(k, np.zeros(100))  # 800 bytes each
    assert len(cache) == 3 and cache.nbytes == 2400
    assert cache.get(0) is None and cache.get(4) is not None
    cache.get(2)  # refresh 2, so 3 is now the oldest
    cache.put(5, np.zeros(100))
    assert cache.get(3) is None and cache.get(2) is not None
    big = np.zeros(1000)
    assert cache.put("big", big) is big
    assert cache.get("big") is None and cache.nbytes <= 3000


def test_grid_cache_builds_each_key_once():
    cache = GridCache(max_bytes=3000)
    built = []

    def build(n):
        return lambda: built.append(n) or np.zeros(n)

    first = cache.cached("a", build(10))
    assert cache.cached("a", build(20)) is first and first.size == 10
    assert not first.flags.writeable
    cache.cached("b", build(30))
    assert cache.cached("b", build(40)).size == 30
    assert built == [10, 30]
    # an array past the budget is returned but not kept, so it is built again
    assert cache.cached("big", build(1000)).size == 1000
    assert cache.cached("big", build(1000)).size == 1000
    assert built == [10, 30, 1000, 1000]


def test_sampling_one_mode_builds_no_table(monkeypatch):
    # sample_swsh evaluates its one profile: it neither builds nor reads a
    # mode table, and its bytes are those of the table's row
    tables._tables.clear()
    grid, mode = make_grid(24), SWMode(-1, 20, 3)
    climbed = sample_swsh(grid, mode).samples
    assert len(tables._tables) == 0
    row = mode_table(grid, -1)[3 + 24, 20]
    gets, real_get = [], tables._tables.get
    monkeypatch.setattr(tables._tables, "get", lambda key: gets.append(key) or real_get(key))
    warm = sample_swsh(grid, mode).samples
    monkeypatch.undo()
    assert gets == []
    assert warm.tobytes() == climbed.tobytes()
    assert warm.tobytes() == (row[:, None] * np.exp(3j * grid.phi)).tobytes()
    tables._tables.clear()


def test_a_band_sweep_builds_its_table_once_at_the_grid_band(monkeypatch):
    # every band reads a slice of the one table built at the grid's band,
    # so a rising and a falling sweep climb once each and agree byte for byte
    grid = make_grid(64)
    tops = []
    climb = tables._climb
    monkeypatch.setattr(tables, "_climb", lambda *args: tops.append(args[3]) or climb(*args))

    def sweep(bands):
        tables._tables.clear()
        tops.clear()
        out = [synthesize(coefficient_set(0, j, {(j, 0): 1.0}), grid).samples.tobytes() for j in bands]
        assert tops == [64]
        return out

    rising = sweep(range(1, 65))
    assert sweep(range(64, 0, -1))[::-1] == rising
    tables._tables.clear()


def test_mode_operands_refuses_a_band_above_the_grid_band_and_caches_nothing(monkeypatch):
    grid = make_grid(6)
    tables._tables.clear()
    climbs = []
    monkeypatch.setattr(tables, "_climb", lambda *args: climbs.append(args))
    with pytest.raises(BandLimitExceeded, match=r"^table band limit 7 outside \[0, 6\]$"):
        mode_operands(grid, 0, 7)
    assert climbs == [] and len(tables._tables) == 0


def test_a_grid_past_j_max_is_served_at_j_max_from_tables_built_there(rng, monkeypatch):
    # make_grid(J_MAX + 1) holds every table, and its functions' analysis, at
    # J_MAX: synthesize, analyze and apply_grid at J_MAX read them whole
    grid = make_grid(modes.J_MAX + 1)
    tops = []
    climb = tables._climb
    monkeypatch.setattr(tables, "_climb", lambda *args: tops.append(args[3]) or climb(*args))
    tables._tables.clear()
    c = coefficient_set(0, modes.J_MAX, random_entries(rng, 0, modes.J_MAX))
    f = synthesize(c, grid)
    a = analyze(f, band_limit=modes.J_MAX)
    assert a.band_limit == modes.J_MAX and np.abs(a.matrix - c.matrix).max() < 1e-10
    assert a.matrix is f._analysis
    g = apply_grid(OperatorSpec("Jplus", 0), f, band_limit=modes.J_MAX)
    want = synthesize(operators.apply_coeff(OperatorSpec("Jplus", 0), c), grid)
    assert np.abs(g.samples - want.samples).max() < 1e-8 * np.abs(want.samples).max()
    assert tops and set(tops) == {modes.J_MAX}
    assert tables.mode_operands(grid, 0, modes.J_MAX).table is tables._tables.get((grid.geometry_key, 0)).table
    tables._tables.clear()


def test_point_evaluation_keeps_no_per_mode_state():
    # every mode with j <= 12, all spin weights, at orders 0 and 2 (2925
    # modes): nothing in swsh.modes caches, and no table is built or kept
    assert not any(hasattr(f, "cache_info") for f in vars(modes).values())
    held = len(tables._tables)
    theta = np.array([0.5])
    for j in range(13):
        for s in range(-j, j + 1):
            for m in range(-j, j + 1):
                profile(s, j, m, theta)
                profile(s, j, m, theta, order=2)
    assert len(tables._tables) == held


def test_point_evaluation_working_memory_is_a_few_rows():
    # the climb holds rows j - 1 and j, never the (j + 1) x points table:
    # one that kept every row would hold 65 theta arrays per order
    theta = np.linspace(0.01, 3.13, 200_000)
    profile(-2, 64, 5, theta[:10], order=2)
    tracemalloc.start()
    try:
        profile(-2, 64, 5, theta, order=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * theta.nbytes
