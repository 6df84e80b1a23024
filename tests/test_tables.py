"""Mode tables and the reference Wigner-d: recurrence against Horner, orthonormality, caching."""

import tracemalloc

import numpy as np
import pytest

from swsh import (OperatorSpec, SWMode, analyze, apply_grid, apply_projected_orbital, coefficient_set,
                  embed, make_grid, modes, operators, profile, sample_swsh, synthesize, tables)
from swsh.grid import SphereGrid
from swsh.modes import _dtheta, _seeds
from swsh.tables import GridCache, contract_table, mode_coefficients, mode_table, spin_tables
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
    """d^order/dtheta^order p_{sjm}(theta_t) [m + L, j, t], as the operator tables take it:
    one climb of the spins s - order .. s + order, then order spin-raising steps."""
    spins = np.arange(s - order, s + order + 1)
    table = spin_tables(grid, spins, L)
    for _ in range(order):
        table = _dtheta(table, spins, np.arange(L + 1)[:, None])
        spins = spins[1:-1]
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
    low = mode_table(grid, -2, band_limit=5)  # built only to band 5
    full = mode_table(grid, -2)  # rebuilt to band 8
    assert low.shape == (11, 6, grid.n_theta)
    assert full.shape == (17, 9, grid.n_theta)
    assert np.array_equal(low, full[3:14, :6])


def test_radial_factors_skip_only_zero_bands(rng):
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
    (make_grid(5, n_phi=16), 1),
    (make_grid(3, n_phi=1025), -1),
    (make_grid(8), 1),
    (make_grid(8), -1),
    (make_grid(1), 1),
    (make_grid(24), -1),
]


@pytest.mark.parametrize("grid, shift", AZIMUTHAL_CASES)
def test_azimuthal_transforms_match_numpy_fft(rng, grid, shift):
    # the DFT matrix products against numpy.fft, the independent reference;
    # with shift +-1 at L = band the top frequency aliases when n_phi = 2L + 1
    L, n = grid.band_limit, grid.n_phi
    ms = np.arange(-L, L + 1)
    def draw(shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    samples = draw((n, grid.n_theta, 2))
    want = (np.fft.fft(samples, axis=0) * grid.phi_weight)[ms % n]
    got = tables.phi_analysis(grid, samples, L)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    radial = draw((2 * L + 1, grid.n_theta, 2))
    spec = np.zeros((grid.n_theta, 2, n), dtype=np.complex128)
    spec[..., (ms + shift) % n] = radial.transpose(1, 2, 0)
    want = np.fft.ifft(spec, axis=-1, norm="forward")
    got = tables.phi_synthesis(grid, radial, shift)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    # one matrix per n_phi, its rows the frequencies up to J_MAX + 1: O(n_phi)
    assert tables._dft_matrix(grid).shape == (2 * modes.J_MAX + 3, n)


@pytest.mark.parametrize("n_phi, L", [(25, 12), (25, 5), (16, 5), (16, 0), (129, 64), (1025, 3)])
def test_phi_analysis_is_the_weighted_reversed_dft_rows_bit_for_bit(rng, n_phi, L):
    # the cached analysis matrix's slice holds the bytes of the band's DFT
    # rows, reversed and weighted by dphi, so the GEMM gives the same bytes
    grid = make_grid(L, n_phi=n_phi)
    F = modes.J_MAX + 1
    samples = rng.normal(size=(n_phi, grid.n_theta, 2)) + 1j * rng.normal(size=(n_phi, grid.n_theta, 2))
    for band in (L, L // 2):
        w = tables._dft_matrix(grid)[F - band : F + band + 1][::-1] * grid.phi_weight
        want = (w @ samples.reshape(n_phi, -1)).reshape((2 * band + 1,) + samples.shape[1:])
        assert tables.phi_analysis(grid, samples, band).tobytes() == want.tobytes()
    assert tables._dft_analysis_matrix(grid) is tables._dft_analysis_matrix(make_grid(L, n_phi=n_phi))


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
    assert tops == [L, L]  # spin s for both transforms, then spins s - 1 .. s + 1 for J_+'s table
    assert tables._tables.get(("op", grid.geometry_key, s, "Jplus")).shape[-2] == L + 1
    m = np.arange(-L, L + 1)[:, None]
    want = np.einsum("mjt,mj,mp->tp", mode_table(grid, s), c.matrix, np.exp(1j * m * grid.phi))
    assert np.abs(f.samples - want).max() <= 1e-15 * np.abs(want).max()
    op_table = operators._operator_table(grid, s, "Jplus", L)
    want = np.einsum("mjt,mj,mp->tp", op_table, analysis_matrix(f), np.exp(1j * (m + 1) * grid.phi))
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
    held = {key[1]: table for key, table in tables._tables._items.items() if key[0] == grid.geometry_key}
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
    # sample_swsh evaluates its one profile unless a cached mode table
    # reaches its band, and both ways give the same bytes
    tables._tables.clear()
    grid, mode = make_grid(24), SWMode(-1, 20, 3)
    climbed = sample_swsh(grid, mode).samples
    assert len(tables._tables) == 0
    mode_table(grid, -1, 19)
    assert sample_swsh(grid, mode).samples.tobytes() == climbed.tobytes()
    mode_table(grid, -1, 20)

    def refuse(*args):
        raise AssertionError("climbed past a cached table")

    monkeypatch.setattr(modes, "_climb", refuse)
    monkeypatch.setattr(tables, "_climb", refuse)
    assert sample_swsh(grid, mode).samples.tobytes() == climbed.tobytes()
    tables._tables.clear()


def test_a_rising_band_sweep_rebuilds_its_table_a_few_times(monkeypatch):
    # a rebuild for a higher band at least doubles the entry's band, and a
    # row is the same whatever band its table climbed to
    grid = make_grid(64)
    tops = []
    climb = tables._climb
    monkeypatch.setattr(tables, "_climb", lambda *args: tops.append(args[3]) or climb(*args))

    def sweep(bands):
        tables._tables.clear()
        return [synthesize(coefficient_set(0, j, {(j, 0): 1.0}), grid).samples.tobytes()
                for j in bands]

    rising = sweep(range(1, 65))
    assert len(tops) <= 8 and tops[-1] == 64
    assert sweep(range(64, 0, -1))[::-1] == rising
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
    assert peak <= 32 * theta.nbytes
