"""Quadrature grids, sampled functions, frames, gauge, poles, CSV files."""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from swsh.bundle import apply_projected_spin, embed
from swsh.errors import (
    BandLimitExceeded,
    GridMismatch,
    NORTH,
    SOUTH,
    InsufficientNodes,
    SpinWeightMismatch,
)
from swsh.grid import (
    FrameField,
    GridFunction,
    SphereGrid,
    apply_gauge,
    frame_residual,
    gauge_rotate_frame,
    inner_product,
    make_grid,
    norm,
    pole_limit_extrapolate,
    read_grid_csv,
    sample_swsh,
    _coordinate_frame,
    standard_frame,
    write_grid_csv,
)
from swsh.modes import SWMode, eval_swsh_pole_limit, profile
from swsh.tables import _tables, mode_table

from conftest import random_entries


# ------------------------------------------------------------------ building

def test_minimal_grid_is_single_equator_node():
    g = make_grid(0)
    assert g.n_theta == 1 and g.n_phi == 1
    assert g.theta[0] == pytest.approx(math.pi / 2, abs=1e-15)
    assert g.theta_weights[0] == pytest.approx(2.0, abs=1e-15)


def test_default_sizes():
    g = make_grid(16)
    assert g.n_theta == 17 and g.n_phi == 33
    assert np.all(np.diff(g.theta) > 0)  # ascending colatitude
    assert 0.0 < g.theta[0] and g.theta[-1] < math.pi  # pole-free


def test_weights_sum_to_two():
    for L in (0, 3, 16, 40):
        assert make_grid(L).theta_weights.sum() == pytest.approx(2.0, abs=1e-14)


def test_sphere_area():
    g = make_grid(12)
    ones = GridFunction(g, 0, np.ones(g.shape, dtype=complex))
    assert inner_product(ones, ones) == pytest.approx(4 * math.pi, abs=1e-13)


def test_undersized_grids_rejected():
    with pytest.raises(InsufficientNodes):
        make_grid(4, n_theta=4)
    with pytest.raises(InsufficientNodes):
        make_grid(4, n_phi=8)


@pytest.mark.parametrize("n_theta, n_phi", [(0, 9), (-3, 9), (5, 0), (5, -1)])
def test_nonpositive_node_counts_rejected_by_name(n_theta, n_phi):
    # checked before the Gauss-Legendre rule, which would reject only n_theta
    with pytest.raises(InsufficientNodes, match=f"{n_theta} x {n_phi}"):
        make_grid(0, n_theta=n_theta, n_phi=n_phi)


def test_hand_built_grids_need_enough_nodes():
    # with n_phi = 7 < 2L + 1 at L = 6, analysis would alias the sampled
    # mode (s, j, m) = (0, 5, 5) onto (2, -2) without a word
    with pytest.raises(InsufficientNodes):
        SphereGrid(6, 7, 7)
    with pytest.raises(InsufficientNodes):
        SphereGrid(6, 6, 13)


def _legendre_rows(x, k_max):
    """P_0(x) .. P_k_max(x), one row each, by the three-term recurrence in x's own dtype."""
    rows = [np.ones_like(x), x]
    for k in range(1, k_max):
        rows.append(((2 * k + 1) * x * rows[k] - k * rows[k - 1]) / (k + 1))
    return rows[: k_max + 1]


def _refined_weights(theta):
    """Gauss-Legendre weights at the roots of P_n refined by Newton in longdouble from cos(theta)."""
    x, n = np.cos(theta).astype(np.longdouble), theta.size
    for _ in range(5):  # the last step moves x by far less than a double's ulp
        p_prev, p = _legendre_rows(x, n)[-2:]
        dp = n * (p_prev - x * p) / (1 - x * x)
        x = x - p / dp
    return 2 / ((1 - x * x) * dp * dp)


# n_theta -> bound on the worst relative weight error against the refined
# weights.  leggauss's own error, with numpy 2.4, is 0, 2.4e-16, 3.1e-15,
# 1.5e-14, 2.7e-13 and 1.4e-10 at these n; from n = 17 on each bound is
# below it, and under that both rules are at rounding.
WEIGHT_RTOL = {1: 2.3e-16, 2: 4.5e-16, 9: 1.3e-14, 17: 5e-15, 65: 5e-14, 257: 4e-12}


@pytest.mark.parametrize("L, n_theta, n_phi", [(0, 1, 1), (1, 2, 3), (16, 17, 33), (64, 65, 129),
                                               (5, 9, 16), (256, 257, 513)])
def test_grid_nodes_are_the_gauss_legendre_rule_times_uniform_azimuths(L, n_theta, n_phi):
    grid = SphereGrid(L, n_theta, n_phi)
    theta, w = grid.theta, grid.theta_weights
    # the northern half mirrored, bit for bit: theta -> pi - theta, the same weight
    half = n_theta // 2
    assert np.array_equal(theta[::-1][:half], np.pi - theta[:half]) and np.array_equal(w[::-1], w)
    if n_theta % 2:
        assert theta[half] == np.pi / 2
    # within 1 ulp of leggauss's cos(theta), carried to theta, plus the
    # rounding of arccos and of the mirror
    x, _ = np.polynomial.legendre.leggauss(n_theta)
    old = np.arccos(x)[::-1]
    assert (np.abs(theta - old) <= np.spacing(np.abs(x[::-1])) / np.sin(old) + 2 * np.spacing(old)).all()
    # exact for P_k, k <= 2n - 1: sum_t w_t P_k(x_t) = 2 delta_k0
    moments = np.array([np.dot(w, p) for p in _legendre_rows(np.cos(theta), 2 * n_theta - 1)])
    moments[0] -= 2.0
    assert np.abs(moments).max() <= 4e-15
    if np.finfo(np.longdouble).eps < np.finfo(np.float64).eps:
        want = _refined_weights(theta)
        assert np.abs((w - want) / want).max() <= WEIGHT_RTOL[n_theta]
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    assert grid.phi.tobytes() == phi.tobytes()
    for arr in (theta, w, grid.phi):
        assert arr.flags.c_contiguous and not arr.flags.writeable
    assert grid.shape == (n_theta, n_phi)


def test_a_grid_is_its_three_sizes():
    grid = SphereGrid(6, 7, 13)
    made = make_grid(6)
    assert grid == made and hash(grid) == hash(made)
    assert mode_table(grid, 0).base is mode_table(made, 0).base
    # checked by name, as make_grid is, before any node is built
    with pytest.raises(ValueError, match="band limit must be an integer, got 6.5"):
        SphereGrid(6.5, 8, 14)


def test_dropped_grids_leave_nothing_outside_the_table_cache():
    # a grid's projectors live in the byte-bounded table cache, keyed by
    # geometry, so grids dropped after use pin nothing else (5.4 MB of
    # P^(x)2 at L = 64 each, were they kept per grid)
    _tables.clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for L in range(2, 65):
            grid = make_grid(L)
            apply_projected_spin(embed(GridFunction(grid, -2, np.ones(grid.shape))))
        del grid
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held - _tables.nbytes <= 2**20


def test_grid_equality_is_structural():
    a = make_grid(6)
    b = SphereGrid(band_limit=6, n_theta=7, n_phi=13)
    assert a == b and a is not b
    assert a != SphereGrid(6, 8, 13) and a != SphereGrid(5, 7, 13)


def test_equal_grids_hash_alike():
    a, b = make_grid(6), make_grid(6)
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    seen = {a: "first"}
    seen[b] = "second"
    assert len(seen) == 1 and seen[make_grid(6)] == "second"
    assert make_grid(6, n_theta=9) not in seen


# ------------------------------------------------------------------ sampling

def test_constant_mode_samples():
    f = sample_swsh(make_grid(4), SWMode(0, 0, 0))
    assert np.allclose(f.samples, 1 / math.sqrt(4 * math.pi), atol=1e-16)
    assert f.spin_weight == 0


def test_band_limit_enforced():
    with pytest.raises(BandLimitExceeded):
        sample_swsh(make_grid(4), SWMode(-1, 5, 0))


def test_sampled_norm_against_adaptive_quadrature():
    # independent oracle: adaptive 1D integration of the profile
    mode = SWMode(-1, 2, 1)
    integral, err = quad(
        lambda t: profile(mode.s, mode.j, mode.m, t) ** 2 * math.sin(t), 0.0, math.pi
    )
    assert 2 * math.pi * integral == pytest.approx(1.0, abs=1e-10)
    assert err < 1e-10
    f = sample_swsh(make_grid(8), mode)
    assert norm(f) == pytest.approx(1.0, abs=1e-12)


def test_inner_product_orthonormality_pairs():
    g = make_grid(8)
    f22 = sample_swsh(g, SWMode(-1, 2, 2))
    f21 = sample_swsh(g, SWMode(-1, 2, 1))
    f33 = sample_swsh(g, SWMode(-1, 3, 3))
    assert inner_product(f22, f22) == pytest.approx(1.0, abs=1e-12)
    assert abs(inner_product(f21, f33)) < 1e-12


def test_inner_product_positive_definite(rng):
    g = make_grid(6)
    samples = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    f = GridFunction(g, -1, samples)
    ip = inner_product(f, f)
    assert ip.imag == pytest.approx(0.0, abs=1e-12)
    assert ip.real > 0


def test_inner_product_mismatches():
    f = sample_swsh(make_grid(4), SWMode(0, 1, 0))
    g = sample_swsh(make_grid(5), SWMode(0, 1, 0))
    h = sample_swsh(make_grid(4), SWMode(-1, 1, 0))
    with pytest.raises(GridMismatch):
        inner_product(f, g)
    with pytest.raises(SpinWeightMismatch):
        inner_product(f, h)


def test_grid_function_validation():
    g = make_grid(4)
    with pytest.raises(ValueError):
        GridFunction(g, 0, np.ones((2, 2), dtype=complex))


# --------------------------------------------------------------------- gauge

def test_gauge_spin0_invariant():
    f = sample_swsh(make_grid(4), SWMode(0, 2, 1))
    g = apply_gauge(f, np.full(f.grid.shape, 1.234))
    assert np.array_equal(g.samples, f.samples)


def test_gauge_constant_pi_negates_odd_spin():
    f = sample_swsh(make_grid(4), SWMode(-1, 2, 1))
    g = apply_gauge(f, np.full(f.grid.shape, math.pi))
    assert np.allclose(g.samples, -f.samples, atol=1e-15)


def test_gauge_phi_field():
    grid = make_grid(4)
    f = sample_swsh(grid, SWMode(2, 3, 1))
    xi = np.broadcast_to(grid.phi, grid.shape)
    g = apply_gauge(f, xi)
    assert np.allclose(g.samples, f.samples * np.exp(2j * xi), atol=1e-15)


def test_gauge_composition():
    grid = make_grid(5)
    f = sample_swsh(grid, SWMode(-2, 3, -1))
    xi1 = np.cos(grid.theta)[:, None] * np.ones(grid.n_phi)
    xi2 = np.sin(np.broadcast_to(grid.phi, grid.shape))
    once = apply_gauge(apply_gauge(f, xi1), xi2)
    joint = apply_gauge(f, xi1 + xi2)
    assert np.abs(once.samples - joint.samples).max() < 1e-14
    assert once.frame == joint.frame


# -------------------------------------------------------------------- frames

def test_standard_frame_orthonormal_everywhere():
    fr = standard_frame(make_grid(10))
    assert frame_residual(fr) < 1e-14


def _assert_frame_of(fr, grid):
    fresh = _coordinate_frame(grid)
    assert fr.grid is grid
    for name in ("a_vec", "b_vec", "k_hat"):
        arr = getattr(fr, name)
        assert np.array_equal(arr, getattr(fresh, name))
        assert not arr.flags.writeable


def test_standard_frame_is_built_once_per_grid():
    grid = make_grid(8)
    fr = standard_frame(grid)
    assert standard_frame(grid) is fr
    _assert_frame_of(fr, grid)
    with pytest.raises(ValueError):
        fr.k_hat[0, 0, 0] = 2.0


def test_standard_frames_are_never_shared_between_grids():
    # hand-built grids that die between calls: a recycled object id must
    # never hand one grid's frame to another
    L = 4
    for n_theta in (L + 1, L + 3, L + 2, L + 1):
        grid = SphereGrid(L, n_theta, 2 * L + 1)
        _assert_frame_of(standard_frame(grid), grid)
        del grid
        gc.collect()


def test_rotated_frame_stays_orthonormal():
    grid = make_grid(10)
    fr = standard_frame(grid)
    xi = 0.7 * np.cos(grid.theta)[:, None] + np.sin(grid.phi)[None, :]
    assert frame_residual(gauge_rotate_frame(fr, xi)) < 1e-14


def test_frame_field_shape_validation():
    grid = make_grid(4)
    fr = standard_frame(grid)
    with pytest.raises(ValueError):
        FrameField(grid, fr.a_vec[:1], fr.b_vec, fr.k_hat)


# --------------------------------------------------------------- pole limits

def test_pole_extrapolation_single_modes():
    g = make_grid(64)
    f = sample_swsh(g, SWMode(-1, 1, 1))
    c, resid = pole_limit_extrapolate(f, NORTH)
    assert c == pytest.approx(-math.sqrt(3 / (4 * math.pi)), abs=1e-8)
    assert resid < 1e-8


def test_pole_extrapolation_null_mode():
    # m != h: the limit vanishes; the phi spread stays O(theta_0) by design,
    # showing the mode approaches zero rather than a constant section value
    g = make_grid(64)
    f = sample_swsh(g, SWMode(-1, 2, 0))
    c, resid = pole_limit_extrapolate(f, NORTH)
    assert abs(c) < 1e-8
    assert resid < 0.1


def test_pole_extrapolation_linearity(rng):
    # superposition limit equals the sum of per-mode limits
    g = make_grid(128)
    modes = [SWMode(-1, 1, 1), SWMode(-1, 2, 1), SWMode(-1, 3, 1), SWMode(-1, 2, -1)]
    amps = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
    total = np.zeros(g.shape, dtype=complex)
    want_n = 0j
    want_s = 0j
    for a, mode in zip(amps, modes):
        total += a * sample_swsh(g, mode).samples
        want_n += a * eval_swsh_pole_limit(mode, NORTH)
        want_s += a * eval_swsh_pole_limit(mode, SOUTH)
    f = GridFunction(g, -1, total)
    got_n, res_n = pole_limit_extrapolate(f, NORTH)
    got_s, res_s = pole_limit_extrapolate(f, SOUTH)
    assert got_n == pytest.approx(want_n, abs=1e-8)
    assert got_s == pytest.approx(want_s, abs=1e-8)
    assert max(res_n, res_s) < 1e-8  # all phi content matches the pole phase


@pytest.mark.parametrize("name, pole", [("North", NORTH), (" SOUTH ", SOUTH), ("east", None)])
def test_both_pole_functions_read_a_pole_name_alike(name, pole):
    # the extrapolation and the exact limit read a pole name in any case and
    # with surrounding blanks, and refuse any other name with one message
    mode = SWMode(-1, 2, 1)
    f = sample_swsh(make_grid(8), mode)
    if pole is None:
        for call in (lambda: pole_limit_extrapolate(f, name), lambda: eval_swsh_pole_limit(mode, name)):
            with pytest.raises(ValueError, match="^pole must be 'north' or 'south', got 'east'$"):
                call()
    else:
        assert pole_limit_extrapolate(f, name) == pole_limit_extrapolate(f, pole)
        assert eval_swsh_pole_limit(mode, name) == eval_swsh_pole_limit(mode, pole)


def test_pole_extrapolation_needs_three_rings():
    g = make_grid(1, n_theta=2, n_phi=3)
    f = sample_swsh(g, SWMode(0, 1, 0))
    with pytest.raises(InsufficientNodes):
        pole_limit_extrapolate(f, NORTH)


def test_pole_extrapolation_flags_non_sections():
    # a spin-weight -1 pattern that is NOT smooth at the pole: constant 1
    g = make_grid(64)
    f = GridFunction(g, -1, np.ones(g.shape, dtype=complex))
    _, resid = pole_limit_extrapolate(f, NORTH)
    assert resid > 1e-3


# ----------------------------------------------------------------------- csv

def test_csv_round_trip(tmp_path, rng):
    g = make_grid(6)
    entries = random_entries(rng, -2, 6)
    samples = np.zeros(g.shape, dtype=complex)
    for (j, m), a in entries.items():
        samples += a * sample_swsh(g, SWMode(-2, j, m)).samples
    f = GridFunction(g, -2, samples)
    path = tmp_path / "f.csv"
    write_grid_csv(f, path)
    h = read_grid_csv(path)
    assert h.spin_weight == -2
    assert h.grid == g
    assert np.array_equal(h.samples, f.samples)  # 17 digits round-trip doubles


def test_csv_write_deterministic(tmp_path):
    f = sample_swsh(make_grid(3), SWMode(-1, 2, 1))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_grid_csv(f, p1)
    write_grid_csv(f, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("tag", ["my frame", "a\nb"])
def test_csv_write_refuses_a_frame_tag_with_whitespace(tmp_path, tag):
    # the header is split on whitespace when read back, so such a tag would
    # write a file read_grid_csv refuses; no file is created
    grid = make_grid(2)
    f = GridFunction(grid, 0, np.ones(grid.shape), frame=tag)
    p = tmp_path / "f.csv"
    with pytest.raises(ValueError, match="frame tag"):
        write_grid_csv(f, p)
    assert not p.exists()


def test_csv_round_trips_a_gauge_frame_tag(tmp_path):
    f = apply_gauge(sample_swsh(make_grid(2), SWMode(-1, 1, 0)), 0.3)
    p = tmp_path / "f.csv"
    write_grid_csv(f, p)
    assert read_grid_csv(p).frame == f.frame == "spherical+gauge"


def test_csv_rejects_malformed_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("# wrong header\n0.5,0.0,1.0,0.0\n")
    with pytest.raises(ValueError):
        read_grid_csv(p)


def test_csv_rejects_shuffled_rows(tmp_path):
    f = sample_swsh(make_grid(2), SWMode(0, 1, 0))
    p = tmp_path / "f.csv"
    write_grid_csv(f, p)
    lines = p.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        read_grid_csv(p)


def test_csv_rejects_wrong_row_count(tmp_path):
    f = sample_swsh(make_grid(2), SWMode(0, 1, 0))
    p = tmp_path / "f.csv"
    write_grid_csv(f, p)
    lines = p.read_text().splitlines()
    p.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError):
        read_grid_csv(p)


def _rewrite_thetas(path, change):
    lines = path.read_text().splitlines()
    for i in range(1, len(lines)):
        th, rest = lines[i].split(",", 1)
        lines[i] = f"{change(float(th))!r},{rest}"
    path.write_text("\n".join(lines) + "\n")


def test_csv_loads_nodes_off_by_an_ulp_onto_the_canonical_grid(tmp_path):
    # nodes written by another rule may differ in the last bits: here one
    # ulp up, and leggauss's, the rule of files written before gauss_legendre
    g = make_grid(6)
    f = sample_swsh(g, SWMode(-1, 3, 2))
    x, _ = np.polynomial.legendre.leggauss(g.n_theta)
    old = iter(np.repeat(np.arccos(x)[::-1], g.n_phi).tolist())
    for change in (lambda th: float(np.nextafter(th, 4.0)), lambda th: next(old)):
        p = tmp_path / "f.csv"
        write_grid_csv(f, p)
        _rewrite_thetas(p, change)
        h = read_grid_csv(p)
        assert h.grid == g
        assert np.array_equal(h.samples, f.samples)


def test_csv_rejects_nodes_off_the_grid(tmp_path):
    f = sample_swsh(make_grid(6), SWMode(-1, 3, 2))
    p = tmp_path / "f.csv"
    write_grid_csv(f, p)
    _rewrite_thetas(p, lambda th: th + 1e-6)
    with pytest.raises(ValueError):
        read_grid_csv(p)
