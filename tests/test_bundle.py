"""Embedded bundle sections: fiber embedding, the J = J_par + J_perp
split, the rotation generator they sum to, checked against a stencil over
rotated copies, and the nonstandard commutator table."""

import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from swsh import bundle, tables
from swsh.bundle import (
    EmbeddedSection,
    apply_J_rotation,
    apply_projected_orbital,
    apply_projected_spin,
    commutator_report,
    e_h_tensor,
    embed,
    extract,
    frame_m_vector,
    rank1_residual,
    section_add,
    section_norm,
    section_scale,
    transversality_residual,
)
from swsh.errors import DomainError, GridMismatch, UnsupportedHelicity
from swsh.grid import (
    GridFunction,
    SphereGrid,
    apply_gauge,
    gauge_rotate_frame,
    make_grid,
    norm,
    pole_limit_extrapolate,
    sample_swsh,
    standard_frame,
)
from swsh.modes import NORTH, SWMode
from swsh.operators import OperatorSpec, apply_coeff, ladder_coefficient, ladder_shift
from swsh.tables import (_tables, band_operands, contract_table, dft_rows, mode_coefficients, mode_table, pair_matmul,
                         phi_synthesis)
from swsh.transform import coefficient_set, synthesize

import horner_reference as horner
from conftest import random_entries
from rotation_reference import four_rotation_generator, rotate_coefficients

X_AXIS = (1.0, 0.0, 0.0)
Y_AXIS = (0.0, 1.0, 0.0)
Z_AXIS = (0.0, 0.0, 1.0)


def constant_field(grid, s, value=1.0):
    return GridFunction(grid, s, np.full(grid.shape, value, dtype=np.complex128))


def random_section(rng, grid, h, band):
    """Embedded section with scalar content band-limited to band <= L - |h|."""
    entries = random_entries(rng, -h, band)
    f = synthesize(coefficient_set(-h, band, entries), grid)
    return embed(f)


# ------------------------------------------------------------------ embedding

def test_embed_constant_is_unit_fiber():
    grid = make_grid(4)
    sec = embed(constant_field(grid, -1))
    fr = standard_frame(grid)
    want = (fr.a_vec + 1j * fr.b_vec) / math.sqrt(2.0)
    assert np.abs(sec.components - want).max() <= 1e-15
    assert transversality_residual(sec) <= 1e-15


def test_embed_positive_spin_uses_opposite_combination():
    grid = make_grid(4)
    sec = embed(constant_field(grid, +1))  # h = -1
    fr = standard_frame(grid)
    want = (fr.a_vec - 1j * fr.b_vec) / math.sqrt(2.0)
    assert sec.helicity == -1
    assert np.abs(sec.components - want).max() <= 1e-15


@pytest.mark.parametrize("h", [1, 2, -1, -2])
def test_extract_recovers_scalar(rng, h):
    grid = make_grid(8)
    f = synthesize(coefficient_set(-h, 6, random_entries(rng, -h, 6)), grid)
    g = extract(embed(f))
    assert g.spin_weight == f.spin_weight
    # the |h|=2 contraction sums nine products, so allow a few ulps
    assert np.abs(g.samples - f.samples).max() <= 4e-15


def test_embedded_sections_lie_in_the_fiber(rng):
    grid = make_grid(8)
    for h in (1, 2):
        sec = random_section(rng, grid, h, 5)
        assert transversality_residual(sec) <= 1e-12
        assert rank1_residual(sec) <= 1e-12


def test_radial_section_fails_both_residuals():
    grid = make_grid(4)
    fr = standard_frame(grid)
    sec = EmbeddedSection(grid, 1, fr.k_hat.astype(np.complex128))
    assert transversality_residual(sec) == pytest.approx(1.0, abs=1e-12)
    assert rank1_residual(sec) == pytest.approx(1.0, abs=1e-12)


def test_unsupported_helicity_rejected():
    grid = make_grid(4)
    with pytest.raises(UnsupportedHelicity):
        embed(constant_field(grid, 0))
    with pytest.raises(UnsupportedHelicity):
        embed(constant_field(grid, -3))
    with pytest.raises(UnsupportedHelicity):
        e_h_tensor(grid, 0)
    with pytest.raises(UnsupportedHelicity):
        EmbeddedSection(grid, 3, np.zeros(grid.shape + (3, 3, 3)))


def test_a_fractional_helicity_is_refused():
    # 1.5 names no helicity; it is not truncated to 1
    grid = make_grid(3)
    for h in (1.5, -2.5, float("nan")):
        with pytest.raises(ValueError, match="helicity must be an integer"):
            EmbeddedSection(grid, h, np.zeros(grid.shape + (3,)))
    assert EmbeddedSection(grid, 1.0, np.zeros(grid.shape + (3,))).helicity == 1


def test_section_shape_validated():
    grid = make_grid(4)
    with pytest.raises(GridMismatch):
        EmbeddedSection(grid, 1, np.zeros(grid.shape))
    with pytest.raises(GridMismatch):
        EmbeddedSection(grid, 2, np.zeros(grid.shape + (3,)))


def test_section_is_of_the_components_as_given(rng):
    # a section made from a view keeps its own components, so writing the
    # view's base afterwards changes neither them, their analysis nor the
    # generator, and the caller's array stays writable
    grid = make_grid(8)
    base = np.zeros((2,) + grid.shape + (3,), dtype=np.complex128)
    base[0] = random_section(rng, grid, 1, 4).components
    sec = EmbeddedSection(grid, 1, base[0])
    gen = apply_J_rotation(sec, X_AXIS).components
    base[0] = 1.0
    fresh = EmbeddedSection(grid, 1, sec.components.copy())
    assert not np.shares_memory(sec.components, base) and base.flags.writeable
    assert not sec.components.flags.writeable
    assert np.array_equal(sec.component_coefficients, fresh.component_coefficients)
    assert np.array_equal(apply_J_rotation(sec, X_AXIS).components, gen)
    assert np.array_equal(apply_J_rotation(fresh, X_AXIS).components, gen)


def test_component_coefficients_view_the_one_analysis(rng):
    # [m + L, j, slots...], read-only, sharing memory with the stored
    # analysis, and equal to analyzing each component alone
    grid = make_grid(7)
    for h in (1, 2):
        sec = random_section(rng, grid, h, 3)
        coeffs = sec.component_coefficients
        L = grid.band_limit
        assert coeffs.shape == (2 * L + 1, L + 1) + (3,) * h
        assert not coeffs.flags.writeable
        assert np.shares_memory(coeffs, sec._coefficients)
        for slot in np.ndindex((3,) * h):
            want = mode_coefficients(grid, 0, sec.components[(..., *slot)], L)
            assert np.abs(coeffs[(..., *slot)] - want).max() <= 1e-15 * np.abs(want).max()


def test_frame_m_vector_is_null_and_transverse():
    grid = make_grid(4)
    fr = standard_frame(grid)
    m = frame_m_vector(fr, +1)
    dot = lambda u, v: np.einsum("tpc,tpc->tp", u, v)
    assert np.abs(dot(np.conj(m), m) - 1.0).max() <= 1e-14
    assert np.abs(dot(m, m)).max() <= 1e-14
    assert np.abs(dot(fr.k_hat.astype(complex), m)).max() <= 1e-14
    two = e_h_tensor(grid, 2)
    want = m[..., :, None] * m[..., None, :]
    assert np.abs(two - want).max() == 0.0


def test_embedded_mode_is_smooth_at_the_pole():
    # The scalar (-1, 1, 1) diverges in phase at the north pole, but its
    # embedding does not: every ambient component extrapolates to a finite
    # directional limit, x and y to c_N/sqrt(2) and i*c_N/sqrt(2).
    grid = make_grid(64)
    sec = embed(sample_swsh(grid, SWMode(-1, 1, 1)))
    c_n = -math.sqrt(3.0 / (4.0 * math.pi))
    want = (c_n / math.sqrt(2.0), 1j * c_n / math.sqrt(2.0), 0.0)
    for axis in range(3):
        comp = GridFunction(grid, 0, sec.components[..., axis])
        limit, resid = pole_limit_extrapolate(comp, NORTH)
        assert np.isfinite(limit)
        assert abs(limit - want[axis]) <= 1e-12
        # z vanishes at the pole only in the ring mean; its spread stays
        # O(theta_0) because sin(theta) is not polynomial in 1 - cos(theta)
        assert resid <= (0.05 if axis == 2 else 1e-12)


# -------------------------------------------------------------- section algebra

def test_section_add_scale_norm(rng):
    grid = make_grid(6)
    f = synthesize(coefficient_set(-1, 4, random_entries(rng, -1, 4)), grid)
    sec = embed(f)
    # |e_h| = 1, so the section norm is the scalar quadrature norm.
    assert section_norm(sec) == pytest.approx(norm(f), abs=1e-13)
    doubled = section_add(sec, sec)
    assert np.abs(doubled.components - section_scale(2.0, sec).components).max() == 0.0
    assert section_norm(section_scale(-2j, sec)) == pytest.approx(
        2.0 * section_norm(sec), rel=1e-13
    )


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, complex(1.0, math.inf), complex(math.nan, 0.0)])
def test_section_scale_refuses_a_non_finite_scale(c):
    sec = embed(constant_field(make_grid(4), -1))
    with pytest.raises(DomainError, match="^section scale must be finite$"):
        section_scale(c, sec)


def test_section_add_mismatches_rejected():
    g1, g2 = make_grid(4), make_grid(5)
    a = embed(constant_field(g1, -1))
    with pytest.raises(GridMismatch):
        section_add(a, embed(constant_field(g2, -1)))
    with pytest.raises(UnsupportedHelicity):
        section_add(a, embed(constant_field(g1, -2)))


@pytest.mark.parametrize("h", [1, 2])
def test_embedding_is_gauge_covariant(rng, h):
    # Rotating the tangent frame and re-phasing the scalar leaves the
    # ambient section unchanged.
    grid = make_grid(8)
    f = synthesize(coefficient_set(-h, 5, random_entries(rng, -h, 5)), grid)
    xi = 0.7 * np.cos(grid.theta)[:, None] + 0.3 * np.sin(grid.phi)[None, :]
    plain = embed(f)
    rotated = embed(apply_gauge(f, xi), frame=gauge_rotate_frame(standard_frame(grid), xi))
    assert np.abs(rotated.components - plain.components).max() <= 1e-12


def test_warm_embed_puts_nothing_and_a_given_frame_reads_no_cache(rng, monkeypatch):
    # the standard frame's e_h is cached once per grid geometry and
    # helicity; a frame passed in is used as given, with no cache read
    grid = make_grid(7)
    frame = standard_frame(grid)
    for h in (1, -1, 2, -2):
        f = synthesize(coefficient_set(-h, 4, random_entries(rng, -h, 4)), grid)
        cold = embed(f)
        gets, puts = [], []
        real_get, real_put = _tables.get, _tables.put
        monkeypatch.setattr(_tables, "get", lambda key: gets.append(key) or real_get(key))
        monkeypatch.setattr(_tables, "put", lambda key, value: puts.append(key) or real_put(key, value))
        warm = embed(f)
        back = extract(warm)
        assert puts == [] and gets == [("fiber", grid.geometry_key, h)] * 2
        gets.clear()
        given = embed(f, frame)
        framed = (extract(given, frame), rank1_residual(given, frame))
        monkeypatch.undo()
        assert gets == [] and puts == []
        assert framed[0].samples.tobytes() == back.samples.tobytes()
        assert framed[1] == rank1_residual(warm)
        assert warm.components.tobytes() == cold.components.tobytes() == given.components.tobytes()
        # the public tensor is a fresh, writable array each call
        fresh = e_h_tensor(grid, h)
        assert fresh.flags.writeable and fresh is not e_h_tensor(grid, h)
        assert fresh.tobytes() == bundle._fiber(grid, h, None).tobytes()


# ------------------------------------------------------------- projected spin

def test_projected_spin_z_on_constant_section():
    grid = make_grid(6)
    sec = embed(constant_field(grid, -1))
    out = apply_projected_spin(sec)
    ct = np.cos(grid.theta)[:, None, None]
    assert np.abs(out.z.components - ct * sec.components).max() <= 1e-14


@pytest.mark.parametrize("h", [1, 2])
def test_projected_spin_is_the_helicity_action(rng, h):
    # J_par on a fiber section multiplies it by h * k_a, pointwise.
    grid = make_grid(8)
    sec = random_section(rng, grid, h, 5)
    out = apply_projected_spin(sec)
    k = standard_frame(grid).k_hat
    for a in range(3):
        want = h * k[(..., a, *((None,) * h))] * sec.components
        assert np.abs(out[a].components - want).max() <= 1e-10


def test_projected_spin_is_a_point_operator(rng):
    grid = make_grid(6)
    f1 = synthesize(coefficient_set(-1, 4, random_entries(rng, -1, 4)), grid)
    f2 = synthesize(coefficient_set(-1, 4, random_entries(rng, -1, 4)), grid)
    a = embed(f1)
    comps = np.array(embed(f2).components)
    comps[2, 3] = a.components[2, 3]  # agree at exactly one node
    b = EmbeddedSection(grid, 1, comps)
    out_a = apply_projected_spin(a)
    out_b = apply_projected_spin(b)
    for axis in range(3):
        diff = out_a[axis].components[2, 3] - out_b[axis].components[2, 3]
        assert np.abs(diff).max() <= 1e-12


def test_projected_spin_product_rule(rng):
    # On a factorizable rank-2 section the spin action is the sum of the
    # per-slot actions.
    grid = make_grid(8)
    g1 = synthesize(coefficient_set(-1, 4, random_entries(rng, -1, 4)), grid)
    g2 = synthesize(coefficient_set(-1, 4, random_entries(rng, -1, 4)), grid)
    u, v = embed(g1), embed(g2)
    outer = lambda p, q: p[..., :, None] * q[..., None, :]
    w = EmbeddedSection(grid, 2, outer(u.components, v.components))
    su = apply_projected_spin(u)
    sv = apply_projected_spin(v)
    sw = apply_projected_spin(w)
    for a in range(3):
        want = outer(su[a].components, v.components) + outer(
            u.components, sv[a].components
        )
        assert np.abs(sw[a].components - want).max() <= 1e-10


# ---------------------------------------------------------- projected orbital

_BENCHMARK_BAND = {1: 5, 2: 2}  # the bundle-lemma benchmark's band for each |h|


@pytest.mark.parametrize("band", ["benchmark", 8, 20])
@pytest.mark.parametrize("h", [1, -1, 2, -2])
def test_bundle_operators_on_a_fiber_section_have_their_closed_forms(rng, h, band):
    # On f e_h, f of spin weight s = -h, with J^(s)_a the spin-weighted
    # generator (J_x = (J_+ + J_-)/2, J_y = (J_+ - J_-)/2i, J_z = m):
    #   J_perp,a (f e_h) = ((J^(s)_a - h k_a) f) e_h
    #   J_par,a (f e_h) = h k_a f e_h
    #   J_a (f e_h) = (J^(s)_a f) e_h
    # The one check of J_perp on its own: J^(s)_a comes from apply_coeff
    # alone, not from the spin-0 analysis of the ambient components.
    band = _BENCHMARK_BAND[abs(h)] if band == "benchmark" else band
    s = -h
    grid = make_grid(band + abs(h) + 4)
    c = coefficient_set(s, band, {(j, m): complex(rng.normal(), rng.normal())
                                  for j in range(abs(s), band + 1) for m in range(-j, j + 1)})
    f = synthesize(c, grid).samples
    plus, minus, jz = (synthesize(apply_coeff(OperatorSpec(kind, s), c), grid).samples
                       for kind in ("Jplus", "Jminus", "Jz"))
    j_s = (0.5 * (plus + minus), -0.5j * (plus - minus), jz)
    e = e_h_tensor(grid, h)
    extra = (None,) * abs(h)
    k = standard_frame(grid).k_hat
    sec = EmbeddedSection(grid, h, f[(..., *extra)] * e)
    perp, par = apply_projected_orbital(sec), apply_projected_spin(sec)
    for a, axis in enumerate((X_AXIS, Y_AXIS, Z_AXIS)):
        helicity_part = h * k[..., a] * f
        for got, want in ((perp[a], j_s[a] - helicity_part), (par[a], helicity_part),
                          (apply_J_rotation(sec, axis), j_s[a])):
            want = want[(..., *extra)] * e
            assert np.abs(got.components - want).max() <= 1e-12 * np.abs(want).max()


def test_projected_orbital_transverse_on_embedded_sections(rng):
    grid = make_grid(8)
    for h in (1, 2):
        out = apply_projected_orbital(random_section(rng, grid, h, 5))
        for a in range(3):
            assert transversality_residual(out[a]) <= 1e-10


# ------------------------------------------------- all three axes in one pass

_EPS = np.zeros((3, 3, 3))
for _a, _b, _c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS[_a, _b, _c], _EPS[_a, _c, _b] = 1.0, -1.0


def _project_per_slot(v, k, rank):
    """I - k k^T applied slot by slot, by contraction with k."""
    if rank == 1:
        return v - k * np.einsum("tpc,tpc->tp", v, k)[..., None]
    v = v - k[..., :, None] * np.einsum("tpcd,tpc->tpd", v, k)[..., None, :]
    return v - k[..., None, :] * np.einsum("tpcd,tpd->tpc", v, k)[..., :, None]


def _spin_per_axis(section, frame):
    """J_par axis by axis: (S_a v)_b = -i eps_abc v_c on every slot, then projected."""
    v, rank = section.components, section.rank
    out = []
    for a in range(3):
        s_mat = -1j * _EPS[a]
        if rank == 1:
            raw = np.einsum("bc,tpc->tpb", s_mat, v)
        else:
            raw = np.einsum("bc,tpcd->tpbd", s_mat, v) + np.einsum("bc,tpdc->tpdb", s_mat, v)
        out.append(_project_per_slot(raw, frame.k_hat, rank))
    return out


def _horner_dtheta_table(grid):
    """d/dtheta p_{0jm}(theta_t) [m + L, j, t] by the Horner reference, L the grid's band, zero for |m| > j."""
    L = grid.band_limit
    table = np.zeros((2 * L + 1, L + 1, grid.n_theta))
    for j in range(L + 1):
        for m in range(-j, j + 1):
            table[m + L, j] = horner.profile(0, j, m, grid.theta, order=1)
    return table


def _orbital_per_axis(section, frame):
    """J_perp axis by axis: -i (e_phi,a d/dtheta - e_theta,a (1/sin) d/dphi), then projected.

    Both derivatives are synthesized from the section's coefficients, d/dtheta
    by the Horner reference's profile derivatives.
    """
    grid, rank = section.grid, section.rank
    coeffs = section.component_coefficients
    m = np.arange(-grid.band_limit, grid.band_limit + 1).reshape((-1,) + (1,) * (rank + 1))
    rows = dft_rows(grid, grid.band_limit)
    d_theta = phi_synthesis(rows, contract_table(_horner_dtheta_table(grid), coeffs))
    d_phi = phi_synthesis(rows, 1j * m * contract_table(mode_table(grid, 0), coeffs))
    d_theta, d_phi = np.moveaxis(d_theta, -1, 1), np.moveaxis(d_phi, -1, 1)
    extra = (None,) * rank
    dphi_over_sin = d_phi * (1.0 / np.sin(grid.theta))[(..., None, *extra)]
    out = []
    for a in range(3):
        raw = -1j * (
            frame.b_vec[(..., a, *extra)] * d_theta - frame.a_vec[(..., a, *extra)] * dphi_over_sin
        )
        out.append(_project_per_slot(raw, frame.k_hat, rank))
    return out


def _assert_axes_match(result, want):
    for a in range(3):
        got = result[a].components
        assert np.abs(got - want[a]).max() <= 1e-14 * np.abs(want[a]).max()
        with pytest.raises(ValueError):
            got[0, 0] = 0.0


@pytest.mark.parametrize("h", [1, 2, -1, -2])
def test_batched_axes_match_the_per_axis_formulas(rng, h):
    # random components, not transverse and not in the fiber
    grid = make_grid(9)
    frame = standard_frame(grid)
    shape = grid.shape + (3,) * abs(h)
    comps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for sec in (EmbeddedSection(grid, h, comps), random_section(rng, grid, abs(h), 4)):
        _assert_axes_match(apply_projected_spin(sec), _spin_per_axis(sec, frame))
        _assert_axes_match(apply_projected_orbital(sec), _orbital_per_axis(sec, frame))


def _per_node_spin_generators(rank):
    """E[b * 3 + a, c] = (E_a)_{bc}: the operand of the per-node spin product, built as it was."""
    eps = _EPS
    if rank == 2:  # eps_a (x) I + I (x) eps_a
        eye = np.eye(3)
        eps = eps[:, :, None, :, None] * eye[:, None, :] + eye[:, None, :, None] * eps[:, None, :, None, :]
        eps = eps.reshape(3, 9, 9)
    return np.ascontiguousarray(eps.transpose(1, 0, 2).reshape(3 ** (rank + 1), 3**rank))


def _per_node_spin(section):
    """J_par by per-node products: E v broadcast over the nodes, then P, then -i on a transposing copy."""
    rank, shape = section.rank, section.grid.shape
    v = section.components.reshape(shape + (3**rank, 1))
    spun = pair_matmul(_per_node_spin_generators(rank), v).reshape(shape + (3**rank, 3))
    parts = pair_matmul(bundle._projector(section.grid, rank), spun)
    return np.multiply(parts.transpose(3, 0, 1, 2), -1j, order="C")


def _per_node_orbital(section):
    """J_perp by per-node products: the frame combined over a trailing size-3 axis, then -i on a transposing copy."""
    grid, rank = section.grid, section.rank
    a = section._coefficients
    L = a.shape[1] - 1
    ops = band_operands(("orbital", grid.geometry_key), grid, L, bundle._orbital_entry)
    radial = contract_table(ops.table, a)
    radial[0] *= 1j
    derivs = phi_synthesis(ops.synthesis, radial.swapaxes(0, 1)).transpose(1, 3, 2, 0)
    proj = pair_matmul(bundle._projector(grid, rank), derivs)
    frame = standard_frame(grid)
    parts = proj[..., 1:] * frame.b_vec[..., None, :] - proj[..., :1] * frame.a_vec[..., None, :]
    return np.multiply(parts.transpose(3, 0, 1, 2), -1j, order="C")


def _per_node_rotation_generators(section):
    """The x, y, z generators [3, t, p, D] with the spin term one GEMM per m, as real pairs [3, -1]."""
    a = section._coefficients
    L = a.shape[1] - 1
    up, down = ladder_shift(a, +1), ladder_shift(a, -1)
    coeffs = (a @ (-1j * _per_node_spin_generators(section.rank).T)).reshape(a.shape + (3,))
    coeffs[..., 0] += 0.5 * (up + down)
    coeffs[..., 1] += 0.5j * (down - up)
    coeffs[..., 2] += np.arange(-L, L + 1)[:, None, None] * a
    samples = phi_synthesis(dft_rows(section.grid, L), contract_table(mode_table(section.grid, 0), coeffs))
    return np.ascontiguousarray(samples.transpose(2, 0, 3, 1)).reshape(3, -1).view(np.float64)


@pytest.mark.parametrize("h", [1, -1, 2, -2])
def test_node_wide_products_match_the_per_node_products_bit_for_bit(rng, h):
    # one GEMM over every node (spin matrices, spin term) and axes formed
    # in place give the bytes of the per-node and transposing forms
    grid = make_grid(9)
    shape = grid.shape + (3,) * abs(h)
    fiber = random_section(rng, grid, h, 4)
    ambient = EmbeddedSection(grid, h, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    for sec in (fiber, ambient):
        want = _per_node_spin(sec)
        assert all(part.components.tobytes() == w.tobytes() for part, w in zip(apply_projected_spin(sec), want))
        want = _per_node_orbital(sec)
        assert all(part.components.tobytes() == w.tobytes() for part, w in zip(apply_projected_orbital(sec), want))
        gens = _per_node_rotation_generators(sec)
        assert sec._rotation_generators.tobytes() == gens.tobytes()
        for axis in (X_AXIS, Y_AXIS, Z_AXIS, (1 / 3, 2 / 3, 2 / 3)):
            u = np.asarray(axis)
            want = ((u / float(np.linalg.norm(u))) @ gens).view(np.complex128)
            assert apply_J_rotation(sec, axis).components.tobytes() == want.tobytes()


def test_repeat_operator_calls_rebuild_nothing(rng, monkeypatch):
    # the operators need no table but the grid's mode table, J_perp's table
    # and its projector, and after one warm call they find these already
    # built; a section synthesizes its rotation generators once, for every
    # axis, and keeps them
    grid = make_grid(11)
    axes = (X_AXIS, (0.6, 0.0, 0.8), Z_AXIS)
    real_put, real_synthesis = _tables.put, bundle.phi_synthesis
    for h in (1, 2):
        warm = random_section(rng, grid, h, 4)
        puts = []
        monkeypatch.setattr(_tables, "put", lambda key, value: puts.append(key) or real_put(key, value))
        apply_projected_spin(warm)
        apply_projected_orbital(warm)
        apply_J_rotation(warm, axes[1])
        key = grid.geometry_key
        assert set(puts) <= {(key, 0), ("orbital", key), ("projector", key, h)}
        projector = bundle._projector(grid, h)
        sec = random_section(rng, grid, h, 4)
        puts.clear()
        synths = []
        counted = lambda *a, **k: synths.append(1) or real_synthesis(*a, **k)  # noqa: E731
        # J_perp's synthesis in bundle.py, the generators' by tables.mode_synthesis
        monkeypatch.setattr(bundle, "phi_synthesis", counted)
        monkeypatch.setattr(tables, "phi_synthesis", counted)
        apply_projected_spin(sec)
        apply_projected_orbital(sec)
        gens = [apply_J_rotation(sec, axis) for axis in axes + axes]
        monkeypatch.undo()
        assert puts == []
        assert len(synths) == 2  # J_perp's and the three generators'
        assert all(np.array_equal(g.components, again.components) for g, again in zip(gens, gens[3:]))
        assert bundle._projector(grid, h) is projector
    # J_perp's synthesis applies the rows its own entry holds, at the grid's band
    assert _tables.get(("orbital", key)).synthesis.tobytes() == dft_rows(grid, grid.band_limit).tobytes()


@pytest.mark.parametrize("h", [1, -1, 2, -2])
def test_section_operators_refuse_non_finite_components(rng, h):
    # J_perp and the rotation generator analyze the components, so one NaN
    # or infinite component is refused, not spread over the result as NaN
    grid = make_grid(6)
    for bad in (float("nan"), float("inf")):
        comps = np.array(random_section(rng, grid, h, 2).components)
        comps[(2, 3) + (1,) * abs(h)] = bad
        for apply in (apply_projected_orbital, lambda sec: apply_J_rotation(sec, Y_AXIS)):
            with pytest.raises(ValueError, match="^cannot analyze a section with non-finite components$"):
                apply(EmbeddedSection(grid, h, comps))


def test_transverse_projector_is_the_slotwise_projector():
    grid = make_grid(5)
    k = standard_frame(grid).k_hat
    p1, p2 = bundle._projector(grid, 1), bundle._projector(grid, 2)
    assert not p1.flags.writeable and not p2.flags.writeable
    assert np.abs(p1 - (np.eye(3) - k[..., :, None] * k[..., None, :])).max() == 0.0
    for t, p in ((0, 0), (2, 7), (5, 10)):
        assert np.abs(p2[t, p] - np.kron(p1[t, p], p1[t, p])).max() <= 1e-16
    assert np.abs(np.einsum("tpij,tpj->tpi", p1, k)).max() <= 1e-15


def test_equal_grids_share_one_projector():
    # a function of the grid's nodes, cached by geometry, not by grid object
    assert bundle._projector(make_grid(8), 2) is bundle._projector(make_grid(8), 2)


# ---------------------------------------------------------- rotation generator

@pytest.mark.parametrize(
    "s, j, m",
    [(-1, 1, 1), (-1, 3, -2), (-2, 2, 1)],
)
def test_rotation_about_z_has_eigenvalue_m(s, j, m):
    grid = make_grid(6)
    sec = embed(sample_swsh(grid, SWMode(s, j, m)))
    gen = apply_J_rotation(sec, Z_AXIS)
    assert np.abs(gen.components - m * sec.components).max() <= 1e-6


def test_rotation_of_zero_section_is_zero():
    grid = make_grid(4)
    sec = EmbeddedSection(grid, 1, np.zeros(grid.shape + (3,), dtype=complex))
    gen = apply_J_rotation(sec, Z_AXIS)
    assert np.abs(gen.components).max() == 0.0


def test_rotation_ladder_raises_m():
    grid = make_grid(6)
    j, m = 2, 1
    sec = embed(sample_swsh(grid, SWMode(-1, j, m)))
    jx = apply_J_rotation(sec, X_AXIS)
    jy = apply_J_rotation(sec, Y_AXIS)
    raised = jx.components + 1j * jy.components
    coeff = ladder_coefficient(j, m, +1)
    want = coeff * embed(sample_swsh(grid, SWMode(-1, j, m + 1))).components
    assert np.abs(raised - want).max() <= 1e-5


def _rotated_modes(grid, labels, axis, angle):
    """Samples of f(R^-1 k), R = R(axis, angle), for each basis mode f = Y_jm in labels.

    The coefficients turn by the Euler-angle Wigner matrices of the rotation.
    """
    L = grid.band_limit
    coeffs = np.zeros((2 * L + 1, L + 1, len(labels)), dtype=np.complex128)
    for i, (j, m) in enumerate(labels):
        coeffs[m + L, j, i] = 1.0
    turned = rotate_coefficients(coeffs, axis, angle)
    return np.moveaxis(phi_synthesis(dft_rows(grid, L), contract_table(mode_table(grid, 0), turned)), 1, 0)


def _check_rotation_about_z(grid, angle):
    # about z the pulled-back node (theta, phi) is (theta, phi - angle),
    # so the rotated (j, m) = (1, 1) mode is Y_11 exp(-i angle)
    got = _rotated_modes(grid, [(1, 1)], Z_AXIS, angle)[0]
    want = sample_swsh(grid, SWMode(0, 1, 1)).samples * np.exp(-1j * angle)
    assert np.abs(got - want).max() <= 1e-13


def test_rotation_tables_are_keyed_by_grid_geometry():
    L = 4
    for grid in (make_grid(L), make_grid(L, n_theta=L + 3)):
        _check_rotation_about_z(grid, 0.25)
    # hand-built grids that die between calls: a recycled object id must
    # never hand one grid's tables to another
    for n_theta in (L + 1, L + 3, L + 2, L + 1):
        grid = SphereGrid(L, n_theta, 2 * L + 1)
        _check_rotation_about_z(grid, 0.5)
        del grid


@pytest.mark.parametrize("axis", [X_AXIS, Y_AXIS, Z_AXIS, (1 / 3, 2 / 3, 2 / 3)])
def test_resample_columns_are_the_horner_harmonics(axis):
    # every column of the resampling, a basis mode turned by Wigner matrices
    # in coefficient space and synthesized, against the Horner-evaluated
    # harmonic at the node directions rotated by -angle; at L = 32 the
    # modes of a few j stand for all
    for L in (10, 32):
        grid = make_grid(L)
        js = range(L + 1) if L <= 10 else (0, 1, 2, L // 2, L - 1, L)
        labels = [(j, m) for j in js for m in range(-j, j + 1)]
        th, ph = np.meshgrid(grid.theta, grid.phi, indexing="ij")
        nodes = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1)
        for angle in (1e-4, -2e-4, 0.7):
            got = _rotated_modes(grid, labels, axis, angle)
            pulled = Rotation.from_rotvec(-angle * np.array(axis)).apply(nodes.reshape(-1, 3))
            # arctan2 keeps the colatitude accurate next to the poles, where arccos is not
            tp = np.arctan2(np.hypot(pulled[:, 0], pulled[:, 1]), pulled[:, 2]).reshape(grid.shape)
            pp = np.arctan2(pulled[:, 1], pulled[:, 0]).reshape(grid.shape)
            for (j, m), rotated in zip(labels, got):
                assert np.abs(rotated - horner.eval_swsh(0, j, m, tp, pp)).max() <= 1e-13


def test_rotation_axis_must_be_unit():
    # refused before anything is cached, also on a second try
    grid = make_grid(4)
    sec = embed(constant_field(grid, -1))
    bad = ((0.0, 0.0, 2.0), (float("nan"), 0.0, 1.0), (0.0, float("inf"), 0.0), (1.0, 0.0),
           (0.0, 0.0, 1.0, 0.0), ((0.0, 0.0, 1.0),))
    held = len(_tables)
    for axis in bad:
        for _ in range(2):
            with pytest.raises(ValueError, match="axis"):
                apply_J_rotation(sec, axis)
    assert len(_tables) == held
    assert "_rotation_generators" not in vars(sec)


@pytest.mark.parametrize("h", [1, 2])
def test_split_sums_to_the_rotation_generator(rng, h):
    # J_par + J_perp against the rotation generator, axis by axis.
    band = 4
    grid = make_grid(band + h + 4)
    axes = (X_AXIS, Y_AXIS, Z_AXIS)
    for _ in range(2):
        sec = random_section(rng, grid, h, band)
        sec = section_scale(1.0 / section_norm(sec), sec)
        spin = apply_projected_spin(sec)
        orb = apply_projected_orbital(sec)
        for a, axis in enumerate(axes):
            gen = apply_J_rotation(sec, axis)
            d = spin[a].components + orb[a].components - gen.components
            assert np.abs(d).max() <= 1e-5


@pytest.mark.parametrize("h", [1, 2])
@pytest.mark.parametrize("L", [10, 32])
def test_conjugated_generator_matches_four_rotations(rng, L, h):
    grid = make_grid(L)
    sec = random_section(rng, grid, h, L - h - 4)
    for axis in (X_AXIS, Y_AXIS, Z_AXIS, (0.0, 0.0, -1.0), (0.6, 0.0, 0.8), (1 / 3, 2 / 3, 2 / 3)):
        want = four_rotation_generator(sec, np.array(axis))
        got = apply_J_rotation(sec, axis).components
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()


@pytest.mark.parametrize("h", [1, 2])
def test_operators_on_grids_with_extra_nodes(rng, h):
    # more colatitudes and azimuths than the band needs: the slots-last
    # analysis and synthesis must pick the right azimuthal frequencies
    L = 9
    grid = make_grid(L, n_theta=L + 3, n_phi=2 * L + 5)
    sec = random_section(rng, grid, h, L - h - 3)
    for axis in (X_AXIS, Y_AXIS, (0.6, 0.0, 0.8), (1 / 3, 2 / 3, 2 / 3)):
        want = four_rotation_generator(sec, np.array(axis))
        got = apply_J_rotation(sec, axis).components
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()
    frame = standard_frame(grid)
    _assert_axes_match(apply_projected_orbital(sec), _orbital_per_axis(sec, frame))


@pytest.mark.parametrize("h", [1, 2])
def test_axis_kernels_are_never_mixed_up(rng, h):
    # one section's cached generators serve every axis: x, -x, y, a general
    # axis and x again, each as a fresh copy of the section gives it alone
    # and as the four-rotation stencil gives it
    grid = make_grid(10)
    sec = random_section(rng, grid, h, 5)
    axes = (X_AXIS, (-1.0, 0.0, 0.0), Y_AXIS, (1 / 3, 2 / 3, 2 / 3), X_AXIS)
    got = [apply_J_rotation(sec, axis).components for axis in axes]
    for axis, gen in zip(axes, got):
        fresh = EmbeddedSection(grid, h, sec.components)
        assert np.array_equal(gen, apply_J_rotation(fresh, axis).components)
        want = four_rotation_generator(sec, np.array(axis))
        assert np.abs(gen - want).max() <= 1e-11 * np.abs(want).max()
    assert np.array_equal(got[0], got[4])
    assert np.array_equal(got[1], -got[0])


@pytest.mark.parametrize("h, band", [(1, 5), (2, 2), (2, 58)])
def test_lemma_residual_at_small_bands(rng, h, band):
    # the generator is exact, so the lemma holds to rounding, far below the
    # 1e-5 gate, up to the band 58 that |h| = 2 reaches at j = 64
    grid = make_grid(band + h + 4)
    for _ in range(5):
        sec = random_section(rng, grid, h, band)
        sec = section_scale(1.0 / section_norm(sec), sec)
        spin = apply_projected_spin(sec)
        orb = apply_projected_orbital(sec)
        for a, axis in enumerate((X_AXIS, Y_AXIS, Z_AXIS)):
            gen = apply_J_rotation(sec, axis)
            d = spin[a].components + orb[a].components - gen.components
            assert np.abs(d).max() <= 1e-12


@pytest.mark.parametrize("h, band", [(1, 5), (2, 8)])
def test_rotation_generators_close_on_su2(rng, h, band):
    # [J_a, J_b] = i eps_abc J_c on unit sections, to rounding
    grid = make_grid(band + h + 4)
    axes = (X_AXIS, Y_AXIS, Z_AXIS)
    for _ in range(3):
        sec = random_section(rng, grid, h, band)
        sec = section_scale(1.0 / section_norm(sec), sec)
        gen = [apply_J_rotation(sec, axis) for axis in axes]
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            comm = apply_J_rotation(gen[b], axes[a]).components - apply_J_rotation(gen[a], axes[b]).components
            assert np.abs(comm - 1j * gen[c].components).max() <= 1e-12


# ----------------------------------------------------------------- commutators

def test_commutator_report_contract(rng):
    # Ten random unit sections at scalar band 8: the three nonstandard
    # identities hold, and the would-be SO(3) relations fail by a margin.
    band = 8
    grid = make_grid(band + 1 + 4)
    sections = []
    for _ in range(10):
        sec = random_section(rng, grid, 1, band)
        sections.append(section_scale(1.0 / section_norm(sec), sec))
    report = commutator_report(1, sections, floor=0.1)
    assert report["h"] == 1
    assert report["n_sections"] == 10
    for key in ("par_par", "perp_par", "perp_perp"):
        assert report["identity_residuals"][key] <= 1e-5
    assert report["defects"]["par"] >= 0.1
    assert report["defects"]["perp"] >= 0.1
    assert report["defects_exceed_floor"] is True


def test_commutator_report_zero_section():
    grid = make_grid(4)
    zero = EmbeddedSection(grid, 1, np.zeros(grid.shape + (3,), dtype=complex))
    report = commutator_report(1, [zero])
    assert report["n_sections"] == 1
    assert all(v == 0.0 for v in report["identity_residuals"].values())
    assert all(v == 0.0 for v in report["defects"].values())
    assert report["defects_exceed_floor"] is False


def test_commutator_report_validation():
    grid = make_grid(4)
    with pytest.raises(UnsupportedHelicity):
        commutator_report(3, [])
    sec = embed(constant_field(grid, -2))
    with pytest.raises(UnsupportedHelicity):
        commutator_report(1, [sec])
    for floor in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="floor"):
            commutator_report(1, [], floor=floor)
