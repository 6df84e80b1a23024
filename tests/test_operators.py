"""Angular momentum operators: exact coefficient action, grid-space
differential action, and the cross-validation between the two."""

import math

import numpy as np
import pytest

from swsh import operators, tables, transform
from swsh.errors import SpinWeightMismatch
from swsh.grid import GridFunction, make_grid, sample_swsh
from swsh.modes import SWMode, _dtheta
from swsh.operators import (
    KINDS,
    OperatorSpec,
    apply_coeff,
    apply_grid,
    ladder_coefficient,
    verify_casimir_identity,
)
from swsh.tables import _tables, contract_table, dft_rows, mode_operands, phi_synthesis, spin_tables
from swsh.transform import analysis_matrix, analyze, coefficient_set, synthesize

from conftest import random_entries


# ------------------------------------------------------------ operator specs

def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        OperatorSpec("Jx", 0)
    for kind in KINDS:
        OperatorSpec(kind, -1)


def test_spin_weight_mismatch():
    c = coefficient_set(-1, 4, {(2, 1): 1.0})
    with pytest.raises(SpinWeightMismatch):
        apply_coeff(OperatorSpec("Jz", 0), c)


# -------------------------------------------------------- coefficient action

def test_ladder_coefficient_values():
    assert ladder_coefficient(1, 1, +1) == 0.0  # top of multiplet
    assert ladder_coefficient(1, -1, -1) == 0.0
    assert ladder_coefficient(2, 0, +1) == pytest.approx(math.sqrt(6), abs=1e-15)
    assert ladder_coefficient(2, 0, -1) == pytest.approx(math.sqrt(6), abs=1e-15)
    assert ladder_coefficient(3, 2, +1) == pytest.approx(math.sqrt(6), abs=1e-15)


def test_jz_eigenvalue():
    c = coefficient_set(-1, 4, {(2, 1): 1.0})
    out = apply_coeff(OperatorSpec("Jz", -1), c)
    assert out == coefficient_set(-1, 4, {(2, 1): 1.0})


def test_jplus_annihilates_top():
    c = coefficient_set(-1, 4, {(1, 1): 1.0})
    out = apply_coeff(OperatorSpec("Jplus", -1), c)
    assert out.sorted_items() == []


def test_jplus_ladder_value():
    c = coefficient_set(0, 4, {(2, 0): 1.0})
    out = apply_coeff(OperatorSpec("Jplus", 0), c)
    assert out.get(2, 1) == pytest.approx(math.sqrt(6), abs=1e-15)
    assert len(out.sorted_items()) == 1


def test_jsquared_eigenvalue():
    c = coefficient_set(0, 4, {(3, -2): 1.0})
    out = apply_coeff(OperatorSpec("Jsquared", 0), c)
    assert out.get(3, -2) == 12.0


def test_helicity_is_minus_spin_weight():
    c = coefficient_set(-2, 4, {(3, 1): 1.0 + 1.0j})
    out = apply_coeff(OperatorSpec("Helicity", -2), c)
    assert out.get(3, 1) == 2.0 + 2.0j  # h = -s = 2


def test_so3_commutators_on_random_sets(rng):
    for s in (-2, 0, 1):
        c = coefficient_set(s, 10, random_entries(rng, s, 10))
        jz = OperatorSpec("Jz", s)
        jp = OperatorSpec("Jplus", s)
        jm = OperatorSpec("Jminus", s)

        def commu(a, b):
            return apply_coeff(a, apply_coeff(b, c)), apply_coeff(b, apply_coeff(a, c))

        # [Jz, J+] = +J+
        lhs1, lhs2 = commu(jz, jp)
        want = apply_coeff(jp, c)
        worst = max(
            abs(lhs1.get(*jm_) - lhs2.get(*jm_) - want.get(*jm_))
            for jm_, _ in want.sorted_items()
        ) if want.sorted_items() else 0.0
        assert worst < 1e-11
        # [J+, J-] = 2 Jz
        p1, p2 = commu(jp, jm)
        want2 = apply_coeff(jz, c)
        keys = {jm_ for jm_, _ in c.sorted_items()}
        worst2 = max(
            abs(p1.get(*k) - p2.get(*k) - 2 * want2.get(*k)) for k in keys
        )
        assert worst2 < 1e-11


def test_casimir_identity():
    single = coefficient_set(-1, 4, {(3, 1): 1.0})
    assert verify_casimir_identity(-1, single) <= 1e-12
    assert verify_casimir_identity(0, coefficient_set(0, 4)) == 0.0


def test_casimir_identity_random(rng):
    c = coefficient_set(1, 10, random_entries(rng, 1, 10))
    assert verify_casimir_identity(1, c) <= 1e-11


def _apply_coeff_per_entry(op, c):
    """Reference: the operator applied one (j, m) entry at a time."""
    out = {}
    if op.kind == "Jz":
        for (j, m), v in c.entries.items():
            out[(j, m)] = m * v
    elif op.kind in ("Jplus", "Jminus"):
        sign = +1 if op.kind == "Jplus" else -1
        for (j, m), v in c.entries.items():
            lam = ladder_coefficient(j, m, sign)
            if lam != 0.0:
                key = (j, m + sign)
                out[key] = out.get(key, 0j) + lam * v
    elif op.kind == "Jsquared":
        for (j, m), v in c.entries.items():
            out[(j, m)] = j * (j + 1) * v
    else:
        h = -c.spin_weight
        for (j, m), v in c.entries.items():
            out[(j, m)] = h * v
    return coefficient_set(c.spin_weight, c.band_limit, out)


def _casimir_per_entry(c):
    """Reference: max over labels of |J^2 c - (J_- J_+ + J_z^2 + J_z) c|, entry by entry."""
    s = c.spin_weight
    lhs = _apply_coeff_per_entry(OperatorSpec("Jsquared", s), c)
    zc = _apply_coeff_per_entry(OperatorSpec("Jz", s), c)
    raised = _apply_coeff_per_entry(OperatorSpec("Jplus", s), c)
    parts = (
        _apply_coeff_per_entry(OperatorSpec("Jminus", s), raised),
        _apply_coeff_per_entry(OperatorSpec("Jz", s), zc),
        zc,
    )
    keys = set(lhs.entries).union(*(part.entries for part in parts))
    worst = 0.0
    for key in keys:
        rhs = sum(part.entries.get(key, 0j) for part in parts)
        worst = max(worst, abs(lhs.entries.get(key, 0j) - rhs))
    return worst


@pytest.mark.parametrize("L", [0, 1, 10, 64])
@pytest.mark.parametrize("s", [-2, 0, 1])
def test_matrix_actions_equal_the_per_entry_loop(rng, L, s):
    # a dense set, a sparse one, and one with amplitudes near the clip;
    # bands 0, 1 and 64 read the edges of the ladder weight constant
    if L < abs(s):  # no set of spin weight s declares a band below |s|
        with pytest.raises(ValueError, match="below"):
            coefficient_set(s, L)
        return
    labels = [(j, m) for j in range(abs(s), L + 1) for m in range(-j, j + 1)]
    dense = {key: complex(rng.normal(), rng.normal()) for key in labels}
    tiny = {key: 1e-13 * v for key, v in random_entries(rng, s, L, count=40).items()}
    for entries in (dense, random_entries(rng, s, L), tiny):
        c = coefficient_set(s, L, entries)
        for kind in KINDS:
            op = OperatorSpec(kind, s)
            got, want = apply_coeff(op, c), _apply_coeff_per_entry(op, c)
            assert got == want
            assert repr(got.sorted_items()) == repr(want.sorted_items())
        assert verify_casimir_identity(s, c) == _casimir_per_entry(c)


# --------------------------------------------------------------- grid action

def test_grid_jz_on_mode():
    grid = make_grid(6)
    f = sample_swsh(grid, SWMode(-1, 2, 1))
    out = apply_grid(OperatorSpec("Jz", -1), f)
    assert np.abs(out.samples - f.samples).max() < 1e-10


def test_grid_ladder_matches_neighbor_modes():
    grid = make_grid(10)
    worst = 0.0
    for s in (-2, -1, 0, 1, 2):
        for j in range(abs(s), 9):
            for m in range(-j, j + 1):
                f = sample_swsh(grid, SWMode(s, j, m))
                for sign, kind in ((+1, "Jplus"), (-1, "Jminus")):
                    out = apply_grid(OperatorSpec(kind, s), f)
                    lam = ladder_coefficient(j, m, sign)
                    if lam == 0.0:
                        worst = max(worst, np.abs(out.samples).max())
                    else:
                        nb = sample_swsh(grid, SWMode(s, j, m + sign))
                        err = np.abs(out.samples - lam * nb.samples).max()
                        worst = max(worst, err)
    assert worst <= 1e-8


def test_grid_casimir_on_mode():
    grid = make_grid(6)
    f = sample_swsh(grid, SWMode(-2, 3, 0))
    out = apply_grid(OperatorSpec("Jsquared", -2), f)
    assert np.abs(out.samples - 12.0 * f.samples).max() <= 1e-8


def test_grid_casimir_diagonal_via_transform(rng):
    grid = make_grid(8)
    s = -1
    c = coefficient_set(s, 8, random_entries(rng, s, 8))
    f = synthesize(c, grid)
    out = analyze(apply_grid(OperatorSpec("Jsquared", s), f))
    worst = max(
        abs(out.get(j, m) - j * (j + 1) * c.get(j, m))
        for j in range(abs(s), 9)
        for m in range(-j, j + 1)
    )
    assert worst <= 1e-8


def test_grid_helicity():
    grid = make_grid(5)
    f = sample_swsh(grid, SWMode(2, 4, -1))
    out = apply_grid(OperatorSpec("Helicity", 2), f)
    assert np.abs(out.samples + 2.0 * f.samples).max() < 1e-12


def test_grid_matches_coeff_action(rng):
    # the two realizations agree on random band-limited functions
    grid = make_grid(9)
    for s in (-2, 1):
        c = coefficient_set(s, 7, random_entries(rng, s, 7))
        f = synthesize(c, grid)
        for kind in KINDS:
            op = OperatorSpec(kind, s)
            via_grid = analyze(apply_grid(op, f), band_limit=8)
            via_coeff = apply_coeff(op, c)
            keys = {jm for jm, _ in via_grid.sorted_items()}
            keys |= {jm for jm, _ in via_coeff.sorted_items()}
            worst = max(
                (abs(via_grid.get(*k) - via_coeff.get(*k)) for k in keys),
                default=0.0,
            )
            assert worst < 1e-9, (s, kind, worst)


# ------------------------------------ exact action vs differential expression

def _apply_grid_per_call(op, f, band_limit=None):
    """The per-call form of apply_grid: separate order-0/1/2 contractions and
    the differential expression applied to their sums, the derivative tables
    by spin-raising steps from the spins s - 2 .. s + 2, two apart."""
    coeffs = analysis_matrix(f, band_limit=band_limit)
    grid = f.grid
    s = f.spin_weight
    h = -s
    L = coeffs.shape[1] - 1
    m = np.arange(-L, L + 1)[:, None]
    sin = np.sin(grid.theta)
    cot = np.cos(grid.theta) / sin
    p = contract_table(mode_operands(grid, s, L).table, coeffs)
    spins, j = np.arange(s - 2, s + 3), np.arange(L + 1)[:, None]
    table = spin_tables(grid, spins, L)
    outer = _dtheta(table[::2], spins[::2], j)  # spins s - 1, s + 1
    derivatives = [None, _dtheta(table[1::2], spins[1::2], j)[0], _dtheta(outer, spins[1::2], j)[0]]
    shift = 0
    if op.kind == "Jz":
        radial = m * p
    elif op.kind == "Helicity":
        radial = h * p
    elif op.kind == "Jsquared":
        dp = contract_table(derivatives[1], coeffs)
        d2p = contract_table(derivatives[2], coeffs)
        pot = (m * m + s * s + 2 * s * m * np.cos(grid.theta)) / sin**2
        radial = -d2p - cot * dp + pot * p
    else:
        shift = +1 if op.kind == "Jplus" else -1
        dp = contract_table(derivatives[1], coeffs)
        radial = shift * dp - m * cot * p + h * p / sin
    # the rows f = -L + shift .. L + shift, from one band above
    return phi_synthesis(dft_rows(grid, L + 1)[1 + shift : 2 * L + 2 + shift], radial)


@pytest.mark.parametrize("L", [8, 32, 64])
def test_operator_tables_match_the_per_call_expression(rng, L):
    grid = make_grid(L)
    for s in (-2, -1, 0, 1):
        shape = grid.shape
        f = GridFunction(grid, s, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        for band in (None, L - 2):
            for kind in KINDS:
                op = OperatorSpec(kind, s)
                want = _apply_grid_per_call(op, f, band)
                got = apply_grid(op, f, band).samples
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), (s, band, kind)


def test_the_m_ladder_weights_enter_no_grid_table(monkeypatch):
    # verify ladder checks the grid tables against _LADDER, so no table may
    # be built from it: with every weight NaN, fresh J+, J- and J^2 tables
    # come out finite and byte for byte the same
    grid = make_grid(12)

    def build():
        return {(s, kind): operators._differential_table(grid, s, kind, 12)
                for s in (-2, -1, 0, 1, 2) for kind in ("Jplus", "Jminus", "Jsquared")}

    want = build()
    monkeypatch.setattr(operators, "_LADDER", np.full_like(operators._LADDER, np.nan))
    for key, table in build().items():
        assert np.isfinite(table).all(), key
        assert table.tobytes() == want[key].tobytes(), key


@pytest.mark.parametrize("kind", KINDS)
def test_a_cold_diagonal_kind_puts_no_operator_table(rng, monkeypatch, kind):
    # every kind, diagonal or ladder, acts on the analysis coefficients, which
    # mode_synthesis synthesizes, so a cold application puts the spin's mode
    # entry and nothing else
    grid = make_grid(10)
    f = synthesize(coefficient_set(-2, 10, random_entries(rng, -2, 10)), grid)
    _tables.clear()
    puts, real_put = [], _tables.put
    monkeypatch.setattr(_tables, "put", lambda key, value: puts.append(key) or real_put(key, value))
    apply_grid(OperatorSpec(kind, -2), f)
    apply_grid(OperatorSpec(kind, -2), f, band_limit=7)
    assert puts == [(grid.geometry_key, -2)], puts
    _tables.clear()


def test_helicity_keeps_the_bytes_of_its_former_table(rng):
    # scaling by h = 0, +-1 or +-2 is exact, so moving h from the table to
    # the coefficients leaves every sample's bytes as they were
    grid = make_grid(10)
    for s in (0, 1, -1, 2, -2):
        f = synthesize(coefficient_set(s, 10, random_entries(rng, s, 10)), grid)
        for L in (10, 6):
            coeffs = analysis_matrix(f, band_limit=L)
            want = phi_synthesis(dft_rows(grid, L), contract_table(-s * mode_operands(grid, s, L).table, coeffs))
            got = apply_grid(OperatorSpec("Helicity", s), f, band_limit=L).samples
            assert got.tobytes() == want.tobytes(), (s, L)


def test_warm_apply_grid_builds_no_table(rng, monkeypatch):
    grid = make_grid(10)
    f = synthesize(coefficient_set(-1, 10, random_entries(rng, -1, 10)), grid)
    for kind in KINDS:
        apply_grid(OperatorSpec(kind, -1), f)
    puts = []
    real_put = _tables.put
    monkeypatch.setattr(_tables, "put", lambda key, value: puts.append(key) or real_put(key, value))
    g = synthesize(coefficient_set(-1, 10, random_entries(rng, -1, 10)), grid)
    for kind in KINDS:
        apply_grid(OperatorSpec(kind, -1), g)
        apply_grid(OperatorSpec(kind, -1), g, band_limit=7)
    assert puts == []
    # and each application reads the spin's mode entry alone, once
    gets, real_get = [], _tables.get
    monkeypatch.setattr(_tables, "get", lambda key: gets.append(key) or real_get(key))
    for kind in KINDS:
        apply_grid(OperatorSpec(kind, -1), g, band_limit=7)
    assert gets == [(grid.geometry_key, -1)] * len(KINDS)


def test_a_band_sweep_builds_each_operator_table_once_at_the_grid_band(monkeypatch):
    # the one table each of J_+, J_- and J^2 reads is its spin's mode table,
    # built once at the grid's band, so a rising and a falling sweep climb
    # once per spin and read the same bytes
    grid = make_grid(64)
    tops = []
    climb = tables._climb
    monkeypatch.setattr(tables, "_climb", lambda *args: tops.append((int(args[0][0]), args[3])) or climb(*args))
    cases = [(0, "Jsquared"), (0, "Jplus"), (-2, "Jminus")]

    def sweep(bands):
        _tables.clear()
        tops.clear()
        out = {(j, s, kind): apply_grid(OperatorSpec(kind, s), sample_swsh(grid, (s, j, 0)), band_limit=j)
               .samples.tobytes() for j in bands for s, kind in cases if j >= abs(s)}
        assert sorted(tops) == [(-2, 64), (0, 64)]  # one climb per spin
        return out

    rising = sweep(range(1, 65))
    assert sweep(range(64, 0, -1)) == rising
    _tables.clear()


def test_apply_grid_reuses_the_analysis(rng, monkeypatch):
    # one analysis per function, kept at the grid's band, serves every kind
    # at every band in any order; a lower band reads its centered slice
    grid = make_grid(10)
    f = synthesize(coefficient_set(0, 10, random_entries(rng, 0, 10)), grid)
    calls = []
    real = transform.mode_coefficients
    monkeypatch.setattr(
        transform, "mode_coefficients", lambda g, s, x, L: calls.append(L) or real(g, s, x, L)
    )
    apply_grid(OperatorSpec("Jplus", 0), f, band_limit=8)
    assert calls == [10]
    c = analyze(f)
    for band in (None, 3, 10, 0, 7):
        for kind in KINDS:
            apply_grid(OperatorSpec(kind, 0), f, band_limit=band)
    assert calls == [10]
    assert analysis_matrix(f) is c.matrix and not c.matrix.flags.writeable
    for band in (8, 3, 0):
        a = analysis_matrix(f, band)
        assert not a.flags.writeable
        assert a.tobytes() == c.matrix[10 - band : 10 + band + 1, : band + 1].tobytes()


def test_apply_grid_refuses_non_finite_samples():
    # one infinite or NaN sample is refused by every kind, at the grid's
    # band and a lower one, as analyze refuses it, not turned into NaN
    grid = make_grid(5)
    for bad in (float("inf"), float("nan")):
        samples = np.ones(grid.shape, dtype=np.complex128)
        samples[2, 3] = bad
        for kind in KINDS:
            for band in (None, 3):
                f = GridFunction(grid, 0, samples)
                with pytest.raises(ValueError, match="^cannot analyze a grid function with non-finite samples$"):
                    apply_grid(OperatorSpec(kind, 0), f, band_limit=band)


def test_apply_grid_band_limit_must_be_an_integer():
    f = sample_swsh(make_grid(6), SWMode(0, 2, 1))
    with pytest.raises(ValueError, match="must be an integer"):
        apply_grid(OperatorSpec("Jplus", 0), f, band_limit=3.5)
    got = apply_grid(OperatorSpec("Jplus", 0), f, band_limit=4.0).samples
    assert np.array_equal(got, apply_grid(OperatorSpec("Jplus", 0), f, band_limit=4).samples)
