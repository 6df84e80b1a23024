"""Command line surface: argument handling, file flows, reproducible
verification reports, and the exit-code contract."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import swsh.grid
import swsh.tables
from swsh import cli, operators
from swsh.cli import main
from swsh.errors import InvalidMode
from swsh.grid import make_grid, read_grid_csv, sample_swsh
from swsh.modes import J_MAX, SWMode, profile
from swsh.multiplets import factor_search, massless_spectrum, spectrum_to_json
from swsh.operators import KINDS
from swsh.tables import _tables, mode_samples
from swsh.transform import (
    coefficient_set,
    read_coefficients_json,
    write_coefficients_json,
)

from conftest import random_entries


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------------ eval

def test_eval_constant_mode(capsys):
    code, out, _ = run(
        capsys, "eval", "-s", "0", "-j", "0", "-m", "0", "--theta", "1.0", "--phi", "0.0"
    )
    assert code == 0
    assert out == "0.28209479177387814 0.0\n"


def test_eval_north_pole_limit(capsys):
    code, out, _ = run(capsys, "eval", "-s", "-1", "-j", "1", "-m", "1", "--pole", "north")
    assert code == 0
    assert out == "-0.48860251190291992 0.0\n"


def test_eval_pole_off_pattern_is_zero(capsys):
    code, out, _ = run(capsys, "eval", "-s", "-1", "-j", "2", "-m", "0", "--pole", "north")
    assert code == 0
    assert out == "0.0 0.0\n"


def test_eval_invalid_mode_exits_2(capsys):
    code, _, err = run(
        capsys, "eval", "-s", "-2", "-j", "1", "-m", "0", "--theta", "1.0", "--phi", "0.0"
    )
    assert code == 2
    assert err.startswith("swsh:")
    assert "|s|" in err


@pytest.mark.parametrize("phi", ["nan", "inf", "-inf"])
def test_eval_non_finite_phi_exits_2_naming_phi(capsys, phi):
    code, out, err = run(capsys, "eval", "-s", "0", "-j", "2", "-m", "1", "--theta", "0.5", f"--phi={phi}")
    assert code == 2 and out == ""
    assert err == "swsh: phi must be finite\n"


@pytest.mark.parametrize(
    "argv, option, value, exit_code",
    [
        (["eval", "-s", "0", "-j", "1", "-m", "1", "--theta", "0.7"], "--phi", "-1e-3", 0),
        (["eval", "-s", "0", "-j", "1", "-m", "1", "--theta", "0.7"], "--phi", "-5.", 0),
        (["eval", "-s", "0", "-j", "1", "-m", "1", "--theta", "0.7"], "--ph", "-2.5E+0", 0),
        (["eval", "-s", "0", "-j", "2", "-m", "1", "--theta", "0.5"], "--phi", "-inf", 2),
        (["eval", "-s", "0", "-j", "1", "-m", "1", "--phi", "0.3"], "--theta", "-1e-3", 2),
        (["verify", "ortho"], "--tolerance", "-1e-3", 2),
        (["verify", "ortho"], "--tol", "-inf", 2),
        (["verify", "commutators", "--count", "1"], "--floor", "-1e-3", 2),
    ],
)
def test_float_options_take_a_negative_literal_as_the_next_token(capsys, argv, option, value, exit_code):
    # argparse alone reads -1e-3, -5. or -inf as an option and exits 2
    # with "expected one argument"; each must act as the attached form does
    want = run(capsys, *argv, f"{option}={value}")
    assert want[0] == exit_code and "expected one argument" not in want[2]
    assert run(capsys, *argv, option, value) == want


def test_eval_conflicting_targets_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "eval", "-s", "0", "-j", "1", "-m", "0",
                "--theta", "1.0", "--phi", "0.0", "--pole", "north",
            ]
        )
    assert exc.value.code == 2


def test_eval_grid_requires_out(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "-s", "0", "-j", "1", "-m", "0", "--grid", "4"])
    assert exc.value.code == 2


@pytest.mark.parametrize("target", [["--theta", "1", "--phi", "0"], ["--pole", "north"]])
def test_eval_out_without_grid_exits_2_and_writes_nothing(capsys, tmp_path, target):
    path = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["eval", "-s", "0", "-j", "1", "-m", "0", *target, "--out", str(path)])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.endswith("error: --out requires --grid\n")
    assert not path.exists()


def test_eval_grid_writes_reproducible_csv(capsys, tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (p1, p2):
        code, _, _ = run(
            capsys, "eval", "-s", "-1", "-j", "2", "-m", "1", "--grid", "6", "--out", str(p)
        )
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()
    f = read_grid_csv(p1)
    want = sample_swsh(make_grid(6), SWMode(-1, 2, 1))
    assert f.spin_weight == -1
    assert np.abs(f.samples - want.samples).max() == 0.0


# ------------------------------------------------------------------- transform

def test_transform_round_trip(capsys, tmp_path, rng):
    src = tmp_path / "c.json"
    csv = tmp_path / "f.csv"
    back = tmp_path / "c2.json"
    c = coefficient_set(-1, 12, random_entries(rng, -1, 12, count=20))
    write_coefficients_json(c, src)
    code, _, _ = run(capsys, "transform", "synthesize", "--in", str(src), "--out", str(csv))
    assert code == 0
    code, _, _ = run(capsys, "transform", "analyze", "--in", str(csv), "--out", str(back))
    assert code == 0
    c2 = read_coefficients_json(back)
    assert c2.spin_weight == -1 and c2.band_limit == 12
    for (j, m), v in c.sorted_items():
        assert abs(c2.get(j, m) - v) <= 1e-10


def test_transform_analyze_single_mode(capsys, tmp_path):
    csv = tmp_path / "mode.csv"
    out = tmp_path / "c.json"
    run(capsys, "eval", "-s", "-1", "-j", "3", "-m", "-2", "--grid", "8", "--out", str(csv))
    code, _, _ = run(
        capsys, "transform", "analyze", "--in", str(csv), "--out", str(out), "-s", "-1"
    )
    assert code == 0
    c = read_coefficients_json(out)
    items = c.sorted_items()
    assert len(items) == 1  # everything else clips to zero
    (jm, v), = items
    assert jm == (3, -2)
    assert abs(v - 1.0) <= 1e-12


def test_transform_synthesize_empty_is_zero_grid(capsys, tmp_path):
    src = tmp_path / "empty.json"
    csv = tmp_path / "zero.csv"
    write_coefficients_json(coefficient_set(2, 4, {}), src)
    code, _, _ = run(capsys, "transform", "synthesize", "--in", str(src), "--out", str(csv))
    assert code == 0
    f = read_grid_csv(csv)
    assert f.spin_weight == 2
    assert np.abs(f.samples).max() == 0.0


def test_transform_spin_mismatch_exits_2(capsys, tmp_path):
    src = tmp_path / "c.json"
    write_coefficients_json(coefficient_set(-1, 4, {(2, 0): 1.0}), src)
    code, _, err = run(
        capsys, "transform", "synthesize", "--in", str(src),
        "--out", str(tmp_path / "f.csv"), "-s", "2",
    )
    assert code == 2
    assert "spin weight" in err


def test_transform_missing_input_exits_2(capsys, tmp_path):
    code, _, err = run(
        capsys, "transform", "analyze", "--in", str(tmp_path / "absent.csv"),
        "--out", str(tmp_path / "c.json"),
    )
    assert code == 2
    assert err.startswith("swsh:")


def test_transform_infinite_label_exits_2(capsys, tmp_path):
    src = tmp_path / "c.json"
    payload = {"spin_weight": 0, "band_limit": 4, "entries": [{"j": 1, "m": 0, "re": 1.0, "im": 0.0}]}
    src.write_text(json.dumps(payload).replace('"j": 1', '"j": Infinity'))
    code, out, err = run(
        capsys, "transform", "synthesize", "--in", str(src), "--out", str(tmp_path / "f.csv"),
    )
    assert code == 2 and out == ""
    assert err == "swsh: j=inf is not an integer\n"
    assert not (tmp_path / "f.csv").exists()


def test_transform_infinite_amplitude_exits_2(capsys, tmp_path):
    src = tmp_path / "c.json"
    payload = {"spin_weight": 0, "band_limit": 4, "entries": [{"j": 1, "m": 0, "re": 1.0, "im": 0.0}]}
    src.write_text(json.dumps(payload).replace('"re": 1.0', '"re": Infinity'))
    code, out, err = run(
        capsys, "transform", "synthesize", "--in", str(src), "--out", str(tmp_path / "f.csv"),
    )
    assert code == 2 and out == ""
    assert err == "swsh: amplitude of mode (j=1, m=0) is infinite\n"
    assert not (tmp_path / "f.csv").exists()


def test_transform_analyze_refuses_a_header_token_without_equals(capsys, tmp_path):
    csv, out = tmp_path / "f.csv", tmp_path / "f.json"
    assert run(capsys, "eval", "-s", "0", "-j", "1", "-m", "0", "--grid", "1", "--out", str(csv))[0] == 0
    header, rows = csv.read_text().split("\n", 1)
    assert header == "# spin_weight=0 L=1 frame=spherical"
    csv.write_text("# spin_weight=0 L=1 frame\n" + rows)
    code, stdout, err = run(capsys, "transform", "analyze", "--in", str(csv), "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == "swsh: malformed header '# spin_weight=0 L=1 frame'\n"
    assert not out.exists()


def test_transform_band_limit_violation_exits_3(capsys, tmp_path):
    src = tmp_path / "c.json"
    write_coefficients_json(coefficient_set(-1, 8, {(8, 0): 1.0}), src)
    code, _, err = run(
        capsys, "transform", "synthesize", "--in", str(src),
        "--out", str(tmp_path / "f.csv"), "-L", "4",
    )
    assert code == 3
    assert "band limit" in err


def test_transform_analyze_above_j_max_exits_2(capsys, tmp_path):
    f_csv = tmp_path / "f.csv"
    assert run(capsys, "eval", "-s", "0", "-j", "2", "-m", "1", "--grid", "70",
               "--out", str(f_csv))[0] == 0
    out = str(tmp_path / "f.json")
    code, _, err = run(capsys, "transform", "analyze", "--in", str(f_csv), "--out", out)
    assert code == 2
    assert err == "swsh: analysis band limit 70 exceeds the supported maximum j = 64\n"
    code, _, err = run(capsys, "transform", "analyze", "--in", str(f_csv), "--out", out, "-L", "64")
    assert code == 0 and err == ""
    assert read_coefficients_json(out).entries.keys() == {(2, 1)}


def test_transform_analyze_negative_band_exits_2(capsys, tmp_path):
    f_csv, out = tmp_path / "f.csv", tmp_path / "f.json"
    assert run(capsys, "eval", "-s", "0", "-j", "2", "-m", "1", "--grid", "4",
               "--out", str(f_csv))[0] == 0
    code, stdout, err = run(capsys, "transform", "analyze", "--in", str(f_csv),
                            "--out", str(out), "-L", "-1")
    assert (code, stdout, err) == (2, "", "swsh: analysis band limit -1 is negative\n")
    assert not out.exists()


# ---------------------------------------------------------------------- verify

def report_of(out):
    return json.loads(out)


def test_verify_report_shape_and_determinism(capsys):
    code1, out1, _ = run(capsys, "verify", "ortho", "-L", "6")
    code2, out2, _ = run(capsys, "verify", "ortho", "-L", "6")
    assert code1 == code2 == 0
    assert out1 == out2
    report = report_of(out1)
    assert list(report) == ["command", "parameters", "results", "maxResidual", "pass"]
    assert report["command"] == "verify"
    assert report["pass"] is True
    assert report["maxResidual"] <= report["parameters"]["tolerance"]


@pytest.mark.parametrize("s", [-2, 0, 1])
def test_verify_ortho_per_m_matches_the_dense_gram(capsys, s):
    L = 8
    code1, out1, _ = run(capsys, "verify", "ortho", "-s", str(s), "-L", str(L))
    code2, out2, _ = run(capsys, "verify", "ortho", "-s", str(s), "-L", str(L))
    assert code1 == code2 == 0
    assert out1 == out2
    grid = make_grid(L)
    w = (grid.theta_weights[:, None] * np.full(grid.n_phi, grid.phi_weight)).ravel()
    basis = np.array([
        sample_swsh(grid, SWMode(s, j, m)).samples.ravel()
        for j in range(abs(s), L + 1)
        for m in range(-j, j + 1)
    ])
    gram = (basis * w) @ np.conj(basis.T)
    dense = float(np.abs(gram - np.eye(len(basis))).max())
    report = report_of(out1)
    assert report["results"]["modes"] == len(basis)
    assert abs(report["maxResidual"] - dense) <= 1e-15


@pytest.mark.parametrize("s", [0, -1])
def test_verify_ortho_reports_a_cross_m_leak_at_its_size(capsys, monkeypatch, s):
    # the samples of mode (3, 1) gain eps Y(3, 2), so the Gram entry between
    # the two, and the residual, is eps, not a bound above it
    eps, real = 1e-9, swsh.tables.mode_samples

    def leaky(grid, spin, m):
        samples = real(grid, spin, m)
        if m == 1:
            samples[3] += eps * real(grid, spin, 2)[3]
        return samples

    monkeypatch.setattr(swsh.tables, "mode_samples", leaky)
    code, out, _ = run(capsys, "verify", "ortho", "-s", str(s), "-L", "6", "--tolerance", "1")
    assert code == 0
    assert report_of(out)["maxResidual"] == pytest.approx(eps, rel=1e-6)


def test_verify_ortho_holds_far_less_than_the_dense_gram(capsys):
    # the suite once built the dense Gram of every mode, O(L^4) bytes
    L = 32
    dense = (L + 1) ** 4 * 16
    _tables.clear()
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "verify", "ortho", "-s", "0", "-L", str(L))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _tables.clear()
    assert code == 0
    assert report_of(out)["results"]["modes"] == (L + 1) ** 2
    assert peak < dense / 2, peak


def test_verify_ortho_band_below_spin_exits_2(capsys):
    code, _, err = run(capsys, "verify", "ortho", "-s", "-2", "-L", "1")
    assert code == 2
    assert "below |spin weight|" in err


def test_verify_seed_changes_draws_not_validity(capsys):
    code1, out1, _ = run(capsys, "verify", "casimir", "-L", "6", "--seed", "1")
    code2, out2, _ = run(capsys, "verify", "casimir", "-L", "6", "--seed", "2")
    assert code1 == code2 == 0
    assert out1 != out2  # different draws, both passing
    assert report_of(out1)["pass"] and report_of(out2)["pass"]


def test_verify_tolerance_can_force_failure(capsys):
    code, out, _ = run(capsys, "verify", "ortho", "-L", "6", "--tolerance", "1e-30")
    assert code == 1
    report = report_of(out)
    assert report["pass"] is False
    assert report["maxResidual"] > 1e-30


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1"])
def test_verify_refuses_a_tolerance_before_the_suite_runs(capsys, monkeypatch, tolerance):
    # NaN and a negative value fail every residual and inf passes every
    # finite one, so none can judge a run; the suite is not started
    suite = lambda args: pytest.fail("the suite ran")  # noqa: E731
    monkeypatch.setitem(cli._SUITES, "ortho", (suite, cli._SUITES["ortho"][1]))
    code, out, err = run(capsys, "verify", "ortho", f"--tolerance={tolerance}")
    assert code == 2 and out == ""
    assert err.startswith("swsh: --tolerance must be finite and at least 0, got ")


def test_verify_accepts_a_zero_tolerance(capsys):
    # spectrum-match's default: its residual is a count of mismatches
    code, out, _ = run(capsys, "verify", "spectrum-match", "-j", "4", "--tolerance", "0")
    assert code == 0
    assert report_of(out)["parameters"]["tolerance"] == 0.0


@pytest.mark.parametrize("s, j", [(0, -1), (-1, -3)])
def test_verify_poles_refuses_a_negative_j_before_sampling(capsys, monkeypatch, s, j):
    # a j < 0 leaves no m to check, which once passed with residual 0.0
    monkeypatch.setattr(swsh.grid, "sample_swsh", lambda *args: pytest.fail("sampled"))
    code, out, err = run(capsys, "verify", "poles", "-s", str(s), "-j", str(j))
    assert code == 2 and out == ""
    assert err == f"swsh: j={j} is negative\n"


def test_verify_unknown_suite_exits_4(capsys):
    code, _, err = run(capsys, "verify", "does-not-exist")
    assert code == 4
    assert "unknown suite" in err


def test_verify_ladder_small(capsys):
    code, out, _ = run(capsys, "verify", "ladder", "-s", "1", "-j", "4")
    assert code == 0
    assert report_of(out)["pass"] is True


@pytest.mark.parametrize("L, s", [(4, 0), (16, -1), (12, 2)])
def test_ladder_reference_samples_are_the_sample_swsh_bytes(L, s):
    # the row blocks verify ortho analyzes instead of one climb per mode,
    # and a one-row climb of profile times the phase as the reference
    grid = make_grid(L)
    for m in range(-L, L + 1):
        block = mode_samples(grid, s, m)
        assert not block[: max(abs(m), abs(s))].any()
        phase = np.exp(1j * m * grid.phi)
        for j in range(max(abs(m), abs(s)), L + 1):
            assert block[j].tobytes() == sample_swsh(grid, SWMode(s, j, m)).samples.tobytes()
            climbed = profile(s, j, m, grid.theta)[:, None] * phase
            assert block[j].tobytes() == climbed.tobytes()
    with pytest.raises(InvalidMode):
        mode_samples(grid, s, -L - 1)  # would wrap to row m = L


def test_verify_ladder_samples_no_mode_by_itself(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("verify ladder climbed one mode")

    monkeypatch.setattr(swsh.grid, "sample_swsh", refuse)
    code, out, _ = run(capsys, "verify", "ladder", "-s", "-1", "-j", "5")
    assert code == 0
    assert report_of(out)["results"]["modes"] == 35


def test_a_cold_verify_ladder_puts_each_table_once(capsys, monkeypatch):
    # the mode table and the three differential tables, each once, each
    # with its own azimuthal rows; J_z and helicity scale coefficients, no table
    _tables.clear()
    puts, put = [], _tables.put
    monkeypatch.setattr(_tables, "put", lambda key, value: puts.append(key) or put(key, value))
    code, _, _ = run(capsys, "verify", "ladder", "-s", "-1", "-j", "8")
    assert code == 0
    grid = make_grid(8)
    key = grid.geometry_key
    ops = {("op", key, -1, kind) for kind in ("Jplus", "Jminus", "Jsquared")}
    assert set(puts) == {(key, -1), *ops}
    assert len(puts) == len(set(puts)), puts
    _tables.clear()


@pytest.mark.parametrize("j_max", [3, 12])
def test_verify_ladder_applies_each_kind_once(capsys, monkeypatch, j_max):
    # the tables cover every mode, so the cost of grid-space application
    # no longer grows with the number of modes
    calls, real = [], operators.apply_grid
    monkeypatch.setattr(operators, "apply_grid", lambda op, f: calls.append(op.kind) or real(op, f))
    code, out, _ = run(capsys, "verify", "ladder", "-s", "-1", "-j", str(j_max))
    assert code == 0 and report_of(out)["pass"] is True
    assert calls == list(KINDS)


def test_verify_ladder_fails_on_one_wrong_table_row(capsys, monkeypatch):
    real = operators._differential_table

    def off(grid, s, kind, L):
        table = real(grid, s, kind, L)
        if kind == "Jplus":
            table[2 + L, 3] *= 1 + 1e-6  # the row of (m, j) = (2, 3)
        return table

    monkeypatch.setattr(operators, "_differential_table", off)
    _tables.clear()
    try:
        code, out, _ = run(capsys, "verify", "ladder", "-s", "-1", "-j", "5")
    finally:
        _tables.clear()
    assert code == 1
    assert 1e-7 < report_of(out)["maxResidual"] < 1e-5


def test_verify_ladder_fails_without_the_ladder_phi_shift(capsys, monkeypatch):
    # the tables are right, so only the end-to-end application sees this
    monkeypatch.setitem(operators._SHIFTS, "Jplus", 0)
    code, out, _ = run(capsys, "verify", "ladder", "-s", "-1", "-j", "5")
    assert code == 1
    assert report_of(out)["maxResidual"] > 0.1


@pytest.mark.parametrize("spin, j_max", [(-3, 2), (-1, -4)])
def test_verify_ladder_refuses_a_band_below_the_spin(capsys, spin, j_max):
    # no mode would be checked, so there is nothing to pass
    code, out, err = run(capsys, "verify", "ladder", "-s", str(spin), "-j", str(j_max))
    assert code == 2 and out == ""
    assert "below |spin weight|" in err


@pytest.mark.parametrize("suite", ["lemma", "commutators"])
@pytest.mark.parametrize("count", [0, -2])
def test_verify_section_suites_refuse_an_empty_draw(capsys, suite, count):
    code, out, err = run(capsys, "verify", suite, "--count", str(count))
    assert code == 2 and out == ""
    assert "--count must be at least 1" in err


@pytest.mark.parametrize("suite", ["lemma", "commutators", "pointop"])
@pytest.mark.parametrize("s", [-1, -2])
def test_verify_section_suites_name_their_own_band_edge(capsys, suite, s):
    # the work grid's band is -L + |h| + 4, so -L stops |h| + 4 below J_MAX
    # and the refusal names -L, not the work band the user never gave
    edge = J_MAX - abs(s) - 4
    count = () if suite == "pointop" else ("--count", "1")
    code, _, err = run(capsys, "verify", suite, "-s", str(s), "-L", str(edge), *count)
    assert code == 0, err
    code, out, err = run(capsys, "verify", suite, "-s", str(s), "-L", str(edge + 1), *count)
    assert code == 2 and out == ""
    assert err == f"swsh: -L {edge + 1} exceeds this suite's limit {edge} for |h| = {-s}\n"


@pytest.mark.parametrize("floor", ["0", "-1", "nan", "inf"])
def test_verify_commutators_refuses_a_vacuous_floor(capsys, floor):
    # a defect is a norm, so no floor <= 0 can fail the defect check
    code, out, err = run(capsys, "verify", "commutators", "--count", "1", "--floor", floor)
    assert code == 2 and out == ""
    assert "floor must be positive and finite" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["ladder", "-L", "40"], "-L"),
        (["ortho", "-j", "5"], "-j"),
        (["casimir", "--count", "3"], "--count"),
        (["spectrum-match", "-s", "1"], "-s"),
        (["poles", "--floor", "0.2"], "--floor"),
        (["lemma", "-j", "3"], "-j"),
        (["pointop", "--count", "2"], "--count"),
        (["commutators", "-j", "2"], "-j"),
    ],
)
def test_verify_refuses_a_flag_the_suite_does_not_read(capsys, argv, flag):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert f"does not read {flag}" in err


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["spectrum-match", "--floor", "1", "-L", "2", "-s", "1"], "-s, -L, --floor"),
        (["ortho", "--floor", "1", "--count", "1", "-j", "1"], "-j, --count, --floor"),
    ],
)
def test_verify_names_every_unread_flag_in_one_order(capsys, argv, flags):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err == f"swsh: verify {argv[0]} does not read {flags}\n"


@pytest.mark.parametrize("suite", sorted(cli._SUITES))
def test_verify_every_suite_takes_a_seed_and_its_own_flags(capsys, monkeypatch, suite):
    reads = cli._SUITES[suite][1]
    monkeypatch.setitem(cli._SUITES, suite, (lambda args: ({}, {}, 0.0), reads))
    values = {"--tolerance": "0.5", "--floor": "0.5"}
    argv = [arg for flag in reads for arg in (flag, values.get(flag, "1"))]
    code, _, err = run(capsys, "verify", suite, "--seed", "7", *argv)
    assert code == 0 and err == ""


@pytest.mark.parametrize(
    "suite, parameters",
    [
        ("ortho", {"s": -1, "L": 16, "tolerance": 1e-11}),
        ("ladder", {"s": -1, "jMax": 8, "tolerance": 1e-08}),
        ("casimir", {"s": -1, "L": 10, "tolerance": 1e-11}),
        ("lemma", {"s": -1, "h": 1, "band": 8, "sections": 5, "tolerance": 1e-05}),
        ("commutators", {"s": -1, "h": 1, "band": 8, "sections": 10, "tolerance": 1e-05}),
        ("poles", {"s": -1, "j": 2, "grid_L": 256, "tolerance": 1e-08}),
        ("spectrum-match", {"jMax": 20, "spins": [0, 1, 2, 3], "tolerance": 0.0}),
        ("pointop", {"s": -1, "h": 1, "band": 8, "tolerance": 1e-10}),
    ],
)
def test_verify_every_suite_reports_its_defaults(capsys, suite, parameters):
    code, out, _ = run(capsys, "verify", suite)
    assert code == 0
    report = report_of(out)
    assert report["parameters"] == {"suite": suite, **parameters, "seed": 0}
    assert list(report["parameters"]) == ["suite", *parameters, "seed"]
    if suite == "commutators":
        assert report["results"]["defect_floor"] == 0.1


def test_verify_help_lists_exactly_the_suites(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    listed = "".join(out.split("positional arguments:")[1].split("options:")[0].split())
    assert listed == "suite" + "|".join(cli._SUITES)


def test_verify_lemma_small(capsys):
    code, out, _ = run(capsys, "verify", "lemma", "-L", "4", "--count", "2")
    assert code == 0
    report = report_of(out)
    assert report["pass"] is True
    assert report["parameters"]["tolerance"] == 1e-05


def test_verify_pointop_small(capsys):
    code, out, _ = run(capsys, "verify", "pointop", "-L", "6")
    assert code == 0
    assert report_of(out)["pass"] is True


def test_verify_spectrum_match(capsys):
    code, out, _ = run(capsys, "verify", "spectrum-match")
    assert code == 0
    report = report_of(out)
    assert report["maxResidual"] == 0.0
    assert report["results"]["mismatches"] == 0


# ------------------------------------------------------------------ multiplets

def test_multiplets_massless_json(capsys):
    code, out, _ = run(capsys, "multiplets", "--massless", "1", "--jmax", "5")
    assert code == 0
    assert out == spectrum_to_json(massless_spectrum(1, 5)) + "\n"


def test_multiplets_massive_json(capsys):
    code, out, _ = run(capsys, "multiplets", "--massive", "1", "--jmax", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["multiplicities"] == {"0": 1, "1": 3, "2": 3, "3": 3}


def test_multiplets_flags_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["multiplets", "--massless", "1", "--massive", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["multiplets", "--jmax", "4"])
    assert exc.value.code == 2


def test_multiplets_factor_search_output(capsys):
    code, out, _ = run(
        capsys, "multiplets", "--massless", "1", "--jmax", "12",
        "--factor-search", "1", "--lmax", "12",
    )
    assert code == 0
    sols = factor_search(massless_spectrum(1, 12), 1, l_max=12)
    assert out == "".join(spectrum_to_json(sol) + "\n" for sol in sols)


def test_multiplets_factor_search_none(capsys):
    code, out, _ = run(
        capsys, "multiplets", "--massless", "0", "--jmax", "0",
        "--factor-search", "1", "--lmax", "0",
    )
    assert code == 0
    assert out == "none\n"


def test_multiplets_budget_exhaustion_exits_1(capsys):
    code, _, err = run(
        capsys, "multiplets", "--massive", "1", "--jmax", "12",
        "--factor-search", "1", "--lmax", "12", "--branch-limit", "0",
    )
    assert code == 1
    assert "branch" in err


def test_multiplets_negative_branch_limit_exits_2(capsys):
    code, out, err = run(
        capsys, "multiplets", "--massless", "1", "--jmax", "6",
        "--factor-search", "0", "--branch-limit", "-1",
    )
    assert code == 2 and out == ""
    assert "branch_limit must be nonnegative" in err


# ------------------------------------------------------------------ subprocess

def run_child(*args):
    """A fresh interpreter's run of args, on this checkout's swsh whether or not a copy is installed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_readme_quickstart_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    proc = run_child("-c", blocks[0].split("```")[0])
    assert proc.returncode == 0, proc.stderr


def test_console_entry_smoke():
    proc = run_child("-m", "swsh.cli", "eval", "-s", "0", "-j", "0", "-m", "0",
                     "--theta", "1.0", "--phi", "0.0")
    assert proc.returncode == 0
    assert proc.stdout == "0.28209479177387814 0.0\n"


def modules_loaded_by(code):
    """The names in sys.modules of a fresh interpreter after it runs code."""
    proc = run_child("-c", code + "\nimport sys\nprint(*sorted(sys.modules), file=sys.stderr)")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def modules_loaded_by_main(*argv):
    return modules_loaded_by(
        "import contextlib, io\n"
        "from swsh.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({list(argv)!r}) == 0\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["multiplets", "--massless", "1", "--jmax", "12", "--factor-search", "1"],
        ["verify", "spectrum-match"],
    ],
)
def test_integer_commands_run_without_numpy(argv):
    loaded = modules_loaded_by_main(*argv)
    assert "swsh.multiplets" in loaded
    assert "numpy" not in loaded


def test_verify_ortho_loads_no_bundle_or_multiplets():
    loaded = modules_loaded_by_main("verify", "ortho", "-L", "4")
    assert "swsh.tables" in loaded
    assert not loaded & {"swsh.bundle", "swsh.multiplets"}


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "-s", "-1", "-j", "2", "-m", "1", "--grid", "24", "--out", os.devnull],
        ["verify", "poles"],
    ],
)
def test_point_and_grid_evaluation_load_no_tables(argv):
    loaded = modules_loaded_by_main(*argv)
    assert "swsh.grid" in loaded
    assert "swsh.tables" not in loaded
    # the Gauss-Legendre rule comes from the Legendre recurrence, not leggauss
    assert "numpy.polynomial" not in loaded


def test_verify_ladder_loads_no_numpy_random():
    # its test function is built from fixed amplitudes, not drawn
    if "numpy.random" in modules_loaded_by("import numpy"):
        pytest.skip("this numpy imports numpy.random with numpy")
    loaded = modules_loaded_by_main("verify", "ladder", "-s", "-1", "-j", "3")
    assert "swsh.operators" in loaded
    assert "numpy.random" not in loaded


def test_bare_package_import_loads_no_numeric_module():
    loaded = modules_loaded_by("import swsh")
    assert "swsh" in loaded
    assert not [name for name in loaded if name.startswith("swsh.") or name == "numpy"]


def test_every_public_name_resolves_and_star_binds_it():
    assert set(swsh.__all__) <= set(dir(swsh))
    for name in swsh.__all__:
        assert getattr(swsh, name) is not None
    bound = {}
    exec("from swsh import *", bound)
    assert all(bound[name] is getattr(swsh, name) for name in swsh.__all__)
    with pytest.raises(AttributeError):
        swsh.no_such_name
