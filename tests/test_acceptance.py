"""End-to-end acceptance gate for the package.

Eight checks, every one runnable without pytest:

    python tests/test_acceptance.py

prints one PASS/FAIL line per check and exits nonzero if any fail.  The
same checks are exposed as pytest cases below.

Check 7 contains a clause that genuinely fails: the uniqueness of the
skip-two orbital ladder asserted there is false, because a second
ladder factors the massless helicity-1 tower exactly as well.  The
failing clause is kept failing on purpose; see
test_factor_search_returns_only_the_skip_two_pattern.
"""

import math
import sys
from typing import NamedTuple

import numpy as np

from swsh.bundle import (
    apply_J_rotation,
    apply_projected_orbital,
    apply_projected_spin,
    commutator_report,
    embed,
    section_norm,
    section_scale,
)
from swsh.grid import make_grid, pole_limit_extrapolate, sample_swsh
from swsh.modes import NORTH, SOUTH, SWMode
from swsh.multiplets import factor_search, massive_spectrum, massless_spectrum, mode_counts
from swsh.operators import OperatorSpec, apply_grid, ladder_coefficient
from swsh.transform import analyze, coefficient_set, synthesize

AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
SKIP_TWO = {0: 1, 3: 1, 6: 1, 9: 1, 12: 1}


class Result(NamedTuple):
    label: str
    residual: float
    tolerance: float
    passed: bool
    detail: str = ""


def _gate(label, residual, tolerance, detail=""):
    return Result(label, float(residual), tolerance, residual <= tolerance, detail)


def _random_coefficients(rng, s, band):
    entries = {}
    for j in range(abs(s), band + 1):
        for m in range(-j, j + 1):
            entries[(j, m)] = complex(rng.standard_normal(), rng.standard_normal())
    return coefficient_set(s, band, entries)


def check_orthonormality():
    """1: quadrature Gram matrix is the identity for every spin weight."""
    tol = 1e-11
    grid = make_grid(16)
    w = (grid.theta_weights[:, None] * np.full(grid.n_phi, grid.phi_weight)).ravel()
    worst = 0.0
    for s in range(-2, 3):
        rows = [
            sample_swsh(grid, SWMode(s, j, m)).samples.ravel()
            for j in range(abs(s), 17)
            for m in range(-j, j + 1)
        ]
        basis = np.array(rows)
        gram = (basis * w) @ np.conj(basis.T)
        worst = max(worst, float(np.abs(gram - np.eye(len(rows))).max()))
    return _gate("1 orthonormality, s in [-2,2], j <= 16, band 16", worst, tol)


def check_operator_eigenvalues():
    """2: grid-space J_z, J_+-, J^2 reproduce m, ladder factors, j(j+1)."""
    tol = 1e-8
    grid = make_grid(8)
    worst = 0.0
    for s in range(-2, 3):
        for j in range(abs(s), 9):
            for m in range(-j, j + 1):
                f = sample_swsh(grid, SWMode(s, j, m))
                got = apply_grid(OperatorSpec("Jz", s), f)
                worst = max(worst, float(np.abs(got.samples - m * f.samples).max()))
                got = apply_grid(OperatorSpec("Jsquared", s), f)
                worst = max(
                    worst,
                    float(np.abs(got.samples - j * (j + 1) * f.samples).max()),
                )
                for kind, sign in (("Jplus", +1), ("Jminus", -1)):
                    got = apply_grid(OperatorSpec(kind, s), f)
                    lam = ladder_coefficient(j, m, sign)
                    if lam:
                        ref = lam * sample_swsh(grid, SWMode(s, j, m + sign)).samples
                    else:
                        ref = np.zeros(grid.shape)
                    worst = max(worst, float(np.abs(got.samples - ref).max()))
    return _gate("2 operator eigenvalues, |s| <= 2, j <= 8", worst, tol)


def check_transform_round_trip():
    """3: analyze/synthesize invert each other on random band-12 data."""
    tol = 1e-10
    grid = make_grid(12)
    rng = np.random.default_rng(0)
    worst = 0.0
    for s in range(-2, 3):
        for _ in range(50):
            c = _random_coefficients(rng, s, 12)
            f = synthesize(c, grid)
            c2 = analyze(f)
            for j in range(abs(s), 13):
                for m in range(-j, j + 1):
                    worst = max(worst, abs(c2.get(j, m) - c.get(j, m)))
            g = synthesize(c2, grid)
            worst = max(worst, float(np.abs(g.samples - f.samples).max()))
    return _gate("3 transform round trips, 50 draws per spin, band 12", worst, tol)


def check_pole_asymptotics():
    """4: extrapolated pole limits hit the closed-form amplitudes."""
    tol = 1e-8
    grid = make_grid(256)
    worst = 0.0
    for h in (1, 2):
        s = -h
        for j in range(h, 7):
            amp = math.sqrt((2 * j + 1) / (4.0 * math.pi))
            for m in range(-j, j + 1):
                f = sample_swsh(grid, SWMode(s, j, m))
                limit_n, _ = pole_limit_extrapolate(f, NORTH)
                want_n = (-1.0) ** h * amp if m == h else 0.0
                limit_s, _ = pole_limit_extrapolate(f, SOUTH)
                want_s = (-1.0) ** j * amp if m == -h else 0.0
                worst = max(worst, abs(limit_n - want_n), abs(limit_s - want_s))
    return _gate("4 pole asymptotics, h in {1,2}, j <= 6", worst, tol)


def check_rotation_split_lemma():
    """5: projected spin plus projected orbital equals the rotation generator."""
    tol = 1e-5
    rng = np.random.default_rng(0)
    band = 8
    worst = 0.0
    for h in (1, 2):
        work = make_grid(band + h + 4)
        for _ in range(20):
            f = synthesize(_random_coefficients(rng, -h, band), work)
            sec = embed(f)
            sec = section_scale(1.0 / section_norm(sec), sec)
            spin = apply_projected_spin(sec)
            orb = apply_projected_orbital(sec)
            for a, axis in enumerate(AXES):
                gen = apply_J_rotation(sec, axis)
                d = spin[a].components + orb[a].components - gen.components
                worst = max(worst, float(np.abs(d).max()))
    return _gate("5 split lemma on 20 random sections, h in {1,2}", worst, tol)


def check_commutator_structure():
    """6: nonstandard commutators hold; the plain SO(3) relations fail."""
    tol = 1e-5
    rng = np.random.default_rng(0)
    band = 8
    work = make_grid(band + 1 + 4)
    sections = []
    for _ in range(10):
        sec = embed(synthesize(_random_coefficients(rng, -1, band), work))
        sections.append(section_scale(1.0 / section_norm(sec), sec))
    report = commutator_report(1, sections, floor=0.1)
    resid = max(report["identity_residuals"].values())
    ok = resid <= tol and report["defects_exceed_floor"]
    detail = (
        f"defects par={report['defects']['par']:.3f}"
        f" perp={report['defects']['perp']:.3f} vs floor 0.1"
    )
    return Result("6 commutator structure, h=1, 10 sections", resid, tol, ok, detail)


def check_multiplet_spectra():
    """7: closed-form spectra are exact; the factor search returns exactly
    the skip-two orbital ladder for the massless helicity-1 tower."""
    mismatches = 0
    for h in range(4):
        sp = massless_spectrum(h, 20)
        for j in range(21):
            if sp.multiplicity(j) != (1 if j >= h else 0):
                mismatches += 1
    for s in range(4):
        sp = massive_spectrum(s, 20)
        for j in range(21):
            if sp.multiplicity(j) != (2 * j + 1 if j < s else 2 * s + 1):
                mismatches += 1
    sols = [
        dict(sol.sorted_items())
        for sol in factor_search(massless_spectrum(1, 12), 1, l_max=12)
    ]
    unique = sols == [SKIP_TWO]
    detail = ""
    if not unique:
        detail = (
            f"search returned {len(sols)} window-valid spectra,"
            f" skip-two ladder {'included' if SKIP_TWO in sols else 'missing'}"
        )
    return Result(
        "7 multiplet spectra exact and skip-two factorization unique",
        float(mismatches + (0 if unique else 1)),
        0.0,
        mismatches == 0 and unique,
        detail,
    )


def check_transform_multiplet_counts():
    """8: transform mode counts equal (2j+1) times the massless multiplicity."""
    mismatches = 0
    for h in range(4):
        counts = mode_counts(-h, 12)
        sp = massless_spectrum(h, 12)
        for j in range(13):
            if counts.get(j, 0) != (2 * j + 1) * sp.multiplicity(j):
                mismatches += 1
    return _gate("8 transform counts match multiplet dimensions", float(mismatches), 0.0)


CHECKS = (
    check_orthonormality,
    check_operator_eigenvalues,
    check_transform_round_trip,
    check_pole_asymptotics,
    check_rotation_split_lemma,
    check_commutator_structure,
    check_multiplet_spectra,
    check_transform_multiplet_counts,
)


# ------------------------------------------------------------- pytest surface

def _assert_gate(result):
    assert result.passed, (
        f"{result.label}: residual {result.residual:.3e} vs tolerance"
        f" {result.tolerance:.1e} {result.detail}"
    )


def test_mode_orthonormality_gate():
    _assert_gate(check_orthonormality())


def test_operator_eigenvalue_gate():
    _assert_gate(check_operator_eigenvalues())


def test_transform_round_trip_gate():
    _assert_gate(check_transform_round_trip())


def test_pole_asymptotics_gate():
    _assert_gate(check_pole_asymptotics())


def test_rotation_split_lemma_gate():
    _assert_gate(check_rotation_split_lemma())


def test_commutator_structure_gate():
    _assert_gate(check_commutator_structure())


def test_multiplet_spectra_and_skip_two_membership():
    # green half of check 7: formulas exact, skip-two ladder found first
    for h in range(4):
        sp = massless_spectrum(h, 20)
        assert all(sp.multiplicity(j) == (1 if j >= h else 0) for j in range(21))
    for s in range(4):
        sp = massive_spectrum(s, 20)
        assert all(
            sp.multiplicity(j) == (2 * j + 1 if j < s else 2 * s + 1)
            for j in range(21)
        )
    sols = [
        dict(sol.sorted_items())
        for sol in factor_search(massless_spectrum(1, 12), 1, l_max=12)
    ]
    assert sols and sols[0] == SKIP_TWO


def test_factor_search_returns_only_the_skip_two_pattern():
    """Deliberately failing uniqueness clause of check 7.

    V_1 (x) V_l = V_{l-1} + V_l + V_{l+1} (V_0 alone for l = 0), so an
    orbital spectrum O = sum o_l V_l factors the massless helicity-1
    tower, every j >= 1 once, exactly when 1 = o_{j-1} + o_j + o_{j+1}
    for j >= 1 and o_1 = 0.  That linear recurrence fixes O from o_0
    alone: o_0 = 1 gives the skip-two ladder l in {0, 3, 6, ...}, and
    o_0 = 0 gives l in {2, 5, 8, ...}, whose triples {1, 2, 3},
    {4, 5, 6}, ... cover every j >= 1 exactly once as well.  Both are
    exact factorizations of the whole tower, with no cutoff involved;
    the search returns both at J in {6, 12, 24}.  Uniqueness as asserted
    here is false outright.  Kept failing rather than weakening the
    assertion or special-casing the second family away.
    """
    sols = [
        dict(sol.sorted_items())
        for sol in factor_search(massless_spectrum(1, 12), 1, l_max=12)
    ]
    assert sols == [SKIP_TWO]


def test_transform_multiplet_count_gate():
    _assert_gate(check_transform_multiplet_counts())


# ---------------------------------------------------------------- standalone

def main():
    failures = 0
    for check in CHECKS:
        r = check()
        status = "PASS" if r.passed else "FAIL"
        line = f"[{status}] {r.label}: max residual {r.residual:.3e}, tolerance {r.tolerance:.1e}"
        if r.detail:
            line += f" ({r.detail})"
        print(line)
        failures += 0 if r.passed else 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
