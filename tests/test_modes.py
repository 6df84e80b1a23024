"""Harmonic values, derivatives, and pole limits.

Oracles, in order of independence: hand-derived closed forms for low
modes, scipy's associated Legendre functions for the whole s=0 family,
the direct power-form evaluator from conftest for mixed spins, and
central finite differences for the analytic derivatives.
"""

import cmath
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import lpmv

from swsh.errors import NORTH, SOUTH, DomainError, InvalidMode, UnsupportedOrder
from swsh.grid import make_grid, sample_swsh
from swsh.modes import (
    SWMode,
    eval_swsh,
    eval_swsh_dtheta,
    eval_swsh_pole_limit,
    profile,
)

from conftest import reference_swsh

C00 = math.sqrt(1.0 / (4.0 * math.pi))
C1 = math.sqrt(3.0 / (4.0 * math.pi))
C18 = math.sqrt(3.0 / (8.0 * math.pi))

THETA = (0.3, 1.1, math.pi / 2, 2.2, 2.9)
PHI = (0.0, 0.41, 2.0, -1.3)


# ------------------------------------------------------------------ validity

def test_invalid_modes_rejected():
    with pytest.raises(InvalidMode):
        SWMode(-2, 1, 0)  # j < |s|
    with pytest.raises(InvalidMode):
        SWMode(0, 1, 2)  # |m| > j
    with pytest.raises(InvalidMode):
        SWMode(0, -1, 0)
    with pytest.raises(InvalidMode):
        SWMode(0, 1.5, 0)


@pytest.mark.parametrize("label", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_labels_are_not_integers(label):
    for args, name in (((0, label, 0), "j"), ((label, 2, 0), "s"), ((0, 2, label), "m")):
        with pytest.raises(InvalidMode) as info:
            SWMode(*args)
        assert type(info.value) is InvalidMode
        assert str(info.value) == f"{name}={label!r} is not an integer"


@pytest.mark.filterwarnings("ignore::numpy.exceptions.ComplexWarning")
def test_labels_equal_to_ints_of_types_that_do_not_order_make_that_mode():
    # an np.complex128 label does not order against a Fraction or a Decimal,
    # so the labels are compared as ints, and each message names them as given
    for m in (Fraction(1), Decimal(1)):
        mode = SWMode(0, np.complex128(2), m)
        assert mode == SWMode(0, 2, 1)
        with pytest.raises(InvalidMode) as info:
            SWMode(0, np.complex128(2), 3 * m)
        assert str(info.value) == f"invalid mode: |m| > j (j={np.complex128(2)}, m={3 * m})"
        with pytest.raises(InvalidMode) as info:
            SWMode(3 * m, np.complex128(2), 0)
        assert str(info.value) == f"invalid mode: j < |s| (j={np.complex128(2)}, s={3 * m})"


@pytest.mark.filterwarnings("ignore::numpy.exceptions.ComplexWarning")
def test_labels_equal_to_ints_evaluate_as_the_int_mode():
    # SWMode stores its labels as ints, so every evaluator reads the int mode
    grid = make_grid(3)
    theta, phi = np.array([0.3, 1.1, 2.9]), np.array([0.41, -1.3, 2.0])

    def outputs(mode):
        return [
            eval_swsh(mode, 0.7, 0.3),
            eval_swsh(mode, theta, phi),
            eval_swsh_dtheta(mode, theta, phi, order=1),
            eval_swsh_dtheta(mode, theta, phi, order=2),
            sample_swsh(grid, mode).samples,
            eval_swsh_pole_limit(mode, NORTH),
            eval_swsh_pole_limit(mode, SOUTH),
        ]

    for s, j, m in ((-1, 2, 1), (1, 3, 1), (0, 2, -2)):
        want = outputs(SWMode(s, j, m))
        for twin in (Decimal, Fraction, np.complex128):
            mode = SWMode(twin(s), twin(j), twin(m))
            assert (type(mode.s), type(mode.j), type(mode.m)) == (int, int, int)
            assert type(sample_swsh(grid, mode).spin_weight) is int
            for got, ref in zip(outputs(mode), want):
                assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


def test_poles_refused():
    with pytest.raises(DomainError):
        eval_swsh(SWMode(0, 0, 0), 0.0, 0.0)
    with pytest.raises(DomainError):
        eval_swsh(SWMode(0, 0, 0), math.pi, 0.0)
    with pytest.raises(DomainError):
        eval_swsh(SWMode(0, 1, 0), np.array([1.0, math.pi]), 0.0)


# --------------------------------------------------------------- hand values

def test_constant_mode_value():
    got = eval_swsh(SWMode(0, 0, 0), 1.0, 0.3)
    assert got == pytest.approx(0.28209479177387814 + 0j, abs=1e-16)


def test_equator_zero_of_cos_profile():
    # float pi/2 misses the exact equator by ~6e-17, so allow one ulp of slack
    assert abs(eval_swsh(SWMode(0, 1, 0), math.pi / 2, 0.0)) < 5e-16


@pytest.mark.parametrize("theta", THETA)
@pytest.mark.parametrize("phi", PHI)
def test_low_mode_closed_forms(theta, phi):
    # derived by hand from the defining sum
    cases = [
        ((0, 1, 0), C1 * math.cos(theta)),
        ((0, 1, 1), -C18 * math.sin(theta) * cmath.exp(1j * phi)),
        ((-1, 1, 1), -C1 * math.cos(theta / 2) ** 2 * cmath.exp(1j * phi)),
        ((-1, 1, 0), -C18 * math.sin(theta)),
        ((-1, 1, -1), -C1 * math.sin(theta / 2) ** 2 * cmath.exp(-1j * phi)),
    ]
    for (s, j, m), want in cases:
        got = eval_swsh(SWMode(s, j, m), theta, phi)
        assert got == pytest.approx(want, abs=1e-15)


def test_north_approach_of_spin_minus1_j1_m1():
    phi = 0.77
    want = -C1 * cmath.exp(1j * phi)
    for theta in (1e-3, 1e-5, 1e-7):
        got = eval_swsh(SWMode(-1, 1, 1), theta, phi)
        assert abs(got - want) < 3 * theta  # linear approach rate


# ----------------------------------------------------------- family oracles

def ordinary_sph(j, m, theta, phi):
    am = abs(m)
    norm = math.sqrt(
        (2 * j + 1) / (4 * math.pi) * math.factorial(j - am) / math.factorial(j + am)
    )
    val = norm * lpmv(am, j, math.cos(theta)) * cmath.exp(1j * am * phi)
    if m < 0:
        val = (-1) ** am * val.conjugate()
    return val


def test_s0_reduces_to_associated_legendre():
    worst = 0.0
    for j in range(0, 17):
        for m in range(-j, j + 1):
            for theta in (0.3, 1.1, 2.2):
                got = eval_swsh(SWMode(0, j, m), theta, 1.7)
                worst = max(worst, abs(got - ordinary_sph(j, m, theta, 1.7)))
    assert worst < 1e-12


def test_matches_reference_power_sum(rng):
    worst = 0.0
    for _ in range(120):
        s = int(rng.integers(-3, 4))
        j = int(rng.integers(abs(s), 13))
        m = int(rng.integers(-j, j + 1))
        theta = float(rng.uniform(0.05, math.pi - 0.05))
        phi = float(rng.uniform(0, 2 * math.pi))
        got = eval_swsh(SWMode(s, j, m), theta, phi)
        worst = max(worst, abs(got - reference_swsh(s, j, m, theta, phi)))
    assert worst < 1e-11  # the reference itself cancels in plain doubles


def test_conjugation_symmetry():
    theta, phi = 0.83, 0.41
    for s in range(-2, 3):
        for j in range(abs(s), abs(s) + 4):
            for m in range(-j, j + 1):
                lhs = eval_swsh(SWMode(s, j, m), theta, phi).conjugate()
                rhs = (-1) ** (s + m) * eval_swsh(SWMode(-s, j, -m), theta, phi)
                assert abs(lhs - rhs) < 1e-12


def test_phi_factorization():
    mode = SWMode(-2, 7, 3)
    theta = 1.234
    base = eval_swsh(mode, theta, 0.0)
    for phi in PHI:
        val = eval_swsh(mode, theta, phi) * cmath.exp(-1j * mode.m * phi)
        assert abs(val - base) < 1e-14


def test_broadcasting_shapes():
    theta = np.linspace(0.1, 3.0, 5)
    phi = np.linspace(0.0, 6.0, 5)
    out = eval_swsh(SWMode(-1, 2, 1), theta, phi)
    assert out.shape == (5,)
    out2 = eval_swsh(SWMode(-1, 2, 1), theta[:, None], phi[None, :])
    assert out2.shape == (5, 5)


# ---------------------------------------------------------------- derivatives

def test_derivative_of_constant_is_zero():
    assert eval_swsh_dtheta(SWMode(0, 0, 0), 1.0, 0.5, order=1) == 0


def test_derivative_closed_form_at_equator():
    got = eval_swsh_dtheta(SWMode(0, 1, 0), math.pi / 2, 0.0, order=1)
    assert got == pytest.approx(-C1 + 0j, abs=1e-15)


def test_derivative_against_finite_differences():
    step = 1e-5
    mode = SWMode(-1, 3, 2)
    theta, phi = 1.1, 0.7
    got = eval_swsh_dtheta(mode, theta, phi, order=1)
    fd = (
        eval_swsh(mode, theta + step, phi) - eval_swsh(mode, theta - step, phi)
    ) / (2 * step)
    assert abs(got - fd) <= 1e-7 * abs(fd)


def test_second_derivative_against_finite_differences():
    step = 1e-4
    mode = SWMode(2, 6, -3)
    theta, phi = 0.9, 1.9
    got = eval_swsh_dtheta(mode, theta, phi, order=2)
    f = lambda t: eval_swsh(mode, t, phi)
    fd = (f(theta + step) - 2 * f(theta) + f(theta - step)) / step**2
    assert abs(got - fd) <= 1e-5 * max(1.0, abs(fd))


def test_unsupported_order():
    with pytest.raises(UnsupportedOrder):
        eval_swsh_dtheta(SWMode(0, 1, 0), 1.0, 0.0, order=3)


@pytest.mark.parametrize("order", [-1, 1.5, 3])
def test_profile_rejects_unsupported_orders(order):
    with pytest.raises(UnsupportedOrder):
        profile(0, 2, 0, 0.5, order=order)


def test_derivative_refuses_poles():
    with pytest.raises(DomainError):
        eval_swsh_dtheta(SWMode(0, 1, 0), 0.0, 0.0, order=1)


# ---------------------------------------------------------------- pole limits

def test_pole_limit_contract_values():
    assert eval_swsh_pole_limit(SWMode(-1, 1, 1), NORTH) == pytest.approx(
        -0.48860251190291992 + 0j, abs=1e-16
    )
    assert eval_swsh_pole_limit(SWMode(-1, 2, -1), SOUTH) == pytest.approx(
        math.sqrt(5 / (4 * math.pi)) + 0j, abs=1e-16
    )
    assert eval_swsh_pole_limit(SWMode(-1, 2, 0), NORTH) == 0


def test_pole_limit_sign_pattern():
    for s in range(-3, 4):
        for j in range(abs(s), abs(s) + 3):
            amp = math.sqrt((2 * j + 1) / (4 * math.pi))
            north = eval_swsh_pole_limit(SWMode(s, j, -s), NORTH)
            south = eval_swsh_pole_limit(SWMode(s, j, s), SOUTH)
            assert north == pytest.approx((-1) ** s * amp, abs=1e-16)
            assert south == pytest.approx((-1) ** j * amp, abs=1e-16)


def test_pole_limit_matches_evaluation_nearby():
    # the advertised limit is the actual limit of eval_swsh
    for s, j in ((-1, 1), (-2, 3), (1, 2), (2, 4)):
        near = eval_swsh(SWMode(s, j, -s), 1e-7, 0.0)
        lim = eval_swsh_pole_limit(SWMode(s, j, -s), NORTH)
        assert abs(near - lim) < 1e-6
        near_s = eval_swsh(SWMode(s, j, s), math.pi - 1e-7, 0.0)
        lim_s = eval_swsh_pole_limit(SWMode(s, j, s), SOUTH)
        assert abs(near_s - lim_s) < 1e-6


def test_pole_limit_zero_off_pattern():
    for m in (-2, 0, 2):
        assert eval_swsh_pole_limit(SWMode(-1, 2, m), NORTH) == 0
    for m in (-2, 0, 2):
        if m != -1:
            assert eval_swsh_pole_limit(SWMode(-1, 2, m), SOUTH) == 0


def test_pole_name_validation():
    with pytest.raises(ValueError):
        eval_swsh_pole_limit(SWMode(0, 1, 0), "equator")


def test_profile_is_real_valued():
    vals = profile(-2, 9, 4, np.linspace(0.1, 3.0, 7))
    assert vals.dtype == np.float64
