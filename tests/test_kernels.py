"""The test reference: term tables and the double-double Horner evaluator.

The library's profiles and tables all come from one j-recurrence; the
tests check it against horner_reference, which evaluates the
closed-form sum instead.  The precision oracle for that
reference is exact rational arithmetic: a term table is a polynomial with
exact dyadic coefficients, so its value at an exactly known (cos, sin)
pair can be computed with Fractions and compared against the
double-double Horner evaluator.  That keeps the reference itself honest.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import horner_reference as horner

MODES = [
    (0, 0, 0),
    (0, 1, 0),
    (-1, 1, 1),
    (-1, 3, -2),
    (2, 5, 4),
    (-2, 8, 0),
    (1, 12, -7),
    (-1, 16, -4),
    (3, 16, 16),
    (0, 24, 11),
]


def table_points(theta):
    flat = np.asarray(theta, dtype=np.float64)
    c = np.cos(0.5 * flat)
    s = np.sin(0.5 * flat)
    u = c * c
    v = s * s
    uside = u <= v
    w = np.where(uside, u / v, v / u)
    return c, s, np.log(c), np.log(s), w, uside


def exact_table_value(table, c, s):
    """Rational-arithmetic value of the table at exact float c, s."""
    cf, sf = Fraction(float(c)), Fraction(float(s))
    total = Fraction(0)
    for r, coeff in enumerate(table.exact):
        total += coeff * cf ** (table.e1 + 2 * r) * sf ** (table.e2 - 2 * r)
    return math.exp(table.lead) * float(total)


@pytest.mark.parametrize("s,j,m", MODES)
def test_exponents_nonnegative_and_homogeneous(s, j, m):
    table = horner.goldberg_terms(s, j, m)
    for _ in range(3):
        top = len(table.exact) - 1
        assert table.e1 >= 0
        assert table.e2 - 2 * top >= 0
        # every term keeps the same total half-angle degree
        if any(coeff != 0 for coeff in table.exact):
            assert table.e1 + table.e2 == 2 * j
        table = horner.differentiate_terms(table)


@pytest.mark.parametrize("s,j,m", MODES)
def test_evaluators_match_exact_rational_sum(s, j, m):
    theta = np.array([0.37, 1.1, math.pi / 2, 2.0, 2.9])
    c, s_, log_c, log_s, w, uside = table_points(theta)
    table = horner.goldberg_terms(s, j, m)
    for order in range(3):
        want = np.array([exact_table_value(table, ci, si) for ci, si in zip(c, s_)])
        scale = max(np.abs(want).max(), 1e-30)
        got_np = horner.eval_table_numpy(table, log_c, log_s, w, uside)
        assert np.abs(got_np - want).max() / scale < 5e-15
        table = horner.differentiate_terms(table)


def test_derivative_of_constant_mode_is_zero():
    table = horner.differentiate_terms(horner.goldberg_terms(0, 0, 0))
    _, _, log_c, log_s, w, uside = table_points(np.array([0.2, 1.3, 3.0]))
    assert np.all(horner.eval_table_numpy(table, log_c, log_s, w, uside) == 0.0)


def test_no_overflow_or_nan_at_table_cap():
    theta = np.linspace(1e-6, math.pi - 1e-6, 301)
    _, _, log_c, log_s, w, uside = table_points(theta)
    for m in (-64, -31, 0, 17, 64):
        table = horner.goldberg_terms(0, 64, m)
        vals = horner.eval_table_numpy(table, log_c, log_s, w, uside)
        assert np.all(np.isfinite(vals))
        # unit-norm harmonics stay O(sqrt(j)) pointwise
        assert np.abs(vals).max() < 50.0


def test_log_factorial_matches_exact():
    for n in (0, 1, 2, 5, 20, 64, 128):
        assert math.isclose(
            horner.log_factorial(n), math.log(math.factorial(n)), rel_tol=1e-14
        )
    with pytest.raises(ValueError):
        horner.log_factorial(-1)
