"""Shared test fixtures and the independent reference evaluator.

reference_swsh evaluates the closed-form sum whose j-recurrence the
library climbs, by plain power arithmetic (float binomials, ** powers, no
log scale, no compensated accumulation). It is deliberately a different
code path: it loses accuracy beyond j ~ 20 but is more than good enough
to catch any structural bug in the library's recurrence at moderate j.
horner_reference evaluates the same sum accurately up to j = 64.
"""

import cmath
import math

import numpy as np
import pytest


def reference_swsh(s, j, m, theta, phi):
    """Direct power-form evaluation of the spin-weighted harmonic."""
    pref = math.sqrt(
        math.factorial(j + m)
        * math.factorial(j - m)
        * (2 * j + 1)
        / (4.0 * math.pi * math.factorial(j + s) * math.factorial(j - s))
    )
    c = math.cos(theta / 2.0)
    sn = math.sin(theta / 2.0)
    tot = 0.0
    for q in range(max(0, m - s), min(j - s, j + m) + 1):
        tot += (
            math.comb(j - s, q)
            * math.comb(j + s, q + s - m)
            * (-1) ** (j - q - s - m)
            * c ** (2 * q + s - m)
            * sn ** (2 * j - 2 * q - s + m)
        )
    return pref * tot * cmath.exp(1j * m * phi)


@pytest.fixture
def rng():
    return np.random.default_rng(2026)


def random_entries(rng, s, band_limit, count=12):
    """Random sparse (j, m) -> amplitude dict for a valid coefficient set."""
    entries = {}
    for _ in range(count):
        j = int(rng.integers(abs(s), band_limit + 1))
        m = int(rng.integers(-j, j + 1))
        entries[(j, m)] = complex(rng.normal(), rng.normal())
    return entries
