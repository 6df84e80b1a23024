"""Angular-momentum operators for helicity eigenstates, two ways.

Coefficient space: exact integer/surd arithmetic on mode labels (apply_coeff).
Grid space: the actual differential expressions evaluated with analytic
theta-derivatives (apply_grid), which take their profiles and derivative
profiles from the per-grid mode tables of tables.py.  The two are
cross-validated in tests; apply_grid never shortcuts through the known
ladder action, since the point of having it is to confirm that action
independently.

The operator parameter h is always bound to the function's spin weight
as h = -s at call time, so mixed-convention application cannot happen.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BandLimitExceeded, SpinWeightMismatch
from .grid import GridFunction
from .tables import radial_factors, rings_to_grid
from .transform import CoefficientSet, analysis_matrix, coefficient_set

KINDS = ("Jz", "Jplus", "Jminus", "Jsquared", "Helicity")


@dataclass(frozen=True)
class OperatorSpec:
    """One named operator acting on functions of a fixed spin weight."""

    kind: str
    spin_weight: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}; expected one of {KINDS}")
        s = int(self.spin_weight)
        if s != self.spin_weight:
            raise ValueError(f"spin weight must be an integer, got {self.spin_weight!r}")
        object.__setattr__(self, "spin_weight", s)


def ladder_coefficient(j, m, sign):
    """sqrt((j -+ m)(j + 1 +- m)) for J_+ (sign=+1) or J_- (sign=-1)."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    val = (j - sign * m) * (j + 1 + sign * m)
    return math.sqrt(val) if val > 0 else 0.0


def _check_spin(op, spin_weight):
    if op.spin_weight != spin_weight:
        raise SpinWeightMismatch(
            f"operator is bound to spin weight {op.spin_weight},"
            f" function has {spin_weight}"
        )


def apply_coeff(op, c):
    """Exact action of the operator on mode coefficients."""
    _check_spin(op, c.spin_weight)
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
    else:  # Helicity
        h = -c.spin_weight
        for (j, m), v in c.entries.items():
            out[(j, m)] = h * v
    return coefficient_set(c.spin_weight, c.band_limit, out)


def apply_grid(op, f, band_limit=None):
    """Differential action of the operator on grid samples.

    The function is resolved into modes, and the operator's differential
    expression is applied to each m-component sum_j c_jm p_jm(theta)
    exp(i m phi), with the profiles and their analytic theta-derivatives
    taken from the mode tables.
    """
    _check_spin(op, f.spin_weight)
    coeffs = analysis_matrix(f, band_limit=band_limit)
    grid = f.grid
    s = f.spin_weight
    h = -s
    L = coeffs.shape[1] - 1
    m = np.arange(-L, L + 1)[:, None]
    sin = np.sin(grid.theta)
    cot = np.cos(grid.theta) / sin
    p = radial_factors(grid, s, coeffs)
    shift = 0
    if op.kind == "Jz":
        radial = m * p
    elif op.kind == "Helicity":
        radial = h * p
    elif op.kind == "Jsquared":
        dp = radial_factors(grid, s, coeffs, order=1)
        d2p = radial_factors(grid, s, coeffs, order=2)
        pot = (m * m + s * s + 2 * s * m * np.cos(grid.theta)) / sin**2
        radial = -d2p - cot * dp + pot * p
    else:
        shift = +1 if op.kind == "Jplus" else -1
        dp = radial_factors(grid, s, coeffs, order=1)
        radial = shift * dp - m * cot * p + h * p / sin
    return GridFunction(grid, s, rings_to_grid(grid, radial, shift), frame=f.frame)


def verify_casimir_identity(spin_weight, c):
    """Max residual of J^2 = J_- J_+ + J_z^2 + J_z applied to c."""
    if not isinstance(c, CoefficientSet):
        raise TypeError("expected a CoefficientSet")
    _check_spin(OperatorSpec("Jsquared", spin_weight), c.spin_weight)
    jz = OperatorSpec("Jz", spin_weight)
    jp = OperatorSpec("Jplus", spin_weight)
    jm = OperatorSpec("Jminus", spin_weight)
    j2 = OperatorSpec("Jsquared", spin_weight)
    lhs = apply_coeff(j2, c)
    zc = apply_coeff(jz, c)
    rhs_parts = (apply_coeff(jm, apply_coeff(jp, c)), apply_coeff(jz, zc), zc)
    keys = set(lhs.entries)
    for part in rhs_parts:
        keys |= set(part.entries)
    worst = 0.0
    for key in keys:
        rhs = sum(part.entries.get(key, 0j) for part in rhs_parts)
        worst = max(worst, abs(lhs.entries.get(key, 0j) - rhs))
    return worst
