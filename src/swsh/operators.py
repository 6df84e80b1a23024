"""Angular-momentum operators for helicity eigenstates, two ways.

Coefficient space: the exact diagonal and ladder actions as scalings of the
dense coefficient matrix (apply_coeff).
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
from .transform import COEFF_CLIP, CoefficientSet, analysis_matrix

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
    """Exact action of the operator on mode coefficients.

    Each kind scales the dense matrix A[m + L, j]: J_z, J^2 and helicity
    entrywise, the ladders after shifting every row m to m +- 1.
    """
    _check_spin(op, c.spin_weight)
    a = c.matrix
    L = a.shape[1] - 1
    j = np.arange(L + 1)
    m = np.arange(-L, L + 1)[:, None]
    if op.kind == "Jz":
        out = m * a
    elif op.kind in ("Jplus", "Jminus"):
        sign = +1 if op.kind == "Jplus" else -1
        moved = np.sqrt(np.maximum((j - sign * m) * (j + 1 + sign * m), 0)) * a
        out = np.zeros_like(a)
        if sign > 0:
            out[1:] = moved[:-1]
        else:
            out[:-1] = moved[1:]
    elif op.kind == "Jsquared":
        out = j * (j + 1) * a
    else:  # Helicity
        out = -c.spin_weight * a
    out[~(np.abs(out) >= COEFF_CLIP)] = 0.0
    return CoefficientSet._wrap(c.spin_weight, c.band_limit, out)


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
    rhs = apply_coeff(jm, apply_coeff(jp, c)).matrix + apply_coeff(jz, zc).matrix + zc.matrix
    diff = lhs.matrix - rhs
    # hypot rounds as Python's complex abs does; np.abs can differ by an ulp
    return float(np.hypot(diff.real, diff.imag).max())
