"""Angular-momentum operators for helicity eigenstates, two ways.

Coefficient space: the exact diagonal and ladder actions as scalings of the
dense coefficient matrix (apply_coeff).
Grid space: the actual differential expressions (apply_grid).  Each
operator has a table per grid geometry, spin weight and kind, its action on
every profile p_{sjm}(theta) exp(i m phi), formed once by the differential
expression from the profiles of spins s - 1 .. s + 1 (s +- 2 for J^2) and
their theta-derivatives by the spin-raising relation, and kept in the same
byte-bounded cache; an application is then one contraction with the
function's analysis coefficients and one DFT matrix product over phi.  The
two are cross-validated in tests; the tables never read the known ladder
action in m (_LADDER), since the point of apply_grid is to confirm it.

The operator parameter h is always bound to the function's spin weight
as h = -s at call time, so mixed-convention application cannot happen.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpinWeightMismatch, as_integer
from .grid import GridFunction
from .modes import J_MAX, _dtheta
from .tables import band_table, contract_table, mode_table, phi_synthesis, spin_tables
from .transform import COEFF_CLIP, CoefficientSet, analysis_matrix

KINDS = ("Jz", "Jplus", "Jminus", "Jsquared", "Helicity")
_SHIFTS = {"Jplus": +1, "Jminus": -1}  # the azimuthal order each kind adds; 0 for the rest


def _ladder_weights():
    """Read-only W[m + J_MAX - 1, j] = sqrt((j + m)(j - m + 1)), 1 - J_MAX <= m <= J_MAX, 0 off the multiplet."""
    j, m = np.arange(J_MAX + 1), np.arange(1 - J_MAX, J_MAX + 1)[:, None]
    weights = np.sqrt(np.maximum((j + m) * (j - m + 1), 0))
    weights.setflags(write=False)
    return weights


_LADDER = _ladder_weights()


@dataclass(frozen=True)
class OperatorSpec:
    """One named operator acting on functions of a fixed spin weight."""

    kind: str
    spin_weight: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}; expected one of {KINDS}")
        object.__setattr__(self, "spin_weight", as_integer(self.spin_weight, "spin weight"))


def ladder_coefficient(j, m, sign):
    """sqrt((j -+ m)(j + 1 +- m)) for J_+ (sign=+1) or J_- (sign=-1)."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    val = (j - sign * m) * (j + 1 + sign * m)
    return math.sqrt(val) if val > 0 else 0.0


def ladder_shift(a, sign):
    """J_+ (sign=+1) or J_- (sign=-1) on coefficients A[m + L, j, ...]; trailing axes pass through.

    Row m, weighted by sqrt((j -+ m)(j +- m + 1)), moves to row m +- 1.
    Both ladders read the rows m = 1 - L .. L and columns j <= L of the
    constant _LADDER, the weight of J_- from row m and of J_+ into it.
    """
    L = a.shape[1] - 1
    weight = _LADDER[J_MAX - L : J_MAX + L, : L + 1]
    weight = weight.reshape(weight.shape + (1,) * (a.ndim - 2))
    out = np.zeros_like(a)
    if sign > 0:
        np.multiply(weight, a[:-1], out=out[1:])
    else:
        np.multiply(weight, a[1:], out=out[:-1])
    return out


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
        out = ladder_shift(a, +1 if op.kind == "Jplus" else -1)
    elif op.kind == "Jsquared":
        out = j * (j + 1) * a
    else:  # Helicity
        out = -c.spin_weight * a
    out[~(np.abs(out) >= COEFF_CLIP)] = 0.0
    return CoefficientSet._wrap(c.spin_weight, c.band_limit, out)


def apply_grid(op, f, band_limit=None):
    """Differential action of the operator on grid samples.

    The function is resolved into modes, and the operator's table, its
    differential expression applied to every profile, is summed against the
    coefficients of each m-component sum_j c_jm p_jm(theta) exp(i m phi).
    """
    _check_spin(op, f.spin_weight)
    coeffs = analysis_matrix(f, band_limit=band_limit)
    grid = f.grid
    table = _operator_table(grid, f.spin_weight, op.kind, coeffs.shape[1] - 1)
    samples = phi_synthesis(grid, contract_table(table, coeffs), _SHIFTS.get(op.kind, 0))
    return GridFunction._wrap(grid, f.spin_weight, samples, frame=f.frame)


def _operator_table(grid, s, kind, band_limit):
    """Read-only [m + L, j, t] table of the operator on p_{sjm}(theta_t) exp(i m phi).

    L is band_limit.  Row m + L is the theta factor of the result, whose
    azimuthal factor is exp(i (m +- 1) phi) for the ladders and exp(i m phi)
    otherwise.  Cached under ("op", grid geometry, s, kind) and grown by
    band_table, as mode tables are.
    """
    return band_table(("op", grid.geometry_key, s, kind), grid, band_limit,
                      lambda top: _differential_table(grid, s, kind, top))


def _differential_table(grid, s, kind, L):
    """The differential expression on the cached mode table (J_z, helicity) or on one spin_tables climb."""
    h = -s
    m = np.arange(-L, L + 1)[:, None, None]
    if kind == "Jz":
        return m * mode_table(grid, s, L)
    if kind == "Helicity":
        return h * mode_table(grid, s, L)
    cos, sin, j = np.cos(grid.theta), np.sin(grid.theta), np.arange(L + 1)[:, None]
    cot = cos / sin
    if kind == "Jsquared":
        spins = np.arange(s - 2, s + 3)
        p = spin_tables(grid, spins, L)
        dp = _dtheta(p, spins, j)  # spins s - 1 .. s + 1
        pot = (m * m + s * s + 2 * s * m * cos) / sin**2
        return -_dtheta(dp, spins[1:-1], j)[0] - cot * dp[1] + pot * p[2]
    spins = np.arange(s - 1, s + 2)
    p = spin_tables(grid, spins, L)
    shift = +1 if kind == "Jplus" else -1
    return shift * _dtheta(p, spins, j)[0] - m * cot * p[1] + h * p[1] / sin


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
