"""Angular-momentum operators for helicity eigenstates.

Each kind's exact action on the dense coefficient matrix A[m + L, j] is
defined once, by _action: J_z scales row m by m, J_+ and J_- shift every
row m to m +- 1 with the ladder weights (ladder_shift), J^2 scales column
j by j(j + 1), and helicity scales everything by h.  apply_coeff is that
action on a coefficient set; apply_grid is that action on the analysis of
grid samples, synthesized by tables.mode_synthesis.  The differential
expressions of J_+, J_- and J^2, formed by _differential_table from the
profiles of spins s - 1 .. s + 1 (s +- 2 for J^2) and their
theta-derivatives by the spin-raising relation, are the independent
reference: they never read the known ladder action in m (_LADDER), and
`swsh verify ladder` checks the exact actions against them on every mode.

The operator parameter h is always bound to the function's spin weight
as h = -s at call time, so mixed-convention application cannot happen.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpinWeightMismatch, as_integer
from .grid import GridFunction
from .modes import J_MAX, _dtheta
from .tables import mode_synthesis, spin_tables
from .transform import CoefficientSet, _clip, analysis_matrix

KINDS = ("Jz", "Jplus", "Jminus", "Jsquared", "Helicity")


def _ladder_weights():
    """Read-only W[m + J_MAX - 1, j] = sqrt((j + m)(j - m + 1)), 1 - J_MAX <= m <= J_MAX, 0 off the multiplet.

    Held as complex128, w + 0j, the value numpy multiplies complex
    coefficients by, so a product casts nothing.
    """
    j, m = np.arange(J_MAX + 1), np.arange(1 - J_MAX, J_MAX + 1)[:, None]
    weights = np.sqrt(np.maximum((j + m) * (j - m + 1), 0)).astype(np.complex128)
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
    The result is complex128, also for real a.
    """
    L = a.shape[1] - 1
    weight = _LADDER[J_MAX - L : J_MAX + L, : L + 1]
    weight = weight.reshape(weight.shape + (1,) * (a.ndim - 2))
    out = np.zeros(a.shape, np.complex128)
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


def _action(kind, s, a):
    """The exact action of the kind on coefficients A[m + L, j] of spin weight s, as a fresh matrix.

    J_z scales row m by m, J_+ and J_- shift every row m to m +- 1 by
    ladder_shift, J^2 scales column j by j(j + 1), and helicity scales
    everything by h = -s.
    """
    L = a.shape[1] - 1
    if kind == "Jz":
        return np.arange(-L, L + 1)[:, None] * a
    if kind in ("Jplus", "Jminus"):
        return ladder_shift(a, +1 if kind == "Jplus" else -1)
    if kind == "Jsquared":
        j = np.arange(L + 1)
        return j * (j + 1) * a
    return -s * a


def apply_coeff(op, c):
    """Exact action of the operator on mode coefficients: _action on the dense matrix."""
    _check_spin(op, c.spin_weight)
    out = _action(op.kind, c.spin_weight, c.matrix)
    return CoefficientSet._wrap(c.spin_weight, c.band_limit, _clip(out))


def apply_grid(op, f, band_limit=None):
    """Action of the operator on grid samples, through their analysis.

    The function is resolved into modes, sum_j c_jm p_jm(theta) exp(i m phi)
    for each m, at band_limit (default the grid's); the kind's exact action
    on those coefficients is synthesized by mode_synthesis.  On samples
    band-limited there this is the differential action, which `swsh verify
    ladder` checks against _differential_table.
    """
    _check_spin(op, f.spin_weight)
    s = f.spin_weight
    samples = mode_synthesis(f.grid, s, _action(op.kind, s, analysis_matrix(f, band_limit=band_limit)))
    return GridFunction._wrap(f.grid, s, samples, frame=f.frame)


def _differential_table(grid, s, kind, L):
    """The differential expression of J_+, J_- or J^2 on one spin_tables climb."""
    h = -s
    m = np.arange(-L, L + 1)[:, None, None]
    cos, sin, j = np.cos(grid.theta), np.sin(grid.theta), np.arange(L + 1)[:, None]
    cot = cos / sin
    if kind == "Jsquared":
        spins = np.arange(s - 2, s + 3)
        p = spin_tables(grid, spins, L)
        dp = _dtheta(p[1::2], spins[1::2], j)[0]
        outer = _dtheta(p[::2], spins[::2], j)  # spins s - 1, s + 1
        pot = (m * m + s * s + 2 * s * m * cos) / sin**2
        return -_dtheta(outer, spins[1::2], j)[0] - cot * dp + pot * p[2]
    spins = np.arange(s - 1, s + 2)
    p = spin_tables(grid, spins, L)
    shift = +1 if kind == "Jplus" else -1
    return shift * _dtheta(p[::2], spins[::2], j)[0] - m * cot * p[1] + h * p[1] / sin


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
