"""Angular-momentum operators for helicity eigenstates, two ways.

Coefficient space: the exact diagonal and ladder actions as scalings of the
dense coefficient matrix (apply_coeff).
Grid space: the actual differential expressions (apply_grid).  J_z, which
is -i d/dphi, and helicity act on each component p_{sjm}(theta) exp(i m phi)
by m and h, so they scale the analysis coefficients, which
tables.mode_synthesis then synthesizes.  J_+, J_- and J^2 each
have a table per grid geometry, spin weight and kind, their action on every
such component, formed once by the differential expression from the
profiles of spins s - 1 .. s + 1 (s +- 2 for J^2) and their theta-derivatives
by the spin-raising relation, and kept in the same byte-bounded cache; an
application is then one contraction with the analysis coefficients and one
DFT matrix product over phi.  The tables never read the known ladder action
in m (_LADDER), since `swsh verify ladder` checks them against it.

The operator parameter h is always bound to the function's spin weight
as h = -s at call time, so mixed-convention application cannot happen.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpinWeightMismatch, as_integer
from .grid import GridFunction
from .modes import J_MAX, _dtheta
from .tables import Operands, band_operands, contract_table, dft_rows, mode_synthesis, phi_synthesis, spin_tables
from .transform import CoefficientSet, _clip, analysis_matrix

KINDS = ("Jz", "Jplus", "Jminus", "Jsquared", "Helicity")
_SHIFTS = {"Jplus": +1, "Jminus": -1}  # the azimuthal order each kind adds; 0 for the rest


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
    return CoefficientSet._wrap(c.spin_weight, c.band_limit, _clip(out))


def apply_grid(op, f, band_limit=None):
    """Differential action of the operator on grid samples.

    The function is resolved into modes, sum_j c_jm p_jm(theta) exp(i m phi)
    for each m.  J_z and helicity scale the coefficients by m and h and
    synthesize them by mode_synthesis; the other kinds sum the operator's
    table, its differential expression applied to every profile, against
    them.
    """
    _check_spin(op, f.spin_weight)
    coeffs = analysis_matrix(f, band_limit=band_limit)
    grid, s, L = f.grid, f.spin_weight, coeffs.shape[1] - 1
    if op.kind in ("Jz", "Helicity"):
        samples = mode_synthesis(grid, s, (np.arange(-L, L + 1)[:, None] if op.kind == "Jz" else -s) * coeffs)
    else:
        ops = _operator_operands(grid, s, op.kind, L)
        samples = phi_synthesis(ops.synthesis, contract_table(ops.table, coeffs))
    return GridFunction._wrap(grid, s, samples, frame=f.frame)


def _operator_operands(grid, s, kind, band_limit):
    """Operands of J_+, J_- or J^2: the read-only [m + L, j, t] table of its action on p_{sjm}(theta_t) exp(i m phi).

    L is band_limit.  Row m + L is the theta factor of the result, whose
    azimuthal factor is exp(i (m +- 1) phi) for the ladders and exp(i m phi)
    for J^2, and the synthesis rows are the DFT rows of those frequencies.
    Cached under ("op", grid geometry, s, kind), built at the grid's band
    and sliced to L by band_operands, as mode tables are.
    """
    return band_operands(("op", grid.geometry_key, s, kind), grid, band_limit, _operator_entry, s, kind)


def _operator_entry(grid, s, kind, top):
    return Operands(_differential_table(grid, s, kind, top), dft_rows(grid, top, _SHIFTS.get(kind, 0)))


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
