"""Spin-weighted spherical harmonics as angular-momentum eigenstates.

Stable mode evaluation, quadrature grids and transforms, the helicity
angular-momentum operator suite, embedded polarization-bundle sections,
and integer multiplet bookkeeping, with a verification CLI (swsh).

Importing the package loads none of its modules.  _MODULES lists each
public name under the module that defines it; the first access to a name
imports that module and binds the name here (PEP 562), so numpy and the
numeric modules load only when something uses them.
"""

import importlib

__version__ = "0.1.0"

_MODULES = {
    "errors": (
        "BandLimitExceeded", "DomainError", "GridMismatch", "InsufficientNodes",
        "InvalidMode", "NegativeSpin", "NORTH", "SOUTH", "SearchBudgetExceeded",
        "SpinWeightMismatch", "UnsupportedHelicity", "UnsupportedOrder",
    ),
    "modes": (
        "SWMode", "eval_swsh", "eval_swsh_dtheta", "eval_swsh_pole_limit", "profile",
        "validate_mode",
    ),
    "grid": (
        "FrameField", "GridFunction", "SphereGrid", "apply_gauge", "frame_residual",
        "gauge_rotate_frame", "inner_product", "make_grid", "norm",
        "pole_limit_extrapolate", "read_grid_csv", "sample_swsh", "standard_frame",
        "write_grid_csv",
    ),
    "transform": (
        "CoefficientSet", "analyze", "coefficient_set", "coefficients_from_json",
        "coefficients_to_json", "read_coefficients_json", "synthesize",
        "write_coefficients_json",
    ),
    "operators": (
        "OperatorSpec", "apply_coeff", "apply_grid", "ladder_coefficient",
        "verify_casimir_identity",
    ),
    "bundle": (
        "EmbeddedSection", "VectorOperatorResult", "apply_J_rotation",
        "apply_projected_orbital", "apply_projected_spin", "commutator_report",
        "e_h_tensor", "embed", "extract", "rank1_residual", "section_add",
        "section_norm", "section_scale", "transversality_residual",
    ),
    "multiplets": (
        "MultipletSpectrum", "factor_search", "massive_spectrum", "massless_spectrum",
        "mode_counts", "spectrum", "spectrum_tensor", "spectrum_to_json",
        "tensor_decompose",
    ),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
