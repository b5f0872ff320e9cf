"""Numerical laboratory for j-eigenvalues and j-eigenfunctions of compact
operators between discretized L_p spaces: deflation spectra, series
representations, s-number sandwich bounds, generalized trigonometric
functions with closed-form Hardy norms, and p-compactness covers.

Importing the package loads the solver core only: ``space``, ``oper`` and
``jspec``. The other layers (``series``, ``snum``, ``gtrig``, ``pcpt``) and
their public names load on first access.
"""

from importlib import import_module as _import_module

from .space import (
    ConvergenceError,
    Functional,
    GeometryError,
    Space,
    Vec,
    alber_decompose,
    duality_map,
    inverse_duality_map,
    is_j_orthogonal,
    norm,
    normalized_duality_map,
    pairing,
    semi_inner,
)
from .oper import (
    LinOp,
    adjoint,
    apply,
    apply_adjoint,
    compose,
    hardy,
    hardy_dual,
    identity,
    kernel_op,
    power,
)
from .jspec import (
    DeflationExhausted,
    JSpectrum,
    compute_jspectrum,
    dual_jspectrum,
    extremal_pair,
    konig_report,
    operator_norm,
)

# the public names of each layer that loads on first access
_LAZY = {
    "series": (
        "DegenerateDeflationError",
        "SeriesRep",
        "alpha_p",
        "alpha_p_report",
        "check_decay_condition",
        "double_series",
        "double_series_apply",
        "flag_biorthogonal_series",
        "half_series",
        "hilbert_source_series",
        "hilbert_target_series",
        "hilbertian_series",
        "linearized_series",
    ),
    "snum": (
        "SNumberReport",
        "approx_numbers",
        "approx_numbers_report",
        "eigenvector_bound_check",
        "sandwich_check",
    ),
    "gtrig": (
        "GenTrig",
        "bilap_eigenvalue",
        "bilaplacian_check",
        "hardy_norm_formula",
        "laplacian_residual",
        "laplacian_residual_parts",
        "pi_pq",
    ),
    "pcpt": (
        "Cover",
        "cover_from_basis",
        "hardy_qcompact_demo",
        "ideal_inclusion_demo",
        "sobolev_embedding_demo",
    ),
}
_LAYER_OF = {name: layer for layer, names in _LAZY.items() for name in names}

__all__ = [
    "space", "oper", "jspec", *_LAZY,
    "ConvergenceError", "Functional", "GeometryError", "Space", "Vec",
    "alber_decompose", "duality_map", "inverse_duality_map", "is_j_orthogonal",
    "norm", "normalized_duality_map", "pairing", "semi_inner",
    "LinOp", "adjoint", "apply", "apply_adjoint", "compose", "hardy", "hardy_dual",
    "identity", "kernel_op", "power",
    "DeflationExhausted", "JSpectrum", "compute_jspectrum", "dual_jspectrum",
    "extremal_pair", "konig_report", "operator_norm",
    *_LAYER_OF,
]

__version__ = "0.1.0"


def __getattr__(name):
    """Load a lazy layer, or one of its public names, and keep it here."""
    if name in _LAZY:  # importing a submodule binds it in this namespace
        return _import_module(f".{name}", __name__)
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{layer}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
