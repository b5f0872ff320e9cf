"""Numerical laboratory for j-eigenvalues and j-eigenfunctions of compact
operators between discretized L_p spaces: deflation spectra, series
representations, s-number sandwich bounds, generalized trigonometric
functions with closed-form Hardy norms, and p-compactness covers.
"""

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
from .series import (
    DegenerateDeflationError,
    SeriesRep,
    alpha_p,
    alpha_p_report,
    check_decay_condition,
    double_series,
    double_series_apply,
    flag_biorthogonal_series,
    half_series,
    hilbert_source_series,
    hilbert_target_series,
    hilbertian_series,
    linearized_series,
)
from .snum import (
    SNumberReport,
    approx_numbers,
    approx_numbers_report,
    eigenvector_bound_check,
    sandwich_check,
)
from .gtrig import (
    GenTrig,
    bilap_eigenvalue,
    bilaplacian_check,
    hardy_norm_formula,
    laplacian_residual,
    laplacian_residual_parts,
    pi_pq,
)
from .pcpt import (
    Cover,
    cover_from_basis,
    hardy_qcompact_demo,
    ideal_inclusion_demo,
    sobolev_embedding_demo,
)

__version__ = "0.1.0"
