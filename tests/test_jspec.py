import numpy as np
import pytest
from scipy.linalg import svdvals

from jspectral import (
    ConvergenceError,
    DeflationExhausted,
    LinOp,
    Space,
    Vec,
    adjoint,
    compute_jspectrum,
    dual_jspectrum,
    extremal_pair,
    hardy,
    hardy_norm_formula,
    konig_report,
    operator_norm,
)
from jspectral import jspec, space
from jspectral.jspec import _ascent, _constraint_projector
from jspectral.space import _lp_norm


def classical_volterra_values(n):
    return 2.0 / ((2 * np.arange(1, n + 1) - 1) * np.pi)


def test_extremal_hilbert_case_matches_svd(hardy_l2, l2_256):
    lam, x, res = extremal_pair(hardy_l2, (), seed=0, tol=1e-10, restarts=3)
    sv = svdvals(hardy_l2.dense())[0]  # equal weights: scaled matrix == matrix
    assert lam == pytest.approx(sv, rel=1e-9)
    assert lam == pytest.approx(2 / np.pi, rel=1e-5)
    assert res <= 1e-10
    # extremal is the first cosine mode
    want = np.cos(np.pi * l2_256.nodes / 2)
    want /= _lp_norm(want, l2_256.weights, 2.0)
    assert np.max(np.abs(x.coeffs - want)) <= 1e-4


def test_extremal_diagonal_matrix():
    sp = Space.sequence(2, 2.0)
    T = LinOp(np.diag([3.0, 1.0]), sp, sp)
    lam, x, res = extremal_pair(T, (), seed=1, tol=1e-12, restarts=4)
    assert lam == pytest.approx(3.0, rel=1e-12)
    assert abs(x.coeffs[0]) == pytest.approx(1.0, rel=1e-10)
    assert abs(x.coeffs[1]) <= 1e-8


def test_extremal_mixed_norm_matches_closed_form(hardy_l3_l2):
    lam, x, res = extremal_pair(hardy_l3_l2, (), seed=0, tol=1e-9, restarts=4)
    assert lam == pytest.approx(hardy_norm_formula(3.0), rel=1e-5)
    assert res <= 1e-9


def test_extremal_nonconvergence_error(hardy_l2):
    with pytest.raises(ConvergenceError) as err:
        extremal_pair(hardy_l2, (), seed=0, tol=1e-300, restarts=1, fp_max=5,
                      ga_max=5)
    assert err.value.residual is not None


def test_extremal_zero_operator_signals_termination():
    sp = Space.uniform(16, 2.0)
    T = LinOp(np.zeros((16, 16)), sp, sp)
    with pytest.raises(DeflationExhausted):
        extremal_pair(T, (), seed=0)


def test_jspectrum_hilbert_levels_match_singular_values(hardy_l2):
    js = compute_jspectrum(hardy_l2, 6, tol=1e-9, seed=0, restarts=4)
    sv = svdvals(hardy_l2.dense())[:6]
    assert np.max(np.abs(np.array(js.lambdas) - sv) / sv) <= 1e-8
    # classical values within the midpoint discretization error at n = 256
    ref = classical_volterra_values(6)
    assert np.max(np.abs(np.array(js.lambdas) - ref) / ref) <= 5e-4
    assert all(js.converged)
    assert all(r <= 1e-9 for r in js.residuals)
    # nu = lambda^2
    assert np.allclose(js.nus, np.array(js.lambdas) ** 2)


def test_jspectrum_rank_three_stops_after_three_levels():
    sp = Space.sequence(6, 2.0)
    rng = np.random.default_rng(4)
    M = sum(np.outer(rng.standard_normal(6), rng.standard_normal(6)) for _ in range(3))
    T = LinOp(M, sp, sp)
    js = compute_jspectrum(T, 5, tol=1e-8, seed=0, restarts=6)
    assert js.n_levels == 3
    assert "terminated" in js.meta


def test_jspectrum_semi_orthogonality_tables(hardy_l3_l2):
    js = compute_jspectrum(hardy_l3_l2, 4, tol=1e-9, seed=0, restarts=4)
    for side in ("x", "y"):
        S = js.semi_orth_table(side)
        for r in range(4):
            for s in range(r, 4):
                assert abs(S[r, s] - (r == s)) <= 1e-6
    # mapping of deflated domain subspaces into codomain subspaces
    assert max(js.meta["mapping_check"]) <= 1e-6


def test_jspectrum_lambda_decreasing(hardy_l3_l2):
    js = compute_jspectrum(hardy_l3_l2, 4, tol=1e-9, seed=0, restarts=4)
    lams = js.lambdas
    assert all(lams[i + 1] <= lams[i] * (1 + 1e-7) for i in range(len(lams) - 1))


def test_sign_flip_leaves_lambda_unchanged(hardy_l3_l2):
    lam, x, _ = extremal_pair(hardy_l3_l2, (), seed=0, tol=1e-9, restarts=2)
    flip = Vec(-x.coeffs, x.space)
    out = hardy_l3_l2.apply_coeffs(flip.coeffs)
    assert _lp_norm(out, hardy_l3_l2.cod.weights, 2.0) == pytest.approx(lam, rel=1e-12)


def test_grid_refinement_stability():
    lams = []
    for n in (128, 256):
        dom = Space.uniform(n, 3.0)
        cod = Space.uniform(n, 2.0)
        lams.append(operator_norm(hardy(dom, cod), tol=1e-9, seed=0))
    # second-order quadrature: the change between grids stays tiny
    assert abs(lams[1] - lams[0]) <= 1e-4 * lams[1]


def test_dual_jspectrum_hilbert_case_is_self_dual(hardy_l2):
    js = compute_jspectrum(hardy_l2, 4, tol=1e-9, seed=0, restarts=4)
    jsd = dual_jspectrum(hardy_l2, 4, tol=1e-9, seed=1, restarts=4, primal=js)
    assert np.max(np.abs(np.array(js.lambdas) - np.array(jsd.lambdas))) <= 1e-8
    assert jsd.meta["first_dual_vector_dev"] <= 1e-7


def test_dual_jspectrum_mixed_norm_duality(hardy_l3_l2):
    js = compute_jspectrum(hardy_l3_l2, 4, tol=1e-9, seed=0, restarts=4)
    jsd = dual_jspectrum(hardy_l3_l2, 4, tol=1e-9, seed=1, restarts=4, primal=js)
    assert max(jsd.meta["lambda_match"]) <= 1e-6
    assert jsd.meta["first_dual_vector_dev"] <= 1e-7
    # the dual representatives carry unit quotient norm by construction and
    # full dual norm at least one
    for y in jsd.ys:
        assert _lp_norm(y.coeffs, y.space.weights, y.space.p / (y.space.p - 1)) + 1e-9 >= 1.0


def test_konig_diagonal_is_constant():
    sp = Space.sequence(3, 2.0)
    T = LinOp(np.diag([0.9, 0.5, 0.1]), sp, sp)
    vals = konig_report(T, 1, 6, tol=1e-11, seed=0)["values"]
    assert np.max(np.abs(np.array(vals) - 0.9)) <= 1e-9


def test_konig_jordan_block_trend():
    sp = Space.sequence(2, 2.0)
    T = LinOp(np.array([[0.5, 1.0], [0.0, 0.5]]), sp, sp)
    rep = konig_report(T, 1, 12, tol=1e-11, seed=0)
    vals = rep["values"]
    assert rep["reference"] == pytest.approx(0.5, abs=1e-12)
    # decreasing trend toward the spectral radius, staying above it
    assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))
    assert all(v > 0.5 for v in vals)
    # independent oracle: direct singular values of the powers
    for k in (1, 5, 12):
        Tk = np.linalg.matrix_power(T.matrix, k)
        assert vals[k - 1] == pytest.approx(svdvals(Tk)[0] ** (1 / k), rel=1e-8)


def test_konig_quasinilpotent_volterra_decays():
    sp = Space.uniform(128, 2.0)
    T = hardy(sp, sp)
    vals = konig_report(T, 1, 4, tol=1e-9, seed=0, restarts=2)["values"]
    assert vals[0] == pytest.approx(2 / np.pi, rel=1e-3)
    # trend toward the zero spectrum (||H^k||^(1/k) decays like 1/k)
    assert all(vals[i + 1] < vals[i] for i in range(3))
    assert vals[3] < 0.65 * vals[0]
    rep = konig_report(T, 1, 1, tol=1e-9, seed=0, restarts=2)
    assert rep["reference"] <= 0.05  # eigenvalues of the discretized matrix


def test_jspectrum_export_formats(hardy_l2):
    js = compute_jspectrum(hardy_l2, 2, tol=1e-9, seed=0, restarts=2)
    doc = js.to_json()
    assert '"lambdas"' in doc and '"xs"' in doc
    table = js.to_csv()
    assert table.splitlines()[0] == "level,lambda,residual"
    assert len(table.splitlines()) == 3


class CountingOp(LinOp):
    """Dense operator that counts its forward and adjoint applications."""

    __slots__ = ("forward", "backward")

    def __init__(self, matrix, dom, cod):
        super().__init__(matrix, dom, cod)
        self.forward = 0
        self.backward = 0

    def apply_coeffs(self, coeffs):
        self.forward += 1
        return super().apply_coeffs(coeffs)

    def apply_adjoint_coeffs(self, coeffs):
        self.backward += 1
        return super().apply_adjoint_coeffs(coeffs)


def _applications_per_fixed_point_step(run, T):
    counts = []
    for fp_max in (3, 4):
        T.forward = T.backward = 0
        run(fp_max)
        counts.append((T.forward, T.backward))
    return counts[1][0] - counts[0][0], counts[1][1] - counts[0][1]


def test_fixed_point_step_costs_one_apply_and_one_adjoint_primal(hardy_l3_l2):
    T = CountingOp(hardy_l3_l2.dense(), hardy_l3_l2.dom, hardy_l3_l2.cod)

    def run(fp_max):
        with pytest.raises(ConvergenceError):
            extremal_pair(T, (), seed=0, tol=1e-300, restarts=1, fp_max=fp_max,
                          ga_max=0)

    assert _applications_per_fixed_point_step(run, T) == (1, 1)


def test_fixed_point_step_costs_one_apply_and_one_adjoint_quotient(hardy_l3_l2):
    S0 = adjoint(hardy_l3_l2)
    S = CountingOp(S0.dense(), S0.dom, S0.cod)
    M = np.random.default_rng(3).standard_normal((S.cod.dim, 1))
    project, _ = _constraint_projector(S, [])

    def run(fp_max):
        out = _ascent(S, project, [], np.ones(S.dom.dim), 1e-300, 0.0, fp_max, 0, M)
        assert out is not None and not out[3]

    assert _applications_per_fixed_point_step(run, S) == (1, 1)


def test_fixed_point_step_takes_three_norms(hardy_l3_l2, monkeypatch):
    # ||J~_Y y||, ||J_X r|| and J~_X x reuse norms in hand: one norm for the
    # new iterate, one for its image and one for the stall measure
    calls = []

    def counted(*args):
        calls.append(args)
        return _lp_norm(*args)

    monkeypatch.setattr(space, "_lp_norm", counted)
    monkeypatch.setattr(jspec, "_lp_norm", counted)
    counts = []
    for fp_max in (3, 4):
        calls.clear()
        with pytest.raises(ConvergenceError):
            extremal_pair(hardy_l3_l2, (), seed=0, tol=1e-300, restarts=1,
                          fp_max=fp_max, ga_max=0)
        counts.append(len(calls))
    assert counts[1] - counts[0] == 3
