import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import svdvals

from jspectral import (
    ConvergenceError,
    DeflationExhausted,
    Functional,
    GeometryError,
    JSpectrum,
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
from jspectral.oper import scale
from jspectral.space import _jmap, _lp_norm


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
        extremal_pair(hardy_l2, (), seed=0, tol=1e-300, restarts=1, max_iter=10)
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


def _rank_three(c):
    sp = Space.sequence(6, 2.0)
    rng = np.random.default_rng(4)
    M = sum(np.outer(rng.standard_normal(6), rng.standard_normal(6)) for _ in range(3))
    return LinOp(c * M, sp, sp)


@pytest.mark.parametrize("c", [1e6, -1e6, 1e-6])
def test_jspectrum_rank_three_stops_after_three_levels_at_any_scale(c):
    # the vanishing floor scales with T, so the scale of T moves no level
    js = compute_jspectrum(_rank_three(c), 5, tol=1e-8, seed=0, restarts=6)
    assert js.n_levels == 3
    assert "terminated" in js.meta


def test_jspectrum_rank_three_stops_after_three_levels():
    test_jspectrum_rank_three_stops_after_three_levels_at_any_scale(1.0)


@pytest.mark.parametrize("spectrum", [compute_jspectrum, dual_jspectrum])
def test_jspectrum_is_sign_invariant(hardy_l3_l2, spectrum):
    # -T steps through the same iterates as T with the signs of Tx and of the
    # quotient representatives flipped, so every lambda_k is the same number
    lams = [spectrum(T, 4, tol=1e-9, seed=0, restarts=4).lambdas
            for T in (hardy_l3_l2, scale(hardy_l3_l2, -1.0))]
    assert lams[0] == lams[1]


def test_jspectrum_semi_orthogonality_tables(hardy_l3_l2):
    js = compute_jspectrum(hardy_l3_l2, 4, tol=1e-9, seed=0, restarts=4)
    for side in ("x", "y"):
        S = js.semi_orth_table(side)
        for r in range(4):
            for s in range(r, 4):
                assert abs(S[r, s] - (r == s)) <= 1e-6
    # mapping of deflated domain subspaces into codomain subspaces
    assert max(js.meta["mapping_check"]) <= 1e-6


@pytest.mark.parametrize("spectrum", [compute_jspectrum, dual_jspectrum])
def test_semi_orth_table_matches_the_entrywise_pairings(hardy_l3_l2, spectrum):
    # S[r, s] = <v_s, J v_r>, one weighted pairing per entry
    js = spectrum(hardy_l3_l2, 4, tol=1e-9, seed=0, restarts=4)
    for side, vs in (("x", js.xs), ("y", js.ys)):
        want = np.zeros((4, 4))
        for r in range(4):
            w, p = vs[r].space.weights, vs[r].space.p
            jr = _jmap(vs[r].coeffs, w, p)
            for s in range(4):
                want[r, s] = w @ (vs[s].coeffs * jr)
        assert np.max(np.abs(js.semi_orth_table(side) - want)) <= 1e-14


@pytest.mark.parametrize("p, q, n", [(3.0, 2.0, 256), (1.5, 3.0, 256)])
def test_jspectrum_semi_orthogonality_to_rounding(p, q, n):
    # each x_s lies in the polar subspace of x_1, ..., x_{s-1} to rounding,
    # with the correction on the side where the duality map is Lipschitz
    T = hardy(Space.uniform(n, p), Space.uniform(n, q))
    js = compute_jspectrum(T, 4, tol=1e-9, seed=0, restarts=4)
    S = js.semi_orth_table("x")
    assert max(abs(S[r, s]) for r in range(4) for s in range(r + 1, 4)) <= 1e-12


@pytest.mark.parametrize("p, q, n", [(1.5, 3.0, 1024), (1.2, 4.0, 512)])
def test_jspectrum_certifies_deep_levels_for_small_domain_exponent(p, q, n):
    T = hardy(Space.uniform(n, p), Space.uniform(n, q))
    js = compute_jspectrum(T, 6, restarts=8)
    assert js.n_levels == 6
    assert all(r <= 1e-8 for r in js.residuals)


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


def test_extremal_pair_rejects_constraints_off_the_domain_grid():
    T = hardy(Space.uniform(64, 3.0), Space.uniform(64, 2.0))
    for sp in (Space.uniform(32, 3.0), Space.uniform(64, 3.0, b=2.0)):
        with pytest.raises(GeometryError, match="grid of T.dom"):
            extremal_pair(T, [Functional(np.ones(sp.dim), sp)])


@pytest.mark.parametrize("kw, message", [
    (dict(tol=float("nan")), "tol must be finite and positive"),
    (dict(tol=-1.0), "tol must be finite and positive"),
    (dict(tol=0.0), "tol must be finite and positive"),
    (dict(tol=float("inf")), "tol must be finite and positive"),
    (dict(restarts=0), "restarts must be at least 1"),
])
@pytest.mark.parametrize("solve", [
    lambda T, **kw: extremal_pair(T, (), **kw),
    lambda T, **kw: compute_jspectrum(T, 2, **kw),
    lambda T, **kw: dual_jspectrum(T, 2, **kw),
])
def test_solver_rejects_tol_and_restarts_that_cannot_work(hardy_l3_l2, solve, kw, message):
    with pytest.raises(GeometryError, match=message):
        solve(hardy_l3_l2, **kw)


def test_empty_jspectrum_and_derived_fields():
    js = JSpectrum()
    assert (js.n_levels, js.lambdas, js.nus, js.converged, js.meta) == (0, [], [], [], {})
    assert JSpectrum(lambdas=[0.5, 0.25]).nus == [0.25, 0.0625]


def test_jspectrum_nus_converged_and_json_keys(hardy_l3_l2):
    js = compute_jspectrum(hardy_l3_l2, 3, tol=1e-9, seed=0, restarts=2)
    assert js.nus == [lam * lam for lam in js.lambdas]
    assert js.converged == [True] * 3
    doc = json.loads(js.to_json())
    assert set(doc) == {"lambdas", "nus", "residuals", "converged", "xs", "ys", "meta"}
    assert doc["nus"] == js.nus and doc["converged"] == js.converged


def _scripted_levels(monkeypatch, outcomes):
    """Make _best_start return (or raise) the given outcomes, one per level,
    with a constant unit vector as the extremal."""
    outcomes = iter(outcomes)

    def scripted(S, constraints, rng, restarts, tol, max_iter=4600, M=None):
        out = next(outcomes)
        if isinstance(out, Exception):
            raise out
        x = np.ones(S.dom.dim)
        return out, x / _lp_norm(x, S.dom.weights, S.dom.p), 0.0

    monkeypatch.setattr(jspec, "_best_start", scripted)


@pytest.mark.parametrize("spectrum, where", [(compute_jspectrum, "level"),
                                             (dual_jspectrum, "dual level")])
def test_deflation_rejects_a_level_above_the_one_before(hardy_l3_l2, monkeypatch,
                                                        spectrum, where):
    _scripted_levels(monkeypatch, [1.0, 2.0])
    with pytest.raises(ConvergenceError, match=f"^monotonicity violated at {where} 2: "):
        spectrum(hardy_l3_l2, 2, restarts=1)


@pytest.mark.parametrize("spectrum, where", [(compute_jspectrum, "level"),
                                             (dual_jspectrum, "dual level")])
def test_deflation_names_the_level_that_fails(hardy_l3_l2, monkeypatch, spectrum, where):
    _scripted_levels(monkeypatch, [1.0, ConvergenceError("no start", residual=0.5)])
    with pytest.raises(ConvergenceError, match=f"^{where} 2: no start$") as err:
        spectrum(hardy_l3_l2, 3, restarts=1)
    assert err.value.residual == 0.5


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
    for max_iter in (3, 4):
        T.forward = T.backward = 0
        run(max_iter)
        counts.append((T.forward, T.backward))
    return counts[1][0] - counts[0][0], counts[1][1] - counts[0][1]


def test_fixed_point_step_costs_one_apply_and_one_adjoint_primal(hardy_l3_l2):
    T = CountingOp(hardy_l3_l2.dense(), hardy_l3_l2.dom, hardy_l3_l2.cod)

    def run(max_iter):
        with pytest.raises(ConvergenceError):
            extremal_pair(T, (), seed=0, tol=1e-300, restarts=1, max_iter=max_iter)

    assert _applications_per_fixed_point_step(run, T) == (1, 1)


def test_fixed_point_step_costs_one_apply_and_one_adjoint_quotient(hardy_l3_l2):
    S0 = adjoint(hardy_l3_l2)
    S = CountingOp(S0.dense(), S0.dom, S0.cod)
    M = np.random.default_rng(3).standard_normal((S.cod.dim, 1))
    project, B = _constraint_projector(S, [])

    def run(max_iter):
        out = _ascent(S, project, B, [], np.ones((S.dom.dim, 1)), 1e-300, 0.0, max_iter,
                      M)[0]
        assert out is not None and not out[3]

    assert _applications_per_fixed_point_step(run, S) == (1, 1)


def test_fixed_point_step_takes_three_norms(hardy_l3_l2, monkeypatch):
    # J~_Y y and J~_X x reuse norms in hand: one norm for the new iterate,
    # one for its image and one for the certificate's upper bound
    calls = []

    def counted(*args):
        calls.append(args)
        return _lp_norm(*args)

    monkeypatch.setattr(space, "_lp_norm", counted)
    monkeypatch.setattr(jspec, "_lp_norm", counted)
    counts = []
    for max_iter in (3, 4):
        calls.clear()
        with pytest.raises(ConvergenceError):
            extremal_pair(hardy_l3_l2, (), seed=0, tol=1e-300, restarts=1,
                          max_iter=max_iter)
        counts.append(len(calls))
    assert counts[1] - counts[0] == 3


def test_ascent_cold_starts_best_approximation_once_per_start(hardy_l3_l2, monkeypatch):
    # the quotient distance of each gradient starts from the coefficients of
    # the previous iterate; only the first one of a start uses least squares
    S = adjoint(hardy_l3_l2)
    M = np.random.default_rng(3).standard_normal((S.cod.dim, 2))
    project, B = _constraint_projector(S, [])
    cold = []
    inner = jspec.min_norm_coeffs

    def counted(*args, c0=None, **kwargs):
        cold.append(c0 is None)
        return inner(*args, c0=c0, **kwargs)

    monkeypatch.setattr(jspec, "min_norm_coeffs", counted)
    for x0 in (np.ones(S.dom.dim), np.random.default_rng(4).standard_normal(S.dom.dim)):
        cold.clear()
        _ascent(S, project, B, [], x0[:, None], 1e-8, 0.0, 4600, M)
        assert len(cold) > 1
        assert cold[0] and not any(cold[1:])


def test_jspectrum_applies_T_only_to_start_blocks(hardy_l2):
    # the vanishing floor takes its scale from the start block, so no apply is
    # wider than the starts of a level: no O(n^2) pass over identity columns
    widths = []
    H = hardy_l2

    def forward(X):
        widths.append(1 if X.ndim == 1 else X.shape[1])
        return H.apply_coeffs(X)

    T = LinOp._from_kernels(H.dom, H.cod, forward, H.apply_adjoint_coeffs)
    js = compute_jspectrum(T, 4, restarts=2)
    assert js.n_levels == 4
    assert max(widths) <= 2


def test_extremal_certifies_at_grid_2_16():
    # no O(n^2) pass, so one certified extremal at n = 65536 is cheap
    n = 2 ** 16
    T = hardy(Space.uniform(n, 3.0), Space.uniform(n, 2.0))
    lam, _, res = extremal_pair(T, (), restarts=1)
    assert lam == pytest.approx(hardy_norm_formula(3.0), rel=1e-8)
    assert res <= 1e-8


class RecordingOp(LinOp):
    """Dense operator that records ||Tx||_Y / ||x||_X of each column of a
    block at every application."""

    __slots__ = ("ratios",)

    def __init__(self, matrix, dom, cod):
        super().__init__(matrix, dom, cod)
        self.ratios = []

    def apply_coeffs(self, coeffs):
        out = super().apply_coeffs(coeffs)
        self.ratios.append(_lp_norm(out, self.cod.weights, self.cod.p)
                           / _lp_norm(coeffs, self.dom.weights, self.dom.p))
        return out


@settings(max_examples=40)
@given(p=st.floats(1.2, 4.5), q=st.floats(1.2, 4.5), k=st.integers(0, 2),
       seed=st.integers(0, 2**32 - 1))
def test_ascent_never_decreases_lambda(p, q, k, seed):
    # the polar step is monotone by Hoelder's inequality, on any polar subspace
    rng = np.random.default_rng(seed)
    dom, cod = Space.uniform(64, p), Space.uniform(64, q)
    T = RecordingOp(hardy(dom, cod).dense(), dom, cod)
    constraints = rng.standard_normal((k, 64)).T
    project, B = _constraint_projector(T, constraints)
    _ascent(T, project, B, constraints, rng.standard_normal(64)[:, None], 1e-10, 0.0,
            300)
    lams = np.array(T.ratios)
    assert len(lams) > 1
    assert np.all(lams[1:] >= lams[:-1] * (1.0 - 1e-12))


def test_block_step_costs_one_apply_one_adjoint_and_three_norms_for_all_starts(
        hardy_l3_l2, monkeypatch):
    # the starts of a level step as one n x r block, so a step costs the same
    # number of kernel calls and norms for eight starts as for one
    T = CountingOp(hardy_l3_l2.dense(), hardy_l3_l2.dom, hardy_l3_l2.cod)
    norms = []

    def counted(*args):
        norms.append(args)
        return _lp_norm(*args)

    monkeypatch.setattr(space, "_lp_norm", counted)
    monkeypatch.setattr(jspec, "_lp_norm", counted)
    counts = []
    for max_iter in (3, 4):
        T.forward = T.backward = 0
        norms.clear()
        with pytest.raises(ConvergenceError):
            extremal_pair(T, (), seed=0, tol=1e-300, restarts=8, max_iter=max_iter)
        counts.append((T.forward, T.backward, len(norms)))
    assert tuple(b - a for a, b in zip(*counts)) == (1, 1, 3)


def _starts(n, r, rng):
    return np.vstack([np.ones(n), rng.standard_normal((r - 1, n))]).T


@pytest.mark.parametrize("p, q, k, quotient", [
    (2.0, 2.0, 2, False),  # the projector is the whole step
    (3.0, 2.0, 2, False),  # the projector corrects x
    (1.5, 3.0, 2, False),  # the Newton step corrects v
    (3.0, 2.0, 0, True),   # the quotient dual, with two representatives
])
def test_block_columns_match_single_starts(p, q, k, quotient):
    # each column of a block run ends with the lambda, certificate and
    # residual of its start run alone
    n = 256
    rng = np.random.default_rng(8)
    T = hardy(Space.uniform(n, p), Space.uniform(n, q))
    M = None
    if quotient:
        T = adjoint(T)
        M = rng.standard_normal((n, 2))
    constraints = rng.standard_normal((k, n)).T
    project, B = _constraint_projector(T, constraints)
    X0 = _starts(n, 6, rng)
    block = _ascent(T, project, B, constraints, X0, 1e-9, 0.0, 4600, M)
    assert len(block) == 6
    for j, got in enumerate(block):
        lam, _, res, ok = _ascent(T, project, B, constraints, X0[:, j:j + 1], 1e-9, 0.0,
                                  4600, M)[0]
        assert ok and got[3] == ok
        assert got[0] == pytest.approx(lam, rel=1e-12)
        assert got[2] == pytest.approx(res, rel=1e-12)


def test_finished_columns_leave_the_block(hardy_l3_l2):
    # the columns applied over a block run add up to the steps of its starts
    # run alone, so a column that has finished costs nothing more
    columns = []
    H = hardy_l3_l2

    def forward(X):
        columns.append(X.shape[1])
        return H.apply_coeffs(X)

    T = LinOp._from_kernels(H.dom, H.cod, forward, H.apply_adjoint_coeffs)
    rng = np.random.default_rng(9)
    constraints = rng.standard_normal((2, T.dom.dim)).T
    project, B = _constraint_projector(T, constraints)
    X0 = _starts(T.dom.dim, 8, rng)
    _ascent(T, project, B, constraints, X0, 1e-9, 0.0, 4600)
    applied = sum(columns)
    steps = []
    for j in range(8):
        columns.clear()
        _ascent(T, project, B, constraints, X0[:, j:j + 1], 1e-9, 0.0, 4600)
        steps.append(len(columns))
    assert len(set(steps)) > 1  # the starts finish at different steps
    assert applied == sum(steps)


@pytest.mark.parametrize("quotient", [False, True])
def test_columns_leaving_before_the_adjoint_leave_the_others_stepping(quotient):
    # T = I - mean vanishes on the all-ones start, which leaves the block at the
    # first gate while the Gaussian starts go on through the constraint solve
    # at p' != 2; the quotient side takes the same exit with representatives
    n = 32
    dom, cod = Space.uniform(n, 3.0), Space.uniform(n, 1.5 if quotient else 3.0)

    def mean_free(X):  # x - mean(x), self-adjoint on a uniform grid; a running
        return X - np.cumsum(X, axis=0)[-1] / n  # sum keeps each column exact

    T = LinOp._from_kernels(dom, cod, mean_free, mean_free)
    f = np.zeros(n)
    f[0], f[1] = 1.0, -1.0
    constraints = f[:, None]
    project, B = _constraint_projector(T, constraints)
    rng = np.random.default_rng(10)
    M = rng.standard_normal((n, 1)) if quotient else None
    X0 = _starts(n, 6, rng)
    block = _ascent(T, project, B, constraints, X0, 1e-9, 1e-12, 4600, M)
    assert block[0][0] == 0.0 and block[0][3]
    for j, got in enumerate(block[1:], start=1):
        lam, _, res, ok = _ascent(T, project, B, constraints, X0[:, j:j + 1], 1e-9,
                                  1e-12, 4600, M)[0]
        assert ok and got[3] and lam > 0.0
        assert got[0] == pytest.approx(lam, rel=1e-12)
        assert got[2] == pytest.approx(res, rel=1e-12)
    if not quotient:
        lam, _, res = extremal_pair(T, [Functional(f, dom)], seed=0, tol=1e-9, restarts=8)
        assert lam > 0.0 and res <= 1e-9
