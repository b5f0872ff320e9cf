import json

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from jspectral.jspec import _ascent, _constraint_projector, nullspace_basis
from jspectral.oper import scale
from jspectral.space import _jmap, _jtilde, _lp_norm, odd_power


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


@settings(max_examples=20)
@given(n=st.integers(16, 512), seed=st.integers(0, 2**32 - 1))
def test_hilbert_levels_match_the_half_cell_singular_values(n, seed):
    # at p = q = 2 the j-eigenvalues of the half-cell Hardy matrix on a uniform
    # grid are its singular values 1 / (2n tan((2k - 1) pi / (4n))), so an
    # extrapolated step that landed on another critical point would show here
    s = Space.uniform(n, 2.0)
    js = compute_jspectrum(hardy(s, s), 6, seed=seed)
    k = np.arange(1, 7)
    exact = 1.0 / (2 * n * np.tan((2 * k - 1) * np.pi / (4 * n)))
    np.testing.assert_allclose(js.lambdas, exact, rtol=1e-9, atol=0.0)


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


def test_operator_norm_of_a_vanishing_operator_is_zero():
    sp = Space.uniform(16, 2.0)
    assert operator_norm(LinOp(np.zeros((16, 16)), sp, sp)) == 0.0


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


@settings(max_examples=12)
@given(p=st.sampled_from([2.0, 3.0, 4.0]), q=st.sampled_from([1.5, 2.0, 3.0]),
       seed=st.integers(0, 2**16))
def test_mapping_check_is_bounded_by_the_certificate(p, q, seed):
    # mapping_check[k] is the quotient norm of g = T* J_Y(T x_k) on X_{k+1},
    # relative to ||g||. As g = lambda_k r with r the gradient's first term
    # and J_X x_k in the span, the distance is at most lambda_k residual_k,
    # and ||g|| >= <x_k, g> = lambda_k^2; at p = q = 2 both are equalities
    # but for terms of second order. The slack 4 eps lambda is the rounding
    # of the residual, a difference of two terms of dual norm lambda (over
    # seeds 0 to 399 it reached 1.4 eps lambda, at p = 2). Domain exponents
    # p < 2 are left out: there min_norm_coeffs (at p' > 2) can stop at its
    # least-squares start and overstate the distance by about 1 %.
    T = hardy(Space.uniform(64, p), Space.uniform(64, q))
    js = compute_jspectrum(T, 3, tol=1e-9, seed=seed, restarts=4)
    checks = js.meta["mapping_check"]
    assert len(checks) == js.n_levels == 3
    eps = np.finfo(float).eps
    for check, lam, res in zip(checks, js.lambdas, js.residuals):
        assert check * lam <= res * (1.0 + 1e-6) + 4.0 * eps * lam
        if p == q == 2.0:
            assert abs(check * lam - res) <= 1e-6 * res + 4.0 * eps * lam


def test_mapping_check_of_a_full_rank_diagonal_has_one_entry_per_level():
    # the last level's polar subspace is {0}, on which every functional vanishes
    sp = Space.sequence(3, 2.0)
    js = compute_jspectrum(LinOp(np.diag([0.9, 0.5, 0.1]), sp, sp), 3)
    assert js.n_levels == 3
    assert len(js.meta["mapping_check"]) == 3
    assert js.meta["mapping_check"][-1] <= 1e-12


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


def _distance_to_span(f, C, w, p):
    """Weighted l_p distance of f to the span of the columns of C, solved
    again from f minus the span part found so far until it stops falling: a
    single cold solve of a target with a large span component can overstate
    the distance."""
    d = _lp_norm(f, w, p)
    while C.shape[1]:
        c, d_next = space.min_norm_coeffs(f, C, w, p, gtol=1e-14)
        if not d_next < d:
            break
        f, d = f - C @ c, d_next
    return d


def _assert_certified_and_semi_orthogonal(js, tol):
    """Each residual of js is at most tol, and each x_k lies in the polar
    subspace of the earlier x_j to rounding."""
    w, pp = js.dom.weights, js.dom.pprime
    for k, res in enumerate(js.residuals):
        assert res <= tol
        for j in range(k):
            f = js.JX[:, j]
            assert abs(w @ (js.X[:, k] * f)) <= 1e-12 * _lp_norm(f, w, pp)


@settings(max_examples=12)
@given(p=st.floats(1.2, 6.0), q=st.floats(1.2, 4.5), n=st.integers(16, 64),
       levels=st.integers(3, 4), seed=st.integers(0, 2**16))
def test_jspectrum_residual_bounds_the_distance_certificate(p, q, n, levels, seed):
    # each residual is the polar step's bound ||r - B mu - lambda J~_X x||_{p'},
    # so it is at most tol and at least the distance of the gradient
    # r - lambda J~_X x to the span of the earlier J_X x_j, up to the rounding
    # of that difference of two terms of dual norm lambda (at p' = 2 the two
    # are equal but for it)
    tol = 1e-8
    dom, cod = Space.uniform(n, p), Space.uniform(n, q)
    T = hardy(dom, cod)
    js = compute_jspectrum(T, levels, tol=tol, seed=seed, restarts=3)
    assert js.n_levels == levels
    _assert_certified_and_semi_orthogonal(js, tol)
    for k, (lam, res) in enumerate(zip(js.lambdas, js.residuals)):
        x = js.X[:, k]
        r = T.apply_adjoint_coeffs(_jtilde(T.apply_coeffs(x), cod.weights, q))
        grad = r - lam * odd_power(x, p - 1.0)  # J~_X x, as x is unit
        dist = _distance_to_span(grad, js.JX[:, :k], dom.weights, dom.pprime)
        assert res >= dist * (1.0 - 1e-9) - np.finfo(float).eps * lam


@settings(max_examples=12)
@given(p=st.floats(1.2, 6.0), q=st.floats(1.2, 4.0), n=st.integers(16, 64),
       levels=st.integers(3, 4), seed=st.integers(0, 2**16))
@example(p=3.0, q=1.5, n=64, levels=4, seed=7)
@example(p=4.0, q=1.2, n=64, levels=4, seed=11)
@example(p=6.0, q=1.5, n=40, levels=4, seed=42)
def test_dual_jspectrum_certifies_every_level(p, q, n, levels, seed):
    # the twin for the quotient dual. The draws favour q > 2; the explicit
    # examples take q < 2, where T* has a domain exponent q' > 2. The dual
    # gradient T** J~(T* x - M c) depends on quotient coefficients c solved
    # to a relative gradient of 1e-10, so the residual is not compared with
    # a distance recomputed from other coefficients.
    tol = 1e-8
    T = hardy(Space.uniform(n, p), Space.uniform(n, q))
    js = dual_jspectrum(T, levels, tol=tol, seed=seed, restarts=3)
    assert js.n_levels == levels
    _assert_certified_and_semi_orthogonal(js, tol)


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


@pytest.mark.parametrize("max_iter", [-1, 2.5])
def test_extremal_pair_rejects_max_iter_that_cannot_work(hardy_l3_l2, max_iter):
    # -1 took no step and reported residual inf; 2.5 failed in range
    with pytest.raises(GeometryError, match="max_iter must be an integer of at least 0"):
        extremal_pair(hardy_l3_l2, (), max_iter=max_iter)


@pytest.mark.parametrize("solve", [
    compute_jspectrum,
    lambda T, n, **kw: dual_jspectrum(T, n, primal=JSpectrum(), **kw),
], ids=["primal", "dual"])
def test_level_k_draws_from_its_own_seed(monkeypatch, solve):
    # both deflations start level k from default_rng(seed + 101 k), whatever
    # the levels before it drew, so one level can be solved again alone
    states = []
    best_start = jspec._best_start

    def spy(T, constraints, rng, *args, **kw):
        states.append(rng.bit_generator.state)
        return best_start(T, constraints, rng, *args, **kw)

    monkeypatch.setattr(jspec, "_best_start", spy)
    T = hardy(Space.uniform(64, 3.0), Space.uniform(64, 1.5))
    js = solve(T, 3, tol=1e-8, seed=5, restarts=3)
    assert js.n_levels == len(states) == 3
    assert states == [np.random.default_rng(5 + 101 * k).bit_generator.state
                      for k in range(3)]


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
        out = _ascent(S, project, B, np.ones((S.dom.dim, 1)), 1e-300, 0.0, max_iter, M)[0]
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


def _basis_array(basis):
    return basis.array if isinstance(basis, space._Basis) else basis


def _recording_min_norm(monkeypatch, sides):
    """Patch the solver's min_norm_coeffs to record, for each call, whether it
    started cold, its number of columns and its gradient tolerances, keyed
    by sides[id(array)], where array is the basis array, passed as it is or
    as the space._Basis the solver makes of it."""
    calls = {side: [] for side in sides.values()}
    inner = jspec.min_norm_coeffs

    def recorded(target, basis, *args, c0=None, gtol=1e-10, **kwargs):
        calls[sides[id(_basis_array(basis))]].append(
            (c0 is None, target.shape[1], np.broadcast_to(gtol, target.shape[1:]).copy()))
        return inner(target, basis, *args, c0=c0, gtol=gtol, **kwargs)

    monkeypatch.setattr(jspec, "min_norm_coeffs", recorded)
    return calls


def test_ascent_solves_each_side_as_one_block_call_per_step(monkeypatch):
    # a step makes one best-approximation call per side for all its columns;
    # the first call of a start block is cold (least squares) and every later
    # one starts from the coefficients of each column's previous iterate.
    # The quotient dual of Hardy L3 -> L1.5 runs both sides at exponent 1.5,
    # on a domain of exponent 3, so both sides solve loose until they certify.
    n = 128
    H = hardy(Space.uniform(n, 3.0), Space.uniform(n, 1.5))
    S = CountingOp(adjoint(H).dense(), H.cod.dual(), H.dom.dual())
    rng = np.random.default_rng(3)
    M = rng.standard_normal((n, 2))
    constraints = rng.standard_normal((2, n)).T
    project, B = _constraint_projector(S, constraints)
    calls = _recording_min_norm(monkeypatch, {id(M): "quotient", id(B): "constraint"})
    X0 = _starts(n, 4, rng)
    block = _ascent(S, project, B, X0, 1e-8, 0.0, 4600, M)
    assert all(out[3] for out in block)
    for side, applies in (("quotient", S.forward), ("constraint", S.backward)):
        cold, width, _ = zip(*calls[side])
        assert len(cold) == applies > 1
        assert cold[0] and not any(cold[1:])
        assert width[0] == 4 and width[-1] >= 1
        assert list(width) == sorted(width, reverse=True)  # finished columns leave
    for side in ("quotient", "constraint"):
        gtols = [g for _, _, g in calls[side]]
        assert np.all(gtols[0] == 1e-2) and np.all(gtols[-1] == 1e-10)
        assert all(np.all((1e-10 <= g) & (g <= 1e-2)) for g in gtols)


@pytest.mark.parametrize("tol", [1e-8, 1e-3])
def test_certifying_steps_solve_the_quotient_at_full_precision(hardy_l3_l2, monkeypatch,
                                                               tol):
    # quotient solves run loose, at the last certificate bound relative to
    # lambda, until the bound comes within 10 tol; a step whose lambda a start
    # certifies has solved at 1e-10.
    # At tol 1e-3 the all-ones start meets tol on its third step, which
    # solved at 1e-2, so it takes a fourth step, at 1e-10, to certify.
    S = adjoint(hardy_l3_l2)
    M = np.random.default_rng(3).standard_normal((S.cod.dim, 2))
    unconstrained = np.zeros((S.dom.dim, 0))
    project, B = _constraint_projector(S, unconstrained)
    calls = _recording_min_norm(monkeypatch, {id(M): "quotient"})
    for x0 in (np.ones(S.dom.dim), np.random.default_rng(4).standard_normal(S.dom.dim)):
        calls["quotient"].clear()
        (lam, x, res, ok), = _ascent(S, project, B, x0[:, None], tol, 0.0, 4600, M)
        assert ok and res <= tol
        gtols = [float(g[0]) for _, _, g in calls["quotient"]]
        assert gtols[0] == 1e-2 and gtols[-1] == 1e-10
        assert all(1e-10 <= g <= 1e-2 for g in gtols)
        # the certified lambda is the distance at full precision
        _, d = space.min_norm_coeffs(S.apply_coeffs(x), M, S.cod.weights, S.cod.p)
        assert lam == pytest.approx(d, rel=1e-12)


@pytest.mark.parametrize("tol", [1e-8, 1e-3])
@pytest.mark.parametrize("p, q", [(3.0, 1.5), (1.5, 3.0)])
def test_certifying_steps_solve_the_constraints_at_full_precision(monkeypatch, p, q, tol):
    # for p > 2 the constraint solves run loose, at a tenth of the last
    # certificate bound relative to lambda, until the bound comes within
    # 10 tol, and a start certifies only on a step solved at 1e-10; for
    # p < 2 nothing puts x' back in the polar subspace, so every constraint
    # solve runs at 1e-10.
    n = 256
    S = hardy(Space.uniform(n, p), Space.uniform(n, q))
    constraints = np.random.default_rng(3).standard_normal((2, n)).T
    project, B = _constraint_projector(S, constraints)
    calls = _recording_min_norm(monkeypatch, {id(B): "constraint"})
    for x0 in (np.ones(n), np.random.default_rng(4).standard_normal(n)):
        calls["constraint"].clear()
        (lam, x, res, ok), = _ascent(S, project, B, x0[:, None], tol, 0.0, 4600)
        assert ok and res <= tol
        gtols = [float(g[0]) for _, _, g in calls["constraint"]]
        if p > 2.0:
            assert gtols[0] == 1e-2 and gtols[-1] == 1e-10
            assert all(1e-10 <= g <= 1e-2 for g in gtols)
        else:
            assert set(gtols) == {1e-10}
        # x lies in the polar subspace, whatever the precision of the solves
        assert np.max(np.abs((S.dom.weights * x) @ constraints)) <= 1e-12


@pytest.mark.parametrize("spectrum, p, n, limit", [
    (compute_jspectrum, 2.0, 768, 124),  # 193 block applies without extrapolation, 113 with
    (dual_jspectrum, 3.0, 1024, 130),    # 156 without, 120 with
], ids=["hardy-l2-l2", "quotient-dual-hardy-l3-l2"])
def test_six_level_deflations_keep_their_block_apply_counts(monkeypatch, spectrum, p, n,
                                                            limit):
    # the Aitken steps cut the block steps of a 6-level, 8-restart deflation
    # by a quarter and more; the limits leave 10 % over the counts with them
    applies = 0
    inner = LinOp.apply_coeffs

    def counted(self, coeffs):
        nonlocal applies
        applies += 1
        return inner(self, coeffs)

    monkeypatch.setattr(LinOp, "apply_coeffs", counted)
    js = spectrum(hardy(Space.uniform(n, p), Space.uniform(n, 2.0)), 6, seed=7, restarts=8)
    assert js.n_levels == 6
    assert applies <= limit


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
    _ascent(T, project, B, rng.standard_normal(64)[:, None], 1e-10, 0.0, 300)
    lams = np.array(T.ratios)
    assert len(lams) > 1
    assert np.all(lams[1:] >= lams[:-1] * (1.0 - 1e-12))


@pytest.mark.parametrize("p, q, seed", [
    pytest.param(4.321326816110575, 1.645188657932652, 3863918079, marks=pytest.mark.xfail(
        strict=True, reason="the loose constraint solve for p > 2 lowers lambda by 2e-10")),
    # extrapolated steps under loose constraint solves lowered lambda here by 2e-11
    (4.498708458988325, 3.9754961344780213, 1633606046),
])
def test_ascent_never_decreases_lambda_on_known_draws(p, q, seed):
    # two draws of the property above, with k = 2 constraints, that its
    # derandomized examples do not reach
    test_ascent_never_decreases_lambda.hypothesis.inner_test(p=p, q=q, k=2, seed=seed)


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
    block = _ascent(T, project, B, X0, 1e-9, 0.0, 4600, M)
    assert len(block) == 6
    for j, got in enumerate(block):
        lam, _, res, ok = _ascent(T, project, B, X0[:, j:j + 1], 1e-9, 0.0, 4600, M)[0]
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
    _ascent(T, project, B, X0, 1e-9, 0.0, 4600)
    applied = sum(columns)
    steps = []
    for j in range(8):
        columns.clear()
        _ascent(T, project, B, X0[:, j:j + 1], 1e-9, 0.0, 4600)
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
    block = _ascent(T, project, B, X0, 1e-9, 1e-12, 4600, M)
    assert block[0][0] == 0.0 and block[0][3]
    for j, got in enumerate(block[1:], start=1):
        lam, _, res, ok = _ascent(T, project, B, X0[:, j:j + 1], 1e-9, 1e-12, 4600,
                                  M)[0]
        assert ok and got[3] and lam > 0.0
        assert got[0] == pytest.approx(lam, rel=1e-12)
        assert got[2] == pytest.approx(res, rel=1e-12)
    if not quotient:
        lam, _, res = extremal_pair(T, [Functional(f, dom)], seed=0, tol=1e-9, restarts=8)
        assert lam > 0.0 and res <= 1e-9


def _failing_min_norm(monkeypatch, basis, call, column):
    """Patch the solver's min_norm_coeffs so that its call-th call (from 0)
    on basis (the array, passed as it is or as a space._Basis of it) marks
    one block column failed, as the iteration limit would: a ConvergenceError
    with the real coefficients and distances. Returns the number of columns
    of each call on basis."""
    inner = jspec.min_norm_coeffs
    widths = []

    def failing(target, B, *args, **kwargs):
        c, d = inner(target, B, *args, **kwargs)
        if _basis_array(B) is basis:
            widths.append(target.shape[1])
            if len(widths) == call + 1:
                failed = np.zeros(target.shape[1], dtype=bool)
                failed[column] = True
                raise ConvergenceError("iteration limit", residual=d, coeffs=c,
                                       failed=failed)
        return c, d

    monkeypatch.setattr(jspec, "min_norm_coeffs", failing)
    return widths


@pytest.mark.parametrize("side", ["quotient", "constraint"])
def test_a_failed_inner_solve_fails_only_its_start(monkeypatch, side):
    # quotient: level 2 of the dual of Hardy L3 -> L2, where one column of a
    # block solve fails and the others step on; constraint: level 2 of the
    # primal at p = 3, where the one column left fails and the block ends
    n = 128
    H = hardy(Space.uniform(n, 3.0), Space.uniform(n, 2.0))
    if side == "quotient":
        S = adjoint(H)
        js = dual_jspectrum(H, 1, tol=1e-9, seed=0, restarts=2)
        M = js.Y
    else:
        S = H
        js = compute_jspectrum(H, 1, tol=1e-9, seed=0, restarts=2)
        M = None
    project, B = _constraint_projector(S, js.JX)
    basis = M if side == "quotient" else B
    X0 = _starts(n, 4, np.random.default_rng(1))
    widths = _failing_min_norm(monkeypatch, basis, -1, 0)  # records, fails nothing
    want = _ascent(S, project, B, X0, 1e-9, 0.0, 4600, M)
    assert all(out[3] for out in want)
    if side == "quotient":
        call, column = 1, 1
    else:  # the break after the constraint solve: no column is left
        call, column = widths.index(1), 0
    assert widths[call] > column
    _failing_min_norm(monkeypatch, basis, call, column)
    got = _ascent(S, project, B, X0, 1e-9, 0.0, 4600, M)
    failed = [j for j, out in enumerate(got) if not out[3]]
    assert len(failed) == 1
    lam, x, res, _ = got[failed[0]]
    assert np.isnan(lam) and res == np.inf
    assert _lp_norm(x, S.dom.weights, S.dom.p) == pytest.approx(1.0, rel=1e-12)
    for j, (a, b) in enumerate(zip(want, got)):
        if j != failed[0]:
            assert (a[0], a[2], a[3]) == (b[0], b[2], b[3])
            assert np.array_equal(a[1], b[1])


@settings(max_examples=40)
@given(widths=st.lists(st.floats(0.05, 20.0), min_size=3, max_size=40),
       k=st.integers(1, 5), r=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_constraint_factorization_on_weighted_rank_deficient_sets(widths, k, r, seed):
    # k independent constraint columns, one of them twice and one more scaled
    # by 1e-15, under the 1e-13 rank cut, in a shuffled order: the basis has
    # rank k, is orthonormal in the weighted pairing and Fortran-ordered, and
    # its complement is the common kernel of the constraints
    n = len(widths)
    k = min(k, n - 1)
    w = np.asarray(widths)
    sp = Space(np.cumsum(w) - w / 2, w, 2.0, float(np.sum(w)))
    T = hardy(sp, sp)
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, k))
    C = np.column_stack([G, G[:, rng.integers(k)], 1e-15 * rng.standard_normal(n)])
    C = C[:, rng.permutation(k + 2)]

    def norm_w(A):  # weighted 2-norm of each column
        return np.sqrt(np.sum(w[:, None] * A * A, axis=0))

    project, B = _constraint_projector(T, C)
    assert B.shape == (n, k) and B.flags.f_contiguous
    assert np.max(np.abs(B.T @ (w[:, None] * B) - np.eye(k))) <= 1e-12
    V = rng.standard_normal((n, r))
    PV = project(V)
    assert np.all(np.abs(C.T @ (w[:, None] * PV)) <= 1e-12 * np.max(norm_w(C)) * norm_w(V))

    Z = nullspace_basis(T, C)
    assert Z.shape == (n, n - k) and Z.flags.f_contiguous
    assert np.max(np.abs(Z.T @ Z - np.eye(n - k)), initial=0.0) <= 1e-12
    assert np.max(np.abs((w[:, None] * C).T @ Z), initial=0.0) <= 1e-12 * np.max(
        np.linalg.norm(w[:, None] * C, axis=0))

    full = np.column_stack([rng.standard_normal((n, n)), C])
    with pytest.raises(DeflationExhausted):
        _constraint_projector(T, full)
    with pytest.raises(DeflationExhausted):
        nullspace_basis(T, full)
