import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import svdvals

from jspectral import (
    DegenerateDeflationError,
    GeometryError,
    LinOp,
    Space,
    Vec,
    check_decay_condition,
    compose,
    compute_jspectrum,
    double_series,
    half_series,
    hardy,
    hilbert_source_series,
    hilbert_target_series,
    hilbertian_series,
    identity,
    linearized_series,
)
from jspectral import series
from jspectral.oper import hardy_dual, scale
from jspectral.jspec import nullspace_basis
from jspectral.series import (
    alpha_p,
    alpha_p_report,
    _alpha_objective,
    double_series_apply,
    random_unit_vectors,
)
from jspectral.space import _lp_norm, sup_dev_up_to_sign


# ------------------------------------------------------- Hilbert target

def test_target_series_hilbert_case_matches_svd_tail(hardy_l2, l2_256):
    js = compute_jspectrum(hardy_l2, 6, tol=1e-10, seed=0, restarts=4)
    rep = hilbert_target_series(hardy_l2, js)
    tests = random_unit_vectors(l2_256, 20, seed=3)
    sv = svdvals(hardy_l2.dense())
    for n, err in rep.reconstruction_errors(hardy_l2, tests, [1, 3, 5]):
        assert err <= sv[n] + 1e-9  # SVD truncation oracle: tail bound sigma_{N+1}


def test_target_series_reproduces_first_eigenvector_exactly(hardy_l2):
    js = compute_jspectrum(hardy_l2, 3, tol=1e-10, seed=0, restarts=4)
    x1 = js.xs[0]
    out = hilbert_target_series(hardy_l2, js).apply_truncated(x1, 1)
    want = hardy_l2.apply_coeffs(x1.coeffs)
    assert np.max(np.abs(out.coeffs - want)) <= 1e-9


def test_target_series_monotone_for_mixed_norm(hardy_l3_l2, l3_256):
    js = compute_jspectrum(hardy_l3_l2, 8, tol=1e-9, seed=0, restarts=4)
    rep = hilbert_target_series(hardy_l3_l2, js)
    tests = random_unit_vectors(l3_256, 20, seed=4)
    errs = dict(rep.reconstruction_errors(hardy_l3_l2, tests, [4, 8]))
    assert errs[8] < errs[4]


def test_target_series_requires_hilbert_codomain(hardy_l3_l2):
    js = compute_jspectrum(hardy_l3_l2, 2, tol=1e-9, seed=0, restarts=2)
    T_wrong = hardy(hardy_l3_l2.dom, hardy_l3_l2.dom)
    with pytest.raises(Exception):
        hilbert_target_series(T_wrong, js)


# ------------------------------------------------------- Hilbert source

def test_source_series_hilbert_case(hardy_l2, l2_256):
    js = compute_jspectrum(hardy_l2, 5, tol=1e-10, seed=0, restarts=4)
    src = hilbert_source_series(hardy_l2, js)
    tgt = hilbert_target_series(hardy_l2, js)
    tests = random_unit_vectors(l2_256, 10, seed=5)
    for x in tests:
        a = src.apply_truncated(x, 5).coeffs
        b = tgt.apply_truncated(x, 5).coeffs
        assert np.max(np.abs(a - b)) <= 1e-8  # both collapse to the SVD expansion


def test_source_series_second_mode_exact(hardy_l2):
    js = compute_jspectrum(hardy_l2, 3, tol=1e-10, seed=0, restarts=4)
    rep = hilbert_source_series(hardy_l2, js)
    h2 = js.xs[1]
    out = rep.apply_truncated(h2, 2)
    want = js.lambdas[1] * js.ys[1].coeffs
    assert np.max(np.abs(out.coeffs - want)) <= 1e-8


def test_source_series_tail_bound_into_l15():
    dom = Space.uniform(256, 2.0)
    cod = Space.uniform(256, 1.5)
    T = hardy(dom, cod)
    js = compute_jspectrum(T, 7, tol=1e-9, seed=0, restarts=4)
    rep = hilbert_source_series(T, js)
    tests = random_unit_vectors(dom, 20, seed=6)
    err6 = rep.reconstruction_errors(T, tests, [6])[0][1]
    assert err6 <= js.lambdas[6] * 1.05  # measured margin is about 0.21
    assert rep.meta["y_gram_cond"] < 10.0


# ------------------------------------------------------- linearized variants

def test_linearized_collapses_to_svd_at_p2(hardy_l2):
    rep = linearized_series(hardy_l2, 3, tol=1e-10, seed=0, restarts=4)
    agree = rep.meta["variant_agreement"]
    assert max(agree.values()) <= 1e-9
    assert max(rep.meta["lambda_dev"]) <= 1e-9


def test_linearized_duality_identities(hardy_l3_l2):
    rep = linearized_series(hardy_l3_l2, 4, tol=1e-9, seed=0, restarts=4)
    assert max(rep.meta["lambda_dev"]) <= 1e-6
    assert max(rep.meta["h_match_dev"]) <= 1e-6
    assert rep.meta["z1_equals_x1_dev"] <= 1e-8
    assert max(rep.meta["variant_agreement"].values()) <= 1e-6
    # representatives have unit quotient norm
    assert max(rep.meta["psi_norm_dev"]) <= 1e-8


# ------------------------------------------------------- decay conditions

def test_decay_condition_first_violation_matches_direct_comparison(hardy_l2):
    js = compute_jspectrum(hardy_l2, 6, tol=1e-9, seed=0, restarts=4)
    report = check_decay_condition(js, "lambda")
    # oracle: direct comparison of the two sequences
    expected = None
    for k, lam in enumerate(js.lambdas, start=1):
        if lam > 2.0 ** (1 - k):
            expected = k
            break
    assert expected == 5  # 2/(9 pi) exceeds 2^-4
    assert report["first_violation"] == expected
    assert report["series"] is None


def test_decay_condition_gelfand_statuses(hardy_l2):
    js = compute_jspectrum(hardy_l2, 5, tol=1e-9, seed=0, restarts=4)
    report = check_decay_condition(js, "gelfand")
    assert set(report["status"]) <= {"holds", "violated", "undetermined"}
    # the certified lower bound lambda_1/(2-1) = lambda_1 > 1 is false, so
    # level 1 cannot be "violated"
    assert report["status"][0] != "violated"


def test_decay_condition_rank_one_holds():
    sp = Space.sequence(5, 2.0)
    rng = np.random.default_rng(8)
    u = rng.standard_normal(5)
    v = rng.standard_normal(5)
    M = np.outer(u, v)
    M *= 0.9 / svdvals(M)[0]
    js = compute_jspectrum(LinOp(M, sp, sp), 3, tol=1e-10, seed=0, restarts=4)
    assert js.n_levels == 1
    report = check_decay_condition(js, "lambda", T=LinOp(M, sp, sp))
    assert report["first_violation"] is None
    assert report["series"] is not None


def test_decay_condition_geometric_diagonal():
    sp = Space.sequence(6, 2.0)
    T = LinOp(np.diag(3.0 ** -np.arange(1, 7)), sp, sp)
    js = compute_jspectrum(T, 6, tol=1e-12, seed=0, restarts=4)
    report = check_decay_condition(js, "lambda", T=T)
    assert report["first_violation"] is None
    errs = dict(report["errors"])
    assert errs[6] <= 1e-10  # full rank reached: exact reconstruction


def test_decay_condition_lp_mode_builds_series(hardy_l2, l2_256):
    js = compute_jspectrum(hardy_l2, 5, tol=1e-10, seed=0, restarts=4)
    report = check_decay_condition(js, "lp", T=hardy_l2)
    assert report["alpha_p"] == 0.0
    assert report["first_violation"] is None
    errs = dict(report["errors"])
    sv = svdvals(hardy_l2.dense())
    assert errs[5] <= sv[5] + 1e-8


def test_decay_condition_lp_mode_on_an_empty_spectrum(l3_256):
    # a zero operator has no levels; the exponents come from T
    T = scale(hardy(l3_256, l3_256), 0.0)
    js = compute_jspectrum(T, 3, tol=1e-8, seed=0, restarts=2)
    assert js.n_levels == 0
    report = check_decay_condition(js, "lp", T=T)
    assert report["first_violation"] is None
    assert report["series"].n_terms == 0 and report["errors"] == []
    with pytest.raises(GeometryError):
        check_decay_condition(js, "lp")


def test_decay_condition_lp_mode_needs_equal_exponents(hardy_l3_l2):
    js = compute_jspectrum(hardy_l3_l2, 2, tol=1e-9, seed=0, restarts=2)
    with pytest.raises(Exception):
        check_decay_condition(js, "lp")


# ------------------------------------------------------- alpha_p

def test_alpha_2_is_zero():
    assert alpha_p(2.0) == 0.0


def test_alpha_p_dual_symmetry():
    for p in (1.5, 3.0, 4.0):
        assert abs(alpha_p(p) - alpha_p(p / (p - 1.0))) <= 1e-10


def test_alpha_p_positive_and_certified_against_grid():
    rep = alpha_p_report(4.0)
    assert rep["alpha_p"] > 0.0
    ms = np.linspace(0.0, 1.0, 100_001)[1:-1]
    grid_max = float(np.max(_alpha_objective(ms, 4.0)))
    assert abs(rep["objective"] - grid_max) <= 1e-9


# ------------------------------------------------------- Hilbertian series

def test_hilbertian_series_reduces_to_svd_for_identity_factor(hardy_l2, l2_256):
    js = compute_jspectrum(hardy_l2, 5, tol=1e-10, seed=0, restarts=4)
    rep = hilbertian_series(hardy_l2, identity(l2_256), js)
    assert np.max(np.abs(np.array(rep.lambdas) - np.array(js.lambdas))) <= 1e-7
    assert rep.meta["h_gram_dev"] <= 1e-8


def test_hilbertian_series_reconstruction_decays():
    dom = Space.uniform(192, 3.0)
    mid = Space.uniform(192, 2.0)
    cod = Space.uniform(192, 1.5)
    A = hardy(dom, mid)
    B = identity(mid, cod)  # bounded, not compact in the limit
    T = compose(B, A)
    js = compute_jspectrum(T, 6, tol=1e-8, seed=0, restarts=4)
    rep = hilbertian_series(A, B, js)
    tests = random_unit_vectors(dom, 10, seed=7)
    errs = dict(rep.reconstruction_errors(T, tests, [1, 3, 6]))
    assert errs[6] < errs[3] < errs[1]
    assert rep.meta["lambda_bounded"]
    assert rep.meta["tail_maps_into_flag_dev"] <= 1e-6


def test_hilbertian_series_factorization_invariance():
    dom = Space.uniform(128, 3.0)
    mid = Space.uniform(128, 2.0)
    A = hardy(dom, mid)
    B = identity(mid)
    T = compose(B, A)
    js = compute_jspectrum(T, 4, tol=1e-9, seed=0, restarts=4)
    rep1 = hilbertian_series(A, B, js)
    rep2 = hilbertian_series(scale(A, 3.0), scale(B, 1 / 3.0), js)
    x = random_unit_vectors(dom, 1, seed=8)[0]
    a = rep1.apply_truncated(x, 4).coeffs
    b = rep2.apply_truncated(x, 4).coeffs
    assert np.max(np.abs(a - b)) <= 1e-10


def _dense_copy(A):
    """A as a dense LinOp: the same operator without an inverse adjoint kernel."""
    return LinOp(A.dense(), A.dom, A.cod)


def test_hilbertian_series_propagates_basis_errors(monkeypatch):
    # the dense path: its nullspace basis is built, and its errors not swallowed
    dom = Space.uniform(32, 3.0)
    mid = Space.uniform(32, 2.0)
    A = _dense_copy(hardy(dom, mid))
    B = identity(mid)
    js = compute_jspectrum(compose(B, A), 2, tol=1e-8, seed=0, restarts=2)

    def broken(T, constraints):
        raise ValueError("basis construction failed")

    monkeypatch.setattr(series, "nullspace_basis", broken)
    with pytest.raises(ValueError, match="basis construction failed"):
        hilbertian_series(A, B, js)


@pytest.fixture(scope="module")
def factored_l3_l15():
    dom = Space.uniform(96, 3.0)
    mid = Space.uniform(96, 2.0)
    cod = Space.uniform(96, 1.5)
    A = hardy(dom, mid)
    B = hardy(mid, cod)
    T = compose(B, A)
    return A, B, T, compute_jspectrum(T, 4, tol=1e-8, seed=0, restarts=2)


def test_hilbertian_series_functionals_annihilate_deeper_polar_subspace(factored_l3_l15):
    # h_i is orthogonal to A(X_{i+1}), so <z, A* h_i> = (A z, h_i)_H = 0 on X_{i+1}
    A, B, T, js = factored_l3_l15
    rep = hilbertian_series(A, B, js)
    for i in range(rep.n_terms):
        Z = nullspace_basis(T, js.JX[:, : i + 1])
        f = A.dom.weights * rep.coeff_functionals[i].coeffs
        assert np.max(np.abs(f @ Z)) <= 1e-12


@pytest.mark.parametrize("route", ["kernel", "dense"])
def test_hilbertian_series_degenerate_deflation_raises(factored_l3_l15, route):
    A, B, _, js = factored_l3_l15
    if route == "dense":
        A = _dense_copy(A)
    # a repeated deflation functional keeps X_3 = X_2, so A(X_2) = A(X_3)
    bad = dataclasses.replace(js, JX=js.JX[:, [0, 0, *range(2, js.n_levels)]])
    with pytest.raises(DegenerateDeflationError, match=r"A x_2 lies in A\(X_3\)"):
        hilbertian_series(A, B, bad)


@pytest.mark.parametrize("route", ["kernel", "dense"])
def test_hilbertian_series_degenerate_deepest_level_raises(factored_l3_l15, route):
    A, B, _, js = factored_l3_l15
    if route == "dense":
        A = _dense_copy(A)
    # a repeated last deflation functional keeps X_5 = X_4, so A x_4 lies in
    # A(X_5): on the dense route, in the span of the deepest basis itself
    bad = dataclasses.replace(js, JX=js.JX[:, [0, 1, 2, 2]])
    with pytest.raises(DegenerateDeflationError, match=r"A x_4 lies in A\(X_5\)"):
        hilbertian_series(A, B, bad)


def test_hilbertian_series_non_square_dense_factor():
    # only the dense route serves an A between grids of different sizes
    l3, l2, l15 = Space.uniform(40, 3.0), Space.uniform(64, 2.0), Space.uniform(64, 1.5)
    rng = np.random.default_rng(20)
    A = LinOp(rng.standard_normal((64, 40)) / 40, l3, l2)
    B = hardy(l2, l15)
    T = compose(B, A)
    js = compute_jspectrum(T, 4, tol=1e-8, seed=0, restarts=2)
    rep = hilbertian_series(A, B, js)
    assert rep.n_terms == 4
    assert rep.meta["h_gram_dev"] <= 1e-12
    for i in range(rep.n_terms):
        Z = nullspace_basis(T, js.JX[:, : i + 1])
        f = A.dom.weights * rep.coeff_functionals[i].coeffs
        assert np.max(np.abs(f @ Z)) <= 1e-12
    assert rep.meta["tail_maps_into_flag_dev"] <= 1e-6


def test_hilbertian_series_vanishing_factor(factored_l3_l15):
    A, _, _, js = factored_l3_l15
    zero = LinOp(np.zeros((96, 96)), A.cod, Space.uniform(96, 1.5))
    rep = hilbertian_series(A, zero, js)
    assert rep.n_terms == 0
    assert rep.meta["lambda_bound"] == 0.0
    assert rep.meta["lambda_bounded"] is True


def _count_dense_factors(monkeypatch):
    calls = {"nullspace_basis": 0, "svd": 0}

    def counted(name):
        inner = getattr(series, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(series, name, counted(name))
    return calls


def test_hilbertian_series_factorises_once(factored_l3_l15, monkeypatch):
    # an A without an inverse adjoint kernel takes one nullspace basis and one SVD
    A, B, _, js = factored_l3_l15
    calls = _count_dense_factors(monkeypatch)
    hilbertian_series(_dense_copy(A), B, js)
    assert calls == {"nullspace_basis": 1, "svd": 1}


def test_hilbertian_series_hardy_builds_no_dense_factor(factored_l3_l15, monkeypatch):
    A, B, _, js = factored_l3_l15
    calls = _count_dense_factors(monkeypatch)
    hilbertian_series(A, B, js)
    assert calls == {"nullspace_basis": 0, "svd": 0}


@pytest.mark.parametrize("make_a, p, b_kind", [
    (hardy, 3.0, "hardy"), (hardy, 2.0, "hardy"), (hardy, 2.0, "identity"),
    (hardy_dual, 3.0, "hardy")])
def test_hilbertian_series_kernel_path_matches_dense_path(make_a, p, b_kind):
    # Gram-Schmidt on A*^-1 J x_i against the nullspace basis and SVD of a
    # dense copy of A, on the same j-spectrum
    dom, mid, cod = (Space.uniform(96, q) for q in (p, 2.0, 1.5))
    A = make_a(dom, mid)
    B = hardy(mid, cod) if b_kind == "hardy" else identity(mid)
    js = compute_jspectrum(compose(B, A), 5, tol=1e-9, seed=0, restarts=2)
    fast = hilbertian_series(A, B, js)
    dense = hilbertian_series(_dense_copy(A), B, js)
    assert fast.n_terms == dense.n_terms == 5
    assert np.allclose(fast.lambdas, dense.lambdas, rtol=1e-10, atol=0.0)
    for M, N in ((fast.V, dense.V), (fast.Phi, dense.Phi)):
        for a, b in zip(M.T, N.T):
            assert sup_dev_up_to_sign(a, b) <= 1e-10 * np.max(np.abs(b))
    assert fast.meta["h_gram_dev"] <= 1e-12
    assert dense.meta["h_gram_dev"] <= 1e-12
    # h_i* is signed so that <x_i, A* h_i*> = (A x_i, h_i*)_H > 0
    assert np.all(A.dom.weights @ (js.X * fast.Phi) > 0.0)


@pytest.mark.parametrize("n_terms", [-1, 2.5, "2", True])
def test_hilbertian_series_rejects_invalid_term_counts(factored_l3_l15, n_terms):
    A, B, _, js = factored_l3_l15
    with pytest.raises(GeometryError, match="n_terms must be an integer") as err:
        hilbertian_series(A, B, js, n_terms=n_terms)
    assert "\n" not in str(err.value)
    assert hilbertian_series(A, B, js, n_terms=np.int64(2)).n_terms == 2
    assert hilbertian_series(A, B, js, n_terms=0).n_terms == 0


# ------------------------------------------------------- double series

def test_double_series_matches_composition(hardy_l2, l2_256):
    dd = double_series(hardy_l2, hardy_l2, 8, tol=1e-9, seed=0, restarts=4)
    T2 = compose(hardy_l2, hardy_l2)
    tests = random_unit_vectors(l2_256, 10, seed=9)
    err = dd.reconstruction_errors(T2, tests, [64])[0][1]
    lam9 = (2.0 / (17.0 * np.pi)) ** 2  # ninth singular value of the square
    assert err <= lam9
    assert dd.meta["l2_heuristic_A_star"]["l2_consistent"]
    assert dd.meta["l2_heuristic_B"]["l2_consistent"]


def test_double_series_order_swap(hardy_l2, l2_256):
    dd = double_series(hardy_l2, hardy_l2, 6, tol=1e-9, seed=0, restarts=4)
    x = random_unit_vectors(l2_256, 1, seed=10)[0]
    full_row = double_series_apply(dd, x, 6, 6, "row")
    full_col = double_series_apply(dd, x, 6, 6, "col")
    assert np.max(np.abs(full_row.coeffs - full_col.coeffs)) <= 1e-12
    # partial blocks differ by at most the weights of the uncommon terms
    part_a = double_series_apply(dd, x, 6, 3, "row")
    part_b = double_series_apply(dd, x, 3, 6, "row")
    pairs = dd.meta["order"]
    bound = sum(
        abs(dd.lambdas[k])
        for k, (i, j) in enumerate(pairs)
        if ((i < 6 and j < 3) != (i < 3 and j < 6))
    )
    dev = _lp_norm(part_a.coeffs - part_b.coeffs, l2_256.weights, 2.0)
    assert dev <= bound + 1e-12


def test_double_series_apply_checks_the_grid_as_apply_truncated_does(hardy_l2, l2_256):
    dd = double_series(hardy_l2, hardy_l2, 2, tol=1e-9, seed=0, restarts=2)
    for sp in (Space.uniform(128, 2.0), Space.uniform(256, 2.0, b=2.0)):
        x = Vec(np.ones(sp.dim), sp)
        for apply in (lambda: double_series_apply(dd, x, 2, 2),
                      lambda: dd.apply_truncated(x)):
            with pytest.raises(GeometryError,
                               match="^vector does not live on the series domain grid$"):
                apply()
    x = Vec(np.ones(256), l2_256)
    assert np.array_equal(double_series_apply(dd, x, 2, 2, "row").coeffs,
                          dd.apply_truncated(x).coeffs)


def test_double_series_rank_one_factor(l2_256):
    rng = np.random.default_rng(11)
    u = rng.standard_normal(256)
    v = rng.standard_normal(256)
    R = LinOp(np.outer(u, v) / 256, l2_256, l2_256)
    dd = double_series(R, hardy(l2_256, l2_256), 4, tol=1e-9, seed=0, restarts=4)
    assert dd.meta["shape"][0] == 1  # the compact rank-one factor has one level


# ------------------------------------------------------- half series

def test_half_series_identity_reductions(hardy_l2, l2_256):
    js = compute_jspectrum(hardy_l2, 4, tol=1e-10, seed=0, restarts=4)
    src = hilbert_source_series(hardy_l2, js)
    h47 = half_series(hardy_l2, identity(l2_256), "A", 4, tol=1e-10, seed=0,
                      restarts=4)
    h48 = half_series(identity(l2_256), hardy_l2, "B", 4, tol=1e-10, seed=0,
                      restarts=4)
    tests = random_unit_vectors(l2_256, 5, seed=12)
    for x in tests:
        want = src.apply_truncated(x, 4).coeffs
        assert np.max(np.abs(h47.apply_truncated(x, 4).coeffs - want)) <= 1e-7
        assert np.max(np.abs(h48.apply_truncated(x, 4).coeffs - want)) <= 1e-7


def test_half_series_on_square_of_hardy(hardy_l2, l2_256):
    T2 = compose(hardy_l2, hardy_l2)
    tests = random_unit_vectors(l2_256, 10, seed=13)
    lam7 = (2.0 / (13.0 * np.pi)) ** 2
    for which in ("A", "B"):
        rep = half_series(hardy_l2, hardy_l2, which, 6, tol=1e-9, seed=0,
                          restarts=4)
        err = rep.reconstruction_errors(T2, tests, [6])[0][1]
        assert err <= lam7
    rep = half_series(hardy_l2, hardy_l2, "B", 6, tol=1e-9, seed=0, restarts=4)
    assert rep.meta["lambda_C_bounded"]


def test_half_series_vanishing_factor():
    l3, l2, l15 = (Space.uniform(64, p) for p in (3.0, 2.0, 1.5))
    rep = half_series(LinOp(np.zeros((64, 64)), l3, l2), hardy(l2, l15), "B", 3,
                      tol=1e-9, seed=0, restarts=2)
    assert rep.n_terms == 0
    assert rep.meta["lambda_C"] == [0.0, 0.0, 0.0]
    assert rep.meta["lambda_C_bound"] == 0.0
    assert rep.meta["lambda_C_bounded"] is True


# ------------------------------------------------------- shared invariants

def test_truncation_error_nonincreasing_on_fixed_test_set(hardy_l3_l2, l3_256):
    js = compute_jspectrum(hardy_l3_l2, 6, tol=1e-9, seed=0, restarts=4)
    rep = hilbert_target_series(hardy_l3_l2, js)
    tests = random_unit_vectors(l3_256, 50, seed=14)
    errs = [e for _, e in rep.reconstruction_errors(hardy_l3_l2, tests, range(1, 7))]
    assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(5))


@functools.lru_cache(maxsize=None)
def _series_of_kind(kind):
    """(T, series of T) on grid 64, built once per kind."""
    l3, l2, l15 = (Space.uniform(64, p) for p in (3.0, 2.0, 1.5))
    if kind == "target":
        T = hardy(l3, l2)
        return T, hilbert_target_series(T, compute_jspectrum(T, 5, tol=1e-9, seed=0,
                                                             restarts=2))
    A, B = hardy(l3, l2), hardy(l2, l15)
    T = compose(B, A)
    if kind == "hilbertian":
        return T, hilbertian_series(A, B, compute_jspectrum(T, 4, tol=1e-9, seed=0,
                                                            restarts=2))
    if kind in ("half_direct", "half_dual"):
        return T, half_series(A, B, "A" if kind == "half_direct" else "B", 4, tol=1e-9,
                              seed=0, restarts=2)
    return T, double_series(A, B, 3, tol=1e-9, seed=0, restarts=2)


def _term_by_term(rep, x, n):
    """sum_{k < n} lambda_k <x, phi_k> v_k, one term at a time."""
    out = np.zeros(rep.cod.dim)
    for lam, v, f in list(zip(rep.lambdas, rep.left_vectors, rep.coeff_functionals))[:n]:
        out += lam * float(rep.dom.weights @ (x.coeffs * f.coeffs)) * v.coeffs
    return out


@settings(max_examples=30)
@given(kind=st.sampled_from(["target", "hilbertian", "double", "half_direct", "half_dual"]),
       count=st.integers(1, 4), n=st.integers(0, 10), seed=st.integers(0, 2**32 - 1))
def test_block_evaluation_matches_the_term_by_term_sum(kind, count, n, seed):
    T, rep = _series_of_kind(kind)
    tests = random_unit_vectors(rep.dom, count, seed=seed)
    want = 0.0
    for x in tests:
        ref = _term_by_term(rep, x, n)
        out = rep.apply_truncated(x, n).coeffs
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref), initial=0.0)
        want = max(want, _lp_norm(T.apply_coeffs(x.coeffs) - ref, rep.cod.weights,
                                  rep.cod.p))
    [(n_got, err)] = rep.reconstruction_errors(T, tests, [n])
    assert n_got == n
    assert abs(err - want) <= 1e-13 * want


def test_random_unit_vectors_are_the_single_draws():
    sp = Space.uniform(64, 3.0)
    rng = np.random.default_rng(11)
    want = [rng.standard_normal(64) for _ in range(5)]
    got = random_unit_vectors(sp, 5, seed=11)
    for v, x in zip(want, got):
        assert np.array_equal(x.coeffs, v / _lp_norm(v, sp.weights, sp.p))
    assert len(got) == 5 and random_unit_vectors(sp, 0) == []
    with pytest.raises(GeometryError, match="count"):
        random_unit_vectors(sp, -1)


def test_reconstruction_errors_apply_the_operator_once(hardy_l2, l2_256):
    rep = hilbert_target_series(hardy_l2, compute_jspectrum(hardy_l2, 3, tol=1e-9, seed=0,
                                                            restarts=2))
    applies = []

    def fwd(x):
        applies.append(x.shape)
        return hardy_l2.apply_coeffs(x)

    T = LinOp._from_kernels(l2_256, l2_256, fwd, hardy_l2.apply_adjoint_coeffs)
    tests = random_unit_vectors(l2_256, 4, seed=16)
    rows = rep.reconstruction_errors(T, tests, [1, 2, 3])
    assert applies == [(256, 4)]
    X = np.column_stack([x.coeffs for x in tests])
    for n, err in rows:  # bitwise the remainder T - T_N of the block
        R = rep.remainder(hardy_l2, n).apply_coeffs(X)
        assert err == float(np.max(_lp_norm(R, l2_256.weights, 2.0)))


def test_series_export(hardy_l2, l2_256):
    js = compute_jspectrum(hardy_l2, 2, tol=1e-9, seed=0, restarts=2)
    rep = hilbert_target_series(hardy_l2, js)
    tests = random_unit_vectors(l2_256, 3, seed=15)
    csv_text = rep.error_table_csv(rep.reconstruction_errors(hardy_l2, tests, [1, 2]))
    assert csv_text.splitlines()[0] == "N,error"
    doc = rep.to_json(hardy_l2, tests, [1, 2])
    assert '"errors"' in doc
