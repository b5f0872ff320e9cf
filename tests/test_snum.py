import numpy as np
import pytest
from scipy.linalg import svdvals

from jspectral import (
    ConvergenceError,
    GeometryError,
    LinOp,
    SeriesRep,
    Space,
    approx_numbers,
    approx_numbers_report,
    compute_jspectrum,
    hardy,
    eigenvector_bound_check,
    sandwich_check,
)
from jspectral import snum
from jspectral.oper import scale


def _hardy(n, p, q):
    return hardy(Space.uniform(n, p), Space.uniform(n, q))


def test_approx_numbers_hilbert_case_are_singular_values(hardy_l2):
    a = approx_numbers(hardy_l2, 6)
    sv = svdvals(hardy_l2.dense())[:6]
    assert np.max(np.abs(np.array(a) - sv)) <= 1e-12
    ref = 2.0 / ((2 * np.arange(1, 7) - 1) * np.pi)
    assert np.max(np.abs(np.array(a) - ref) / ref) <= 5e-4
    assert all(a[i + 1] <= a[i] for i in range(5))


def test_approx_numbers_rank_k_vanish():
    sp = Space.sequence(6, 2.0)
    rng = np.random.default_rng(0)
    M = sum(np.outer(rng.standard_normal(6), rng.standard_normal(6)) for _ in range(2))
    a = approx_numbers(LinOp(M, sp, sp), 4)
    assert a[2] <= 1e-12 and a[3] <= 1e-12


def test_approx_numbers_rank_deficient_bracketed_case_reaches_zero():
    # the rank-2 series truncation leaves T - F zero; it counts with norm 0
    rng = np.random.default_rng(0)
    M = sum(np.outer(rng.standard_normal(6), rng.standard_normal(6)) for _ in range(2))
    T = LinOp(M, Space.sequence(6, 2.0), Space.sequence(6, 1.5))
    rep = approx_numbers_report(T, 4)
    assert rep["kind"] == "bracketed"
    a = rep["values"]
    assert a[0] >= a[1] > 0.0
    assert a[2] == 0.0 and a[3] == 0.0


def test_approx_numbers_homogeneous(hardy_l2):
    a = np.array(approx_numbers(hardy_l2, 4))
    a_scaled = np.array(approx_numbers(scale(hardy_l2, -2.5), 4))
    assert np.max(np.abs(a_scaled - 2.5 * a)) <= 1e-12


def test_approx_numbers_reject_double_mixed():
    dom = Space.uniform(32, 3.0)
    cod = Space.uniform(32, 1.5)
    with pytest.raises(GeometryError):
        approx_numbers(hardy(dom, cod), 2)


def test_approx_numbers_uncertified_candidates_raise(monkeypatch):
    dom = Space.uniform(32, 2.0)
    cod = Space.uniform(32, 1.5)
    T = hardy(dom, cod)
    js = compute_jspectrum(T, 2, tol=1e-8, seed=0, restarts=2)

    def uncertified(*args, **kwargs):
        raise ConvergenceError("no start certified", residual=1.0)

    monkeypatch.setattr(snum, "operator_norm", uncertified)
    with pytest.raises(ConvergenceError) as err:
        approx_numbers_report(T, 2, js=js)
    assert err.value.residual == 1.0


def test_sandwich_hilbert_case_tight_at_upper_end(hardy_l2):
    js = compute_jspectrum(hardy_l2, 5, tol=1e-9, seed=0, restarts=4)
    a = approx_numbers(hardy_l2, 5)
    table = sandwich_check(js, a, tol=1e-6)
    assert all(table.passed)
    # Hilbert case: a_n = lambda_n, the sandwich is tight at the upper end
    assert max(abs(s) for s in table.slack_upper) <= 1e-6
    assert table.approx[0] == pytest.approx(js.lambdas[0], abs=1e-9)  # a_1 = ||T||
    assert all(lo > 0 for lo in table.lower)


def test_sandwich_bracketed_case():
    dom = Space.uniform(256, 2.0)
    cod = Space.uniform(256, 1.5)
    T = hardy(dom, cod)
    js = compute_jspectrum(T, 5, tol=1e-9, seed=0, restarts=4)
    rep = approx_numbers_report(T, 5, js=js, tol=1e-9, seed=0)
    assert rep["kind"] == "bracketed"
    table = sandwich_check(js, rep["values"], tol=1e-6)
    assert all(table.passed)
    assert all(s >= -1e-6 for s in table.slack_upper)
    assert all(s >= -1e-6 for s in table.slack_lower)
    assert all(0 < lo for lo in table.lower)


def test_sandwich_csv_and_json(hardy_l2):
    js = compute_jspectrum(hardy_l2, 3, tol=1e-9, seed=0, restarts=2)
    table = sandwich_check(js, approx_numbers(hardy_l2, 3))
    lines = table.to_csv().splitlines()
    assert lines[0] == "n,lower,a_n,upper,slack"
    assert len(lines) == 4
    assert '"approx"' in table.to_json()


def test_eigenvector_bound_hilbert_equality(hardy_l2):
    js = compute_jspectrum(hardy_l2, 4, tol=1e-9, seed=0, restarts=4)
    rep = eigenvector_bound_check(hardy_l2, js, 4, tol=1e-6, seed=0)
    assert all(rep["passed"])
    assert max(abs(s) for s in rep["slacks"]) <= 1e-6  # equality in Hilbert case
    assert rep["h_gram_dev"] <= 1e-8
    assert rep["a"][0] == pytest.approx(rep["Th_norms"][0], abs=1e-9)


def test_eigenvector_bound_into_l3():
    dom = Space.uniform(256, 2.0)
    cod = Space.uniform(256, 3.0)
    T = hardy(dom, cod)
    js = compute_jspectrum(T, 3, tol=1e-9, seed=0, restarts=4)
    rep = eigenvector_bound_check(T, js, 3, tol=1e-6, seed=0)
    assert all(rep["passed"])
    assert all(s >= -1e-6 for s in rep["slacks"])


def test_eigenvector_bound_needs_hilbert_domain():
    dom = Space.uniform(32, 3.0)
    cod = Space.uniform(32, 2.0)
    T = hardy(dom, cod)
    js = compute_jspectrum(T, 2, tol=1e-8, seed=0, restarts=2)
    with pytest.raises(GeometryError):
        eigenvector_bound_check(T, js)


@pytest.mark.parametrize("p, q", [(2.0, 3.0), (3.0, 2.0)])
def test_approx_numbers_of_zero_operator_vanish(p, q):
    T = LinOp(np.zeros((16, 16)), Space.uniform(16, p), Space.uniform(16, q))
    assert approx_numbers(T, 2) == [0.0, 0.0]


@pytest.mark.parametrize("p, q", [(2.0, 1.5), (3.0, 2.0), (2.0, 2.0)])
def test_approx_numbers_never_densify(monkeypatch, p, q):
    def refuse(self):
        raise AssertionError("dense() called")

    monkeypatch.setattr(LinOp, "dense", refuse)
    rep = approx_numbers_report(_hardy(256, p, q), 3, seed=0)
    assert len(rep["values"]) == 3


def test_exact_approx_numbers_at_grid_2_14():
    n = 2**14
    a = np.array(approx_numbers(_hardy(n, 2.0, 2.0), 6))
    k = np.arange(1, 7)
    ref = 1.0 / (2 * n * np.tan((2 * k - 1) * np.pi / (4 * n)))
    assert np.max(np.abs(a - ref) / ref) <= 1e-12


@pytest.mark.parametrize("rows, cols, n_max", [(5, 7, 5), (7, 5, 5), (6, 6, 8)])
def test_exact_approx_numbers_of_dense_operators(rows, cols, n_max):
    M = np.random.default_rng(rows * cols).standard_normal((rows, cols))
    a = approx_numbers(LinOp(M, Space.sequence(cols, 2.0), Space.sequence(rows, 2.0)), n_max)
    ref = np.zeros(n_max)
    sv = svdvals(M)[:n_max]
    ref[: len(sv)] = sv
    assert len(a) == n_max
    assert np.max(np.abs(np.array(a) - ref)) <= 1e-12


@pytest.mark.parametrize("T", [
    _hardy(64, 2.0, 1.5),
    LinOp(np.random.default_rng(1).standard_normal((7, 5)),
          Space.sequence(5, 2.0), Space.sequence(7, 3.0)),
], ids=["hardy", "dense-7x5"])
def test_minus_terms_weighted_pairing_identity(T):
    rng = np.random.default_rng(0)
    lam = rng.uniform(0.5, 2.0, 3)
    V = rng.standard_normal((T.cod.dim, 3))
    Phi = rng.standard_normal((T.dom.dim, 3))
    R = SeriesRep("test", lam.tolist(), V, Phi, T.dom, T.cod).remainder(T, 3)
    D = R.dense()
    v = rng.standard_normal(T.dom.dim)
    f = rng.standard_normal(T.cod.dim)
    assert np.allclose(R.apply_coeffs(v),
                       T.apply_coeffs(v) - V @ (lam * (Phi.T @ (T.dom.weights * v))))
    lhs = T.cod.weights @ (R.apply_coeffs(v) * f)
    rhs = T.dom.weights @ (v * R.apply_adjoint_coeffs(f))
    size = T.cod.weights @ ((np.abs(D) @ np.abs(v)) * np.abs(f))
    assert abs(lhs - rhs) <= 1e-13 * size

