import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.sparse.linalg import svds
from scipy.special import beta as beta_fn

from jspectral import (
    GenTrig,
    GeometryError,
    Space,
    bilaplacian_check,
    extremal_pair,
    hardy,
    hardy_norm_formula,
    laplacian_residual,
    pi_pq,
)
from jspectral import gtrig
from jspectral.gtrig import bilap_eigenvalue, laplacian_residual_parts


def test_pi_22_is_pi():
    assert pi_pq(2.0, 2.0) == pytest.approx(np.pi, abs=1e-10)


def test_pi_pq_matches_beta_oracle():
    for p, q in ((2.0, 1.5), (3.0, 1.5), (1.5, 3.0), (4.0, 2.0)):
        pp = p / (p - 1.0)
        oracle = (2.0 / q) * beta_fn(1.0 / pp, 1.0 / q)
        assert pi_pq(p, q) == pytest.approx(oracle, rel=1e-11)


def _beta_args():
    exps = (1.0001, 1.01, 1.05, 1.2, 1.5, 2.0, 3.0, 7.0, 50.0, 1e4)
    pi_pq_args = [((p - 1.0) / p, 1.0 / q) for p in exps for q in exps]
    hardy_args = [((p - 1.0) / p, 0.5) for p in np.linspace(1.05, 50.0, 200)]
    hardy_args += [(b, a) for a, b in hardy_args]
    cover_args = [(0.5, (q + 1.0) / 2.0) for q in (1.0, 1.5, 2.0, 3.0, 10.0, 100.0, 400.0)]
    return pi_pq_args + hardy_args + cover_args


def test_beta_matches_scipy_over_the_ranges_it_serves():
    # pi_pq takes B(1/p', 1/q), hardy_norm_formula B(1/p', 1/2) both ways round
    # and the Hardy cover B(1/2, (q+1)/2), up to q = 400, where the gamma
    # ratio itself overflows
    with pytest.raises(OverflowError):
        math.gamma(0.5) * math.gamma(200.5) / math.gamma(201.0)
    for a, b in _beta_args():
        assert gtrig.beta_fn(a, b) == pytest.approx(beta_fn(a, b), rel=1e-13), (a, b)


def test_pi_pq_monotone_in_inverse_p():
    vals = [pi_pq(p, 2.0) for p in (2.0, 4.0, 8.0)]
    assert vals[0] > vals[1] > vals[2]


def test_classical_sin_cos():
    g = GenTrig(2.0, 2.0)
    xs = np.linspace(0.0, np.pi / 2, 20)
    assert np.max(np.abs(g.sin(xs) - np.sin(xs))) <= 1e-10
    assert np.max(np.abs(g.cos(xs) - np.cos(xs))) <= 1e-10


def test_sin_endpoint_values():
    for p, q in ((3.0, 1.5), (1.5, 3.0)):
        g = GenTrig(p, q)
        assert g.sin(0.0) == 0.0
        assert g.sin(g.pi_pq / 2) == pytest.approx(1.0, abs=1e-12)
        assert g.cos(0.0) == pytest.approx(1.0, abs=1e-12)


def test_pythagorean_identity():
    for p, q in ((2.0, 2.0), (3.0, 1.5), (1.5, 3.0)):
        g = GenTrig(p, q)
        xs = np.linspace(0.0, g.pi_pq / 2, 100)
        s, c = g.sin(xs), g.cos(xs)
        assert np.max(np.abs(np.abs(c) ** p + np.abs(s) ** q - 1.0)) <= 1e-10


def test_out_of_range_requires_extension_flag():
    g = GenTrig(3.0, 1.5)
    with pytest.raises(GeometryError):
        g.sin(g.pi_pq)
    with pytest.raises(GeometryError):
        g.cos(-0.5)


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf, [0.1, np.nan]],
                         ids=["nan", "inf", "-inf", "array"])
@pytest.mark.parametrize("extend", [False, True])
def test_non_finite_x_raises(x, extend):
    # with extend these returned nan (and np.mod warned for inf); without it
    # the message said x was out of range
    g = GenTrig(3.0, 1.5)
    for f in (g.sin, g.cos):
        with pytest.raises(GeometryError, match="^x must be finite$"):
            f(x, extend=extend)


def test_extension_symmetry_and_periodicity():
    g = GenTrig(3.0, 1.5)
    x = 0.3 * g.pi_pq
    half = g.pi_pq / 2
    # reflection about pi/2, odd symmetry, periodicity
    assert g.sin(g.pi_pq - x, extend=True) == pytest.approx(g.sin(x, extend=True), rel=1e-12)
    assert g.sin(-x, extend=True) == pytest.approx(-g.sin(x, extend=True), rel=1e-12)
    assert g.sin(x + 2 * g.pi_pq, extend=True) == pytest.approx(g.sin(x, extend=True), rel=1e-12)
    assert g.cos(g.pi_pq - x, extend=True) == pytest.approx(-g.cos(x, extend=True), rel=1e-12)
    xs = np.linspace(-2.0 * g.pi_pq, 2.0 * g.pi_pq, 101)
    s, c = g.sin(xs, extend=True), g.cos(xs, extend=True)
    assert np.max(np.abs(np.abs(c) ** 3.0 + np.abs(s) ** 1.5 - 1.0)) <= 1e-10


def test_table_csv():
    g = GenTrig(2.0, 2.0)
    table = g.table_csv(np.linspace(0, 1, 5))
    assert table.splitlines()[0] == "x,sin_pq,cos_pq"
    assert len(table.splitlines()) == 6


def test_exponents_must_be_finite_and_above_one():
    for p, q in ((np.inf, 2.0), (2.0, np.inf), (np.nan, 2.0), (2.0, 1.0)):
        with pytest.raises(GeometryError, match=r"p, q in \(1, inf\)"):
            pi_pq(p, q)
        with pytest.raises(GeometryError, match=r"p, q in \(1, inf\)"):
            GenTrig(p, q)


def test_cos_keeps_relative_accuracy_near_its_zero():
    g = GenTrig(2.0, 2.0)
    for k in range(2, 7):
        x = (np.pi / 2) * (1.0 - 10.0 ** -k)
        assert g.cos(x) == pytest.approx(np.cos(x), rel=1e-8)


def test_sin_inverts_the_defining_integral():
    # independent oracle: quadrature of F(u) = integral_0^u (1 - t^q)^(-1/p) dt
    for p, q in ((3.0, 1.5), (1.5, 3.0), (2.0, 1.5), (4.0, 2.0)):
        g = GenTrig(p, q)
        for x in np.linspace(0.05, 0.9, 7) * g.pi_pq / 2:
            F, _ = quad(lambda t: (1.0 - t ** q) ** (-1.0 / p), 0.0, g.sin(x),
                        epsabs=1e-13, epsrel=1e-13)
            assert F == pytest.approx(x, abs=1e-12)


def test_array_evaluation_matches_scalar_evaluation():
    g = GenTrig(1.2, 6.0)
    xs = np.linspace(-2.0 * g.pi_pq, 2.0 * g.pi_pq, 401)
    for fn in (g.sin, g.cos):
        values = fn(xs, extend=True)
        assert np.all(np.isfinite(values))
        assert values.tolist() == [fn(x, extend=True) for x in xs]


# ------------------------------------------------------------ Hardy norms

def test_hardy_norm_p2_closed_form():
    assert hardy_norm_formula(2.0, 1.0) == pytest.approx(2 / np.pi, rel=1e-14)
    # independent oracle: top singular value of the discretized operator
    sp = Space.uniform(2048, 2.0)
    sv = svds(hardy(sp, sp).dense(), k=1, return_singular_vectors=False)[0]
    assert hardy_norm_formula(2.0) == pytest.approx(sv, rel=1e-6)


def test_hardy_norm_b_scaling():
    for p in (1.5, 3.0):
        v1 = hardy_norm_formula(p, 1.0)
        v2 = hardy_norm_formula(p, 2.5)
        assert v2 == pytest.approx(2.5 ** (1 - 1 / p + 0.5) * v1, rel=1e-13)


def test_hardy_norm_directions_agree():
    for p in (1.5, 2.0, 3.0, 4.4):
        f = hardy_norm_formula(p, 1.3, "forward")
        d = hardy_norm_formula(p, 1.3, "dual")
        assert f == pytest.approx(d, rel=1e-13)


def test_hardy_norm_against_extremal_solver():
    dom = Space.uniform(1024, 3.0)
    cod = Space.uniform(1024, 2.0)
    lam, _, _ = extremal_pair(hardy(dom, cod), (), seed=0, tol=1e-9, restarts=3)
    assert lam == pytest.approx(hardy_norm_formula(3.0), rel=1e-4)


def test_extremal_is_generalized_cosine():
    dom = Space.uniform(512, 3.0)
    cod = Space.uniform(512, 2.0)
    T = hardy(dom, cod)
    lam, x, _ = extremal_pair(T, (), seed=0, tol=1e-10, restarts=3)
    g = GenTrig(3.0, 2.0)
    target = g.cos(g.pi_pq * dom.nodes / 2)
    target /= np.max(np.abs(target))
    got = x.coeffs / np.max(np.abs(x.coeffs))
    assert np.max(np.abs(got - target)) <= 1e-4


def test_image_of_extremal_is_dual_extremal():
    # H(cos_{p,2}) is proportional to cos_{2,p'}(pi_{2,p'}(b-x)/2b)
    dom = Space.uniform(512, 3.0)
    cod = Space.uniform(512, 2.0)
    T = hardy(dom, cod)
    _, x, _ = extremal_pair(T, (), seed=0, tol=1e-10, restarts=3)
    img = T.apply_coeffs(x.coeffs)
    img /= np.max(np.abs(img))
    g = GenTrig(2.0, 1.5)
    target = g.cos(g.pi_pq * (1.0 - dom.nodes) / 2)
    target /= np.max(np.abs(target))
    assert np.max(np.abs(img - target)) <= 1e-4


# ------------------------------------------------------------ ODE residuals

def test_laplacian_residual_classical_case():
    residuals = []
    for n in (64, 128, 256):
        xs = (np.arange(n) + 0.5) / n
        u = np.sin(np.pi * xs / 2)
        lam = -((np.pi / 2) ** 2)
        residuals.append(laplacian_residual(u, 2.0, 2.0, lam, 1.0, "(p,2)"))
    assert residuals[2] <= residuals[0] / 12  # about second order
    assert residuals[2] <= 1e-3


def test_laplacian_residual_p2_kind():
    # eigenpair: u = sin_{p,2}(omega x), lam = -(2/p') omega^p
    p = 3.0
    g = GenTrig(p, 2.0)
    om = g.pi_pq / 2
    lam = -(2.0 / (p / (p - 1.0))) * om ** p
    parts = []
    for n in (128, 256, 512):
        xs = (np.arange(n) + 0.5) / n
        parts.append(laplacian_residual_parts(g.sin(om * xs), p, 2.0, lam, 1.0, "(p,2)"))
    # interior stencils are second order; the boundary-slope term is limited
    # by the Hoelder flux at b, so only the total's decrease is asserted
    assert parts[2]["interior_rms"] <= parts[0]["interior_rms"] / 10
    assert parts[2]["total"] < parts[1]["total"] < parts[0]["total"]


def test_laplacian_residual_2p_kind():
    pp = 1.5
    g = GenTrig(2.0, pp)
    om = g.pi_pq / 2
    lam = -(pp / 2.0) * om ** 2
    residuals = []
    for n in (64, 128, 256):
        xs = (np.arange(n) + 0.5) / n
        u = g.sin(om * (1.0 - xs))
        residuals.append(laplacian_residual(u, 2.0, pp, lam, 1.0, "(2,p')"))
    assert residuals[2] <= residuals[0] / 12
    assert residuals[2] <= 1e-3


def test_laplacian_residual_bilap_kind():
    p = 3.0
    pp = 1.5
    g = GenTrig(2.0, pp)
    om = g.pi_pq / 2
    lam = bilap_eigenvalue(p, 1.0)
    residuals = []
    for n in (128, 256, 512):
        xs = (np.arange(n) + 0.5) / n
        residuals.append(laplacian_residual(g.sin(om * xs), p, pp, lam, 1.0, "bilap"))
    orders = [np.log(residuals[i] / residuals[i + 1]) / np.log(2.0) for i in range(2)]
    assert min(orders) >= 1.5
    # wrong eigenvalue leaves an O(1) residual
    bad = laplacian_residual(g.sin(om * ((np.arange(256) + 0.5) / 256)),
                             p, pp, 2.0 * lam, 1.0, "bilap")
    assert bad > 10 * residuals[1]


def test_laplacian_residual_guards():
    with pytest.raises(GeometryError):
        laplacian_residual(np.zeros(8), 2.0, 2.0, 1.0, 1.0, "(p,2)")
    with pytest.raises(GeometryError):
        laplacian_residual(np.zeros(32), 2.0, 2.0, 1.0, 1.0, "nope")


# ------------------------------------------------------------ bi-Laplacian check

def test_bilaplacian_check_p2():
    rep = bilaplacian_check(2.0, grid_n=256, tol=1e-9, seed=0, restarts=3)
    assert rep["lambda1"] == pytest.approx((2 / np.pi) ** 2, rel=1e-4)
    assert rep["sup_dev_eigenfunction"] <= 1e-4
    assert rep["sup_dev_extremal_raw"] <= 1e-4  # p = 2: extremal is the sine itself


def test_bilaplacian_check_p3():
    rep = bilaplacian_check(3.0, grid_n=512, tol=1e-9, seed=0, restarts=3)
    assert rep["sup_dev_eigenfunction"] <= 1e-4
    assert rep["sup_dev_image"] <= 1e-4
    assert min(rep["observed_orders"]) >= 1.5
    # the raw extremal is the (p'-1) power of the sine, far from it in sup
    assert rep["sup_dev_extremal_raw"] > 0.1


def test_bilaplacian_check_p2_flags_the_noise_limited_order():
    # at p = 2 the n = 512 residual is stencil noise (it read an order of -0.36
    # or 0.38 from the same mathematics): that step gets no order
    rep = bilaplacian_check(2.0, grid_n=128, tol=1e-9, seed=0, restarts=2)
    assert rep["orders_noise_limited"] == [False, True]
    assert rep["observed_orders"][0] >= 1.5
    assert rep["observed_orders"][1] is None


def test_bilaplacian_scale_invariance():
    # doubling b rescales the discrete problem exactly; profiles coincide
    r1 = bilaplacian_check(3.0, b=1.0, grid_n=128, tol=1e-9, seed=0, restarts=2)
    r2 = bilaplacian_check(3.0, b=2.0, grid_n=128, tol=1e-9, seed=0, restarts=2)
    assert r1["sup_dev_eigenfunction"] == pytest.approx(
        r2["sup_dev_eigenfunction"], abs=1e-8)
