import json

import numpy as np
import pytest
from scipy.integrate import quad

from jspectral import (
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
from jspectral import space
from jspectral.space import min_norm_coeffs, sup_dev_up_to_sign


# ---------------------------------------------------------------- Space type

def test_space_invariants_enforced():
    with pytest.raises(GeometryError):
        Space.uniform(8, 1.0)  # p = 1 rejected
    with pytest.raises(GeometryError):
        Space.uniform(8, np.inf)
    with pytest.raises(GeometryError):
        Space(np.array([0.5, 0.25, 0.75]), np.ones(3) / 3, 2.0, 1.0)  # not increasing
    with pytest.raises(GeometryError):
        Space(np.array([0.25, 0.75]), np.array([0.5, -0.5]), 2.0, 1.0)
    with pytest.raises(GeometryError):
        Space(np.array([0.25, 0.75]), np.array([0.5, 0.6]), 2.0, 1.0)  # sum != b
    sp = Space.uniform(16, 2.5, b=3.0)
    assert abs(sp.weights.sum() - 3.0) <= 1e-12 * 3.0
    assert sp.dual().p == pytest.approx(2.5 / 1.5)


def test_space_rejects_non_finite_grid():
    nodes, weights = np.array([0.25, 0.75]), np.array([0.5, 0.5])
    for n, w, b in ((np.array([np.nan, 0.75]), weights, 1.0),
                    (nodes, np.array([0.5, np.nan]), 1.0),
                    (nodes, np.array([np.inf, 0.5]), 1.0),
                    (nodes, weights, np.nan),
                    (nodes, weights, np.inf)):
        with pytest.raises(GeometryError, match="finite"):
            Space(n, w, 2.0, b)


def test_space_json_roundtrip():
    sp = Space.uniform(8, 3.0, b=2.0)
    sp2 = Space.from_json(sp.to_json())
    assert sp2 == sp
    v = Vec(np.arange(8.0), sp)
    v2 = Vec.from_json(v.to_json())
    assert np.array_equal(v2.coeffs, v.coeffs)
    doc = json.loads(v.to_json())
    assert set(doc) == {"b", "p", "nodes", "weights", "coeffs"}


def test_vec_length_mismatch():
    sp = Space.uniform(8, 2.0)
    with pytest.raises(GeometryError):
        Vec(np.zeros(7), sp)
    with pytest.raises(GeometryError):
        Functional(np.zeros(9), sp)


# ---------------------------------------------------------------- norms

def test_norm_constant_is_one():
    sp = Space.uniform(64, 2.0)
    assert norm(Vec(np.ones(64), sp)) == pytest.approx(1.0, abs=1e-14)


def test_norm_zero_vector():
    sp = Space.uniform(16, 3.0)
    assert norm(Vec(np.zeros(16), sp)) == 0.0


def test_norm_linear_function_against_quadrature():
    # oracle: adaptive quadrature of t^3 on (0,1)
    oracle = quad(lambda t: t ** 3, 0, 1)[0] ** (1 / 3)
    assert oracle == pytest.approx(0.25 ** (1 / 3), abs=1e-12)
    sp = Space.uniform(2048, 3.0)
    v = Vec(sp.nodes.copy(), sp)
    assert norm(v) == pytest.approx(oracle, rel=1e-6)


def test_pairing_examples():
    sp = Space.uniform(512, 2.0)
    one = Vec(np.ones(512), sp)
    f_one = Functional(np.ones(512), sp)
    assert pairing(one, f_one) == pytest.approx(1.0, abs=1e-13)
    left = np.where(sp.nodes < 0.5, 1.0, 0.0)
    right = 1.0 - left
    assert pairing(Vec(left, sp), Functional(right, sp)) == 0.0
    oracle = quad(lambda t: t * t, 0, 1)[0]
    t_vec = Vec(sp.nodes.copy(), sp)
    t_fun = Functional(sp.nodes.copy(), sp)
    assert pairing(t_vec, t_fun) == pytest.approx(oracle, rel=1e-5)


def test_pairing_holder_bound():
    sp = Space.uniform(64, 3.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = Vec(rng.standard_normal(64), sp)
        f = Functional(rng.standard_normal(64), sp)
        assert abs(pairing(v, f)) <= norm(v) * f.norm() * (1 + 1e-12)


# ---------------------------------------------------------------- duality maps

def test_duality_map_is_identity_for_p2():
    sp = Space.uniform(32, 2.0)
    v = Vec(np.sin(sp.nodes), sp)
    assert np.allclose(duality_map(v).coeffs, v.coeffs, atol=1e-14)


def test_duality_map_of_zero():
    sp = Space.uniform(32, 4.0)
    assert np.all(duality_map(Vec(np.zeros(32), sp)).coeffs == 0.0)


def test_duality_map_single_node_p4():
    sp = Space.uniform(16, 4.0)
    v = np.zeros(16)
    v[5] = -2.0
    vv = Vec(v, sp)
    jv = duality_map(vv)
    assert pairing(vv, jv) == pytest.approx(norm(vv) ** 2, rel=1e-12)
    assert jv.norm() == pytest.approx(norm(vv), rel=1e-12)
    assert np.count_nonzero(jv.coeffs) == 1


def test_duality_map_identities_random():
    # defining identities <v,Jv> = ||v||^2 and ||Jv||_{p'} = ||v||_p
    rng = np.random.default_rng(7)
    for p in (1.5, 2.0, 3.0, 4.0):
        sp = Space.uniform(48, p)
        for _ in range(10):
            v = Vec(rng.standard_normal(48) * rng.uniform(0.1, 10), sp)
            jv = duality_map(v)
            nv = norm(v)
            assert abs(pairing(v, jv) - nv ** 2) <= 1e-10 * nv ** 2
            assert abs(jv.norm() - nv) <= 1e-10 * nv
            jt = normalized_duality_map(v)
            assert jt.norm() == pytest.approx(1.0, rel=1e-12)
            assert pairing(v, jt) == pytest.approx(nv, rel=1e-12)


def test_inverse_duality_roundtrip():
    rng = np.random.default_rng(11)
    for p in (1.5, 2.0, 3.0, 4.0):
        sp = Space.uniform(40, p)
        for _ in range(5):
            v = Vec(rng.standard_normal(40), sp)
            back = inverse_duality_map(duality_map(v))
            assert np.max(np.abs(back.coeffs - v.coeffs)) <= 1e-10 * np.max(np.abs(v.coeffs))
    sp = Space.uniform(16, 3.0)
    assert np.all(inverse_duality_map(Functional(np.zeros(16), sp)).coeffs == 0.0)
    # p = 2: identity
    sp2 = Space.uniform(16, 2.0)
    f = Functional(np.arange(16.0), sp2)
    assert np.allclose(inverse_duality_map(f).coeffs, f.coeffs)


def test_jtilde_takes_one_norm(monkeypatch):
    calls = []
    inner = space._lp_norm

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(space, "_lp_norm", counted)
    sp = Space.uniform(24, 3.0)
    v = np.random.default_rng(5).standard_normal(24)
    jt = space._jtilde(v, sp.weights, sp.p)
    assert len(calls) == 1
    expected = space._jmap(v, sp.weights, sp.p) / inner(v, sp.weights, sp.p)
    assert np.max(np.abs(jt - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_sup_dev_up_to_sign():
    a = np.array([1.0, -2.0, 0.5])
    assert sup_dev_up_to_sign(a, a) == 0.0
    assert sup_dev_up_to_sign(a, -a) == 0.0
    assert sup_dev_up_to_sign(a, -a + np.array([0.0, 0.25, 0.0])) == 0.25
    assert isinstance(sup_dev_up_to_sign(a, a), float)


# ---------------------------------------------------------------- semi-inner

def test_semi_inner_reduces_to_inner_product_p2():
    sp = Space.uniform(64, 2.0)
    rng = np.random.default_rng(5)
    x = Vec(rng.standard_normal(64), sp)
    h = Vec(rng.standard_normal(64), sp)
    expected = float(sp.weights @ (x.coeffs * h.coeffs))
    assert semi_inner(x, h) == pytest.approx(expected, rel=1e-12)


def test_semi_inner_defining_identity():
    for p in (1.5, 3.0):
        sp = Space.uniform(32, p)
        x = Vec(np.cos(sp.nodes), sp)
        assert semi_inner(x, x) == pytest.approx(norm(x) ** 2, rel=1e-12)
    sp = Space.uniform(32, 3.0)
    h = Vec(np.ones(32), sp)
    assert semi_inner(Vec(np.zeros(32), sp), h) == 0.0


def test_semi_inner_linearity_in_h():
    sp = Space.uniform(48, 2.5)
    rng = np.random.default_rng(13)
    x = Vec(rng.standard_normal(48), sp)
    h = Vec(rng.standard_normal(48), sp)
    g = Vec(rng.standard_normal(48), sp)
    a, b = 1.37, -2.11
    lhs = semi_inner(x, Vec(a * h.coeffs + b * g.coeffs, sp))
    rhs = a * semi_inner(x, h) + b * semi_inner(x, g)
    scale = abs(lhs) + abs(rhs) + 1.0
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_semi_inner_value_against_quadrature():
    # (x, h) for x = 1, h = t at p = 3 equals integral of t (J~(1) is the
    # constant functional and ||1||_3 = 1 on (0,1))
    oracle = quad(lambda t: t, 0, 1)[0]
    sp = Space.uniform(1024, 3.0)
    x = Vec(np.ones(1024), sp)
    h = Vec(sp.nodes.copy(), sp)
    assert semi_inner(x, h) == pytest.approx(oracle, rel=1e-6)


# ---------------------------------------------------------------- James orthogonality

def test_j_orthogonal_p2_pair():
    sp = Space.uniform(64, 2.0)
    x = Vec(np.sin(2 * np.pi * sp.nodes), sp)
    y = Vec(np.cos(2 * np.pi * sp.nodes), sp)
    assert is_j_orthogonal(x, y, 1e-10)


def test_j_orthogonal_self_is_false():
    sp = Space.uniform(16, 3.0)
    x = Vec(np.ones(16), sp)
    assert not is_j_orthogonal(x, x, 1e-10)
    with pytest.raises(GeometryError):
        is_j_orthogonal(Vec(np.zeros(16), sp), x, 1e-10)


def test_j_orthogonality_not_symmetric_at_p4():
    # witness found by seeded random search: v built J-orthogonal to y via
    # the Alber split, while (y, v) stays far from zero
    sp = Space.sequence(8, 4.0)
    rng = np.random.default_rng(2)
    y = Vec(rng.standard_normal(8), sp)
    z = Vec(rng.standard_normal(8), sp)
    _, v = alber_decompose(z, [y])
    nv, ny = norm(v), norm(y)
    assert is_j_orthogonal(v, y, 1e-8)
    assert abs(semi_inner(y, v)) > 0.05 * nv * ny


def test_james_minimality_criterion_matches_semi_inner():
    # when (x, y) = 0, the norm of x + t y stays above ||x|| for sampled t
    sp = Space.uniform(32, 3.0)
    rng = np.random.default_rng(17)
    for _ in range(5):
        y = Vec(rng.standard_normal(32), sp)
        z = Vec(rng.standard_normal(32), sp)
        _, v = alber_decompose(z, [y])
        assert is_j_orthogonal(v, y, 1e-8)
        nv = norm(v)
        for t in np.linspace(-10, 10, 81):
            assert norm(Vec(v.coeffs + t * y.coeffs, sp)) >= nv - 1e-8 * nv


# ---------------------------------------------------------------- Alber split

def test_alber_of_member_is_trivial():
    sp = Space.uniform(32, 3.0)
    m1 = Vec(np.ones(32), sp)
    m2 = Vec(sp.nodes.copy(), sp)
    x = Vec(2.0 * m1.coeffs - 3.0 * m2.coeffs, sp)
    m, v = alber_decompose(x, [m1, m2])
    assert np.max(np.abs(m.coeffs - x.coeffs)) <= 1e-8
    assert norm(v) <= 1e-8


def test_alber_p2_is_orthogonal_projection():
    sp = Space.uniform(64, 2.0)
    rng = np.random.default_rng(23)
    basis = [Vec(rng.standard_normal(64), sp) for _ in range(3)]
    x = Vec(rng.standard_normal(64), sp)
    m, v = alber_decompose(x, basis)
    # oracle: weighted least squares
    B = np.column_stack([b.coeffs for b in basis])
    sw = np.sqrt(sp.weights)
    c, *_ = np.linalg.lstsq(B * sw[:, None], x.coeffs * sw, rcond=None)
    assert np.allclose(m.coeffs, B @ c, atol=1e-10)


def test_alber_1d_against_golden_section():
    # oracle: golden-section minimization of c -> ||t - c||_3
    sp = Space.uniform(512, 3.0)
    x = Vec(sp.nodes.copy(), sp)
    one = Vec(np.ones(512), sp)

    def f(c):
        return norm(Vec(x.coeffs - c, sp))

    a, b = 0.0, 1.0
    invphi = (np.sqrt(5) - 1) / 2
    c1, c2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = f(c1), f(c2)
    for _ in range(200):
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - invphi * (b - a)
            f1 = f(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + invphi * (b - a)
            f2 = f(c2)
    c_star = (a + b) / 2
    m, v = alber_decompose(x, [one])
    assert m.coeffs[0] == pytest.approx(c_star, abs=1e-8)
    assert is_j_orthogonal(v, one, 1e-8)


def test_alber_uniqueness():
    # same span, different basis and perturbed warm starts give the same split
    sp = Space.uniform(48, 3.0)
    rng = np.random.default_rng(29)
    b1 = Vec(rng.standard_normal(48), sp)
    b2 = Vec(rng.standard_normal(48), sp)
    x = Vec(rng.standard_normal(48), sp)
    m_a, v_a = alber_decompose(x, [b1, b2])
    mixed = [Vec(0.7 * b1.coeffs - 1.3 * b2.coeffs, sp),
             Vec(0.2 * b1.coeffs + 0.4 * b2.coeffs, sp)]
    m_b, v_b = alber_decompose(x, mixed)
    assert np.max(np.abs(m_a.coeffs - m_b.coeffs)) <= 1e-8
    assert np.max(np.abs(v_a.coeffs - v_b.coeffs)) <= 1e-8


def test_alber_rejects_dependent_basis():
    sp = Space.uniform(16, 2.5)
    b1 = Vec(np.ones(16), sp)
    b2 = Vec(2.0 * np.ones(16), sp)
    with pytest.raises(GeometryError):
        alber_decompose(Vec(sp.nodes.copy(), sp), [b1, b2])


def test_min_norm_iteration_limit_reports_residual():
    sp = Space.uniform(32, 1.5)
    rng = np.random.default_rng(31)
    target = rng.standard_normal(32)
    B = rng.standard_normal((32, 2))
    with pytest.raises(ConvergenceError) as err:
        min_norm_coeffs(target, B, sp.weights, 1.5, max_iter=1)
    assert err.value.residual is not None
