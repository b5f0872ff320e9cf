import copy
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad

from jspectral import (
    ConvergenceError,
    Functional,
    GenTrig,
    GeometryError,
    JSpectrum,
    LinOp,
    Space,
    Vec,
    alber_decompose,
    approx_numbers,
    approx_numbers_report,
    bilap_eigenvalue,
    check_decay_condition,
    compute_jspectrum,
    cover_from_basis,
    double_series,
    double_series_apply,
    dual_jspectrum,
    duality_map,
    eigenvector_bound_check,
    extremal_pair,
    flag_biorthogonal_series,
    hardy,
    hardy_norm_formula,
    hardy_qcompact_demo,
    hilbert_source_series,
    hilbert_target_series,
    hilbertian_series,
    inverse_duality_map,
    is_j_orthogonal,
    kernel_op,
    konig_report,
    laplacian_residual_parts,
    norm,
    normalized_duality_map,
    pairing,
    power,
    sandwich_check,
    semi_inner,
    sobolev_embedding_demo,
    space,
)
from jspectral.oper import scale
from jspectral.series import random_unit_vectors
from jspectral.space import min_norm_coeffs, sup_dev_up_to_sign


# ---------------------------------------------------------------- Space type

def test_space_invariants_enforced():
    with pytest.raises(GeometryError):
        Space.uniform(8, 1.0)  # p = 1 rejected
    with pytest.raises(GeometryError):
        Space.uniform(8, np.inf)
    for n in (1, 0, -4):  # rejected before the cell width b / n is formed
        with pytest.raises(GeometryError, match="at least 2 nodes"):
            Space.uniform(n, 2.0)
    with pytest.raises(GeometryError, match="at least 2 nodes"):
        Space(np.array([0.5]), np.ones(1), 2.0, 1.0)
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


def test_vec_and_functional_reject_non_finite_coefficients():
    sp = Space.uniform(4, 2.0)
    for bad in ([np.nan, 1.0, np.inf, 0.0], [0.0, 1.0, -np.inf, 0.0], [0.0, np.nan, 1.0, 0.0]):
        with pytest.raises(GeometryError, match="finite"):
            Vec(np.array(bad), sp)
        with pytest.raises(GeometryError, match="finite"):
            Functional(np.array(bad), sp)


@pytest.mark.parametrize("cls", [Vec, Functional])
def test_vec_and_functional_are_immutable_checked_copies(cls):
    sp = Space.uniform(4, 3.0)
    src = np.array([1.0, -2.0, 0.5, 0.0])
    v = cls(src, sp)
    src[0] = 9.0  # the instance holds its own copy
    assert v.coeffs.tolist() == [1.0, -2.0, 0.5, 0.0] and v.space is sp
    with pytest.raises(ValueError):
        v.coeffs[0] = 9.0
    for field in ("coeffs", "space"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(v, field, getattr(v, field))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(v, field)
    with pytest.raises(GeometryError, match="does not match"):
        cls(np.zeros(5), sp)
    with pytest.raises(GeometryError, match="finite"):
        cls(np.array([0.0, np.inf, 0.0, 0.0]), sp)
    for w in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v)):
        assert type(w) is cls and np.array_equal(w.coeffs, v.coeffs) and w.space == sp
        assert not w.coeffs.flags.writeable
    assert repr(v) == f"{cls.__name__}(coeffs={v.coeffs!r}, space={sp!r})"
    if cls is Vec:
        w = Vec.from_json(v.to_json())
        assert np.array_equal(w.coeffs, v.coeffs) and w.space == sp


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=300)
@given(n=st.integers(2, 64), p=st.floats(1.1, 8.0), e=st.floats(-100.0, 100.0),
       uniform=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n=48, p=2.0, e=0.0, uniform=True, seed=7)  # J is the identity
def test_duality_map_identities_random(n, p, e, uniform, seed):
    # defining identities <v,Jv> = ||v||^2 and ||Jv||_{p'} = ||v||_p, and the
    # round trip J^-1 J v = v, at every scale
    sp = Space.uniform(n, p) if uniform else Space.sequence(n, p)
    v = Vec(np.random.default_rng(seed).standard_normal(n) * 10.0 ** e, sp)
    jv = duality_map(v)
    nv = norm(v)
    assert abs(pairing(v, jv) - nv ** 2) <= 1e-12 * nv ** 2
    assert abs(jv.norm() - nv) <= 1e-12 * nv
    back = inverse_duality_map(jv)
    assert np.max(np.abs(back.coeffs - v.coeffs)) <= 1e-12 * np.max(np.abs(v.coeffs))
    jt = normalized_duality_map(v)
    assert jt.norm() == pytest.approx(1.0, rel=1e-12)
    assert pairing(v, jt) == pytest.approx(nv, rel=1e-12)


def test_inverse_duality_roundtrip():
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


def test_alber_rejects_a_basis_on_mixed_grids():
    sp, coarse = Space.uniform(16, 2.5), Space.uniform(8, 2.5)
    basis = [Vec(np.ones(16), sp), Vec(np.ones(8), coarse)]
    with pytest.raises(GeometryError, match="different grid"):
        alber_decompose(Vec(sp.nodes.copy(), sp), basis)


def test_min_norm_iteration_limit_reports_residual():
    sp = Space.uniform(32, 1.5)
    rng = np.random.default_rng(31)
    target = rng.standard_normal(32)
    B = rng.standard_normal((32, 2))
    with pytest.raises(ConvergenceError) as err:
        min_norm_coeffs(target, B, sp.weights, 1.5, max_iter=1)
    assert err.value.residual is not None


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_lp_norm_neither_overflows_nor_underflows(p):
    sp = Space.uniform(64, p)
    v = np.random.default_rng(37).standard_normal(64)
    nv = space._lp_norm(v, sp.weights, p)
    for s in (1e150, 1e-150):
        ns = space._lp_norm(s * v, sp.weights, p)
        assert np.isfinite(ns)
        assert abs(ns - s * nv) <= 1e-14 * s * nv
        assert np.any(space._jmap(s * v, sp.weights, p) != 0.0)


def test_lp_norm_of_an_integer_block_is_that_of_its_float_copy():
    # the p-th powers are taken in place, in a float array
    sp = Space.uniform(5, 2.5)
    block = np.arange(-5, 5).reshape(5, 2)
    assert np.array_equal(space._lp_norm(block, sp.weights, 2.5),
                          space._lp_norm(block.astype(float), sp.weights, 2.5))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_duality_maps_neither_overflow_nor_underflow(p):
    # J~ is homogeneous of degree 0 and J of degree 1 at every scale
    sp = Space.uniform(64, p)
    v = np.random.default_rng(37).standard_normal(64)
    jt = space._jtilde(v, sp.weights, p)
    jm = space._jmap(v, sp.weights, p)
    for s in (1e300, 1e-300):
        assert np.max(np.abs(space._jtilde(s * v, sp.weights, p) - jt)) <= 1e-14 * np.max(np.abs(jt))
        assert np.max(np.abs(space._jmap(s * v, sp.weights, p) / s - jm)) <= 1e-14 * np.max(np.abs(jm))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_lp_norm_of_a_block_is_the_norm_of_each_column(p):
    # the scaled second pass runs only on the columns outside the window,
    # and each column is summed as it would be alone
    sp = Space.uniform(64, p)
    v = np.random.default_rng(37).standard_normal(64)
    cols = [1e150 * v, v, 1e-150 * v, np.zeros(64)]
    got = space._lp_norm(np.column_stack(cols), sp.weights, p)
    assert got.shape == (4,)
    assert got.tolist() == [space._lp_norm(c, sp.weights, p) for c in cols]
    assert got[3] == 0.0


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 3.0])
def test_odd_power_matches_sign_times_power_bitwise(r):
    v = np.random.default_rng(5).standard_normal(96)
    v[::7] = 0.0
    for a in (v, v.reshape(32, 3), v.reshape(12, 8).T):
        want = np.sign(a) * np.abs(a) ** r
        got = space.odd_power(a, r)
        assert got.shape == a.shape
        # zeros compare equal, every other entry has the same bits
        assert np.array_equal(got, want)
        nz = a != 0.0
        assert np.array_equal(got[nz].view(np.int64), want[nz].view(np.int64))


def test_jtilde_maps_a_block_column_by_column():
    sp = Space.uniform(48, 3.0)
    V = np.random.default_rng(6).standard_normal((48, 3))
    V[:, 1] = 0.0
    got = space._jtilde(V, sp.weights, 3.0)
    for j in range(3):
        assert np.array_equal(got[:, j], space._jtilde(V[:, j].copy(), sp.weights, 3.0))
    assert not np.any(got[:, 1])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=200)
@given(n=st.integers(2, 48), p=st.floats(1.1, 8.0),
       scales=st.lists(st.one_of(st.none(), st.floats(-100.0, 100.0)), min_size=1,
                       max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_jmap_maps_a_block_column_by_column(n, p, scales, seed):
    # each column of a block, zero (None) or scaled by 10^e, maps bitwise as
    # it would alone
    sp = Space.uniform(n, p)
    V = np.random.default_rng(seed).standard_normal((n, len(scales)))
    for j, e in enumerate(scales):
        V[:, j] = 0.0 if e is None else V[:, j] * 10.0 ** e
    got = space._jmap(V, sp.weights, p)
    assert got.shape == V.shape
    for j in range(V.shape[1]):
        want = space._jmap(V[:, j], sp.weights, p)
        assert np.array_equal(got[:, j].view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------- min-norm solver

def _lstsq_coeffs(target, B, w):
    sw = np.sqrt(w)
    c, *_ = np.linalg.lstsq(B * sw[:, None], target * sw, rcond=None)
    return c


@settings(max_examples=60)
@given(n=st.integers(8, 64), k=st.integers(1, 6), p=st.floats(1.1, 5.0),
       seed=st.integers(0, 2**32 - 1))
def test_min_norm_coeffs_properties(n, k, p, seed):
    rng = np.random.default_rng(seed)
    w = Space.uniform(n, p).weights
    target = rng.standard_normal(n)
    B = rng.standard_normal((n, k))
    c, d = min_norm_coeffs(target, B, w, p)
    assert d == space._lp_norm(target - B @ c, w, p)
    assert d <= space._lp_norm(target - B @ _lstsq_coeffs(target, B, w), w, p)
    # no coordinate perturbation improves the distance
    for i in range(k):
        for h in (1e-6, -1e-6):
            e = np.zeros(k)
            e[i] = h
            assert space._lp_norm(target - B @ (c + e), w, p) >= d * (1.0 - 1e-10)
    # warm starts reach the same distance
    for c0 in (c + rng.standard_normal(k), c):
        _, d_warm = min_norm_coeffs(target, B, w, p, c0=c0)
        assert abs(d_warm - d) <= 1e-12 * d


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@settings(max_examples=60)
@given(n=st.integers(8, 64), k=st.integers(1, 6), r=st.integers(1, 8),
       p=st.floats(1.1, 5.0, exclude_min=True, exclude_max=True),
       fortran=st.booleans(), warm=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_min_norm_coeffs_block_columns_match_single_solves(n, k, r, p, fortran, warm, seed):
    # each column of a block steps as its own 1-d call, to the bit, whatever
    # the layout of the basis, the warm start and the per-column tolerance;
    # a looser tolerance stops earlier on the same descent, so never lower,
    # except by the rounding of a last step that leaves f = s / p equal but
    # raises the sum s by an ulp (n=20, k=1, r=2, p=1.375, seed=20 does)
    rng = np.random.default_rng(seed)
    w = Space.uniform(n, p).weights
    B = rng.standard_normal((n, k))
    if fortran:
        B = np.asfortranarray(B)
    target = rng.standard_normal((n, r))
    C0 = rng.standard_normal((k, r)) if warm else None
    gtol = 10.0 ** rng.uniform(-10.0, -2.0, r)
    C, d = min_norm_coeffs(target, B, w, p, c0=C0, gtol=gtol)
    assert C.shape == (k, r) and d.shape == (r,)
    for j in range(r):
        c0 = None if C0 is None else C0[:, j]
        c, dj = min_norm_coeffs(target[:, j], B, w, p, c0=c0, gtol=gtol[j])
        assert np.array_equal(_bits(C[:, j]), _bits(c))
        assert _bits(d[j]) == _bits(dj)
        _, d_tight = min_norm_coeffs(target[:, j], B, w, p, c0=c0)
        assert dj >= d_tight * (1.0 - 4.0 * np.finfo(float).eps)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_min_norm_coeffs_block_in_groups_matches_the_whole_block(monkeypatch, p):
    # on a large grid the columns descend in groups; the bits do not change
    rng = np.random.default_rng(6)
    n, k, r = 64, 3, 7
    w = np.full(n, 1.0 / n)
    B, target = rng.standard_normal((n, k)), rng.standard_normal((n, r))
    C, d = min_norm_coeffs(target, B, w, p)
    monkeypatch.setattr(space, "_GROUP_ENTRIES", 3 * n)
    Cg, dg = min_norm_coeffs(target, B, w, p)
    assert np.array_equal(_bits(Cg), _bits(C)) and np.array_equal(_bits(dg), _bits(d))


def test_min_norm_coeffs_block_reports_the_columns_that_fail():
    # at the iteration limit every column carries its coefficients and its
    # achieved distance, and the mask names the ones still running
    rng = np.random.default_rng(5)
    n, k = 64, 3
    w = np.full(n, 1.0 / n)
    B = rng.standard_normal((n, k))
    target = np.column_stack([B @ rng.standard_normal(k), rng.standard_normal(n)])
    with pytest.raises(ConvergenceError) as err:
        min_norm_coeffs(target, B, w, 3.0, max_iter=1)
    exc = err.value
    assert exc.failed.tolist() == [False, True]
    assert exc.coeffs.shape == (k, 2)
    for j in range(2):
        assert exc.residual[j] == space._lp_norm(target[:, j] - B @ exc.coeffs[:, j], w, 3.0)


def _solve_count(monkeypatch):
    calls = []
    inner = np.linalg.solve

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


def _micro_case():
    """Target and basis of the p = 1.5, k = 8 kernel benchmark at n = 2048."""
    rng = np.random.default_rng(0)
    n, k = 2048, 8
    return rng, rng.standard_normal(n), rng.standard_normal((n, k)), np.full(n, 1.0 / n)


def test_min_norm_steps_on_dense_residual(monkeypatch):
    _, target, B, w = _micro_case()
    calls = _solve_count(monkeypatch)
    _, d = min_norm_coeffs(target, B, w, 1.5)
    assert len(calls) <= 8  # reweighted least-squares steps alone take 20
    assert d <= space._lp_norm(target - B @ _lstsq_coeffs(target, B, w), w, 1.5)


def test_min_norm_steps_on_sparse_residual(monkeypatch):
    # target = B a + s with s supported on 20 nodes; on it Newton steps alone
    # (halved until the value decreases) take 182 solves
    rng, _, B, w = _micro_case()
    s = np.zeros(B.shape[0])
    s[rng.choice(B.shape[0], 20, replace=False)] = rng.standard_normal(20)
    target = B @ rng.standard_normal(B.shape[1]) + s
    calls = _solve_count(monkeypatch)
    _, d = min_norm_coeffs(target, B, w, 1.5)
    assert len(calls) <= 12  # reweighted least-squares steps alone take 20
    assert d <= space._lp_norm(s, w, 1.5)


# ------------------------------------------------------- counts and seeds

@pytest.fixture(scope="module")
def small():
    """Small objects for the count and seed table: Hardy L3 -> L2 and
    L2 -> L2 at grid 32, a target series and a double series of the latter."""
    l2, l3 = Space.uniform(32, 2.0), Space.uniform(32, 3.0)
    H = hardy(l2, l2)
    js = compute_jspectrum(H, 2, tol=1e-9, seed=0, restarts=2)
    return {
        "l2": l2,
        "T": hardy(l3, l2),
        "H": H,
        "js": js,
        "rep": hilbert_target_series(H, js),
        "double": double_series(H, H, 2, tol=1e-9, seed=0, restarts=2),
        "x": random_unit_vectors(l2, 1, seed=1)[0],
    }


def _cover(s, **kw):
    sp = s["l2"]
    basis = [Vec(np.cos(n * np.pi * sp.nodes), sp) for n in range(1, 4)]
    return cover_from_basis(s["H"], basis, 2.0, **kw)


# each row: a call of the public API with one bad count or seed, and the
# GeometryError it raises (before the one count rule, each of these raised
# another error, or none, and some returned a wrong answer)
@pytest.mark.parametrize("call, message", [
    (lambda s: compute_jspectrum(s["T"], 2, seed=-1),
     "seed must be at least 0, got -1"),
    (lambda s: dual_jspectrum(s["T"], 2, seed=-1),
     "seed must be at least 0, got -1"),
    (lambda s: extremal_pair(s["T"], seed=-1), "seed must be at least 0, got -1"),
    (lambda s: random_unit_vectors(s["l2"], 3, seed=-1),
     "seed must be at least 0, got -1"),
    (lambda s: _cover(s, seed=-1), "seed must be at least 0, got -1"),
    (lambda s: s["rep"].apply_truncated(s["x"], -1), "n_terms must be at least 0, got -1"),
    (lambda s: s["rep"].remainder(s["H"], -1), "n must be at least 0, got -1"),
    (lambda s: s["rep"].reconstruction_errors(s["H"], [s["x"]], [-1]),
     "N must be at least 0, got -1"),
    (lambda s: eigenvector_bound_check(s["H"], s["js"], n_max=-1),
     "n_max must be at least 0, got -1"),
    (lambda s: approx_numbers(s["H"], -1), "n_max must be at least 0, got -1"),
    (lambda s: approx_numbers(s["H"], 2.5),
     "n_max must be an integer of at least 0, got 2.5"),
    (lambda s: hardy_qcompact_demo(n_terms=3.5, grid_n=64),
     "n_terms must be an integer of at least 3, got 3.5"),
    (lambda s: sobolev_embedding_demo(4.5, grid_n=64),
     "m_max must be an integer of at least 4, got 4.5"),
    (lambda s: _cover(s, n_samples=-1), "n_samples must be at least 0, got -1"),
    (lambda s: power(s["H"], 2.5), "k must be an integer of at least 1, got 2.5"),
    (lambda s: power(s["H"], True), "k must be an integer of at least 1, got True"),
    (lambda s: compute_jspectrum(s["T"], True),
     "the number of levels must be an integer of at least 0, got True"),
    (lambda s: compute_jspectrum(s["T"], 2, restarts=True),
     "restarts must be an integer of at least 1, got True"),
    (lambda s: extremal_pair(s["T"], max_iter=True),
     "max_iter must be an integer of at least 0, got True"),
    (lambda s: konig_report(s["H"], True, 1),
     "n must be an integer of at least 1, got True"),
    (lambda s: konig_report(s["H"], 1.5, 2),
     "n must be an integer of at least 1, got 1.5"),
    (lambda s: Space.uniform(2.5, 2.0), "n must be an integer of at least 2, got 2.5"),
    (lambda s: random_unit_vectors(s["l2"], 2.5),
     "count must be an integer of at least 0, got 2.5"),
    (lambda s: double_series_apply(s["double"], s["x"], -1, 2),
     "n_i must be at least 0, got -1"),
    # seeds that these calls never draw from
    (lambda s: konig_report(s["H"], 1, 0, seed=-1), "seed must be at least 0, got -1"),
    (lambda s: approx_numbers(s["H"], 2, seed=-1), "seed must be at least 0, got -1"),
    # tol and restarts of calls that run no solve
    (lambda s: compute_jspectrum(s["T"], 0, restarts=0), "restarts must be at least 1, got 0"),
    (lambda s: compute_jspectrum(s["T"], 0, tol=np.nan),
     "tol must be finite and positive, got nan"),
    (lambda s: konig_report(s["H"], 1, 0, restarts=0), "restarts must be at least 1, got 0"),
    (lambda s: approx_numbers(s["H"], 2, restarts=0), "restarts must be at least 1, got 0"),
    (lambda s: approx_numbers(s["H"], 2, tol=-1.0), "tol must be finite and positive, got -1"),
], ids=[
    "compute_jspectrum-seed", "dual_jspectrum-seed", "extremal_pair-seed",
    "random_unit_vectors-seed", "cover_from_basis-seed", "apply_truncated-n_terms",
    "remainder-n", "reconstruction_errors-ns", "eigenvector_bound_check-n_max",
    "approx_numbers-negative", "approx_numbers-fraction", "hardy_qcompact_demo-n_terms",
    "sobolev_embedding_demo-m_max", "cover_from_basis-n_samples", "power-fraction",
    "power-bool", "compute_jspectrum-levels-bool", "compute_jspectrum-restarts-bool",
    "extremal_pair-max_iter-bool", "konig_report-n-bool", "konig_report-n-fraction",
    "Space.uniform-fraction", "random_unit_vectors-count-fraction", "double_series_apply-n_i",
    "konig_report-unused-seed", "approx_numbers-unused-seed",
    "compute_jspectrum-no-level-restarts", "compute_jspectrum-no-level-tol",
    "konig_report-no-power-restarts", "approx_numbers-exact-restarts", "approx_numbers-exact-tol",
])
def test_bad_counts_and_seeds_raise_one_line(small, call, message):
    with pytest.raises(GeometryError) as err:
        call(small)
    assert str(err.value) == message


def test_count_accepts_numpy_integers_and_returns_an_int():
    for value in (3, np.int64(3), np.uint8(3)):
        got = space._count(value, "n", 3)
        assert got == 3 and type(got) is int
    assert Space.sequence(np.int32(3), 2.0) == Space.sequence(3, 2.0)
    for value in (2, 2.0, 3.0, "3", None, np.bool_(True), False):
        with pytest.raises(GeometryError, match="^n must be"):
            space._count(value, "n", 3)
    with pytest.raises(GeometryError, match="^too few$"):
        space._count(2, "n", 3, below="too few")


# ------------------------------------------- reals, options and spectra

@pytest.fixture(scope="module")
def wide(small):
    """The objects of the count and seed table, with Hardy L2 -> L2 on (0, 2)
    and Hardy L2 -> L3 on (0, 1), both beside spectra of other operators,
    and a smooth u on 64 nodes."""
    l2 = small["l2"]
    l2_wide = Space.uniform(32, 2.0, b=2.0)
    return {**small, "H2": hardy(l2_wide, l2_wide), "T23": hardy(l2, Space.uniform(32, 3.0)),
            "u": np.sin(np.linspace(0.01, 1.0, 64))}


def _mismatch(who, want, got="Space(n=32, p=2, b=1) to Space(n=32, p=2, b=1)"):
    return f"{who} needs a spectrum from {want}, got one from {got}"


_ON_0_2 = "Space(n=32, p=2, b=2) to Space(n=32, p=2, b=2)"
_L2_L3 = "Space(n=32, p=2, b=1) to Space(n=32, p=3, b=1)"
_NAN = float("nan")
_ON_0_1 = "Space(n=32, p=2, b=1) to Space(n=32, p=2, b=1)"


def _wrong_operator(who):
    return f"{who} needs an operator from {_ON_0_1}, got one from {_ON_0_2}"


# each row: a call of the public API with one bad real number or spectrum,
# and the GeometryError it raises (before the one rule for reals, options
# and spectra, each of these raised another error, or none, and most
# returned a wrong answer)
@pytest.mark.parametrize("call, message", [
    # a spectrum on (0, 1) beside an operator on (0, 2), or of L2 -> L2
    # beside an operator L2 -> L3
    (lambda s: hilbert_target_series(s["H2"], s["js"]),
     _mismatch("hilbert_target_series", _ON_0_2)),
    (lambda s: hilbert_source_series(s["T23"], s["js"]),
     _mismatch("hilbert_source_series", _L2_L3)),
    (lambda s: flag_biorthogonal_series(s["H2"], s["js"]),
     _mismatch("flag_biorthogonal_series", _ON_0_2)),
    (lambda s: check_decay_condition(s["js"], "lp", T=s["H2"]),
     _mismatch("check_decay_condition", _ON_0_2)),
    (lambda s: hilbertian_series(s["H2"], s["H2"], s["js"]),
     _mismatch("hilbertian_series", _ON_0_2)),
    (lambda s: approx_numbers_report(s["T23"], 2, js=s["js"]),
     _mismatch("approx_numbers_report", _L2_L3)),
    (lambda s: approx_numbers(s["H2"], 2, js=s["js"]), _mismatch("approx_numbers", _ON_0_2)),
    (lambda s: eigenvector_bound_check(s["H2"], s["js"]),
     _mismatch("eigenvector_bound_check", _ON_0_2)),
    (lambda s: check_decay_condition(JSpectrum(lambdas=[0.5, 0.2]), "lp"),
     "the lp decay mode needs T or a level for its exponents"),
    # a series on (0, 1) evaluated against an operator on (0, 2)
    (lambda s: s["rep"].remainder(s["H2"], 1), _wrong_operator("remainder")),
    (lambda s: s["rep"].reconstruction_errors(s["H2"], [s["x"]], [1]),
     _wrong_operator("reconstruction_errors")),
    (lambda s: s["rep"].to_json(s["H2"], [s["x"]], [1]),
     _wrong_operator("reconstruction_errors")),
    (lambda s: dual_jspectrum(s["H2"], 1, primal=s["js"]), _mismatch("dual_jspectrum", _ON_0_2)),
    (lambda s: eigenvector_bound_check(s["H"], s["js"], a_values=[0.5]),
     "a_values needs at least 2 entries, got 1"),
    # reals out of range or not numbers
    (lambda s: bilap_eigenvalue(3, -1), "b must be finite and positive, got -1"),
    (lambda s: bilap_eigenvalue(1, 1), "p must be finite and above 1, got 1"),
    (lambda s: bilap_eigenvalue(3, 0), "b must be finite and positive, got 0"),
    (lambda s: laplacian_residual_parts(s["u"], 0.5, 2.0, 1.0, 1.0, "(p,2)"),
     "p must be finite and above 1, got 0.5"),
    (lambda s: laplacian_residual_parts(s["u"], 2.0, 2.0, _NAN, 1.0, "(p,2)"),
     "lam must be finite, got nan"),
    (lambda s: laplacian_residual_parts(np.where(s["u"] > 0.5, _NAN, s["u"]), 2.0, 2.0,
                                        1.0, 1.0, "(p,2)"),
     "u must be finite"),
    (lambda s: s["js"].semi_orth_table("z"), "side must be 'x' or 'y'"),
    (lambda s: sandwich_check(s["js"], [0.5, 0.1], tol=_NAN),
     "tol must be finite and positive, got nan"),
    (lambda s: eigenvector_bound_check(s["H"], s["js"], tol=_NAN),
     "tol must be finite and positive, got nan"),
    (lambda s: is_j_orthogonal(s["x"], s["x"], _NAN), "tol must be finite and positive, got nan"),
    (lambda s: extremal_pair(s["T"], tol=True), "tol must be finite and positive, got True"),
    (lambda s: scale(s["T"], True), "the scale factor must be finite, got True"),
    (lambda s: Space.uniform(8, 2.0, True), "b must be finite and positive, got True"),
    (lambda s: hardy_norm_formula(3, True),
     "hardy_norm_formula needs p in (1, inf), b in (0, inf)"),
    (lambda s: Space.uniform(8, "2"), "p must be finite and above 1, got '2'"),
    (lambda s: Space.uniform(8, 2.0, "2"), "b must be finite and positive, got '2'"),
    (lambda s: GenTrig("3", 2), "GenTrig needs p, q in (1, inf)"),
    (lambda s: compute_jspectrum(s["T"], 1, tol="1e-8"),
     "tol must be finite and positive, got '1e-8'"),
    (lambda s: scale(s["T"], "2"), "the scale factor must be finite, got '2'"),
    (lambda s: Space.uniform(8, 10**400), "p must be finite and above 1, got inf"),
], ids=[
    "hilbert_target_series-grid", "hilbert_source_series-exponent",
    "flag_biorthogonal_series-grid", "check_decay_condition-grid", "hilbertian_series-grid",
    "approx_numbers_report-exponent", "approx_numbers-grid", "eigenvector_bound_check-grid",
    "check_decay_condition-lp-hand-built", "remainder-grid", "reconstruction_errors-grid",
    "to_json-grid", "dual_jspectrum-primal-grid", "eigenvector_bound_check-short-a_values",
    "bilap_eigenvalue-negative-b",
    "bilap_eigenvalue-p-1", "bilap_eigenvalue-b-0", "laplacian_residual_parts-p",
    "laplacian_residual_parts-nan-lam", "laplacian_residual_parts-nan-u",
    "semi_orth_table-side", "sandwich_check-nan-tol", "eigenvector_bound_check-nan-tol",
    "is_j_orthogonal-nan-tol", "extremal_pair-bool-tol", "scale-bool", "Space.uniform-bool-b",
    "hardy_norm_formula-bool-b", "Space.uniform-string-p", "Space.uniform-string-b",
    "GenTrig-string-p", "compute_jspectrum-string-tol", "scale-string",
    "Space.uniform-huge-integer-p",
])
def test_bad_reals_and_spectra_raise_one_line(wide, call, message):
    with pytest.raises(GeometryError) as err:
        call(wide)
    assert str(err.value) == message


def test_real_and_choice_return_what_they_check():
    for value in (3, np.int64(3), np.float32(3.0), 3.0):
        got = space._real(value, "p", 1)
        assert got == 3.0 and type(got) is float
    assert space._real(np.inf, "q", 1, infinite=True) == np.inf
    assert space._real(10**400, "q", 1, infinite=True) == math.inf
    assert space._real(-2.5, "lam") == -2.5
    for value, message in ((np.inf, "q must be finite and above 1, got inf"),
                           (1.0, "q must be finite and above 1, got 1"),
                           (None, "q must be finite and above 1, got None")):
        with pytest.raises(GeometryError) as err:
            space._real(value, "q", 1)
        assert str(err.value) == message
    with pytest.raises(GeometryError, match="^q must be finite and above 1, got "):
        space._real(np.bool_(True), "q", 1)
    with pytest.raises(GeometryError, match="^q must be above 1, got nan$"):
        space._real(np.nan, "q", 1, infinite=True)
    with pytest.raises(GeometryError, match="^pinned$"):
        space._real(0.0, "b", 0, message="pinned")
    assert space._choice("col", "order", ("row", "col")) == "col"
    for value in ("diag", None, ["row"]):
        with pytest.raises(GeometryError, match="^order must be 'row' or 'col'$"):
            space._choice(value, "order", ("row", "col"))


# ------------------------------------------------------------------ arrays

_ON_4, _ON_2 = Space.uniform(4, 2.0), Space.uniform(2, 2.0)


# each row: a call of the public API with one bad array, and the
# GeometryError it raises (before the one array rule, each of these raised
# a bare ValueError or TypeError, kept the real part with a ComplexWarning,
# or raised nothing)
@pytest.mark.parametrize("call, message", [
    (lambda s: Vec(np.ones(4) + 1j, _ON_4), "coefficients must hold real numbers, got complex numbers"),
    (lambda s: Functional(np.ones(4) + 1j, _ON_4),
     "coefficients must hold real numbers, got complex numbers"),
    (lambda s: Vec(np.ones(4, dtype=bool), _ON_4), "coefficients must hold real numbers, got bools"),
    (lambda s: Vec(["1", "2", "3", "4"], _ON_4), "coefficients must hold real numbers, got strings"),
    (lambda s: Vec([[1.0], [2.0, 3.0]], _ON_4),
     "coefficients must be a rectangular array, got a ragged sequence"),
    (lambda s: Vec.from_json(Vec(np.ones(4), _ON_4).to_json().replace(
        "[1.0, 1.0, 1.0, 1.0]", '["1", "1", "1", "x"]')),
     "coefficients must hold real numbers, got strings"),
    (lambda s: Space(["0.25", "x"], [0.5, 0.5], 2.0, 1.0), "nodes must hold real numbers, got strings"),
    (lambda s: Space([[0.25], [0.5, 0.75]], [0.5, 0.5], 2.0, 1.0),
     "nodes must be a rectangular array, got a ragged sequence"),
    (lambda s: Space([0.25, 0.75], np.array([0.5, 0.5]) + 1j, 2.0, 1.0),
     "weights must hold real numbers, got complex numbers"),
    (lambda s: Space([0.25, 0.75], [True, True], 2.0, 2.0), "weights must hold real numbers, got bools"),
    (lambda s: LinOp(1j * np.eye(2), _ON_2, _ON_2),
     "the operator matrix must hold real numbers, got complex numbers"),
    (lambda s: LinOp(np.eye(2, dtype=bool), _ON_2, _ON_2),
     "the operator matrix must hold real numbers, got bools"),
    (lambda s: LinOp.from_csv("1,0\r\n0,x\r\n", _ON_2, _ON_2),
     "the operator matrix must hold real numbers, got strings"),
    (lambda s: LinOp.from_csv("1,0\r\n0\r\n", _ON_2, _ON_2),
     "the operator matrix must be a rectangular array, got a ragged sequence"),
    (lambda s: kernel_op(_ON_4, _ON_4, lambda x, y: 1j + 0 * x),
     "the kernel k must hold real numbers, got complex numbers"),
    (lambda s: kernel_op(_ON_4, _ON_4, lambda x, y: "1"),
     "the kernel k must hold real numbers, got strings"),
    (lambda s: kernel_op(_ON_4, _ON_4, lambda x, y: x > y),
     "the kernel k must hold real numbers, got bools"),
    (lambda s: GenTrig(3.0, 1.5).sin("0.1"), "x must hold real numbers, got strings"),
    (lambda s: GenTrig(3.0, 1.5).sin(True), "x must hold real numbers, got bools"),
    (lambda s: GenTrig(3.0, 1.5).cos(0.1 + 1j), "x must hold real numbers, got complex numbers"),
    (lambda s: GenTrig(3.0, 1.5).sin([[0.1], [0.2, 0.3]], extend=True),
     "x must be a rectangular array, got a ragged sequence"),
    (lambda s: GenTrig(3.0, 1.5).table_csv(["0.1", "0.2"]), "x must hold real numbers, got strings"),
    (lambda s: laplacian_residual_parts(s["u"].reshape(8, 8), 2.0, 2.0, 1.0, 1.0, "(p,2)"),
     "u must be 1-d, got 2-d"),
    (lambda s: laplacian_residual_parts(s["u"] + 1j, 2.0, 2.0, 1.0, 1.0, "(p,2)"),
     "u must hold real numbers, got complex numbers"),
    (lambda s: sandwich_check(s["js"], [_NAN] * 3), "a must be finite"),
    (lambda s: sandwich_check(s["js"], [0.5, np.inf]), "a must be finite"),
    (lambda s: sandwich_check(s["js"], ["0.5", "0.1"]), "a must hold real numbers, got strings"),
    (lambda s: sandwich_check(s["js"], [[0.5, 0.1]]), "a must be 1-d, got 2-d"),
    (lambda s: eigenvector_bound_check(s["H"], s["js"], a_values=[_NAN, _NAN]),
     "a_values must be finite"),
    (lambda s: eigenvector_bound_check(s["H"], s["js"], a_values=[0.5 + 1j, 0.1]),
     "a_values must hold real numbers, got complex numbers"),
], ids=[
    "Vec-complex", "Functional-complex", "Vec-bool", "Vec-string", "Vec-ragged",
    "Vec.from_json-string", "Space-string-nodes", "Space-ragged-nodes", "Space-complex-weights",
    "Space-bool-weights", "LinOp-complex", "LinOp-bool", "LinOp.from_csv-string",
    "LinOp.from_csv-ragged", "kernel_op-complex", "kernel_op-string", "kernel_op-bool",
    "sin-string", "sin-bool", "cos-complex", "sin-ragged", "table_csv-string",
    "laplacian_residual_parts-2d-u", "laplacian_residual_parts-complex-u", "sandwich_check-nan",
    "sandwich_check-inf", "sandwich_check-string", "sandwich_check-2d",
    "eigenvector_bound_check-nan-a_values", "eigenvector_bound_check-complex-a_values",
])
def test_bad_arrays_raise_one_line(wide, call, message):
    with pytest.raises(GeometryError) as err:
        call(wide)
    assert str(err.value) == message


def _reals(shape, lo, hi):
    """Arrays of integers, float32 or float64 in [lo, hi], or the nested
    lists of such arrays."""
    floats = {"float32": st.floats(lo, hi, width=32), "float64": st.floats(lo, hi)}
    arrays = st.one_of(hnp.arrays(np.int64, shape, elements=st.integers(int(lo), int(hi))),
                       *(hnp.arrays(dtype, shape, elements=e) for dtype, e in floats.items()))
    return st.one_of(arrays, arrays.map(np.ndarray.tolist))


def _bitwise(a, b):
    """a and b are float64 arrays of one shape and the same bits."""
    return a.dtype == b.dtype == np.float64 and a.shape == b.shape and a.tobytes() == b.tobytes()


# the integers reach beyond 2^53, where their floats round
@settings(max_examples=40)
@given(x=_reals(16, -2.0 ** 62, 2.0 ** 62), m=_reals((16, 16), -2.0 ** 62, 2.0 ** 62),
       w=_reals(16, 1, 2 ** 20))
def test_array_sites_store_the_float_array_of_their_argument(wide, x, m, w):
    """Each checked site keeps, bitwise, np.asarray(argument, dtype=float)."""
    sp = Space.uniform(16, 3.0)
    want, want_m = np.asarray(x, dtype=float), np.asarray(m, dtype=float)
    for cls in (Vec, Functional):
        assert _bitwise(cls(x, sp).coeffs, want)
    assert _bitwise(LinOp(m, sp, sp).matrix, want_m)
    mask = np.tril(np.ones((16, 16)), -1) + np.eye(16) * 0.5
    assert _bitwise(kernel_op(sp, sp, lambda s, t: m).matrix, want_m * mask * sp.weights[None, :])
    want_w = np.asarray(w, dtype=float)
    grid = Space(np.cumsum(want_w) - want_w / 2, w, 2.0, float(want_w.sum()))
    assert _bitwise(grid.weights, want_w)
    g = GenTrig(3.0, 1.5)
    assert _bitwise(g.sin(x, extend=True), g.sin(want, extend=True))
    assert g.table_csv(x) == g.table_csv(want)
    assert (laplacian_residual_parts(x, 2.0, 2.0, 1.0, 1.0, "(p,2)")
            == laplacian_residual_parts(want, 2.0, 2.0, 1.0, 1.0, "(p,2)"))
    n = wide["js"].n_levels
    assert sandwich_check(wide["js"], x).approx == want[:n].tolist()
    checked = eigenvector_bound_check(wide["H"], wide["js"], a_values=x)
    assert checked["a"] == want[:n].tolist()
