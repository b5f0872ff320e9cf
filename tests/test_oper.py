import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from jspectral import (
    GeometryError,
    LinOp,
    Space,
    Vec,
    adjoint,
    apply,
    apply_adjoint,
    compose,
    hardy,
    hardy_dual,
    identity,
    kernel_op,
    pairing,
    power,
)
from jspectral.oper import scale
from jspectral.space import Functional


def test_hardy_integrates_constants_exactly():
    sp = Space.uniform(128, 2.0)
    T = hardy(sp, sp)
    out = apply(T, Vec(np.ones(128), sp))
    assert np.max(np.abs(out.coeffs - sp.nodes)) <= 1e-14


def test_hardy_on_cosine_matches_closed_form():
    sp = Space.uniform(1024, 2.0)
    T = hardy(sp, sp)
    for n in (1, 3):
        f = Vec(np.cos(n * np.pi * sp.nodes), sp)
        got = apply(T, f).coeffs
        want = np.sin(n * np.pi * sp.nodes) / (n * np.pi)
        # composite midpoint is second order
        assert np.max(np.abs(got - want)) <= 0.5 * (n * np.pi / 1024) ** 2


def test_hardy_last_row_is_integral_up_to_last_node():
    sp = Space.uniform(64, 2.0)
    T = hardy(sp, sp)
    f = np.exp(sp.nodes)
    oracle = quad(np.exp, 0, sp.nodes[-1])[0]
    assert (T.dense() @ f)[-1] == pytest.approx(oracle, rel=1e-4)


def test_hardy_requires_common_interval():
    a = Space.uniform(32, 2.0, b=1.0)
    b = Space.uniform(32, 2.0, b=2.0)
    with pytest.raises(GeometryError):
        hardy(a, b)


def test_kernel_op_with_unit_kernel_is_hardy():
    sp = Space.uniform(64, 2.0)
    K = kernel_op(sp, sp, lambda x, y: 1.0)
    H = hardy(sp, sp)
    assert np.max(np.abs(K.matrix - H.dense())) == 0.0


def test_kernel_op_zero_kernel():
    sp = Space.uniform(32, 2.0)
    K = kernel_op(sp, sp, lambda x, y: 0.0)
    assert np.all(K.matrix == 0.0)


def test_kernel_op_rejects_nonfinite():
    sp = Space.uniform(32, 2.0)
    with pytest.raises(GeometryError):
        kernel_op(sp, sp, lambda x, y: np.full(np.broadcast(x, y).shape, np.inf))


def test_kernel_op_rejects_values_that_do_not_broadcast_to_the_grid():
    sp = Space.uniform(4, 2.0)
    with pytest.raises(GeometryError, match="broadcast to 4 x 4, got shape \\(3,\\)"):
        kernel_op(sp, sp, lambda x, y: np.ones(3))


def test_second_antiderivative_kernel_matches_double_hardy():
    # k(x, y) = x - y realizes the second antiderivative, i.e. hardy squared
    sp = Space.uniform(512, 2.0)
    K = kernel_op(sp, sp, lambda x, y: x - y)
    H2 = compose(hardy(sp, sp), hardy(sp, sp))
    for m in (0, 1, 2):
        f = sp.nodes ** m
        exact = sp.nodes ** (m + 2) / ((m + 1) * (m + 2))
        for M in (K.matrix, H2.dense()):
            assert np.max(np.abs(M @ f - exact)) <= 5.0 / 512 ** 2


def test_adjoint_of_hardy_is_dual_hardy():
    sp = Space.uniform(64, 2.0)
    T = hardy(sp, sp)
    Td = hardy_dual(sp, sp)
    assert np.max(np.abs(adjoint(T).dense() - Td.dense())) <= 1e-15


def test_adjoint_of_identity():
    sp = Space.uniform(16, 3.0)
    I = identity(sp)
    assert np.allclose(adjoint(I).dense(), np.eye(16))


def test_adjoint_pairing_identity_random():
    rng = np.random.default_rng(3)
    dom = Space.uniform(40, 3.0)
    cod = Space.uniform(40, 2.0)
    T = LinOp(rng.standard_normal((40, 40)), dom, cod)
    Ts = adjoint(T)
    assert np.max(np.abs(adjoint(Ts).dense() - T.matrix)) <= 1e-12
    for _ in range(10):
        v = Vec(rng.standard_normal(40), dom)
        f = Functional(rng.standard_normal(40), cod)
        lhs = pairing(apply(T, v), f)
        rhs = pairing(v, apply_adjoint(T, f))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_identity_is_matrix_free_and_copies():
    sp = Space.uniform(4096, 2.0)
    I = identity(sp)
    assert I.matrix is None
    assert np.array_equal(I.dense(), np.eye(4096))
    # callers write into the blocks an operator returns
    x = np.arange(4096.0)
    for kernel in (I.apply_coeffs, I.apply_adjoint_coeffs):
        y = kernel(x)
        assert np.array_equal(y, x) and not np.shares_memory(y, x)


def test_compose_identity_and_power_rules():
    sp = Space.uniform(32, 2.0)
    rng = np.random.default_rng(5)
    T = LinOp(rng.standard_normal((32, 32)) / 32, sp, sp)
    assert np.allclose(compose(identity(sp), T).dense(), T.matrix)
    assert np.allclose(power(T, 1).dense(), T.matrix)
    assert np.allclose(power(T, 3).dense(), compose(T, power(T, 2)).dense(),
                       atol=1e-13)
    A = LinOp(rng.standard_normal((32, 32)), sp, sp)
    B = LinOp(rng.standard_normal((32, 32)), sp, sp)
    C = LinOp(rng.standard_normal((32, 32)), sp, sp)
    left = compose(compose(A, B), C).dense()
    right = compose(A, compose(B, C)).dense()
    assert np.max(np.abs(left - right)) <= 1e-10 * np.max(np.abs(left))


def test_power_of_hardy_gives_second_antiderivative():
    sp = Space.uniform(512, 2.0)
    T = power(hardy(sp, sp), 2)
    out = apply(T, Vec(np.ones(512), sp)).coeffs
    assert np.max(np.abs(out - sp.nodes ** 2 / 2)) <= 2.0 / 512 ** 2


def test_space_mismatch_raises():
    a = Space.uniform(16, 2.0)
    b = Space.uniform(24, 2.0)
    T = hardy(a, a)
    S = hardy(b, b)
    with pytest.raises(GeometryError):
        compose(T, S)
    with pytest.raises(GeometryError):
        apply(T, Vec(np.zeros(24), b))


def test_quadrature_order_on_polynomials():
    # halving h shrinks the hardy error on degree-2 polynomials about 4x
    errs = []
    for n in (128, 256):
        sp = Space.uniform(n, 2.0)
        T = hardy(sp, sp)
        f = sp.nodes ** 2
        exact = sp.nodes ** 3 / 3
        errs.append(np.max(np.abs(T.dense() @ f - exact)))
    assert errs[1] <= errs[0] / 3.0


def test_csv_json_roundtrip():
    sp = Space.uniform(8, 2.0)
    T = hardy(sp, sp)
    T2 = LinOp.from_csv(T.to_csv(), sp, sp)
    assert np.array_equal(T2.matrix, T.dense())
    assert "matrix" in T.to_json()


# ------------------------------------------------- matrix-free kernels

def _grid_spaces(widths, b, ps):
    """Spaces with exponents ps on the midpoint grid of the given cell widths."""
    w = np.asarray(widths) / np.sum(widths) * b
    nodes = np.cumsum(w) - w / 2
    return [Space(nodes, w, p, b) for p in ps]


def _lazy_family(widths, b, c):
    s3, s2, s15 = _grid_spaces(widths, b, (3.0, 2.0, 1.5))
    return {
        "hardy": hardy(s3, s2),
        "hardy_dual": hardy_dual(s3, s2),
        "adjoint(hardy)": adjoint(hardy(s3, s2)),
        "compose(hardy, hardy_dual)": compose(hardy(s2, s15), hardy_dual(s3, s2)),
        "power(hardy, 3)": power(hardy(s2, s2), 3),
        "scale(hardy, c)": scale(hardy(s3, s2), c),
    }


_grids = dict(
    widths=st.lists(st.floats(0.05, 20.0), min_size=2, max_size=32),
    b=st.floats(0.1, 10.0),
    # |c| kept clear of subnormals, where rounding is no longer relative
    c=st.floats(1e-3, 5.0) | st.floats(-5.0, -1e-3) | st.just(0.0),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**_grids)
def test_kernels_match_dense_on_random_grids(widths, b, c, k, seed):
    rng = np.random.default_rng(seed)
    ops = _lazy_family(widths, b, c)
    # the half-cell matrices as they were built densely
    w = ops["hardy"].dom.weights
    W = np.tile(w, (w.size, 1))
    assert np.array_equal(ops["hardy"].dense(), np.tril(W, -1) + np.diag(w / 2))
    assert np.array_equal(ops["hardy_dual"].dense(), np.triu(W, 1) + np.diag(w / 2))
    for name, T in ops.items():
        D = T.dense()
        for x in (rng.standard_normal(T.dom.dim), rng.standard_normal((T.dom.dim, k))):
            # weights as row factors of a vector or an n x k block
            w_d, w_c = (T.dom.weights, T.cod.weights) if x.ndim == 1 else \
                (T.dom.weights[:, None], T.cod.weights[:, None])
            size = np.max(np.abs(D) @ np.abs(x))
            assert np.max(np.abs(T.apply_coeffs(x) - D @ x)) <= 1e-14 * size, name
            TT = adjoint(adjoint(T))
            assert np.max(np.abs(TT.apply_coeffs(x) - D @ x)) <= 1e-14 * size, name
            want = (D.T @ (w_c * x)) / w_d
            size = np.max((np.abs(D.T) @ np.abs(w_c * x)) / w_d)
            assert np.max(np.abs(T.apply_adjoint_coeffs(x) - want)) <= 1e-14 * size, name


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**_grids)
def test_weighted_pairing_identity(widths, b, c, k, seed):
    rng = np.random.default_rng(seed)
    for name, T in _lazy_family(widths, b, c).items():
        D = T.dense()
        v = rng.standard_normal(T.dom.dim)
        f = rng.standard_normal(T.cod.dim)
        lhs = T.cod.weights @ (T.apply_coeffs(v) * f)
        rhs = T.dom.weights @ (v * T.apply_adjoint_coeffs(f))
        size = T.cod.weights @ ((np.abs(D) @ np.abs(v)) * np.abs(f))
        assert abs(lhs - rhs) <= 1e-13 * size, name


def test_hardy_allocates_no_square_matrix():
    n = 4096
    x = np.random.default_rng(0).standard_normal(n)
    tracemalloc.start()
    try:
        sp = Space.uniform(n, 2.0)
        T = hardy(sp, sp)
        T.apply_coeffs(x)
        T.apply_adjoint_coeffs(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * n * 8


def test_scale_rejects_non_finite_factor():
    sp = Space.uniform(8, 2.0)
    with pytest.raises(GeometryError):
        scale(hardy(sp, sp), np.inf)


def test_hardy_block_apply_equals_column_applies_bitwise():
    n = 4096
    widths = np.random.default_rng(12).uniform(0.5, 1.5, n)
    nodes = np.cumsum(widths) - 0.5 * widths
    sp = Space(nodes, widths, 2.0, float(widths.sum()))
    X = np.random.default_rng(13).standard_normal((n, 8))
    for T in (hardy(sp, sp), hardy_dual(sp, sp)):
        for kernel in (T.apply_coeffs, T.apply_adjoint_coeffs):
            block = kernel(X)
            for j in range(8):
                assert np.array_equal(block[:, j], kernel(X[:, j].copy()))


@settings(max_examples=60)
@given(widths=st.lists(st.floats(0.05, 20.0), min_size=2, max_size=64),
       k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_hardy_inverse_adjoint_kernel_round_trip(widths, k, seed):
    # A* (A*^-1 g) = g to 8 n eps max|g| per column: the worst of 3000 random
    # draws of these strategies was 2.8 n eps (at n = 2), and random draws at
    # n = 512 to 2^16 stayed under 0.6 n eps
    w = np.asarray(widths)
    n = w.size
    sp = Space(np.cumsum(w) - w / 2, w, 2.0, float(np.sum(w)))
    G = np.random.default_rng(seed).standard_normal((n, k))
    bound = 8 * n * np.finfo(float).eps * np.max(np.abs(G), axis=0)
    for T in (hardy(sp, sp), hardy_dual(sp, sp)):
        U = T._adj_inv(G)
        assert np.all(np.max(np.abs(T.apply_adjoint_coeffs(U) - G), axis=0) <= bound)
        for j in range(k):
            u = T._adj_inv(G[:, j].copy())
            assert np.array_equal(U[:, j], u)
            assert abs(T.apply_adjoint_coeffs(u) - G[:, j]).max() <= bound[j]


def test_only_the_hardy_pair_inverts_its_adjoint():
    ops = _lazy_family([1.0, 2.0, 0.5, 1.5], 2.0, 0.5)
    for name, T in ops.items():
        assert (T._adj_inv is not None) == (name in ("hardy", "hardy_dual")), name
    sp = ops["hardy"].dom
    for T in (LinOp(ops["hardy"].dense(), sp, ops["hardy"].cod),
              kernel_op(sp, sp, lambda x, y: 1.0 + 0 * x), identity(sp)):
        assert T._adj_inv is None
