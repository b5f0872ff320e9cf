"""Linear operators between discretized L_p spaces.

A LinOp is a small protocol: a domain and a codomain Space, the action on
coefficient vectors (apply_coeffs), the action of the adjoint on functional
coefficients (apply_adjoint_coeffs) and a dense() matrix made on demand.
Adjoints are taken with respect to the weighted pairings, A* = W_dom^-1 A^T
W_cod, so the adjoint pairing identity holds algebraically rather than
approximately.

LinOp(matrix, dom, cod) is the dense implementation. The Hardy pair is
matrix-free: the half-cell lower-triangular weight matrix is a cumulative sum,
so hardy applies C(w x) - w x / 2 (C the running sum along the grid) and its
weighted adjoint is the reversed running sum of w_cod phi minus half of it;
the domain weights cancel, so the adjoint stays exact. hardy_dual swaps the
two sums. Both kernels take one vector or an n x k block of columns and cost
O(n) per column. The pair also carries a private third kernel, the inverse of
its adjoint: the half-cell sum is triangular with a positive diagonal, and
differencing it gives an alternating-sign running sum, again O(n) per column.
adjoint, compose, power and scale are lazy: they combine the kernels of their
operands, whether dense or matrix-free, and dense() turns any operator into
its matrix; no other operator, and no lazy combination, has the inverse.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from .space import Functional, GeometryError, Space, Vec, _array, _count, _csv_text, _real


def _nodal(w, x):
    """w shaped to scale x row by row: x is a vector or an n x k block."""
    return w if x.ndim == 1 else w[:, None]


class LinOp:
    """Linear operator dom -> cod acting on coefficient vectors.

    LinOp(matrix, dom, cod) is dense: rows = codomain dim, cols = domain dim,
    kept in .matrix. Operators from the constructors below carry kernels
    instead and have matrix None; dense() gives the matrix of any operator.
    _adj_inv, the inverse of the adjoint kernel, is None but for the Hardy
    pair.
    """

    __slots__ = ("matrix", "dom", "cod", "_fwd", "_adj", "_adj_inv")

    def __init__(self, matrix, dom: Space, cod: Space):
        matrix = _array(matrix, "the operator matrix")
        if matrix.shape != (cod.dim, dom.dim):
            raise GeometryError("matrix shape does not match the spaces")
        w_d, w_c = dom.weights, cod.weights
        self.matrix = matrix
        self.dom = dom
        self.cod = cod
        self._fwd = matrix.__matmul__
        self._adj = lambda f: (matrix.T @ (_nodal(w_c, f) * f)) / _nodal(w_d, f)
        self._adj_inv = None

    @classmethod
    def _from_kernels(cls, dom: Space, cod: Space, fwd, adj, adj_inv=None):
        """Matrix-free operator: fwd maps domain coefficients, adj functional
        coefficients on cod to those on dom, and adj_inv, if given, inverts
        adj; all take vectors and blocks."""
        op = object.__new__(cls)
        op.matrix = None
        op.dom = dom
        op.cod = cod
        op._fwd = fwd
        op._adj = adj
        op._adj_inv = adj_inv
        return op

    def apply_coeffs(self, coeffs):
        """Coefficients of T v for domain coefficients v (or a block of columns)."""
        return self._fwd(coeffs)

    def apply_adjoint_coeffs(self, coeffs):
        """Coefficients of T* phi for functional coefficients phi on cod."""
        return self._adj(coeffs)

    def dense(self):
        """The matrix of T (rows = codomain dim); built on demand when matrix-free."""
        if self.matrix is not None:
            return self.matrix
        return self._fwd(np.eye(self.dom.dim))

    def __repr__(self):
        return f"LinOp({self.dom!r} -> {self.cod!r})"

    def to_csv(self):
        return _csv_text(self.dense())

    def to_json(self):
        return json.dumps(
            {"matrix": self.dense().tolist(),
             "dom": json.loads(self.dom.to_json()),
             "cod": json.loads(self.cod.to_json())},
            sort_keys=True,
        )

    @classmethod
    def from_csv(cls, text, dom, cod):
        rows = [[_number(v) for v in row] for row in csv.reader(io.StringIO(text)) if row]
        return cls(rows, dom, cod)


def _number(cell):
    """The float a CSV cell spells, or the cell itself, which the matrix
    check then rejects."""
    try:
        return float(cell)
    except ValueError:
        return cell


def apply(T: LinOp, v: Vec) -> Vec:
    if not v.space.same_grid(T.dom):
        raise GeometryError("vector does not live on the operator domain grid")
    return Vec(T.apply_coeffs(v.coeffs), T.cod)


def adjoint(T: LinOp) -> LinOp:
    """Adjoint with respect to the weighted pairings; maps cod* to dom*.

    Lazy: its kernels are those of T, swapped, so adjoint(adjoint(T)) acts
    exactly as T.
    """
    return LinOp._from_kernels(T.cod.dual(), T.dom.dual(), T._adj, T._fwd)


def apply_adjoint(T: LinOp, f: Functional) -> Functional:
    if not f.space.same_grid(T.cod):
        raise GeometryError("functional does not live on the operator codomain grid")
    return Functional(T.apply_adjoint_coeffs(f.coeffs), T.dom)


def compose(B: LinOp, A: LinOp) -> LinOp:
    """B after A (lazy). Its adjoint is A* B*, since cod(A) and dom(B) share
    their weights."""
    if not A.cod.same_grid(B.dom):
        raise GeometryError("compose needs cod(A) and dom(B) on the same grid")
    a_fwd, a_adj, b_fwd, b_adj = A._fwd, A._adj, B._fwd, B._adj
    return LinOp._from_kernels(A.dom, B.cod, lambda x: b_fwd(a_fwd(x)),
                               lambda f: a_adj(b_adj(f)))


def _repeat(kernel, k):
    def run(x):
        for _ in range(k):
            x = kernel(x)
        return x

    return run


def power(T: LinOp, k: int) -> LinOp:
    """T applied k times (lazy), k an integer of at least 1."""
    if not T.dom.same_grid(T.cod):
        raise GeometryError("powers need a square operator (same grid)")
    k = _count(k, "k", 1)
    return LinOp._from_kernels(T.dom, T.cod, _repeat(T._fwd, k), _repeat(T._adj, k))


def identity(dom: Space, cod: Space | None = None) -> LinOp:
    """Identity embedding; cod may carry a different exponent on the same grid."""
    cod = dom if cod is None else cod
    if not dom.same_grid(cod):
        raise GeometryError("identity embedding needs a common grid")
    # matrix-free; both kernels copy, since callers may write into the result
    return LinOp._from_kernels(dom, cod, np.copy, np.copy)


def scale(T: LinOp, c: float) -> LinOp:
    """c T (lazy); c is a finite real number."""
    c = _real(c, "the scale factor")
    fwd, adj = T._fwd, T._adj
    return LinOp._from_kernels(T.dom, T.cod, lambda x: c * fwd(x), lambda f: c * adj(f))


def _require_common_grid(dom, cod):
    if not dom.same_grid(cod):
        raise GeometryError("Volterra constructors need dom and cod on one grid")


def _half_cell_sum(w, x, reverse):
    """Running sum of w x along the grid, reversed if asked, with the own
    cell counted half: sum_{j<i} w_j x_j + w_i x_i / 2 (j > i if reverse)."""
    u = _nodal(w, x) * x
    c = np.cumsum(u[::-1], axis=0)[::-1] if reverse else np.cumsum(u, axis=0)
    # in place: a fresh n x 8 temporary at n = 4096 is 256 KiB, which the
    # allocator maps anew (page faults included) on every call
    u *= 0.5
    c -= u
    return c


def _half_cell_solve(w, g, reverse):
    """The u with _half_cell_sum(w, u, reverse) = g. Differencing the sum
    gives v_i + v_{i-1} = 2 (g_i - g_{i-1}) for v = w u, with g_{-1} = 0
    (i + 1 for i - 1 if reverse), so v is the alternating-sign running sum
    of those differences."""
    if reverse:
        g, w = g[::-1], w[::-1]
    d = 2.0 * g
    d[1:] -= 2.0 * g[:-1]
    s = _nodal(1.0 - 2.0 * (np.arange(len(w)) % 2), d)
    d *= s
    v = np.cumsum(d, axis=0)
    v *= s
    v /= _nodal(w, v)
    return v[::-1] if reverse else v


def _volterra_pair(dom, cod, reverse):
    _require_common_grid(dom, cod)
    w = dom.weights
    return LinOp._from_kernels(dom, cod, lambda x: _half_cell_sum(w, x, reverse),
                               lambda f: _half_cell_sum(w, f, not reverse),
                               lambda g: _half_cell_solve(w, g, not reverse))


def hardy(dom: Space, cod: Space) -> LinOp:
    """Hardy operator (Hf)(x) = integral_0^x f(t) dt.

    Its matrix is lower triangular with the half cell at the diagonal: row i
    sums w_j for j < i plus w_i / 2, which is exact for cellwise constants and
    second order for smooth integrands. Applied as a running sum in O(n).
    """
    return _volterra_pair(dom, cod, reverse=False)


def hardy_dual(dom: Space, cod: Space) -> LinOp:
    """Companion operator (H*f)(x) = integral_x^b f(t) dt, the reversed sum."""
    return _volterra_pair(dom, cod, reverse=True)


def kernel_op(dom: Space, cod: Space, k) -> LinOp:
    """Volterra operator (Tf)(x) = integral_0^x k(x, y) f(y) dy.

    k must be vectorized over numpy arrays; k = 1 reproduces hardy.
    """
    _require_common_grid(dom, cod)
    x = cod.nodes[:, None]
    y = dom.nodes[None, :]
    K = np.broadcast_to(_array(k(x, y), "the kernel k"), (cod.dim, dom.dim))
    mask = np.tril(np.ones((cod.dim, dom.dim)), -1) + np.eye(cod.dim) * 0.5
    return LinOp(K * mask * dom.weights[None, :], dom, cod)
