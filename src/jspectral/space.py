"""Discretized L_p(0, b) spaces: weighted norms, duality pairings, duality maps,
semi-inner products, James orthogonality and the Alber decomposition.

A Space is a weighted grid: quadrature nodes in (0, b), strictly positive
weights summing to b, and an exponent p in (1, inf). Vectors and functionals
are coefficient arrays over the nodes; a functional phi acts on a vector u
through the weighted pairing sum_i w_i u_i phi_i, so its natural norm is the
weighted l_{p'} norm with 1/p + 1/p' = 1.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import numbers
from dataclasses import FrozenInstanceError

import numpy as np


class GeometryError(ValueError):
    """Structural mismatch: incompatible spaces, bad lengths, invalid exponents."""


class ConvergenceError(RuntimeError):
    """Iterative routine failed to reach its tolerance. Carries the best
    residual; min_norm_coeffs also gives the coefficients it reached and the
    mask of the columns that failed, so that the others can go on."""

    def __init__(self, message, residual=None, coeffs=None, failed=None):
        super().__init__(message)
        self.residual = residual
        self.coeffs = coeffs
        self.failed = failed


def _count(value, name, minimum=0, below=None):
    """value as an int, if it is an integer (not a bool) of at least minimum:
    the one check of every count and seed, called name in its message.
    Anything else raises a one-line GeometryError; below, when given, is the
    message for an integer under minimum."""
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if integer and value >= minimum:
        return int(value)
    if integer:
        raise GeometryError(below or f"{name} must be at least {minimum}, got {value}")
    raise GeometryError(f"{name} must be an integer of at least {minimum}, got {value!r}")


def _real(value, name, above=None, infinite=False, message=None):
    """value as a float, if it is a real number (not a bool) that is not nan,
    finite unless infinite, and greater than above when given: the one check
    of every real argument, called name in its message. Anything else raises
    a one-line GeometryError, message when given. A number beyond the float
    range counts as an infinity of its sign."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        v = float(value) if real else math.nan
    except OverflowError:
        v = math.inf if value > 0 else -math.inf
    if v == v and (infinite or math.isfinite(v)) and (above is None or v > above):
        return v
    bound = [] if infinite else ["finite"]
    bound += [] if above is None else ["positive" if above == 0 else f"above {above:g}"]
    got = f"{v:g}" if real else repr(value)
    text = f"{name} must be {' and '.join(bound) or 'a number'}, got {got}"
    raise GeometryError(message or text)


def _choice(value, name, options):
    """value, if it is one of the strings options: the one check of every
    named option. Anything else raises a one-line GeometryError that lists
    them."""
    if isinstance(value, str) and value in options:
        return value
    *rest, last = (f"'{o}'" for o in options)
    raise GeometryError(f"{name} must be {', '.join(rest)} or {last}")


def _rng(seed):
    """The generator of seed, an integer of at least 0: the one place where a
    seed becomes a np.random.Generator."""
    return np.random.default_rng(_count(seed, "seed"))


# what _array calls the entries of a numpy dtype kind that it rejects
_KINDS = {"b": "bools", "c": "complex numbers", "S": "strings", "U": "strings", "O": "objects"}


def _array(values, name, ndim=None):
    """values as a read-only float64 copy, if they hold integers or floats
    (not bools), are not ragged, are all finite and have ndim dimensions
    when given: the one check of every array argument, called name in its
    message. Anything else raises a one-line GeometryError."""
    try:
        a = np.array(values)
    except ValueError:  # numpy's refusal of a ragged sequence
        raise GeometryError(f"{name} must be a rectangular array, got a ragged sequence") from None
    if a.dtype.kind not in "iuf":
        got = _KINDS.get(a.dtype.kind, f"dtype {a.dtype}")
        raise GeometryError(f"{name} must hold real numbers, got {got}")
    if ndim is not None and a.ndim != ndim:
        raise GeometryError(f"{name} must be {ndim}-d, got {a.ndim}-d")
    a = a.astype(float, copy=False)
    if not np.isfinite(a).all():
        raise GeometryError(f"{name} must be finite")
    a.setflags(write=False)
    return a


_TOO_FEW = "a Space needs at least 2 nodes"


class Space:
    """Discretized L_p(0, b): nodes, positive quadrature weights, exponent p."""

    __slots__ = ("nodes", "weights", "p", "b")

    def __init__(self, nodes, weights, p, b):
        nodes, weights = _array(nodes, "nodes", 1), _array(weights, "weights", 1)
        if nodes.size != weights.size:
            raise GeometryError("nodes and weights must be 1-d arrays of equal length")
        _count(nodes.size, "n", 2, below=_TOO_FEW)
        b = _real(b, "b", 0)
        if np.any(weights <= 0):
            raise GeometryError("quadrature weights must be strictly positive")
        if abs(weights.sum() - b) > 1e-12 * b:
            raise GeometryError("weights must sum to b (within 1e-12 relative)")
        if np.any(np.diff(nodes) <= 0) or nodes[0] <= 0 or nodes[-1] >= b:
            raise GeometryError("nodes must be strictly increasing inside (0, b)")
        self.nodes = nodes
        self.weights = weights
        self.p = _real(p, "p", 1)
        self.b = b

    @classmethod
    def uniform(cls, n, p, b=1.0):
        """Composite midpoint rule with n cells on (0, b), n at least 2 and b
        finite and positive."""
        n, b = _count(n, "n", 2, below=_TOO_FEW), _real(b, "b", 0)
        h = b / n
        nodes = (np.arange(n) + 0.5) * h
        return cls(nodes, np.full(n, h), p, b)

    @classmethod
    def sequence(cls, dim, p):
        """Plain weighted-l_p coordinate space: unit weights, b = dim (at
        least 2); the midpoint rule with unit cells."""
        return cls.uniform(dim, p, dim)

    @property
    def dim(self):
        return self.nodes.size

    @property
    def pprime(self):
        return self.p / (self.p - 1.0)

    def dual(self):
        """Space carrying the dual exponent p' on the same grid."""
        return Space(self.nodes, self.weights, self.pprime, self.b)

    def same_grid(self, other):
        return (
            self.dim == other.dim
            and self.b == other.b
            and np.array_equal(self.nodes, other.nodes)
            and np.array_equal(self.weights, other.weights)
        )

    def __eq__(self, other):
        return (
            isinstance(other, Space)
            and self.same_grid(other)
            and self.p == other.p
        )

    def __repr__(self):
        return f"Space(n={self.dim}, p={self.p:g}, b={self.b:g})"

    def to_json(self):
        return json.dumps(
            {"b": self.b, "p": self.p, "nodes": self.nodes.tolist(),
             "weights": self.weights.tolist()},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        return cls(d["nodes"], d["weights"], d["p"], d["b"])


class _OnSpace:
    """Immutable coefficient array on a Space: a read-only, checked copy of
    the coefficients. Assigning or deleting an attribute raises
    FrozenInstanceError, as on a frozen dataclass."""

    __slots__ = ("coeffs", "space")

    def __init__(self, coeffs: np.ndarray, space: Space):
        coeffs = _array(coeffs, "coefficients", 1)
        if coeffs.size != space.dim:
            raise GeometryError("coefficient length does not match the space")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "space", space)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self.coeffs, self.space)

    def __repr__(self):
        return f"{type(self).__qualname__}(coeffs={self.coeffs!r}, space={self.space!r})"


class Vec(_OnSpace):
    """Coefficient vector living in a Space."""

    __slots__ = ()

    def norm(self):
        return norm(self)

    def to_json(self):
        d = json.loads(self.space.to_json())
        d["coeffs"] = self.coeffs.tolist()
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        return cls(d["coeffs"], Space(d["nodes"], d["weights"], d["p"], d["b"]))


class Functional(_OnSpace):
    """Coefficient vector of a functional on its predual Space (``space``).

    Acts via the weighted pairing; its norm is the weighted l_{p'} norm.
    """

    __slots__ = ()

    def norm(self):
        return _lp_norm(self.coeffs, self.space.weights, self.space.pprime)


# ---------------------------------------------------------------------------
# array-level kernels (shared with the solvers; objects wrap these)

def _stack(vectors, space, message):
    """The coefficients of the Vecs or Functionals in the list vectors as the
    columns of a space.dim x len(vectors) array (space.dim x 0 for none).
    Every vector must live on the grid of space: one that does not raises
    GeometryError(message), before anything is stacked."""
    if not all(v.space.same_grid(space) for v in vectors):
        raise GeometryError(message)
    return np.column_stack([np.zeros((space.dim, 0)), *(v.coeffs for v in vectors)])


def _lp_norm(coeffs, w, p, sums=None):
    """Weighted l_p norm of a vector (a float), or of each column of an
    n x r block (an array of r norms).

    One pass while the sum of p-th powers lies in [1e-50, 1e50]. Outside it
    (overflow, which numpy warns about, underflow, or a root s^(1/p) whose
    rounded exponent 1/p costs accuracy in proportion to |ln s|) the column
    is taken again as m ||column / m|| with m = max |column|, the safe
    scaling of the Level 1 BLAS; the other columns keep their one pass.
    sums, when given, is that pass, _power_sums of the columns, already at
    hand.
    """
    block = coeffs.reshape(len(coeffs), -1)
    s = _power_sums(block, w, p) if sums is None else sums
    nv = np.power(s, 1.0 / p)
    # a list, not array reductions: for the r <= 8 columns of a start block
    # (or one vector) this is a few times cheaper than np.min and np.max
    redo = [j for j, sj in enumerate(s.tolist()) if not 1e-50 <= sj <= 1e50]
    if redo:
        m = np.max(np.abs(block[:, redo]), axis=0)
        ok = (m > 0.0) & (m < np.inf)  # else zero, or entries that are not finite
        redo, m = np.array(redo)[ok], m[ok]
        nv[redo] = m * np.power(_power_sums(block[:, redo] / m, w, p), 1.0 / p)
    return float(nv[0]) if coeffs.ndim == 1 else nv


def _power_sums(block, w, p):
    """sum_i w_i |block_ij|^p for each column j: one dot product per
    contiguous column, so that a column of a block sums bitwise as it would
    alone. That is required, not incidental: a certified residual is a
    difference of nearly equal terms, so one rounding in a norm moves it by
    far more than 1e-12 relative, and each start of a block run must end as
    it would alone (tests/test_jspec.py::test_block_columns_match_single_starts;
    with the plain w @ |block|^p, which is a matrix-vector product, the
    residuals there differ by 6 %)."""
    # the power in place, as the blocks normed side by side set the solver's
    # peak memory; in a float type, as an integer block cannot hold it
    a = np.abs(block, dtype=np.result_type(block, 1.0))
    a **= p
    if not a.flags.f_contiguous:
        a = np.asfortranarray(a)
    return np.matmul(a.T[:, None, :], w)[:, 0]


def _row_norms(X):
    """The Euclidean norm of each row of X: one dot per contiguous row,
    bitwise as np.linalg.norm of the row alone."""
    return np.sqrt(np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0])


def _matvecs(A, X):
    """A @ x for each row x of X, as the rows of the result, each bitwise the
    matrix-vector product A @ x alone: one stacked product over contiguous
    rows. A stacked product over rows whose layout depends on the number of
    rows (such as the transpose of a C-ordered k x r block) rounds
    differently at some k, and the matrix product X @ A.T rounds otherwise."""
    return np.matmul(A, np.ascontiguousarray(X)[:, :, None])[:, :, 0]


class _Basis:
    """A basis of min_norm_coeffs, the n x k array as the caller laid it out
    (array), with the m = k(k + 1)/2 products B_a * B_b (a <= b) of its
    columns as the rows of one m x n array, made on first use. With them the
    Gram matrix of each Newton system is one matrix-vector product (grams),
    where B.T @ (h[:, None] * B) makes an n x k temporary per system and
    runs at a speed that depends on the layout of B. A caller that solves on
    one basis many times passes one _Basis in place of the array, so that
    the products are made once."""

    def __init__(self, array):
        self.array = array

    @functools.cached_property
    def _products(self):
        a, b = np.triu_indices(self.array.shape[1])
        rows = self.array.T
        return a, b, rows[a] * rows[b]

    def grams(self, HD):
        """B.T @ (hd[:, None] * B) for each row hd of HD: entry (a, b) is the
        dot product of hd with B_a * B_b, so each is bitwise as alone and
        exactly symmetric."""
        a, b, P = self._products
        k = self.array.shape[1]
        dots = _matvecs(P, HD)
        H = np.empty((len(dots), k, k))
        H[:, a, b] = dots
        H[:, b, a] = dots
        return H


def _jmap(coeffs, w, p):
    """Coefficients of the duality map with gauge mu(t) = t, of a vector or of
    each column of a block, each bitwise as alone (J(0) = 0)."""
    nv = _lp_norm(coeffs, w, p)
    return odd_power(coeffs / np.where(nv == 0.0, 1.0, nv), p - 1.0) * nv


def _jtilde(coeffs, w, p, nv=None):
    """Normalized duality map: unit dual norm, pairing equal to the norm.

    coeffs is a vector or an n x r block, mapped column by column. nv, when
    given, is the norm of coeffs (or of each column) already at hand; a zero
    norm belongs to a zero column, which maps to zero. Scaling by the norm
    before the power keeps the entries finite and nonzero whatever the scale
    of coeffs.
    """
    if nv is None:
        nv = _lp_norm(coeffs, w, p)
    return odd_power(coeffs / np.where(nv == 0.0, 1.0, nv), p - 1.0)


def odd_power(v, r):
    """Signed power sign(v)|v|^r, the odd continuation used by duality maps.
    Returns v itself for r = 1; callers do not write into the result."""
    if r == 1.0:
        return v
    return np.copysign(np.abs(v) ** r, v)


def sup_dev_up_to_sign(a, b):
    """min(max|a - b|, max|a + b|): sup-norm deviation blind to a sign flip."""
    return float(min(np.max(np.abs(a - b)), np.max(np.abs(a + b))))


# ---------------------------------------------------------------------------
# public operations

def norm(v: Vec) -> float:
    """Weighted l_p norm (sum w_i |v_i|^p)^(1/p)."""
    return _lp_norm(v.coeffs, v.space.weights, v.space.p)


def pairing(v: Vec, f: Functional) -> float:
    """Value of the functional at v: sum w_i v_i f_i."""
    if not v.space.same_grid(f.space):
        raise GeometryError("vector and functional live on different grids")
    return float(v.space.weights @ (v.coeffs * f.coeffs))


def duality_map(v: Vec) -> Functional:
    """Duality map J with gauge mu(t) = t; J(0) = 0.

    Guarantees <v, Jv> = ||v||^2 and ||Jv||_{p'} = ||v||_p.
    """
    return Functional(_jmap(v.coeffs, v.space.weights, v.space.p), v.space)


def normalized_duality_map(v: Vec) -> Functional:
    """J~ = Jv / ||v||: unit dual norm and <v, J~v> = ||v||."""
    return Functional(_jtilde(v.coeffs, v.space.weights, v.space.p), v.space)


def inverse_duality_map(f: Functional) -> Vec:
    """Inverse of the duality map: the duality map of the dual exponent.

    Round trip inverse_duality_map(duality_map(v)) = v holds exactly in
    exact arithmetic since (p-1)(p'-1) = 1.
    """
    return Vec(_jmap(f.coeffs, f.space.weights, f.space.pprime), f.space)


def semi_inner(x: Vec, h: Vec) -> float:
    """Semi-inner product (x, h) = ||x|| <h, J~x>; linear in h, (x,x) = ||x||^2."""
    if not x.space.same_grid(h.space):
        raise GeometryError("semi-inner product needs a common grid")
    return float(x.space.weights @ (h.coeffs * _jmap(x.coeffs, x.space.weights, x.space.p)))


def is_j_orthogonal(x: Vec, y: Vec, tol: float = 1e-10) -> bool:
    """James orthogonality of x to y, tested through (x, y) = 0, to the
    relative tolerance tol (finite and positive).

    Equivalent to ||x|| <= ||x + t y|| for every real t.
    """
    tol = _real(tol, "tol", 0)
    nx = norm(x)
    if nx == 0.0:
        raise GeometryError("James orthogonality is undefined for x = 0")
    ny = norm(y)
    if ny == 0.0:
        return True
    return abs(semi_inner(x, y)) <= tol * nx * ny


def min_norm_coeffs(target, basis, w, p, max_iter=10_000, c0=None, gtol=1e-10):
    """argmin_c ||target - basis @ c||_{w,p}, a small smooth convex problem.

    target is a vector, or an n x r block whose columns are r problems on
    the one basis; c0, when given, is a warm start of the same shape as the
    result (k, or k x r), and gtol is one gradient tolerance, or one per
    column. basis is the n x k array, or a _Basis of it, which the solver's
    repeated calls on one basis pass so that its column products are made
    once; either way the arithmetic runs on the array as laid out, and the
    result is bitwise the same. The columns step together: each iteration
    solves the Newton systems of all columns still running in one batched
    np.linalg.solve, and a column leaves once it stops (on a large grid the
    block steps in groups of columns, see _GROUP_ENTRIES). Every operation
    acts on one column at a time, so each column of a block ends bitwise as
    its own 1-d call; the 1-d call is the block of one column.

    The iteration starts at c0 when given, else at the weighted
    least-squares solution, which is exact for p = 2 (there c0 and gtol are
    ignored). For p < 2 each iteration solves the reweighted least-squares
    system H d = g (g the gradient) and tries the Newton step t = 1/(p - 1)
    along d first (the Hessian is p - 1 times the reweighted matrix H),
    which converges quadratically near the minimizer. A column keeps it if
    it lowers the value by at least _NEWTON_GAIN of the quadratic model's
    prediction t g.d / 2. Only the other columns try the reweighted step
    t = 1, whose model majorizes the p-th power so that it never increases
    the value, and keep the lower value of the two; the step is halved only
    where neither decreases it. For p > 2 it is ridge-damped Newton with
    backtracking. A column stops when its gradient falls below gtol relative
    to its scale at c = 0 or its value stagnates at machine precision.
    Returns (c, residual_norm), with the norm a float for a vector target
    and an array of r for a block; raises ConvergenceError if the iteration
    limit is hit first, carrying what it would have returned (residual,
    coeffs) and the mask of the columns that failed. Any c bounds the
    distance from above, so the returned norm never understates it.
    """
    target = np.asarray(target, dtype=float)
    if not isinstance(basis, _Basis):
        basis = _Basis(np.asarray(basis, dtype=float))
    B = basis.array
    if B.ndim != 2 or target.ndim not in (1, 2) or B.shape[0] != target.shape[0]:
        raise GeometryError("basis matrix shape does not match the target")
    n, k = B.shape
    # row j of Y, C, V is column j of the target, the coefficients, the residual
    Y = np.ascontiguousarray(target.reshape(n, -1).T)
    r = Y.shape[0]
    if c0 is None or p == 2.0:
        sw = np.sqrt(w)
        Bs = B * sw[:, None]
        C = np.array([np.linalg.lstsq(Bs, y * sw, rcond=None)[0] for y in Y]).reshape(r, k)
    else:
        C = np.array(c0, dtype=float)
        if C.shape != (k,) + target.shape[1:]:
            raise GeometryError("warm start shape does not match the basis and target")
        C = np.ascontiguousarray(C.reshape(k, r).T)
    V = Y - _matvecs(B, C)
    failed = np.zeros(r, dtype=bool)
    sums = None  # the power sums of the final residuals, where the descent has them
    if p != 2.0:
        sums = np.empty(r)
        gtol = np.broadcast_to(np.asarray(gtol, dtype=float), (r,))
        group = max(1, _GROUP_ENTRIES // max(n, 1))
        for j in range(0, r, group):
            g = slice(j, j + group)
            C[g], V[g], sums[g], failed[g] = _descent(Y[g], C[g], V[g], basis, w, p, gtol[g],
                                                      max_iter)
    d = _lp_norm(V.T, w, p, sums)
    c, d = (C[0], float(d[0])) if target.ndim == 1 else (C.T, d)
    if failed.any():
        raise ConvergenceError("minimal-norm descent hit the iteration limit",
                               residual=d, coeffs=c, failed=failed)
    return c, d


# The columns of a block descend in groups of at most this many entries
# (columns times grid points) per temporary, one column at least: a larger
# group saves calls, but its temporaries leave the cache and are mapped anew
# on every pass. A 6-level Hardy L3 -> L2 deflation at n = 2^14 (8 starts,
# one BLAS thread) took 5.3 and 6.9 s in groups of 8 columns, 4.4 and 4.7 s
# in groups of 2; the workloads at n <= 1024 step their blocks whole.
_GROUP_ENTRIES = 2 ** 15
# the share of its predicted decrease that a Newton step (p < 2) must achieve
# to be kept without trying the reweighted step; 0.75 takes about as many
# iterations
_NEWTON_GAIN = 0.9


def _descent(Y, C, V, basis, w, p, gtol, max_iter):
    """The iteration of min_norm_coeffs for p != 2 on the rows of Y (targets),
    C (coefficients) and V = Y - B C (residuals): returns the final C and V,
    the power sums sum_i w_i |v_i|^p of the final residuals (the objective,
    p times the value) and the mask of the rows still running after max_iter
    iterations."""
    B = basis.array

    def grads(V, A):  # the gradients of the value at residuals V, A = |V|
        U = A ** (p - 1.0)
        np.copysign(U, V, out=U)
        U *= w
        return -_matvecs(B.T, U)

    def sums(V):
        return _power_sums(V.T, w, p)

    def trials(t, C, S, Y):
        C_try = C - t * S
        V_try = Y - _matvecs(B, C_try)
        return sums(V_try), C_try, V_try

    k = B.shape[1]
    gstop = gtol * np.maximum(_row_norms(grads(Y, np.abs(Y))), 1e-300)
    s = sums(V)
    vfloor = 1e-14 * np.maximum(np.max(np.abs(Y), axis=1, initial=0.0), 1e-300)
    t_newton = 1.0 / (p - 1.0)
    # the rows of the columns that have stopped
    C_out, V_out, s_out = C.copy(), V.copy(), s.copy()
    run = np.arange(len(Y))  # the columns still iterating: the rows of Y, C, V, s, ...

    def stop(go, *rows):
        gone = run[~go]
        C_out[gone], V_out[gone], s_out[gone] = C[~go], V[~go], s[~go]
        return (a[go] for a in rows)

    for _ in range(max_iter):
        A = np.abs(V)
        G = grads(V, A)
        gn = _row_norms(G)
        go = ~(gn <= gstop)
        if not go.all():
            run, Y, C, V, s, A, G, gn, gstop, vfloor = stop(
                go, run, Y, C, V, s, A, G, gn, gstop, vfloor)
        if not run.size:
            break
        # the Hessian weights, in place of A: w |v|^(p - 2), floored, and for
        # p > 2 times p - 1 (for p < 2 the reweighted least-squares matrix)
        np.maximum(A, vfloor[:, None], out=A)
        A **= p - 2.0
        A *= w
        if p > 2.0:
            A *= p - 1.0
        H = basis.grams(A)
        Hd = H.reshape(len(H), -1)[:, :: k + 1]  # a view of each diagonal
        Hd += (1e-13 * np.maximum(Hd.sum(axis=1) / k, 1e-300))[:, None]
        try:
            S = np.linalg.solve(H, G[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:  # some system is singular: solve one by one
            S = np.empty_like(G)
            for j in range(len(G)):
                try:
                    S[j] = np.linalg.solve(H[j], G[j])
                except np.linalg.LinAlgError:
                    S[j] = G[j] / max(gn[j], 1e-300)
        if p < 2.0:
            s_try, C_try, V_try = trials(t_newton, C, S, Y)
            # the model's decrease of the power sum (p times the value) at
            # the Newton step: p t G.S / 2
            gs = np.matmul(G[:, None, :], S[:, :, None])[:, 0, 0]
            short = np.flatnonzero(~(s - s_try >= _NEWTON_GAIN * 0.5 * p * t_newton * gs))
            if short.size:
                s_t, C_t, V_t = trials(1.0, C[short], S[short], Y[short])
                better = s_t < s_try[short]
                j = short[better]
                s_try[j], C_try[j], V_try[j] = s_t[better], C_t[better], V_t[better]
        else:
            s_try, C_try, V_try = trials(1.0, C, S, Y)
        t = 0.5
        while t >= 2.0 ** -59:
            up = np.flatnonzero(~(s_try <= s))
            if not up.size:
                break
            s_try[up], C_try[up], V_try[up] = trials(t, C[up], S[up], Y[up])
            t *= 0.5
        failed = ~(s_try <= s)
        stalled = ~failed & (s - s_try <= 1e-15 * np.maximum(s, 1e-300))
        if failed.any():  # these keep their iterate
            s_try[failed], C_try[failed], V_try[failed] = s[failed], C[failed], V[failed]
        C, V, s = C_try, V_try, s_try
        go = ~(failed | stalled)
        if not go.all():
            run, Y, C, V, s, gstop, vfloor = stop(go, run, Y, C, V, s, gstop, vfloor)
    C_out[run], V_out[run], s_out[run] = C, V, s
    running = np.zeros(len(C_out), dtype=bool)
    running[run] = True
    return C_out, V_out, s_out, running


def alber_decompose(x: Vec, M_basis: list[Vec]) -> tuple[Vec, Vec]:
    """Split x = m + v with m in span(M_basis) and v James-orthogonal to M.

    m is the best approximation argmin ||x - m||_p over the span; strict
    convexity of the norm (p > 1) makes the decomposition unique. Raises
    GeometryError for a basis vector off the grid of x (a basis that mixes
    grids included) and for a linearly dependent basis.
    """
    sp = x.space
    B = _stack(M_basis, sp, "basis vectors live on a different grid")
    if not M_basis:
        return Vec(np.zeros(sp.dim), sp), x
    sw = np.sqrt(sp.weights)
    if np.linalg.matrix_rank(B * sw[:, None]) < B.shape[1]:
        raise GeometryError("Alber decomposition needs a linearly independent basis")
    c, _ = min_norm_coeffs(x.coeffs, B, sp.weights, sp.p)
    m = Vec(B @ c, sp)
    v = Vec(x.coeffs - m.coeffs, sp)
    return m, v


def functional_distance(f, basis, space) -> float:
    """Distance in the dual (weighted l_{p'}) norm of space from the functional
    with coefficients f to the span of the columns of the dim x k array basis.

    This is the norm of f restricted to the common kernel of the basis
    functionals (the quotient norm). If the inner minimizer stalls, the
    achieved (larger, hence conservative) value is returned.
    """
    pp = space.pprime
    if not np.size(basis):
        return _lp_norm(f, space.weights, pp)
    try:
        _, d = min_norm_coeffs(f, basis, space.weights, pp)
    except ConvergenceError as exc:
        d = exc.residual
    return d


# ---------------------------------------------------------------------------
# report tables

def _csv_text(rows, header=()):
    """CSV text (csv module dialect, \r\n line ends) of an optional header
    and the rows. Integer cells are written as they are and every other cell
    as repr(float(v)), the shortest text that parses back to the same float."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    if header:
        writer.writerow(header)
    writer.writerows([v if isinstance(v, (int, np.integer)) else repr(float(v)) for v in row]
                     for row in rows)
    return buf.getvalue()
