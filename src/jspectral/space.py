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
import io
import json
from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    """Structural mismatch: incompatible spaces, bad lengths, invalid exponents."""


class ConvergenceError(RuntimeError):
    """Iterative routine failed to reach its tolerance. Carries the best residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def _readonly(a):
    a = np.asarray(a, dtype=float).copy()
    a.setflags(write=False)
    return a


def _checked_coeffs(coeffs, space):
    """Read-only copy of coefficients on space; they must be finite and match
    its grid."""
    coeffs = _readonly(coeffs)
    if coeffs.shape != (space.dim,):
        raise GeometryError("coefficient length does not match the space")
    if not np.all(np.isfinite(coeffs)):
        raise GeometryError("coefficients must be finite")
    return coeffs


class Space:
    """Discretized L_p(0, b): nodes, positive quadrature weights, exponent p."""

    __slots__ = ("nodes", "weights", "p", "b")

    def __init__(self, nodes, weights, p, b):
        nodes = _readonly(nodes)
        weights = _readonly(weights)
        if nodes.ndim != 1 or weights.ndim != 1 or nodes.size != weights.size:
            raise GeometryError("nodes and weights must be 1-d arrays of equal length")
        if nodes.size < 2:
            raise GeometryError("a Space needs at least 2 nodes")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))
                and np.isfinite(b)):
            raise GeometryError("nodes, weights and b must be finite")
        if not (b > 0):
            raise GeometryError("interval length b must be positive")
        if np.any(weights <= 0):
            raise GeometryError("quadrature weights must be strictly positive")
        if abs(weights.sum() - b) > 1e-12 * b:
            raise GeometryError("weights must sum to b (within 1e-12 relative)")
        if np.any(np.diff(nodes) <= 0) or nodes[0] <= 0 or nodes[-1] >= b:
            raise GeometryError("nodes must be strictly increasing inside (0, b)")
        if not (1 < p < np.inf):
            raise GeometryError("exponent p must lie in (1, inf)")
        self.nodes = nodes
        self.weights = weights
        self.p = float(p)
        self.b = float(b)

    @classmethod
    def uniform(cls, n, p, b=1.0):
        """Composite midpoint rule with n cells on (0, b)."""
        h = b / n
        nodes = (np.arange(n) + 0.5) * h
        return cls(nodes, np.full(n, h), p, b)

    @classmethod
    def sequence(cls, dim, p):
        """Plain weighted-l_p coordinate space: unit weights, b = dim."""
        return cls(np.arange(dim) + 0.5, np.ones(dim), p, float(dim))

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


@dataclass(frozen=True)
class Vec:
    """Coefficient vector living in a Space."""

    coeffs: np.ndarray
    space: Space

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _checked_coeffs(self.coeffs, self.space))

    def norm(self):
        return norm(self)

    def to_json(self):
        d = json.loads(self.space.to_json())
        d["coeffs"] = self.coeffs.tolist()
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        return cls(np.asarray(d["coeffs"]), Space(d["nodes"], d["weights"], d["p"], d["b"]))


@dataclass(frozen=True)
class Functional:
    """Coefficient vector of a functional on its predual Space.

    Acts via the weighted pairing; its norm is the weighted l_{p'} norm.
    """

    coeffs: np.ndarray
    space: Space  # the predual

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _checked_coeffs(self.coeffs, self.space))

    def norm(self):
        return _lp_norm(self.coeffs, self.space.weights, self.space.pprime)


# ---------------------------------------------------------------------------
# array-level kernels (shared with the solvers; objects wrap these)

def _lp_norm(coeffs, w, p):
    """Weighted l_p norm of a vector (a float), or of each column of an
    n x r block (an array of r norms).

    One pass while the sum of p-th powers lies in [1e-50, 1e50]. Outside it
    (overflow, which numpy warns about, underflow, or a root s^(1/p) whose
    rounded exponent 1/p costs accuracy in proportion to |ln s|) the column
    is taken again as m ||column / m|| with m = max |column|, the safe
    scaling of the Level 1 BLAS; the other columns keep their one pass.
    """
    block = coeffs.reshape(len(coeffs), -1)
    s = _power_sums(block, w, p)
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
    a = np.abs(block) ** p
    if not a.flags.f_contiguous:
        a = np.asfortranarray(a)
    return np.matmul(a.T[:, None, :], w)[:, 0]


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
    """James orthogonality of x to y, tested through (x, y) = 0.

    Equivalent to ||x|| <= ||x + t y|| for every real t.
    """
    nx = norm(x)
    if nx == 0.0:
        raise GeometryError("James orthogonality is undefined for x = 0")
    ny = norm(y)
    if ny == 0.0:
        return True
    return abs(semi_inner(x, y)) <= tol * nx * ny


def min_norm_coeffs(target, basis, w, p, max_iter=10_000, c0=None):
    """argmin_c ||target - basis @ c||_{w,p}, a small smooth convex problem.

    The iteration starts at c0 when given, else at the weighted
    least-squares solution, which is exact for p = 2 (there c0 is ignored).
    For p < 2 each iteration solves the reweighted least-squares system and
    tries two steps along its direction: the reweighted step, whose
    quadratic model majorizes the p-th power so that it never increases the
    value, and the Newton step, 1/(p - 1) times longer, which converges
    quadratically near the minimizer. It keeps the lower value of the two
    and halves the step only if neither decreases it. For p > 2 it is
    ridge-damped Newton with backtracking. Stops when the gradient falls
    below 1e-10 relative to its scale at c = 0 or the value stagnates at
    machine precision. Returns (c, residual_norm); raises with the achieved
    residual if the iteration limit is hit first. Any c bounds the distance
    from above, so the returned norm never understates it.
    """
    target = np.asarray(target, dtype=float)
    B = np.asarray(basis, dtype=float)
    if B.ndim != 2 or B.shape[0] != target.size:
        raise GeometryError("basis matrix shape does not match the target")
    if c0 is None or p == 2.0:
        sw = np.sqrt(w)
        c, *_ = np.linalg.lstsq(B * sw[:, None], target * sw, rcond=None)
    else:
        c = np.array(c0, dtype=float)
        if c.shape != (B.shape[1],):
            raise GeometryError("warm start length does not match the basis")
    if p == 2.0:
        return c, _lp_norm(target - B @ c, w, p)

    def grad(v):
        return -B.T @ (w * odd_power(v, p - 1.0))

    def fval(v):
        return float(w @ np.abs(v) ** p) / p

    gscale = max(float(np.linalg.norm(grad(target))), 1e-300)
    k = B.shape[1]
    v = target - B @ c
    f = fval(v)
    vfloor = 1e-14 * max(float(np.max(np.abs(target))), 1e-300)
    # step lengths tried first along the solved direction: the reweighted
    # step, and for p < 2 also the Newton step (the Hessian is p - 1 times
    # the reweighted matrix); halving from 1/2 only if neither decreases f
    lead = (1.0, 1.0 / (p - 1.0)) if p < 2.0 else (1.0,)

    def trial(t):
        c_try = c - t * step
        v_try = target - B @ c_try
        return fval(v_try), c_try, v_try

    for _ in range(max_iter):
        g = grad(v)
        gn = float(np.linalg.norm(g))
        if gn <= 1e-10 * gscale:
            return c, _lp_norm(v, w, p)
        absv = np.maximum(np.abs(v), vfloor)
        hd = w * absv ** (p - 2.0)
        if p > 2.0:
            hd = hd * (p - 1.0)
        H = B.T @ (hd[:, None] * B)
        H.flat[:: k + 1] += 1e-13 * max(np.trace(H) / k, 1e-300)
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            step = g / max(gn, 1e-300)
        f_try, c_try, v_try = min((trial(t) for t in lead), key=lambda tr: tr[0])
        t = 0.5
        while not f_try <= f and t >= 2.0 ** -59:
            f_try, c_try, v_try = trial(t)
            t *= 0.5
        if not f_try <= f:
            return c, _lp_norm(v, w, p)
        stalled = f - f_try <= 1e-15 * max(f, 1e-300)
        c, v, f = c_try, v_try, f_try
        if stalled:
            return c, _lp_norm(v, w, p)
    raise ConvergenceError(
        "minimal-norm descent hit the iteration limit",
        residual=_lp_norm(target - B @ c, w, p),
    )


def alber_decompose(x: Vec, M_basis: list[Vec]) -> tuple[Vec, Vec]:
    """Split x = m + v with m in span(M_basis) and v James-orthogonal to M.

    m is the best approximation argmin ||x - m||_p over the span; strict
    convexity of the norm (p > 1) makes the decomposition unique.
    """
    sp = x.space
    if not M_basis:
        return Vec(np.zeros(sp.dim), sp), x
    B = np.column_stack([m.coeffs for m in M_basis])
    for m in M_basis:
        if not m.space.same_grid(sp):
            raise GeometryError("basis vectors live on a different grid")
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
    functionals (the quotient norm), used as the solver's residual
    certificate on deflated subspaces. If the inner minimizer stalls, the
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
