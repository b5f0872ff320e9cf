"""Generalized trigonometric functions sin_{p,q}, cos_{p,q}, the constants
pi_{p,q}, closed-form Hardy-operator norms, and finite-difference residual
checks for the associated Laplacian and bi-Laplacian eigenvalue problems.

sin_{p,q} is the inverse of F(u) = integral_0^u (1 - t^q)^(-1/p) dt on
[0, pi_{p,q}/2] and cos_{p,q} = sin_{p,q}' = (1 - sin^q)^(1/p). Substituting
s = t^q gives F(u) = (1/q) B(1/q, 1/p'; u^q), so 2F/pi_{p,q} is the
regularised incomplete Beta function I(u^q; 1/q, 1/p') and

    sin_{p,q}(x) = I^{-1}(2x/pi_{p,q}; 1/q, 1/p')^(1/q),
    cos_{p,q}(x) = I^{-1}(1 - 2x/pi_{p,q}; 1/p', 1/q)^(1/p),
    pi_{p,q} = (2/q) B(1/p', 1/q)

(Edmunds-Lang, Eigenvalues, Embeddings and Generalised Trigonometric
Functions, 2016). The cosine is taken from the complementary inverse, which
keeps its relative accuracy where cos_{p,q} vanishes.
"""

from __future__ import annotations

import math

import numpy as np

from .oper import compose, hardy, hardy_dual
from .space import (GeometryError, Space, _choice, _csv_text, _real, odd_power,
                    sup_dev_up_to_sign)


def _check_exponents(p, q, who):
    """p and q as floats, if both are finite and above 1."""
    message = f"{who} needs p, q in (1, inf)"
    return _real(p, "p", 1, message=message), _real(q, "q", 1, message=message)


def beta_fn(a: float, b: float) -> float:
    """Euler's beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b) for
    a, b > 0, through log-gammas, so that no gamma overflows on the way; inf
    where B itself exceeds the float range."""
    try:
        return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    except OverflowError:
        return math.inf


def pi_pq(p: float, q: float) -> float:
    """pi_{p,q} = 2 integral_0^1 (1 - t^q)^(-1/p) dt = (2/q) B(1/p', 1/q)."""
    p, q = _check_exponents(p, q, "pi_pq")
    return float((2.0 / q) * beta_fn((p - 1.0) / p, 1.0 / q))


class GenTrig:
    """sin/cos pair for one (p, q), evaluated through the inverse regularised
    incomplete Beta function."""

    def __init__(self, p, q):
        self.p, self.q = _check_exponents(p, q, "GenTrig")
        self._a = 1.0 / self.q
        self._bb = (self.p - 1.0) / self.p  # = 1/p'
        self.pi_pq = pi_pq(self.p, self.q)

    def _branch(self, xs):
        """Reduce to the principal branch: returns (t, sin_sign, cos_sign).
        A point on a quadrant boundary belongs to the lower quadrant."""
        half = self.pi_pq / 2.0
        r = np.mod(xs, 2.0 * self.pi_pq)
        k = np.searchsorted(half * np.arange(1, 4), r)  # quadrant, 0..3
        t = np.where(k % 2 == 0, r - k * half, (k + 1) * half - r)
        return t, np.where(k < 2, 1.0, -1.0), np.where((k == 1) | (k == 2), -1.0, 1.0)

    def sin(self, x, extend=False):
        return self._evaluate(x, extend, cosine=False)

    def cos(self, x, extend=False):
        return self._evaluate(x, extend, cosine=True)

    def _evaluate(self, x, extend, cosine):
        """sin_pq or cos_pq at x (a scalar or an array), through the point
        reduced to the first quarter period; GeometryError for an x that is
        not finite, with extend or without."""
        # imported here: at module level it adds ~23 MB and ~0.3 s to every
        # package import
        from scipy.special import betaincinv

        # a scalar runs through the array kernel too, so that it gets the
        # same bits as the array element (numpy's scalar pow may differ)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        if not np.all(np.isfinite(xs)):
            raise GeometryError("x must be finite")
        half = self.pi_pq / 2.0
        if extend:
            t, ssign, csign = self._branch(xs)
        elif np.all((xs >= -1e-15) & (xs <= half * (1 + 1e-15))):
            t, ssign, csign = xs, 1.0, 1.0
        else:
            raise GeometryError("x outside [0, pi_pq/2]; pass extend=True for the periodic extension")
        t = np.clip(t, 0.0, half)  # the reduction may overshoot by an ulp
        if cosine:  # half - t is exact where cos_pq is small
            out = csign * betaincinv(self._bb, self._a, (half - t) / half) ** (1.0 / self.p)
        else:
            out = ssign * betaincinv(self._a, self._bb, t / half) ** (1.0 / self.q)
        return float(out[0]) if np.ndim(x) == 0 else out

    def table_csv(self, xs):
        xs = np.asarray(xs, dtype=float)
        return _table_csv(xs, self.sin(xs, extend=True), self.cos(xs, extend=True))


def _table_csv(xs, sins, coss):
    """CSV rows x, sin_pq, cos_pq from sampled arrays."""
    return _csv_text(zip(xs, sins, coss), ("x", "sin_pq", "cos_pq"))


def hardy_norm_formula(p: float, b: float = 1.0, direction: str = "forward") -> float:
    """Closed-form norm of the Hardy operator L_p(0,b) -> L_2(0,b).

    direction "forward" evaluates the L_p -> L_2 expression, "dual" the
    L_2 -> L_{p'} one; the two expressions are identical term by term.
    Raises GeometryError unless p is finite and above 1, b finite and
    positive and direction one of the two, and when the norm is not a finite
    float (it grows like b^(3/2 - 1/p)).
    """
    message = "hardy_norm_formula needs p in (1, inf), b in (0, inf)"
    p, b = _real(p, "p", 1, message=message), _real(b, "b", 0, message=message)
    direction = _choice(direction, "direction", ("forward", "dual"))
    pp = p / (p - 1.0)
    try:
        if direction == "forward":
            value = (b ** (1 - 1 / p + 0.5) * (pp + 2) ** (1 - 1 / pp - 0.5)
                     * pp ** 0.5 * 2 ** (1 / pp) / beta_fn(1 / pp, 0.5))
        else:
            value = (b ** (1 - 0.5 + 1 / pp) * (2 + pp) ** (1 - 0.5 - 1 / pp)
                     * 2 ** (1 / pp) * pp ** 0.5 / beta_fn(0.5, 1 / pp))
    except OverflowError:
        value = np.inf
    if not np.isfinite(value):
        raise GeometryError(f"the Hardy norm overflows at p = {p:g}, b = {b:g}")
    return value


# ---------------------------------------------------------------------------
# finite-difference eigenproblem residuals

def _first_diff(u, h):
    return (u[2:] - u[:-2]) / (2.0 * h)


def _second_diff(u, h):
    return (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)


def _endpoint_value(xs, u, x0):
    """Quadratic extrapolation of u to the boundary point x0."""
    c = np.polyfit(xs, u, 2)
    return float(np.polyval(c, x0))


def _endpoint_slope(xs, u, x0):
    c = np.polyfit(xs, u, 2)
    return float(np.polyval(np.polyder(c), x0))


def laplacian_residual_parts(u, p: float, q: float, lam: float, b: float,
                             kind: str) -> dict:
    """Finite-difference residual of the stated eigenvalue ODE for (u, lam),
    split into the interior RMS and the boundary-condition part.

    kind "(p,2)":   (odd(u', p-1))' = lam u,          u(0) = u'(b) = 0
    kind "(2,p')":  u'' = lam odd(u, q-1),            u'(0) = u(b) = 0
    kind "bilap":   (odd(u'', p-1))'' = lam odd(u, q-1),
                    u(0) = u'(b) = odd(u'', p-1)(0) = (odd(u'', p-1))'(b) = 0

    odd(v, r) = sign(v)|v|^r. u holds node values on the uniform midpoint
    grid of (0, b). The interior residual is an RMS over nodes at least
    0.05*b away from the endpoints (the generalized sine has algebraic
    endpoint behaviour that pollutes raw high-order stencils); boundary
    conditions enter through quadratically extrapolated endpoint values,
    whose own accuracy is limited by the endpoint smoothness of u (for the
    "(p,2)" slope condition the flux is only Hoelder at b, so that term
    decays slower than second order).

    Raises GeometryError unless p and q are finite and above 1, lam finite,
    b finite and positive, kind one of the three and u finite, on at least
    16 nodes.
    """
    kind = _choice(kind, "kind", ("(p,2)", "(2,p')", "bilap"))
    p, q, lam = _real(p, "p", 1), _real(q, "q", 1), _real(lam, "lam")
    b = _real(b, "b", 0)
    u = np.asarray(u, dtype=float)
    n = u.size
    if n < 16:
        raise GeometryError("residual check needs at least 16 grid nodes")
    if not np.all(np.isfinite(u)):
        raise GeometryError("u must be finite")
    h = b / n
    xs = (np.arange(n) + 0.5) * h

    if kind == "(p,2)":
        du = _first_diff(u, h)
        flux = odd_power(du, p - 1.0)
        lhs = _first_diff(flux, h)
        rhs = lam * u[2:-2]
        inner_x = xs[2:-2]
        bcs = [
            _endpoint_value(xs[:3], u[:3], 0.0),
            _endpoint_slope(xs[-3:], u[-3:], b),
        ]
    elif kind == "(2,p')":
        lhs = _second_diff(u, h)
        rhs = lam * odd_power(u[1:-1], q - 1.0)
        inner_x = xs[1:-1]
        bcs = [
            _endpoint_slope(xs[:3], u[:3], 0.0),
            _endpoint_value(xs[-3:], u[-3:], b),
        ]
    else:  # "bilap"
        d2 = _second_diff(u, h)
        flux = odd_power(d2, p - 1.0)
        lhs = _second_diff(flux, h)
        rhs = lam * odd_power(u[2:-2], q - 1.0)
        inner_x = xs[2:-2]
        bcs = [
            _endpoint_value(xs[:3], u[:3], 0.0),
            _endpoint_slope(xs[-3:], u[-3:], b),
            _endpoint_value(xs[1:4], flux[:3], 0.0),
            _endpoint_slope(xs[-4:-1], flux[-3:], b),
        ]

    margin = 0.05 * b
    keep = (inner_x >= margin) & (inner_x <= b - margin)
    if not keep.any():
        raise GeometryError("margin leaves no interior nodes; refine the grid")
    interior = float(np.sqrt(np.mean((lhs[keep] - rhs[keep]) ** 2)))
    bc = float(np.sum(np.abs(bcs)))
    return {"interior_rms": interior, "bc_abs": bc, "total": interior + bc}


def laplacian_residual(u, p: float, q: float, lam: float, b: float, kind: str) -> float:
    """Total finite-difference residual; see laplacian_residual_parts."""
    return laplacian_residual_parts(u, p, q, lam, b, kind)["total"]


def bilap_eigenvalue(p: float, b: float) -> float:
    """lam for the unit-amplitude sin_{2,p'} first eigenfunction of 'bilap',
    for p finite and above 1 and b finite and positive."""
    p, b = _real(p, "p", 1), _real(b, "b", 0)
    pp = p / (p - 1.0)
    omega = pi_pq(2.0, pp) / (2.0 * b)
    return (pp / 2.0) ** p * omega ** (2.0 * p)


def bilaplacian_check(p: float, b: float = 1.0, grid_n: int = 512,
                      tol: float = 1e-8, seed: int = 42, restarts: int = 4) -> dict:
    """Extremal data of the discretized H*H against sin_{2,p'}(pi_{2,p'} x / 2b).

    H*H is assembled as the Hilbertian composition through L_2 (apply the
    companion operator first, then the Hardy operator). The eigenvalue
    equation transfers the codomain duality power onto the extremal, so the
    bi-Laplacian eigenfunction is read off the extremal pair through the
    duality image |x_1|^{p-2} x_1 (equivalently the image K x_1, both
    reported); the raw extremal's deviation is reported alongside.

    The ODE residual refinement study evaluates the analytic eigenfunction
    on the grids n = 128, 256, 512. The fourth-order stencil amplifies
    function evaluation noise by h^-4, so useful ladders stop near n = 512
    in double precision; grid_n itself only controls the extremal comparison.
    A step of the ladder whose residual does not fall by more than that noise
    reports its order as None and is flagged in orders_noise_limited.
    """
    from .jspec import extremal_pair

    p = _real(p, "p", 1)
    pp = p / (p - 1.0)
    dom = Space.uniform(grid_n, p, b)
    mid = Space.uniform(grid_n, 2.0, b)
    cod = Space.uniform(grid_n, pp, b)
    K = compose(hardy(mid, cod), hardy_dual(dom, mid))
    lam1, x1, res = extremal_pair(K, (), seed=seed, tol=tol, restarts=restarts)

    g = GenTrig(2.0, pp)
    omega = g.pi_pq / (2.0 * b)
    target = g.sin(omega * dom.nodes)
    target = target / np.max(np.abs(target))

    def sup_dev(v):
        return sup_dev_up_to_sign(v / np.max(np.abs(v)), target)

    dev_extremal = sup_dev(x1.coeffs)
    dev_dual_image = sup_dev(odd_power(x1.coeffs, p - 1.0))
    dev_image = sup_dev(K.apply_coeffs(x1.coeffs))

    lam_ode = bilap_eigenvalue(p, b)
    ns = (128, 256, 512)
    ode_residuals = {}
    for n in ns:
        xs = (np.arange(n) + 0.5) * (b / n)
        ode_residuals[n] = laplacian_residual(g.sin(omega * xs), p, pp, lam_ode, b, "bilap")
    # a step is a rate only where the residual falls by more than the noise
    # sqrt(70) eps h^-4 that the stencil [1, -4, 6, -4, 1] / h^4 makes of
    # rounding errors eps in unit-amplitude u on the finer grid; the other
    # steps are flagged and get no order
    noise_limited = [not ode_residuals[m] - ode_residuals[n]
                     > np.sqrt(70.0) * np.finfo(float).eps * (n / b) ** 4
                     for m, n in zip(ns, ns[1:])]
    orders = [None if flag else float(np.log(ode_residuals[m] / ode_residuals[n])
                                      / np.log(n / m))
              for m, n, flag in zip(ns, ns[1:], noise_limited)]
    return {
        "p": p,
        "b": b,
        "grid_n": grid_n,
        "tol": tol,
        "lambda1": lam1,
        "solver_residual": res,
        "sup_dev_eigenfunction": dev_dual_image,
        "sup_dev_image": dev_image,
        "sup_dev_extremal_raw": dev_extremal,
        "ode_lambda": lam_ode,
        "ode_residuals": {str(k): v for k, v in ode_residuals.items()},
        "observed_orders": orders,
        "orders_noise_limited": noise_limited,
    }
