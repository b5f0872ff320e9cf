"""p-compactness machinery: explicit covers witnessing relative p-compactness,
bounds for the associated cover norm, and the Hardy-operator and Sobolev-
embedding demonstrations.

A Cover holds a vector sequence {x_n} in the codomain with {||x_n||} summable
in the stated exponent, such that sampled unit-ball images of the operator
lie in {sum alpha_n x_n : sum |alpha_n|^{q'} <= 1}. Finite lists make the
q-monotonicity statements exact; infinite-dimensional claims (non-nuclearity,
ideal containments) are reported as known-in-the-continuum facts and never
asserted from grid data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .gtrig import GenTrig, beta_fn
from .oper import LinOp, compose, hardy
from .space import GeometryError, Space, Vec, _count, _csv_text, _lp_norm, _real, _rng, _stack

# window of domain exponents in which the generalized-cosine family is treated
# as a basis of L_p; a conservative desk-scale choice, not a literature constant
COSINE_BASIS_WINDOW = (1.2, 4.0)


@dataclass
class Cover:
    """p-compactness witness: vectors, their norms, and the certified bounds."""

    vectors: list[Vec]
    norms: list[float]
    p: float  # the compactness exponent of the cover
    kp_bound: float
    coeff_bound: float
    meta: dict = field(default_factory=dict)

    @property
    def length(self):
        return len(self.norms)

    def to_json(self):
        doc = {
            "cover_norms": self.norms,
            "kp_bound": self.kp_bound,
            "coeff_bound": self.coeff_bound,
            "p": self.p,
        }
        for key in ("fit_exponent", "r2", "tail_estimate"):
            if key in self.meta:
                doc[key] = self.meta[key]
        return json.dumps(doc, sort_keys=True)

    def to_csv(self):
        return _csv_text(enumerate(self.norms, 1), ("n", "norm"))


def _lq_seq(values, q):
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0.0
    if np.isinf(q):
        return float(np.max(np.abs(values)))
    return float(np.sum(np.abs(values) ** q) ** (1.0 / q))


def _conjugate(q):
    if np.isinf(q):
        return 1.0
    return q / (q - 1.0)


def cover_from_basis(T: LinOp, basis: list[Vec], target_q: float,
                     n_samples: int = 100, seed: int = 0) -> Cover:
    """Cover of T(unit ball of span(basis)) from a biorthogonal expansion.

    With B the n x k matrix of the basis and D = sqrt(weights), the singular
    values s of D B give the rank test (the basis is rejected when it has more
    vectors than grid nodes, or when s_min^2 <= s_max^2 k eps, the threshold
    of a rank test on the weighted Gram matrix). A sample f = B c / ||B c|| has the coefficients
    c / ||B c||. The global factor M (supremum of the coefficient l_{q'} norm
    over the unit sphere of the span) moves into the vectors x_n = M T g_n so
    that witness coefficients satisfy sum |alpha_n|^{q'} <= 1. For a Hilbert
    domain with q' = 2 the factor is exact, M = 1 / s_min, the norm of the
    coefficient map on weighted-2 coordinates; otherwise it is calibrated on
    seeded samples with a 5 % safety margin. The reported coeff_bound always
    comes from a fresh sample batch. Raises GeometryError for a target_q that
    is not a real number above 1 (inf allowed), an n_samples or seed that is
    not an integer of at least 0, a basis vector off the grid of T.dom, an
    empty basis and a rank-deficient one.
    """
    target_q = _real(target_q, "target_q", 1, infinite=True)
    n_samples, rng = _count(n_samples, "n_samples"), _rng(seed)
    qq = _conjugate(target_q)
    sp = T.dom
    B = _stack(basis, sp, "basis vectors live on a different grid")
    k = B.shape[1]
    s = np.linalg.svd(np.sqrt(sp.weights)[:, None] * B, compute_uv=False)
    # svd returns min(n, k) values: more vectors than nodes is rank-deficient
    if not k or len(s) < k or s[-1] ** 2 <= s[0] ** 2 * k * np.finfo(float).eps:
        raise GeometryError("basis is rank-deficient on the grid")

    def coeff_norms(count):
        """l_{q'} norms of the coefficients c / ||B c|| of count samples."""
        C = rng.standard_normal((count, k))
        nf = _lp_norm(B @ C.T, sp.weights, sp.p)
        alpha = C[nf > 0] / nf[nf > 0, None]
        return np.sum(np.abs(alpha) ** qq, axis=1) ** (1.0 / qq)

    if sp.p == 2.0 and qq == 2.0:
        M, m_kind = float(1.0 / s[-1]), "exact"
    else:
        M = 1.05 * max(coeff_norms(n_samples).tolist(), default=1.0)
        m_kind = "sampled"

    V = M * T.apply_coeffs(B)
    norms = _lp_norm(V, T.cod.weights, T.cod.p).tolist()
    coeff_bound = max((coeff_norms(n_samples) / M).tolist(), default=0.0)
    return Cover(
        [Vec(v, T.cod) for v in V.T], norms, target_q,
        _lq_seq(norms, target_q), coeff_bound,
        meta={"M": M, "M_kind": m_kind, "coeff_exponent": qq,
              "n_samples": n_samples},
    )


def _fit_power_law(ns, values):
    ln, lv = np.log(np.asarray(ns, dtype=float)), np.log(np.asarray(values, dtype=float))
    slope, intercept = np.polyfit(ln, lv, 1)
    pred = slope * ln + intercept
    ss_res = float(np.sum((lv - pred) ** 2))
    ss_tot = float(np.sum((lv - np.mean(lv)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2


def hardy_qcompact_demo(p_dom: float = 2.0, q_cod: float = 2.0,
                        n_terms: int = 64, grid_n: int = 1024,
                        target_q: float = 2.0, n_samples: int = 100,
                        seed: int = 0) -> tuple[Cover, dict]:
    """Cosine-family cover for the Hardy operator L_{p_dom} -> L_{q_cod} on (0,1).

    For p_dom = 2 the basis is f_1 = 1, f_n = cos(n pi t) for n > 1, whose
    images s and sin(n pi s)/(n pi) are known analytically; the reported
    image norms are those of the analytic images, in closed form through
    integral_0^pi sin(t)^q dt = B(1/2, (q+1)/2) and the exact periodic
    reduction, with the grid route ||T f_n|| alongside (image_norms_grid, on
    the same scale; meta["grid_norms"] holds them times the cover factor M,
    as cover.norms do).
    For p_dom != 2 the generalized cosines cos_{p,p'}(n pi_{p,p'} t) are used,
    restricted to p_dom in COSINE_BASIS_WINDOW, and the reported image norms
    are the grid ones. The basis is evaluated as one n x k array and T is
    applied to it once, inside cover_from_basis.
    """
    n_terms = _count(n_terms, "n_terms", 3, below="n_terms must be at least 3: the decay "
                     "fit skips the first term and needs two more")
    dom = Space.uniform(grid_n, p_dom)
    cod = Space.uniform(grid_n, q_cod)
    T = hardy(dom, cod)
    t = dom.nodes
    ns = np.arange(1, n_terms + 1)

    if p_dom == 2.0:
        B = np.column_stack([np.ones(grid_n), np.cos(np.outer(t, ns[1:] * np.pi))])
        arch = beta_fn(0.5, (q_cod + 1.0) / 2.0)  # integral_0^pi sin(t)^q dt
        # ||sin(n pi .)/(n pi)||_q^q = n (n pi)^(-1-q) * arch for integer n
        image_norms = (ns * (ns * np.pi) ** (-1.0 - q_cod) * arch) ** (1.0 / q_cod)
        image_norms[0] = (1.0 / (q_cod + 1.0)) ** (1.0 / q_cod)
        basis_norms = [1.0, np.sqrt(0.5)]  # f_1, then every cosine
    else:
        if not (COSINE_BASIS_WINDOW[0] <= p_dom <= COSINE_BASIS_WINDOW[1]):
            raise GeometryError(f"p={p_dom:g} is outside the configured cosine-basis "
                                f"window {COSINE_BASIS_WINDOW}")
        g = GenTrig(p_dom, p_dom / (p_dom - 1.0))
        B = g.cos(np.outer(t, ns * g.pi_pq), extend=True)
        basis_norms = _lp_norm(B, dom.weights, p_dom)

    cover = cover_from_basis(T, [Vec(b, dom) for b in B.T], target_q,
                             n_samples=n_samples, seed=seed)
    M = cover.meta["M"]
    cover.meta["grid_norms"] = cover.norms
    grid_norms = np.asarray(cover.norms) / M  # ||T f_n|| on the grid
    if p_dom == 2.0:
        # reported norms follow the analytic-image route
        cover.norms = (M * image_norms).tolist()
        cover.kp_bound = _lq_seq(cover.norms, target_q)
    else:
        image_norms = grid_norms
    if np.isfinite(target_q):
        # norms decay like M C / n: integral tail bound past the truncation
        C_dec = cover.norms[-1] * n_terms
        cover.meta["tail_estimate"] = float(
            (C_dec ** target_q / ((target_q - 1.0) * n_terms ** (target_q - 1.0)))
            ** (1.0 / target_q))
    else:
        cover.meta["tail_estimate"] = float(cover.norms[-1])

    slope, r2 = _fit_power_law(ns[1:], image_norms[1:])
    C_values = (image_norms[1:] ** q_cod * ns[1:].astype(float) ** q_cod).tolist()
    cover.meta.update({"fit_exponent": slope, "r2": r2})
    report = {
        "p_dom": p_dom,
        "q_cod": q_cod,
        "n_terms": n_terms,
        "grid_n": grid_n,
        "image_norms": image_norms.tolist(),
        "image_norms_grid": grid_norms.tolist(),
        "scale_M": M,
        "fit_exponent": slope,
        "r2": r2,
        "C_values": C_values,
        "C_mean": float(np.mean(C_values)),
        "summability_threshold_r": float(1.0 / abs(slope)),
        "seminormalization": {
            "inf_basis_norm": float(np.min(basis_norms)),
            "sup_basis_norm": float(np.max(basis_norms)),
        },
        "target_q": target_q,
        "coeff_bound": cover.coeff_bound,
        "kp_bound": cover.kp_bound,
    }
    return cover, report


def sobolev_embedding_demo(m_max: int = 16, grid_n: int = 512,
                           n_samples: int = 100, seed: int = 0) -> tuple[Cover, dict]:
    """First-order periodic Sobolev embedding into L_2 as a 2-cover.

    Fourier modes |m| <= m_max carry weights (1+m^2)^(-1/2); the complex
    exponentials are realized by real cosine/sine splitting on a grid of
    (0, 2pi). Unit-ball elements f = sum a_m h_m with sum (1+m^2) a_m^2 = 1
    have witness coefficients alpha_m = (1+m^2)^(1/2) a_m of l_2 norm exactly
    one; the norm sequence (1+m^2)^(-1/2) is analytic (the grid realization's
    quadrature deviation is reported, not asserted).
    """
    m_max = _count(m_max, "m_max", 4)
    b = 2.0 * np.pi
    sp = Space.uniform(grid_n, 2.0, b)
    x = sp.nodes - np.pi
    ks = np.arange(1, m_max + 1)
    ms = [0] + [m for k in ks.tolist() for m in (k, -k)]
    # mode m: cos(m x) for m > 0 and sin(-m x) for m < 0, over sqrt(pi)
    modes = np.empty((grid_n, len(ms)))
    modes[:, 0] = 1.0 / np.sqrt(2.0 * np.pi)
    modes[:, 1::2] = np.cos(np.outer(x, ks)) / np.sqrt(np.pi)
    modes[:, 2::2] = np.sin(np.outer(x, ks)) / np.sqrt(np.pi)

    weights = np.array([(1.0 + m * m) ** -0.5 for m in ms])
    V = modes * weights
    norms = weights.tolist()

    a = _rng(seed).standard_normal((_count(n_samples, "n_samples"), len(ms)))
    a /= np.sqrt(np.sum((a / weights) ** 2, axis=1))[:, None]  # sum (1+m^2) a_m^2 = 1
    alpha = a / weights
    coeff_bound = float(np.max(np.sqrt(np.sum(alpha ** 2, axis=1)), initial=0.0))

    partial = float(np.sum(weights ** 2))
    tail_est = 2.0 / m_max
    grid_norm_dev = float(np.max(np.abs(_lp_norm(V, sp.weights, 2.0) - weights)))
    cover = Cover(
        [Vec(v, sp) for v in V.T], norms, 2.0, float(np.sqrt(partial)), coeff_bound,
        meta={
            "tail_estimate": tail_est,
            "partial_sum": partial,
            "grid_norm_dev": grid_norm_dev,
            "modes": ms,
        },
    )
    report = {
        "m_max": m_max,
        "partial_sum": partial,
        "tail_estimate": tail_est,
        "kp_bound": cover.kp_bound,
        "coeff_bound": coeff_bound,
        "grid_norm_dev": grid_norm_dev,
    }
    return cover, report


def ideal_inclusion_demo(grid_n: int = 256, n_terms: int = 32,
                         levels: int = 6, seed: int = 0) -> dict:
    """Desk-scale witnesses along the nuclear -> 2-compact -> factorable chain.

    Builds the 2-cover of the Hardy operator on L_2 (2-compactness witness),
    runs the orthogonal-complement series on the square of the operator
    factored through L_2 (the factorable-side representation), and reports
    the non-nuclearity of the continuum operator as a known fact outside the
    reach of finite grids.
    """
    from .jspec import compute_jspectrum
    from .series import hilbertian_series, random_unit_vectors

    cover, rep = hardy_qcompact_demo(2.0, 2.0, n_terms=n_terms, grid_n=grid_n,
                                     seed=seed)
    sp = Space.uniform(grid_n, 2.0)
    H = hardy(sp, sp)
    T = compose(H, H)
    js = compute_jspectrum(T, levels, tol=1e-8, seed=seed)
    series = hilbertian_series(H, H, js, n_terms=levels)
    tests = random_unit_vectors(sp, 10, seed=seed + 3)
    errors = series.reconstruction_errors(T, tests, list(range(1, levels + 1)))
    return {
        "two_cover": {
            "kp_bound": cover.kp_bound,
            "coeff_bound": cover.coeff_bound,
            "length": cover.length,
        },
        "hilbertian_series_errors": errors,
        "memberships": {
            "two_compact": "witnessed by the cover above",
            "factorable_through_hilbert": "witnessed by the complement series",
            "nuclear": (
                "fails in the continuum for the Volterra operator on L_2 "
                "(known analytically); finite-grid data cannot decide it and "
                "no claim is made here"
            ),
        },
    }
