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
from scipy.linalg import svdvals
from scipy.special import beta as beta_fn

from .gtrig import GenTrig
from .oper import LinOp, compose, hardy
from .space import GeometryError, Space, Vec, _csv_text, _lp_norm

# configurable window in which the generalized-cosine family is treated as a
# basis of L_p; conservative desk-scale default, not a literature constant
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

    Coefficients are recovered through the weighted Gram system. The global
    factor M (supremum of the coefficient l_{q'} norm over the unit sphere of
    the span) moves into the vectors x_n = M T g_n so that witness
    coefficients satisfy sum |alpha_n|^{q'} <= 1. For a Hilbert domain with
    q' = 2 the factor is computed exactly as a largest singular value;
    otherwise it is calibrated on seeded samples with a 5 % safety margin. The
    reported coeff_bound always comes from a fresh sample batch.
    """
    if not target_q > 1:
        raise GeometryError("cover exponent must exceed 1 (np.inf allowed)")
    qq = _conjugate(target_q)
    sp = T.dom
    Bm = np.column_stack([g.coeffs for g in basis])
    G = (Bm * sp.weights[:, None]).T @ Bm
    if np.linalg.matrix_rank(G) < G.shape[0]:
        raise GeometryError("basis is rank-deficient on the grid")
    Ginv = np.linalg.inv(G)
    rng = np.random.default_rng(seed)

    def coeffs_of(f_coeffs):
        return Ginv @ (Bm.T @ (sp.weights * f_coeffs))

    def sample_coeffs(count):
        out = []
        for _ in range(count):
            c = rng.standard_normal(len(basis))
            f = Bm @ c
            nf = _lp_norm(f, sp.weights, sp.p)
            if nf > 0:
                out.append(coeffs_of(f / nf))
        return out

    if sp.p == 2.0 and qq == 2.0:
        # coefficient map on weighted-2 coordinates: c = Ginv B^T W^(1/2) y
        K = Ginv @ (np.sqrt(sp.weights)[:, None] * Bm).T
        M = float(svdvals(K)[0])
        m_kind = "exact"
    else:
        M = max((_lq_seq(a, qq) for a in sample_coeffs(n_samples)), default=1.0)
        M *= 1.05
        m_kind = "sampled"

    images = [T.apply_coeffs(g.coeffs) for g in basis]
    vectors = [Vec(M * im, T.cod) for im in images]
    norms = [_lp_norm(v.coeffs, T.cod.weights, T.cod.p) for v in vectors]
    coeff_bound = max((_lq_seq(a, qq) / M for a in sample_coeffs(n_samples)),
                      default=0.0)
    return Cover(
        vectors, norms, float(target_q), _lq_seq(norms, target_q), coeff_bound,
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
                        seed: int = 0,
                        window=COSINE_BASIS_WINDOW) -> tuple[Cover, dict]:
    """Cosine-family cover for the Hardy operator L_{p_dom} -> L_{q_cod} on (0,1).

    For p_dom = 2 the basis is f_1 = 1, f_n = cos(n pi t) for n > 1, whose
    images s and sin(n pi s)/(n pi) are known analytically; the reported
    image norms are those of the analytic images, in closed form through
    integral_0^pi sin(t)^q dt = B(1/2, (q+1)/2) and the exact periodic
    reduction, with the grid route alongside.
    For p_dom != 2 the generalized cosines cos_{p,p'}(n pi_{p,p'} t) are used,
    restricted to the configured basis window.
    """
    dom = Space.uniform(grid_n, p_dom)
    cod = Space.uniform(grid_n, q_cod)
    T = hardy(dom, cod)
    t = dom.nodes
    ns = np.arange(1, n_terms + 1)

    if p_dom == 2.0:
        basis = [Vec(np.ones(grid_n), dom)]
        basis += [Vec(np.cos(n * np.pi * t), dom) for n in ns[1:]]
        arch = beta_fn(0.5, (q_cod + 1.0) / 2.0)  # integral_0^pi sin(t)^q dt
        # ||sin(n pi .)/(n pi)||_q^q = n (n pi)^(-1-q) * arch for integer n
        image_norms = [(1.0 / (q_cod + 1.0)) ** (1.0 / q_cod)]
        image_norms += [
            float((n * (n * np.pi) ** (-1.0 - q_cod) * arch) ** (1.0 / q_cod))
            for n in ns[1:]
        ]
        basis_norms = [1.0] + [np.sqrt(0.5)] * (n_terms - 1)
    else:
        if not (window[0] <= p_dom <= window[1]):
            raise GeometryError(
                f"p={p_dom:g} is outside the configured cosine-basis window {window}"
            )
        pp = p_dom / (p_dom - 1.0)
        g = GenTrig(p_dom, pp)
        basis = [Vec(g.cos(n * g.pi_pq * t, extend=True), dom) for n in ns]
        image_norms = [
            _lp_norm(T.apply_coeffs(b.coeffs), cod.weights, q_cod) for b in basis
        ]
        basis_norms = [_lp_norm(b.coeffs, dom.weights, p_dom) for b in basis]

    cover = cover_from_basis(T, basis, target_q, n_samples=n_samples, seed=seed)
    grid_norms = list(cover.norms)
    # reported norms follow the analytic-image route; grid route kept in meta
    M = cover.meta["M"]
    cover.meta["grid_norms"] = grid_norms
    cover.norms = [M * v for v in image_norms]
    cover.kp_bound = _lq_seq(cover.norms, target_q)
    if np.isfinite(target_q):
        # norms decay like M C / n: integral tail bound past the truncation
        C_dec = cover.norms[-1] * n_terms
        cover.meta["tail_estimate"] = float(
            (C_dec ** target_q / ((target_q - 1.0) * n_terms ** (target_q - 1.0)))
            ** (1.0 / target_q))
    else:
        cover.meta["tail_estimate"] = float(cover.norms[-1])

    fit_ns = ns[1:]
    slope, r2 = _fit_power_law(fit_ns, np.asarray(image_norms)[1:])
    C_values = [image_norms[i] ** q_cod * float(ns[i]) ** q_cod
                for i in range(1, n_terms)]
    cover.meta.update({"fit_exponent": slope, "r2": r2})
    report = {
        "p_dom": p_dom,
        "q_cod": q_cod,
        "n_terms": n_terms,
        "grid_n": grid_n,
        "image_norms": image_norms,
        "image_norms_grid": grid_norms,
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
    if m_max < 4:
        raise GeometryError("sobolev_embedding_demo needs m_max >= 4")
    b = 2.0 * np.pi
    sp = Space.uniform(grid_n, 2.0, b)
    x = sp.nodes - np.pi
    ms = [0] + [m for k in range(1, m_max + 1) for m in (k, -k)]

    def mode(m):
        if m == 0:
            return np.full(grid_n, 1.0 / np.sqrt(2.0 * np.pi))
        if m > 0:
            return np.cos(m * x) / np.sqrt(np.pi)
        return np.sin(-m * x) / np.sqrt(np.pi)

    weights = np.array([(1.0 + m * m) ** -0.5 for m in ms])
    vectors = [Vec(weights[i] * mode(m), sp) for i, m in enumerate(ms)]
    norms = weights.tolist()

    rng = np.random.default_rng(seed)
    coeff_bound = 0.0
    for _ in range(n_samples):
        a = rng.standard_normal(len(ms))
        a /= np.sqrt(np.sum((a / weights) ** 2))  # now sum (1+m^2) a_m^2 = 1
        alpha = a / weights
        coeff_bound = max(coeff_bound, float(np.sqrt(np.sum(alpha ** 2))))

    partial = float(np.sum(weights ** 2))
    tail_est = 2.0 / m_max
    grid_norm_dev = max(
        abs(_lp_norm(v.coeffs, sp.weights, 2.0) - norms[i])
        for i, v in enumerate(vectors)
    )
    cover = Cover(
        vectors, norms, 2.0, float(np.sqrt(partial)), coeff_bound,
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
