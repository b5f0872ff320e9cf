"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Grids are taken from the criteria where stated; where a criterion leaves the
grid open, a moderate grid well inside the stated tolerance is used and noted
in the test. Run with `pytest tests/test_acceptance.py -v -s` for the lines.
"""

import time

import numpy as np
import pytest

import jspectral as jl
from jspectral.gtrig import GenTrig
from jspectral.series import _alpha_objective, random_unit_vectors

_T0 = time.time()
_RESULTS = []


def report(k, ok, detail):
    line = f"CRITERION {k}: {'PASS' if ok else 'FAIL'} - {detail}"
    _RESULTS.append(line)
    print(line)
    assert ok, line


def hardy_on(p, q, n, b=1.0):
    dom = jl.Space.uniform(n, p, b)
    cod = jl.Space.uniform(n, q, b)
    return jl.hardy(dom, cod)


def test_criterion_01_hardy_norm_closed_form():
    worst = 0.0
    times = {}
    for p in (1.5, 2.0, 3.0):
        t0 = time.time()
        T = hardy_on(p, 2.0, 4096)
        lam, _, res = jl.extremal_pair(T, (), seed=42, tol=1e-8, restarts=8)
        times[p] = time.time() - t0
        ref = jl.hardy_norm_formula(p, 1.0)
        rel = abs(lam - ref) / ref
        worst = max(worst, rel)
        assert rel <= 1e-3, (p, rel)
        if p == 2.0:
            assert abs(lam - 2 / np.pi) <= 1e-5 * (2 / np.pi)
            assert abs(ref - 2 / np.pi) <= 1e-5 * (2 / np.pi)
        assert times[p] <= 60.0, (p, times[p])
    report(1, True, f"max rel dev {worst:.2e}, runtimes "
                    + ", ".join(f"p={p}: {t:.1f}s" for p, t in times.items()))


def test_criterion_02_hilbert_case_exactness():
    T = hardy_on(2.0, 2.0, 2048)
    js = jl.compute_jspectrum(T, 6, tol=1e-8, seed=42, restarts=8)
    ref = 2.0 / ((2 * np.arange(1, 7) - 1) * np.pi)
    rel = np.abs(np.array(js.lambdas) - ref) / ref
    report(2, bool(np.max(rel) <= 1e-5),
           f"max rel dev {np.max(rel):.2e} over n <= 6 at grid 2048")


def test_criterion_03_semi_orthogonality():
    worst = 0.0
    for p in (2.0, 3.0):
        T = hardy_on(p, 2.0, 512)
        js = jl.compute_jspectrum(T, 4, tol=1e-8, seed=42, restarts=8)
        S = js.semi_orth_table("x")
        for r in range(4):
            for s in range(r, 4):
                worst = max(worst, abs(S[r, s] - (r == s)))
    report(3, worst <= 1e-6, f"max |(x_r,x_s) - delta| = {worst:.2e} (grid 512)")


def test_criterion_04_series_reconstruction():
    T = hardy_on(3.0, 2.0, 512)
    js = jl.compute_jspectrum(T, 8, tol=1e-8, seed=42, restarts=8)
    rep = jl.hilbert_target_series(T, js)
    tests = random_unit_vectors(T.dom, 20, seed=42)
    errs = dict(rep.reconstruction_errors(T, tests, [4, 8]))
    ok_mixed = errs[8] < errs[4]

    T2 = hardy_on(2.0, 2.0, 512)
    js2 = jl.compute_jspectrum(T2, 7, tol=1e-8, seed=42, restarts=8)
    rep2 = jl.hilbert_target_series(T2, js2)
    tests2 = random_unit_vectors(T2.dom, 20, seed=43)
    tail_ok = True
    tail_worst = 0.0
    for n, err in rep2.reconstruction_errors(T2, tests2, range(1, 7)):
        slack = err - (js2.lambdas[n] + 1e-6) if n < js2.n_levels else 0.0
        tail_worst = max(tail_worst, slack)
        tail_ok = tail_ok and slack <= 0.0
    report(4, ok_mixed and tail_ok,
           f"err(8)={errs[8]:.3e} < err(4)={errs[4]:.3e}; "
           f"p=2 tail slack max {tail_worst:.2e}")


def test_criterion_05_linearized_identities():
    T = hardy_on(3.0, 2.0, 256)
    rep = jl.linearized_series(T, 4, tol=1e-9, seed=42, restarts=8)
    lam_dev = max(rep.meta["lambda_dev"])
    agree = max(rep.meta["variant_agreement"].values())
    report(5, lam_dev <= 1e-5 and agree <= 1e-5,
           f"|lambda^T - lambda^T*| max {lam_dev:.2e}, "
           f"variant pairwise dev {agree:.2e} (i <= 4, grid 256)")


def test_criterion_06_sandwich_bounds():
    details = []
    ok = True
    for q in (2.0, 1.5):
        T = hardy_on(2.0, q, 512)
        js = jl.compute_jspectrum(T, 5, tol=1e-8, seed=42, restarts=8)
        arep = jl.approx_numbers_report(T, 5, js=js, tol=1e-8, seed=42)
        table = jl.sandwich_check(js, arep["values"], tol=1e-6)
        slack = min(min(table.slack_lower), min(table.slack_upper))
        ok = ok and all(table.passed) and slack >= -1e-6
        details.append(f"q={q} ({arep['kind']}): min slack {slack:.2e}")
    report(6, ok, "; ".join(details))


def test_criterion_07_alpha_p():
    a2 = jl.alpha_p(2.0)
    ok = abs(a2) <= 1e-12
    sym_worst = 0.0
    for p in (1.5, 3.0, 4.0):
        sym_worst = max(sym_worst, abs(jl.alpha_p(p) - jl.alpha_p(p / (p - 1))))
    ok = ok and sym_worst <= 1e-10
    cert_worst = 0.0
    for p in (3.0, 4.0):
        rep = jl.alpha_p_report(p)
        ms = np.linspace(0.0, 1.0, 1_000_001)[1:-1]
        grid_max = float(np.max(_alpha_objective(ms, p)))
        cert_worst = max(cert_worst, abs(rep["objective"] - grid_max))
    ok = ok and cert_worst <= 1e-10
    report(7, ok, f"alpha_2={a2:.1e}, dual symmetry dev {sym_worst:.1e}, "
                  f"1e6-grid certificate dev {cert_worst:.1e}")


def test_criterion_08_generalized_trig():
    worst = 0.0
    for p, q in ((2.0, 2.0), (3.0, 1.5), (1.5, 3.0)):
        g = GenTrig(p, q)
        xs = np.linspace(0.0, g.pi_pq / 2, 100)
        s, c = g.sin(xs), g.cos(xs)
        worst = max(worst, float(np.max(np.abs(np.abs(c) ** p + np.abs(s) ** q - 1))))
    pi_dev = abs(jl.pi_pq(2.0, 2.0) - np.pi)
    report(8, worst <= 1e-10 and pi_dev <= 1e-10,
           f"Pythagorean dev {worst:.1e}, pi_22 dev {pi_dev:.1e}")


def test_criterion_09_bilaplacian():
    rep = jl.bilaplacian_check(3.0, b=1.0, grid_n=2048, tol=1e-8, seed=42,
                               restarts=4)
    dev = rep["sup_dev_eigenfunction"]
    order = min(rep["observed_orders"])
    report(9, dev <= 1e-3 and order >= 1.5,
           f"eigenfunction sup dev {dev:.2e} at grid 2048 "
           f"(raw extremal dev {rep['sup_dev_extremal_raw']:.2f}, see ledger), "
           f"ODE residual order {order:.2f}")


def test_criterion_10_hardy_cover():
    cover, rep = jl.hardy_qcompact_demo(2.0, 2.0, n_terms=64, grid_n=1024,
                                        seed=42)
    ns = np.arange(2, 65)
    want = 1.0 / (np.sqrt(2.0) * np.pi * ns)
    norm_dev = float(np.max(np.abs(np.asarray(rep["image_norms"][1:]) - want)))
    ok = (abs(rep["fit_exponent"] + 1.0) <= 0.02 and rep["r2"] >= 0.999
          and norm_dev <= 1e-6)
    report(10, ok, f"fit exponent {rep['fit_exponent']:.4f}, R2 {rep['r2']:.6f}, "
                   f"norm dev {norm_dev:.1e}")


def test_criterion_11_sobolev_cover():
    cover, rep = jl.sobolev_embedding_demo(16, grid_n=512, n_samples=100, seed=42)
    ms = cover.meta["modes"]
    exact = all(cover.norms[i] == (1.0 + m * m) ** -0.5 for i, m in enumerate(ms))
    ok = cover.coeff_bound <= 1.0 + 1e-8 and exact
    report(11, ok, f"coeff bound {cover.coeff_bound:.12f}, norms exact: {exact}")


def _konig_jordan(k_max):
    sp = jl.Space.sequence(2, 2.0)
    T = jl.LinOp(np.array([[0.5, 1.0], [0.0, 0.5]]), sp, sp)
    return jl.konig_report(T, 1, k_max, tol=1e-10, seed=42, restarts=4)["values"]


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: lambda_1(T^k)^(1/k) = 0.5 (2k + O(1/k))^(1/k) "
           "for this Jordan block, which is ~0.558 at k = 40; the 0.02 window "
           "is first reached near k = 170 (independent SVD computation agrees)",
)
def test_criterion_12_konig_window():
    vals = _konig_jordan(40)
    ok = abs(vals[39] - 0.5) <= 0.02
    report(12, ok, f"s_40 = {vals[39]:.4f}, gap {abs(vals[39] - 0.5):.3f}")


def test_criterion_12_konig_trend():
    vals = _konig_jordan(40)
    decreasing = all(vals[i + 1] < vals[i] for i in range(39))
    above = all(v > 0.5 for v in vals)
    report("12 (trend part)", decreasing and above,
           f"monotone decreasing toward 0.5 from above; s_40 = {vals[39]:.4f} "
           f"(0.02-window part expected-fail, see ledger)")


def test_criterion_13_property_suite():
    rng = np.random.default_rng(42)
    ok = True
    # duality-map identities and round trip
    for p in (1.5, 2.0, 3.0, 4.0):
        sp = jl.Space.uniform(64, p)
        for _ in range(5):
            v = jl.Vec(rng.standard_normal(64), sp)
            jv = jl.duality_map(v)
            nv = jl.norm(v)
            ok = ok and abs(jl.pairing(v, jv) - nv ** 2) <= 1e-10 * nv ** 2
            ok = ok and abs(jv.norm() - nv) <= 1e-10 * nv
            back = jl.inverse_duality_map(jv)
            ok = ok and np.max(np.abs(back.coeffs - v.coeffs)) <= 1e-10 * np.max(np.abs(v.coeffs))
    # James asymmetry witness at p = 4
    sp = jl.Space.sequence(8, 4.0)
    rng2 = np.random.default_rng(2)
    y = jl.Vec(rng2.standard_normal(8), sp)
    z = jl.Vec(rng2.standard_normal(8), sp)
    _, v = jl.alber_decompose(z, [y])
    ok = ok and jl.is_j_orthogonal(v, y, 1e-8)
    ok = ok and abs(jl.semi_inner(y, v)) > 0.05 * jl.norm(v) * jl.norm(y)
    # Alber uniqueness under re-basing
    sp3 = jl.Space.uniform(48, 3.0)
    b1 = jl.Vec(rng.standard_normal(48), sp3)
    b2 = jl.Vec(rng.standard_normal(48), sp3)
    x = jl.Vec(rng.standard_normal(48), sp3)
    m_a, v_a = jl.alber_decompose(x, [b1, b2])
    m_b, v_b = jl.alber_decompose(
        x, [jl.Vec(0.6 * b1.coeffs + 0.8 * b2.coeffs, sp3),
            jl.Vec(1.1 * b1.coeffs - 0.4 * b2.coeffs, sp3)])
    ok = ok and np.max(np.abs(m_a.coeffs - m_b.coeffs)) <= 1e-8
    elapsed = time.time() - _T0
    ok = ok and elapsed <= 600.0
    report(13, ok, f"duality/roundtrip/asymmetry/uniqueness all hold; "
                   f"acceptance module elapsed {elapsed:.0f}s (limit 600s)")


def test_zz_summary():
    print()
    for line in _RESULTS:
        print(line)
