import numpy as np
import pytest
from scipy.integrate import quad

from jspectral import (
    GeometryError,
    LinOp,
    Space,
    Vec,
    cover_from_basis,
    hardy,
    hardy_qcompact_demo,
    ideal_inclusion_demo,
    sobolev_embedding_demo,
)


def test_cover_from_cosine_basis_witnesses_unit_ball(hardy_l2, l2_256):
    t = l2_256.nodes
    basis = [Vec(np.ones(256), l2_256)]
    basis += [Vec(np.cos(n * np.pi * t), l2_256) for n in range(2, 17)]
    cover = cover_from_basis(hardy_l2, basis, 2.0, n_samples=100, seed=0)
    assert cover.coeff_bound <= 1.0 + 1e-6
    assert cover.meta["M_kind"] == "exact"
    assert cover.meta["M"] == pytest.approx(np.sqrt(2.0), rel=1e-6)
    assert cover.kp_bound == pytest.approx(
        float(np.sqrt(np.sum(np.asarray(cover.norms) ** 2))), rel=1e-12)


def test_cover_exists_for_q_infinity(hardy_l2, l2_256):
    basis = [Vec(np.cos(n * np.pi * l2_256.nodes), l2_256) for n in range(2, 10)]
    cover = cover_from_basis(hardy_l2, basis, np.inf, n_samples=50, seed=1)
    assert cover.coeff_bound <= 1.0 + 1e-6
    assert np.isfinite(cover.kp_bound)


def test_cover_monotone_in_q(hardy_l2, l2_256):
    # finite-list statement: a witness exists at every larger exponent
    basis = [Vec(np.cos(n * np.pi * l2_256.nodes), l2_256) for n in range(2, 10)]
    for q in (2.0, 3.0, 6.0):
        cover = cover_from_basis(hardy_l2, basis, q, n_samples=50, seed=2)
        assert cover.coeff_bound <= 1.0 + 1e-6
        assert np.isfinite(cover.kp_bound)


def test_cover_rank_deficient_basis_rejected(hardy_l2, l2_256):
    v = Vec(np.ones(256), l2_256)
    with pytest.raises(GeometryError):
        cover_from_basis(hardy_l2, [v, v], 2.0)


@pytest.mark.parametrize("off_grid, message", [(True, "different grid"),
                                               (False, "rank-deficient")])
def test_cover_rejects_a_basis_off_the_grid_and_an_empty_basis(off_grid, message):
    sp = Space.uniform(16, 2.0)
    basis = [Vec(np.ones(16), Space.uniform(16, 2.0, b=2.0))] if off_grid else []
    with pytest.raises(GeometryError, match=message):
        cover_from_basis(hardy(sp, sp), basis, 2.0)


def test_cover_more_vectors_than_nodes_rejected():
    # svd of the 8 x 16 basis has 8 values, all of them large
    sp = Space.uniform(8, 2.0)
    T = hardy(sp, sp)
    t = sp.nodes
    basis = [Vec(np.cos(n * np.pi * t), sp) for n in range(16)]
    with pytest.raises(GeometryError, match="rank-deficient"):
        cover_from_basis(T, basis, 2.0)


def test_rank_one_operator_has_length_one_cover(l2_256):
    rng = np.random.default_rng(3)
    R = LinOp(np.outer(rng.standard_normal(256), rng.standard_normal(256)) / 256,
              l2_256, l2_256)
    basis = [Vec(np.ones(256), l2_256)]
    cover = cover_from_basis(R, basis, 2.0, n_samples=20, seed=4)
    assert cover.length == 1
    assert cover.coeff_bound <= 1.0 + 1e-6


# ------------------------------------------------------------ Hardy demo

def test_hardy_demo_cosine_image_norms_match_closed_form():
    cover, report = hardy_qcompact_demo(2.0, 2.0, n_terms=64, grid_n=512, seed=0)
    ns = np.arange(2, 65)
    want = 1.0 / (np.sqrt(2.0) * np.pi * ns)
    got = np.asarray(report["image_norms"][1:])
    assert np.max(np.abs(got - want)) <= 1e-6
    # first image is t with norm 3^(-1/2)
    assert report["image_norms"][0] == pytest.approx(1 / np.sqrt(3), rel=1e-10)


def test_hardy_demo_decay_fit():
    cover, report = hardy_qcompact_demo(2.0, 2.0, n_terms=64, grid_n=512, seed=0)
    assert abs(report["fit_exponent"] + 1.0) <= 0.02
    assert report["r2"] >= 0.999
    # constant in the power law: ||T f_n||^2 = 1/(2 pi^2 n^2)
    assert report["C_mean"] == pytest.approx(1.0 / (2.0 * np.pi ** 2), rel=1e-9)
    assert report["summability_threshold_r"] == pytest.approx(1.0, abs=0.02)


def test_hardy_demo_seminormalization():
    cover, report = hardy_qcompact_demo(2.0, 2.0, n_terms=32, grid_n=256, seed=0)
    semi = report["seminormalization"]
    assert semi["inf_basis_norm"] == pytest.approx(np.sqrt(0.5), rel=1e-12)
    assert semi["sup_basis_norm"] == pytest.approx(1.0, rel=1e-12)
    assert cover.coeff_bound <= 1.0 + 1e-6


def test_hardy_demo_into_l15_quadrature_route():
    # independent oracle: adaptive quadrature of |sin(n pi s)/(n pi)|^q
    cover, report = hardy_qcompact_demo(2.0, 1.5, n_terms=8, grid_n=256, seed=0)
    n = 5
    oracle = quad(lambda s: np.abs(np.sin(n * np.pi * s) / (n * np.pi)) ** 1.5,
                  0, 1, limit=200)[0] ** (1 / 1.5)
    assert report["image_norms"][n - 1] == pytest.approx(oracle, rel=1e-8)


def test_hardy_demo_grid_route_on_the_analytic_scale():
    # both image-norm routes report ||T f_n||; the cover factor M stays out
    for q in (1.5, 2.0, 3.0):
        cover, report = hardy_qcompact_demo(2.0, q, n_terms=8, grid_n=512, seed=0)
        grid = np.asarray(report["image_norms_grid"])
        exact = np.asarray(report["image_norms"])
        assert np.max(np.abs(grid - exact) / exact) <= 1e-3
        assert cover.meta["grid_norms"] == pytest.approx(report["scale_M"] * grid,
                                                         rel=1e-15)


def test_hardy_demo_arch_integral_matches_quadrature():
    # image n = 2 has norm^q = 2 (2 pi)^(-1-q) integral_0^pi sin(t)^q dt
    for q in (1.5, 2.0, 3.0):
        _, report = hardy_qcompact_demo(2.0, q, n_terms=4, grid_n=64, seed=0)
        arch = report["image_norms"][1] ** q * (2 * np.pi) ** (1 + q) / 2
        oracle = quad(lambda t: np.sin(t) ** q, 0.0, np.pi, epsabs=1e-13, epsrel=1e-13)[0]
        assert arch == pytest.approx(oracle, rel=1e-12)


def test_hardy_demo_generalized_cosines_inside_window():
    cover, report = hardy_qcompact_demo(3.0, 2.0, n_terms=12, grid_n=256, seed=0)
    assert abs(report["fit_exponent"] + 1.0) <= 0.1
    semi = report["seminormalization"]
    assert 0.0 < semi["inf_basis_norm"] <= semi["sup_basis_norm"] < np.inf
    assert cover.coeff_bound <= 1.0 + 1e-6


def test_hardy_demo_refuses_outside_window():
    with pytest.raises(GeometryError):
        hardy_qcompact_demo(8.0, 2.0, n_terms=8, grid_n=64)


# ------------------------------------------------------------ Sobolev demo

def test_sobolev_norm_sequence_exact():
    cover, report = sobolev_embedding_demo(12, grid_n=256, seed=0)
    ms = cover.meta["modes"]
    want = [(1.0 + m * m) ** -0.5 for m in ms]
    assert cover.norms == want
    assert len(cover.norms) == 2 * 12 + 1


def test_sobolev_partial_sum_within_tail_bound():
    cover, report = sobolev_embedding_demo(16, grid_n=256, seed=0)
    # partial-sum oracle at a much larger cutoff
    full = 1.0 + sum(2.0 / (1.0 + m * m) for m in range(1, 16 * 50))
    assert full - report["partial_sum"] <= report["tail_estimate"]
    assert report["tail_estimate"] == pytest.approx(2.0 / 16)


def test_sobolev_coefficient_bound():
    cover, report = sobolev_embedding_demo(16, grid_n=256, n_samples=100, seed=0)
    assert cover.coeff_bound <= 1.0 + 1e-8
    assert report["grid_norm_dev"] <= 1e-3


def test_sobolev_needs_enough_modes():
    with pytest.raises(GeometryError):
        sobolev_embedding_demo(2)


# ------------------------------------------------------------ ideal demo

def test_ideal_inclusion_demo_reports():
    report = ideal_inclusion_demo(grid_n=128, n_terms=16, levels=4, seed=0)
    assert report["two_cover"]["coeff_bound"] <= 1.0 + 1e-6
    errs = [e for _, e in report["hilbertian_series_errors"]]
    assert errs[-1] < errs[0]
    assert "nuclear" in report["memberships"]
    assert "no claim" in report["memberships"]["nuclear"]


def test_cover_export(hardy_l2, l2_256):
    basis = [Vec(np.cos(n * np.pi * l2_256.nodes), l2_256) for n in range(2, 6)]
    cover = cover_from_basis(hardy_l2, basis, 2.0, n_samples=10, seed=5)
    assert cover.to_csv().splitlines()[0] == "n,norm"
    assert '"kp_bound"' in cover.to_json()
