import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkmeans._util import NU_BOUNDS
from tkmeans.baselines import BaselineConfig, kmeans_fit
from tkmeans.core import (
    _ALPHA_FLOOR,
    EStepResult,
    FitConfig,
    TkModel,
    _initial_model,
    e_step,
    fit,
    fit_fast,
    log_l2_loss,
    log_t_density,
    m_step,
    negative_log_likelihood,
)
from tkmeans.datasets import Dataset, generate_gaussian_blobs
from tkmeans.errors import DomainError
from tkmeans.harness import parse_generator_spec
from tkmeans.metrics import adjusted_rand_index


class TestLogTDensity:
    def test_standard_cauchy_at_zero(self):
        # p=1, nu=1, alpha=1 at the center: density 1/pi
        assert log_t_density([0.0], [0.0], 1.0, 1.0) == pytest.approx(-math.log(math.pi), abs=1e-12)

    def test_integrates_to_one(self):
        from scipy.integrate import quad

        for nu, alpha, mu in [(1.0, 1.0, 0.0), (2.5, 0.7, 1.3), (8.0, 2.0, -0.5)]:
            val, err = quad(lambda t: math.exp(log_t_density([t], [mu], alpha, nu)), -np.inf, np.inf)
            assert val == pytest.approx(1.0, abs=1e-4)

    def test_monotone_in_distance(self):
        near = log_t_density([0.0, 0.0], [0.0, 0.0], 0.5, 3.0)
        far = log_t_density([1.0, 0.0], [0.0, 0.0], 0.5, 3.0)
        assert near > far

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            log_t_density([0.0], [0.0], 0.0, 1.0)
        with pytest.raises(DomainError):
            log_t_density([0.0], [0.0], 1.0, -1.0)
        with pytest.raises(DomainError):
            log_t_density([np.nan], [0.0], 1.0, 1.0)


class TestEStep:
    def test_symmetric_point_splits_evenly(self):
        d = Dataset([[0.0]])
        model = TkModel([[-1.0], [1.0]], alpha=0.7, nu=2.3)
        e = e_step(d, model)
        assert e.tau[0] == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_density_ratio_example(self):
        # nu=1, alpha=1, p=1: unnormalized densities at x=0 for centers {0, 2}
        # are (1+d^2)^-1 = [1, 0.2] -> tau = [5/6, 1/6]
        d = Dataset([[0.0]])
        model = TkModel([[0.0], [2.0]], alpha=1.0, nu=1.0)
        e = e_step(d, model)
        assert e.tau[0] == pytest.approx([5.0 / 6.0, 1.0 / 6.0], abs=1e-12)

    def test_u_values(self):
        d = Dataset([[0.0], [1.0]])
        model = TkModel([[0.0]], alpha=1.0, nu=1.0)
        e = e_step(d, model)
        assert e.u[0, 0] == pytest.approx(2.0, abs=1e-15)  # d^2 = 0
        assert e.u[1, 0] == pytest.approx(1.0, abs=1e-15)  # d^2 = 1

    def test_rows_sum_to_one_and_u_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n, p, k = int(rng.integers(2, 40)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
            d = Dataset(rng.normal(0, 3, (n, p)))
            model = TkModel(rng.normal(0, 3, (k, p)), float(10 ** rng.uniform(-2, 1)), float(rng.uniform(1, 20)))
            e = e_step(d, model)
            assert np.abs(e.tau.sum(axis=1) - 1.0).max() < 1e-9
            assert (e.tau >= 0).all() and (e.tau <= 1).all()
            assert (e.u > 0).all() and (e.u <= (model.nu + p) / model.nu + 1e-15).all()

    def test_far_points_do_not_underflow(self):
        d = Dataset([[1e8], [0.0]])
        model = TkModel([[0.0], [1.0]], alpha=1e-6, nu=1.0)
        e = e_step(d, model)
        assert np.isfinite(e.tau).all()
        assert e.tau[0].sum() == pytest.approx(1.0, abs=1e-9)

    def test_argmax_invariance_under_density_scaling(self):
        # adding a constant to every log density must leave tau unchanged
        from tkmeans.specialfn import log_sum_exp

        rng = np.random.default_rng(1)
        logt = rng.normal(0, 5, (30, 4))
        tau1 = np.exp(logt - log_sum_exp(logt, axis=1)[:, None])
        shifted = logt + 123.456
        tau2 = np.exp(shifted - log_sum_exp(shifted, axis=1)[:, None])
        assert np.abs(tau1 - tau2).max() < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DomainError):
            e_step(Dataset([[0.0, 1.0]]), TkModel([[0.0]], 1.0, 1.0))

    def test_log_u_expect_from_log1p_matches_log_u(self):
        from scipy.special import digamma as sp_digamma

        rng = np.random.default_rng(8)
        for p, nu, alpha in [(1, 1.0, 0.3), (2, 3.0, 1.0), (16, 200.0, 5.0), (4, 1.5, 1e-3)]:
            d = Dataset(rng.normal(0, 3, (300, p)))
            e = e_step(d, TkModel(rng.normal(0, 3, (5, p)), alpha, nu))
            half = (nu + p) / 2.0
            expected = np.log(e.u) + sp_digamma(half) - math.log(half)
            assert np.abs(e.log_u_expect - expected).max() < 1e-12

    def test_component_major_layout_during_a_fit(self, monkeypatch):
        # reductions over K run along contiguous rows only if every (N, K) matrix is a view of (K, N) memory
        from tkmeans import core

        seen = []
        inner = core._e_block

        def recording(*args, **kwargs):
            lse, tau, log_u = inner(*args, **kwargs)
            seen.append((tau, log_u))
            return lse, tau, log_u

        monkeypatch.setattr(core, "_e_block", recording)
        d = generate_gaussian_blobs(4, 50, 3, seed=2)
        fit(d, 4, FitConfig(seed=0, max_iter=6))
        assert len(seen) > 2
        for tau, log_u in seen:
            for m in (tau.T, log_u):
                assert m.shape == (4, d.n) and m.flags.c_contiguous
        e = e_step(d, TkModel(d.samples[:4], 1.0, 3.0))
        for m in (e.tau, e.u, e.log_u_expect):
            assert m.shape == (d.n, 4) and m.T.flags.c_contiguous

    def test_e_step_holds_no_extra_matrix(self):
        # tau (normalized in place), u and E ln u, plus the (p+2, N) block of the data and a few (N,) vectors;
        # a fourth (K, N) matrix would add K rows
        n, k, p = 20_000, 10, 2
        d = generate_gaussian_blobs(k, n // k, p, seed=3)
        model = TkModel(d.samples[:k], 1.0, 3.0)
        tracemalloc.start()
        try:
            e_step(d, model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (3 * k + (p + 2) + 6) * n * 8


def _estep_result(tau, u, log_u_expect=None):
    tau = np.asarray(tau, dtype=float)
    u = np.asarray(u, dtype=float)
    if log_u_expect is None:
        log_u_expect = np.log(u)
    return EStepResult(tau, u, np.asarray(log_u_expect, dtype=float))


class TestMStep:
    def test_equal_weights_single_cluster_mean(self):
        d = Dataset([[0.0], [3.0]])
        e = _estep_result([[1.0], [1.0]], [[1.0], [1.0]])
        m = m_step(d, e, TkModel([[1.0]], 1.0, 3.0), FitConfig(fixed_nu=3.0))
        assert m.centers[0, 0] == pytest.approx(1.5)

    def test_weighted_mean(self):
        d = Dataset([[0.0], [3.0]])
        e = _estep_result([[1.0], [1.0]], [[2.0], [1.0]])  # tau*u weights {2, 1}
        m = m_step(d, e, TkModel([[1.0]], 1.0, 3.0), FitConfig(fixed_nu=3.0))
        assert m.centers[0, 0] == pytest.approx(1.0)

    def test_alpha_direct_evaluation(self):
        # one cluster, p=1, points {-1, +1}, tau=u=1, new center 0:
        # alpha = (1 + 1) / (1 * 2) = 1
        d = Dataset([[-1.0], [1.0]])
        e = _estep_result([[1.0], [1.0]], [[1.0], [1.0]])
        m = m_step(d, e, TkModel([[0.5]], 1.0, 3.0), FitConfig(fixed_nu=3.0))
        assert m.centers[0, 0] == pytest.approx(0.0)
        assert m.alpha == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "log_u_expect,u,expected_nu",
        [
            (0.0, 2.0, 1.0),  # eta = 1 + (0 - 2) = -1   -> nu = 1
            (0.0, 1.25, 4.0),  # eta = -0.25              -> nu = 4
            (0.0, 1.001, 200.0),  # eta = -0.001          -> clamped to nu_max
            (1.0, 0.5, 200.0),  # eta = +1.5 >= 0         -> clamped to nu_max
        ],
    )
    def test_nu_update_arithmetic(self, log_u_expect, u, expected_nu):
        d = Dataset([[0.0]])
        e = _estep_result([[1.0]], [[u]], [[log_u_expect]])
        m = m_step(d, e, TkModel([[0.0]], 1.0, 3.0), FitConfig())
        assert m.nu == pytest.approx(expected_nu)

    def test_fixed_nu_unchanged(self):
        d = Dataset([[0.0], [1.0]])
        model = TkModel([[0.5]], 1.0, 7.5)
        e = e_step(d, model)
        m = m_step(d, e, model, FitConfig(fixed_nu=7.5))
        assert m.nu == 7.5

    def test_alpha_floor(self):
        d = Dataset([[0.0], [0.0]])
        e = _estep_result([[1.0], [1.0]], [[1.0], [1.0]])
        m = m_step(d, e, TkModel([[0.0]], 1.0, 3.0), FitConfig(fixed_nu=3.0))
        assert m.alpha == _ALPHA_FLOOR == 1e-12

    def test_degenerate_component_reseeded(self):
        # component 1 carries zero mass -> re-seeded to the worst-fit point
        d = Dataset([[0.0], [1.0], [10.0]])
        tau = np.array([[1.0, 0.0], [1.0, 0.0], [0.6, 0.0]])
        tau[:, 1] = 0.0
        tau[2, 0] = 1.0
        e = _estep_result(tau, np.ones((3, 2)))
        m = m_step(d, e, TkModel([[0.0], [5.0]], 1.0, 3.0), FitConfig(fixed_nu=3.0))
        assert m.centers[1, 0] in (0.0, 1.0, 10.0)

    @pytest.mark.parametrize("field, cut", [("u", np.s_[:, :1]), ("log_u_expect", np.s_[:, :1]), ("u", np.s_[:5])],
                             ids=["u-one-column", "log-u-one-column", "u-five-rows"])
    def test_every_e_step_matrix_must_be_n_by_k(self, field, cut):
        # a one-column u broadcast over all K columns and moved the centers with no error
        d = generate_gaussian_blobs(3, 10, 2, seed=0)
        model = TkModel(d.samples[[0, 10, 20]], 1.0, 3.0)
        e = e_step(d, model)
        bad = replace(e, **{field: getattr(e, field)[cut]})
        with pytest.raises(DomainError, match="must all be"):
            m_step(d, bad, model, FitConfig())

    def test_overflowing_sums_raise_a_typed_error(self):
        # every distance is finite, but the weighted sums of |x - m|^2 over 100 points are not
        import warnings

        from tkmeans.errors import NumericalError

        rng = np.random.default_rng(0)
        spread = 1e152 * rng.standard_normal((100, 2))
        x = np.vstack([spread[:50] - 3e153, spread[50:] + 3e153])
        d = Dataset(x)
        model = TkModel(x[[0, 50]], 1e306, 3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="M-step's weighted sums overflow"):
                m_step(d, e_step(d, model), model, FitConfig(fixed_nu=3.0))
            with pytest.raises(NumericalError, match="initial centers overflow"):
                fit(d, 2, FitConfig(seed=0, fixed_nu=3.0))


class TestLogL2Loss:
    def test_zero_at_centers(self):
        d = Dataset([[1.0], [2.0]])
        model = TkModel([[1.0], [2.0]], 1.0, 1.0)
        tau = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert log_l2_loss(d, model, tau) == 0.0

    def test_plug_in_ln2(self):
        # one point at squared distance nu*alpha from its center -> ln 2
        nu, alpha = 2.0, 0.5
        d = Dataset([[math.sqrt(nu * alpha)]])
        model = TkModel([[0.0]], alpha, nu)
        assert log_l2_loss(d, model, np.array([[1.0]])) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = Dataset(rng.normal(0, 2, (15, 2)))
            model = TkModel(rng.normal(0, 2, (3, 2)), float(10 ** rng.uniform(-2, 1)), float(rng.uniform(1, 10)))
            tau = rng.dirichlet(np.ones(3), size=15)
            assert log_l2_loss(d, model, tau) >= 0.0

    def test_rejects_unnormalized_tau(self):
        d = Dataset([[0.0]])
        model = TkModel([[0.0]], 1.0, 1.0)
        with pytest.raises(DomainError):
            log_l2_loss(d, model, np.array([[0.7]]))


class TestFit:
    def test_k1_center_near_sample_mean_and_fixed_point_oracle(self):
        # the precision weights depend on d^2/alpha only, so the gap to the
        # plain mean scales with the spread; concentrated = 1e-5 here
        rng = np.random.default_rng(3)
        x = 5.0 + 1e-5 * rng.normal(0, 1, (60, 2))
        d = Dataset(x)
        r = fit(d, 1, FitConfig(seed=0, fixed_nu=3.0, tol=1e-12, max_iter=500))
        assert np.abs(r.centers[0] - x.mean(axis=0)).max() < 1e-6

        # independent fixed-point oracle iterating the u-weighted mean directly
        center = x[np.random.default_rng(0).choice(60, 1)[0]].copy()
        alpha = float(((x - center) ** 2).sum(axis=1).mean()) / 2.0
        nu = 3.0
        for _ in range(500):
            d2 = ((x - center) ** 2).sum(axis=1)
            u = (nu + 2) / (nu + d2 / alpha)
            new = (u[:, None] * x).sum(axis=0) / u.sum()
            d2n = ((x - new) ** 2).sum(axis=1)
            alpha = max(float((u * d2n).sum() / (2.0 * len(x))), 1e-12)
            if np.abs(new - center).max() < 1e-16:
                center = new
                break
            center = new
        assert np.abs(r.centers[0] - center).max() < 1e-7

    def test_two_separated_blobs_any_init(self):
        d = generate_gaussian_blobs(2, 40, 2, center_box=20.0, cluster_std=0.3, seed=12)
        for seed in range(5):
            for init in ("random", "kmeanspp"):
                r = fit(d, 2, FitConfig(seed=seed, init=init))
                assert adjusted_rand_index(d.labels, r.labels) == 1.0

    def test_deterministic(self):
        d = generate_gaussian_blobs(3, 30, 2, seed=5)
        a = fit(d, 3, FitConfig(seed=11))
        b = fit(d, 3, FitConfig(seed=11))
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.loss_trace, b.loss_trace)
        assert a.iterations == b.iterations
        assert a.model.alpha == b.model.alpha and a.model.nu == b.model.nu

    def test_loss_trace_non_increasing_with_fixed_nu(self):
        for seed in range(8):
            d = generate_gaussian_blobs(3, 40, 2, cluster_std=0.8, seed=seed)
            r = fit(d, 3, FitConfig(seed=seed, fixed_nu=4.0))
            assert (np.diff(r.loss_trace) <= 1e-6).all()

    def test_free_nu_trace_recorded_not_asserted(self):
        d = generate_gaussian_blobs(3, 30, 2, seed=1)
        r = fit(d, 3, FitConfig(seed=1))
        assert len(r.loss_trace) == r.iterations

    def test_translation_equivariance(self):
        d = generate_gaussian_blobs(3, 30, 2, seed=9)
        shift = 37.5
        shifted = Dataset(d.samples + shift, d.labels, d.name)
        a = fit(d, 3, FitConfig(seed=4, fixed_nu=3.0))
        b = fit(shifted, 3, FitConfig(seed=4, fixed_nu=3.0))
        assert a.iterations == b.iterations
        assert np.array_equal(a.labels, b.labels)
        assert np.abs((a.centers + shift) - b.centers).max() < 1e-9

    def test_k_validation(self):
        d = Dataset([[0.0], [1.0]])
        with pytest.raises(DomainError):
            fit(d, 3)
        with pytest.raises(DomainError):
            fit(d, 0)

    def test_a_non_integer_k_is_rejected(self):
        # it used to be truncated, so fit(d, 2.7) fitted K=2
        d = generate_gaussian_blobs(3, 10, 2, seed=0)
        for k in (2.7, 2.0, "2"):
            with pytest.raises(DomainError, match="K must be an integer"):
                fit(d, k)
            with pytest.raises(DomainError, match="K must be an integer"):
                fit_fast(d, k)
        assert fit(d, np.int64(2), FitConfig(seed=0, max_iter=2)).centers.shape == (2, 2)

    @pytest.mark.parametrize("nu", [1e16, 1e20, 1e100])
    def test_a_huge_fixed_nu_keeps_the_distances(self, nu):
        # s = d2/(nu*alpha) is far below eps here: ln of the rounded 1 + s was 0 for every pair, which
        # stopped the nu=1e20 fit after 2 iterations with one distinct center and ARI 0
        d = parse_generator_spec("blobs:k=4,n=75,p=2,std=0.5,box=8,seed=11")
        r = fit(d, 4, FitConfig(seed=3, fixed_nu=nu))
        assert adjusted_rand_index(d.labels, r.labels) == 1.0
        assert len({tuple(c) for c in r.centers.tolist()}) == 4

    def test_nll_monitor_matches_model(self):
        d = generate_gaussian_blobs(2, 25, 2, seed=3)
        r = fit(d, 2, FitConfig(seed=3, fixed_nu=2.0))
        assert r.loss_trace[-1] == pytest.approx(negative_log_likelihood(d, r.model))

    def test_fixed_nu_fit_is_the_plain_em_loop(self):
        # with nu fixed there is no warm stage: one E/M loop from the initial model
        d = generate_gaussian_blobs(3, 30, 2, cluster_std=0.9, seed=6)
        for seed, nu in [(0, 3.0), (1, 1.0), (2, 50.0)]:
            cfg = FitConfig(seed=seed, fixed_nu=nu)
            model = _initial_model(d, 3, cfg, nu)
            trace = []
            for _ in range(cfg.max_iter):
                model = m_step(d, e_step(d, model), model, cfg)
                trace.append(negative_log_likelihood(d, model))
                if len(trace) > 1 and abs(trace[-1] - trace[-2]) < cfg.tol * max(abs(trace[-2]), 1e-12):
                    break
            r = fit(d, 3, cfg)
            assert np.array_equal(r.loss_trace, np.asarray(trace))
            assert np.array_equal(r.centers, model.centers)
            assert r.iterations == len(trace)
            assert np.array_equal(r.labels, e_step(d, model).tau.argmax(axis=1))
            assert r.model.alpha == model.alpha and r.model.nu == nu

    def test_free_nu_warm_stage_shares_the_budget(self):
        # a budget spent in the near-Gaussian warm stage leaves nu at the upper bound
        d = generate_gaussian_blobs(3, 30, 2, seed=1)
        r = fit(d, 3, FitConfig(seed=1, max_iter=1))
        assert r.iterations == 1
        assert r.model.nu == NU_BOUNDS[1] == 200.0

    def test_free_nu_continues_after_the_warm_stage(self):
        d = generate_gaussian_blobs(3, 30, 2, seed=1)
        r = fit(d, 3, FitConfig(seed=1))
        warm = fit(d, 3, FitConfig(seed=1, fixed_nu=200.0))
        assert r.iterations > warm.iterations
        assert np.array_equal(r.loss_trace[: warm.iterations], warm.loss_trace)
        assert r.model.nu != 200.0

    def test_free_nu_fit_is_the_public_loop_bit_for_bit(self):
        # the warm stage at NU_BOUNDS[1], then free nu from 3, through the public wrappers
        def stage(model, cfg, budget, trace):
            for _ in range(budget):
                model = m_step(d, e_step(d, model), model, cfg)
                trace.append(negative_log_likelihood(d, model))
                if len(trace) > 1 and abs(trace[-1] - trace[-2]) < cfg.tol * max(abs(trace[-2]), 1e-12):
                    break
            return model

        blobs = generate_gaussian_blobs(5, 40, 6, cluster_std=1.3, seed=9)
        d = Dataset(np.vstack([blobs.samples, 6.0 * blobs.samples[:8]]))  # far points, so u and nu matter
        for seed in range(3):
            cfg = FitConfig(seed=seed, tol=1e-9)
            nu_hi = NU_BOUNDS[1]
            trace = []
            model = stage(_initial_model(d, 5, cfg, nu_hi), replace(cfg, fixed_nu=nu_hi), cfg.max_iter, trace)
            warm = len(trace)
            model = stage(TkModel(model.centers, model.alpha, 3.0), cfg, cfg.max_iter - warm, trace)
            r = fit(d, 5, cfg)
            assert warm < r.iterations == len(trace)
            assert np.array_equal(r.loss_trace, np.asarray(trace))
            assert np.array_equal(r.centers, model.centers)
            assert np.array_equal(r.labels, e_step(d, model).tau.argmax(axis=1))
            assert r.model.alpha == model.alpha and r.model.nu == model.nu != nu_hi

    def test_results_alias_no_pass_buffer(self, monkeypatch):
        from tkmeans import core

        buffers = []
        inner = core._pass

        def recording(x, rows, mean, model, bufs, *args, **kwargs):
            buffers.extend([*bufs, rows])
            return inner(x, rows, mean, model, bufs, *args, **kwargs)

        monkeypatch.setattr(core, "_pass", recording)
        d = generate_gaussian_blobs(3, 40, 2, seed=4)

        def arrays(r):
            return r.labels, r.centers, r.loss_trace, r.model.centers

        first = fit(d, 3, FitConfig(seed=0))
        kept = [a.copy() for a in arrays(first)]
        second = fit(d, 3, FitConfig(seed=1))
        assert buffers
        for r in (first, second):
            for a in arrays(r):
                assert not any(np.shares_memory(a, b) for b in buffers)
        assert all(np.array_equal(a, b) for a, b in zip(arrays(first), kept))

    def test_peak_memory_of_a_fit_at_em_shape(self):
        # 3000 x 16, K=15, one block.  Allocating each (N, K) matrix and the shifted data anew in every
        # iteration peaked at 3.01-3.05 MB here, five (N, K) matrices held per fit at 2.62-2.66 MB,
        # the pass's three (K, B) buffers at 1.65 MB and its two at 1.29 MB.
        d = generate_gaussian_blobs(15, 200, 16, seed=0)
        tracemalloc.start()
        try:
            fit(d, 15, FitConfig(seed=0, max_iter=30, tol=1e-12))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    @pytest.mark.parametrize("fixed_nu", [None, 3.0])
    def test_a_pass_holds_two_k_by_b_buffers_and_allocates_no_third(self, monkeypatch, fixed_nu):
        # the distances, ln(1 + s), E ln u, u and w share one buffer, ln t and tau the other
        from tkmeans import core

        k, n = 40, 4000  # one block; a few B-vectors of the pass stay far below half a (K, B) matrix
        seen = []
        inner = core._pass

        def recording(x, rows, mean, model, bufs, *args, **kwargs):
            tracemalloc.start()
            try:
                loss = inner(x, rows, mean, model, bufs, *args, **kwargs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            seen.append(([buf.size for buf in bufs], peak))
            return loss

        monkeypatch.setattr(core, "_pass", recording)
        fit(generate_gaussian_blobs(k, n // k, 2, seed=0), k, FitConfig(seed=0, max_iter=3, fixed_nu=fixed_nu))
        assert seen
        for sizes, peak in seen:
            assert sizes == [k * n, k * n]
            assert peak < k * n * 8 / 2  # one more (K, B) matrix would take K*B*8 bytes

    def test_one_distance_matrix_per_iteration(self, monkeypatch):
        # one for the initial alpha, one for each stage's first pass and one per iteration, all into one buffer
        from tkmeans import _util, core

        calls, stages = [], []
        kernel, run_em = _util.pairwise_sq_dists, core._run_em

        def counting(x, centers, **buffers):
            calls.append(buffers)
            return kernel(x, centers, **buffers)

        def staging(*args):
            stages.append(args)
            return run_em(*args)

        monkeypatch.setattr(_util, "pairwise_sq_dists", counting)
        monkeypatch.setattr(core, "_run_em", staging)
        d = generate_gaussian_blobs(3, 30, 2, seed=1)
        cases = ((FitConfig(seed=1, fixed_nu=3.0), 1), (FitConfig(seed=1), 2), (FitConfig(seed=2, max_iter=4), 1))
        for cfg, n_stages in cases:
            calls.clear()
            stages.clear()
            r = fit(d, 3, cfg)
            assert len(stages) == n_stages
            assert len(calls) == 1 + n_stages + r.iterations
            first = calls[0]["out"]
            assert all(c["block"][0].shape == (4, d.n) and np.shares_memory(c["out"], first) for c in calls)
            assert all(c["out"].shape == (3, d.n) and c["out"].flags.c_contiguous for c in calls)

    @pytest.mark.parametrize("fixed_nu", [3.0, None], ids=["fixed_nu", "free_nu"])
    def test_block_seams_keep_the_one_block_fit(self, monkeypatch, fixed_nu):
        # blocks of 7 cut the 120 points into 18 blocks, the last one short, and the labels take one more pass
        from tkmeans import _util

        cfg = FitConfig(seed=4, init="kmeanspp", fixed_nu=fixed_nu, max_iter=60)
        d = generate_gaussian_blobs(4, 30, 3, cluster_std=1.2, seed=8)
        whole = fit(d, 4, cfg)
        monkeypatch.setattr(_util, "BLOCK", 7)
        blocked = fit(d, 4, cfg)
        assert blocked.iterations == whole.iterations
        assert np.array_equal(blocked.labels, whole.labels)
        assert np.abs(blocked.centers - whole.centers).max() < 1e-10
        assert blocked.model.alpha == pytest.approx(whole.model.alpha, rel=1e-10)
        assert blocked.model.nu == pytest.approx(whole.model.nu, rel=1e-10)

    @pytest.mark.parametrize("block", [4096, 7])
    def test_a_massless_component_is_reseeded_as_in_the_public_loop(self, monkeypatch, block):
        # at nu=200 the far center's tau underflows to 0 everywhere; the fit takes the largest taus from one more pass
        from tkmeans import _util

        x = np.random.default_rng(6).normal(0, 1, (40, 2))
        d = Dataset(x)
        cfg = FitConfig(init=np.array([[-1.0, 0.0], [1.0, 0.0], [1e4, 1e4]]), fixed_nu=200.0, max_iter=1)
        model = _initial_model(d, 3, cfg, 200.0)
        e = e_step(d, model)
        assert (e.tau[:, 2] == 0.0).all()
        worst = np.argsort(e.tau.max(axis=1), kind="stable")[0]
        assert e.tau[worst].max() < 0.6 < e.tau.max(axis=1).mean()
        hand = m_step(d, e, model, cfg)
        assert np.array_equal(hand.centers[2], x[worst])
        monkeypatch.setattr(_util, "BLOCK", block)
        r = fit(d, 3, cfg)
        assert np.array_equal(r.centers[2], hand.centers[2])
        assert np.abs(r.centers[:2] - hand.centers[:2]).max() < 1e-12

    def test_peak_memory_of_a_fit_holds_no_n_by_k_matrix(self):
        # 50,000 x 2, K=50: one (N, K) matrix is 20 MB; five of them and the block peaked near 120 MB
        d = generate_gaussian_blobs(50, 1000, 2, seed=0)
        tracemalloc.start()
        try:
            fit(d, 50, FitConfig(seed=0, fixed_nu=3.0, max_iter=2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 7e6  # 7.7 MB with three (K, B) buffers per pass, 6.1 MB with two

    def test_alpha_of_tight_clusters_far_from_the_mean(self):
        # S2 - |S1|^2/mass cancels here; its error stays within the distance kernel's eps * (|x-m|^2 + |c-m|^2)
        rng = np.random.default_rng(5)
        x = np.vstack([rng.normal(0, 1, (40, 2)), 1e6 + rng.normal(0, 1, (40, 2))])
        d = Dataset(x)
        model = TkModel([[0.0, 0.0], [1e6, 1e6]], 2.0, 3.0)
        e = e_step(d, model)
        new = m_step(d, e, model, FitConfig(fixed_nu=3.0))
        w = e.tau * e.u
        diff = x[:, None, :] - new.centers[None, :, :]
        direct = float((w * (diff * diff).sum(axis=2)).sum() / (2 * e.tau.sum()))
        m = x.mean(axis=0)
        scale = ((x - m) ** 2).sum(axis=1)[:, None] + ((new.centers - m) ** 2).sum(axis=1)[None, :]
        contract = 1e-12 * float((w * scale).sum() / (2 * e.tau.sum()))
        assert 0.5 < direct < 2.0
        assert abs(new.alpha - direct) <= contract

    def test_distance_block_is_built_once_per_fit(self, monkeypatch):
        from tkmeans import _util

        built = []
        block = _util.distance_block

        def counting(x):
            built.append(x)
            return block(x)

        monkeypatch.setattr(_util, "distance_block", counting)
        d = generate_gaussian_blobs(3, 30, 2, seed=1)
        for cfg in (FitConfig(seed=1, fixed_nu=3.0), FitConfig(seed=1)):
            built.clear()
            r = fit(d, 3, cfg)
            assert r.iterations > 2 and len(built) == 1 and built[0] is d.samples


class TestDistanceBlock:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 40),
        k=st.integers(1, 40),
        p=st.integers(1, 20),
        offset=st.floats(-1e6, 1e6),
        seed=st.integers(0, 2**32 - 1),
        centers_from_x=st.booleans(),
        cut=st.floats(0.0, 1.0),
    )
    def test_block_distances(self, n, k, p, offset, seed, centers_from_x, cut):
        from tkmeans import _util

        rng = np.random.default_rng(seed)
        x = offset + rng.normal(0, 3, (n, p))
        # rows of x give coincident points, where the clamp at 0 matters
        centers = x[rng.integers(0, n, k)] if centers_from_x else offset + rng.normal(0, 3, (k, p))
        rows, m = _util.distance_block(x)
        start = int(cut * (n - 1))
        out = np.full(k * n, np.nan)[: k * (n - start)].reshape(k, n - start)
        got = _util.pairwise_sq_dists(centers, x[start:], block=(rows[:, start:], m), out=out)
        assert got is out and (got >= 0.0).all()
        scale = ((x[start:] - m) ** 2).sum(axis=1)[None, :] + ((centers - m) ** 2).sum(axis=1)[:, None]
        diff = centers[:, None, :] - x[None, start:, :]
        assert (np.abs(got - (diff * diff).sum(axis=2)) <= 1e-12 * scale).all()

    def test_block_is_the_centered_data_over_their_squared_norms(self):
        from tkmeans import _util

        x = np.random.default_rng(3).normal(5.0, 2.0, (50, 3))
        block, mean = _util.distance_block(x)
        assert block.shape == (5, 50) and block.flags.c_contiguous
        assert np.array_equal(mean, x.mean(axis=0))
        assert np.array_equal(block[:3], (x - mean).T)
        assert np.allclose(block[3], ((x - mean) ** 2).sum(axis=1), rtol=1e-15, atol=0)
        assert (block[4] == 1.0).all()


class TestFitFast:
    def test_outlier_nearly_ignored(self):
        # cluster {0, 10}, current center 0, c = 1e-6: weights {1e6, ~0.01},
        # new center ~ 1e-7
        d = Dataset([[0.0], [10.0]])
        cfg = FitConfig(seed=0, init=np.array([[0.0]]), fixed_nu=1.0, fast_alpha=1e-6, max_iter=1)
        r = fit_fast(d, 1, cfg)
        w_far = 1.0 / (1e-6 + 100.0)
        expected = (10.0 * w_far) / (1e6 + w_far)
        assert r.centers[0, 0] == pytest.approx(expected, rel=1e-9)
        assert r.centers[0, 0] == pytest.approx(1e-7, rel=1e-2)

    def test_plain_kmeans_contrast(self):
        # same cluster under k-means: the mean, 5.0
        d = Dataset([[0.0], [10.0]])
        r = kmeans_fit(d, 1, BaselineConfig(init=np.array([[0.0]])))
        assert r.centers[0, 0] == pytest.approx(5.0)

    def test_equidistant_points_give_plain_mean(self):
        d = Dataset([[-1.0], [1.0]])
        cfg = FitConfig(init=np.array([[0.0]]), fixed_nu=1.0, max_iter=1)
        r = fit_fast(d, 1, cfg)
        assert r.centers[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_large_c_reproduces_kmeans(self):
        rng = np.random.default_rng(13)
        for seed in range(5):
            d = generate_gaussian_blobs(3, 30, 2, cluster_std=1.0, seed=seed)
            init = d.samples[rng.choice(d.n, 3, replace=False)]
            rk = kmeans_fit(d, 3, BaselineConfig(init=init))
            rf = fit_fast(d, 3, FitConfig(init=init, fast_alpha=1e12, tol=1e-9, max_iter=500))
            assert np.array_equal(rf.labels, rk.labels)

    def test_deterministic(self):
        d = generate_gaussian_blobs(4, 25, 2, seed=0)
        a = fit_fast(d, 4, FitConfig(seed=2))
        b = fit_fast(d, 4, FitConfig(seed=2))
        assert np.array_equal(a.labels, b.labels) and np.array_equal(a.centers, b.centers)

    def test_ties_break_to_lowest_index(self):
        d = Dataset([[0.0], [2.0]])
        cfg = FitConfig(init=np.array([[1.0], [1.0]]), max_iter=1, fixed_nu=1.0)
        r = fit_fast(d, 2, cfg)
        assert set(r.labels.tolist()) <= {0, 1}


    def test_stops_on_the_center_shift_and_keeps_the_new_centers(self):
        # one cluster: the assignment repeats from the second sweep on while the center still moves
        x = np.array([[0.0], [1.0], [3.0]])
        cfg = FitConfig(init=np.array([[2.0]]))
        r = fit_fast(Dataset(x), 1, cfg)
        center, shifts = 2.0, []
        while not shifts or shifts[-1] >= cfg.tol:
            w = 1.0 / (cfg.fast_alpha + (x[:, 0] - center) ** 2)
            new = float(w @ x[:, 0] / w.sum())
            shifts.append(abs(new - center))
            center = new
        assert r.iterations == len(shifts) > 2
        assert r.centers[0, 0] == pytest.approx(center, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "fit_fn, cfg",
        [(kmeans_fit, BaselineConfig(seed=1)), (kmeans_fit, BaselineConfig(seed=1, init="kmeanspp")),
         (fit_fast, FitConfig(seed=1, fast_alpha=0.1))],
        ids=["kmeans", "kmeans++", "fit_fast"],
    )
    def test_hard_assignment_fits_build_one_distance_block(self, monkeypatch, fit_fn, cfg):
        # every sweep, and fit_fast's final labels, take their distances from that block through the kernel,
        # one call per block of points (90 points in blocks of 32 here), all into one reused buffer
        from tkmeans import _util

        built, used = [], []
        make_block, kernel = _util.distance_block, _util.pairwise_sq_dists

        def building(x):
            built.append(make_block(x))
            return built[-1]

        def counting(centers, points, **kwargs):
            used.append(kwargs)
            return kernel(centers, points, **kwargs)

        monkeypatch.setattr(_util, "distance_block", building)
        monkeypatch.setattr(_util, "pairwise_sq_dists", counting)
        monkeypatch.setattr(_util, "BLOCK", 32)
        d = generate_gaussian_blobs(3, 30, 2, seed=1)
        r = fit_fn(d, 3, cfg)
        assert r.iterations > 1 and len(built) == 1
        assert len(used) == 3 * (r.iterations + (fit_fn is fit_fast))
        rows, mean = built[0]
        first = used[0]["out"]
        for u in used:
            assert u["block"][0].base is rows and u["block"][1] is mean
            assert u["out"].shape[0] == 3 and np.shares_memory(u["out"], first)

    def test_labels_are_the_block_kernel_argmin_at_the_returned_centers(self):
        from tkmeans import _util

        for seed in range(5):
            d = generate_gaussian_blobs(4, 40, 3, cluster_std=1.5, seed=seed)
            r = fit_fast(d, 4, FitConfig(seed=seed, fast_alpha=0.1))
            d2 = _util.pairwise_sq_dists(r.centers, d.samples, block=_util.distance_block(d.samples))
            assert np.array_equal(r.labels, d2.argmin(axis=0))

class TestOracleIteration:
    def test_full_em_iteration_matches_transcription(self):
        # module-level spot check; the acceptance suite runs 50 instances
        from scipy.special import digamma as sp_digamma

        rng = np.random.default_rng(77)
        x = rng.normal(0, 2, (12, 2))
        centers = rng.normal(0, 2, (2, 2))
        alpha, nu = 0.8, 2.5
        d = Dataset(x)
        model = TkModel(centers, alpha, nu)
        e = e_step(d, model)
        m = m_step(d, e, model, FitConfig())

        dens = np.zeros((12, 2))
        d2 = np.zeros((12, 2))
        for i in range(12):
            for j in range(2):
                s = ((x[i] - centers[j]) ** 2).sum()
                d2[i, j] = s
                dens[i, j] = math.exp(
                    math.lgamma((nu + 2) / 2) - math.lgamma(nu / 2)
                    - math.log(nu * math.pi) - math.log(alpha)
                    - 0.5 * (nu + 2) * math.log(1 + s / (nu * alpha))
                )
        tau = dens / dens.sum(axis=1, keepdims=True)
        u = (nu + 2) / (nu + d2 / alpha)
        lue = np.log(u) + sp_digamma((nu + 2) / 2) - math.log((nu + 2) / 2)
        assert np.abs(e.tau - tau).max() < 1e-10
        assert np.abs(e.u - u).max() < 1e-10
        assert np.abs(e.log_u_expect - lue).max() < 1e-10

        w = tau * u
        new_centers = (w.T @ x) / w.sum(axis=0)[:, None]
        d2n = np.stack([((x - new_centers[j]) ** 2).sum(axis=1) for j in range(2)], axis=1)
        alpha_new = (w * d2n).sum() / (2 * tau.sum())
        eta = 1.0 + np.mean([(tau[:, j] * (lue[:, j] - u[:, j])).sum() / tau[:, j].sum() for j in range(2)])
        nu_new = 200.0 if eta >= 0 else min(max(-1.0 / eta, 1.0), 200.0)
        assert np.abs(m.centers - new_centers).max() < 1e-10
        assert m.alpha == pytest.approx(alpha_new, abs=1e-10)
        assert m.nu == pytest.approx(nu_new, abs=1e-10)
