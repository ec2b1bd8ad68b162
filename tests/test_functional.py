import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from expfbm import functional as fn
from expfbm import paths as pth
from expfbm import rng
from expfbm.kernel import HurstParams, covariance

# frozen from the adaptive-quadrature oracle (H=0.7, a=0, sigma=1, T=1)
MEAN_F_REFERENCE = 1.2456640637639047


def make_params(a=0.0, sigma=1.0, H=0.7, T=1.0):
    return fn.ModelParams(a=a, sigma=sigma, hurst=HurstParams(H, T))


def reference_mean_F(params):
    """E[F] by adaptive quadrature. Reference for fn.analytic_mean_F."""
    a, sigma, H, T = params.a, params.sigma, params.H, params.T
    val, _ = quad(lambda s: np.exp(a * s + 0.5 * sigma ** 2 * s ** (2.0 * H)),
                  0.0, T, epsabs=0.0, epsrel=1e-12, limit=200)
    return val


def reference_second_moment_F(params):
    """E[F^2] by adaptive 2-D quadrature over the triangle s < t, the
    bivariate Gaussian moment evaluated through the covariance. Reference for
    fn.analytic_second_moment_F."""
    a, sigma, H, T = params.a, params.sigma, params.H, params.T
    h2 = 2.0 * H

    def integrand(s, t):
        var = s ** h2 + t ** h2 + 2.0 * covariance(H, t, s)
        return np.exp(a * (s + t) + 0.5 * sigma ** 2 * var)

    val, _ = dblquad(integrand, 0.0, T, 0.0, lambda t: t, epsabs=0.0, epsrel=1e-11)
    return 2.0 * val


class TestModelParams:
    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            make_params(sigma=-1.0)

    def test_degenerate_sigma_allowed(self):
        make_params(sigma=0.0)


class TestFunctionalF:
    def test_deterministic_limit(self, table64):
        zero = pth.fbm_from_bm(table64, np.zeros((1, table64.n)))
        F = fn.functional_F(zero, make_params(a=1.0, sigma=0.0))
        # trapezoid of exp on the shared grid, converging to e - 1
        assert F[0] == pytest.approx(np.e - 1.0, rel=1e-4)

    def test_flat_zero_drift(self, table64):
        zero = pth.fbm_from_bm(table64, np.zeros((1, table64.n)))
        F = fn.functional_F(zero, make_params(a=0.0, sigma=0.0))
        assert F[0] == pytest.approx(1.0, rel=1e-14)

    def test_positive_and_bracketed(self, table64, params):
        paths = pth.sample_fbm_volterra(table64, 5_000, seed=3)
        F = fn.functional_F(paths, params)
        lo, hi = fn.pathwise_bracket(paths, params)
        assert np.all(F > 0)
        assert np.all(np.log(F) >= lo) and np.all(np.log(F) <= hi)

    def test_log_domain_matches_direct_sum(self, table64, params):
        # where nothing overflows, the max-shifted log-sum is the plain one
        paths = pth.sample_fbm_volterra(table64, 1_000, seed=3)
        tau = pth.trapezoid_weights(table64.grid)
        E = np.exp(params.a * table64.grid + params.sigma * paths.values)
        g = fn.LogFunctional(paths, params)
        assert np.allclose(g.lnF, np.log(E @ tau), rtol=0, atol=1e-14)
        assert np.allclose(g.weights, tau * E / (E @ tau)[:, None], rtol=1e-13, atol=0)
        assert np.allclose(g.weights.sum(axis=1), 1.0, rtol=0, atol=1e-14)

    def test_monotone_in_path_shift(self, table64, params):
        paths = pth.sample_fbm_volterra(table64, 10, seed=4)
        F = fn.functional_F(paths, params)
        shifted = pth.FbmPaths(paths.grid, paths.values + 0.1, paths.increments,
                               paths.seed, paths.method)
        assert np.all(fn.functional_F(shifted, params) > F)


class TestAnalyticMoments:
    @pytest.mark.parametrize("a, sigma, H, T", [
        (0.0, 1.0, 0.7, 1.0), (1.0, 0.0, 0.7, 1.0), (-1.0, 2.0, 0.51, 1.0),
        (0.3, 1.5, 0.99, 1.0), (0.0, 0.5, 0.9, 0.5)])
    def test_match_adaptive_references(self, a, sigma, H, T):
        params = make_params(a=a, sigma=sigma, H=H, T=T)
        assert fn.analytic_mean_F(params) == pytest.approx(
            reference_mean_F(params), rel=1e-12)
        assert fn.analytic_second_moment_F(params) == pytest.approx(
            reference_second_moment_F(params), rel=1e-12)

    def test_mean_deterministic_limit(self):
        assert fn.analytic_mean_F(make_params(a=1.0, sigma=0.0)) == pytest.approx(
            np.e - 1.0, rel=1e-12)

    def test_mean_reference_value(self, params):
        assert fn.analytic_mean_F(params) == pytest.approx(MEAN_F_REFERENCE, rel=1e-10)

    def test_mean_bracket_high_H(self):
        val = fn.analytic_mean_F(make_params(H=0.99))
        assert 1.0 <= val <= np.exp(0.5)

    def test_second_moment_deterministic(self):
        assert fn.analytic_second_moment_F(make_params(a=0.0, sigma=0.0)) == \
            pytest.approx(1.0, rel=1e-9)
        assert fn.analytic_second_moment_F(make_params(a=1.0, sigma=0.0)) == \
            pytest.approx((np.e - 1.0) ** 2, rel=1e-9)

    def test_variance_against_mc(self, table64, params):
        paths = pth.sample_fbm_volterra(table64, 30_000, seed=5)
        F = fn.functional_F(paths, params)
        target = fn.analytic_var_F(params)
        sample = F.var(ddof=1)
        c = F - F.mean()
        se = np.sqrt((np.mean(c ** 4) - sample ** 2) / len(F))
        assert abs(sample - target) < 3.0 * se


class TestCentering:
    def test_degenerate_exact(self, table64):
        est = fn.estimate_mean_lnF(make_params(a=1.0, sigma=0.0), table64, 5_000, 1)
        assert est.value == pytest.approx(np.log(np.e - 1.0), rel=1e-12)
        assert est.se == 0.0
        est0 = fn.estimate_mean_lnF(make_params(a=0.0, sigma=0.0), table64, 5_000, 1)
        assert est0.value == pytest.approx(0.0, abs=1e-14)

    def test_minimum_paths(self, table64, params):
        with pytest.raises(ValueError):
            fn.estimate_mean_lnF(params, table64, 100, 1)

    def test_se_halves_with_four_times_paths(self, table64, params):
        a = fn.estimate_mean_lnF(params, table64, 20_000, 7)
        b = fn.estimate_mean_lnF(params, table64, 80_000, 8)
        assert b.se == pytest.approx(0.5 * a.se, rel=0.2)

    def test_jensen(self, table64, params):
        est = fn.estimate_mean_lnF(params, table64, 20_000, 9)
        assert est.value <= np.log(fn.analytic_mean_F(params)) + 3.0 * est.se


def reference_estimate_mean_lnF(params, table, n_paths, seed):
    """The serial centering loop: ln F of each whole batch of paths, summed
    per batch in batch order."""
    total = 0.0
    total_sq = 0.0
    for b, start, stop in rng.batch_ranges(n_paths):
        incr = pth.increment_stream(table.grid, seed, rng.CENTERING, b)(
            np.empty((stop - start, table.n)))
        lnF = fn.LogFunctional(pth.fbm_from_bm(table, incr), params).lnF
        total += lnF.sum()
        total_sq += (lnF ** 2).sum()
    mean = total / n_paths
    var = max(total_sq / n_paths - mean ** 2, 0.0)
    return float(mean), float(np.sqrt(var / n_paths))


class TestSampleLnF:
    @pytest.mark.parametrize("purpose", [rng.OUTER, rng.CENTERING],
                             ids=["outer", "centering"])
    @pytest.mark.parametrize("n", [64, 256])
    def test_matches_log_functional_of_paths(self, n, purpose, table64, table256,
                                             params):
        table = {64: table64, 256: table256}[n]
        for count in (1, 255, 257, rng.BATCH, rng.BATCH + 1, 3 * rng.BATCH + 5):
            paths = pth.sample_fbm_volterra(table, count, 31, purpose)
            assert np.array_equal(fn.sample_lnF(params, table, count, 31, purpose),
                                  fn.LogFunctional(paths, params).lnF), count

    def test_worker_count_invariance(self, table64, params, monkeypatch):
        count = 5 * rng.BATCH + 7
        draws = {"default": fn.sample_lnF(params, table64, count, 32)}
        for workers in (1, 3):
            monkeypatch.setattr(fn, "_workers", lambda n_batches: workers)
            draws[workers] = fn.sample_lnF(params, table64, count, 32)
        assert np.array_equal(draws[1], draws[3])
        assert np.array_equal(draws[1], draws["default"])

    def test_more_workers_than_cores_under_fast_switching(self, table64, params,
                                                          monkeypatch):
        # run_blocks hands the blocks out under a lock, and they write
        # disjoint slices: a lost or doubled block would change the result
        count = 7 * rng.BATCH + 3
        monkeypatch.setattr(fn, "_workers", lambda n_batches: 1)
        serial = fn.sample_lnF(params, table64, count, 33)
        monkeypatch.setattr(fn, "_workers", lambda n_batches: 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = fn.sample_lnF(params, table64, count, 33)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(serial, threaded)

    def test_worker_count_bounds(self):
        assert fn._workers(0) == 1
        assert fn._workers(1) == 1
        assert 1 <= fn._workers(100) <= fn.MAX_WORKERS

    def test_workers_leave_the_blas_threads_their_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3, 4, 5})
        for threads, workers in ((1, 3), (2, 3), (3, 2), (4, 1), (6, 1)):
            monkeypatch.setitem(fn.BLAS, "threads", threads)
            assert fn._workers(100) == workers, threads

    def test_blas_threads_from_the_environment(self):
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        for value, threads in (("1", 1), ("3", 3), (" 2 ", 2), ("64", 6),
                               ("0", 6), ("x", 6), ("", 6)):
            for blas in ("scipy-openblas", "mkl-sdl", None):
                environ = dict.fromkeys(names, value)
                assert fn._blas_threads(blas, environ, 6) == threads, (value, blas)
        # OpenBLAS reads its own variable first and never MKL's
        assert fn._blas_threads("openblas", {"OPENBLAS_NUM_THREADS": "2",
                                             "OMP_NUM_THREADS": "3"}, 6) == 2
        assert fn._blas_threads("openblas", {"OMP_NUM_THREADS": "3"}, 6) == 3
        assert fn._blas_threads("openblas", {"MKL_NUM_THREADS": "3"}, 6) == 6
        assert fn._blas_threads(None, {"MKL_NUM_THREADS": "3"}, 6) == 3
        assert fn._blas_threads("openblas", {}, 4) == 4

    def test_blas_threads_are_read_at_import(self):
        # the BLAS reads its variables when numpy loads it: a later change of
        # os.environ moves neither
        code = ("import os; from expfbm import functional as fn; "
                "os.environ['OPENBLAS_NUM_THREADS'] = '2'; "
                "print(fn.blas_setup()['threads'])")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONPATH=str(Path(fn.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "1"

    @pytest.mark.parametrize("show_config", [
        lambda: None,
        lambda mode: {"Compilers": {}},
    ], ids=["no-mode", "no-build-dependencies"])
    def test_blas_name_unknown_to_old_numpy(self, show_config, monkeypatch):
        monkeypatch.setattr(np, "show_config", show_config)
        assert fn._blas_build() == {"name": None, "version": None}

    def test_centering_matches_serial_loop(self, table64, params):
        for count in (1000, 3 * rng.BATCH + 5):
            est = fn.estimate_mean_lnF(params, table64, count, 34)
            assert (est.value, est.se) == reference_estimate_mean_lnF(
                params, table64, count, 34)


class TestRefinement:
    def test_diffs_decrease(self, params):
        grid = np.linspace(0.0, 1.0, 513)
        fine = pth.sample_fbm_cholesky(0.7, grid, 1, seed=2)
        diffs = fn.refinement_diffs(fine.values[0], grid, params)
        assert diffs[0] > diffs[-1]
        assert diffs[-1] < 1e-3

    def test_requires_divisible_grid(self, params):
        grid = np.linspace(0.0, 1.0, 101)
        with pytest.raises(ValueError):
            fn.refinement_diffs(np.zeros(101), grid, params)


class TestSamplesCsv:
    def test_header_and_rows(self, table64, params, tmp_path):
        est = fn.CenteringEstimate(0.06, 0.001, 1000, 5)
        out = tmp_path / "samples.csv"
        fn.write_samples_csv(out, np.array([1.0, 2.0]), np.array([0.0, 0.7]),
                             np.array([-0.06, 0.64]), params, est)
        lines = out.read_text().splitlines()
        assert any(l.startswith("# centering_mean_lnF=0.06") for l in lines)
        assert any(l.startswith("# hurst_H=0.7") for l in lines)
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "path_id,F,lnF,X"
        assert len(data) == 3

    def test_bytes_match_csv_writer(self, params, tmp_path):
        # rows over several write chunks, with values whose repr is unusual
        gen = np.random.default_rng(5)
        count = 2 * rng.BATCH + 3
        F, lnF, X = gen.standard_normal((3, count)) * 10.0 ** gen.integers(
            -300, 300, (3, count))
        F[:6] = [np.inf, -np.inf, np.nan, -0.0, 5e-324, 1e16]
        est = fn.CenteringEstimate(0.06, 0.001, 1000, 5)
        fast = tmp_path / "fast.csv"
        fn.write_samples_csv(fast, F, lnF, X, params, est, header_meta={"seed": 5})
        text = fast.read_bytes()
        header = text[:text.index(b"path_id")]
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            fh.write(header.decode())
            writer = csv.writer(fh)
            writer.writerow(["path_id", "F", "lnF", "X"])
            for p in range(count):
                writer.writerow([p, repr(float(F[p])), repr(float(lnF[p])),
                                 repr(float(X[p]))])
        assert text == ref.read_bytes()
