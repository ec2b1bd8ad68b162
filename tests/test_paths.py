import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from scipy.stats import ks_2samp

from expfbm import kernel as kn
from expfbm import paths as pth
from expfbm import rng
from expfbm.functional import ModelParams, functional_F


class TestIncrements:
    def test_deterministic(self, table64):
        a = pth.sample_bm_increments(table64.grid, 123, 4)
        b = pth.sample_bm_increments(table64.grid, 123, 4)
        assert np.array_equal(a, b)

    def test_prefix_stable_in_path_count(self, table64, table256):
        a = pth.sample_bm_increments(table64.grid, 123, 100)
        b = pth.sample_bm_increments(table64.grid, 123, 10_000)
        assert np.array_equal(a, b[:100])
        # the values too, bit for bit, at a size where a plain GEMM over the
        # prefix rounds differently from one over the full draw
        full = pth.sample_fbm_volterra(table256, 10_000, 123)
        for count in (1, 1000, 1500, 2000, 3001, 9999):
            part = pth.sample_fbm_volterra(table256, count, 123)
            assert np.array_equal(part.values, full.values[:count])

    def test_batches_match_whole_draw(self, table64):
        whole = pth.sample_fbm_volterra(table64, 9000, 5, purpose=rng.CENTERING)
        starts = []
        for b, start, stop in rng.batch_ranges(9000):
            incr = pth.increment_stream(table64.grid, 5, rng.CENTERING, b)(
                np.empty((stop - start, table64.n)))
            batch = pth.fbm_from_bm(table64, incr)
            starts.append(start)
            assert np.array_equal(batch.increments, whole.increments[start:stop])
            assert np.array_equal(batch.values, whole.values[start:stop])
        assert starts == [0, rng.BATCH]

    def test_moments(self, table64):
        incr = pth.sample_bm_increments(table64.grid, 7, 100_000)
        one = incr[:, 3]
        sd = np.sqrt(table64.dt)
        assert abs(one.mean()) < 4.0 * sd / np.sqrt(len(one))
        z = incr[:, 10] / sd
        assert abs(z.var(ddof=1) - 1.0) < 0.02


class TestVolterraMap:
    def test_zero_increments_zero_path(self, table64):
        paths = pth.fbm_from_bm(table64, np.zeros((3, table64.n)))
        assert np.all(paths.values == 0.0)

    def test_dimension_mismatch(self, table64):
        with pytest.raises(ValueError):
            pth.fbm_from_bm(table64, np.zeros((2, table64.n + 5)))

    def test_starts_at_zero(self, table64):
        paths = pth.sample_fbm_volterra(table64, 10, seed=1)
        assert np.all(paths.values[:, 0] == 0.0)

    def test_covariance_against_closed_form(self, table64):
        paths = pth.sample_fbm_volterra(table64, 100_000, seed=5)
        i, j = table64.n, table64.n // 2
        prod = paths.values[:, i] * paths.values[:, j]
        se = prod.std(ddof=1) / np.sqrt(len(prod))
        target = kn.covariance(0.7, table64.grid[i], table64.grid[j])
        assert abs(prod.mean() - target) < 3.0 * se + 5e-3

    def test_terminal_variance(self, table64):
        paths = pth.sample_fbm_volterra(table64, 100_000, seed=6)
        v = paths.values[:, -1] ** 2
        se = v.std(ddof=1) / np.sqrt(len(v))
        assert abs(v.mean() - 1.0) < 3.0 * se + 5e-3


class TestCholesky:
    def test_factor_reproduces_variances(self, table64):
        L = pth.cholesky_factor(0.7, table64.grid)
        cov = L @ L.T
        assert np.allclose(np.diag(cov), table64.grid[1:] ** 1.4, rtol=1e-10)

    def test_seed_determinism(self, table64):
        a = pth.sample_fbm_cholesky(0.7, table64.grid, 5, seed=9)
        b = pth.sample_fbm_cholesky(0.7, table64.grid, 5, seed=9)
        assert np.array_equal(a.values, b.values)
        assert a.increments is None

    def test_size_limit(self):
        grid = np.linspace(0.0, 1.0, 5001)
        with pytest.raises(ValueError):
            pth.sample_fbm_cholesky(0.7, grid, 1, seed=0)

    def test_ks_against_volterra(self, table64):
        volt = pth.sample_fbm_volterra(table64, 10_000, seed=11)
        chol = pth.sample_fbm_cholesky(0.7, table64.grid, 10_000, seed=12)
        stat, _ = ks_2samp(volt.values[:, -1], chol.values[:, -1])
        crit = 1.6276 * np.sqrt(2.0 / 10_000)
        assert stat < crit


class TestConditionalLaw:
    def test_no_information(self, table64):
        paths = pth.sample_fbm_volterra(table64, 4, seed=3)
        law = pth.conditional_law(paths, table64, 0.0)
        assert np.all(law.means == 0.0)
        assert np.allclose(law.variances, table64.map_variances, rtol=1e-12, atol=0)

    def test_full_information(self, table64):
        paths = pth.sample_fbm_volterra(table64, 4, seed=3)
        law = pth.conditional_law(paths, table64, 1.0)
        assert np.allclose(law.means, paths.values, atol=1e-12)
        assert np.all(law.variances == 0.0)

    def test_tower_decomposition(self, table64):
        paths = pth.sample_fbm_volterra(table64, 100_000, seed=8)
        law = pth.conditional_law(paths, table64, 0.5)
        N = law.means[:, -1]
        se = N.std(ddof=1) / np.sqrt(len(N))
        assert abs(N.mean()) < 3.0 * se
        assert abs(N.var(ddof=1) + law.variances[-1] - table64.map_variances[-1]) < 5e-3

    def test_rejects_cholesky_paths(self, table64):
        chol = pth.sample_fbm_cholesky(0.7, table64.grid, 2, seed=1)
        with pytest.raises(ValueError):
            pth.conditional_law(chol, table64, 0.5)


class TestInnerFluctuations:
    def test_shapes_antithetic_and_zero_at_node(self, table64):
        gen = np.random.Generator(np.random.Philox(1))
        k = 32
        Z = pth.inner_fluctuations(table64, k, 8, gen)
        assert Z.shape == (8, table64.n - k + 1)
        assert np.all(Z[:, 0] == 0.0)
        assert np.array_equal(Z[:4], -Z[4:])
        with pytest.raises(ValueError):
            pth.inner_fluctuations(table64, k, 7, gen)

    def test_maps_the_half_draw_once(self, table64, table256):
        # [zV, -zV]: the pairs are exact negatives, and the values are those of
        # mapping the concatenated [z, -z] up to the GEMM's rounding, which
        # depends on its row count (so the bits are not kept)
        for table in (table64, table256):
            for k in (0, 1, table.n // 3, table.n - 1):
                for n_inner in (50, 200):
                    Z = pth.inner_fluctuations(table, k, n_inner, rng.stream(7, k))
                    z = rng.stream(7, k).standard_normal((n_inner // 2, table.n - k))
                    z *= np.sqrt(table.dt)
                    old = np.concatenate([z, -z]) @ table.volterra_matrix[k:, k:].T
                    assert np.array_equal(Z[: n_inner // 2], -Z[n_inner // 2:])
                    assert np.abs(Z - old).max() <= 1e-14, (table.n, k, n_inner)

    def test_conditional_moments(self, table64):
        paths = pth.sample_fbm_volterra(table64, 1, seed=4)
        gen = np.random.Generator(np.random.Philox(2))
        k = 32
        Z = pth.inner_fluctuations(table64, k, 4000, gen)
        law = pth.conditional_law(paths, table64, table64.grid[k])
        term = law.means[0, -1] + Z[:, -1]
        # mean matches the conditional mean, variance the discrete map
        # variance of the future cells k..n-1
        assert abs(term.mean() - law.means[0, -1]) < 4.0 * term.std() / np.sqrt(4000)
        partial = np.cumsum(table64.row_weights[-1] ** 2) / table64.dt
        disc_var = table64.map_variances[-1] - partial[k - 1]
        assert abs(term.var(ddof=1) / disc_var - 1.0) < 0.1


class TestMartingale:
    def test_terminal_equals_functional(self, table64, params):
        paths = pth.sample_fbm_volterra(table64, 50, seed=13)
        M = pth.martingale_M(paths, table64, params, 1.0)
        F = functional_F(paths, params)
        assert np.allclose(M, F, rtol=1e-14)

    def test_initial_equals_grid_mean(self, table64, params):
        paths = pth.sample_fbm_volterra(table64, 2, seed=13)
        M0 = pth.martingale_M(paths, table64, params, 0.0)
        tau = pth.trapezoid_weights(table64.grid)
        oracle = np.sum(tau * np.exp(0.5 * table64.map_variances))
        assert np.all(np.abs(M0 - oracle) < 1e-10)

    def test_martingale_property(self, table64, params):
        paths = pth.sample_fbm_volterra(table64, 100_000, seed=14)
        M = pth.martingale_M(paths, table64, params, 0.5)
        tau = pth.trapezoid_weights(table64.grid)
        M0 = np.sum(tau * np.exp(0.5 * table64.map_variances))
        se = M.std(ddof=1) / np.sqrt(len(M))
        assert abs(M.mean() - M0) < 3.0 * se

    @pytest.mark.parametrize("H", [0.55, 0.7, 0.9])
    def test_one_step_martingale_exact(self, H):
        # E[M_{k+1} | F_k] = M_k in the discrete model: M_{k+1} depends on
        # F_k and the one increment dB_k ~ N(0, dt), which a 60-node
        # Gauss-Hermite rule integrates to rounding (the integrand is
        # exp of a linear function of dB_k)
        table = kn.build_kernel_table(H, 1.0, 64)
        x, w = hermegauss(60)
        w = w / w.sum()
        base = pth.sample_bm_increments(table.grid, 43, 3)
        now = pth.fbm_from_bm(table, base)
        for k in (0, 16, 32, 63):
            incr = np.repeat(base, len(x), axis=0)
            incr[:, k] = np.tile(x * np.sqrt(table.dt), len(base))
            step = pth.fbm_from_bm(table, incr)
            for a in (-1.0, 0.3):
                for sigma in (0.3, 1.0, 2.0):
                    params = ModelParams(a=a, sigma=sigma, hurst=kn.HurstParams(H, 1.0))
                    M_next = pth.martingale_M(step, table, params, table.grid[k + 1])
                    M_now = pth.martingale_M(now, table, params, table.grid[k])
                    avg = M_next.reshape(len(base), len(x)) @ w
                    assert np.allclose(avg, M_now, rtol=1e-12, atol=0), (k, a, sigma)

    def test_max_moment_stability(self, table128, table256, params):
        # E[max_r M_r^p] stable across grid refinement for p in {2, 4}
        ests = {}
        for table in (table128, table256):
            paths = pth.sample_fbm_volterra(table, 10_000, seed=15)
            maxM = np.zeros(paths.n_paths)
            for k in range(0, table.n + 1, max(1, table.n // 64)):
                M = pth.martingale_M(paths, table, params, table.grid[k])
                np.maximum(maxM, M, out=maxM)
            ests[table.n] = [np.mean(maxM ** p) for p in (2, 4)]
        for p_idx in (0, 1):
            a, b = ests[128][p_idx], ests[256][p_idx]
            assert abs(a - b) / b < 0.10

