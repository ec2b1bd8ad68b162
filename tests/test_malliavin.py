import threading
import warnings

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from scipy.integrate import quad

from expfbm import functional as fn
from expfbm import kernel as kn
from expfbm import malliavin as ml
from expfbm import paths as pth
from expfbm import rng
from expfbm.functional import ModelParams
from expfbm.kernel import HurstParams
from expfbm.reports import Z


def make_params(a=0.0, sigma=1.0, H=0.7, T=1.0):
    return ModelParams(a=a, sigma=sigma, hurst=HurstParams(H, T))


def reference_nested_at(paths, table, params, k, n_inner, seed, stage, s_idx=None):
    """The per-path nested estimator that the factorised one replaced.

    Draws one antithetic inner set per outer path (stream key (seed, INNER,
    stage, k, block), as in the package) and exponentiates every inner path.
    Returns (est, se, est2, se2) at node k, each over the paths; est2 and se2
    estimate E[D_s D_{t_k} X | F_{t_k}] 1{s <= t_k} for s over the nodes s_idx.
    """
    P = paths.n_paths
    ms = 0 if s_idx is None else len(s_idx)
    Kcols = ml._kernel_columns(table, s_idx) if ms else None
    if k == table.n:
        return np.zeros(P), np.zeros(P), np.zeros((P, ms)), np.zeros((P, ms))
    grid = table.grid
    tau = pth.trapezoid_weights(grid)
    a, sigma = params.a, params.sigma
    drift = a * grid
    kcol = ml._kernel_columns(table, [k])[:, 0]
    Vfut = table.volterra_matrix[k:, k:]
    mm, half = table.n - k, n_inner // 2
    E_out = np.exp(drift[None, :] + sigma * paths.values)
    past_F = E_out[:, :k] @ tau[:k]
    past_mean = pth.conditional_law(paths, table, grid[k]).means[:, k:]
    est, se = np.empty(P), np.empty(P)
    est2, se2 = np.zeros((P, ms)), np.zeros((P, ms))
    if ms:
        past_A = (tau[None, :k] * E_out[:, :k]) @ Kcols[:k]
    for blk, start, stop in rng.batch_ranges(P, ml.CHUNK_OUTER):
        gen = rng.stream(seed, rng.INNER, stage, k, blk)
        z = gen.standard_normal((stop - start, half, mm)) * np.sqrt(table.dt)
        z = np.concatenate([z, -z], axis=1)
        Ef = np.exp(drift[None, None, k:]
                    + sigma * (past_mean[start:stop, None, :] + z @ Vfut.T))
        F_in = past_F[start:stop, None] + Ef @ tau[k:]
        TE = tau[None, None, k:] * Ef
        A_theta = TE @ kcol[k:]
        Dth = sigma * A_theta / F_in
        pair = 0.5 * (Dth[:, :half] + Dth[:, half:])
        est[start:stop] = pair.mean(axis=1)
        se[start:stop] = pair.std(axis=1, ddof=1) / np.sqrt(half)
        if ms:
            A_all = past_A[start:stop, None, :] + TE @ Kcols[k:]
            T1 = (TE * kcol[None, None, k:]) @ Kcols[k:]
            d2in = sigma ** 2 * (T1 / F_in[:, :, None]
                                 - A_all * A_theta[:, :, None] / (F_in ** 2)[:, :, None])
            pair2 = 0.5 * (d2in[:, :half] + d2in[:, half:])
            est2[start:stop] = pair2.mean(axis=1)
            se2[start:stop] = pair2.std(axis=1, ddof=1) / np.sqrt(half)
    if ms:
        above = np.asarray(s_idx) > k            # D_s of an F_{t_k} variable, s > t_k
        est2[:, above] = se2[:, above] = 0.0
    return est, se, est2, se2


def reference_nested(paths, table, params, idx, n_inner, seed, stage, s_idx=None):
    """A drop-in for malliavin._nested: reference_nested_at at each node of
    idx, stacked on a last axis."""
    per_node = [reference_nested_at(paths, table, params, int(k), n_inner, seed,
                                    stage, s_idx) for k in idx]
    return tuple(np.stack(x, axis=-1) for x in zip(*per_node))


def reference_phi_lower_bound_terms(paths, table, params):
    """The dense phi_lower_bound_terms that the conditional-mean sweep replaced.

    Builds the whole (P, n+1, n+1) field N[p, i, k] = E[B_i | F_k] per chunk,
    takes the masked min over k <= i and M_k by exponentiating every (k, i)
    pair. Returns (bound, terms) like malliavin.phi_lower_bound_terms.
    """
    a, sigma, H, T = params.a, params.sigma, params.H, params.T
    n = table.n
    minB = paths.values.min(axis=1)
    maxB = paths.values.max(axis=1)
    V = table.volterra_matrix
    tau = pth.trapezoid_weights(table.grid)
    drift = a * table.grid
    # discrete conditional variance v_ki[k, i] = sum_{l >= k} V[i, l]^2 dt
    fv = np.cumsum((V ** 2 * table.dt)[:, ::-1], axis=1)[:, ::-1]
    v_ki = np.vstack([fv.T, np.zeros(n + 1)])
    lower_ki = np.tril(np.ones((n + 1, n + 1))) > 0      # pairs k <= i as [i, k]
    upper_ki = np.triu(np.ones((n + 1, n + 1)), 1) > 0   # pairs i > k as [k, i]
    minN = np.empty(paths.n_paths)
    maxM = np.empty(paths.n_paths)
    chunk = max(8, 2 ** 22 // (n + 1) ** 2)
    for _, start, stop in rng.batch_ranges(paths.n_paths, chunk):
        dB = paths.increments[start:stop]
        cum = np.cumsum(V[None, :, :] * dB[:, None, :], axis=2)
        Nfield = np.concatenate([np.zeros((stop - start, n + 1, 1)), cum], axis=2)
        minN[start:stop] = np.where(lower_ki[None], Nfield, np.inf).min(axis=(1, 2))
        E_out = np.exp(drift[None, :] + sigma * paths.values[start:stop])
        past = np.cumsum(tau[None, :] * E_out, axis=1)
        expo = (drift[None, None, :] + sigma * Nfield.swapaxes(1, 2)
                + 0.5 * sigma ** 2 * v_ki[None, :, :])
        future = np.where(upper_ki[None], tau[None, None, :] * np.exp(expo), 0.0).sum(axis=2)
        maxM[start:stop] = (past + future).max(axis=1)
    const = T ** (2.0 * H + 2.0) / (2.0 * H + 2.0)
    bound = (sigma ** 2 / T) * np.exp(-3.0 * abs(a) * T + sigma * minB
                                      - sigma * maxB + sigma * minN) * const / maxM
    return bound, {"minB": minB, "maxB": maxB, "minN": minN, "maxM": maxM}


def reference_clark_ocone_residual(paths, table, params):
    """The dense clark_ocone_residual that the conditional-mean sweep replaced.

    Builds the (C, n+1, n) field of conditional means per block and
    exponentiates all of it, the half with V[i, j] = 0 included.
    """
    n = table.n
    grid = table.grid
    tau = pth.trapezoid_weights(grid)
    a, sigma = params.a, params.sigma
    drift = a * grid
    V = table.volterra_matrix
    fv = np.cumsum((V ** 2 * table.dt)[:, ::-1], axis=1)[:, ::-1]
    EF = np.sum(tau * np.exp(drift + 0.5 * sigma ** 2 * fv[:, 0]))
    tauV = tau[:, None] * V
    res = np.empty(paths.n_paths)
    for _, start, stop in rng.batch_ranges(paths.n_paths, ml.CHUNK_OUTER):
        dB = paths.increments[start:stop]
        cum = np.cumsum(V[None, :, :] * dB[:, None, :], axis=2)
        past = np.concatenate([np.zeros((stop - start, n + 1, 1)), cum[:, :, :-1]],
                              axis=2)
        expo = drift[None, :, None] + sigma * past + 0.5 * sigma ** 2 * fv[None, :, :]
        G = sigma * np.einsum("ij,pij->pj", tauV, np.exp(expo))
        F = np.exp(drift[None, :] + sigma * paths.values[start:stop]) @ tau
        res[start:stop] = (F - EF) - (G * dB).sum(axis=1)
    return res


def agreement_z(new, new_se, old, old_se):
    """z-scores of new - old, with 0 where the combined SE is 0 (both exact)."""
    comb = np.sqrt(new_se ** 2 + old_se ** 2)
    return (new - old) / np.where(comb > 0, comb, 1.0), comb > 0


def assert_agreement_law(z, per_node):
    """z: every live agreement z-score; per_node: (P, J) the per-path mean of
    the z-scores at each of J nodes. Nodes use independent inner streams, but
    the paths of one block share theirs, so the mean is judged against its
    block-mean SE rather than a fixed window."""
    assert 0.8 <= z.std() <= 1.2, z.std()
    se = np.sqrt((ml.block_mean_se(per_node) ** 2).sum()) / per_node.shape[1]
    assert abs(per_node.mean()) < 3.0 * se, (per_node.mean(), se)


def perturbed_lnF(table, increments, params, j, eps):
    incr = increments.copy()
    incr[0, j] += eps
    return float(np.log(fn.functional_F(pth.fbm_from_bm(table, incr), params))[0])


class TestFirstDerivative:
    def test_zero_at_horizon(self, table64, params):
        paths = pth.sample_fbm_volterra(table64, 5, seed=1)
        D = ml.dx(paths, table64, params)
        assert np.all(D[:, -1] == 0.0)

    def test_flat_path_formula(self, table64, params):
        flat = pth.fbm_from_bm(table64, np.zeros((1, table64.n)))
        D = ml.dx(flat, table64, params)[0]
        tau = pth.trapezoid_weights(table64.grid)
        for j in (8, 24, 48):
            manual = np.sum(tau * table64.values[:, j]) / tau.sum()
            assert D[j] == pytest.approx(manual, rel=1e-12)
            cont = kn.kernel_time_integral(table64, table64.grid[j]) / 1.0
            assert D[j] == pytest.approx(cont, rel=0.05)

    def test_range_bounds_exact(self, table64, params):
        paths = pth.sample_fbm_volterra(table64, 2_000, seed=2)
        D = ml.dx(paths, table64, params)
        bounds = ml.dx_bounds(table64, params, np.arange(table64.n + 1))
        tol = 1e-9 * np.maximum(bounds, 1e-300)
        assert D.min() >= -tol.max()
        assert np.all(D <= bounds[None, :] + tol[None, :])

    def test_cell_average_convention_at_zero(self, table64, params):
        paths = pth.sample_fbm_volterra(table64, 3, seed=3)
        D = ml.dx(paths, table64, params)
        tau = pth.trapezoid_weights(table64.grid)
        E = np.exp(params.a * table64.grid + params.sigma * paths.values)
        manual = params.sigma * ((tau * E) @ table64.volterra_matrix[:, 0]) / (E @ tau)
        assert np.allclose(D[:, 0], manual, rtol=1e-13)

    def test_finite_difference_agreement(self, table64, params, rng_seeds):
        eps = 1e-5 * np.sqrt(table64.dt)
        for seed in rng_seeds[:20]:
            paths = pth.sample_fbm_volterra(table64, 1, seed=int(seed))
            Dinc = ml.dx_increment(paths, table64, params)[0]
            for j in (0, 16, 40, 63):
                up = perturbed_lnF(table64, paths.increments, params, j, +eps)
                dn = perturbed_lnF(table64, paths.increments, params, j, -eps)
                fd = (up - dn) / (2.0 * eps)
                assert abs(fd - Dinc[j]) <= 1e-3 * abs(Dinc[j])


class TestSecondDerivative:
    def test_zero_when_sigma_zero(self, table64):
        paths = pth.sample_fbm_volterra(table64, 4, seed=4)
        D2 = ml.d2x(paths, table64, make_params(a=1.0, sigma=0.0))
        assert np.all(D2 == 0.0)

    def test_nonnegative_and_symmetric(self, table64, params):
        paths = pth.sample_fbm_volterra(table64, 500, seed=5)
        idx = ml.phi_subgrid(table64.n)
        D2 = ml.d2x(paths, table64, params, indices=idx)
        scale = np.abs(D2).max()
        assert D2.min() >= -1e-12 * scale
        assert np.abs(D2 - D2.swapaxes(1, 2)).max() <= 1e-12 * scale

    def test_upper_bound(self, table64, params):
        paths = pth.sample_fbm_volterra(table64, 500, seed=6)
        idx = ml.phi_subgrid(table64.n)
        D2 = ml.d2x(paths, table64, params, indices=idx)
        bound = ml.d2x_bounds(table64, params, idx)
        tol = 1e-9 * np.maximum(bound, 1e-300)
        assert np.all(D2 <= bound[None, :, :] + tol[None, :, :])

    def test_second_order_finite_difference(self, table64, params):
        paths = pth.sample_fbm_volterra(table64, 1, seed=7)
        eps = 1e-5 * np.sqrt(table64.dt)
        ja, jb = 10, 30
        vals = {}
        for sa in (1, -1):
            for sb in (1, -1):
                incr = paths.increments.copy()
                incr[0, ja] += sa * eps
                incr[0, jb] += sb * eps
                vals[(sa, sb)] = float(np.log(fn.functional_F(
                    pth.fbm_from_bm(table64, incr), params))[0])
        fd2 = (vals[(1, 1)] - vals[(1, -1)] - vals[(-1, 1)] + vals[(-1, -1)]) \
            / (4.0 * eps ** 2)
        w = fn.LogFunctional(paths, params).weights[0]
        V = table64.volterra_matrix
        A = w @ V
        expected = (w * V[:, ja]) @ V[:, jb] - A[ja] * A[jb]
        assert fd2 == pytest.approx(expected, rel=1e-2)


class TestConditionalDx:
    def test_zero_at_horizon(self, table64, params):
        paths = pth.sample_fbm_volterra(table64, 10, seed=8)
        k = table64.index_of(1.0)
        est, se = ml.conditional_dx_at(paths, table64, params, k, 200, seed=1)
        assert np.all(est == 0.0) and np.all(se == 0.0)

    def test_upper_bound(self, table64, params):
        paths = pth.sample_fbm_volterra(table64, 200, seed=9)
        k = table64.index_of(0.25)
        est, _ = ml.conditional_dx_at(paths, table64, params, k, 200, seed=2)
        bound = params.sigma * table64.values[-1, 16]
        assert np.all(est <= bound * (1.0 + 1e-9))
        assert np.all(est >= 0.0)

    def test_tower_at_origin(self, table64, params):
        # conditioning on nothing: nested estimate must match plain MC of the
        # same (cell-averaged) derivative across independent outer paths
        paths = pth.sample_fbm_volterra(table64, 40, seed=10)
        est, se = ml.conditional_dx_at(paths, table64, params, 0, 2_000, seed=3)
        plain_paths = pth.sample_fbm_volterra(table64, 20_000, seed=11)
        plain = ml.dx(plain_paths, table64, params, indices=[0])[:, 0]
        plain_mean = plain.mean()
        plain_se = plain.std(ddof=1) / np.sqrt(len(plain))
        comb = np.sqrt(se ** 2 + plain_se ** 2)
        assert np.all(np.abs(est - plain_mean) < 3.0 * comb + 3.0 * est.std())

    def test_input_validation(self, table64, params):
        paths = pth.sample_fbm_volterra(table64, 2, seed=12)
        k = table64.index_of(0.5)
        with pytest.raises(ValueError):
            ml.conditional_dx_at(paths, table64, params, k, 10, seed=1)
        with pytest.raises(ValueError, match="even"):
            ml.conditional_dx_at(paths, table64, params, k, 51, seed=1)
        chol = pth.sample_fbm_cholesky(0.7, table64.grid, 2, seed=1)
        with pytest.raises(ValueError):
            ml.conditional_dx_at(chol, table64, params, k, 200, seed=1)

    def test_matches_phi_column(self, table64, params):
        # one node alone gives the bits of that node's column of the subgrid
        paths = pth.sample_fbm_volterra(table64, 300, seed=13)
        prof = ml.phi_x_batch(paths, table64, params, 50, seed=4, stride=16)
        for col, k in enumerate(prof.meta["indices"]):
            est, se = ml.conditional_dx_at(paths, table64, params, int(k), 50, seed=4)
            assert np.array_equal(est, prof.cond_dX[:, col])
            assert np.array_equal(se, prof.cond_se[:, col])

    @pytest.mark.parametrize("workers", [1, 3])
    def test_inner_stream_keys(self, table64, params, monkeypatch, workers):
        # each pass draws every inner stream (seed, INNER, stage, k, block)
        # exactly once, for every subgrid node k < n and every block
        keys = []
        draw = pth.increment_stream

        def recording(grid, seed, *key):
            keys.append((seed,) + key)
            return draw(grid, seed, *key)

        monkeypatch.setattr(ml, "increment_stream", recording)
        monkeypatch.setattr(fn, "_workers", lambda n_blocks: min(workers, n_blocks))
        paths = pth.sample_fbm_volterra(table64, 3 * ml.CHUNK_OUTER + 5, seed=15)
        idx = ml.phi_subgrid(table64.n, stride=16)
        assert idx[-1] == table64.n
        passes = {0: lambda: ml.phi_x_batch(paths, table64, params, 50, seed=6, stride=16),
                  1: lambda: ml.dphi_bound_check(paths, table64, params, 50, seed=6,
                                                 stride=16)}
        for stage, run in passes.items():
            keys.clear()
            run()
            expected = [(6, rng.INNER, stage, int(k), b)
                        for k in idx[:-1] for b in range(4)]
            assert sorted(keys) == sorted(expected)

    def test_nested_calls_no_conditional_law(self, table64, params, monkeypatch):
        # the nested estimates take their means from paths.conditional_means,
        # never from the traced conditional_law, whose call count the
        # benchmark reports
        def fail(*args, **kwargs):
            raise AssertionError("conditional_law called")

        for module in (pth, ml):
            if hasattr(module, "conditional_law"):
                monkeypatch.setattr(module, "conditional_law", fail)
        paths = pth.sample_fbm_volterra(table64, 200, seed=14)
        prof = ml.phi_x_batch(paths, table64, params, 50, seed=5, stride=16)
        out = ml.dphi_bound_check(paths, table64, params, 50, seed=5, stride=16)
        est, _ = ml.conditional_dx_at(paths, table64, params, 16, 50, seed=5)
        assert np.all(np.isfinite(prof.phi)) and np.all(np.isfinite(out["dphi"]))
        assert np.all(np.isfinite(est))


class TestFactorisedNested:
    """The factorised estimators against the per-path reference at n=16.

    Each path's Phi_X and D_s Phi_X must agree within 4 combined SE; the
    z-scores of the node estimates must have SD in [0.8, 1.2] and a mean
    within 3 block-mean SE. Measured on correct code over 40-60 seeds: no
    per-path failure (largest |z| 3.1), the SD left its window on 1 seed in
    40-60, the mean check failed on 1 in 60. A fixed +-0.2 window on the
    mean z failed on 14-16 of 40 seeds, because the paths of a block share
    their inner noise; and 4 SE on each of the ~1500 node estimates failed
    on 2 of 20 seeds.
    """

    @pytest.fixture(scope="class")
    def setup16(self):
        table = kn.build_kernel_table(0.7, 1.0, 16)
        return table, pth.sample_fbm_volterra(table, 256, seed=41)

    def test_conditional_dx_matches_reference(self, setup16, params, monkeypatch):
        table, paths = setup16
        new = ml.phi_x_batch(paths, table, params, 100, seed=42)
        monkeypatch.setattr(ml, "_nested", reference_nested)
        old = ml.phi_x_batch(paths, table, params, 100, seed=42)
        z_phi, _ = agreement_z(new.phi, new.phi_se, old.phi, old.phi_se)
        assert np.all(np.abs(z_phi) < 4.0)
        z, live = agreement_z(new.cond_dX, new.cond_se, old.cond_dX, old.cond_se)
        nodes = live.all(axis=0)
        assert nodes.sum() == len(nodes) - 1          # only theta = T is exact
        assert_agreement_law(z[:, nodes], z[:, nodes])

    def test_dphi_matches_reference(self, setup16, params, monkeypatch):
        table, paths = setup16
        new = ml.dphi_bound_check(paths, table, params, 100, seed=43)
        monkeypatch.setattr(ml, "_nested", reference_nested)
        old = ml.dphi_bound_check(paths, table, params, 100, seed=43)
        comb = np.sqrt(new["dphi_se"] ** 2 + old["dphi_se"] ** 2)
        assert np.all(np.abs(new["dphi"] - old["dphi"]) <= 4.0 * comb)
        z, live = agreement_z(new["cond2"], new["cond2_se"], old["cond2"],
                              old["cond2_se"])
        live = live.all(axis=0)                       # (s, theta) entries
        nodes = live.any(axis=0)
        per_node = np.stack([z[:, live[:, t], t].mean(axis=1)
                             for t in np.nonzero(nodes)[0]], axis=1)
        assert_agreement_law(z[:, live], per_node)

    def test_dphi_finite_at_large_sigma(self, setup16):
        # the per-path estimator overflows here (96 non-finite entries)
        table, paths = setup16
        with np.errstate(over="ignore", invalid="ignore"):
            out = ml.dphi_bound_check(paths, table, make_params(sigma=100.0),
                                      100, seed=44)
        assert np.all(np.isfinite(out["dphi"]))
        assert np.all(np.isfinite(out["cond2"]))

    def test_bits_do_not_depend_on_path_count(self, table64, params):
        # the last block is padded to CHUNK_OUTER rows, as the sweeps pad
        # theirs: the first 130 (a partial second block) and the first 2 of
        # 256 paths give the bits of the 256-path run, s columns included
        paths = pth.sample_fbm_volterra(table64, 256, seed=3)
        idx = ml.phi_subgrid(table64.n, stride=16)
        full = ml._nested(paths, table64, params, idx, 50, 4, 1, idx)
        for m in (130, 2):
            head = ml._nested(paths.subset(slice(0, m)), table64, params, idx, 50, 4, 1, idx)
            for x, y in zip(head, full):
                assert np.array_equal(x, y[:m]), m

    def test_block_mean_se(self):
        x = np.arange(512.0) % 7
        means = x.reshape(4, ml.CHUNK_OUTER).mean(axis=1)
        assert ml.block_mean_se(x) == pytest.approx(means.std(ddof=1) / 2.0)
        with pytest.raises(ValueError):
            ml.block_mean_se(x[:ml.CHUNK_OUTER])

    @pytest.mark.parametrize("shape", [(128, 50), (37, 200), (5, 7, 202)])
    def test_pair_stats_bits(self, shape):
        # the hand-rolled reductions keep the bits of np.mean and np.std
        x = np.random.default_rng(9).standard_normal(shape) * 3.0 + 1.0
        before = x.copy()
        half = shape[-1] // 2
        pair = 0.5 * (x[..., :half] + x[..., half:])
        mean, se = ml._pair_stats(x)
        assert np.array_equal(mean, pair.mean(axis=-1))
        assert np.array_equal(se, pair.std(axis=-1, ddof=1) / np.sqrt(half))
        assert np.array_equal(x, before)


class TestNestedWorkers:
    """_nested runs one group of CHUNK_OUTER blocks per task, and d2x one
    block of paths per task, on functional.run_blocks."""

    @pytest.fixture(scope="class")
    def setup16(self):
        # nine full blocks and a partial tenth
        table = kn.build_kernel_table(0.7, 1.0, 16)
        return table, pth.sample_fbm_volterra(table, 9 * ml.CHUNK_OUTER + 37, seed=45)

    def test_bits_do_not_depend_on_workers(self, setup16, monkeypatch):
        # three task budgets: groups of 1, 7 and 8 blocks for Phi_X (1, 1 and
        # 8 with the s columns of D_s Phi_X), and d2x blocks of 34, 275 and
        # 2202 paths; each with one worker, the default count and more
        # workers than cores
        table, paths = setup16
        params = make_params(a=0.3, sigma=1.5)
        idx = ml.phi_subgrid(16, stride=4)

        def run():
            prof = ml.phi_x_batch(paths, table, params, 50, seed=5, stride=4)
            out = ml.dphi_bound_check(paths, table, params, 50, seed=6, stride=4)
            return ([prof.cond_dX, prof.cond_se, prof.phi, prof.phi_se,
                     ml.d2x(paths, table, params, idx)]
                    + [out[k] for k in ("dphi", "dphi_se", "integral", "cond", "cond_se",
                                        "cond2", "cond2_se")])

        ref = run()
        default_workers = fn._workers
        for budget, groups, gram in ((2 ** 12, (1, 1), 34), (2 ** 15, (7, 1), 275),
                                     (ml.TASK_ELEMENTS, (8, 8), 2202)):
            monkeypatch.setattr(ml, "TASK_ELEMENTS", budget)
            assert (ml._group_blocks(16, 0), ml._group_blocks(16, 6)) == groups
            assert budget // (17 * len(idx)) == gram
            for workers in (1, None, 5):
                monkeypatch.setattr(fn, "_workers", default_workers if workers is None
                                    else lambda n_blocks: min(n_blocks, workers))
                for x, y in zip(run(), ref):
                    assert np.array_equal(x, y), (budget, workers)

    @pytest.fixture(scope="class")
    def setup32(self):
        # at n = 32 and stride 8, 2000 paths make four nested groups of four
        # blocks and two d2x blocks
        table = kn.build_kernel_table(0.7, 1.0, 32)
        return table, pth.sample_fbm_volterra(table, 2000, seed=3)

    def test_workers_keep_the_callers_errstate(self, setup32, monkeypatch):
        # at sigma = 400 1 / S_0 overflows where S_0 underflows, and the
        # D_s Phi_X terms meet inf - inf; the caller's np.errstate must hold
        # in the worker's tasks too
        table, paths = setup32
        params = make_params(sigma=400.0)
        monkeypatch.setattr(fn, "_workers", lambda n_blocks: 2)

        def passes():
            ml.phi_x_batch(paths, table, params, 50, seed=5, stride=8)
            ml.dphi_bound_check(paths, table, params, 50, seed=6, stride=8)
            ml.d2x(paths, table, params, ml.phi_subgrid(32, stride=8))

        for quiet in (False, True):
            state = "ignore" if quiet else "warn"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with np.errstate(over=state, invalid=state):
                    passes()
            warned = [w for w in caught if issubclass(w.category, RuntimeWarning)]
            assert bool(warned) is not quiet      # they do warn, unless told not to

    def test_worker_exception_reaches_the_caller(self, setup32, monkeypatch):
        table, paths = setup32
        monkeypatch.setattr(fn, "_workers", lambda n_blocks: 2)
        main = threading.main_thread()
        taken = threading.Event()
        inner = pth.inner_fluctuations

        def failing(*args):
            if threading.current_thread() is main:
                # the main thread takes a group too: it waits here until the
                # worker thread has taken one
                assert taken.wait(timeout=30)
                return inner(*args)
            taken.set()
            raise RuntimeError("inner draw failed")

        monkeypatch.setattr(ml, "inner_fluctuations", failing)
        with pytest.raises(RuntimeError, match="inner draw failed"):
            ml.phi_x_batch(paths, table, make_params(), 50, seed=5, stride=8)
        assert taken.is_set()


class TestQuadratureWeights:
    def test_exact_for_linear_smooth_part(self, table64):
        # f(theta) = theta^(1-2H) (c0 + c1 theta): product rule is exact once
        # the nodes reach the left boundary treatment's validity region
        H = table64.H
        idx = ml.phi_subgrid(table64.n, stride=4)
        omega = ml.singular_quad_weights(table64.grid, H, idx)
        theta = table64.grid[idx]
        for c0, c1, tol in ((1.0, 0.0, 1e-13), (0.3, 2.0, 5e-3)):
            f = theta ** (1.0 - 2.0 * H) * (c0 + c1 * theta)
            exact, _ = quad(lambda x: x ** (1.0 - 2.0 * H) * (c0 + c1 * x), 0.0, 1.0)
            # constant extension on [0, theta_1] leaves an O(theta_1^(3-2H)) gap
            assert np.sum(omega * f) == pytest.approx(exact, rel=tol)

    def test_rejects_origin_node(self, table64):
        with pytest.raises(ValueError):
            ml.singular_quad_weights(table64.grid, table64.H, [0, 4, 8])


class TestPhi:
    def test_small_sigma_scaling(self, table64):
        paths = pth.sample_fbm_volterra(table64, 4, seed=13)
        phi_1 = ml.phi_x_batch(paths, table64, make_params(sigma=1e-3), 200, seed=4).phi
        phi_2 = ml.phi_x_batch(paths, table64, make_params(sigma=5e-4), 200, seed=4).phi
        assert np.allclose(phi_1 / phi_2, 4.0, rtol=1e-2)

    def test_bounds_small_batch(self, table64, params):
        paths = pth.sample_fbm_volterra(table64, 300, seed=14)
        prof = ml.phi_x_batch(paths, table64, params, 200, seed=5)
        s2T = params.sigma ** 2
        assert np.all(prof.phi >= 0.0)
        assert np.all(prof.phi <= s2T + 1e-9 + 3.0 * prof.phi_se)
        lower, terms = ml.phi_lower_bound_terms(paths, table64, params)
        assert np.all(prof.phi >= lower - 3.0 * prof.phi_se)
        assert np.all(terms["sigma_minN"] <= 0.0)
        assert np.all(terms["maxM"] > 0.0)

    def test_profile_carries_metadata(self, table64, params):
        paths = pth.sample_fbm_volterra(table64, 8, seed=15)
        prof = ml.phi_x_batch(paths, table64, params, 100, seed=6)
        m = len(prof.meta["indices"])
        assert ml.d2x(paths, table64, params, indices=prof.meta["indices"]).shape == (8, m, m)
        assert prof.dX.shape == prof.cond_dX.shape
        assert prof.meta["n_inner"] == 100

    def test_tower_identity_per_node(self, table64, params):
        # E[D * E[D|F]] = E[(E[D|F])^2] pointwise in theta: an identity the
        # nested estimator must reproduce across outer paths
        paths = pth.sample_fbm_volterra(table64, 4_000, seed=23)
        prof = ml.phi_x_batch(paths, table64, params, 200, seed=12)
        for col in (2, 8, 15):
            lhs = prof.dX[:, col] * prof.cond_dX[:, col]
            rhs = prof.cond_dX[:, col] ** 2
            diff = lhs - rhs
            assert abs(diff.mean()) < 3.0 * ml.block_mean_se(diff) + 1e-4


class TestVarianceIdentityBias:
    def test_map_variance_deficit_shrinks_with_refinement(self):
        # the discrete Volterra map loses variance like n^-(2-2H); at high H
        # this is the dominant gap in the Var(X) = E[Phi_X] identity and it
        # must shrink under grid refinement
        deficits = []
        for n in (64, 128, 256):
            tab = kn.build_kernel_table(0.8, 1.0, n)
            marg = tab.grid ** 1.6
            deficits.append(np.max(np.abs(tab.map_variances - marg)))
        assert deficits[0] > deficits[1] > deficits[2]

    def test_identity_gap_matches_deficit_scale(self):
        # fixed seeds: the gap between mean Phi and Var(X) at H=0.8, n=64 is
        # positive and of the same order as the map-variance deficit
        tab = kn.build_kernel_table(0.8, 1.0, 64)
        params = make_params(a=0.3, sigma=1.2, H=0.8)
        paths = pth.sample_fbm_volterra(tab, 2_000, seed=779)
        prof = ml.phi_x_batch(paths, tab, params, n_inner=100, seed=780)
        X = np.log(fn.functional_F(paths, params))
        gap = prof.phi.mean() - X.var(ddof=1)
        deficit = np.max(np.abs(tab.map_variances - tab.grid ** 1.6))
        assert 0.0 < gap < 5.0 * params.sigma ** 2 * deficit


class TestClarkOcone:
    def test_zero_residual_when_deterministic(self, table64):
        paths = pth.sample_fbm_volterra(table64, 50, seed=16)
        res = ml.clark_ocone_residual(paths, table64, make_params(a=1.0, sigma=0.0))
        assert np.allclose(res, 0.0, atol=1e-12)

    def test_zero_mean(self, table64, params):
        paths = pth.sample_fbm_volterra(table64, 5_000, seed=17)
        res = ml.clark_ocone_residual(paths, table64, params)
        se = res.std(ddof=1) / np.sqrt(len(res))
        assert abs(res.mean()) < 3.0 * se

    def test_mean_is_initial_martingale_value(self, table64, martingale_M):
        # on the zero path every integrand term is multiplied by dB = 0, so
        # the residual is F - E[F]: the E[F] it subtracts must be M_0
        zero = pth.fbm_from_bm(table64, np.zeros((1, table64.n)))
        for a in (-1.0, 0.3):
            for sigma in (0.3, 1.0, 2.0):
                params = make_params(a=a, sigma=sigma)
                F = fn.functional_F(zero, params)
                EF = F - ml.clark_ocone_residual(zero, table64, params)
                M0 = martingale_M(zero, table64, params, 0.0)
                assert abs(EF[0] / M0[0] - 1.0) <= 1e-15, (a, sigma)

    def test_padded_rows_stay_out_of_the_sum(self):
        # at sigma = 400 the C of a zero-padded row overflows to inf; the
        # residual's sum must not multiply it by the row's zero increment
        table = kn.build_kernel_table(0.7, 1.0, 32)
        paths = pth.sample_fbm_volterra(table, 100, seed=3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ml.clark_ocone_residual(paths, table, make_params(sigma=400.0))
        assert not [w for w in caught
                    if "invalid value encountered in multiply" in str(w.message)]

    def test_workers_keep_the_callers_errstate(self, monkeypatch):
        # at sigma = 400 both sweep blocks (2000 paths at n=32) overflow, and
        # the residual meets inf - inf where F overflows; the caller's
        # np.errstate must hold in the worker's block too
        table = kn.build_kernel_table(0.7, 1.0, 32)
        paths = pth.sample_fbm_volterra(table, 2000, seed=3)
        params = make_params(sigma=400.0)
        monkeypatch.setattr(fn, "_workers", lambda n_blocks: 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with np.errstate(over="ignore", invalid="ignore"):
                ml.phi_lower_bound_terms(paths, table, params)
                ml.clark_ocone_residual(paths, table, params)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_variance_shrinks_with_refinement(self, table64, table128, params):
        res64 = ml.clark_ocone_residual(
            pth.sample_fbm_volterra(table64, 4_000, seed=18), table64, params)
        res128 = ml.clark_ocone_residual(
            pth.sample_fbm_volterra(table128, 4_000, seed=18), table128, params)
        assert res128.var(ddof=1) < res64.var(ddof=1)

    def test_bits_do_not_depend_on_workers(self, table64, monkeypatch):
        # the sweep blocks of the residual and of the Phi_X lower bound run
        # on functional.run_blocks: one worker, the default count and more
        # workers than cores give the same bits, on two blocks and a partial
        # third
        paths = pth.sample_fbm_volterra(table64, 2 * ml._sweep_paths(64) + 5, seed=41)
        params = make_params(a=0.3, sigma=1.5)

        def run():
            bound, terms = ml.phi_lower_bound_terms(paths, table64, params)
            return np.stack([ml.clark_ocone_residual(paths, table64, params), bound,
                             terms["sigma_minN"], terms["maxM"]])

        runs = {"default": run()}
        for workers in (1, 5):
            monkeypatch.setattr(fn, "_workers", lambda n_blocks: min(n_blocks, workers))
            runs[workers] = run()
        assert np.array_equal(runs[1], runs["default"])
        assert np.array_equal(runs[1], runs[5])


class TestConditionalMeanSweep:
    """The sweep against conditional_law, and the passes built on it against
    their dense references on a path count that spans two sweep blocks, the
    second one partial. sigma min N is read off the carried exponent, so it
    rounds on the scale of that exponent, a t + sigma^2 v / 2 included."""

    @pytest.fixture(scope="class")
    def tables(self):
        return {(H, n): kn.build_kernel_table(H, 1.0, n)
                for H in (0.55, 0.9) for n in (16, 64)}

    def test_sweep_martingale_matches_martingale_M(self, table64, martingale_M):
        # the M_k of the lower bound (running past sum plus C . tau) is
        # martingale_M at every node, and max M is the max over the nodes
        paths = pth.sample_fbm_volterra(table64, 50, seed=33)
        tau = pth.trapezoid_weights(table64.grid)
        for a, sigma in ((-1.0, 0.3), (0.3, 1.0), (0.3, 2.0)):
            params = make_params(a=a, sigma=sigma)
            E = np.exp(a * table64.grid + sigma * paths.values)
            M_all = []
            for k, _, C in pth.conditional_lognormal_sweep(table64, params,
                                                           paths.increments):
                M = E[:, : k + 1] @ tau[: k + 1] + C @ tau[k + 1:]
                M_all.append(martingale_M(paths, table64, params, table64.grid[k]))
                assert np.allclose(M, M_all[-1], rtol=1e-13, atol=0), (a, sigma, k)
            _, terms = ml.phi_lower_bound_terms(paths, table64, params)
            assert np.allclose(terms["maxM"], np.max(M_all, axis=0), rtol=1e-13, atol=0)

    def test_lognormal_sweep_matches_conditional_lognormal(self, table64):
        # the carried exponent against conditional_lognormal at every node:
        # within 1e-13 relative, and exactly exp(a t) at sigma = 0
        paths = pth.sample_fbm_volterra(table64, 50, seed=36)
        grid = table64.grid
        for a, sigma in ((-1.0, 0.3), (0.3, 2.0), (-1.0, 0.0), (0.3, 0.0)):
            params = make_params(a=a, sigma=sigma)
            for k, _, C in pth.conditional_lognormal_sweep(table64, params,
                                                           paths.increments):
                if sigma == 0.0:
                    assert np.array_equal(C, np.exp(a * grid[None, k + 1:]).repeat(50, 0))
                    continue
                law = pth.conditional_law(paths, table64, grid[k])
                ref = pth.conditional_lognormal(table64, params, k, law.means)
                assert np.allclose(C, ref[:, k + 1:], rtol=1e-13, atol=0), (a, sigma, k)

    def test_bits_do_not_depend_on_path_count(self, table256, params):
        # every sweep block is padded to _sweep_paths(n) rows by
        # paths.pad_rows: the first 1000 of 1100 paths (255-path blocks, the
        # fourth one partial in the shorter run) give the bits of 1000 paths
        paths = pth.sample_fbm_volterra(table256, 1100, seed=3)
        head = paths.subset(slice(0, 1000))
        res = ml.clark_ocone_residual(paths, table256, params)
        assert np.array_equal(ml.clark_ocone_residual(head, table256, params), res[:1000])
        maxM = ml.phi_lower_bound_terms(paths, table256, params)[1]["maxM"]
        assert np.array_equal(ml.phi_lower_bound_terms(head, table256, params)[1]["maxM"],
                              maxM[:1000])

    def test_nested_matches_sweep_means(self, table64, params, monkeypatch):
        # the driver on per-node products against the same driver fed the
        # running sums of np.cumsum at each node: only the summation order of
        # N differs
        paths = pth.sample_fbm_volterra(table64, 200, seed=34)
        idx = ml.phi_subgrid(table64.n, stride=16)
        direct = ml._nested(paths, table64, params, idx, 50, 6, 1, idx)

        def swept_means(table, increments, k):
            # the driver passes a stack of blocks, (..., CHUNK_OUTER, n)
            if k == 0:
                return np.zeros(increments.shape[:-1] + (table.n + 1,))
            cells = table.volterra_matrix[:, :k] * increments[..., None, :k]
            return np.cumsum(cells, axis=-1)[..., -1]

        monkeypatch.setattr(ml, "conditional_means", swept_means)
        swept = ml._nested(paths, table64, params, idx, 50, 6, 1, idx)
        for x, y in zip(direct, swept):
            assert np.allclose(x, y, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("H", [0.55, 0.9])
    @pytest.mark.parametrize("n", [16, 64])
    def test_passes_match_references(self, tables, H, n):
        table = tables[(H, n)]
        P = ml._sweep_paths(n) + 101
        paths = pth.sample_fbm_volterra(table, P, seed=32)
        for a in (-1.0, 0.0, 1.0):
            for sigma in (0.0, 0.3, 2.0):
                params = make_params(a=a, sigma=sigma, H=H)
                scale = np.abs(fn.functional_F(paths, params)).max()
                res = ml.clark_ocone_residual(paths, table, params)
                ref = reference_clark_ocone_residual(paths, table, params)
                assert np.abs(res - ref).max() <= 1e-12 * scale, (a, sigma)
                bound, terms = ml.phi_lower_bound_terms(paths, table, params)
                ref_bound, ref_terms = reference_phi_lower_bound_terms(paths, table, params)
                assert np.abs(terms["maxM"] - ref_terms["maxM"]).max() <= 1e-12 * scale
                # sigma N = L - (a t + sigma^2 v / 2) rounds on the scale of L
                err = np.abs(terms["sigma_minN"] - sigma * ref_terms["minN"]).max()
                L_scale = 1.0 + abs(a) * params.T + sigma ** 2 * params.T ** (2 * H)
                assert err <= (1e-12 * L_scale if sigma else 0.0), (a, sigma)
                assert np.allclose(bound, ref_bound, rtol=1e-12, atol=0), (a, sigma)

    def test_lower_bound_terms_at_large_sigma(self):
        # at sigma = 400 the exponent L reaches sigma^2 v / 2 ~ 8e4 and C
        # overflows, but sigma min N (about -1e3) stays finite and below
        # sigma min B
        table = kn.build_kernel_table(0.7, 1.0, 32)
        paths = pth.sample_fbm_volterra(table, 100, seed=3)
        with np.errstate(over="ignore"):
            _, terms = ml.phi_lower_bound_terms(paths, table, make_params(sigma=400.0))
        assert np.all(np.isfinite(terms["sigma_minN"]))
        assert np.all(terms["sigma_minN"] <= 400.0 * terms["minB"])


def _volterra(table, count):
    return pth.sample_fbm_volterra(table, count, seed=7)


def _lower_bound_terms(table, count, params):
    bound, terms = ml.phi_lower_bound_terms(_volterra(table, count), table, params)
    return np.column_stack([bound, terms["sigma_minN"], terms["maxM"]])


def _nested_rows(table, count, params):
    idx = ml.phi_subgrid(table.n, stride=16)
    out = ml._nested(_volterra(table, count), table, params, idx, 50, 4, 1, idx)
    return np.hstack([x.reshape(count, -1) for x in out])


# name: (n, P, m, the per-path rows of a call on the first count paths)
PATH_COUNT_CASES = {
    "fbm_from_bm": (256, 300, 10, lambda table, count, params: pth.fbm_from_bm(
        table, pth.sample_bm_increments(table, 7, count)).values),
    "sample_fbm_cholesky": (64, 300, 10, lambda table, count, params:
                            pth.sample_fbm_cholesky(table.H, table.grid, count, 7).values),
    "dx": (64, 300, 1, lambda table, count, params:
           ml.dx(_volterra(table, count), table, params)),
    "dx_increment": (64, 300, 1, lambda table, count, params:
                     ml.dx_increment(_volterra(table, count), table, params)),
    # 576-path batches of the Gram products: path 576 is alone in the last
    # batch of 577 paths and shares it in 578
    "d2x": (64, 578, 577, lambda table, count, params: ml.d2x(
        _volterra(table, count), table, params, ml.phi_subgrid(table.n, stride=16))),
    "clark_ocone_residual": (64, 1100, 1000, lambda table, count, params:
                             ml.clark_ocone_residual(_volterra(table, count), table, params)),
    "phi_lower_bound_terms": (64, 1100, 1000, _lower_bound_terms),
    "_nested": (64, 300, 130, _nested_rows),
}


class TestPathCount:
    """Every product over path rows runs on fixed-size zero-padded blocks
    (paths.pad_rows, paths.map_rows), so the first m paths of a P-path call
    give the bits of an m-path call."""

    @pytest.mark.parametrize("name", list(PATH_COUNT_CASES))
    def test_first_paths_do_not_depend_on_path_count(self, name, request, params):
        n, P, m, run = PATH_COUNT_CASES[name]
        table = request.getfixturevalue(f"table{n}")
        assert np.array_equal(run(table, m, params), run(table, P, params)[:m])


class TestDphi:
    def test_zero_when_sigma_zero(self, table64):
        paths = pth.sample_fbm_volterra(table64, 4, seed=19)
        out = ml.dphi_bound_check(paths, table64, make_params(a=1.0, sigma=0.0),
                                  100, seed=7)
        assert np.abs(out["dphi"]).max() == 0.0

    def test_endpoint_degeneracy(self, table64, params):
        paths = pth.sample_fbm_volterra(table64, 20, seed=20)
        out = ml.dphi_bound_check(paths, table64, params, 100, seed=8)
        col = int(np.where(out["indices"] == table64.n)[0][0])
        assert np.abs(out["dphi"][:, col]).max() == 0.0

    def test_coarse_run_no_violations(self, table64, params):
        paths = pth.sample_fbm_volterra(table64, 200, seed=21)
        out = ml.dphi_bound_check(paths, table64, params, 200, seed=9)
        for rep in out["reports"]:
            assert rep.passed

    def test_matches_fixed_stream_difference(self, table64, params):
        # D_s Phi_X against the exact derivative of the stage-1 Phi_X
        # estimator: central differences in the increments of the two cells
        # beside s, with the inner streams held fixed. Without the indicator
        # 1{s <= theta} (Nualart 2006, Prop. 1.2.8) the mean of dphi misses
        # their mean by 19 %, 51 % and 79 % at these nodes; with it, by 5.4 %,
        # 4.1 % and 2.2 %.
        paths = pth.sample_fbm_volterra(table64, 128, seed=3)
        idx = ml.phi_subgrid(table64.n, stride=4)
        omega = ml.singular_quad_weights(table64.grid, table64.H, idx)
        out = ml.dphi_bound_check(paths, table64, params, 200, seed=4, stride=4)

        def phi_stage1(increments):
            moved = pth.fbm_from_bm(table64, increments)
            D = ml.dx(moved, table64, params, indices=idx)
            cond = ml._nested(moved, table64, params, idx, 200, 4, 1)[0]
            return (D * cond) @ omega

        eps = 1e-4
        for s in (8, 24, 40):
            diffs = []
            for j in (s - 1, s):
                up, down = paths.increments.copy(), paths.increments.copy()
                up[:, j] += eps
                down[:, j] -= eps
                diffs.append(np.mean(phi_stage1(up) - phi_stage1(down)) / (2 * eps))
            dphi = out["dphi"][:, np.searchsorted(idx, s)].mean()
            assert abs(dphi / np.mean(diffs) - 1.0) < 0.1, s

    def test_budget_coverage(self, table64, params, monkeypatch):
        paths = pth.sample_fbm_volterra(table64, 100, seed=22)
        monkeypatch.setattr(ml, "DPHI_PATHS", 40)
        out = ml.dphi_bound_check(paths, table64, params, 100, seed=10)
        assert out["reports"][0].meta["coverage"] == pytest.approx(0.4)
        assert out["dphi"].shape[0] == 40


class TestSmallNoise:
    """As sigma -> 0 the Gibbs weights tend to w0 = tau e^(a t) / sum tau e^(a t),
    so D X / sigma and E[D_{t_k} X | F_{t_k}] / sigma tend to w0 . K(., t_k)
    and D_r D_theta X / sigma^2 to the w0-covariance of the two columns, K as
    _kernel_columns defines it. The corrections are O(sigma): on the same
    paths and inner draws, the error at sigma = 1e-4 is a tenth of that at
    1e-3."""

    A = 0.5
    SIGMAS = (1e-3, 1e-4)

    @pytest.fixture(scope="class")
    def model(self):
        table = kn.build_kernel_table(0.7, 1.0, 32)
        paths = pth.sample_fbm_volterra(table, 256, seed=21)
        w0 = pth.trapezoid_weights(table.grid) * np.exp(self.A * table.grid)
        return table, paths, w0 / w0.sum()

    def assert_rate(self, error, limit):
        """error(sigma) of each of SIGMAS, against the limit array: O(sigma),
        falling tenfold."""
        errors = [error(make_params(a=self.A, sigma=s)) for s in self.SIGMAS]
        scale = np.abs(limit).max()
        for s, e in zip(self.SIGMAS, errors):
            assert e <= 2.0 * s * scale, (s, e)
        assert 9.0 <= errors[0] / errors[1] <= 11.0, errors

    def test_dx(self, model):
        table, paths, w0 = model
        idx = np.arange(table.n + 1)
        limit = w0 @ ml._kernel_columns(table, idx)
        self.assert_rate(lambda p: np.abs(ml.dx(paths, table, p, idx) / p.sigma
                                          - limit).max(), limit)

    def test_nested(self, model):
        table, paths, w0 = model
        idx = ml.phi_subgrid(table.n, stride=4)
        limit = w0 @ ml._kernel_columns(table, idx)

        def error(p):
            est, _, _, _ = ml._nested(paths, table, p, idx, 50, 3, 0)
            return np.abs(est / p.sigma - limit).max()

        self.assert_rate(error, limit)

    def test_d2x(self, model):
        table, paths, w0 = model
        idx = np.array([1, 5, 16, 31])
        K = ml._kernel_columns(table, idx)
        mean = w0 @ K
        limit = (w0[:, None] * K).T @ K - np.outer(mean, mean)
        self.assert_rate(lambda p: np.abs(ml.d2x(paths, table, p, idx) / p.sigma ** 2
                                          - limit).max(), limit)


def gauss_hermite_conditional_dx(paths, table, params, k, nodes):
    """E[D_{t_k} X | F_{t_k}] per path by a tensor Gauss-Hermite rule of
    `nodes` points per future column, the columns that table.past(k) leaves:
    exact to rounding once the rule has converged, for a future of one or
    two columns."""
    future = table.volterra_matrix[:, table.past(k):]
    x, w = hermegauss(nodes)
    axes = np.meshgrid(*[x] * future.shape[1], indexing="ij")
    weights = np.prod(np.meshgrid(*[w / w.sum()] * future.shape[1], indexing="ij"), axis=0)
    xi = np.stack(axes, axis=-1).reshape(-1, future.shape[1]) * np.sqrt(table.dt)
    fluct = params.sigma * xi @ future.T                          # (G, n+1)
    base = (np.log(pth.trapezoid_weights(table.grid)) + params.a * table.grid
            + params.sigma * pth.conditional_means(table, paths.increments, k))
    kcol = ml._kernel_columns(table, [k])[:, 0]
    out = np.empty(paths.n_paths)
    for start in range(0, paths.n_paths, 32):
        logits = base[start:start + 32, None, :] + fluct
        logits -= logits.max(axis=2, keepdims=True)
        e = np.exp(logits)
        out[start:start + 32] = params.sigma * ((e @ kcol) / e.sum(axis=2)) @ weights.ravel()
    return out


class TestLastNodeGaussHermite:
    """At the last two nodes the future has one or two columns, so the
    conditional derivative is a Gauss-Hermite integral, and _nested must
    agree with it within Z block-mean SEs (sigma = 1, n = 32, H = 0.7, eight
    128-path blocks)."""

    def test_nested_against_gauss_hermite(self):
        table = kn.build_kernel_table(0.7, 1.0, 32)
        params = make_params(sigma=1.0)
        paths = pth.sample_fbm_volterra(table, 8 * ml.CHUNK_OUTER, seed=31)
        idx = [table.n - 2, table.n - 1]
        est, _, _, _ = ml._nested(paths, table, params, idx, 100, 7, 0)
        for c, k in enumerate(idx):
            assert table.width - table.past(k) == table.n - k
            oracle = gauss_hermite_conditional_dx(paths, table, params, k, 32)
            coarse = gauss_hermite_conditional_dx(paths, table, params, k, 16)
            assert np.abs(oracle - coarse).max() <= 1e-12 * np.abs(oracle).max()
            diff = est[:, c] - oracle
            assert abs(diff.mean()) <= Z * ml.block_mean_se(diff), k
