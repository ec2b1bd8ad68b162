"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line per criterion. Heavy artifacts (the 1e6
sample batch, the nested Monte Carlo run) are shared module-scoped fixtures;
every criterion still runs at its stated size and tolerance.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ks_2samp

from expfbm import density as dn
from expfbm import functional as fn
from expfbm import kernel as kn
from expfbm import malliavin as ml
from expfbm import paths as pth
from expfbm import rng
from expfbm.functional import ModelParams
from expfbm.kernel import HurstParams

SEED = 20240901
GOLDEN = Path(__file__).parent / "golden" / "envelope_profile.json"

COV_PAIRS = [(256, 128), (256, 64), (256, 192), (128, 64), (192, 96),
             (64, 32), (256, 32), (128, 32), (192, 128), (96, 48)]


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def centering_big(table256, params):
    return fn.estimate_mean_lnF(params, table256, 100_000, seed=SEED)


@pytest.fixture(scope="module")
def pathlaw(table256):
    """1e5 Volterra paths at n=256: functional values and selected columns."""
    params = ModelParams(a=0.0, sigma=1.0, hurst=HurstParams(0.7, 1.0))
    n_paths = 100_000
    cols = sorted({i for pair in COV_PAIRS for i in pair})
    col_of = {c: k for k, c in enumerate(cols)}
    F = np.empty(n_paths)
    col_values = np.empty((n_paths, len(cols)))
    t0 = time.time()
    for b, start, stop in rng.batch_ranges(n_paths):
        incr = pth.increment_stream(table256.grid, SEED, rng.OUTER, b)(
            np.empty((stop - start, table256.n)))
        batch = pth.fbm_from_bm(table256, incr)
        F[start:stop] = fn.functional_F(batch, params)
        col_values[start:stop] = batch.values[:, cols]
    return {"F": F, "cols": cols, "col_of": col_of, "values": col_values,
            "elapsed": time.time() - t0, "params": params}


@pytest.fixture(scope="module")
def big_samples(table256, params, centering_big):
    return dn.sample_X_batch(params, table256, 1_000_000, SEED, centering_big)


@pytest.fixture(scope="module")
def nested(table64, params):
    paths = pth.sample_fbm_volterra(table64, 10_000, SEED)
    t0 = time.time()
    prof = ml.phi_x_batch(paths, table64, params, n_inner=200, seed=SEED,
                          stride=4)
    elapsed = time.time() - t0
    lnF = np.log(fn.functional_F(paths, params))
    lower, terms = ml.phi_lower_bound_terms(paths, table64, params)
    return {"paths": paths, "prof": prof, "lnF": lnF, "lower": lower,
            "elapsed": elapsed}


def test_criterion_1_kernel_energy_identity():
    worst_cont = worst_disc = 0.0
    for H in (0.55, 0.7, 0.9):
        t0 = time.time()
        table = kn.build_kernel_table(H, 2.0, 256)
        for t in (0.5, 1.0, 2.0):
            cont = abs(kn.kernel_sq_integral(H, table.c_H, t) / t ** (2 * H) - 1.0)
            worst_cont = max(worst_cont, cont)
            row = table.index_of(t)
            disc = abs(table.energies[row] / t ** (2 * H) - 1.0)
            worst_disc = max(worst_disc, disc)
        elapsed = time.time() - t0
        assert elapsed < 10.0, f"kernel checks for H={H} took {elapsed:.1f}s"
    ok = worst_cont < 1e-6 and worst_disc < 5e-3
    report(1, ok, f"kernel energy identity: continuous {worst_cont:.2e} < 1e-6, "
                  f"discrete n=256 {worst_disc:.2e} < 5e-3")


def test_criterion_2_double_integral_identity():
    t0 = time.time()
    worst = 0.0
    for (H, T) in ((0.7, 1.0), (0.6, 2.0)):
        ch = kn.calibrate_ch(H)
        lhs = kn.time_integral_square_aggregate(H, ch, T)
        rhs = T ** (2 * H + 2) / (2 * H + 2)
        worst = max(worst, abs(lhs / rhs - 1.0))
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 10.0
    report(2, ok, f"time-integral square identity: worst rel {worst:.2e} < 1e-4, "
                  f"{elapsed:.1f}s < 10s")


def test_criterion_3_path_law(table256, pathlaw):
    grid = table256.grid
    H = 0.7
    worst_z = 0.0
    for (i, j) in COV_PAIRS:
        prod = pathlaw["values"][:, pathlaw["col_of"][i]] \
            * pathlaw["values"][:, pathlaw["col_of"][j]]
        se = prod.std(ddof=1) / np.sqrt(len(prod))
        z = abs(prod.mean() - kn.covariance(H, grid[i], grid[j])) / se
        worst_z = max(worst_z, z)
    volt_T = pathlaw["values"][:10_000, pathlaw["col_of"][256]]
    chol = pth.sample_fbm_cholesky(H, grid, 10_000, seed=SEED + 1)
    stat, _ = ks_2samp(volt_T, chol.values[:, -1])
    crit = 1.6276 * np.sqrt(2.0 / 10_000)
    ok = worst_z < 3.0 and stat < crit and pathlaw["elapsed"] < 300.0
    report(3, ok, f"path law: worst covariance z {worst_z:.2f} < 3, "
                  f"KS {stat:.4f} < {crit:.4f}, gen {pathlaw['elapsed']:.0f}s < 300s")


def test_criterion_4_moment_oracles(pathlaw):
    params = pathlaw["params"]
    F = pathlaw["F"]
    mean_target = fn.analytic_mean_F(params)
    se_mean = F.std(ddof=1) / np.sqrt(len(F))
    z_mean = abs(F.mean() - mean_target) / se_mean
    var_target = fn.analytic_second_moment_F(params) - mean_target * mean_target
    s2 = F.var(ddof=1)
    c = F - F.mean()
    se_var = np.sqrt((np.mean(c ** 4) - s2 ** 2) / len(F))
    z_var = abs(s2 - var_target) / se_var
    ok = z_mean < 3.0 and z_var < 3.0
    report(4, ok, f"moment oracles: mean z {z_mean:.2f} < 3 "
                  f"(MC {F.mean():.5f} vs {mean_target:.5f}), "
                  f"variance z {z_var:.2f} < 3 (MC {s2:.5f} vs {var_target:.5f})")


def test_criterion_5_derivative_bounds(table64, params, nested, rng_seeds):
    prof = nested["prof"]
    idx = prof.meta["indices"]
    sigma = params.sigma
    s2T = sigma ** 2 * params.T ** (2 * params.H)

    dxb = ml.dx_bounds(table64, params, idx)
    tol_dx = 1e-9 * dxb
    dx_viol = int(np.sum((prof.dX < -tol_dx[None, :])
                         | (prof.dX > dxb[None, :] + tol_dx[None, :])))

    d2X = ml.d2x(nested["paths"], table64, params, indices=idx)
    d2b = ml.d2x_bounds(table64, params, idx)
    tol_d2 = 1e-9 * np.maximum(d2b, 1e-300)
    scale = np.abs(d2X).max()
    d2_viol = int(np.sum(d2X > d2b[None] + tol_d2[None])
                  + np.sum(d2X < -1e-12 * scale))

    tol_phi = 1e-9 * s2T + 3.0 * prof.phi_se
    phi_viol = int(np.sum((prof.phi < -tol_phi) | (prof.phi > s2T + tol_phi)))

    # chain rule vs finite differences on 20 seeded paths
    eps = 1e-5 * np.sqrt(table64.dt)
    fd_worst = 0.0
    for seed in rng_seeds[:20]:
        one = pth.sample_fbm_volterra(table64, 1, seed=int(seed) + 1000)
        Dinc = ml.dx_increment(one, table64, params)[0]
        for j in (0, 21, 42, 63):
            up = one.increments.copy()
            dn_ = one.increments.copy()
            up[0, j] += eps
            dn_[0, j] -= eps
            lf = [float(np.log(fn.functional_F(pth.fbm_from_bm(table64, inc),
                                               params))[0]) for inc in (up, dn_)]
            fd = (lf[0] - lf[1]) / (2.0 * eps)
            fd_worst = max(fd_worst, abs(fd - Dinc[j]) / abs(Dinc[j]))

    ok = (dx_viol == 0 and d2_viol == 0 and phi_viol == 0
          and fd_worst < 1e-3 and nested["elapsed"] < 900.0)
    report(5, ok, f"derivative bounds on 1e4 paths: dX viol {dx_viol}, "
                  f"d2X viol {d2_viol}, Phi viol {phi_viol}, FD worst rel "
                  f"{fd_worst:.2e} < 1e-3, nested run {nested['elapsed']:.0f}s < 900s")


def test_criterion_5b_phi_lower_bound(nested):
    # a.s. lower bound, part of the derivative-bound family
    prof = nested["prof"]
    viol = int(np.sum(prof.phi < nested["lower"] - 3.0 * prof.phi_se))
    ok = viol == 0
    report("5b", ok, f"Phi_X pathwise lower bound: {viol} violations "
                     f"(min ratio {np.min(prof.phi / nested['lower']):.2f})")


def test_criterion_6_variance_identity(nested):
    X = nested["lnF"]           # centering constant cancels in the variance
    phi = nested["prof"].phi
    varX = X.var(ddof=1)
    c = X - X.mean()
    se_var = np.sqrt((np.mean(c ** 4) - varX ** 2) / len(X))
    mphi = phi.mean()
    se_phi = ml.block_mean_se(phi)     # paths of one block share inner draws
    comb = np.sqrt(se_var ** 2 + se_phi ** 2)
    z = abs(varX - mphi) / comb
    ok = z < 3.0
    report(6, ok, f"variance identity: Var(X) {varX:.5f} vs mean Phi {mphi:.5f}, "
                  f"z {z:.2f} < 3")


def test_criterion_7_gaussian_tail(big_samples, params):
    t0 = time.time()
    rep = dn.verify_gaussian_tail(big_samples.X, params)
    frozen = {-0.5: np.exp(-0.125), -1.0: np.exp(-0.5),
              -1.5: np.exp(-1.125), -2.0: np.exp(-2.0)}
    bounds_ok = all(abs(rep.rhs[k] - frozen[rep.points[k]]) < 1e-15
                    for k in range(len(rep.points)))
    elapsed = time.time() - t0
    ok = rep.passed and bounds_ok and elapsed < 600.0
    report(7, ok, f"Gaussian left tail at 1e6 samples: {rep.violations} "
                  f"violations, bounds {np.round(rep.rhs, 4).tolist()}")


def test_criterion_8_mgf_domination(big_samples, params):
    rep = dn.verify_mgf(big_samples.X, params)
    ok = rep.passed
    report(8, ok, f"MGF domination lambda={rep.points.tolist()}: "
                  f"emp {np.round(rep.lhs, 3).tolist()} <= "
                  f"bound {np.round(rep.rhs, 3).tolist()}")


def test_criterion_9_envelope_boundedness(big_samples, params, centering_big):
    dens = dn.kde_log_domain(big_samples.X, seed=SEED)
    reports = dn.verify_envelopes(dens, params, centering_big,
                                  sample_mean_F=float(big_samples.F.mean()),
                                  sample_var_F=float(big_samples.F.var(ddof=1)))
    by_id = {r.bound_id: r for r in reports}
    envelope_ok = by_id["left_envelope"].passed and by_id["right_envelope"].passed

    profile = {}
    for side in ("left_envelope", "right_envelope"):
        r = by_id[side]
        res = ~r.inconclusive
        profile[side] = {"points": np.asarray(r.points)[res].tolist(),
                         "implied_c": np.asarray(r.implied_constant)[res].tolist()}

    assert GOLDEN.exists(), "golden envelope profile missing (must be committed)"
    golden = json.loads(GOLDEN.read_text())
    regression_ok = True
    for side in ("left_envelope", "right_envelope"):
        regression_ok &= np.allclose(profile[side]["points"],
                                     golden[side]["points"], rtol=1e-7, atol=1e-12)
        regression_ok &= np.allclose(profile[side]["implied_c"],
                                     golden[side]["implied_c"], rtol=1e-7, atol=1e-12)
    ok = envelope_ok and regression_ok
    report(9, ok, f"envelope boundedness at 1e6 samples: left/right PASS rule "
                  f"{envelope_ok}, golden regression {regression_ok}")


def test_criterion_10_w_bound(nested, params, centering_big):
    X = nested["lnF"] - centering_big.value
    out = dn.estimate_w_X(X, nested["prof"].phi, params)
    lower = out["reports"][0]
    ok = lower.passed and len(lower.points) >= 3
    report(10, ok, f"w_X lower bound: {lower.violations} violations on "
                   f"{len(lower.points)} resolved positive bins")


def test_criterion_11_clark_ocone(table64, table256, params):
    residuals = {}
    for table in (table64, table256):
        paths = pth.sample_fbm_volterra(table, 10_000, SEED + 2)
        residuals[table.n] = ml.clark_ocone_residual(paths, table, params)
    res = residuals[64]
    se = res.std(ddof=1) / np.sqrt(len(res))
    mean_ok = abs(res.mean()) < 3.0 * se
    var_ok = residuals[256].var(ddof=1) < residuals[64].var(ddof=1)
    ok = mean_ok and var_ok
    report(11, ok, f"Clark-Ocone residual: mean {res.mean():.2e} within 3 SE "
                   f"({3*se:.2e}), variance {residuals[64].var(ddof=1):.2e} (n=64) "
                   f"-> {residuals[256].var(ddof=1):.2e} (n=256) decreasing")
