"""The exponential functional F = int_0^T exp(a s + sigma B^H_s) ds and its moments.

Per-path values use the trapezoid rule on the shared grid: the integrand
inherits the Holder roughness of the path (exponent < H), so higher-order
rules buy nothing and grid refinement is the accuracy knob. Analytic moment
oracles use adaptive quadrature of the exact Gaussian-moment integrands.

LogFunctional computes them in the log domain: with
x_i = a t_i + sigma B_i and trapezoid weights tau_i, ln F = log sum_i tau_i
exp(x_i) and the Gibbs weights are w_i = tau_i exp(x_i) / F. The Malliavin
derivatives of X = ln F - E[ln F] are moments under w: D_theta X = sigma
sum_i w_i K(t_i, theta), and D_r D_theta X is sigma^2 times the covariance
of K(., theta) and K(., r) under w (see malliavin). Both stay finite at any
sigma >= 0, where F itself may overflow.

sample_lnF is the ln F of a whole sample (the outer batch and the centering
paths): rng batches on a few worker threads, each streamed from its
increments through the Volterra map to ln F block by block, with the bits of
LogFunctional on the whole path array and no such array formed.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng
from .kernel import HurstParams, covariance
from .paths import (MAP_BLOCK, FbmPaths, draw_increments, map_block,
                    trapezoid_weights)

# Threads of sample_lnF. Each holds one (rng.BATCH, n) increment buffer, so
# three keep the draw within the three batch-sized arrays (increments,
# values, exponentials) that one batch mapped whole would hold.
MAX_WORKERS = 3


@dataclass(frozen=True)
class ModelParams:
    """Drift a, volatility sigma >= 0, and (H, T).

    sigma = 0 is the degenerate deterministic limit; density estimation
    rejects it but the functional and its moments remain well defined.
    """

    a: float
    sigma: float
    hurst: HurstParams

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")

    @property
    def H(self):
        return self.hurst.H

    @property
    def T(self):
        return self.hurst.T


@dataclass(frozen=True)
class CenteringEstimate:
    """Frozen Monte Carlo estimate of E[ln F] with its standard error."""

    value: float
    se: float
    n_paths: int
    seed: int | None


class LogFunctional:
    """ln F per path and the Gibbs weights w_i = tau_i exp(a t_i + sigma B_i) / F.

    Both come from one exponential of log tau + a t + sigma B shifted per row
    by its max, so every term is <= 1 and one is 1. Each row is summed on its
    own, so a path's ln F does not depend on its batch. The weights (P, n+1)
    are formed on first use: callers of ln F alone do not pay for them.
    """

    def __init__(self, paths: FbmPaths, params: ModelParams):
        x = params.sigma * paths.values
        x += np.log(trapezoid_weights(paths.grid)) + params.a * paths.grid
        shift = x.max(axis=1)
        x -= shift[:, None]
        np.exp(x, out=x)
        self._terms = x
        self._F_shifted = x.sum(axis=1)
        self.lnF = shift + np.log(self._F_shifted)

    @cached_property
    def weights(self):
        return self._terms / self._F_shifted[:, None]


def functional_F(paths: FbmPaths, params: ModelParams) -> np.ndarray:
    """Trapezoid value of the exponential functional per path (> 0; inf
    where it overflows, while ln F stays finite)."""
    return np.exp(LogFunctional(paths, params).lnF)


def pathwise_bracket(paths: FbmPaths, params: ModelParams):
    """(lower, upper) bounds on ln F, the log of the bracket
    T exp(-|a|T + sigma min B) <= F <= T exp(|a|T + sigma max B)."""
    T = params.T
    lo = np.log(T) - abs(params.a) * T + params.sigma * paths.values.min(axis=1)
    hi = np.log(T) + abs(params.a) * T + params.sigma * paths.values.max(axis=1)
    return lo, hi


def analytic_mean_F(params: ModelParams) -> float:
    """E[F] = int_0^T exp(a s + sigma^2 s^2H / 2) ds to ~1e-12 relative."""
    from scipy.integrate import quad

    a, sigma, H, T = params.a, params.sigma, params.H, params.T

    def integrand(s):
        return np.exp(a * s + 0.5 * sigma ** 2 * s ** (2.0 * H))

    val, _ = quad(integrand, 0.0, T, epsabs=0.0, epsrel=1e-12, limit=200)
    return val


def analytic_second_moment_F(params: ModelParams) -> float:
    """E[F^2] via the bivariate Gaussian moment, ~1e-10 relative.

    Integrates twice over the triangle s < t; the |t-s|^2H kink then sits on
    the integration boundary instead of crossing the interior.
    """
    from scipy.integrate import dblquad

    a, sigma, H, T = params.a, params.sigma, params.H, params.T
    h2 = 2.0 * H

    def integrand(s, t):
        var = s ** h2 + t ** h2 + 2.0 * covariance(H, t, s)
        return np.exp(a * (s + t) + 0.5 * sigma ** 2 * var)

    val, _ = dblquad(integrand, 0.0, T, 0.0, lambda t: t,
                     epsabs=0.0, epsrel=1e-11)
    return 2.0 * val


def analytic_var_F(params: ModelParams) -> float:
    m = analytic_mean_F(params)
    return analytic_second_moment_F(params) - m * m


def deterministic_lnF(params: ModelParams) -> float:
    """ln F for the sigma = 0 limit (exact)."""
    a, T = params.a, params.T
    if a == 0.0:
        return float(np.log(T))
    return float(np.log(np.expm1(a * T) / a))      # exp(aT) - 1 is 0 for tiny a


def _workers(n_batches):
    """Threads for a draw of n_batches batches: one per usable CPU, at most
    one per batch and MAX_WORKERS, at least one."""
    return max(1, min(len(os.sched_getaffinity(0)), n_batches, MAX_WORKERS))


def sample_lnF(params: ModelParams, table, n_paths, seed, purpose=rng.OUTER):
    """ln F of every path: LogFunctional(sample_fbm_volterra(table, n_paths,
    seed, purpose), params).lnF, bit for bit, without the path array.

    Each batch of rng.batch_ranges has its own Philox substream, so the
    batches are independent: worker threads take them in any order and the
    bits do not depend on which thread draws which. A worker draws a batch
    into its one reused (rng.BATCH, n) buffer, maps it in the MAP_BLOCK-row
    blocks of fbm_from_bm and reduces each block to ln F at once. numpy
    releases the GIL in the draw, the GEMM and exp, so the threads overlap.
    """
    n = table.n
    Vt = table.volterra_matrix.T
    lnF = np.empty(n_paths)
    batches = list(rng.batch_ranges(n_paths))
    todo = iter(batches)
    lock = threading.Lock()

    def work():
        incr = np.empty((rng.BATCH, n))
        block = np.empty((MAP_BLOCK, n))
        out = np.empty((MAP_BLOCK, n + 1))
        while True:
            with lock:                  # two threads must not take one batch
                b, start, stop = next(todo, (None, 0, 0))
            if b is None:
                return
            batch = draw_increments(table.grid, seed, purpose, b,
                                    incr[:stop - start])
            for lo in range(0, stop - start, MAP_BLOCK):
                values = map_block(Vt, batch, lo, block, out)
                paths = FbmPaths(table.grid, values, None, seed, "volterra")
                lnF[start + lo:start + lo + len(values)] = \
                    LogFunctional(paths, params).lnF

    # imported here: commands that draw no sample skip its import (~6 ms)
    from concurrent.futures import ThreadPoolExecutor

    workers = _workers(len(batches))
    with ThreadPoolExecutor(workers) as pool:
        for future in [pool.submit(work) for _ in range(workers)]:
            future.result()
    return lnF


def estimate_mean_lnF(params: ModelParams, table, n_paths, seed) -> CenteringEstimate:
    """Frozen centering constant for X = ln F - E[ln F].

    One estimate per experiment; downstream consumers reuse it instead of
    re-centering per batch, which would correlate the centering noise with
    the quantities being tested. The sums run per batch, in batch order.
    """
    if params.sigma == 0.0:
        return CenteringEstimate(value=deterministic_lnF(params), se=0.0,
                                 n_paths=0, seed=seed)
    if n_paths < 1000:
        raise ValueError("centering estimate needs at least 1000 paths")
    lnF = sample_lnF(params, table, n_paths, seed, rng.CENTERING)
    total = 0.0
    total_sq = 0.0
    for _, start, stop in rng.batch_ranges(n_paths):
        total += lnF[start:stop].sum()
        total_sq += (lnF[start:stop] ** 2).sum()
    mean = total / n_paths
    var = max(total_sq / n_paths - mean ** 2, 0.0)
    return CenteringEstimate(value=float(mean), se=float(np.sqrt(var / n_paths)),
                             n_paths=n_paths, seed=seed)


def refinement_diffs(values_fine, grid_fine, params: ModelParams):
    """|F(coarse) - F(fine)| on the coarsenings by 8, 4 and 2 of one fixed path.

    Quadrature-consistency diagnostic recorded in batch metadata: the
    differences must shrink as the grid is refined.
    """
    diffs = []
    nf = len(grid_fine) - 1
    pf = FbmPaths(grid_fine, np.atleast_2d(values_fine), None, None, "fixed")
    f_fine = float(functional_F(pf, params)[0])
    for step in (8, 4, 2):
        if nf % step:
            raise ValueError("fine grid size must be divisible by 8")
        sub = slice(None, None, step)
        pc = FbmPaths(grid_fine[sub], np.atleast_2d(values_fine)[:, sub],
                      None, None, "fixed")
        diffs.append(abs(float(functional_F(pc, params)[0]) - f_fine))
    return diffs


def write_samples_csv(path, F, lnF, X, params: ModelParams,
                      centering: CenteringEstimate, header_meta=None):
    """(path_id, F, lnF, X) rows with full provenance header."""
    meta = dict(header_meta or {})
    meta.update({
        "drift_a": params.a, "sigma_vol": params.sigma,
        "hurst_H": params.H, "horizon_T": params.T,
        "centering_mean_lnF": centering.value, "centering_se": centering.se,
        "centering_paths": centering.n_paths,
    })
    columns = [np.asarray(v, dtype=float) for v in (F, lnF, X)]
    with open(path, "w", newline="") as fh:
        for key in sorted(meta):
            fh.write(f"# {key}={meta[key]}\n")
        # csv.writer's rows: no field here needs quoting, and lines end \r\n
        fh.write("path_id,F,lnF,X\r\n")
        for start in range(0, len(columns[0]), rng.BATCH):
            rows = zip(range(start, start + rng.BATCH),
                       *(c[start:start + rng.BATCH].tolist() for c in columns))
            fh.write("".join(f"{p},{f!r},{lf!r},{x!r}\r\n" for p, f, lf, x in rows))
