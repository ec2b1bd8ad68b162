"""fBm path generation and the conditional Gaussian structure of the driving BM.

Two generators:

  * Volterra map (default): draws Brownian increments and applies the
    cell-integrated kernel weights. Keeps the increments, so conditional
    means, nested resampling and Clark-Ocone sums are available.
  * Cholesky factorization of the exact covariance: unbiased joint law at the
    grid nodes, used as the referee for the Volterra map's discretization bias.
    No driving increments, so conditional operations reject these paths.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import rng
from .kernel import KernelTable, covariance

# Rows per GEMM of the Volterra map (fbm_from_bm).
MAP_BLOCK = 256


@dataclass
class FbmPaths:
    """A batch of simulated fBm paths on a shared grid.

    values has shape (n_paths, n+1) with values[:, 0] == 0. increments holds
    the driving Brownian increments (n_paths, n) for Volterra-generated paths
    and is None for Cholesky paths.
    """

    grid: np.ndarray
    values: np.ndarray
    increments: np.ndarray | None
    seed: int | None
    method: str

    @property
    def n_paths(self):
        return self.values.shape[0]

    @property
    def n(self):
        return len(self.grid) - 1

    def require_increments(self):
        if self.increments is None:
            raise ValueError(
                f"operation needs the driving Brownian increments; "
                f"{self.method}-generated paths do not carry them")

    def subset(self, idx):
        """View of a subset of paths (shares the underlying arrays)."""
        incr = None if self.increments is None else self.increments[idx]
        return FbmPaths(self.grid, self.values[idx], incr, self.seed, self.method)


@dataclass
class ConditionalLaw:
    """Gaussian law of the path given the driving BM up to grid node theta.

    means[p, i] = E[B^H_{t_i} | F_theta] for path p (equals the realized value
    for i <= theta_index); variances[i] = t_i^2H - int_0^theta K(t_i, u)^2 du,
    zero for i <= theta_index.
    """

    theta_index: int
    theta: float
    means: np.ndarray
    variances: np.ndarray


def sample_bm_increments(grid, seed, n_paths, purpose=rng.OUTER):
    """i.i.d. N(0, dt) increments, (n_paths, n). Deterministic in (seed, purpose).

    Drawn in fixed-size batches with one Philox substream per batch, so the
    increments of global path p never depend on n_paths or worker partition.
    """
    n = len(grid) - 1
    dt = grid[1] - grid[0]
    out = np.empty((n_paths, n))
    for b, start, stop in rng.batch_ranges(n_paths):
        gen = rng.stream(seed, purpose, b)
        out[start:stop] = gen.standard_normal((stop - start, n)) * np.sqrt(dt)
    return out


def fbm_from_bm(table: KernelTable, increments, seed=None):
    """Apply the discrete Volterra map to driving increments.

    values[:, i] = sum_{j<=i} w_ij * dB_j / dt with w_ij the cell integrals of
    K(t_i, .), i.e. the increments enter as densities over their cells.
    The map runs in blocks of MAP_BLOCK rows, the last one zero-padded: a
    GEMM may round by its row count, and this way the values of path p do not
    depend on how many paths are mapped with it.
    """
    increments = np.atleast_2d(np.asarray(increments, dtype=float))
    n_paths, n = increments.shape
    if n != table.n:
        raise ValueError(f"increments have {n} cells, grid has {table.n}")
    V = table.volterra_matrix.T
    values = np.empty((n_paths, n + 1))
    block = np.zeros((MAP_BLOCK, n))
    for start in range(0, n_paths, MAP_BLOCK):
        rows = min(MAP_BLOCK, n_paths - start)
        block[:rows] = increments[start:start + rows]
        block[rows:] = 0.0
        values[start:start + rows] = (block @ V)[:rows]
    return FbmPaths(grid=table.grid, values=values, increments=increments,
                    seed=seed, method="volterra")


def sample_fbm_volterra(table: KernelTable, n_paths, seed, purpose=rng.OUTER):
    """Volterra-map paths with stored driving increments."""
    incr = sample_bm_increments(table.grid, seed, n_paths, purpose=purpose)
    return fbm_from_bm(table, incr, seed=seed)


def cholesky_factor(H, grid, jitter=0.0):
    """Lower Cholesky factor of the exact covariance at grid[1:]."""
    t = np.asarray(grid)[1:]
    cov = covariance(H, t[:, None], t[None, :])
    for eps in (jitter, 1e-14, 1e-12):
        try:
            return np.linalg.cholesky(cov + eps * np.eye(len(t)))
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError(
        "covariance matrix not positive definite after regularization")


def sample_fbm_cholesky(H, grid, n_paths, seed):
    """Exact-law fBm at the grid nodes (no driving increments retained)."""
    n = len(grid) - 1
    if n > 4096:
        raise ValueError("Cholesky sampler limited to n <= 4096")
    L = cholesky_factor(H, grid)
    values = np.zeros((n_paths, n + 1))
    for b, start, stop in rng.batch_ranges(n_paths):
        gen = rng.stream(seed, rng.CHOLESKY, b)
        z = gen.standard_normal((stop - start, n))
        values[start:stop, 1:] = z @ L.T
    return FbmPaths(grid=np.asarray(grid), values=values, increments=None,
                    seed=seed, method="cholesky")


def conditional_law(paths: FbmPaths, table: KernelTable, theta) -> ConditionalLaw:
    """Conditional Gaussian law of the paths given the driving BM up to theta."""
    paths.require_increments()
    k = table.index_of(theta)
    V = table.volterra_matrix
    if k == 0:
        means = np.zeros_like(paths.values)
    else:
        means = paths.increments[:, :k] @ V[:, :k].T
    return ConditionalLaw(theta_index=k, theta=table.grid[k], means=means,
                          variances=table.conditional_variances(k))


def conditional_mean_sweep(table: KernelTable, increments):
    """Sweep the nodes k = 0..n, yielding (k, N) with N[p, i] = E[B^H_{t_i} | F_{t_k}].

    N (P, n+1) holds the realized value for i <= k and the conditional mean
    of the future for i > k. It is one array, updated in place by the rank-1
    step N[:, k:] += dB[:, k-1] V[k:, k-1], so a node costs O(P n) and no
    (P, n+1, n) field is built; copy N to keep it past the next step. The
    sum runs over the cells in the order of np.cumsum. N is stored node-major
    (a transposed view), so every N[:, k:] is one contiguous block.
    """
    increments = np.atleast_2d(increments)
    P, n = increments.shape[0], table.n
    dBt = np.ascontiguousarray(increments.T)
    Vt = np.ascontiguousarray(table.volterra_matrix.T)    # Vt[j] = column j of V
    Nt = np.zeros((n + 1, P))
    step = np.empty(n * P)
    yield 0, Nt.T
    for k in range(1, n + 1):
        rank1 = step[: (n + 1 - k) * P].reshape(n + 1 - k, P)
        np.multiply(Vt[k - 1, k:, None], dBt[k - 1], out=rank1)
        Nt[k:] += rank1
        yield k, Nt.T


def inner_fluctuations(table: KernelTable, k, n_inner, gen):
    """Antithetic draws of B_{t_i} - E[B_{t_i} | F_{t_k}] at the nodes i = k..n.

    The future driving increments are resampled through the shared table, so
    conditional mean plus fluctuation has exactly the conditional law of the
    outer discrete model. The fluctuation does not depend on the past, so one
    draw set serves every outer path. Returns (n_inner, n - k + 1); row q and
    row q + n_inner/2 are an antithetic pair, and column 0 (node k) is zero.
    """
    if n_inner % 2:
        raise ValueError("antithetic inner sampling needs an even n_inner")
    z = gen.standard_normal((n_inner // 2, table.n - k)) * np.sqrt(table.dt)
    z = np.concatenate([z, -z])
    return z @ table.volterra_matrix[k:, k:].T     # rows t_k..T, future cells


def martingale_M(paths: FbmPaths, table: KernelTable, params, r) -> np.ndarray:
    """Conditional expectation of the exponential functional given F_r.

    Closed form through the conditional lognormal means:
        M_r = int_0^r exp(a s + sigma B_s) ds
            + int_r^T exp(a s + sigma N_{s,r} + sigma^2 v(s,r)/2) ds
    evaluated with the shared trapezoid rule. M_T equals the functional value
    and M_0 the deterministic mean integral on the same grid.
    """
    law = conditional_law(paths, table, r)
    k = law.theta_index
    E = np.exp(params.a * table.grid[: k + 1] + params.sigma * paths.values[:, : k + 1])
    return martingale_value(E, law.means, k, martingale_log_weights(table, params, k),
                            params.sigma, trapezoid_weights(table.grid))


def martingale_log_weights(table: KernelTable, params, k):
    """a t_i + sigma^2 v(t_i, t_k) / 2 on the grid, v the conditional variance.

    For i > k this is log E[exp(a t_i + sigma B_i) | F_{t_k}] - sigma N_i.
    """
    return params.a * table.grid + 0.5 * params.sigma ** 2 * table.conditional_variances(k)


def martingale_value(E, N, k, log_w, sigma, tau):
    """M_k from the integrand E = exp(a t + sigma B) on nodes 0..k, the
    conditional means N (P, n+1) at node k and log_w, the node-k row of
    martingale_log_weights: the trapezoid rule over the realized past plus
    the conditional lognormal means of the future."""
    M = E[:, : k + 1] @ tau[: k + 1]
    if k + 1 < len(tau):
        M = M + np.exp(log_w[k + 1:] + sigma * N[:, k + 1:]) @ tau[k + 1:]
    return M


def trapezoid_weights(grid):
    n = len(grid) - 1
    dt = grid[1] - grid[0]
    tau = np.full(n + 1, dt)
    tau[0] = tau[-1] = 0.5 * dt
    return tau


def write_paths_csv(path, paths: FbmPaths, header_meta=None):
    """Audit dump: one row per (path, node) with the driving increment if any."""
    meta = dict(header_meta or {})
    meta.setdefault("seed", paths.seed)
    meta.setdefault("method", paths.method)
    meta.setdefault("n", paths.n)
    meta.setdefault("grid_start", float(paths.grid[0]))
    meta.setdefault("grid_end", float(paths.grid[-1]))
    with open(path, "w", newline="") as fh:
        for key in sorted(meta):
            fh.write(f"# {key}={meta[key]}\n")
        writer = csv.writer(fh)
        writer.writerow(["path_id", "t", "dB", "B_H"])
        for p in range(paths.n_paths):
            for i, t in enumerate(paths.grid):
                db = "" if (paths.increments is None or i == 0) \
                    else repr(paths.increments[p, i - 1])
                writer.writerow([p, repr(float(t)), db, repr(paths.values[p, i])])
