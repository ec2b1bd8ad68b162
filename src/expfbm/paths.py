"""fBm path generation and the conditional Gaussian structure of the driving BM.

Two generators:

  * Volterra map (default): draws Brownian increments and applies the
    cell-integrated kernel weights. Keeps the increments, so conditional
    means, nested resampling and Clark-Ocone sums are available. The
    increments of a batch are drawn in one place (draw_increments, one Philox
    substream per batch) and mapped in one place (map_block, fixed-size
    zero-padded GEMMs), so a path's values do not depend on the path count,
    on the batch it is drawn in or on the thread that draws it
    (functional.sample_lnF streams batches through both on worker threads).
  * Cholesky factorization of the exact covariance: unbiased joint law at the
    grid nodes, used as the referee for the Volterra map's discretization bias.
    No driving increments, so conditional operations reject these paths.

Given F_{t_k}, B^H_{t_i} is Gaussian with mean N_i and the discrete map's
variance v_i(k) of the cells after t_k (KernelTable.conditional_variances).
One primitive, conditional_lognormal, forms E[exp(a t_i + sigma B_i) | F_{t_k}]
= exp(a t_i + sigma N_i + sigma^2 v_i(k) / 2), so M_k = E[F | F_{t_k}] is an
exact martingale of the simulated model.
"""
from __future__ import annotations

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
    for i <= theta_index); variances[i] = Var(B^H_{t_i} | F_theta), the
    discrete map's sum_{l >= theta_index} V[i, l]^2 dt, zero for
    i <= theta_index.
    """

    theta_index: int
    theta: float
    means: np.ndarray
    variances: np.ndarray


def draw_increments(grid, seed, purpose, b, out):
    """Fill out (rows, n) with the i.i.d. N(0, dt) increments of batch b and
    return it: the one draw of outer and centering increments.

    Batch b of rng.batch_ranges comes from its own Philox substream
    rng.stream(seed, purpose, b), so the increments of global path p never
    depend on the path count, and batches can be drawn in any order.
    """
    rng.stream(seed, purpose, b).standard_normal(out=out)
    out *= np.sqrt(grid[1] - grid[0])
    return out


def sample_bm_increments(grid, seed, n_paths, purpose=rng.OUTER):
    """i.i.d. N(0, dt) increments, (n_paths, n). Deterministic in (seed, purpose)."""
    out = np.empty((n_paths, len(grid) - 1))
    for b, start, stop in rng.batch_ranges(n_paths):
        draw_increments(grid, seed, purpose, b, out[start:stop])
    return out


def map_block(Vt, increments, start, block, out):
    """The Volterra map (Vt = table.volterra_matrix.T) of rows
    start..start+MAP_BLOCK of increments.

    The rows are copied into block (MAP_BLOCK, n), zero-padded past the last
    row, and mapped by one GEMM into out (MAP_BLOCK, n+1); returns the view of
    out holding the mapped rows. A GEMM may round by its row count, so every
    map runs in these blocks: the values of path p then do not depend on how
    many paths are mapped with it.
    """
    rows = min(MAP_BLOCK, len(increments) - start)
    block[:rows] = increments[start:start + rows]
    block[rows:] = 0.0
    np.matmul(block, Vt, out=out)
    return out[:rows]


def fbm_from_bm(table: KernelTable, increments, seed=None):
    """Apply the discrete Volterra map to driving increments.

    values[:, i] = sum_{j<=i} w_ij * dB_j / dt with w_ij the cell integrals of
    K(t_i, .), i.e. the increments enter as densities over their cells,
    mapped in blocks by map_block.
    """
    increments = np.atleast_2d(np.asarray(increments, dtype=float))
    n_paths, n = increments.shape
    if n != table.n:
        raise ValueError(f"increments have {n} cells, grid has {table.n}")
    Vt = table.volterra_matrix.T
    values = np.empty((n_paths, n + 1))
    block = np.empty((MAP_BLOCK, n))
    out = np.empty((MAP_BLOCK, n + 1))
    for start in range(0, n_paths, MAP_BLOCK):
        mapped = map_block(Vt, increments, start, block, out)
        values[start:start + len(mapped)] = mapped
    return FbmPaths(grid=table.grid, values=values, increments=increments,
                    seed=seed, method="volterra")


def sample_fbm_volterra(table: KernelTable, n_paths, seed, purpose=rng.OUTER):
    """Volterra-map paths with stored driving increments."""
    incr = sample_bm_increments(table.grid, seed, n_paths, purpose=purpose)
    return fbm_from_bm(table, incr, seed=seed)


def cholesky_factor(H, grid):
    """Lower Cholesky factor of the exact covariance at grid[1:]."""
    t = np.asarray(grid)[1:]
    cov = covariance(H, t[:, None], t[None, :])
    for eps in (0.0, 1e-14, 1e-12):
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
    return ConditionalLaw(theta_index=k, theta=table.grid[k],
                          means=conditional_means(table, paths.increments, k),
                          variances=table.conditional_variances(k))


def conditional_means(table: KernelTable, increments, k):
    """N[p, i] = E[B^H_{t_i} | F_{t_k}], (P, n+1): one product of the
    increments before t_k with their Volterra columns. N holds the realized
    value for i <= k and the conditional mean of the future for i > k."""
    increments = np.atleast_2d(increments)
    if k == 0:
        return np.zeros((increments.shape[0], table.n + 1))
    return increments[:, :k] @ table.volterra_matrix[:, :k].T


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
    zV = z @ table.volterra_matrix[k:, k:].T       # rows t_k..T, future cells
    return np.concatenate([zV, -zV])               # exact antithetic pairs


def conditional_lognormal(table: KernelTable, params, k, N, start=0, out=None):
    """E[exp(a t_i + sigma B^H_{t_i}) | F_{t_k}] at the rows i >= start.

    exp(a t_i + sigma N_i + sigma^2 v_i(k) / 2), with N (P, n+1) the
    conditional means at node k and v the discrete conditional variance; for
    i <= k it is the realized integrand. The result is laid out like
    N[:, start:], written into out if given.
    """
    C = np.multiply(N[:, start:], params.sigma, out=out)
    C += (params.a * table.grid[start:]
          + 0.5 * params.sigma ** 2 * table.conditional_variances(k)[start:])
    return np.exp(C, out=C)


def conditional_lognormal_sweep(table: KernelTable, params, increments):
    """conditional_mean_sweep yielding (k, N, C), C = conditional_lognormal(
    table, params, k, N, k + 1): the future rows i > k, exponentiated once per
    node into one reused node-major buffer; copy C to keep it past the next step.
    """
    P = np.atleast_2d(increments).shape[0]
    buf = np.empty(table.n * P)
    for k, N in conditional_mean_sweep(table, increments):
        C = buf[: (table.n - k) * P].reshape(table.n - k, P).T
        yield k, N, conditional_lognormal(table, params, k, N, k + 1, out=C)


def martingale_M(paths: FbmPaths, table: KernelTable, params, r) -> np.ndarray:
    """M_r = E[F | F_r] for the trapezoid-rule F: conditional_lognormal over the
    whole row at node r. M_T is the functional value, M_0 = E[F]."""
    law = conditional_law(paths, table, r)
    return conditional_lognormal(table, params, law.theta_index, law.means) \
        @ trapezoid_weights(table.grid)


def trapezoid_weights(grid):
    n = len(grid) - 1
    dt = grid[1] - grid[0]
    tau = np.full(n + 1, dt)
    tau[0] = tau[-1] = 0.5 * dt
    return tau

