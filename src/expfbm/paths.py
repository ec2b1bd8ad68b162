"""fBm path generation and the conditional Gaussian structure of the driving BM.

Two generators:

  * Volterra map (default): draws Brownian increments and applies the
    cell-integrated kernel weights. Keeps the increments, so conditional
    means, nested resampling and Clark-Ocone sums are available. The
    increments of a batch are drawn in one place (increment_stream, one
    Philox substream per batch) and mapped in padded blocks (map_rows,
    below), so a path's values do not depend on the path count, on the
    batch it is drawn in or on the thread that draws it (functional.sample_lnF
    streams blocks of the same size on worker threads).
  * Cholesky factorization of the exact covariance: unbiased joint law at the
    grid nodes, used as the referee for the Volterra map's discretization bias.
    No driving increments, so conditional operations reject these paths.

Given F_{t_k}, B^H_{t_i} is Gaussian with mean N_i and the discrete map's
variance v_i(k) of the cells after t_k (KernelTable.conditional_variances).
One function per conditional object:

  * conditional_means: N at one node, one product of the past increments
    with their Volterra columns (the nested driver's nodes);
  * conditional_lognormal: E[exp(a t_i + sigma B_i) | F_{t_k}] =
    exp(a t_i + sigma N_i + sigma^2 v_i(k) / 2) at one node, so
    M_k = E[F | F_{t_k}] is an exact martingale of the simulated model;
  * conditional_lognormal_sweep: the exponent of the future's lognormal
    means and the means themselves at every node k = 0..n, the exponent
    carried by a rank-2 update per node (the per-path passes; the lower
    bound reads sigma N off the exponent);
  * inner_fluctuations: the conditional law's centred part, for nested
    resampling.

A product may round by its row count, so every product over path rows
runs on fixed-size blocks, the last one zero-padded: pad_rows cuts a block,
and map_rows forms a @ Mt in blocks of MAP_BLOCK rows (the Volterra and
Cholesky maps, malliavin's Gibbs means). A path's bits then do not depend
on how many paths are drawn with it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .kernel import KernelTable, covariance

# Rows per GEMM of map_rows.
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


def increment_stream(grid, seed, purpose, b):
    """The draw of batch b: a function that fills out (rows, n) with the
    batch's next rows of i.i.d. N(0, dt) increments and returns it.

    Batch b of rng.batch_ranges comes from its own Philox substream
    rng.stream(seed, purpose, b), so the increments of global path p never
    depend on the path count, and batches can be drawn in any order. The
    stream fills rows in order, so a batch drawn in pieces has the bits of
    the batch drawn whole.
    """
    gen = rng.stream(seed, purpose, b)
    scale = np.sqrt(grid[1] - grid[0])

    def draw(out):
        gen.standard_normal(out=out)
        out *= scale
        return out

    return draw


def sample_bm_increments(grid, seed, n_paths, purpose=rng.OUTER):
    """i.i.d. N(0, dt) increments, (n_paths, n). Deterministic in (seed, purpose)."""
    out = np.empty((n_paths, len(grid) - 1))
    for b, start, stop in rng.batch_ranges(n_paths):
        increment_stream(grid, seed, purpose, b)(out[start:stop])
    return out


def pad_rows(a, start, stop, rows):
    """Rows start..stop of a as a block of rows rows: a view when the block
    is full, else a copy zero-padded past stop - start. Read the first
    stop - start rows of any product of the block."""
    if stop - start == rows:
        return a[start:stop]
    block = np.zeros((rows,) + a.shape[1:])
    block[: stop - start] = a[start:stop]
    return block


def map_rows(a, Mt):
    """a @ Mt, one GEMM per block of MAP_BLOCK rows of a (pad_rows), so row
    p of the result does not depend on how many rows a has."""
    out = np.empty((a.shape[0], Mt.shape[1]))
    for _, start, stop in rng.batch_ranges(a.shape[0], MAP_BLOCK):
        out[start:stop] = (pad_rows(a, start, stop, MAP_BLOCK) @ Mt)[: stop - start]
    return out


def fbm_from_bm(table: KernelTable, increments, seed=None):
    """Apply the discrete Volterra map to driving increments.

    values[:, i] = sum_{j<=i} w_ij * dB_j / dt with w_ij the cell integrals of
    K(t_i, .), i.e. the increments enter as densities over their cells,
    mapped by map_rows.
    """
    increments = np.atleast_2d(np.asarray(increments, dtype=float))
    n = increments.shape[1]
    if n != table.n:
        raise ValueError(f"increments have {n} cells, grid has {table.n}")
    values = map_rows(increments, table.volterra_matrix.T)
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
        values[start:stop, 1:] = map_rows(gen.standard_normal((stop - start, n)), L.T)
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


def _lognormal_shift(table: KernelTable, params, k):
    """a t_i + sigma^2 v_i(k) / 2 at every node i: the part of the
    conditional lognormal exponent at node k that no path changes."""
    return params.a * table.grid + 0.5 * params.sigma ** 2 * table.conditional_variances(k)


def conditional_lognormal(table: KernelTable, params, k, N):
    """E[exp(a t_i + sigma B^H_{t_i}) | F_{t_k}] at every node i.

    exp(a t_i + sigma N_i + sigma^2 v_i(k) / 2), with N (P, n+1) the
    conditional means at node k and v the discrete conditional variance; for
    i <= k it is the realized integrand.
    """
    return np.exp(params.sigma * N + _lognormal_shift(table, params, k))


def conditional_lognormal_sweep(table: KernelTable, params, increments):
    """Sweep the nodes k = 0..n, yielding (k, L, C).

    C = conditional_lognormal(table, params, k, N)[:, k + 1:] (P, n - k)
    holds the lognormal means of the future rows i > k, and L = log C their
    exponent L_i = a t_i + sigma N_i + sigma^2 v_i(k) / 2, which the sweep
    carries from node to node: from k-1 to k it moves by V[i, k-1] sigma
    dB_{k-1} - sigma^2 dt V[i, k-1]^2 / 2, one rank-2 product of [V[:, k-1],
    -sigma^2 dt V[:, k-1]^2 / 2] with [sigma dB_{k-1}; 1] into a reused
    buffer and one add, and then one exp into another. A node costs O(P n),
    and neither N nor the variances are formed; sigma N is L less the node's
    row of _lognormal_shift. L is a running sum, so C rounds differently
    from conditional_lognormal; at sigma = 0 it is exp(a t) exactly. Copy L
    and C to keep them past the next step; both are stored node-major
    (transposed views).
    """
    increments = np.atleast_2d(increments)
    P, n = increments.shape[0], table.n
    s2dt = params.sigma ** 2 * table.dt
    Vt = table.volterra_matrix.T                          # Vt[j] = column j of V
    U = np.stack([Vt, -0.5 * s2dt * Vt ** 2], axis=-1)   # U[j] = [V[:, j], ...]
    R = np.empty((n, 2, P))                               # [sigma dB_j; 1]
    np.multiply(increments.T, params.sigma, out=R[:, 0])
    R[:, 1] = 1.0
    Lt = np.repeat(_lognormal_shift(table, params, 0)[:, None], P, axis=1)
    step = np.empty(n * P)
    buf = np.empty(n * P)
    for k in range(n + 1):
        size = (n - k) * P
        L = Lt[k + 1:]
        if k:
            L += np.matmul(U[k - 1, k + 1:], R[k - 1],
                           out=step[:size].reshape(n - k, P))
        yield k, L.T, np.exp(L, out=buf[:size].reshape(n - k, P)).T


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

