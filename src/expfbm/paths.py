"""fBm path generation and the conditional Gaussian structure of the driving BM.

Every Gaussian of the package is drawn by increment_stream. Two generators:

  * Volterra map (default): draws Brownian increments and applies the
    cell-integrated kernel weights. Keeps the increments, so conditional
    means, nested resampling and Clark-Ocone sums are available. The
    increments of a batch come from one substream and are mapped in padded
    blocks (map_rows, below), so a path's values do not depend on the path
    count, on the batch it is drawn in or on the thread that draws it
    (functional.sample_lnF streams blocks of the same size on worker threads).
  * Cholesky factorization of the exact covariance: unbiased joint law at the
    grid nodes, used as the referee for the Volterra map's discretization bias.
    No driving increments, so conditional operations reject these paths.

Given F_{t_k}, B^H_{t_i} is Gaussian with mean N_i and the discrete map's
variance v_i(k) of the future columns (KernelTable.conditional_variances).
Every split of past from future reads the table's column layout: the past
at node k is the first table.past(k) columns. One function per conditional
object:

  * conditional_means: N at one node, one product of the past Gaussians
    with their Volterra columns (the nested driver's nodes);
  * conditional_lognormal: E[exp(a t_i + sigma B_i) | F_{t_k}] =
    exp(a t_i + sigma N_i + sigma^2 v_i(k) / 2) at one node, so
    M_k = E[F | F_{t_k}] is an exact martingale of the simulated model;
  * conditional_lognormal_sweep: the exponent of the future's lognormal
    means and the means themselves at every node k = 0..n, the exponent
    carried by a rank-2 update per column (the per-path passes; the lower
    bound reads sigma N off the exponent);
  * inner_fluctuations: the conditional law's centred part, the antithetic
    Volterra map of future Gaussians, for nested resampling.

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
    the driving Gaussians (n_paths, table.width), one per Volterra column,
    for Volterra-generated paths and is None for Cholesky paths.
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
    discrete map's sum of V[i, c]^2 dt over the future columns c, zero for
    i <= theta_index.
    """

    theta_index: int
    theta: float
    means: np.ndarray
    variances: np.ndarray


def increment_stream(grid, seed, *key):
    """The draw of substream rng.stream(seed, *key): a function that fills
    out (rows, width) with the stream's next rows of i.i.d. N(0, dt) draws
    and returns it.

    Batch b of rng.batch_ranges is keyed (purpose, b), so the increments of
    global path p never depend on the path count, and batches can be drawn
    in any order; malliavin's inner future of block b at node k is keyed
    (INNER, stage, k, b). The stream fills rows in order, so a batch drawn
    in pieces has the bits of the batch drawn whole.
    """
    gen = rng.stream(seed, *key)
    scale = np.sqrt(grid[1] - grid[0])

    def draw(out):
        gen.standard_normal(out=out)
        out *= scale
        return out

    return draw


def sample_bm_increments(table: KernelTable, seed, n_paths, purpose=rng.OUTER):
    """i.i.d. N(0, dt) driving Gaussians, (n_paths, table.width).
    Deterministic in (seed, purpose)."""
    out = np.empty((n_paths, table.width))
    for b, start, stop in rng.batch_ranges(n_paths):
        increment_stream(table.grid, seed, purpose, b)(out[start:stop])
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
    """Apply the discrete Volterra map to the driving Gaussians.

    values[:, i] = sum_{j<=i} w_ij * dB_j / dt with w_ij the cell integrals of
    K(t_i, .), i.e. the increments enter as densities over their cells,
    mapped by map_rows.
    """
    increments = np.atleast_2d(np.asarray(increments, dtype=float))
    width = increments.shape[1]
    if width != table.width:
        raise ValueError(f"increments have {width} columns, the table has {table.width}")
    values = map_rows(increments, table.volterra_matrix.T)
    return FbmPaths(grid=table.grid, values=values, increments=increments,
                    seed=seed, method="volterra")


def sample_fbm_volterra(table: KernelTable, n_paths, seed, purpose=rng.OUTER):
    """Volterra-map paths with stored driving increments."""
    incr = sample_bm_increments(table, seed, n_paths, purpose=purpose)
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
    Lt = L.T / np.sqrt(grid[1] - grid[0])          # increment_stream draws N(0, dt)
    for b, start, stop in rng.batch_ranges(n_paths):
        draw = increment_stream(grid, seed, rng.CHOLESKY, b)
        values[start:stop, 1:] = map_rows(draw(np.empty((stop - start, n))), Lt)
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
    """N[..., p, i] = E[B^H_{t_i} | F_{t_k}], (..., P, n+1) for increments
    (..., P, table.width): one product of the past Gaussians at t_k with
    their Volterra columns, per (P, width) slice of a stack. N holds the
    realized value for i <= k and the conditional mean of the future for
    i > k."""
    past = table.past(k)
    return np.atleast_2d(increments)[..., :past] @ table.volterra_matrix[:, :past].T


def inner_fluctuations(table: KernelTable, k, dB):
    """Antithetic fluctuations B_{t_i} - E[B_{t_i} | F_{t_k}] at the nodes i = k..n.

    The future driving Gaussians dB (..., Q/2, table.width - table.past(k))
    are mapped through the shared table in one product, so conditional mean
    plus fluctuation has exactly the conditional law of the outer discrete
    model. The
    fluctuation does not depend on the past, so one draw set serves every
    outer path. Returns (..., Q, n - k + 1) = [zV, -zV]; rows q and q + Q/2
    are an exact antithetic pair, and column 0 (node k) is zero.
    """
    zV = dB @ table.volterra_matrix[k:, table.past(k):].T   # rows t_k..T, future columns
    return np.concatenate([zV, -zV], axis=-2)


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
    carries from node to node: each column c that enters the past at node k
    (table.entering[k]; none at node 0) moves it by V[i, c] sigma
    dB_c - sigma^2 dt V[i, c]^2 / 2, one rank-2 product of [V[:, c],
    -sigma^2 dt V[:, c]^2 / 2] with [sigma dB_c; 1] into a reused buffer and
    one add, and then one exp into another. A node costs O(P n),
    and neither N nor the variances are formed; sigma N is L less the node's
    row of _lognormal_shift. L is a running sum, so C rounds differently
    from conditional_lognormal; at sigma = 0 it is exp(a t) exactly. Copy L
    and C to keep them past the next step; both are stored node-major
    (transposed views).
    """
    increments = np.atleast_2d(increments)
    P, n = increments.shape[0], table.n
    s2dt = params.sigma ** 2 * table.dt
    Vt = table.volterra_matrix.T                          # Vt[c] = column c of V
    U = np.stack([Vt, -0.5 * s2dt * Vt ** 2], axis=-1)   # U[c] = [V[:, c], ...]
    R = np.empty((table.width, 2, P))                     # [sigma dB_c; 1]
    np.multiply(increments.T, params.sigma, out=R[:, 0])
    R[:, 1] = 1.0
    Lt = np.repeat(_lognormal_shift(table, params, 0)[:, None], P, axis=1)
    step = np.empty(n * P)
    buf = np.empty(n * P)
    for k, columns in enumerate(table.entering):
        size = (n - k) * P
        L = Lt[k + 1:]
        for c in columns:
            L += np.matmul(U[c, k + 1:], R[c], out=step[:size].reshape(n - k, P))
        yield k, L.T, np.exp(L, out=buf[:size].reshape(n - k, P)).T


def trapezoid_weights(grid):
    n = len(grid) - 1
    dt = grid[1] - grid[0]
    tau = np.full(n + 1, dt)
    tau[0] = tau[-1] = 0.5 * dt
    return tau

