"""fBm path generation and the conditional Gaussian structure of the driving BM.

Two generators:

  * Volterra map (default): draws Brownian increments and applies the
    cell-integrated kernel weights. Keeps the increments, so conditional
    means, nested resampling and Clark-Ocone sums are available. The
    increments of a batch are drawn in one place (increment_stream, one
    Philox substream per batch) and mapped in one place (map_block,
    fixed-size zero-padded GEMMs), so a path's values do not depend on the
    path count, on the batch it is drawn in or on the thread that draws it
    (functional.sample_lnF streams blocks through both on worker threads).
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
  * conditional_lognormal_sweep: N and the lognormal means of the future at
    every node k = 0..n, a rank-1 update per node (the per-path passes);
  * inner_fluctuations: the conditional law's centred part, for nested
    resampling.
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


def map_block(Vt, block, rows, out):
    """The Volterra map (Vt = table.volterra_matrix.T) of the first rows of
    block (MAP_BLOCK, n).

    The rows past them are zeroed, and the block is mapped by one GEMM into
    out (MAP_BLOCK, n+1); returns the view of out holding the mapped rows. A
    GEMM may round by its row count, so every map runs in these blocks: the
    values of path p then do not depend on how many paths are mapped with it.
    """
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
        rows = min(MAP_BLOCK, n_paths - start)
        block[:rows] = increments[start:start + rows]
        values[start:start + rows] = map_block(Vt, block, rows, out)
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
    conditional lognormal exponent that no path changes. k is a node, or a
    slice of nodes for one row per node."""
    return params.a * table.grid + 0.5 * params.sigma ** 2 * table.conditional_variances(k)


def conditional_lognormal(table: KernelTable, params, k, N):
    """E[exp(a t_i + sigma B^H_{t_i}) | F_{t_k}] at every node i.

    exp(a t_i + sigma N_i + sigma^2 v_i(k) / 2), with N (P, n+1) the
    conditional means at node k and v the discrete conditional variance; for
    i <= k it is the realized integrand.
    """
    return np.exp(params.sigma * N + _lognormal_shift(table, params, k))


def conditional_lognormal_sweep(table: KernelTable, params, increments):
    """Sweep the nodes k = 0..n, yielding (k, N, C).

    N[p, i] = E[B^H_{t_i} | F_{t_k}] (P, n+1) holds the realized value for
    i <= k and the conditional mean of the future for i > k. It is one
    array, updated in place by the rank-1 step N[:, k:] += dB[:, k-1]
    V[k:, k-1], so a node costs O(P n) and no (P, n+1, n) field is built;
    the sum runs over the cells in the order of np.cumsum. C =
    conditional_lognormal(table, params, k, N)[:, k + 1:] (the same bits)
    holds the future rows i > k, exponentiated once per node into one reused
    buffer with the shifts of every node formed once, before the sweep. Copy
    N or C to keep it past the next step. Both are stored node-major
    (transposed views), so every N[:, k:] is one contiguous block.
    """
    increments = np.atleast_2d(increments)
    P, n = increments.shape[0], table.n
    dBt = np.ascontiguousarray(increments.T)
    Vt = np.ascontiguousarray(table.volterra_matrix.T)    # Vt[j] = column j of V
    shift = _lognormal_shift(table, params, slice(None))
    Nt = np.zeros((n + 1, P))
    step = np.empty(n * P)
    buf = np.empty(n * P)
    for k in range(n + 1):
        if k:
            rank1 = step[: (n + 1 - k) * P].reshape(n + 1 - k, P)
            # the outer product of column k-1 of V with the cell's increments:
            # einsum forms it with the bits of a broadcast multiply in about
            # two thirds of the time
            np.einsum("i,p->ip", Vt[k - 1, k:], dBt[k - 1], out=rank1)
            Nt[k:] += rank1
        C = np.multiply(Nt[k + 1:].T, params.sigma,
                        out=buf[: (n - k) * P].reshape(n - k, P).T)
        C += shift[k, k + 1:]
        yield k, Nt.T, np.exp(C, out=C)


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

