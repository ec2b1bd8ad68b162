"""Pathwise Malliavin derivatives of X = ln F - E[ln F] and their bounds.

All derivatives are moments of kernel columns under the Gibbs weights
w_i = tau_i exp(a t_i + sigma B^H_{t_i}) / F of functional.LogFunctional:

    D_theta X      = sigma * sum_i w_i K(t_i, theta)
    D_r D_theta X  = sigma^2 * Cov_w(K(., theta), K(., r))
                   = sigma^2 [ sum_i w_i K(t_i,theta) K(t_i,r)
                               - (sum_i w_i K(t_i,theta)) (sum_i w_i K(t_i,r)) ]

so both stay finite at any sigma. Conditional expectations given F_theta
are estimated by nested Monte Carlo: the future driving increments are
resampled through the shared kernel table (antithetic pairs), so the inner
law is exactly the conditional law of the outer discrete model.

The nested estimates are factorised. An inner path is the outer path's
conditional mean N_p plus a fluctuation Z_q that does not depend on the
past, so exp(a t_i + sigma (N_{p,i} + Z_{q,i})) = A_{p,i} B_{q,i}. One driver,
_nested, runs block-major on the worker threads of functional.run_blocks:
each task takes a group of consecutive blocks of CHUNK_OUTER paths (the
last one zero-padded by paths.pad_rows) and walks every subgrid node for
them. At each node it forms N as one product of each block's past
Gaussians with their Volterra columns (paths.conditional_means), draws one
inner set Z of the future columns per block (paths.increment_stream) and
forms every inner sum in one GEMM of A with B^T per block, stacked over the
group. Per-path estimates and
their inner SEs keep their law, but the paths of one block share inner
noise: the SE of a mean over paths must come from block means
(block_mean_se). The Gram products of d2x run on run_blocks too.

The Clark-Ocone residual and the pathwise lower bound on Phi_X walk the whole
triangle of nodes k <= i. Both run on paths.conditional_lognormal_sweep,
which yields at every node the conditional lognormal means
C_i = E[exp(a t_i + sigma B_i) | F_{t_k}] of the rows i > k and carries
their exponent L by one rank-2 update per column (O(P n) per node, no
(P, n+1, n) temporary). Both passes sweep blocks of _sweep_paths(n) paths
(paths.pad_rows) on the worker threads of functional.run_blocks
(README, Threads), one sweep per block. The lower bound's
M_k = E[F | F_{t_k}] is the realized past plus C . tau, and its min of the
conditional means N[p, i, k] = E[B_{t_i} | F_{t_k}] is read off L; E[F] = M_0,
and the Clark-Ocone integrand of column c is sigma C . (tau V[:, c]) at the
node before c enters the past.

Grid conventions: the pointwise derivative diverges like theta^(1/2-H) as
theta -> 0, so index 0 of derivative arrays stores the first-cell average
(the derivative with respect to the first Brownian increment, normalized by
dt), with the matching cell-averaged upper bound. Index n is exact (value 0).
The theta-integral of Phi_X uses a product-trapezoid rule with weight
theta^(1-2H) and exact moments, which integrates the left-end singularity of
the integrand instead of truncating it.

The checks sit beside their estimators: derivative_reports builds the
derivative reports from a derivative_summary (what the CLI's nested cache
holds); dphi_bound_check reports on the first DPHI_PATHS paths;
clark_ocone_report tests the mean of clark_ocone_residual."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .functional import LogFunctional, run_blocks
from .kernel import KernelTable
from .paths import (FbmPaths, _lognormal_shift, conditional_lognormal,
                    conditional_lognormal_sweep, conditional_means, increment_stream,
                    inner_fluctuations, map_rows, pad_rows, trapezoid_weights)
from .reports import Z, point_report, range_report, range_summary, summary_report

CHUNK_OUTER = 128          # outer paths per nested-MC block (fixed: part of the
                           # determinism contract, stream keys include the block)

# Elements of the largest temporary of a task of d2x or _nested: the
# paths per d2x block and the blocks per _nested group (_group_blocks).
TASK_ELEMENTS = 2 ** 18

# Paths that dphi_bound_check covers: it is doubly nested, the costliest
# pass, so its reports carry the covered fraction.
DPHI_PATHS = 2_000


@dataclass
class MalliavinProfile:
    """Per-path derivative summary on the evaluation subgrid."""

    theta: np.ndarray            # subgrid times
    dX: np.ndarray               # (P, m) first derivatives
    cond_dX: np.ndarray          # (P, m) nested estimates of E[D X | F]
    cond_se: np.ndarray          # (P, m) inner standard errors
    phi: np.ndarray              # (P,) Phi_X
    phi_se: np.ndarray           # (P,) propagated inner error on Phi_X
    meta: dict = field(default_factory=dict)


def _kernel_columns(table: KernelTable, indices):
    """Kernel values K(t_i, t_j), j in indices, as columns (n+1, m); index 0
    means the first-cell average int_0^{t_1} K(t_i, r) dr / dt (pointwise K
    diverges at s = 0)."""
    return np.column_stack([table.volterra_matrix[:, 0] if j == 0 else table.values[:, j]
                            for j in indices])


def dx_bounds(table: KernelTable, params, indices):
    """Upper bounds sigma*K(T, theta_j) with the cell-average convention at 0."""
    return params.sigma * _kernel_columns(table, indices)[-1]


def dx(paths: FbmPaths, table: KernelTable, params, indices=None):
    """D_theta X on the grid nodes (default: all nodes).

    sigma times the Gibbs mean of the kernel column: w >= 0 sums to one and
    the column is non-decreasing in the row index, so 0 <= D <= sigma*K(T,
    theta) holds exactly in the discrete model up to float rounding.
    """
    if indices is None:
        indices = np.arange(table.n + 1)
    K = _kernel_columns(table, indices)
    return params.sigma * map_rows(LogFunctional(paths, params).weights, K)


def dx_increment(paths: FbmPaths, table: KernelTable, params):
    """Derivative of X with respect to each driving increment.

    dX/d(dB_j) = sigma * sum_i w_i V_ij, with V the Volterra matrix: the
    exact gradient of the discrete map, and the object the finite-difference
    oracle measures.
    """
    return params.sigma * map_rows(LogFunctional(paths, params).weights,
                                   table.volterra_matrix)


def d2x(paths: FbmPaths, table: KernelTable, params, indices=None):
    """D_r D_theta X on indices x indices (default: every grid node >= 1).

    sigma^2 times the Gibbs covariance of the kernel columns. Non-negativity
    is a discrete Chebyshev-association fact: both columns are
    non-decreasing in the row index, so their covariance under w is >= 0 up
    to rounding. It is formed as the Gram matrix of the centred columns
    sqrt(w) (K - w K), not as w KK - (w K)(w K): where w is nearly a point
    mass, the two terms of that difference agree to the last bits and their
    rounding would decide the sign. The Gram products run on
    functional.run_blocks, in blocks of paths whose temporary holds about
    TASK_ELEMENTS entries; each path's product is its own slice of the
    stacked np.matmul, so its bits do not depend on the block or the worker.
    """
    if indices is None:
        indices = np.arange(1, table.n + 1)
    w = LogFunctional(paths, params).weights
    K = _kernel_columns(table, indices)
    wK = map_rows(w, K)                          # the Gibbs means, as dx forms them
    out = np.empty((paths.n_paths, K.shape[1], K.shape[1]))

    def gram(_, start, stop):
        C = K - wK[start:stop, None, :]                      # (c, n+1, m)
        C *= np.sqrt(w[start:stop])[:, :, None]
        np.matmul(C.transpose(0, 2, 1), C, out=out[start:stop])

    run_blocks(gram, paths.n_paths, max(1, TASK_ELEMENTS // K.size))
    out *= params.sigma ** 2
    return out


def d2x_bounds(table: KernelTable, params, indices):
    """2 sigma^2 K(T,theta) K(T,r) on the same index convention."""
    cols = _kernel_columns(table, indices)[-1]
    return 2.0 * params.sigma ** 2 * cols[:, None] * cols[None, :]


def _d2x_limits(table, params, idx):
    """The d2x_range bound 2 sigma^2 K(T, theta) K(T, r) at the nodes idx,
    and its tolerance."""
    bounds = d2x_bounds(table, params, idx)
    return bounds, 1e-9 * np.maximum(bounds, 1e-300)


def _d2x_summary(paths, table, params, idx):
    """max, min and violations of D_r D_theta X at the nodes idx over the
    paths, keyed d2x_max, d2x_min and d2x_violations, computed in path chunks
    (the summary keeps no D^2 X). A negative entry is a violation beyond
    rounding, 1e-12 of its own path's largest |entry|."""
    d2_bounds, d2_tol = _d2x_limits(table, params, idx)
    d2_viol = 0
    d2_max = -np.inf
    d2_min = np.inf
    chunk = max(64, 2 ** 22 // max(1, len(idx) ** 2))
    for start in range(0, paths.n_paths, chunk):
        sub = paths.subset(slice(start, min(start + chunk, paths.n_paths)))
        d2 = d2x(sub, table, params, indices=idx)
        scale = np.maximum(np.abs(d2).max(axis=(1, 2)), 1e-300)[:, None, None]
        d2_viol += int(np.sum(d2 > d2_bounds[None] + d2_tol[None])
                       + np.sum(d2 < -1e-12 * scale))
        d2_max = max(d2_max, float(d2.max()))
        d2_min = min(d2_min, float(d2.min()))
    return {"d2x_max": d2_max, "d2x_min": d2_min, "d2x_violations": d2_viol}


# ---------------------------------------------------------------------------
# singular product quadrature in theta
# ---------------------------------------------------------------------------

def phi_subgrid(n, stride=4):
    """Evaluation indices for the theta-integral: the nodes 1, 2, 3 near zero
    to resolve the theta^(1-2H) mass, then every stride-th node up to n."""
    idx = sorted({h for h in (1, 2, 3) if h < n} | set(range(stride, n + 1, stride)) | {n})
    return np.array(idx, dtype=int)


def singular_quad_weights(grid, H, indices):
    """Weights w_j with sum_j w_j f(theta_j) ~ int_0^T f, f = theta^(1-2H) psi.

    psi is interpolated linearly between the nodes and held constant on
    [0, theta_1]; moments of theta^(1-2H) are exact. Returned weights act on
    f itself (the theta^(2H-1) rescaling is folded in).
    """
    theta = np.asarray(grid)[indices]
    if np.any(theta <= 0):
        raise ValueError("quadrature nodes must be positive")
    p = 2.0 - 2.0 * H

    def mu0(a, b):
        return (b ** p - a ** p) / p

    def mu1(a, b):
        return (b ** (p + 1.0) - a ** (p + 1.0)) / (p + 1.0)

    m = len(theta)
    W = np.zeros(m)
    W[0] += mu0(0.0, theta[0])                    # constant extension of psi
    for j in range(m - 1):
        a, b = theta[j], theta[j + 1]
        h = b - a
        m0, m1 = mu0(a, b), mu1(a, b)
        W[j] += (b * m0 - m1) / h
        W[j + 1] += (m1 - a * m0) / h
    return W * theta ** (2.0 * H - 1.0)


# ---------------------------------------------------------------------------
# nested conditional estimates
# ---------------------------------------------------------------------------

def _pair_stats(x):
    """Mean and standard error over the last (inner) axis, from the means of
    the antithetic pairs (q, q + Q/2).

    The ufuncs of pair.mean(axis=-1) and pair.std(axis=-1, ddof=1) in their
    order, so the bits are theirs, without the passes of their wrappers.
    """
    half = x.shape[-1] // 2
    pair = x[..., :half] + x[..., half:]
    pair *= 0.5
    mean = np.add.reduce(pair, axis=-1, keepdims=True)
    mean /= half
    dev = np.subtract(pair, mean, out=pair)
    dev *= dev
    var = np.add.reduce(dev, axis=-1)
    var /= half - 1
    return mean[..., 0], np.sqrt(var, out=var) / np.sqrt(half)


def _group_blocks(n, ns):
    """CHUNK_OUTER blocks per task of _nested at ns s columns: as many as
    keep the task's largest temporary, the (blocks, CHUNK_OUTER, 2 + 2 ns,
    n-k+1) left factor of its GEMMs, within TASK_ELEMENTS at k = 0, and at
    most 8, so that a pass still splits into tasks for the workers. That is
    8 blocks for Phi_X at n=64 and 1 for D_s Phi_X at n=256, stride 4
    (README, Threads)."""
    return max(1, min(8, TASK_ELEMENTS // (CHUNK_OUTER * (2 + 2 * ns) * (n + 1))))


def _nested(paths: FbmPaths, table: KernelTable, params, idx, n_inner, seed,
            stage, s_idx=None):
    """Factorised nested estimates at the grid nodes idx for every path.

    Returns (est, se) of E[D_{t_k} X | F_{t_k}], each (P, m) over the nodes
    k of idx, and (est2, se2) of E[D_s D_{t_k} X | F_{t_k}] 1{s <= t_k} for s
    over the sorted grid nodes s_idx, each (P, ms, m); ms = 0 without s_idx.
    Every estimate at k = n is 0, and so is every entry with s > t_k.

    Block-major: each task of functional.run_blocks takes a group of
    _group_blocks consecutive blocks of CHUNK_OUTER paths, the last one
    zero-padded (paths.pad_rows), and walks every node of idx for them. At
    node k the conditional means N come from one product of each block's
    past Gaussians with their Volterra columns (paths.conditional_means),
    each block draws its future columns, table.width - table.past(k) per
    row, from paths.increment_stream keyed (seed, INNER, stage, k, block),
    and paths.inner_fluctuations maps the group's draws in one product.
    Inner path q of outer path p is N_p + Z_q (a fluctuation shared by the
    block), so its integrand factors as
    exp(a t_i + sigma N_{p,i}) exp(sigma Z_{q,i}) = A_{p,i} B_{q,i}. Every
    inner sum over i is then sum_i A_{p,i} c_i B_{q,i}: one GEMM per block
    and node over the columns c = [1, K(., t_k), K(., s), K(., t_k) K(., s)],
    with only the columns s <= t_k (a prefix of s_idx). The rows i < k,
    whose fluctuation is 0 as at node k, are summed into node k's column of
    the GEMM's left factor. A is scaled by the largest exponent of its path
    and B by that of its draw, which cancels in every ratio and keeps both
    factors <= 1. The products are stacked over the group's blocks, one GEMM
    per block as np.matmul forms them, so a path's estimates do not depend
    on the group size, the worker count or how many paths are drawn.
    """
    paths.require_increments()
    P, n, m = paths.n_paths, table.n, len(idx)
    ms = 0 if s_idx is None else len(s_idx)
    est, se = np.zeros((P, m)), np.zeros((P, m))
    est2, se2 = np.zeros((P, ms, m)), np.zeros((P, ms, m))
    grid = table.grid
    tau = trapezoid_weights(grid)
    sigma = params.sigma
    K = _kernel_columns(table, idx)
    Ks = _kernel_columns(table, s_idx) if ms else None

    nodes = []                                   # (c, k, ns, tauK, W, future) per node k < n
    for c, k in enumerate(idx):
        k = int(k)
        if k == n:
            continue
        ns = int(np.searchsorted(s_idx, k, side="right")) if ms else 0
        kcol = K[:, c:c + 1]
        cols = [np.ones_like(kcol), kcol]
        if ns:
            cols += [Ks[:, :ns], kcol * Ks[:, :ns]]
        tauK = tau[:, None] * np.hstack(cols)                            # (n+1, 2 + 2 ns)
        nodes.append((c, k, ns, tauK, np.ascontiguousarray(tauK[k:].T),   # W: (2 + 2 ns, n-k+1)
                      table.width - table.past(k)))
    if not nodes:
        return est, se, est2, se2
    if n_inner < 50 or n_inner % 2:
        raise ValueError(f"n_inner must be even (antithetic pairs) and >= 50, got {n_inner}")

    def group(_, start, stop):
        rows = stop - start
        nb = -(-rows // CHUNK_OUTER)
        blks = range(start // CHUNK_OUTER, start // CHUNK_OUTER + nb)
        dB = pad_rows(paths.increments, start, stop, nb * CHUNK_OUTER)
        dB = dB.reshape(nb, CHUNK_OUTER, table.width)
        for c, k, ns, tauK, W, future in nodes:
            z = np.empty((nb, n_inner // 2, future))
            for z_b, b in zip(z, blks):
                increment_stream(grid, seed, rng.INNER, stage, k, b)(z_b)
            logB = inner_fluctuations(table, k, z)
            logB *= sigma                                                # (g, Q, n-k+1)
            logB -= logB.max(axis=2, keepdims=True)
            B = np.exp(logB, out=logB)
            logA = params.a * grid + sigma * conditional_means(table, dB, k)
            logA -= logA.max(axis=2, keepdims=True)
            A = np.exp(logA, out=logA)                                   # (g, C, n+1)
            G = np.ascontiguousarray(A[..., k:])[:, :, None, :] * W      # (g, C, c, n-k+1)
            # rows i < k are the frozen past: fluctuation 0, as at node k, so
            # their B is column 0's exp(-logB_max) and their sums join column 0
            G[..., 0] += A[..., :k] @ tauK[:k]
            S = G.reshape(nb, -1, n - k + 1) @ B.transpose(0, 2, 1)
            S = S.reshape(nb * CHUNK_OUTER, -1, n_inner)[:rows]          # the real rows
            r = 1.0 / S[:, 0]                                            # (rows, Q)
            Dth = S[:, 1] * r
            est[start:stop, c], se[start:stop, c] = _pair_stats(sigma * Dth)
            if ns:
                A_all = S[:, 2:2 + ns] * r[:, None]
                T1 = S[:, 2 + ns:] * r[:, None]
                d2 = sigma ** 2 * (T1 - A_all * Dth[:, None])            # (rows, ns, Q)
                est2[start:stop, :ns, c], se2[start:stop, :ns, c] = _pair_stats(d2)

    ns_max = max(ns for _, _, ns, *_ in nodes)
    run_blocks(group, P, _group_blocks(n, ns_max) * CHUNK_OUTER)
    return est, se, est2, se2


def conditional_dx_at(paths: FbmPaths, table: KernelTable, params, k, n_inner,
                      seed, stage=0):
    """Nested estimate of E[D_{t_k} X | F_{t_k}] for every path.

    Freezes the driving increments up to node k, draws n_inner future
    fluctuations through the table (antithetic pairs, one set per block of
    CHUNK_OUTER paths), and averages the derivative. Returns (estimate,
    inner standard error), both (P,). `stage` separates the inner streams of
    independent nested runs sharing a root seed.
    """
    est, se, _, _ = _nested(paths, table, params, [k], n_inner, seed, stage)
    return est[:, 0], se[:, 0]


def block_mean_se(values):
    """Standard error of the mean over paths (axis 0) of a nested estimate.

    Paths in one CHUNK_OUTER block share their inner draws, so their inner
    errors are correlated and the per-path spread understates the error of a
    mean. The block sums are the independent units: this is the
    cluster-robust SE with one cluster per block. Needs two blocks or more.
    """
    values = np.asarray(values, dtype=float)
    blocks = list(rng.batch_ranges(values.shape[0], CHUNK_OUTER))
    if len(blocks) < 2:
        raise ValueError(f"block-mean SE needs more than {CHUNK_OUTER} paths")
    mean = values.mean(axis=0)
    dev = np.array([values[start:stop].sum(axis=0) - (stop - start) * mean
                    for _, start, stop in blocks])
    B = len(blocks)
    return np.sqrt(B / (B - 1) * (dev ** 2).sum(axis=0)) / values.shape[0]


def phi_x_batch(paths: FbmPaths, table: KernelTable, params, n_inner, seed,
                stride=4) -> MalliavinProfile:
    """Phi_X = int_0^T D_theta X * E[D_theta X | F_theta] dtheta per path.

    Nested conditional estimates on the coarsened subgrid, singular product
    quadrature in theta. Inner errors are propagated linearly through the
    quadrature weights (inner streams are independent across theta).
    """
    idx = phi_subgrid(table.n, stride=stride)
    omega = singular_quad_weights(table.grid, table.H, idx)
    D = dx(paths, table, params, indices=idx)
    cond, cond_se, _, _ = _nested(paths, table, params, idx, n_inner, seed, 0)
    phi = (D * cond) @ omega
    phi_se = np.sqrt(((omega * D * cond_se) ** 2).sum(axis=1))
    return MalliavinProfile(
        theta=table.grid[idx], dX=D, cond_dX=cond, cond_se=cond_se,
        phi=phi, phi_se=phi_se,
        meta={"indices": idx, "omega": omega, "n_inner": n_inner,
              "seed": seed, "stride": stride})


def _sweep_paths(n):
    """Paths per conditional-mean sweep: about 2^16 entries of N, so a block
    stays in cache.

    The block size is part of the bits: a node's products (C @ tau,
    C @ tauV[:, j]) may round by their row count, so another block size
    moves the results in the last bits. On 1000 paths at n=256 (seed 3,
    BLAS 1 thread), clark_ocone_residual in 500-path blocks differs from
    255-path blocks by up to 1.1e-15. So every sweep runs on full blocks,
    the last one zero-padded by paths.pad_rows."""
    return max(CHUNK_OUTER, 2 ** 16 // (n + 1))


def phi_lower_bound_terms(paths: FbmPaths, table: KernelTable, params):
    """Pathwise ingredients of the a.s. lower bound on Phi_X.

    Returns the bound

        (sigma^2/T) exp(-3|a|T + sigma min B - sigma max B + sigma min N)
            * (T^(2H+2)/(2H+2)) / max_r M_r

    with min over the conditional-mean field N_{s,theta} on theta <= s grid
    pairs and max over the grid martingale values M_r = E[F | F_r], and its
    terms, with sigma min N as sigma_minN. One conditional-lognormal sweep
    per block keeps both: M_k is the running trapezoid sum of the realized
    integrand up to t_k plus C . tau over the future rows, and sigma N of
    the future rows is L less the node's row of paths._lognormal_shift; the
    realized rows give sigma min B (B_0 = 0). The blocks run on
    functional.run_blocks.
    """
    paths.require_increments()
    a, sigma, H, T = params.a, params.sigma, params.H, params.T
    n = table.n
    minB = paths.values.min(axis=1)
    maxB = paths.values.max(axis=1)
    tau = trapezoid_weights(table.grid)
    shift = [_lognormal_shift(table, params, k)[k + 1:] for k in range(n)]

    sigma_minN = sigma * minB
    maxM = np.full(paths.n_paths, -np.inf)

    def sweep(_, start, stop):
        rows = stop - start
        dB = pad_rows(paths.increments, start, stop, _sweep_paths(n))
        # the realized integrand: the conditional lognormal mean given F_T
        E = conditional_lognormal(table, params, n, paths.values[start:stop])
        lo, hi = sigma_minN[start:stop], maxM[start:stop]
        past = np.zeros(rows)
        for k, L, C in conditional_lognormal_sweep(table, params, dB):
            past += tau[k] * E[:, k]
            np.maximum(hi, past + (C @ tau[k + 1:])[:rows], out=hi)
            if k < n:
                np.minimum(lo, (L[:rows] - shift[k]).min(axis=1), out=lo)

    run_blocks(sweep, paths.n_paths, _sweep_paths(n))
    const = T ** (2.0 * H + 2.0) / (2.0 * H + 2.0)
    bound = (sigma ** 2 / T) * np.exp(-3.0 * abs(a) * T + sigma * minB
                                      - sigma * maxB + sigma_minN) * const / maxM
    return bound, {"minB": minB, "maxB": maxB, "sigma_minN": sigma_minN, "maxM": maxM}


# ---------------------------------------------------------------------------
# derivative checks
# ---------------------------------------------------------------------------

def derivative_summary(paths: FbmPaths, table: KernelTable, params, n_inner, seed,
                       stride=4) -> dict:
    """What the derivative reports read, as arrays: per path ln F and Phi_X;
    the subgrid indices; the range_summary of D_theta X, E[D_theta X |
    F_theta] and Phi_X, keyed dx_, cond_ and phi_<field>; the least Phi_X
    minus its lower bound and that bound's violations, Phi_X below it by
    more than Z phi_se + 1e-9 sigma^2 T^2H; and the D^2 X summary."""
    prof = phi_x_batch(paths, table, params, n_inner, seed, stride=stride)
    idx = np.asarray(prof.meta["indices"])
    bounds = dx_bounds(table, params, idx)
    s2T = params.sigma ** 2 * params.T ** (2 * params.H)
    phi, phi_se = prof.phi, prof.phi_se
    lower, _ = phi_lower_bound_terms(paths, table, params)
    d2 = _d2x_summary(paths, table, params, idx)

    def keyed(name, summary):
        return {f"{name}_{k}": v for k, v in summary.items()}

    return {"lnF": LogFunctional(paths, params).lnF, "phi": phi, "indices": idx,
            **keyed("dx", range_summary(prof.dX, bounds)),
            **keyed("cond", range_summary(prof.cond_dX, bounds, prof.cond_se)),
            **keyed("phi", range_summary(phi, s2T, phi_se)),
            "phi_lower_min": (phi - lower).min(),
            "phi_lower_violations": int(np.sum(phi < lower - Z * phi_se - 1e-9 * s2T)),
            **d2}


def derivative_reports(summary, table: KernelTable, params):
    """The reports dx_range, cond_dx_range, phi_upper, phi_lower and
    d2x_range from a derivative_summary."""
    idx = summary["indices"].astype(int)
    bounds = dx_bounds(table, params, idx)
    theta = table.grid[idx]
    s2T = params.sigma ** 2 * params.T ** (2 * params.H)
    n_paths = len(summary["phi"])

    def from_summary(name, bound_id, description, points, bound):
        return summary_report(bound_id, description, points, summary[f"{name}_max"],
                              bound, summary[f"{name}_violations"], n_paths,
                              se=summary.get(f"{name}_se_max", 0.0))

    d2_bounds, d2_tol = _d2x_limits(table, params, idx)
    return [
        from_summary("dx", "dx_range", "0 <= D_theta X <= sigma K(T, theta)",
                     theta, bounds),
        from_summary("cond", "cond_dx_range",
                     "0 <= E[D_theta X | F_theta] <= sigma K(T, theta)", theta, bounds),
        from_summary("phi", "phi_upper", "0 <= Phi_X <= sigma^2 T^2H", [0.0], s2T),
        # Phi_X - lower >= 0 within Z SE; the tolerance 0 + Z se is the
        # largest of the paths' Z phi_se
        summary_report("phi_lower",
                       ("Phi_X >= (sigma^2/T) e^{-3|a|T + sigma(min B - max B + "
                        "min N)} T^(2H+2)/((2H+2) max M)"),
                       [0.0], summary["phi_lower_min"], 0.0,
                       summary["phi_lower_violations"], n_paths,
                       se=summary["phi_se_max"]),
        summary_report("d2x_range", "0 <= D_r D_theta X <= 2 sigma^2 K(T,theta) K(T,r)",
                       [0.0], summary["d2x_max"], d2_bounds.max(),
                       summary["d2x_violations"], n_paths, tolerance=d2_tol.max(),
                       meta={"min_entry": float(summary["d2x_min"])})]


# ---------------------------------------------------------------------------
# Clark-Ocone residual
# ---------------------------------------------------------------------------

def clark_ocone_residual(paths: FbmPaths, table: KernelTable, params):
    """Residual of the martingale representation on the grid.

    residual = (F - E[F]) - sum_c E[dF/d(dB_c) | F_{t_{m(c) - 1}}] dB_c

    over the columns c of the table, m(c) the node from which dB_c is known.
    The integrand is evaluated in closed form (conditional lognormal means
    with the discrete model's conditional variance) at the node before its
    column enters the past (for a cell, its left endpoint), so each term is
    exactly adapted and the residual has exact zero mean under the discrete
    model; its variance measures the within-cell chaos left out by the
    first-order representation and must shrink with grid refinement.

    One conditional-lognormal sweep per block: at node k the integrand of
    each column c that enters the past at k + 1 is G_c = sigma C .
    (tau V[:, c]) over the rows i > k (V[i, c] = 0 for i <= k), and
    E[F] = M_0.
    """
    paths.require_increments()
    n = table.n
    tau = trapezoid_weights(table.grid)
    tauV = tau[:, None] * table.volterra_matrix
    EF = float(conditional_lognormal(table, params, 0, np.zeros((1, n + 1)))[0] @ tau)

    res = np.empty(paths.n_paths)

    def sweep(_, start, stop):
        rows = stop - start
        dB = pad_rows(paths.increments, start, stop, _sweep_paths(n))
        dBt = np.ascontiguousarray(paths.increments[start:stop].T)
        acc = np.zeros(rows)
        sweep_nodes = conditional_lognormal_sweep(table, params, dB)
        for (k, _, C), columns in zip(sweep_nodes, table.entering[1:]):
            # the padded rows are cut before the multiply: their C may be
            # inf, and inf * 0 would be an invalid operation
            for c in columns:
                acc += (C @ tauV[k + 1:, c])[:rows] * dBt[c]
        F = np.exp(LogFunctional(paths.subset(slice(start, stop)), params).lnF)
        res[start:stop] = (F - EF) - params.sigma * acc

    run_blocks(sweep, paths.n_paths, _sweep_paths(n))
    return res


def clark_ocone_report(paths: FbmPaths, table: KernelTable, params):
    """The clark_ocone bound: the residual's mean is 0 within Z SE."""
    res = clark_ocone_residual(paths, table, params)
    se = res.std(ddof=1) / np.sqrt(len(res))
    return point_report(
        "clark_ocone", f"mean martingale-representation residual = 0 within {Z:g} SE",
        [0.0], [float(res.mean())], [0.0], [float(se)], len(res), "both",
        meta={"residual_var": float(res.var(ddof=1))})


# ---------------------------------------------------------------------------
# D_s Phi_X bound check (doubly nested)
# ---------------------------------------------------------------------------

def dphi_bound_check(paths: FbmPaths, table: KernelTable, params, n_inner,
                     seed, stride=4) -> dict:
    """Estimate D_s Phi_X and verify its displayed bounds.

    D_s Phi_X = int D_s D_theta X * E[D_theta X|F_theta] dtheta
              + int_s^T D_theta X * E[D_s D_theta X|F_theta] dtheta

    Both conditional factors come from the same inner draws per theta.
    E[D_theta X|F_theta] is F_theta-measurable, so its D_s is
    E[D_s D_theta X|F_theta] 1{s <= theta} (Nualart 2006, Prop. 1.2.8).
    Checks 0 <= D_s Phi_X <= 4 sigma^3 K(T,s) T^2H and
    0 <= int D_s Phi_X E[D_s X|F_s] ds <= 4 sigma^4 T^4H within combined
    inner-MC error. Runs on the first DPHI_PATHS paths; the reports carry
    the covered fraction.
    """
    paths.require_increments()
    coverage = 1.0
    if paths.n_paths > DPHI_PATHS:
        coverage = DPHI_PATHS / paths.n_paths
        paths = paths.subset(slice(0, DPHI_PATHS))

    idx = phi_subgrid(table.n, stride=stride)
    omega = singular_quad_weights(table.grid, table.H, idx)
    sigma = params.sigma
    Kcols = _kernel_columns(table, idx)

    D = dx(paths, table, params, indices=idx)
    D2 = d2x(paths, table, params, indices=idx)
    cond, cond_se, cond2, cond2_se = _nested(paths, table, params, idx, n_inner,
                                             seed, 1, idx)        # cond2[p, s, theta]

    term_a = np.einsum("t,pst,pt->ps", omega, D2, cond)
    term_b = np.einsum("t,pt,pst->ps", omega, D, cond2)
    dphi = term_a + term_b
    se_a = np.sqrt(np.einsum("t,pst,pt->ps", omega ** 2, D2 ** 2, cond_se ** 2))
    se_b = np.sqrt(np.einsum("t,pt,pst->ps", omega ** 2, D ** 2, cond2_se ** 2))
    dphi_se = se_a + se_b

    bound_s = 4.0 * sigma ** 3 * Kcols[-1] * params.T ** (2.0 * params.H)
    integral = np.einsum("s,ps,ps->p", omega, dphi, cond)
    int_se = np.einsum("s,ps,ps->p", omega, np.abs(dphi_se), np.abs(cond)) \
        + np.einsum("s,ps,ps->p", omega, np.abs(dphi), cond_se)
    report_s = range_report(
        "dphi_upper", "0 <= D_s Phi_X <= 4 sigma^3 K(T,s) T^(2H)", dphi, bound_s,
        dphi_se, points=table.grid[idx],
        meta={"coverage": coverage, "n_inner": n_inner, "stride": stride})
    report_i = range_report(
        "dphi_integral_upper",
        "0 <= int D_s Phi_X E[D_s X|F_s] ds <= 4 sigma^4 T^(4H)", integral,
        4.0 * sigma ** 4 * params.T ** (4.0 * params.H), int_se,
        meta={"coverage": coverage})
    return {"dphi": dphi, "dphi_se": dphi_se, "integral": integral,
            "cond": cond, "cond_se": cond_se, "cond2": cond2, "cond2_se": cond2_se,
            "reports": [report_s, report_i], "indices": idx}
