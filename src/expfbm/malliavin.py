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
_nested: at each subgrid node and each block of CHUNK_OUTER paths (the last
one zero-padded by paths.pad_rows) it forms N as one product of the
block's past increments with the Volterra columns (paths.conditional_means),
draws one inner set Z for the block and forms every inner sum in one GEMM
of A with B^T. Per-path estimates and
their inner SEs keep their law, but the paths of one block share inner
noise: the SE of a mean over paths must come from block means
(block_mean_se).

The Clark-Ocone residual and the pathwise lower bound on Phi_X walk the whole
triangle of nodes k <= i. Both run on paths.conditional_lognormal_sweep,
which yields at every node the conditional lognormal means
C_i = E[exp(a t_i + sigma B_i) | F_{t_k}] of the rows i > k and carries
their exponent L by one rank-2 update per node (O(P n) per node, no
(P, n+1, n) temporary). Both passes sweep blocks of _sweep_paths(n) paths
(paths.pad_rows) on the worker threads of functional.run_blocks
(README, Threads), one sweep per block. The lower bound's
M_k = E[F | F_{t_k}] is the realized past plus C . tau, and its min of the
conditional means N[p, i, k] = E[B_{t_i} | F_{t_k}] is read off L; E[F] = M_0,
and the Clark-Ocone integrand of cell k is sigma C . (tau V[:, k]).

Grid conventions: the pointwise derivative diverges like theta^(1/2-H) as
theta -> 0, so index 0 of derivative arrays stores the first-cell average
(the derivative with respect to the first Brownian increment, normalized by
dt), with the matching cell-averaged upper bound. Index n is exact (value 0).
The theta-integral of Phi_X uses a product-trapezoid rule with weight
theta^(1-2H) and exact moments, which integrates the left-end singularity of
the integrand instead of truncating it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .functional import LogFunctional, run_blocks
from .kernel import KernelTable
from .paths import (FbmPaths, _lognormal_shift, conditional_lognormal,
                    conditional_lognormal_sweep, conditional_means, inner_fluctuations,
                    map_rows, pad_rows, trapezoid_weights)
from .reports import range_report

CHUNK_OUTER = 128          # outer paths per nested-MC block (fixed: part of the
                           # determinism contract, stream keys include the block)


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
    rounding would decide the sign.
    """
    if indices is None:
        indices = np.arange(1, table.n + 1)
    w = LogFunctional(paths, params).weights
    K = _kernel_columns(table, indices)
    wK = map_rows(w, K)                          # the Gibbs means, as dx forms them
    out = np.empty((paths.n_paths, K.shape[1], K.shape[1]))
    for _, start, stop in rng.batch_ranges(paths.n_paths, max(1, 2 ** 18 // K.size)):
        C = K - wK[start:stop, None, :]                      # (c, n+1, m)
        C *= np.sqrt(w[start:stop])[:, :, None]
        np.matmul(C.transpose(0, 2, 1), C, out=out[start:stop])
    out *= params.sigma ** 2
    return out


def d2x_bounds(table: KernelTable, params, indices):
    """2 sigma^2 K(T,theta) K(T,r) on the same index convention."""
    cols = _kernel_columns(table, indices)[-1]
    return 2.0 * params.sigma ** 2 * cols[:, None] * cols[None, :]


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


def _nested(paths: FbmPaths, table: KernelTable, params, idx, n_inner, seed,
            stage, s_idx=None):
    """Factorised nested estimates at the grid nodes idx for every path.

    Returns (est, se) of E[D_{t_k} X | F_{t_k}], each (P, m) over the nodes
    k of idx, and (est2, se2) of E[D_s D_{t_k} X | F_{t_k}] 1{s <= t_k} for s
    over the sorted grid nodes s_idx, each (P, ms, m); ms = 0 without s_idx.
    Every estimate at k = n is 0, and so is every entry with s > t_k.

    At each node k of idx and each block of CHUNK_OUTER paths, the
    conditional means N come from one product of the block's increments
    before t_k with the Volterra columns (paths.conditional_means); the last
    block is zero-padded to CHUNK_OUTER rows (paths.pad_rows), so a path's
    estimates do not depend on how many paths are drawn. Inner
    path q of outer path p is N_p + Z_q (a fluctuation shared by the block),
    so its integrand factors as exp(a t_i + sigma N_{p,i}) exp(sigma Z_{q,i})
    = A_{p,i} B_{q,i}. Every inner sum over i is then sum_i A_{p,i} c_i B_{q,i}:
    one GEMM per block and node over the columns c = [1, K(., t_k), K(., s),
    K(., t_k) K(., s)], with only the columns s <= t_k (a prefix of s_idx).
    The rows i < k, whose fluctuation is 0 as at node k, are summed into
    node k's column of the GEMM's left factor.
    A is scaled by the largest exponent of its path and B by that of its
    draw, which cancels in every ratio and keeps both factors <= 1.
    """
    paths.require_increments()
    P, n, m = paths.n_paths, table.n, len(idx)
    ms = 0 if s_idx is None else len(s_idx)
    est, se = np.zeros((P, m)), np.zeros((P, m))
    est2, se2 = np.zeros((P, ms, m)), np.zeros((P, ms, m))
    nodes = [(c, int(k)) for c, k in enumerate(idx) if k < n]
    if not nodes:
        return est, se, est2, se2
    if n_inner < 50:
        raise ValueError("n_inner must be >= 50")

    grid = table.grid
    tau = trapezoid_weights(grid)
    sigma = params.sigma
    K = _kernel_columns(table, idx)
    Ks = _kernel_columns(table, s_idx) if ms else None

    for c, k in nodes:
        ns = int(np.searchsorted(s_idx, k, side="right")) if ms else 0
        kcol = K[:, c:c + 1]
        cols = [np.ones_like(kcol), kcol]
        if ns:
            cols += [Ks[:, :ns], kcol * Ks[:, :ns]]
        tauK = tau[:, None] * np.hstack(cols)                            # (n+1, 2 + 2 ns)
        W = np.ascontiguousarray(tauK[k:].T)                             # (2 + 2 ns, n-k+1)
        for blk, start, stop in rng.batch_ranges(P, CHUNK_OUTER):
            gen = rng.stream(seed, rng.INNER, stage, k, blk)
            logB = sigma * inner_fluctuations(table, k, n_inner, gen)    # (Q, n-k+1)
            logB_max = logB.max(axis=1)
            B = np.exp(logB - logB_max[:, None])
            dB = pad_rows(paths.increments, start, stop, CHUNK_OUTER)
            logA = params.a * grid + sigma * conditional_means(table, dB, k)
            A = np.exp(logA - logA.max(axis=1, keepdims=True))           # (C, n+1)
            G = np.ascontiguousarray(A[:, k:])[:, None, :] * W[None]     # (C, c, n-k+1)
            # rows i < k are the frozen past: fluctuation 0, as at node k, so
            # their B is column 0's exp(-logB_max) and their sums join column 0
            G[:, :, 0] += A[:, :k] @ tauK[:k]
            S = (G.reshape(-1, n - k + 1) @ B.T).reshape(CHUNK_OUTER, -1, n_inner)
            S = S[: stop - start]                                        # the real rows
            r = 1.0 / S[:, 0]                                            # (C, Q)
            Dth = S[:, 1] * r
            est[start:stop, c], se[start:stop, c] = _pair_stats(sigma * Dth)
            if ns:
                A_all = S[:, 2:2 + ns] * r[:, None]
                T1 = S[:, 2 + ns:] * r[:, None]
                d2 = sigma ** 2 * (T1 - A_all * Dth[:, None])            # (C, ns, Q)
                est2[start:stop, :ns, c], se2[start:stop, :ns, c] = _pair_stats(d2)
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
# Clark-Ocone residual
# ---------------------------------------------------------------------------

def clark_ocone_residual(paths: FbmPaths, table: KernelTable, params):
    """Residual of the martingale representation on the grid.

    residual = (F - E[F]) - sum_j E[dF/d(dB_j) | F_{j-1}] dB_j

    The integrand is evaluated in closed form (conditional lognormal means
    with the discrete model's conditional variance) at the left endpoint of
    each cell, so each term is exactly adapted and the residual has exact
    zero mean under the discrete model; its variance measures the
    within-cell chaos left out by the first-order representation and must
    shrink with grid refinement.

    One conditional-lognormal sweep per block: at node j the integrand is
    G_j = sigma C . (tau V[:, j]) over the rows i > j (V[i, j] = 0 for
    i <= j), and E[F] = M_0.
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
        for j, _, C in conditional_lognormal_sweep(table, params, dB):
            if j == n:
                break
            # the padded rows are cut before the multiply: their C may be
            # inf, and inf * 0 would be an invalid operation
            acc += (C @ tauV[j + 1:, j])[:rows] * dBt[j]
        F = np.exp(LogFunctional(paths.subset(slice(start, stop)), params).lnF)
        res[start:stop] = (F - EF) - params.sigma * acc

    run_blocks(sweep, paths.n_paths, _sweep_paths(n))
    return res


# ---------------------------------------------------------------------------
# D_s Phi_X bound check (doubly nested)
# ---------------------------------------------------------------------------

def dphi_bound_check(paths: FbmPaths, table: KernelTable, params, n_inner,
                     seed, stride=4, max_paths=None) -> dict:
    """Estimate D_s Phi_X and verify its displayed bounds.

    D_s Phi_X = int D_s D_theta X * E[D_theta X|F_theta] dtheta
              + int_s^T D_theta X * E[D_s D_theta X|F_theta] dtheta

    Both conditional factors come from the same inner draws per theta.
    E[D_theta X|F_theta] is F_theta-measurable, so its D_s is
    E[D_s D_theta X|F_theta] 1{s <= theta} (Nualart 2006, Prop. 1.2.8).
    Checks 0 <= D_s Phi_X <= 4 sigma^3 K(T,s) T^2H and
    0 <= int D_s Phi_X E[D_s X|F_s] ds <= 4 sigma^4 T^4H within combined
    inner-MC error. Honors a path budget; the report carries the coverage
    fraction when truncated.
    """
    paths.require_increments()
    P_all = paths.n_paths
    coverage = 1.0
    if max_paths is not None and P_all > max_paths:
        coverage = max_paths / P_all
        paths = paths.subset(slice(0, max_paths))

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
