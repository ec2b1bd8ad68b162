"""The exponential functional F = int_0^T exp(a s + sigma B^H_s) ds and its moments.

Per-path values use the trapezoid rule on the shared grid: the integrand
inherits the Holder roughness of the path (exponent < H), so higher-order
rules buy nothing and grid refinement is the accuracy knob. Analytic moment
oracles integrate the exact Gaussian-moment integrands by the graded
Gauss-Legendre rule of kernel (graded_quad), refined toward the ends where
the s^2H and |t-s|^2H kinks sit.

LogFunctional computes them in the log domain: with
x_i = a t_i + sigma B_i and trapezoid weights tau_i, ln F = log sum_i tau_i
exp(x_i) and the Gibbs weights are w_i = tau_i exp(x_i) / F. The Malliavin
derivatives of X = ln F - E[ln F] are moments under w: D_theta X = sigma
sum_i w_i K(t_i, theta), and D_r D_theta X is sigma^2 times the covariance
of K(., theta) and K(., r) under w (see malliavin). Both stay finite at any
sigma >= 0, where F itself may overflow.

sample_lnF is the ln F of a whole sample (the outer batch and the centering
paths): rng batches on a few worker threads (run_blocks), each streamed from
its increments through the Volterra map to ln F block by block, with the
bits of LogFunctional on the whole path array and no such array formed.
"""
from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng
from .kernel import QUAD_DEPTH, HurstParams, graded_quad, graded_rule
from .paths import MAP_BLOCK, FbmPaths, increment_stream, trapezoid_weights
from .reports import write_columns

# Most threads of run_blocks.
MAX_WORKERS = 3

# The variables each BLAS reads for its thread count, first to last (any
# other BLAS: all three).
BLAS_THREAD_VARS = {"openblas": ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"),
                    "mkl": ("MKL_NUM_THREADS", "OMP_NUM_THREADS")}


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


def analytic_mean_F(params: ModelParams) -> float:
    """E[F] = int_0^T exp(a s + sigma^2 s^2H / 2) ds to ~1e-15 relative."""
    a, sigma, H, T = params.a, params.sigma, params.H, params.T
    val, _ = graded_quad(lambda s: np.exp(a * s + 0.5 * sigma ** 2 * s ** (2.0 * H)),
                         T, QUAD_DEPTH)
    return val


def analytic_second_moment_F(params: ModelParams) -> float:
    """E[F^2] via the bivariate Gaussian moment, ~1e-13 relative.

    Integrates twice over the triangle s < t, as the square (t, u) with
    s = u t, where Var(B^H_s + B^H_t) = t^2H (2 + 2 u^2H - (1-u)^2H): the
    kinks of u^2H and |t-s|^2H sit at u = 0 and u = 1, the refined ends of
    the graded tensor rule.
    """
    a, sigma, H, T = params.a, params.sigma, params.H, params.T
    h2 = 2.0 * H
    t, wt = graded_rule(T, QUAD_DEPTH)
    u, wu = graded_rule(1.0, QUAD_DEPTH)
    g = np.exp(np.multiply.outer(a * t, 1.0 + u)
               + np.multiply.outer(0.5 * sigma ** 2 * t ** h2,
                                   2.0 + 2.0 * u ** h2 - (1.0 - u) ** h2))
    return 2.0 * float((t * wt) @ (g @ wu))


def deterministic_lnF(params: ModelParams) -> float:
    """ln F for the sigma = 0 limit (exact)."""
    a, T = params.a, params.T
    if a == 0.0:
        return float(np.log(T))
    return float(np.log(np.expm1(a * T) / a))      # exp(aT) - 1 is 0 for tiny a


def _blas_build():
    """Name and version of the BLAS that numpy was built with, both None
    where numpy does not report them: an older numpy has no
    show_config(mode="dicts"), or no "Build Dependencies" entry in it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": None, "version": None}
    return {"name": blas.get("name"), "version": blas.get("version")}


def _blas_threads(name, environ, cpus):
    """The thread count a BLAS called name runs with under environ: the first
    of its variables in BLAS_THREAD_VARS set to a positive integer, else one
    thread per usable CPU, and never more than cpus (OpenBLAS caps it there)."""
    names = next((v for k, v in BLAS_THREAD_VARS.items() if k in str(name).lower()),
                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    values = (environ.get(var, "").strip() for var in names)
    threads = next((int(v) for v in values if v.isdigit() and int(v) > 0), cpus)
    return min(threads, cpus)


# The BLAS reads its thread variables once, when numpy loads it, so they are
# read here, at import, and a later change to os.environ does not move them.
BLAS = _blas_build()
BLAS["threads"] = _blas_threads(BLAS["name"], os.environ,
                                len(os.sched_getaffinity(0)))


def blas_setup():
    """Name, version and thread count of the BLAS numpy runs on: a copy of
    BLAS, whose thread count is that of the environment at import."""
    return dict(BLAS)


def _workers(n_blocks):
    """Threads for a pass of n_blocks blocks: one per usable CPU that the
    BLAS threads leave free, at most one per block and MAX_WORKERS, at least
    one. Worker threads that share a CPU with BLAS threads make the passes
    slower (README, Threads)."""
    free = len(os.sched_getaffinity(0)) // BLAS["threads"]
    return max(1, min(free, n_blocks, MAX_WORKERS))


def run_blocks(work, n, block=rng.BATCH):
    """Call work(b, start, stop) for every block of rng.batch_ranges(n,
    block) on _workers threads, this one among them: each takes the next
    block under a lock, so with one worker the blocks run here, in order.

    The blocks must be independent: each writes only its own rows, and any
    stream it draws is keyed by its block, so the result is bit-identical for
    any worker count. numpy releases the GIL in its large array operations,
    so the threads overlap. Each worker runs in a copy of the caller's
    context, so the caller's np.errstate holds in every block. work must
    call no function that perfbench traces: its span stack belongs to the
    main thread. The first exception of a block is raised here once every
    thread has stopped.
    """
    blocks = list(rng.batch_ranges(n, block))
    todo = iter(blocks)
    lock = threading.Lock()
    errors = []

    def take():
        while not errors:
            with lock:                  # two threads must not take one block
                blk = next(todo, None)
            if blk is None:
                return
            try:
                work(*blk)
            except BaseException as exc:        # raised on the calling thread
                errors.append(exc)

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(take,))
               for _ in range(_workers(len(blocks)) - 1)]
    for t in threads:
        t.start()
    take()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def sample_lnF(params: ModelParams, table, n_paths, seed, purpose=rng.OUTER):
    """ln F of every path: LogFunctional(sample_fbm_volterra(table, n_paths,
    seed, purpose), params).lnF, bit for bit, without the path array.

    The batches of rng.batch_ranges run on run_blocks. A worker draws its
    batch from the batch's stream MAP_BLOCK rows at a time, straight into one
    (MAP_BLOCK, table.width) scratch whose tail past a short draw is zeroed,
    so each block is mapped as paths.map_rows maps it, and reduces it to ln F
    at once.
    """
    Vt = table.volterra_matrix.T
    lnF = np.empty(n_paths)

    def work(b, start, stop):
        draw = increment_stream(table.grid, seed, purpose, b)
        block = np.empty((MAP_BLOCK, table.width))
        out = np.empty((MAP_BLOCK, table.n + 1))
        for lo in range(start, stop, MAP_BLOCK):
            rows = min(MAP_BLOCK, stop - lo)
            draw(block[:rows])
            block[rows:] = 0.0
            values = np.matmul(block, Vt, out=out)[:rows]
            paths = FbmPaths(table.grid, values, None, seed, "volterra")
            lnF[lo:lo + rows] = LogFunctional(paths, params).lnF

    run_blocks(work, n_paths)
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

    Quadrature-consistency diagnostic: the differences must shrink as the
    grid is refined."""
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


def write_samples_csv(path, lnF, params: ModelParams,
                      centering: CenteringEstimate, header_meta=None):
    """(path_id, F, lnF, X) rows with full provenance header; F = exp(ln F)
    (inf where it overflows) and X = ln F - centering.value."""
    meta = dict(header_meta or {})
    meta.update({
        "drift_a": params.a, "sigma_vol": params.sigma,
        "hurst_H": params.H, "horizon_T": params.T,
        "centering_mean_lnF": centering.value, "centering_se": centering.se,
        "centering_paths": centering.n_paths,
    })
    lnF = np.asarray(lnF, dtype=float)
    write_columns(path, ["path_id", "F", "lnF", "X"],
                  [np.arange(len(lnF)), np.exp(lnF), lnF, lnF - centering.value],
                  comments=meta)
