"""The exponential functional F = int_0^T exp(a s + sigma B^H_s) ds and its moments.

Per-path values use the trapezoid rule on the shared grid: the integrand
inherits the Holder roughness of the path (exponent < H), so higher-order
rules buy nothing and grid refinement is the accuracy knob. Analytic moment
oracles use adaptive quadrature of the exact Gaussian-moment integrands.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import rng
from .kernel import HurstParams, covariance
from .paths import FbmPaths, trapezoid_weights


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


def functional_F(paths: FbmPaths, params: ModelParams) -> np.ndarray:
    """Trapezoid value of the exponential functional per path (always > 0)."""
    grid = paths.grid
    tau = trapezoid_weights(grid)
    E = np.exp(params.a * grid[None, :] + params.sigma * paths.values)
    return E @ tau


def pathwise_bracket(paths: FbmPaths, params: ModelParams):
    """(lower, upper) bounds T*exp(-|a|T + sigma*min B) <= F <= T*exp(|a|T + sigma*max B)."""
    T = params.T
    lo = T * np.exp(-abs(params.a) * T + params.sigma * paths.values.min(axis=1))
    hi = T * np.exp(abs(params.a) * T + params.sigma * paths.values.max(axis=1))
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
    return float(np.log((np.exp(a * T) - 1.0) / a))


def estimate_mean_lnF(params: ModelParams, table, n_paths, seed) -> CenteringEstimate:
    """Frozen centering constant for X = ln F - E[ln F].

    One estimate per experiment; downstream consumers reuse it instead of
    re-centering per batch, which would correlate the centering noise with
    the quantities being tested.
    """
    if params.sigma == 0.0:
        return CenteringEstimate(value=deterministic_lnF(params), se=0.0,
                                 n_paths=0, seed=seed)
    if n_paths < 1000:
        raise ValueError("centering estimate needs at least 1000 paths")
    total = 0.0
    total_sq = 0.0
    done = 0
    for b, start, stop in rng.batch_ranges(n_paths):
        incr = rng.stream(seed, rng.CENTERING, b).standard_normal(
            (stop - start, table.n)) * np.sqrt(table.dt)
        values = incr @ table.volterra_matrix.T
        lnF = np.log(functional_F(
            FbmPaths(table.grid, values, incr, seed, "volterra"), params))
        total += lnF.sum()
        total_sq += (lnF ** 2).sum()
        done += stop - start
    mean = total / done
    var = max(total_sq / done - mean ** 2, 0.0)
    return CenteringEstimate(value=float(mean), se=float(np.sqrt(var / done)),
                             n_paths=done, seed=seed)


def refinement_diffs(values_fine, grid_fine, params: ModelParams, levels=3):
    """|F(coarse) - F(fine)| on nested coarsenings of one fixed path.

    Quadrature-consistency diagnostic recorded in batch metadata: the
    differences must shrink as the grid is refined.
    """
    diffs = []
    nf = len(grid_fine) - 1
    pf = FbmPaths(grid_fine, np.atleast_2d(values_fine), None, None, "fixed")
    f_fine = float(functional_F(pf, params)[0])
    for lvl in range(levels, 0, -1):
        step = 2 ** lvl
        if nf % step:
            raise ValueError("fine grid size must be divisible by 2^levels")
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
    with open(path, "w", newline="") as fh:
        for key in sorted(meta):
            fh.write(f"# {key}={meta[key]}\n")
        writer = csv.writer(fh)
        writer.writerow(["path_id", "F", "lnF", "X"])
        for p in range(len(F)):
            writer.writerow([p, repr(float(F[p])), repr(float(lnF[p])),
                             repr(float(X[p]))])
