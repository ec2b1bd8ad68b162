"""Monte Carlo density estimation for X = ln F - E[ln F] and tail-bound checks.

The density is always estimated in the log domain and transported to F by the
exact change of variables rho_F(x) = rho_X(ln x - m)/x, avoiding boundary bias
at F ~ 0. The estimator is a binned Gaussian-convolution KDE so that bootstrap
standard errors (multinomial resampling of the bin counts) stay cheap at 1e6
samples.

Envelope bounds carry an existential constant, so verification is formulated
as boundedness of the implied-constant profile c_hat(x): the profile must not
explode toward the tails (outer-third max <= 1.5 * inner-third max beyond
reports.Z SE on the resolved range).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .functional import CenteringEstimate, ModelParams, sample_lnF
from .kernel import KernelTable
from .reports import Z, BoundReport, point_report

MIN_TAIL_COUNT = 50        # local samples below this: inconclusive, not failed
KDE_GRID = 512             # output nodes of kde_log_domain
KDE_FINE_BINS = 4096       # histogram bins the KDE convolves
KDE_MIN_SAMPLES = 10_000   # samples that kde_log_domain needs
W_MIN_SAMPLES = 10_000     # joint samples (X, Phi_X) that estimate_w_X needs


@dataclass
class SampleBatch:
    """Reproducible batch of ln F draws with provenance; X and F are formed
    from ln F on use."""

    lnF: np.ndarray
    params: ModelParams
    centering: CenteringEstimate
    meta: dict = field(default_factory=dict)

    @property
    def X(self):
        """ln F - E[ln F], with the batch's frozen centering constant."""
        return self.lnF - self.centering.value

    @property
    def F(self):
        """exp(ln F); inf where F overflows, while ln F and X stay finite."""
        return np.exp(self.lnF)

    @property
    def n_samples(self):
        return len(self.lnF)


@dataclass
class DensityEstimate:
    """KDE output on an automatic grid, with bootstrap pointwise SEs."""

    domain: str                  # "X" or "F"
    x: np.ndarray
    density: np.ndarray
    bandwidth: float
    n_samples: int
    se: np.ndarray
    local_counts: np.ndarray     # samples within +-3 bandwidths of each node
    point_mass: bool = False
    meta: dict = field(default_factory=dict)

    @property
    def mass(self):
        return float(np.trapezoid(self.density, self.x))

    def to_dict(self):
        return {"domain": self.domain, "x": self.x.tolist(),
                "density": self.density.tolist(), "se": self.se.tolist(),
                "bandwidth": float(self.bandwidth),
                "n_samples": int(self.n_samples),
                "local_counts": self.local_counts.tolist(),
                "point_mass": bool(self.point_mass)}


def sample_X_batch(params: ModelParams, table: KernelTable, n_paths, seed,
                   centering: CenteringEstimate) -> SampleBatch:
    """Draw n_paths values of (ln F, X) through the Volterra map.

    The centering constant must be frozen beforehand; every X in the batch
    uses the same constant. ln F comes from functional.sample_lnF: worker
    threads hold one batch of increments each and no path array, and the
    ln F of path p is bit-identical to LogFunctional on
    sample_fbm_volterra(table, P, seed) for any P > p. The sample moments
    need n_paths >= 2.
    """
    if n_paths < 2:
        raise ValueError(f"the sample needs outer_paths >= 2, got {n_paths}")
    batch = SampleBatch(lnF=sample_lnF(params, table, n_paths, seed), params=params,
                        centering=centering)
    F, X = batch.F, batch.X
    batch.meta.update(mean_F=float(F.mean()), var_F=float(F.var(ddof=1)),
                      mean_X=float(X.mean()), var_X=float(X.var(ddof=1)))
    return batch


def silverman_bandwidth(x):
    sd = np.std(x)
    q75, q25 = np.percentile(x, [75, 25])
    spread = min(sd, (q75 - q25) / 1.34)
    return 0.9 * spread * len(x) ** (-0.2)


def kde_log_domain(samples, n_boot=100, seed=0) -> DensityEstimate:
    """Gaussian KDE (Silverman bandwidth) of the X samples on range +- 3 bandwidths.

    Degenerate input (zero spread, the sigma = 0 limit) returns a point-mass
    flagged estimate instead of a density.
    """
    x = np.asarray(samples, dtype=float)
    if len(x) < KDE_MIN_SAMPLES:
        raise ValueError(f"density estimation needs at least {KDE_MIN_SAMPLES} samples")
    if n_boot < 2:
        raise ValueError(f"the bootstrap SE needs n_boot (kde_bootstrap) >= 2, got {n_boot}")
    if np.ptp(x) < 1e-12 or np.std(x) < 1e-12:
        loc = float(np.median(x))
        return DensityEstimate(
            domain="X", x=np.array([loc]), density=np.array([np.inf]),
            bandwidth=0.0, n_samples=len(x), se=np.array([0.0]),
            local_counts=np.array([len(x)]), point_mass=True)

    h = silverman_bandwidth(x)
    lo, hi = x.min() - 3.0 * h, x.max() + 3.0 * h
    counts, edges = np.histogram(x, bins=KDE_FINE_BINS, range=(lo, hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    bw_bins = (hi - lo) / KDE_FINE_BINS
    half = int(np.ceil(5.0 * h / bw_bins))
    offsets = np.arange(-half, half + 1) * bw_bins
    kern = np.exp(-0.5 * (offsets / h) ** 2)
    kern /= kern.sum() * bw_bins

    def smooth(c):
        return np.convolve(c, kern, mode="same") * bw_bins / (len(x) * bw_bins)

    dens_fine = smooth(counts)
    grid = np.linspace(lo, hi, KDE_GRID)
    dens = np.interp(grid, centers, dens_fine)

    # every replicate in one draw: the draws of n_boot single calls
    reps = rng.stream(seed, rng.BOOTSTRAP).multinomial(len(x), counts / counts.sum(),
                                                       size=n_boot)
    se = np.array([np.interp(grid, centers, smooth(c)) for c in reps]).std(axis=0, ddof=1)

    # effective local support: samples within +-3h of each grid node
    cum = np.concatenate([[0.0], np.cumsum(counts)])
    right = np.searchsorted(edges, grid + 3.0 * h, side="right") - 1
    left = np.searchsorted(edges, grid - 3.0 * h, side="left")
    local = cum[np.clip(right, 0, KDE_FINE_BINS)] - cum[np.clip(left, 0, KDE_FINE_BINS)]

    return DensityEstimate(domain="X", x=grid, density=dens, bandwidth=h,
                           n_samples=len(x), se=se, local_counts=local,
                           meta={"n_boot": n_boot, "fine_bins": KDE_FINE_BINS,
                                 "seed": seed})


def induced_density_F(dens: DensityEstimate, centering: CenteringEstimate
                      ) -> DensityEstimate:
    """rho_F(x) = rho_X(ln x - m)/x on the image grid x = exp(y + m)."""
    if dens.point_mass:
        raise ValueError("point-mass estimate has no induced density")
    xF = np.exp(dens.x + centering.value)
    return DensityEstimate(
        domain="F", x=xF, density=dens.density / xF, bandwidth=dens.bandwidth,
        n_samples=dens.n_samples, se=dens.se / xF,
        local_counts=dens.local_counts,
        meta=dict(dens.meta, centering=centering.value))


# ---------------------------------------------------------------------------
# constant-free bound checks on raw samples
# ---------------------------------------------------------------------------

def verify_gaussian_tail(X, params: ModelParams,
                         points=(-0.5, -1.0, -1.5, -2.0)) -> BoundReport:
    """Empirical P(X <= x) against exp(-x^2 / (2 sigma^2 T^2H)) for x <= 0."""
    X = np.asarray(X)
    n = len(X)
    s2 = params.sigma ** 2 * params.T ** (2.0 * params.H)
    pts = np.asarray(sorted(points))
    if np.any(pts > 0):
        raise ValueError("the left-tail bound applies to x <= 0 only")
    emp = np.array([(X <= x).mean() for x in pts])
    if not np.isfinite(X).all():
        # nan <= x is False, so the count alone would pass; a nan lhs is a violation
        emp[:] = np.nan
    with np.errstate(divide="ignore"):        # sigma = 0: exp(-inf) = 0
        bound = np.exp(-pts ** 2 / (2.0 * s2))
    se = np.sqrt(np.maximum(emp * (1.0 - emp), 1.0 / n) / n)
    return point_report(
        "gaussian_left_tail", "P(X <= x) <= exp(-x^2/(2 sigma^2 T^2H)) for x <= 0",
        pts, emp, bound, se, n, "upper")


def verify_mgf(X, params: ModelParams) -> BoundReport:
    """E[exp(-lambda X)] against exp(lambda^2 sigma^2 T^2H / 2), lambda = 0.5, 1, 2."""
    X = np.asarray(X)
    n = len(X)
    s2 = params.sigma ** 2 * params.T ** (2.0 * params.H)
    lam = np.array([0.5, 1.0, 2.0])
    vals = np.exp(-lam[:, None] * X[None, :])
    emp = vals.mean(axis=1)
    se = vals.std(axis=1, ddof=1) / np.sqrt(n)
    bound = np.exp(0.5 * lam ** 2 * s2)
    return point_report(
        "mgf_domination", "E[e^(-lambda X)] <= e^(lambda^2 sigma^2 T^2H / 2)",
        lam, emp, bound, se, n, "upper")


# ---------------------------------------------------------------------------
# log-normal envelopes: implied-constant profiles
# ---------------------------------------------------------------------------

def _envelope_report(bound_id, description, points, dist, c, c_se, resolved,
                     n_samples, centre=None):
    """Implied constant c at points (dist: their distance from the centre):
    on the resolved points with a finite c, the outer third's max may exceed
    1.5 x the inner third's max by at most Z SE of that outer point. With
    fewer than 6 such points or an empty third, only a resolved point with a
    non-finite c counts (BoundReport makes it a violation). A non-finite
    value in centre (the envelope's centre and scale) adds one violation."""
    ok = resolved & np.isfinite(c)
    viol, info = 0, {}
    if ok.sum() >= 6:
        d, ci, si = dist[ok], c[ok], c_se[ok]
        edges = np.quantile(d, [1.0 / 3.0, 2.0 / 3.0])
        inner = ci[d <= edges[0]]
        outer = d >= edges[1]
        if len(inner) and outer.any():
            j = int(np.argmax(ci[outer]))
            info = {"max_inner": float(inner.max()), "max_outer": float(ci[outer][j]),
                    "slack_3se": Z * float(si[outer][j])}
            viol = int(info["max_outer"] > 1.5 * info["max_inner"] + info["slack_3se"])
    inconclusive = ~resolved | ((not info) & np.isfinite(c))
    if centre and not all(np.isfinite(v) for v in centre.values()):
        viol += 1
        info = dict(info, **{k: float(v) for k, v in centre.items()})
    n = len(points)
    return BoundReport(
        bound_id=bound_id, description=description, points=points, lhs=c,
        rhs=np.full(n, info.get("max_inner", np.nan)), se=c_se,
        tolerance=np.full(n, info.get("slack_3se", np.nan)), violations=viol,
        n_samples=n_samples, implied_constant=c, inconclusive=inconclusive,
        meta=info)


def verify_envelopes(dens: DensityEstimate, params: ModelParams,
                     centering: CenteringEstimate, sample_mean_F=None,
                     sample_var_F=None):
    """Implied-constant profiles for the log-normal envelopes of rho_F.

    In X coordinates the envelopes read rho_X(y) <= c * exp(-y^2/(k s2)) with
    k = 8 on the left tail (y <= 0) and k = 2 on the right (y > 0),
    s2 = sigma^2 T^2H. The implied profile c_hat(y) = rho_X(y) exp(+y^2/(k s2))
    must stay bounded outward. Also checks the Gaussian-in-F left envelope
    (exponent 8 Var F) when sample moments of F are supplied, and the
    right-tail log-density slope -d/dy ln rho_X >= y / s2.
    """
    if dens.point_mass:
        raise ValueError("degenerate (point-mass) sample: envelopes undefined")
    if params.sigma == 0.0:
        raise ValueError("sigma = 0 has no density to verify")
    s2 = params.sigma ** 2 * params.T ** (2.0 * params.H)
    y = dens.x
    rho = dens.density
    se = dens.se
    resolved = dens.local_counts >= MIN_TAIL_COUNT
    reports = []

    for bound_id, k, side in (("left_envelope", 8.0, "left"), ("right_envelope", 2.0, "right")):
        mask = (y < 0) if side == "left" else (y > 0)
        grow = np.exp(y[mask] ** 2 / (k * s2))
        reports.append(_envelope_report(
            bound_id,
            f"rho_X(y) <= c exp(-y^2/({k:g} sigma^2 T^2H)) on the {side} tail: "
            f"implied c bounded (outer third <= 1.5 x inner third + {Z:g} SE)",
            y[mask], np.abs(y[mask]), rho[mask] * grow, se[mask] * grow,
            resolved[mask], dens.n_samples))

    # right-tail slope: -d/dy ln rho >= y / s2 - Z SE on the resolved range
    dy = y[1] - y[0]
    slope = np.full_like(y, np.nan)
    # ln rho is -inf at empty bins, which lie outside the resolved range; a
    # resolved point whose slope is not finite counts as a violation
    with np.errstate(divide="ignore", invalid="ignore"):
        ln_rho = np.log(rho)
        slope[1:-1] = -(ln_rho[2:] - ln_rho[:-2]) / (2.0 * dy)
    rel = np.where(rho > 0, se / np.maximum(rho, 1e-300), np.inf)
    slope_se = np.full_like(y, np.inf)
    slope_se[1:-1] = np.sqrt(rel[2:] ** 2 + rel[:-2] ** 2) / (2.0 * dy)
    mask = (y > 0) & resolved
    mask[0] = mask[-1] = False
    reports.append(point_report(
        "right_tail_slope", "-d/dy ln rho_X(y) >= y / (sigma^2 T^2H) for y > 0",
        y[mask], slope[mask], y[mask] / s2, slope_se[mask], dens.n_samples, "lower"))

    if sample_mean_F is not None and sample_var_F is not None:
        densF = induced_density_F(dens, centering)
        xF = densF.x
        mask = xF <= sample_mean_F
        grow = np.exp((xF[mask] - sample_mean_F) ** 2 / (8.0 * sample_var_F))
        reports.append(_envelope_report(
            "gaussian_left_envelope_F",
            "rho_F(x) <= c exp(-(x-E F)^2/(8 Var F)) for x <= E F: implied c bounded",
            xF[mask], sample_mean_F - xF[mask], densF.density[mask] * grow,
            densF.se[mask] * grow, resolved[mask], dens.n_samples,
            centre={"sample_mean_F": sample_mean_F, "sample_var_F": sample_var_F}))

    return reports


# ---------------------------------------------------------------------------
# conditional profile w_X by binned regression
# ---------------------------------------------------------------------------

def estimate_w_X(X, phi, params: ModelParams):
    """Binned-regression estimate of w_X(z) = E[X / Phi_X | X = z].

    Joint samples (X, Phi_X) come from the nested Malliavin run. Verifies
    w_X(z) >= z / (sigma^2 T^2H) - Z SE on resolved bins z > 0 and the
    reconstruction bound exp(-int_0^z w) <= exp(-z^2/(2 sigma^2 T^2H)).
    A non-finite Phi_X is left out of the bins and is one violation of each
    report (meta["non_finite_phi"] counts them): wherever its X lies, no bin
    reads it otherwise.
    """
    X = np.asarray(X)
    phi = np.asarray(phi)
    n_samples = len(X)
    if n_samples < W_MIN_SAMPLES:
        raise ValueError(f"w_X estimation needs at least {W_MIN_SAMPLES} joint samples")
    finite = np.isfinite(phi)
    n_bad = int(n_samples - finite.sum())
    if n_bad:
        X, phi = X[finite], phi[finite]
    if np.any(phi <= 0):
        raise ValueError("Phi_X must be positive")
    s2 = params.sigma ** 2 * params.T ** (2.0 * params.H)
    ratio = X / phi

    # fixed-width bins over mean +- 4 sd: tails beyond that are out of scope,
    # and sparse bins surface as gaps instead of being absorbed by quantiles
    n_bins = 40
    mu, sd = X.mean(), X.std()
    lo = max(X.min(), mu - 4.0 * sd)
    hi = min(X.max(), mu + 4.0 * sd)
    edges = np.linspace(lo, hi, n_bins + 1)
    inside = (X >= lo) & (X <= hi)
    which = np.clip(np.searchsorted(edges, X[inside], side="right") - 1,
                    0, n_bins - 1)
    Xin = X[inside]
    rin = ratio[inside]
    centers = 0.5 * (edges[:-1] + edges[1:])
    w_mean = np.full(n_bins, np.nan)
    w_se = np.full(n_bins, np.inf)
    counts = np.bincount(which, minlength=n_bins)
    for b in np.nonzero(counts)[0]:
        sel = which == b
        centers[b] = Xin[sel].mean()
        w_mean[b] = rin[sel].mean()
        if counts[b] > 1:
            w_se[b] = rin[sel].std(ddof=1) / np.sqrt(counts[b])
    resolved = counts >= MIN_TAIL_COUNT

    pos = resolved & (centers > 0)
    zs = centers[pos]
    ws = w_mean[pos]
    lower = point_report(
        "w_lower", "w_X(z) = E[X/Phi_X | X=z] >= z/(sigma^2 T^2H) for z > 0",
        zs, ws, zs / s2, w_se[pos], n_samples, "lower",
        inconclusive=np.zeros(int(pos.sum()), dtype=bool))

    # reconstruction: cumulative trapezoid of w over positive resolved bins;
    # the SE of exp(-int w) is its delta-method SE exp(-int w) * SE(int w)
    def from_zero(v):
        """int_0^z of v at each z: the trapezoid over [z_1, z], v_1 z_1 on [0, z_1]."""
        return np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(zs))]) \
            + v[0] * zs[0]

    recon_pts = lhs_r = rhs_r = se_r = zs[:0]
    if len(zs) >= 2:
        lhs_r = np.exp(-from_zero(ws))
        rhs_r = np.exp(-zs ** 2 / (2.0 * s2))
        se_r = from_zero(w_se[pos]) * lhs_r
        recon_pts = zs
    recon = point_report(
        "w_reconstruction",
        "exp(-int_0^z w_X) <= exp(-z^2/(2 sigma^2 T^2H)) for z > 0",
        recon_pts, lhs_r, rhs_r, se_r, n_samples, "upper")
    if n_bad:
        for report in (lower, recon):
            report.violations += n_bad
            report.meta["non_finite_phi"] = n_bad

    return {"centers": centers, "w": w_mean, "se": w_se, "counts": counts,
            "resolved": resolved, "reports": [lower, recon]}
