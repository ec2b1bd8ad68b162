"""Monte Carlo density estimation for X = ln F - E[ln F] and tail-bound checks.

The density is always estimated in the log domain and transported to F by the
exact change of variables rho_F(x) = rho_X(ln x - m)/x, avoiding boundary bias
at F ~ 0. The estimator is a binned Gaussian-convolution KDE so that bootstrap
standard errors (multinomial resampling of the bin counts) stay cheap at 1e6
samples.

Envelope bounds carry an existential constant, so verification is formulated
as boundedness of the implied-constant profile c_hat(x): the profile must not
explode toward the tails (outer-third max <= 1.5 * inner-third max beyond
3 SE on the resolved range).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .functional import CenteringEstimate, ModelParams, sample_lnF
from .kernel import KernelTable
from .reports import BoundReport

MIN_TAIL_COUNT = 50        # local samples below this: inconclusive, not failed
KDE_GRID = 512             # output nodes of kde_log_domain
KDE_FINE_BINS = 4096       # histogram bins the KDE convolves


@dataclass
class SampleBatch:
    """Reproducible batch of (ln F, X) draws with provenance."""

    lnF: np.ndarray
    X: np.ndarray
    params: ModelParams
    centering: CenteringEstimate
    meta: dict = field(default_factory=dict)

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
    sample_fbm_volterra(table, P, seed) for any P > p.
    """
    lnF = sample_lnF(params, table, n_paths, seed)
    X = lnF - centering.value
    F = np.exp(lnF)
    return SampleBatch(lnF=lnF, X=X, params=params, centering=centering,
                       meta={"mean_F": float(F.mean()),
                             "var_F": float(F.var(ddof=1)),
                             "mean_X": float(X.mean()),
                             "var_X": float(X.var(ddof=1))})


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
    if len(x) < 10_000:
        raise ValueError("density estimation needs at least 1e4 samples")
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

    gen = rng.stream(seed, rng.BOOTSTRAP)
    p = counts / counts.sum()
    reps = np.empty((n_boot, KDE_GRID))
    for r in range(n_boot):
        cb = gen.multinomial(len(x), p)
        reps[r] = np.interp(grid, centers, smooth(cb))
    se = reps.std(axis=0, ddof=1)

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
    tol = 3.0 * se
    viol = int(np.sum(emp > bound + tol))
    return BoundReport(
        bound_id="gaussian_left_tail",
        description="P(X <= x) <= exp(-x^2/(2 sigma^2 T^2H)) for x <= 0",
        points=pts, lhs=emp, rhs=bound, se=se, tolerance=tol,
        violations=viol, n_samples=n)


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
    tol = 3.0 * se
    viol = int(np.sum(emp > bound + tol))
    return BoundReport(
        bound_id="mgf_domination",
        description="E[e^(-lambda X)] <= e^(lambda^2 sigma^2 T^2H / 2)",
        points=lam, lhs=emp, rhs=bound, se=se, tolerance=tol,
        violations=viol, n_samples=n)


# ---------------------------------------------------------------------------
# log-normal envelopes: implied-constant profiles
# ---------------------------------------------------------------------------

def _thirds_rule(y, c, se, resolved):
    """Non-explosion test on one tail: outer-third max <= 1.5 * inner-third max
    beyond 3 SE, on the resolved points with a finite c. y must be ordered
    from the center outward. Returns (violations, info); an empty info dict
    means too few such points for a verdict (see _inconclusive)."""
    ok = resolved & np.isfinite(c)
    if ok.sum() < 6:
        return 0, {}
    yi = np.abs(y[ok])
    ci = c[ok]
    si = se[ok]
    edges = np.quantile(yi, [1.0 / 3.0, 2.0 / 3.0])
    inner = ci[yi <= edges[0]]
    outer_mask = yi >= edges[1]
    outer = ci[outer_mask]
    if len(inner) == 0 or len(outer) == 0:
        return 0, {}
    max_inner = float(inner.max())
    j = int(np.argmax(outer))
    max_outer = float(outer[j])
    slack = 3.0 * float(si[outer_mask][j])
    violated = max_outer > 1.5 * max_inner + slack
    info = {"max_inner": max_inner, "max_outer": max_outer, "slack_3se": slack}
    return int(violated), info


def _inconclusive(resolved, c, info):
    """The points of a thirds-rule report that count neither way: the
    unresolved ones and, when the rule reached no verdict, the finite ones.
    A resolved point whose implied constant is not finite always counts, so
    the report makes it a violation (BoundReport)."""
    return ~resolved | ((not info) & np.isfinite(c))


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

    for bound_id, k, side in (("left_envelope", 8.0, -1), ("right_envelope", 2.0, +1)):
        mask = (y < 0) if side < 0 else (y > 0)
        grow = np.exp(y[mask] ** 2 / (k * s2))
        c = rho[mask] * grow
        c_se = se[mask] * grow
        viol, info = _thirds_rule(y[mask], c, c_se, resolved[mask])
        reports.append(BoundReport(
            bound_id=bound_id,
            description=(f"rho_X(y) <= c exp(-y^2/({k:g} sigma^2 T^2H)) on the "
                         f"{'left' if side < 0 else 'right'} tail: implied c "
                         f"bounded (outer third <= 1.5 x inner third + 3 SE)"),
            points=y[mask], lhs=c, rhs=np.full(mask.sum(), info.get("max_inner", np.nan)),
            se=c_se, tolerance=np.full(mask.sum(), info.get("slack_3se", np.nan)),
            violations=viol, n_samples=dens.n_samples,
            implied_constant=c, inconclusive=_inconclusive(resolved[mask], c, info),
            meta=info))

    # right-tail slope: -d/dy ln rho >= y / s2 - 3 SE on the resolved range
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
    lhs = slope[mask]
    rhs = y[mask] / s2
    tol = 3.0 * slope_se[mask]
    viol = int(np.sum(lhs < rhs - tol))
    reports.append(BoundReport(
        bound_id="right_tail_slope",
        description="-d/dy ln rho_X(y) >= y / (sigma^2 T^2H) for y > 0",
        points=y[mask], lhs=lhs, rhs=rhs, se=slope_se[mask], tolerance=tol,
        violations=viol, n_samples=dens.n_samples))

    if sample_mean_F is not None and sample_var_F is not None:
        densF = induced_density_F(dens, centering)
        xF = densF.x
        mask = xF <= sample_mean_F
        grow = np.exp((xF[mask] - sample_mean_F) ** 2 / (8.0 * sample_var_F))
        c = densF.density[mask] * grow
        c_se = densF.se[mask] * grow
        # order from E[F] outward (toward x = 0): reverse so |y| grows outward
        order = np.argsort(sample_mean_F - xF[mask])
        viol, info = _thirds_rule(
            (sample_mean_F - xF[mask])[order], c[order], c_se[order],
            resolved[mask][order])
        inconclusive = _inconclusive(resolved[mask], c, info)
        if not (np.isfinite(sample_mean_F) and np.isfinite(sample_var_F)):
            # F overflowed: the envelope's centre or scale is unknown
            viol += 1
            info = dict(info, sample_mean_F=float(sample_mean_F),
                        sample_var_F=float(sample_var_F))
        reports.append(BoundReport(
            bound_id="gaussian_left_envelope_F",
            description=("rho_F(x) <= c exp(-(x-E F)^2/(8 Var F)) for "
                         "x <= E F: implied c bounded"),
            points=xF[mask], lhs=c,
            rhs=np.full(int(mask.sum()), info.get("max_inner", np.nan)),
            se=c_se, tolerance=np.full(int(mask.sum()), info.get("slack_3se", np.nan)),
            violations=viol, n_samples=dens.n_samples,
            implied_constant=c, inconclusive=inconclusive, meta=info))

    return reports


# ---------------------------------------------------------------------------
# conditional profile w_X by binned regression
# ---------------------------------------------------------------------------

def estimate_w_X(X, phi, params: ModelParams):
    """Binned-regression estimate of w_X(z) = E[X / Phi_X | X = z].

    Joint samples (X, Phi_X) come from the nested Malliavin run. Verifies
    w_X(z) >= z / (sigma^2 T^2H) - 3 SE on resolved bins z > 0 and the
    reconstruction bound exp(-int_0^z w) <= exp(-z^2/(2 sigma^2 T^2H)).
    """
    X = np.asarray(X)
    phi = np.asarray(phi)
    if len(X) < 10_000:
        raise ValueError("w_X estimation needs at least 1e4 joint samples")
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
    lhs = w_mean[pos]
    rhs = centers[pos] / s2
    tol = 3.0 * w_se[pos]
    viol = int(np.sum(lhs < rhs - tol))
    lower = BoundReport(
        bound_id="w_lower",
        description="w_X(z) = E[X/Phi_X | X=z] >= z/(sigma^2 T^2H) for z > 0",
        points=centers[pos], lhs=lhs, rhs=rhs, se=w_se[pos], tolerance=tol,
        violations=viol, n_samples=len(X),
        inconclusive=np.zeros(int(pos.sum()), dtype=bool))

    # reconstruction: cumulative trapezoid of w over positive resolved bins
    zs = centers[pos]
    ws = w_mean[pos]
    recon_viol = 0
    recon_pts, recon_lhs, recon_rhs, recon_tol = [], [], [], []
    if len(zs) >= 2:
        cum = np.concatenate([[0.0], np.cumsum(
            0.5 * (ws[1:] + ws[:-1]) * np.diff(zs))])
        cum += ws[0] * zs[0]          # segment [0, z_1], w ~ w_1
        se_cum = np.concatenate([[0.0], np.cumsum(
            0.5 * (w_se[pos][1:] + w_se[pos][:-1]) * np.diff(zs))]) \
            + w_se[pos][0] * zs[0]
        lhs_r = np.exp(-cum)
        rhs_r = np.exp(-zs ** 2 / (2.0 * s2))
        tol_r = 3.0 * se_cum * lhs_r
        recon_viol = int(np.sum(lhs_r > rhs_r + tol_r))
        recon_pts, recon_lhs, recon_rhs, recon_tol = zs, lhs_r, rhs_r, tol_r
    recon = BoundReport(
        bound_id="w_reconstruction",
        description="exp(-int_0^z w_X) <= exp(-z^2/(2 sigma^2 T^2H)) for z > 0",
        points=np.asarray(recon_pts), lhs=np.asarray(recon_lhs),
        rhs=np.asarray(recon_rhs), se=np.zeros(len(recon_pts)),
        tolerance=np.asarray(recon_tol), violations=recon_viol,
        n_samples=len(X))

    return {"centers": centers, "w": w_mean, "se": w_se, "counts": counts,
            "resolved": resolved, "reports": [lower, recon]}
