"""Output checks for the benchmark workloads.

Every check compares an expfbm output with a value computed here, apart
from the package (closed forms and this file's own quadratures), or with a
property the method must have. None compares with stored output. Each
check function returns a list of failure messages; empty means correct.
The tolerances are justified in perfbench/README.md.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import beta

REL_CLOSED_FORM = 1e-9     # right-hand sides that are closed forms
REL_KERNEL = 1e-7          # sigma K(T, theta) against this file's quadrature
MEAN_F_ALLOWANCE = 2e-3    # relative discretisation allowance on E[F]
KDE_MASS_TOL = 2e-3        # |integral of a KDE density - 1|
CO_VAR_FRACTION = 1e-2     # Clark-Ocone residual variance / Var F
NESTED_BLOCK = 128         # outer paths that may share inner draws
Z = 4.0                    # standard errors allowed on Monte Carlo means


class Reference:
    """Closed forms and quadratures for one model (H, T, a, sigma)."""

    def __init__(self, H, T, a, sigma):
        self.H, self.T, self.a, self.sigma = H, T, a, sigma
        self.s2 = sigma ** 2 * T ** (2 * H)
        self.c_H = math.sqrt(H * (2 * H - 1) / beta(2 - 2 * H, H - 0.5))
        self._kernel = {}
        self.mean_F = quad(lambda s: math.exp(a * s + 0.5 * sigma ** 2 * s ** (2 * H)),
                           0.0, T, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        self.var_F = self._second_moment_F() - self.mean_F ** 2

    def kernel_T(self, theta):
        """K(T, theta) = c_H theta^(1/2-H) int_theta^T (u-theta)^(H-3/2) u^(H-1/2) du,
        with the endpoint singularity taken by QUADPACK's algebraic weight."""
        if theta not in self._kernel:
            H = self.H
            inner = quad(lambda u: u ** (H - 0.5), theta, self.T, weight="alg",
                         wvar=(H - 1.5, 0.0), epsabs=0.0, epsrel=1e-12)[0]
            self._kernel[theta] = self.c_H * theta ** (0.5 - H) * inner
        return self._kernel[theta]

    def _second_moment_F(self, nodes=200):
        """E[F^2] = 2 int_0^T int_0^t E[e^{a(s+t) + sigma(B_s + B_t)}] ds dt by a
        Gauss-Legendre product rule on the triangle (s = v t)."""
        H, T, a, sigma = self.H, self.T, self.a, self.sigma
        x, w = leggauss(nodes)
        x, w = 0.5 * (x + 1.0), 0.5 * w
        t = T * x[:, None]
        s = t * x[None, :]
        cov = 0.5 * (t ** (2 * H) + s ** (2 * H) - (t - s) ** (2 * H))
        var = t ** (2 * H) + s ** (2 * H) + 2.0 * cov
        f = np.exp(a * (s + t) + 0.5 * sigma ** 2 * var) * t
        return 2.0 * T * float(w @ f @ w)


def _rel_close(got, want, rel):
    got, want = np.asarray(got, float), np.asarray(want, float)
    return bool(np.all(np.abs(got - want) <= rel * np.maximum(np.abs(want), 1e-300)))


def _expected_rhs(ref, bound_id, points):
    """(right-hand side recomputed here, relative tolerance, mask of the
    interior theta), or Nones where the right-hand side is data-dependent."""
    pts = np.asarray(points, float)
    if bound_id == "gaussian_left_tail":
        return np.exp(-pts ** 2 / (2.0 * ref.s2)), REL_CLOSED_FORM, None
    if bound_id == "mgf_domination":
        return np.exp(0.5 * pts ** 2 * ref.s2), REL_CLOSED_FORM, None
    if bound_id == "phi_upper":
        return np.full(len(pts), ref.s2), REL_CLOSED_FORM, None
    if bound_id == "dphi_integral_upper":
        return np.full(len(pts), 4.0 * ref.s2 ** 2), REL_CLOSED_FORM, None
    if bound_id not in ("dx_range", "cond_dx_range", "dphi_upper"):
        return None, None, None
    interior = (pts > 0) & (pts < ref.T)
    sK = np.array([ref.sigma * ref.kernel_T(p) if ok else 0.0
                   for p, ok in zip(pts, interior)])
    if bound_id == "dphi_upper":                  # 4 sigma^3 K(T, s) T^(2H)
        sK = 4.0 * ref.sigma ** 2 * ref.T ** (2 * ref.H) * sK
    return sK, REL_KERNEL, interior


def check_reports(path, expected_ids, ref):
    """Every expected bound id is present once, finite and passed, and every
    closed-form right-hand side matches the recomputation."""
    errors = []
    payload = json.loads(Path(path).read_text())
    reports = {r["bound_id"]: r for r in payload.get("reports", [])}
    missing = sorted(set(expected_ids) - set(reports))
    if missing:
        errors.append(f"{path.name}: missing bound ids {missing}")
    for bound_id in expected_ids:
        r = reports.get(bound_id)
        if r is None:
            continue
        if not r["passed"] or r["violations"] != 0:
            errors.append(f"{path.name}: {bound_id} did not pass "
                          f"({r['violations']} violations)")
        for key in ("points", "lhs", "rhs", "se", "tolerance"):
            vals = np.asarray(r[key], float)
            if vals.size == 0 or not np.all(np.isfinite(vals)):
                errors.append(f"{path.name}: {bound_id}.{key} empty or not finite")
        want, rel, mask = _expected_rhs(ref, bound_id, r["points"])
        if want is None:
            continue
        got = np.asarray(r["rhs"], float)
        if mask is not None:
            if not np.all(got[~mask] == 0.0):
                errors.append(f"{path.name}: {bound_id} rhs at theta = T is not 0")
            got, want = got[mask], want[mask]
        if not _rel_close(got, want, rel):
            errors.append(f"{path.name}: {bound_id} rhs {got.tolist()} != "
                          f"recomputed {want.tolist()}")
    return errors, reports


def check_kernel_verify(out_dir):
    payload = json.loads((out_dir / "kernel-verify.json").read_text())
    bad = [c["id"] for c in payload["checks"]
           if not c["pass"] or not math.isfinite(c["value"])]
    return [f"kernel-verify.json: failed identities {bad}"] if bad else []


def check_malliavin_profile(path, ref, n_paths):
    """0 <= mean D_theta X <= sigma K(T, theta), and the tower identity
    E[E[D_theta X | F_theta]] = E[D_theta X] within Monte Carlo error."""
    errors = []
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return [f"{path.name}: no rows"]
    for row in rows:
        theta = float(row["theta"])
        mean_dx = float(row["mean_dX"])
        mean_cond = float(row["mean_cond_dX"])
        inner_se = float(row["mean_inner_se"])
        sK = ref.sigma * ref.kernel_T(theta) if theta < ref.T else 0.0
        slack = REL_KERNEL * sK
        if not (-slack <= mean_dx <= sK + slack):
            errors.append(f"{path.name}: mean D X = {mean_dx} outside "
                          f"[0, {sK}] at theta={theta}")
        # per path, D X and its conditional mean both lie in [0, sigma K], so
        # their difference has SD <= sigma K; inner draws add at most the
        # inner SE, even if shared by a block of NESTED_BLOCK paths
        tol = Z * sK / math.sqrt(n_paths) \
            + Z * inner_se * math.sqrt(NESTED_BLOCK / n_paths) + slack
        if abs(mean_cond - mean_dx) > tol:
            errors.append(f"{path.name}: tower identity off by "
                          f"{mean_cond - mean_dx:.3e} (tol {tol:.3e}) at theta={theta}")
    return errors


def check_simulate_density(out_dir, ref, n_paths):
    """E[F] against quadrature, KDE masses, KDE mean of F, CSV row count."""
    errors = []
    sim = json.loads((out_dir / "simulate.json").read_text())
    dens = json.loads((out_dir / "density.json").read_text())
    se = math.sqrt(ref.var_F / n_paths)
    allowance = Z * se + MEAN_F_ALLOWANCE * ref.mean_F
    mean_F = sim["summary"]["mean_F"]
    if abs(mean_F - ref.mean_F) > allowance:
        errors.append(f"simulate.json: mean F {mean_F} vs quadrature "
                      f"{ref.mean_F} (allowance {allowance:.3e})")
    for key in ("density", "density_F"):
        x = np.asarray(dens[key]["x"], float)
        rho = np.asarray(dens[key]["density"], float)
        mass = float(np.trapezoid(rho, x))
        if not abs(mass - 1.0) <= KDE_MASS_TOL:
            errors.append(f"density.json: {key} integrates to {mass}")
    # Gaussian smoothing of X with bandwidth h multiplies E[F] by e^{h^2/2}
    h = dens["density"]["bandwidth"]
    xF = np.asarray(dens["density_F"]["x"], float)
    rhoF = np.asarray(dens["density_F"]["density"], float)
    kde_mean = float(np.trapezoid(xF * rhoF, xF)) * math.exp(-0.5 * h * h)
    if abs(kde_mean - ref.mean_F) > allowance:
        errors.append(f"density.json: KDE mean of F {kde_mean} vs quadrature "
                      f"{ref.mean_F} (allowance {allowance:.3e})")
    with open(out_dir / sim["samples_csv"]) as fh:
        rows = sum(1 for line in fh if not line.startswith("#")) - 1
    if rows != n_paths:
        errors.append(f"{sim['samples_csv']}: {rows} rows for {n_paths} paths")
    return errors


def check_clark_ocone(report, ref):
    """The residual variance is a small share of Var F."""
    var = report["meta"]["residual_var"]
    if not 0.0 < var <= CO_VAR_FRACTION * ref.var_F:
        return [f"clark_ocone: residual variance {var} not in "
                f"(0, {CO_VAR_FRACTION} Var F = {CO_VAR_FRACTION * ref.var_F}]"]
    return []
