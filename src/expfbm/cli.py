"""Reproducible experiment driver.

Subcommands: kernel-verify, simulate, density, bounds, malliavin, report.
A run is a pure function of its configuration: the effective config (all
defaults resolved), its hash, the seed and the code version are embedded in
every output file, and identical configs produce byte-identical CSV/JSON.

Exit codes: 0 all selected suites pass, 1 bound violation, 2 configuration
error, 3 resource/budget exceeded.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from . import density as dn
from . import functional as fn
from . import kernel as kn
from . import malliavin as ml
from . import paths as pth
from .reports import summarize

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3

SIM_FIELDS = ("hurst_H", "horizon_T", "drift_a", "sigma_vol", "grid_n",
              "outer_paths", "centering_paths", "seed")
TABLE_FIELDS = ("hurst_H", "horizon_T", "grid_n")
NESTED_FIELDS = SIM_FIELDS + ("nested_paths", "inner_paths", "subgrid_stride")

# Part of every cache key, with the code version. Bump it when the contents
# of a cache change meaning, so files written by older code are not read.
# 2: nested estimates share one inner draw set per block of paths.
# 3: kernel tables built by a running sum over rows (differ in the last bits).
CACHE_SCHEMA = 3


@dataclass
class ExperimentConfig:
    """Flat run configuration; key names carry their units."""

    hurst_H: float = 0.7
    horizon_T: float = 1.0
    drift_a: float = 0.0
    sigma_vol: float = 1.0
    grid_n: int = 256
    outer_paths: int = 100_000
    inner_paths: int = 200
    subgrid_stride: int = 4
    centering_paths: int = 100_000
    nested_paths: int = 10_000
    seed: int = 20240901
    kde_bootstrap: int = 100
    tol_kernel_smooth: float = 1e-6
    tol_kernel_table: float = 5e-3
    tol_identity: float = 1e-4
    out_dir: str = "expfbm-out"
    suites: tuple = ("tail", "mgf", "envelopes", "derivatives", "w", "dphi",
                     "clark_ocone")

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or (
                    f.type == "int" and not isinstance(value, int)) or (
                    f.type == "float" and not (isinstance(value, (int, float))
                                               and math.isfinite(value))):
                raise ValueError(f"{f.name} must be a finite {f.type}, got {value!r}")
        rules = {
            "hurst_H": (0.5 < self.hurst_H < 1.0, "in (1/2, 1)"),
            "horizon_T": (self.horizon_T > 0, "> 0"),
            "sigma_vol": (self.sigma_vol >= 0, ">= 0"),
            "grid_n": (self.grid_n >= 8, ">= 8"),
            "inner_paths": (self.inner_paths >= 50 and self.inner_paths % 2 == 0,
                            "even (antithetic pairs) and >= 50"),
            "subgrid_stride": (self.subgrid_stride >= 1, ">= 1"),
            "suites": (set(self.suites) <= set(SUITES), f"among {sorted(SUITES)}"),
        }
        for name in ("outer_paths", "nested_paths", "kde_bootstrap", "seed"):
            rules[name] = (getattr(self, name) >= 0, ">= 0")
        # the centering estimate needs 1000 paths unless X is deterministic
        rules["centering_paths"] = (
            self.centering_paths >= 0 and (self.sigma_vol == 0
                                           or self.centering_paths >= 1000),
            ">= 0, and >= 1000 when sigma_vol > 0")
        for name, (ok, rule) in rules.items():
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            raw = json.load(fh)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "suites" in raw:
            raw["suites"] = tuple(raw["suites"])
        return cls(**raw)

    def effective(self):
        d = dataclasses.asdict(self)
        d["suites"] = list(self.suites)
        return d

    def hash(self):
        blob = json.dumps(self.effective(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def sim_hash(self):
        d = self.effective()
        blob = json.dumps({k: d[k] for k in SIM_FIELDS}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def cache_key(self, fields):
        """Hash of the given fields, the code version and the cache schema."""
        d = self.effective()
        blob = json.dumps({"fields": {k: d[k] for k in fields},
                           "code_version": __version__,
                           "cache_schema": CACHE_SCHEMA}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def model_params(self):
        return fn.ModelParams(a=self.drift_a, sigma=self.sigma_vol,
                              hurst=kn.HurstParams(self.hurst_H, self.horizon_T))


def _provenance(cfg: ExperimentConfig):
    from . import rng

    return {"config": cfg.effective(), "config_hash": cfg.hash(),
            "sim_hash": cfg.sim_hash(), "code_version": __version__,
            "seed": cfg.seed, "batch_partition": rng.BATCH}


def _write_json(path, payload):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _workers():
    try:
        return max(1, int(os.environ.get("EXPFBM_WORKERS", "1")))
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# caches
# ---------------------------------------------------------------------------

def _cache_dir(cfg):
    d = Path(cfg.out_dir) / "cache"
    d.mkdir(parents=True, exist_ok=True)
    return d


def _write_atomic(path, write):
    """Call write(tmp) on a temp file beside path, then move it into place, so
    a reader never sees a partly written cache."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _savez(tmp, **arrays):
    # through a handle: given a path without .npz, numpy would append it
    with open(tmp, "wb") as fh:
        np.savez_compressed(fh, **arrays)


def _table_for(cfg) -> kn.KernelTable:
    # the table depends on (H, T, n) only, so every seed shares one file
    path = _cache_dir(cfg) / f"table-{cfg.cache_key(TABLE_FIELDS)}.npz"
    if path.exists():
        return kn.load_table(path)
    table = kn.build_kernel_table(cfg.hurst_H, cfg.horizon_T, cfg.grid_n)
    _write_atomic(path, lambda tmp: kn.save_table(table, tmp))
    return table


def _sim_batch(cfg, table, allow_simulate=True) -> dn.SampleBatch:
    path = _cache_dir(cfg) / f"sim-{cfg.cache_key(SIM_FIELDS)}.npz"
    params = cfg.model_params()
    if path.exists():
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(bytes(data["meta"].tobytes()).decode())
            centering = fn.CenteringEstimate(
                value=meta["centering_value"], se=meta["centering_se"],
                n_paths=meta["centering_paths"], seed=cfg.seed)
            return dn.SampleBatch(F=data["F"], lnF=np.log(data["F"]),
                                  X=data["X"], params=params,
                                  centering=centering, seed=cfg.seed,
                                  n_grid=cfg.grid_n, meta=meta)
    if not allow_simulate:
        raise FileNotFoundError(
            f"sample cache {path} missing and simulation disabled (--no-simulate)")
    centering = fn.estimate_mean_lnF(params, table, cfg.centering_paths, cfg.seed)
    batch = dn.sample_X_batch(params, table, cfg.outer_paths, cfg.seed, centering,
                              workers=_workers())
    meta = dict(batch.meta)
    meta.update({"centering_value": centering.value, "centering_se": centering.se,
                 "centering_paths": centering.n_paths})
    meta_bytes = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    _write_atomic(path, lambda tmp: _savez(tmp, F=batch.F, X=batch.X, meta=meta_bytes))
    batch.meta = meta
    return batch


def _nested_paths(cfg, table, ctx):
    """The command's nested paths, drawn once into ctx and shared by its suites."""
    if "paths" not in ctx:
        ctx["paths"] = pth.sample_fbm_volterra(table, cfg.nested_paths, cfg.seed)
    return ctx["paths"]


def _nested_run(cfg, table, ctx, allow_simulate=True):
    """Joint (X, Phi_X) samples plus derivative-bound ingredients (cached)."""
    path = _cache_dir(cfg) / f"mal-{cfg.cache_key(NESTED_FIELDS)}.npz"
    params = cfg.model_params()
    if path.exists():
        with np.load(path) as data:
            return {k: data[k] for k in data.files}
    if not allow_simulate:
        raise FileNotFoundError(
            f"nested cache {path} missing and simulation disabled (--no-simulate)")
    paths = _nested_paths(cfg, table, ctx)
    prof = ml.phi_x_batch(paths, table, params, cfg.inner_paths, cfg.seed,
                          stride=cfg.subgrid_stride)
    lnF = np.log(fn.functional_F(paths, params))
    lower, _ = ml.phi_lower_bound_terms(paths, table, params)
    out = {"lnF": lnF, "phi": prof.phi, "phi_se": prof.phi_se,
           "dX": prof.dX, "cond": prof.cond_dX, "cond_se": prof.cond_se,
           "indices": prof.meta["indices"]}
    out["lower"] = lower
    _write_atomic(path, lambda tmp: _savez(tmp, **out))
    return out


# ---------------------------------------------------------------------------
# kernel-verify
# ---------------------------------------------------------------------------

def kernel_checks(cfg: ExperimentConfig, table=None):
    """Identity suite for the kernel layer; returns a list of check dicts."""
    H, T = cfg.hurst_H, cfg.horizon_T
    if table is None:
        table = _table_for(cfg)
    checks = []

    def add(check_id, value, tol):
        checks.append({"id": check_id, "value": float(value),
                       "tolerance": float(tol), "pass": bool(value <= tol)})

    ch = table.c_H
    add("calibration_closed_form", abs(ch / kn.ch_closed_form(H) - 1.0), 1e-7)
    for t in (0.5 * T, T):
        e = kn.kernel_sq_integral(H, ch, t)
        add(f"energy_continuous_t={t:g}", abs(e / t ** (2 * H) - 1.0),
            cfg.tol_kernel_smooth)
    marg = np.power(table.grid, 2.0 * H)
    add("energy_table_max_abs", np.max(np.abs(table.energies - marg)),
        cfg.tol_kernel_table)
    lhs = kn.time_integral_square_aggregate(H, ch, T)
    rhs = T ** (2 * H + 2) / (2 * H + 2)
    add("time_integral_square", abs(lhs / rhs - 1.0), cfg.tol_identity)
    i, j = table.n, table.n // 2
    mapcov = float(np.sum(table.row_weights[i] * table.row_weights[j]) / table.dt)
    add("covariance_reproduction",
        abs(mapcov - kn.covariance(H, table.grid[i], table.grid[j])),
        cfg.tol_kernel_table)
    cols = table.values[:, 1:table.n]
    mono = np.diff(cols, axis=0)
    rows_i, cols_j = np.tril_indices(table.n, -1)
    add("column_monotonicity",
        max(0.0, -float(mono[rows_i, cols_j].min())), 1e-12)
    return checks


def cmd_kernel_verify(cfg, args):
    table = None
    if getattr(args, "corrupt_ch", None):
        table = _table_for(cfg)
        table = kn.KernelTable(H=table.H, T=table.T,
                               c_H=table.c_H * args.corrupt_ch,
                               grid=table.grid, values=table.values,
                               row_weights=table.row_weights,
                               sq_weights=table.sq_weights, meta=table.meta)
        # corrupted constant must flow into the continuous checks
        checks = kernel_checks(cfg, table=None)
        H, T = cfg.hurst_H, cfg.horizon_T
        bad = []
        for t in (0.5 * T, T):
            e = kn.kernel_sq_integral(H, table.c_H, t)
            val = abs(e / t ** (2 * H) - 1.0)
            bad.append({"id": f"energy_continuous_t={t:g}", "value": float(val),
                        "tolerance": cfg.tol_kernel_smooth,
                        "pass": bool(val <= cfg.tol_kernel_smooth)})
        checks = bad + [c for c in checks if not c["id"].startswith("energy_continuous")]
    else:
        checks = kernel_checks(cfg)
    payload = dict(_provenance(cfg), checks=checks)
    out = Path(cfg.out_dir) / "kernel-verify.json"
    _write_json(out, payload)
    failed = [c for c in checks if not c["pass"]]
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for c in checks:
            print(f"{'PASS' if c['pass'] else 'FAIL'} {c['id']}: "
                  f"{c['value']:.3e} (tol {c['tolerance']:.1e})")
    return EXIT_VIOLATION if failed else EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(cfg, args):
    table = _table_for(cfg)
    params = cfg.model_params()
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"samples-{cfg.sim_hash()}.csv"

    if cfg.outer_paths == 0:
        centering = fn.CenteringEstimate(0.0, 0.0, 0, cfg.seed)
        fn.write_samples_csv(csv_path, np.empty(0), np.empty(0), np.empty(0),
                             params, centering, header_meta=_csv_meta(cfg))
        print(f"wrote {csv_path} (empty batch)")
        return EXIT_OK

    batch = _sim_batch(cfg, table)
    fn.write_samples_csv(csv_path, batch.F, batch.lnF, batch.X, params,
                         batch.centering, header_meta=_csv_meta(cfg))

    fine = pth.sample_fbm_cholesky(cfg.hurst_H,
                                   np.linspace(0, cfg.horizon_T, 513), 1, cfg.seed)
    diffs = fn.refinement_diffs(fine.values[0], fine.grid, params, levels=3)
    payload = dict(_provenance(cfg), summary=batch.meta,
                   refinement_diffs=diffs, samples_csv=csv_path.name)
    _write_json(out_dir / "simulate.json", payload)
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"wrote {csv_path} ({batch.n_samples} paths), "
              f"mean F {batch.meta['mean_F']:.6f}")
    return EXIT_OK


def _csv_meta(cfg):
    return {"config_hash": cfg.hash(), "sim_hash": cfg.sim_hash(),
            "code_version": __version__, "seed": cfg.seed,
            "grid_n": cfg.grid_n}


# ---------------------------------------------------------------------------
# bound suites
# ---------------------------------------------------------------------------

def _suite_tail(cfg, table, ctx):
    batch = ctx["batch"]
    return [dn.verify_gaussian_tail(batch.X, batch.params)]


def _suite_mgf(cfg, table, ctx):
    batch = ctx["batch"]
    return [dn.verify_mgf(batch.X, batch.params)]


def _suite_envelopes(cfg, table, ctx):
    batch = ctx["batch"]
    dens = dn.kde_log_domain(batch.X, n_boot=cfg.kde_bootstrap, seed=cfg.seed)
    reports = dn.verify_envelopes(dens, batch.params, batch.centering,
                                  sample_mean_F=float(batch.F.mean()),
                                  sample_var_F=float(batch.F.var(ddof=1)))
    ctx["density"] = dens
    return reports


def _suite_derivatives(cfg, table, ctx):
    from .reports import BoundReport
    nested = ctx["nested"]
    params = cfg.model_params()
    idx = nested["indices"].astype(int)
    D = nested["dX"]
    cond = nested["cond"]
    cond_se = nested["cond_se"]
    bounds = ml.dx_bounds(table, params, idx)
    tol = 1e-9 * np.maximum(bounds, 1e-300)
    dx_viol = int(np.sum((D < -tol[None, :]) | (D > bounds[None, :] + tol[None, :])))
    reports = [BoundReport(
        bound_id="dx_range", description="0 <= D_theta X <= sigma K(T, theta)",
        points=table.grid[idx], lhs=D.max(axis=0), rhs=bounds,
        se=np.zeros(len(idx)), tolerance=tol, violations=dx_viol,
        n_samples=D.shape[0])]

    cd_tol = 1e-9 * np.maximum(bounds, 1e-300)[None, :] + 3.0 * cond_se
    cd_viol = int(np.sum((cond < -cd_tol) | (cond > bounds[None, :] + cd_tol)))
    reports.append(BoundReport(
        bound_id="cond_dx_range",
        description="0 <= E[D_theta X | F_theta] <= sigma K(T, theta)",
        points=table.grid[idx], lhs=cond.max(axis=0), rhs=bounds,
        se=cond_se.max(axis=0), tolerance=cd_tol.max(axis=0),
        violations=cd_viol, n_samples=cond.shape[0]))

    s2T = params.sigma ** 2 * params.T ** (2 * params.H)
    phi = nested["phi"]
    phi_se = nested["phi_se"]
    up_tol = 1e-9 * s2T + 3.0 * phi_se
    up_viol = int(np.sum((phi > s2T + up_tol) | (phi < -up_tol)))
    reports.append(BoundReport(
        bound_id="phi_upper", description="0 <= Phi_X <= sigma^2 T^2H",
        points=np.array([0.0]), lhs=np.array([float(phi.max())]),
        rhs=np.array([s2T]), se=np.array([float(phi_se.max())]),
        tolerance=np.array([float(up_tol.max())]), violations=up_viol,
        n_samples=len(phi)))

    lower = nested["lower"]
    lo_viol = int(np.sum(phi < lower - 3.0 * phi_se - 1e-9 * s2T))
    reports.append(BoundReport(
        bound_id="phi_lower",
        description=("Phi_X >= (sigma^2/T) e^{-3|a|T + sigma(min B - max B + "
                     "min N)} T^(2H+2)/((2H+2) max M)"),
        points=np.array([0.0]), lhs=np.array([float((phi - lower).min())]),
        rhs=np.array([0.0]), se=np.array([float(phi_se.max())]),
        tolerance=np.array([float((3.0 * phi_se).max())]), violations=lo_viol,
        n_samples=len(phi)))

    # second derivative: recompute in path chunks (the cache stores no d2X)
    d2_bounds = ml.d2x_bounds(table, params, idx)
    d2_tol = 1e-9 * np.maximum(d2_bounds, 1e-300)
    d2_viol = 0
    d2_max = -np.inf
    d2_min = np.inf
    chunk = max(64, 2 ** 22 // max(1, len(idx) ** 2))
    paths = _nested_paths(cfg, table, ctx)
    for start in range(0, cfg.nested_paths, chunk):
        sub = paths.subset(slice(start, min(start + chunk, cfg.nested_paths)))
        d2 = ml.d2x(sub, table, params, indices=idx)
        scale = max(np.abs(d2).max(), 1e-300)
        d2_viol += int(np.sum(d2 > d2_bounds[None] + d2_tol[None])
                       + np.sum(d2 < -1e-12 * scale))
        d2_max = max(d2_max, float(d2.max()))
        d2_min = min(d2_min, float(d2.min()))
    reports.append(BoundReport(
        bound_id="d2x_range",
        description="0 <= D_r D_theta X <= 2 sigma^2 K(T,theta) K(T,r)",
        points=np.array([0.0]), lhs=np.array([d2_max]),
        rhs=np.array([float(d2_bounds.max())]), se=np.array([0.0]),
        tolerance=np.array([float(d2_tol.max())]), violations=d2_viol,
        n_samples=cfg.nested_paths, meta={"min_entry": d2_min}))
    return reports


def _suite_w(cfg, table, ctx):
    nested = ctx["nested"]
    batch = ctx["batch"]
    X = nested["lnF"] - batch.centering.value
    res = dn.estimate_w_X(X, nested["phi"], cfg.model_params())
    ctx["w_profile"] = res
    return res["reports"]


def _suite_dphi(cfg, table, ctx):
    # doubly nested and expensive: runs on a capped path budget
    params = cfg.model_params()
    budget = min(cfg.nested_paths, 2_000)
    # path p does not depend on the path count, so the prefix is the budget's
    # own draw
    paths = _nested_paths(cfg, table, ctx).subset(slice(0, budget))
    out = ml.dphi_bound_check(paths, table, params, cfg.inner_paths, cfg.seed,
                              stride=cfg.subgrid_stride)
    return out["reports"]


def _suite_clark_ocone(cfg, table, ctx):
    from .reports import BoundReport
    params = cfg.model_params()
    paths = _nested_paths(cfg, table, ctx)
    res = ml.clark_ocone_residual(paths, table, params)
    se = res.std(ddof=1) / np.sqrt(len(res))
    viol = int(abs(res.mean()) > 3.0 * se)
    return [BoundReport(
        bound_id="clark_ocone",
        description="mean martingale-representation residual = 0 within 3 SE",
        points=np.array([0.0]), lhs=np.array([float(res.mean())]),
        rhs=np.array([0.0]), se=np.array([float(se)]),
        tolerance=np.array([3.0 * float(se)]), violations=viol,
        n_samples=len(res), meta={"residual_var": float(res.var(ddof=1))})]


SUITES = {
    "tail": _suite_tail,
    "mgf": _suite_mgf,
    "envelopes": _suite_envelopes,
    "derivatives": _suite_derivatives,
    "w": _suite_w,
    "dphi": _suite_dphi,
    "clark_ocone": _suite_clark_ocone,
}

BOUND_IDS = {
    "tail": ["gaussian_left_tail"],
    "mgf": ["mgf_domination"],
    "envelopes": ["left_envelope", "right_envelope", "right_tail_slope",
                  "gaussian_left_envelope_F"],
    "derivatives": ["dx_range", "cond_dx_range", "phi_upper", "phi_lower",
                    "d2x_range"],
    "w": ["w_lower", "w_reconstruction"],
    "dphi": ["dphi_upper", "dphi_integral_upper"],
    "clark_ocone": ["clark_ocone"],
}


def _suites_for(cfg, only=None):
    names = list(cfg.suites)
    if only:
        names = [s for s in names
                 if s == only or only in BOUND_IDS.get(s, [])]
        if not names:
            raise ValueError(f"--only {only!r} matches no suite or bound id")
    return names


def cmd_bounds(cfg, args):
    table = _table_for(cfg)
    try:
        names = _suites_for(cfg, args.only)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    ctx = {}
    allow = not args.no_simulate
    try:
        needs_batch = any(s in ("tail", "mgf", "envelopes", "w") for s in names)
        if needs_batch:
            ctx["batch"] = _sim_batch(cfg, table, allow_simulate=allow)
        if any(s in ("derivatives", "w") for s in names):
            ctx["nested"] = _nested_run(cfg, table, ctx, allow_simulate=allow)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    reports = []
    for name in names:
        try:
            suite_reports = SUITES[name](cfg, table, ctx)
        except ValueError as exc:
            print(f"configuration error in suite {name}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if args.only and args.only not in (name,):
            suite_reports = [r for r in suite_reports if r.bound_id == args.only]
        reports.extend(suite_reports)

    out_dir = Path(cfg.out_dir)
    payload = dict(_provenance(cfg),
                   reports=[r.to_dict() for r in reports],
                   summary={r.bound_id: r.description for r in reports})
    _write_json(out_dir / "bounds.json", payload)
    for r in reports:
        r.write_csv(out_dir / f"bound-{r.bound_id}.csv")

    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in summarize(reports):
            print(line)
    return EXIT_VIOLATION if any(not r.passed for r in reports) else EXIT_OK


def cmd_malliavin(cfg, args):
    table = _table_for(cfg)
    ctx = {}
    ctx["nested"] = _nested_run(cfg, table, ctx, allow_simulate=not args.no_simulate)
    reports = _suite_derivatives(cfg, table, ctx)
    out_dir = Path(cfg.out_dir)
    payload = dict(_provenance(cfg), reports=[r.to_dict() for r in reports])
    _write_json(out_dir / "malliavin.json", payload)
    nested = ctx["nested"]
    idx = nested["indices"].astype(int)
    import csv as _csv
    with open(out_dir / "malliavin-profile.csv", "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["theta", "mean_dX", "bound_sigma_K", "margin",
                         "mean_cond_dX", "mean_inner_se"])
        bounds = ml.dx_bounds(table, cfg.model_params(), idx)
        for c, k in enumerate(idx):
            mean_dx = float(nested["dX"][:, c].mean())
            writer.writerow([repr(float(table.grid[k])),
                             repr(mean_dx),
                             repr(float(bounds[c])),
                             repr(mean_dx - float(bounds[c])),
                             repr(float(nested["cond"][:, c].mean())),
                             repr(float(nested["cond_se"][:, c].mean()))])
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in summarize(reports):
            print(line)
    return EXIT_VIOLATION if any(not r.passed for r in reports) else EXIT_OK


def cmd_density(cfg, args):
    table = _table_for(cfg)
    try:
        batch = _sim_batch(cfg, table, allow_simulate=not args.no_simulate)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    dens = dn.kde_log_domain(batch.X, n_boot=cfg.kde_bootstrap, seed=cfg.seed)
    reports = dn.verify_envelopes(dens, batch.params, batch.centering,
                                  sample_mean_F=float(batch.F.mean()),
                                  sample_var_F=float(batch.F.var(ddof=1)))
    reports.append(dn.verify_gaussian_tail(batch.X, batch.params))
    reports.append(dn.verify_mgf(batch.X, batch.params))
    out_dir = Path(cfg.out_dir)
    densF = dn.induced_density_F(dens, batch.centering)
    payload = dict(_provenance(cfg),
                   density=dens.to_dict(),
                   density_F=densF.to_dict(),
                   reports=[r.to_dict() for r in reports])
    _write_json(out_dir / "density.json", payload)
    import csv as _csv
    with open(out_dir / "density.csv", "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["x", "density", "se", "x_F", "density_F"])
        for i in range(len(dens.x)):
            writer.writerow([repr(float(dens.x[i])), repr(float(dens.density[i])),
                             repr(float(dens.se[i])), repr(float(densF.x[i])),
                             repr(float(densF.density[i]))])
    for r in reports:
        r.write_csv(out_dir / f"bound-{r.bound_id}.csv")
    if args.json:
        print(json.dumps({"reports": [r.to_dict() for r in reports]}, sort_keys=True))
    else:
        for line in summarize(reports):
            print(line)
    return EXIT_VIOLATION if any(not r.passed for r in reports) else EXIT_OK


def cmd_report(cfg, args):
    out_dir = Path(cfg.out_dir)
    found = False
    lines = []
    for name in ("kernel-verify.json", "bounds.json", "malliavin.json",
                 "density.json"):
        path = out_dir / name
        if not path.exists():
            continue
        found = True
        with open(path) as fh:
            payload = json.load(fh)
        lines.append(f"== {name} (config {payload.get('config_hash')}) ==")
        for c in payload.get("checks", []):
            lines.append(f"  {'PASS' if c['pass'] else 'FAIL'} {c['id']}: "
                         f"{c['value']:.3e} <= {c['tolerance']:.1e}")
        for r in payload.get("reports", []):
            status = "PASS" if r["passed"] else "FAIL"
            lines.append(f"  {status} {r['bound_id']} "
                         f"(violations={r['violations']}, n={r['n_samples']}): "
                         f"{r['description']}")
    if not found:
        print(f"error: no reports found under {out_dir}", file=sys.stderr)
        return EXIT_CONFIG
    text = "\n".join(lines)
    print(text)
    (out_dir / "report.txt").write_text(text + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(prog="expfbm",
                                description=__doc__.splitlines()[0])
    p.add_argument("--config", type=str, help="JSON config file")
    p.add_argument("--seed", type=int, help="root seed override")
    p.add_argument("--out", type=str, help="output directory override")
    p.add_argument("--paths", type=int, help="outer path count override")
    p.add_argument("--inner", type=int, help="inner path count override")
    p.add_argument("--grid", type=int, help="grid size override")
    p.add_argument("--json", action="store_true", help="machine-readable stdout")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("kernel-verify").add_argument(
        "--corrupt-ch", type=float, default=None,
        help="multiply c_H by this factor (fault-injection testing)")
    sub.add_parser("simulate")
    for name in ("bounds", "malliavin", "density"):
        sp = sub.add_parser(name)
        sp.add_argument("--only", type=str, default=None,
                        help="run a single suite or bound id")
        sp.add_argument("--no-simulate", action="store_true",
                        help="fail instead of regenerating missing caches")
    sub.add_parser("report")
    return p


def _apply_overrides(cfg, args):
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out is not None:
        updates["out_dir"] = args.out
    if args.paths is not None:
        updates["outer_paths"] = args.paths
    if args.inner is not None:
        updates["inner_paths"] = args.inner
    if args.grid is not None:
        updates["grid_n"] = args.grid
    return dataclasses.replace(cfg, **updates) if updates else cfg


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    for attr in ("only", "no_simulate", "corrupt_ch"):
        if not hasattr(args, attr):
            setattr(args, attr, None)
    try:
        cfg = (ExperimentConfig.from_file(args.config) if args.config
               else ExperimentConfig())
        cfg = _apply_overrides(cfg, args)      # replace() re-runs the checks
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    handlers = {
        "kernel-verify": cmd_kernel_verify,
        "simulate": cmd_simulate,
        "bounds": cmd_bounds,
        "malliavin": cmd_malliavin,
        "density": cmd_density,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](cfg, args)
    except MemoryError:
        print("resource limit exceeded", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
