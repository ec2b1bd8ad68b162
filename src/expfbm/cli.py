"""Reproducible experiment driver: configuration, caches, suite selection
and output; the checks themselves live beside their estimators.

Subcommands: kernel-verify, simulate, density, bounds, malliavin, report.
A run is a pure function of its configuration: the effective config (all
defaults resolved), its hash, the seed and the code version are embedded in
every output file (the BLAS setup and worker count in the JSON files), and
identical configs produce byte-identical CSV/JSON at one BLAS thread count.

Every command but report ends in _emit: it writes <command>.json and prints
it (--json) or its text lines. bounds, malliavin and density share one
runner, which writes a bound-<id>.csv per report (reports.write_columns)
and prints one `reports.summarize` line per report, as report does.
`--only` is a bounds option.

Exit codes, the same for every command: 0 all selected suites pass, 1 bound
violation, 2 configuration error, 3 resource/budget exceeded (also when a
cache or output file cannot be written).
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import density as dn
from . import functional as fn
from . import kernel as kn
from . import malliavin as ml
from . import paths as pth
from . import reports, rng
from .reports import summarize, write_columns

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3

SIM_FIELDS = ("hurst_H", "horizon_T", "drift_a", "sigma_vol", "grid_n",
              "outer_paths", "centering_paths", "seed")
TABLE_FIELDS = ("hurst_H", "horizon_T", "grid_n")
# the fields the nested run reads (_nested_run): the model, the grid, the
# seed and the nested sizes, not the outer or centering path counts
NESTED_FIELDS = ("hurst_H", "horizon_T", "drift_a", "sigma_vol", "grid_n", "seed",
                 "nested_paths", "inner_paths", "subgrid_stride")

# Part of every cache key, with the code version. Bump it when the contents
# of a cache change meaning, so files written by older code are not read.
# 2: nested estimates share one inner draw set per block of paths.
# 3: kernel tables built by a running sum over rows (differ in the last bits).
# 4: sample caches hold ln F and X (not F); tables take c_H from its closed
#    form; ln F is a max-shifted log-sum (all differ in the last bits).
# 5: the nested cache's Phi_X lower bound uses the discrete model's
#    conditional variance (moves by ~1e-3 relative).
# 6: the nested cache holds the d2x_range summary.
# 7: nested estimates take the conditional means from the sweep (differ in
#    the last bits).
# 8: nested estimates take the conditional means from one product per node
#    (differ in the last bits).
# 9: nested estimates sum the frozen past inside the GEMM (differ in the
#    last bits).
# 10: sample caches hold ln F only (X = ln F - E[ln F] is formed on use);
#     tables take the diagonal cells from a Gauss-Jacobi rule and the first
#     cell from the substitution z = z_max y^m (move by up to 4.3e-6).
# 11: caches are written without deflate; the nested cache holds a summary of
#     D X (per-node max and mean, violations) in place of D X.
# 12: the nested cache keeps per path only ln F and Phi_X; of E[D X | F] with
#     its SE, Phi_X's SE and the Phi_X lower bound it keeps their summaries.
# 13: the Phi_X lower bound takes max M from the carried lognormal exponent
#     on zero-padded sweep blocks (phi_lower_min moves in the last bits).
# 14: the Phi_X lower bound reads sigma min N off that exponent, and the
#     nested driver pads its last block (both move in the last bits).
# 15: D X, the Gibbs means of D^2 X and so Phi_X are formed in zero-padded
#     blocks of rows (paths.map_rows; move in the last bits at some path
#     counts); the nested cache is keyed only on the fields it reads.
# 16: tables above H = 0.99 take the first cell's K^2 weights from a
#     128-node rule (move by up to 5.4e-7 at H = 0.999).
# 17: tables take the diagonal cells from the binomial series of K / g^alpha
#     (move by up to 4.7e-14 relative at n = 512; other cells by a few ulps).
# 18: tables hold their packed lower triangles without deflate (no cache file
#     is deflated); every array loads bit for bit as before.
CACHE_SCHEMA = 18


# field type -> (check, what an error message calls it)
_FIELD_KINDS = {
    "int": (lambda v: isinstance(v, int), "an int"),
    "float": (lambda v: isinstance(v, (int, float)) and math.isfinite(v), "a finite float"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple": (lambda v: isinstance(v, tuple) and all(isinstance(s, str) for s in v),
              "a list of suite names"),
}


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
    out_dir: str = "expfbm-out"
    suites: tuple = ("tail", "mgf", "envelopes", "derivatives", "w", "dphi",
                     "clark_ocone")

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            ok, kind = _FIELD_KINDS[f.type]
            if isinstance(value, bool) or not ok(value):
                raise ValueError(f"{f.name} must be {kind}, got {value!r}")
        rules = {
            "hurst_H": (0.5 < self.hurst_H < 1.0, "in (1/2, 1)"),
            "horizon_T": (self.horizon_T > 0, "> 0"),
            "sigma_vol": (self.sigma_vol >= 0, ">= 0"),
            "grid_n": (self.grid_n >= 8, ">= 8"),
            "inner_paths": (self.inner_paths >= 50 and self.inner_paths % 2 == 0,
                            "even (antithetic pairs) and >= 50"),
            "subgrid_stride": (self.subgrid_stride >= 1, ">= 1"),
            "outer_paths": (self.outer_paths == 0 or self.outer_paths >= 2,
                            "0 or >= 2 (one sample has no variance)"),
            "suites": (set(self.suites) <= set(SUITES), f"among {sorted(SUITES)}"),
        }
        for name in ("nested_paths", "kde_bootstrap", "seed"):
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
        if not isinstance(raw, dict):
            raise ValueError(f"a config file holds a JSON object, got {type(raw).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if isinstance(raw.get("suites"), list):
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
        """Hash of the given fields, the code version, the cache schema and
        the BLAS thread count (the last bits of a GEMM can depend on it)."""
        d = self.effective()
        blob = json.dumps({"fields": {k: d[k] for k in fields},
                           "code_version": __version__,
                           "cache_schema": CACHE_SCHEMA,
                           "blas_threads": fn.blas_setup()["threads"]},
                          sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def model_params(self):
        return fn.ModelParams(a=self.drift_a, sigma=self.sigma_vol,
                              hurst=kn.HurstParams(self.hurst_H, self.horizon_T))


def _provenance(cfg: ExperimentConfig):
    return {"config": cfg.effective(), "config_hash": cfg.hash(),
            "sim_hash": cfg.sim_hash(), "code_version": __version__,
            "seed": cfg.seed, "batch_partition": rng.BATCH,
            "blas": fn.blas_setup(), "workers": fn._workers(fn.MAX_WORKERS)}


class OutputError(Exception):
    """A cache or output file could not be written (exit 3)."""


@contextmanager
def _writing(path):
    """Raise an OSError of the block as an OutputError naming path."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# caches
# ---------------------------------------------------------------------------

def _cache_dir(cfg):
    d = Path(cfg.out_dir) / "cache"
    with _writing(d):
        d.mkdir(parents=True, exist_ok=True)
    return d


def _write_atomic(path, write):
    """Call write(tmp) on a temp file beside path, then move it into place, so
    a reader never sees a partly written cache."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    with _writing(path):
        try:
            write(tmp)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)


def _cached(path, load, build, save, allow_build=True):
    """load(path) if it can be read; else build(), save(value, tmp) it
    atomically in place, and return it.

    An unreadable file is a miss like a missing one, reported on stderr.
    Without allow_build (--no-simulate) a miss raises FileNotFoundError.
    """
    if path.exists():
        try:
            return load(path)
        except reports.UNREADABLE as exc:
            print(f"warning: cache {path} is unreadable ({type(exc).__name__}: "
                  f"{exc}); treating it as a miss", file=sys.stderr)
    if not allow_build:
        raise FileNotFoundError(
            f"cache {path} missing or unreadable and simulation disabled (--no-simulate)")
    value = build()
    _write_atomic(path, lambda tmp: save(value, tmp))
    return value


def _table_for(cfg) -> kn.KernelTable:
    # the table depends on (H, T, n) only, so every seed shares one file; it
    # is deterministic quadrature, not simulation, so --no-simulate rebuilds it
    return _cached(_cache_dir(cfg) / f"table-{cfg.cache_key(TABLE_FIELDS)}.npz",
                   kn.load_table,
                   lambda: kn.build_kernel_table(cfg.hurst_H, cfg.horizon_T, cfg.grid_n),
                   kn.save_table)


def _sim_batch(cfg, table, allow_simulate=True) -> dn.SampleBatch:
    params = cfg.model_params()

    def load(path):
        data = reports.read_npz(path)
        meta = data["meta"]
        centering = fn.CenteringEstimate(meta["centering_value"], meta["centering_se"],
                                         meta["centering_paths"], cfg.seed)
        return dn.SampleBatch(lnF=data["lnF"], params=params, centering=centering,
                              meta=meta)

    def build():
        centering = fn.estimate_mean_lnF(params, table, cfg.centering_paths, cfg.seed)
        batch = dn.sample_X_batch(params, table, cfg.outer_paths, cfg.seed, centering)
        batch.meta.update({"centering_value": centering.value,
                           "centering_se": centering.se,
                           "centering_paths": centering.n_paths})
        return batch

    return _cached(_cache_dir(cfg) / f"sim-{cfg.cache_key(SIM_FIELDS)}.npz", load, build,
                   lambda batch, tmp: reports.write_npz(tmp, lnF=batch.lnF, meta=batch.meta),
                   allow_simulate)


def _once(ctx, key, make):
    """ctx[key], made on first use: a command's suites share their inputs
    through its ctx, whose "allow_simulate" says if a missing cache may be
    rebuilt."""
    if key not in ctx:
        ctx[key] = make()
    return ctx[key]


def _batch(cfg, table, ctx):
    return _once(ctx, "batch", lambda: _sim_batch(cfg, table, ctx["allow_simulate"]))


def _nested_paths(cfg, table, ctx):
    return _once(ctx, "paths",
                 lambda: pth.sample_fbm_volterra(table, cfg.nested_paths, cfg.seed))


def _nested_run(cfg, table, ctx):
    """The malliavin.derivative_summary of the nested paths (cached): per
    path ln F and Phi_X, which estimate_w_X reads, and the summaries that the
    derivative reports and malliavin-profile.csv read."""
    def build():
        return ml.derivative_summary(_nested_paths(cfg, table, ctx), table,
                                     cfg.model_params(), cfg.inner_paths, cfg.seed,
                                     stride=cfg.subgrid_stride)

    return _once(ctx, "nested", lambda: _cached(
        _cache_dir(cfg) / f"mal-{cfg.cache_key(NESTED_FIELDS)}.npz", reports.read_npz,
        build, lambda out, tmp: reports.write_npz(tmp, **out), ctx["allow_simulate"]))


# ---------------------------------------------------------------------------
# kernel-verify
# ---------------------------------------------------------------------------

# Twice the largest relative row-sum error of a table over H in
# [1/2 + 1e-6, 1 - 1e-6], n in [8, 512] and T in [0.5, 2] (2.5e-14).
ROW_SUM_TOL = 5e-14
# the quadratures of int_0^t K(t, r)^2 dr = t^2H (relative) and of the time
# integral (relative)
ENERGY_TOL = 1e-6
TIME_INTEGRAL_TOL = 1e-4
# Twice the largest absolute error of a table's energies against t^2H over
# the same H, n and T (2.6e-5, at H = 1 - 1e-5, n = 8, T = 2; below 1.5e-13
# for H <= 0.9995).
TABLE_ENERGY_TOL = 5.2e-5


def kernel_checks(cfg: ExperimentConfig, table=None):
    """Identity suite for the kernel layer; returns a list of check dicts."""
    H, T = cfg.hurst_H, cfg.horizon_T
    if table is None:
        table = _table_for(cfg)
    checks = []

    def add(check_id, value, tol, holds=True):
        checks.append({"id": check_id, "value": float(value),
                       "tolerance": float(tol), "pass": bool(holds and value <= tol)})

    ch = table.c_H
    # the table takes c_H from its closed form; the quadrature cross-checks it
    add("calibration_closed_form", abs(ch / kn.calibrate_ch(H) - 1.0), 1e-7)
    for t in (0.5 * T, T):
        e = kn.kernel_sq_integral(H, ch, t)
        add(f"energy_continuous_t={t:g}", abs(e / t ** (2 * H) - 1.0), ENERGY_TOL)
    marg = np.power(table.grid, 2.0 * H)
    add("energy_table_max_abs", np.max(np.abs(table.energies - marg)), TABLE_ENERGY_TOL)
    lhs = kn.time_integral_square_aggregate(H, ch, T)
    rhs = T ** (2 * H + 2) / (2 * H + 2)
    add("time_integral_square", abs(lhs / rhs - 1.0), TIME_INTEGRAL_TOL)
    # int_0^t K(t, r) dr = c_H B(3/2 - H, H - 1/2) t^(H+1/2) / (H + 1/2)
    log_beta = math.lgamma(1.5 - H) + math.lgamma(H - 0.5)
    row_sums = table.row_weights[1:].sum(axis=1)
    exact = ch * math.exp(log_beta) * table.grid[1:] ** (H + 0.5) / (H + 0.5)
    add("row_sum_closed_form", np.max(np.abs(row_sums / exact - 1.0)), ROW_SUM_TOL)
    # with exact cell integrals the map is E[B^H | increments]: the deficits
    # d = t^2H - map variance are >= 0 and, by Cauchy-Schwarz, the map's
    # covariance misses R_H by at most sqrt(d_i d_j)
    i, j = table.n, table.n // 2
    mapcov = float(np.sum(table.row_weights[i] * table.row_weights[j]) / table.dt)
    d_i, d_j = marg[[i, j]] - table.map_variances[[i, j]]
    add("covariance_reproduction",
        abs(mapcov - kn.covariance(H, table.grid[i], table.grid[j])),
        math.sqrt(max(d_i, 0.0) * max(d_j, 0.0)), holds=min(d_i, d_j) >= 0.0)
    cols = table.values[:, 1:table.n]
    mono = np.diff(cols, axis=0)
    rows_i, cols_j = np.tril_indices(table.n, -1)
    add("column_monotonicity",
        max(0.0, -float(mono[rows_i, cols_j].min())), 1e-12)
    return checks


def _check_line(c):
    """One kernel identity check, as kernel-verify and report print it."""
    return (f"{'PASS' if c['pass'] else 'FAIL'} {c['id']}: "
            f"{c['value']:.3e} (tol {c['tolerance']:.1e})")


def _emit(cfg, args, command, fields, lines, failed=False):
    """Write <command>.json, the provenance plus the command's fields; print
    that JSON with --json, else the text lines; return the exit code."""
    payload = dict(_provenance(cfg), **fields)
    path = Path(cfg.out_dir) / f"{command}.json"
    with _writing(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return EXIT_VIOLATION if failed else EXIT_OK


def cmd_kernel_verify(cfg, args):
    checks = kernel_checks(cfg)
    return _emit(cfg, args, "kernel-verify", {"checks": checks},
                 [_check_line(c) for c in checks],
                 failed=any(not c["pass"] for c in checks))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(cfg, args):
    table = _table_for(cfg)
    csv_path = Path(cfg.out_dir) / f"samples-{cfg.sim_hash()}.csv"
    if cfg.outer_paths == 0:        # an empty batch, with an empty summary
        batch = dn.SampleBatch(lnF=np.empty(0), params=cfg.model_params(),
                               centering=fn.CenteringEstimate(0.0, 0.0, 0, cfg.seed))
        line = f"wrote {csv_path} (empty batch)"
    else:
        batch = _sim_batch(cfg, table)
        line = (f"wrote {csv_path} ({batch.n_samples} paths), "
                f"mean F {batch.meta['mean_F']:.6f}")
    with _writing(csv_path):
        fn.write_samples_csv(csv_path, batch.lnF, batch.params, batch.centering,
                             header_meta=_csv_meta(cfg))
    return _emit(cfg, args, "simulate",
                 {"summary": batch.meta, "samples_csv": csv_path.name}, [line])


def _csv_meta(cfg):
    return {"config_hash": cfg.hash(), "sim_hash": cfg.sim_hash(),
            "code_version": __version__, "seed": cfg.seed,
            "grid_n": cfg.grid_n}


# ---------------------------------------------------------------------------
# bound suites
# ---------------------------------------------------------------------------

def _suite_tail(cfg, table, ctx):
    batch = _batch(cfg, table, ctx)
    return [dn.verify_gaussian_tail(batch.X, batch.params)]


def _suite_mgf(cfg, table, ctx):
    batch = _batch(cfg, table, ctx)
    return [dn.verify_mgf(batch.X, batch.params)]


def _density(cfg, table, ctx):
    return _once(ctx, "density", lambda: dn.kde_log_domain(
        _batch(cfg, table, ctx).X, n_boot=cfg.kde_bootstrap, seed=cfg.seed))


def _suite_envelopes(cfg, table, ctx):
    batch = _batch(cfg, table, ctx)
    return dn.verify_envelopes(_density(cfg, table, ctx), batch.params, batch.centering,
                               sample_mean_F=batch.meta["mean_F"],
                               sample_var_F=batch.meta["var_F"])


def _suite_derivatives(cfg, table, ctx):
    return ml.derivative_reports(_nested_run(cfg, table, ctx), table, cfg.model_params())


def _suite_w(cfg, table, ctx):
    X0 = _batch(cfg, table, ctx).centering.value
    nested = _nested_run(cfg, table, ctx)
    return dn.estimate_w_X(nested["lnF"] - X0, nested["phi"], cfg.model_params())["reports"]


def _suite_dphi(cfg, table, ctx):
    # on the first malliavin.DPHI_PATHS nested paths
    return ml.dphi_bound_check(_nested_paths(cfg, table, ctx), table, cfg.model_params(),
                               cfg.inner_paths, cfg.seed,
                               stride=cfg.subgrid_stride)["reports"]


def _suite_clark_ocone(cfg, table, ctx):
    return [ml.clark_ocone_report(_nested_paths(cfg, table, ctx), table,
                                  cfg.model_params())]


def _malliavin_profile(cfg, table, ctx):
    """malliavin-profile.csv: per-theta means of D_theta X and its conditional."""
    nested = _nested_run(cfg, table, ctx)
    idx = nested["indices"].astype(int)
    bounds = ml.dx_bounds(table, cfg.model_params(), idx)
    path = Path(cfg.out_dir) / "malliavin-profile.csv"
    with _writing(path):
        write_columns(path, ["theta", "mean_dX", "bound_sigma_K", "margin",
                             "mean_cond_dX", "mean_inner_se"],
                      [table.grid[idx], nested["dx_mean"], bounds,
                       nested["dx_mean"] - bounds, nested["cond_mean"],
                       nested["cond_se_mean"]])
    return {}


def _density_fields(cfg, table, ctx):
    """density.csv, and the KDE of rho_X and its image rho_F for the JSON."""
    dens = _density(cfg, table, ctx)
    densF = dn.induced_density_F(dens, _batch(cfg, table, ctx).centering)
    path = Path(cfg.out_dir) / "density.csv"
    with _writing(path):
        write_columns(path, ["x", "density", "se", "x_F", "density_F"],
                      [dens.x, dens.density, dens.se, densF.x, densF.density])
    return {"density": dens.to_dict(), "density_F": densF.to_dict()}


@dataclass(frozen=True)
class Suite:
    """One bound suite: run(cfg, table, ctx) returns its reports, whose ids
    are bound_ids in that order; minimums holds the least value of each
    config field it reads."""

    run: Callable
    bound_ids: tuple
    minimums: dict


# The suite table. The minimums: the sample needs two paths for its
# variance, the KDE KDE_MIN_SAMPLES samples and two bootstrap replicates for
# its SE, estimate_w_X W_MIN_SAMPLES joint samples and the Clark-Ocone
# residual two paths for its SE.
SUITES = {
    "tail": Suite(_suite_tail, ("gaussian_left_tail",), {"outer_paths": 2}),
    "mgf": Suite(_suite_mgf, ("mgf_domination",), {"outer_paths": 2}),
    "envelopes": Suite(_suite_envelopes,
                       ("left_envelope", "right_envelope", "right_tail_slope",
                        "gaussian_left_envelope_F"),
                       {"outer_paths": dn.KDE_MIN_SAMPLES, "kde_bootstrap": 2}),
    "derivatives": Suite(_suite_derivatives,
                         ("dx_range", "cond_dx_range", "phi_upper", "phi_lower",
                          "d2x_range"),
                         {"nested_paths": 1}),
    "w": Suite(_suite_w, ("w_lower", "w_reconstruction"),
               {"outer_paths": 2, "nested_paths": dn.W_MIN_SAMPLES}),
    "dphi": Suite(_suite_dphi, ("dphi_upper", "dphi_integral_upper"), {"nested_paths": 1}),
    "clark_ocone": Suite(_suite_clark_ocone, ("clark_ocone",), {"nested_paths": 2}),
}

# One row per suite command: the suites it runs, in order, and its finish
# hook, which writes the command's own files and returns its extra JSON
# fields.
SUITE_COMMANDS = {
    "bounds": (lambda cfg: cfg.suites, None),
    "malliavin": (lambda cfg: ("derivatives",), _malliavin_profile),
    "density": (lambda cfg: ("envelopes", "tail", "mgf"), _density_fields),
}


def _check_suites(cfg, names):
    """Raise a ValueError for the first of the suites, in order, whose inputs
    cfg cannot give, before any table, sample or nested pass is made."""
    for name in names:
        for key, least in SUITES[name].minimums.items():
            if getattr(cfg, key) < least:
                raise ValueError(f"{name} needs {key} >= {least}, got {getattr(cfg, key)}")


def _run_suites(cfg, args):
    """Run the suites of the command's row (with bounds' --only, those
    holding that suite or bound id, keeping only its reports), then its
    finish hook. Write a bound-<id>.csv per report, then _emit the reports.
    A ValueError is a configuration error; an empty selection and the
    suites' inputs are checked before any work."""
    command = args.command
    select, finish = SUITE_COMMANDS[command]
    only = getattr(args, "only", None)
    try:
        names = [s for s in select(cfg)
                 if only in (None, s) or only in SUITES[s].bound_ids]
        if not names:
            raise ValueError("no suite selected" if only is None
                             else f"--only {only!r} matches no suite or bound id")
        _check_suites(cfg, names)
        table = _table_for(cfg)
        ctx = {"allow_simulate": not args.no_simulate}
        reports = [r for name in names for r in SUITES[name].run(cfg, table, ctx)
                   if only in (None, name, r.bound_id)]
        extra = finish(cfg, table, ctx) if finish else {}
    except ValueError as exc:
        print(f"configuration error in {command}: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    for r in reports:
        path = Path(cfg.out_dir) / f"bound-{r.bound_id}.csv"
        with _writing(path):
            r.write_csv(path)
    dicts = [r.to_dict() for r in reports]
    return _emit(cfg, args, command,
                 dict(extra, reports=dicts,
                      summary={r.bound_id: r.description for r in reports}),
                 summarize(dicts), failed=any(not r.passed for r in reports))


def cmd_report(cfg, args):
    out_dir = Path(cfg.out_dir)
    lines = []
    for name in ("kernel-verify.json", "bounds.json", "malliavin.json",
                 "density.json"):
        path = out_dir / name
        if not path.exists():
            continue
        try:
            payload = json.loads(path.read_text())
            lines.append(f"== {name} (config {payload.get('config_hash')}) ==")
            lines += [_check_line(c) for c in payload.get("checks", [])]
            lines += summarize(payload.get("reports", []))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            print(f"error: {path} is unreadable ({type(exc).__name__}: {exc})",
                  file=sys.stderr)
            return EXIT_CONFIG
    if not lines:
        print(f"error: no reports found under {out_dir}", file=sys.stderr)
        return EXIT_CONFIG
    text = "\n".join(lines)
    print(text)
    with _writing(out_dir / "report.txt"):
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

    sub.add_parser("kernel-verify")
    sub.add_parser("simulate")
    for name in SUITE_COMMANDS:
        sub.add_parser(name).add_argument(
            "--no-simulate", action="store_true",
            help="fail instead of regenerating a missing or unreadable sample or "
                 "nested cache (the kernel table, deterministic quadrature, is "
                 "rebuilt)")
    sub.choices["bounds"].add_argument("--only", type=str, default=None,
                                       help="run a single suite or bound id")
    sub.add_parser("report")
    return p


def _apply_overrides(cfg, args):
    flags = {"seed": args.seed, "out_dir": args.out, "outer_paths": args.paths,
             "inner_paths": args.inner, "grid_n": args.grid}
    updates = {name: value for name, value in flags.items() if value is not None}
    return dataclasses.replace(cfg, **updates) if updates else cfg


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = (ExperimentConfig.from_file(args.config) if args.config
               else ExperimentConfig())
        cfg = _apply_overrides(cfg, args)      # replace() re-runs the checks
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    handlers = dict.fromkeys(SUITE_COMMANDS, _run_suites)
    handlers.update({"kernel-verify": cmd_kernel_verify, "simulate": cmd_simulate,
                     "report": cmd_report})
    try:
        return handlers[args.command](cfg, args)
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except FileNotFoundError as exc:        # a cache --no-simulate may not rebuild
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print("resource limit exceeded", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
