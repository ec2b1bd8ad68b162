#!/usr/bin/env python3
"""End-to-end and per-module benchmark of the expfbm command line.

    python3 perfbench/run.py --workload bounds-n64 --seed 1 --seconds 36 --trace 0

Run from the repository root. The package is run from ./src as it is in
the checkout; nothing is installed. Each round of a workload gets a fresh,
empty output directory, runs `expfbm kernel-verify` (the set-up) and then
the workload's commands, one process at a time, and checks every output
(perfbench/checks.py). Before every expfbm command it times one process of
perfbench/reference.py, and the round's times are scaled by REF_S over the
mean reference time, which keeps the machine's speed drift out of them.
Rounds repeat until --seconds have passed; every metric is the median over
the run's rounds.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced rounds; traced rounds launch each command through
perfbench/trace_cli.py, and the per-layer metrics are taken from its spans.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from trace_cli import RATES, TRACED  # noqa: E402

# BLAS pinned to one thread (at most nproc): on a small shared machine a
# second BLAS thread adds more run-to-run spread than speed.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_RUN_S = 150.0          # no new round once a run is this old
# Seconds that perfbench/reference.py takes on the machine of the README
# (near its median there). Times are reported at this reference speed.
REF_S = 1.2

MODEL = {"hurst_H": 0.7, "horizon_T": 1.0, "drift_a": 0.0, "sigma_vol": 1.0}
BOUND_IDS = {
    "bounds": ["gaussian_left_tail", "mgf_domination", "left_envelope",
               "right_envelope", "right_tail_slope", "gaussian_left_envelope_F",
               "dx_range", "cond_dx_range", "phi_upper", "phi_lower",
               "d2x_range", "w_lower", "w_reconstruction", "dphi_upper",
               "dphi_integral_upper"],
    "malliavin": ["dx_range", "cond_dx_range", "phi_upper", "phi_lower",
                  "d2x_range"],
    "density": ["left_envelope", "right_envelope", "right_tail_slope",
                "gaussian_left_envelope_F", "gaussian_left_tail",
                "mgf_domination"],
}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Context:
    """What one run's checks need: the model reference and the inputs."""

    ref: checks.Reference
    config: dict
    seeds: list
    residuals: list = field(default_factory=list)


@dataclass(frozen=True)
class Step:
    argv: tuple                      # expfbm subcommand and its options
    seed_index: int                  # which of the run's seeds the step uses
    check: Callable                  # (out_dir, Context, seed) -> [errors]


def _check_setup(out_dir, ctx, seed):
    return checks.check_kernel_verify(out_dir)


def _check_bounds_all(out_dir, ctx, seed):
    return checks.check_reports(out_dir / "bounds.json", BOUND_IDS["bounds"],
                                ctx.ref)[0]


def _check_malliavin(out_dir, ctx, seed):
    errors = checks.check_reports(out_dir / "malliavin.json",
                                  BOUND_IDS["malliavin"], ctx.ref)[0]
    return errors + checks.check_malliavin_profile(
        out_dir / "malliavin-profile.csv", ctx.ref, ctx.config["nested_paths"])


def _check_nothing(out_dir, ctx, seed):
    return []


def _check_density(out_dir, ctx, seed):
    errors = checks.check_reports(out_dir / "density.json",
                                  BOUND_IDS["density"], ctx.ref)[0]
    return errors + checks.check_simulate_density(out_dir, ctx.ref,
                                                  ctx.config["outer_paths"])


def _check_sweep_seed(out_dir, ctx, seed):
    """One seed of the sweep: its own report, and a residual that differs
    from every earlier seed's."""
    errors, reports = checks.check_reports(out_dir / "bounds.json",
                                           ["clark_ocone"], ctx.ref)
    payload = json.loads((out_dir / "bounds.json").read_text())
    if payload["seed"] != seed:
        errors.append(f"bounds.json: seed {payload['seed']}, expected {seed}")
    report = reports.get("clark_ocone")
    if report is not None:
        errors += checks.check_clark_ocone(report, ctx.ref)
        residual = report["lhs"][0]
        if residual in ctx.residuals:
            errors.append(f"clark_ocone: seed {seed} repeats residual {residual}")
        ctx.residuals.append(residual)
    return errors


@dataclass(frozen=True)
class Workload:
    why: str
    config: dict
    n_seeds: int
    steps: tuple


SWEEP_SEEDS = 2
WORKLOADS = {
    "bounds-n64": Workload(
        why=("bounds (every suite but clark_ocone), then malliavin, at n=64 with "
             "1e4 nested paths: nested Monte Carlo (phi_x_batch, "
             "dphi_bound_check) dominates"),
        # clark_ocone runs in sweep-n256 only: its 3-SE test fails on some
        # seeds of a correct program (heavy-tailed residuals)
        config=dict(MODEL, grid_n=64, outer_paths=20_000, centering_paths=10_000,
                    nested_paths=10_000, inner_paths=50, subgrid_stride=16,
                    kde_bootstrap=100,
                    suites=["tail", "mgf", "envelopes", "derivatives", "w",
                            "dphi"]),
        n_seeds=1,
        steps=(Step(("bounds",), 0, _check_bounds_all),
               Step(("malliavin", "--no-simulate"), 0, _check_malliavin))),
    "density-n256": Workload(
        why=("simulate, then density, at n=256 with 1e5 paths: sampling, the "
             "samples CSV and the sample cache dominate; no nested Monte Carlo"),
        config=dict(MODEL, grid_n=256, outer_paths=100_000,
                    centering_paths=50_000, kde_bootstrap=100),
        n_seeds=1,
        steps=(Step(("simulate",), 0, _check_nothing),
               Step(("density", "--no-simulate"), 0, _check_density))),
    "sweep-n256": Workload(
        why=("clark_ocone suite for two seeds into one output directory at n=256: "
             "the O(P n^2) Clark-Ocone pass and a kernel table per seed dominate"),
        config=dict(MODEL, grid_n=256, outer_paths=1_000, centering_paths=1_000,
                    nested_paths=1_000, suites=["clark_ocone"]),
        n_seeds=SWEEP_SEEDS,
        steps=tuple(Step(("bounds",), k, _check_sweep_seed)
                    for k in range(SWEEP_SEEDS))),
}


def derive_seeds(bench_seed, count):
    """The expfbm seeds of a run: a fixed function of the benchmark seed."""
    rnd = random.Random(f"expfbm-bench:{bench_seed}")
    return [rnd.randrange(1, 2 ** 31) for _ in range(count)]


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------

def child_env():
    env = {k: v for k, v in os.environ.items() if k != "EXPFBM_WORKERS"}
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


@dataclass
class Command:
    status: int
    wall_s: float
    rss_mb: float
    spans: list | None = None


def run_command(argv, log, spans_path=None):
    """Run one expfbm command to its end."""
    if spans_path is None:
        cmd = [sys.executable, "-m", "expfbm.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "trace_cli.py"), str(spans_path), *argv]
    return run_process(cmd, log, spans_path)


def run_reference(log):
    """Time one process of the fixed reference work (reference.py)."""
    return run_process([sys.executable, str(HERE / "reference.py")], log)


def run_process(cmd, log, spans_path=None):
    """Run one process to its end; wall time from spawn to reaping."""
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(wait_status)   # reaped by wait4
    spans = None
    if spans_path is not None and spans_path.exists():
        spans = json.loads(spans_path.read_text())["spans"]
    return Command(proc.returncode, wall, usage.ru_maxrss / 1024.0, spans)


def warm_up(run_dir):
    """One untimed import of the package and one untimed reference, so
    that the first timed round does not pay for a cold file cache."""
    run_dir.mkdir(parents=True)
    cmd = run_command(["--help"], run_dir / "warm-up.txt")
    if cmd.status != 0:
        print("warm-up: expfbm --help failed", file=sys.stderr)
    run_reference(run_dir / "warm-up.txt")


def dir_bytes(path):
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclass
class Round:
    traced: bool
    setup_s: float                   # wall time of the set-up
    wall_s: float
    ref_s: list                      # one reference time per command
    peak_rss_mb: float
    disk_mb: float
    attempted: int
    failed: int
    errors: list
    spans: list                      # one span list per traced command

    @property
    def speed(self):
        """Factor that scales this round's times to the reference speed."""
        return REF_S / statistics.fmean(self.ref_s)


def run_round(wl, ctx, round_dir, traced):
    round_dir.mkdir(parents=True)
    ctx.residuals.clear()
    out_dir = round_dir / "out"
    cfg_path = round_dir / "config.json"
    cfg_path.write_text(json.dumps(dict(ctx.config, seed=ctx.seeds[0])))
    log = round_dir / "log.txt"
    # (subcommand, check, seed): the set-up leaves its kernel table in the
    # output directory that the workload's commands then use
    commands = [(["kernel-verify"], _check_setup, None)]
    for step in wl.steps:
        seed = ctx.seeds[step.seed_index]
        commands.append((["--seed", str(seed), *step.argv], step.check, seed))

    results, refs, errors = [], [], []
    for i, (sub, check, seed) in enumerate(commands):
        ref = run_reference(round_dir / "reference.txt")
        refs.append(ref.wall_s)
        if ref.status != 0:
            errors.append(f"reference.py exited {ref.status}")
        spans_path = round_dir / f"spans-{i}.json" if traced else None
        argv = ["--config", str(cfg_path), "--out", str(out_dir), *sub]
        cmd = run_command(argv, log, spans_path)
        results.append(cmd)
        if cmd.status != 0:
            tail = log.read_text(errors="replace").splitlines()[-5:]
            print(f"command {' '.join(sub)} exited {cmd.status}: "
                  + " | ".join(tail), file=sys.stderr)
            continue
        try:
            errors += check(out_dir, ctx, seed)
        except (OSError, KeyError, IndexError, ValueError, TypeError) as exc:
            errors.append(f"{' '.join(sub)}: unreadable output ({exc!r})")
    work = results[1:]
    return Round(traced=traced, setup_s=results[0].wall_s,
                 wall_s=sum(c.wall_s for c in work),
                 ref_s=refs,
                 peak_rss_mb=max(c.rss_mb for c in work),
                 disk_mb=dir_bytes(out_dir) / 1e6 if out_dir.exists() else 0.0,
                 attempted=len(results),
                 failed=sum(c.status != 0 for c in results),
                 errors=errors,
                 spans=[c.spans for c in results if c.spans is not None])


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

def traced_names():
    return [f"{module}.{name}" for module, names in TRACED.items() for name in names]


def layer_metrics(command_spans):
    """Per function: inclusive and self seconds and calls; per module: self
    CPU seconds and minor faults; rates where the work is known."""
    names = traced_names()
    incl = dict.fromkeys(names, 0.0)
    self_s = dict.fromkeys(names, 0.0)
    calls = dict.fromkeys(names, 0)
    work = dict.fromkeys(RATES, 0.0)
    modules = list(TRACED)
    cpu = dict.fromkeys(modules, 0.0)
    minflt = dict.fromkeys(modules, 0)
    for spans in command_spans:
        child_s = [0.0] * len(spans)
        child_cpu = [0.0] * len(spans)
        child_flt = [0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
                child_cpu[s["parent"]] += s["cpu_s"]
                child_flt[s["parent"]] += s["minflt"]
        for i, s in enumerate(spans):
            name = s["name"]
            module = name.split(".")[0]
            dur = s["end"] - s["start"]
            incl[name] += dur
            self_s[name] += dur - child_s[i]
            calls[name] += 1
            cpu[module] += s["cpu_s"] - child_cpu[i]
            minflt[module] += s["minflt"] - child_flt[i]
            if name in work:
                work[name] += s.get("work", 0)
    metrics = {}
    for name in names:
        metrics[f"{name}.s"] = (incl[name], "s")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
        metrics[f"{name}.calls"] = (calls[name], "count")
    for module in modules:
        metrics[f"{module}.cpu_s"] = (cpu[module], "s")
        metrics[f"{module}.minflt"] = (minflt[module], "count")
    for name, (suffix, unit, scale, _) in RATES.items():
        rate = scale * work[name] / incl[name] if incl[name] > 0 else 0.0
        metrics[f"{name}.{suffix}"] = (rate, unit)
    return metrics


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def median_metrics(per_round):
    keys = per_round[0].keys()
    return {k: (statistics.median(m[k][0] for m in per_round), per_round[0][k][1])
            for k in keys}


def end_to_end(rounds):
    """Times at the reference speed; sizes as measured."""
    return median_metrics([{"wall_s": (r.wall_s * r.speed, "s"),
                             "setup_s": (r.setup_s * r.speed, "s"),
                             "peak_rss_mb": (r.peak_rss_mb, "MB"),
                             "disk_mb": (r.disk_mb, "MB")} for r in rounds])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "expfbm" / "cli.py").is_file():
        print(f"error: no expfbm sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    cfg = wl.config
    ctx = Context(ref=checks.Reference(cfg["hurst_H"], cfg["horizon_T"],
                                       cfg["drift_a"], cfg["sigma_vol"]),
                  config=cfg, seeds=derive_seeds(args.seed, wl.n_seeds))
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    pattern = (False, True) if args.trace else (False,)
    rounds = []
    try:
        warm_up(run_dir)
        start = time.perf_counter()
        while True:
            for traced in pattern:
                round_dir = run_dir / f"round-{len(rounds)}"
                rounds.append(run_round(wl, ctx, round_dir, traced))
                shutil.rmtree(round_dir)
                r = rounds[-1]
                print(f"round {len(rounds) - 1} traced={int(r.traced)} "
                      f"setup_s={r.setup_s:.3f} "
                      f"wall_s={r.wall_s:.3f} "
                      f"reference_s={','.join(f'{s:.3f}' for s in r.ref_s)} "
                      f"(raw times; speed factor {r.speed:.4f})")
            elapsed = time.perf_counter() - start
            per_pattern = elapsed / (len(rounds) / len(pattern))
            # stop at the pattern boundary nearest to --seconds
            if elapsed + 0.5 * per_pattern >= args.seconds \
                    or elapsed + per_pattern > MAX_RUN_S:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    errors = sorted({e for r in rounds for e in r.errors})
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    untraced = [r for r in rounds if not r.traced]
    if args.trace:
        traced = [r for r in rounds if r.traced]
        per_round = [layer_metrics(r.spans) for r in traced]
        metrics = median_metrics(per_round)
        traced_wall = statistics.median(r.wall_s * r.speed for r in traced)
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (
            traced_wall - statistics.median(r.wall_s * r.speed for r in untraced),
            "s")
        metrics["machine.reference_s"] = (
            statistics.median(statistics.fmean(r.ref_s) for r in rounds), "s")
        write_trace(args, traced)
    else:
        metrics = end_to_end(untraced)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"workload {args.workload}  seed {args.seed}  seeds {ctx.seeds}  "
          f"rounds {len(rounds)}  BLAS threads {BLAS_THREADS}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    print(f"  attempted {attempted}  failed {failed}  checks "
          f"{'passed' if not errors else 'FAILED'}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def write_trace(args, traced_rounds):
    """Spans of every traced round, written once at the end of the run."""
    trace_dir = OUT / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    path = trace_dir / f"{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "rounds": [r.spans for r in traced_rounds]}))


if __name__ == "__main__":
    sys.exit(main())
