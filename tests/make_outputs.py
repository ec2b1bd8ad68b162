"""Run the commands of the benchmark's workloads and of an all-suite n=32
config from one source tree, with a fixed seed, into one directory.

    python3 tests/make_outputs.py [--seed S] TREE DIR
    python3 tests/compare_outputs.py DIR_A DIR_B

TREE is a checkout whose src/expfbm is run as it is (nothing is installed).
DIR gets one directory per config: its config.json, the output directory
out/ that every command of the config writes to, and commands.json, each
command's argv, exit status, stdout lines and stderr lines. Each workload's
config, set-up (kernel-verify), steps and seeds are those of
perfbench/run.py (WORKLOADS, derive_seeds with S as the benchmark seed), read
from this checkout's perfbench; the last config is every suite at n=32 (2e4
outer, 1e4 centering and nested paths, 50 inner, stride 8, seed S) through
kernel-verify, bounds, malliavin, density, simulate and report. Every
command runs in its config's directory with a relative --out, BLAS at one
thread and the default worker count, so the outputs of two trees run into
two directories differ only where the programs do. Exits 0 when every
command exited 0, else 1.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
ALL_SUITES = "all-suites-n32"


def load_run():
    """perfbench/run.py as a module (it puts perfbench on sys.path itself)."""
    path = PERFBENCH / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module          # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def plan(run, seed):
    """{config name: (config, [argv of each command])}."""
    configs = {}
    for name, wl in run.WORKLOADS.items():
        seeds = run.derive_seeds(seed, wl.n_seeds)
        argvs = [["kernel-verify"]] + [["--seed", str(seeds[step.seed_index]), *step.argv]
                                       for step in wl.steps]
        configs[name] = (dict(wl.config, seed=seeds[0]), argvs)
    config = dict(run.MODEL, grid_n=32, outer_paths=20_000, centering_paths=10_000,
                  nested_paths=10_000, inner_paths=50, subgrid_stride=8, seed=seed)
    configs[ALL_SUITES] = (config, [[command] for command in (
        "kernel-verify", "bounds", "malliavin", "density", "simulate", "report")])
    return configs


def run_config(run, tree, config_dir, config, argvs):
    """Run the commands of one config from tree into config_dir (a new
    directory); return their exit statuses."""
    config_dir.mkdir(parents=True)
    (config_dir / "config.json").write_text(json.dumps(config, sort_keys=True) + "\n")
    env = dict(run.child_env(), PYTHONPATH=str(Path(tree).resolve() / "src"))
    records = []
    for argv in argvs:
        proc = subprocess.run(
            [sys.executable, "-m", "expfbm.cli", "--config", "config.json",
             "--out", "out", *argv], cwd=config_dir, env=env, capture_output=True,
            text=True)
        records.append({"argv": argv, "exit": proc.returncode,
                        "stdout": proc.stdout.splitlines(),
                        "stderr": proc.stderr.splitlines()})
        print(f"{config_dir.name}: {' '.join(argv)} -> exit {proc.returncode}")
    (config_dir / "commands.json").write_text(json.dumps(records, indent=1) + "\n")
    return [r["exit"] for r in records]


def main(argv=None):
    parser = argparse.ArgumentParser(prog="make_outputs.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1,
                        help="benchmark seed of the workloads, seed of the n=32 config")
    parser.add_argument("tree", help="source tree whose src/expfbm is run")
    parser.add_argument("dir", help="output directory (one new directory per config)")
    args = parser.parse_args(argv)
    if not (Path(args.tree) / "src" / "expfbm" / "cli.py").is_file():
        print(f"error: no expfbm sources under {args.tree}/src", file=sys.stderr)
        return 2
    run = load_run()
    statuses = []
    for name, (config, argvs) in plan(run, args.seed).items():
        statuses += run_config(run, args.tree, Path(args.dir) / name, config, argvs)
    return 0 if not any(statuses) else 1


if __name__ == "__main__":
    sys.exit(main())
