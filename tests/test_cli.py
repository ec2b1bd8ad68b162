import csv
import dataclasses
import errno
import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import expfbm.cli as cli
from expfbm import functional as fn
from expfbm import kernel as kn
from expfbm import malliavin as ml
from expfbm import paths as pth
from expfbm import reports
from expfbm.cli import EXIT_CONFIG, EXIT_OK, EXIT_VIOLATION, ExperimentConfig, main


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli")
    cfg = {
        "hurst_H": 0.7, "horizon_T": 1.0, "drift_a": 0.0, "sigma_vol": 1.0,
        "grid_n": 32, "outer_paths": 20_000, "inner_paths": 100,
        "subgrid_stride": 8, "centering_paths": 10_000, "nested_paths": 10_000,
        "seed": 321, "kde_bootstrap": 40, "out_dir": str(out / "run"),
    }
    path = out / "config.json"
    path.write_text(json.dumps(cfg))
    return path, out


@pytest.fixture
def cached_run(tmp_path):
    """A bounds run that writes (then reads) every cache: table, sample and nested."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid_n": 16, "outer_paths": 2000, "centering_paths": 1000,
        "nested_paths": 300, "inner_paths": 50, "seed": 5,
        "suites": ["tail", "derivatives"], "out_dir": str(tmp_path / "run")}))
    return ["--config", str(cfg), "bounds"], tmp_path / "run"


def read_columns(path):
    """The header of a CSV file and its columns, as lists of fields."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, [list(c) for c in zip(*rows)] or [[] for _ in header]


def assert_floats(fields, values):
    np.testing.assert_array_equal([float(f) for f in fields], values)


def sigma_zero_config(tmp_path, **fields):
    """A config file for sigma = 0, where X is deterministic."""
    path = tmp_path / "sigma0.json"
    path.write_text(json.dumps(dict(
        sigma_vol=0.0, grid_n=16, outer_paths=20_000, centering_paths=0,
        out_dir=str(tmp_path / "run"), **fields)))
    return path


class TestConfig:
    def test_round_trip_and_hash(self, small_config):
        path, _ = small_config
        cfg = ExperimentConfig.from_file(path)
        assert cfg.grid_n == 32
        assert cfg.hash() == ExperimentConfig.from_file(path).hash()
        assert cfg.sim_hash() != cfg.hash()

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"grid_m": 64}))
        with pytest.raises(ValueError):
            ExperimentConfig.from_file(bad)

    def test_cli_reports_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"grid_m": 64}))
        rc = main(["--config", str(bad), "kernel-verify"])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("field, value", [
        ("hurst_H", 0.5), ("hurst_H", 1.0), ("horizon_T", 0.0),
        ("drift_a", float("nan")), ("sigma_vol", -1.0), ("grid_n", 4),
        ("grid_n", 64.0), ("outer_paths", -1), ("inner_paths", 51),
        ("inner_paths", 48), ("subgrid_stride", 0), ("centering_paths", -1),
        ("nested_paths", -1), ("kde_bootstrap", -1), ("seed", -1),
        ("seed", "1"), ("sigma_vol", float("inf")), ("suites", ["tail", "nope"]),
        ("centering_paths", 500), ("outer_paths", 1),
    ])
    def test_invalid_field_is_config_error(self, tmp_path, capsys, field, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({field: value, "out_dir": str(tmp_path / "o")}))
        assert main(["--config", str(bad), "kernel-verify"]) == EXIT_CONFIG
        assert field in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_centering_paths_free_when_deterministic(self):
        # sigma = 0 makes ln F exact, so no centering paths are needed
        assert ExperimentConfig(sigma_vol=0.0, centering_paths=0).centering_paths == 0

    @pytest.mark.parametrize("payload", [
        [], [1, 2], "tail", {"suites": 5}, {"suites": None}, {"suites": "tail"},
        {"suites": ["tail", 5]}, {"out_dir": 5}, {"out_dir": None}])
    def test_malformed_config_is_config_error(self, tmp_path, capsys, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["--config", str(bad), "kernel-verify"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("configuration error")

    @pytest.mark.parametrize("n_boot", [0, 1])
    def test_too_few_bootstraps_is_config_error(self, tmp_path, capsys, n_boot):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid_n": 16, "outer_paths": 10_000, "centering_paths": 1000,
            "kde_bootstrap": n_boot, "out_dir": str(tmp_path / "run")}))
        assert main(["--config", str(cfg), "density"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "kde_bootstrap" in err

    @pytest.mark.parametrize("flags", [["--grid", "4"], ["--inner", "51"],
                                       ["--paths", "-5"]])
    def test_invalid_override_is_config_error(self, tmp_path, capsys, flags):
        rc = main(["--out", str(tmp_path / "o")] + flags + ["malliavin"])
        assert rc == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err


class TestCaches:
    def test_key_holds_schema_and_version(self, monkeypatch):
        cfg = ExperimentConfig()
        fields = (cli.TABLE_FIELDS, cli.SIM_FIELDS, cli.NESTED_FIELDS)
        keys = [cfg.cache_key(f) for f in fields]
        assert len(set(keys)) == 3
        monkeypatch.setattr(cli, "CACHE_SCHEMA", cli.CACHE_SCHEMA + 1)
        assert all(cfg.cache_key(f) != k for f, k in zip(fields, keys))
        monkeypatch.undo()
        monkeypatch.setattr(cli, "__version__", "0.0.0")
        assert all(cfg.cache_key(f) != k for f, k in zip(fields, keys))

    def test_blas_threads_key_the_caches(self, tmp_path, monkeypatch):
        # the Volterra map's last bits can depend on the BLAS thread count,
        # which the environment sets when numpy loads the BLAS
        cfg = ExperimentConfig(grid_n=16, outer_paths=500, centering_paths=1000,
                               out_dir=str(tmp_path))
        for threads in (1, 2, 1):
            monkeypatch.setitem(fn.BLAS, "threads", threads)
            cli._sim_batch(cfg, cli._table_for(cfg))
            assert cli._provenance(cfg)["blas"]["threads"] == threads
        assert len(list((tmp_path / "cache").glob("sim-*.npz"))) == 2
        provenance = cli._provenance(cfg)
        assert provenance["blas"]["name"] and provenance["workers"] >= 1

    def test_other_schema_cache_not_read(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig(grid_n=16, outer_paths=500, centering_paths=1000,
                               out_dir=str(tmp_path))
        table = cli._table_for(cfg)
        monkeypatch.setattr(cli, "CACHE_SCHEMA", cli.CACHE_SCHEMA + 1)
        cli._sim_batch(cfg, table)
        (stale,) = (tmp_path / "cache").glob("sim-*.npz")
        with np.load(stale) as data:
            poisoned = dict(data)
        poisoned["lnF"] = np.zeros_like(poisoned["lnF"])
        with open(stale, "wb") as fh:
            np.savez_compressed(fh, **poisoned)
        assert np.all(cli._sim_batch(cfg, table).F == 1.0)   # that schema reads it
        monkeypatch.undo()
        assert not np.all(cli._sim_batch(cfg, table).F == 1.0)
        assert len(list((tmp_path / "cache").glob("sim-*.npz"))) == 2
        assert not list((tmp_path / "cache").glob("*.tmp"))

    @staticmethod
    def outputs(run):
        return {p.name: p.read_bytes() for p in run.iterdir() if p.is_file()}

    def test_unreadable_cache_is_a_miss(self, cached_run, capsys):
        argv, run = cached_run
        assert main(argv) == EXIT_OK
        clean = self.outputs(run)
        caches = sorted((run / "cache").glob("*.npz"))
        assert [p.name.split("-")[0] for p in caches] == ["mal", "sim", "table"]
        for p in caches:
            p.write_bytes(p.read_bytes()[:100])
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().err.count("treating it as a miss") == 3
        assert self.outputs(run) == clean
        for p in caches:                  # rewritten whole, read without a miss
            assert p.stat().st_size > 100
        assert main(argv) == EXIT_OK
        assert "treating it as a miss" not in capsys.readouterr().err
        assert not list((run / "cache").glob("*.tmp"))

    def test_unreadable_cache_with_no_simulate(self, cached_run, capsys):
        argv, run = cached_run
        assert main(argv) == EXIT_OK
        (sim,) = (run / "cache").glob("sim-*.npz")
        sim.write_bytes(sim.read_bytes()[:100])
        capsys.readouterr()
        assert main(argv + ["--no-simulate"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "treating it as a miss" in err
        assert "missing or unreadable and simulation disabled" in err

    @pytest.mark.parametrize("damage", ["deleted", "truncated"])
    def test_no_simulate_rebuilds_the_table(self, cached_run, capsys, damage):
        # the table is deterministic quadrature, not simulation, so
        # --no-simulate rebuilds a missing or unreadable one (and still
        # refuses to rebuild the sample and nested caches, above)
        argv, run = cached_run
        assert main(argv) == EXIT_OK
        clean = self.outputs(run)
        (path,) = (run / "cache").glob("table-*.npz")
        built = kn.load_table(path)
        if damage == "deleted":
            path.unlink()
        else:
            path.write_bytes(path.read_bytes()[:1000])
        capsys.readouterr()
        assert main(argv + ["--no-simulate"]) == EXIT_OK
        err = capsys.readouterr().err
        assert ("treating it as a miss" in err) == (damage == "truncated")
        assert "simulation disabled" not in err
        rebuilt = kn.load_table(path)
        for name in ("values", "row_weights", "energies"):
            assert np.array_equal(getattr(rebuilt, name), getattr(built, name))
        assert self.outputs(run) == clean

    def test_no_cache_is_deflated(self, cached_run):
        argv, run = cached_run
        assert main(argv) == EXIT_OK
        methods = {}
        for p in (run / "cache").glob("*.npz"):
            with zipfile.ZipFile(p) as zf:
                methods[p.name.split("-")[0]] = {i.compress_type for i in zf.infolist()}
        assert methods == {"mal": {zipfile.ZIP_STORED}, "sim": {zipfile.ZIP_STORED},
                           "table": {zipfile.ZIP_STORED}}

    def test_bounds_imports_no_thread_pool(self, cached_run):
        # every cache is written on the command's own thread
        argv, run = cached_run
        code = ("import sys; from expfbm.cli import main; rc = main(sys.argv[1:]); "
                "assert 'concurrent.futures' not in sys.modules, 'imported'; "
                "sys.exit(rc)")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert sorted(p.name[:4] for p in (run / "cache").iterdir()) == [
            "mal-", "sim-", "tabl"]

    def test_nested_cache_keeps_two_vectors_per_path(self, cached_run):
        # ln F and Phi_X per path (the w suite reads both), per node or
        # scalar summaries for the rest
        argv, run = cached_run
        assert main(argv) == EXIT_OK
        (mal,) = (run / "cache").glob("mal-*.npz")
        with np.load(mal) as data:
            sizes = {k: data[k].size for k in data.files}
        n_paths, n_nodes = 300, sizes["indices"]
        assert n_nodes == len(ml.phi_subgrid(16)) < n_paths
        assert max(sizes.values()) <= max(n_paths, n_nodes)
        assert {k for k, size in sizes.items() if size == n_paths} == {"lnF", "phi"}

    def test_schema_11_nested_cache_is_a_miss(self, cached_run, capsys, monkeypatch):
        argv, run = cached_run
        assert main(argv) == EXIT_OK
        clean = self.outputs(run)
        (mal,) = (run / "cache").glob("mal-*.npz")
        with np.load(mal) as data:
            P, m = len(data["phi"]), len(data["indices"])
            current = {k: data[k] for k in data.files}
        # the schema-11 layout, with per-path arrays and a poisoned Phi_X
        old = {k: current[k] for k in ("lnF", "indices", "dx_max", "dx_mean",
                                       "dx_violations", "d2x_max", "d2x_min",
                                       "d2x_violations")}
        old.update(phi=np.zeros(P), phi_se=np.zeros(P), lower=np.zeros(P),
                   cond=np.zeros((P, m)), cond_se=np.zeros((P, m)))
        # schemas 12 to 15: today's layout, whose lower bound had other last
        # bits up to 14; here the poisoned summary of the lower bound
        poisoned = dict(current, phi_lower_min=-np.ones_like(current["phi_lower_min"]))
        stale = {11: old, 12: poisoned, 13: poisoned, 14: poisoned, 15: poisoned}
        mal.unlink()
        cfg = ExperimentConfig.from_file(argv[1])
        for schema, arrays in stale.items():
            monkeypatch.setattr(cli, "CACHE_SCHEMA", schema)
            path = run / "cache" / f"mal-{cfg.cache_key(cli.NESTED_FIELDS)}.npz"
            with open(path, "wb") as fh:
                np.savez(fh, **arrays)
            monkeypatch.undo()
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        assert "treating it as a miss" not in capsys.readouterr().err
        assert self.outputs(run) == clean
        assert len(list((run / "cache").glob("mal-*.npz"))) == 6

    def test_nested_cache_ignores_outer_path_count(self, cached_run, capsys):
        # the nested run reads neither the outer nor the centering path
        # count, so another --paths still finds the cache that bounds wrote
        argv, run = cached_run
        assert main(argv) == EXIT_OK
        rc = main(argv[:2] + ["--paths", "4000", "malliavin", "--no-simulate"])
        assert rc == EXIT_OK, capsys.readouterr().err
        assert len(list((run / "cache").glob("mal-*.npz"))) == 1

    def test_cond_violation_counted_alike_on_miss_and_hit(self, cached_run, monkeypatch):
        argv, run = cached_run
        argv = argv + ["--only", "cond_dx_range"]
        nested = ml._nested

        def one_out_of_range(*args, **kwargs):
            est, se, est2, se2 = nested(*args, **kwargs)
            est[0, 0] = -1.0                # E[D X | F] < 0 beyond its tolerance
            return est, se, est2, se2

        monkeypatch.setattr(ml, "_nested", one_out_of_range)
        assert main(argv) == EXIT_VIOLATION                        # a miss
        miss = json.loads((run / "bounds.json").read_text())["reports"]
        monkeypatch.undo()
        assert main(argv) == EXIT_VIOLATION                        # a hit
        hit = json.loads((run / "bounds.json").read_text())["reports"]
        assert [r["violations"] for r in miss] == [1]
        assert hit == miss

    def test_warm_runs_match_the_cold_ones(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid_n": 16, "outer_paths": 2000, "centering_paths": 1000,
            "nested_paths": 300, "inner_paths": 50, "seed": 5,
            "suites": ["derivatives"]}))

        def run(out, *command):
            assert main(["--config", str(cfg), "--out", str(tmp_path / out),
                         *command]) == EXIT_OK
            name = "bounds" if command[0] == "bounds" else "malliavin"
            return json.loads((tmp_path / out / f"{name}.json").read_text())["reports"]

        cold_m = run("m", "malliavin")
        cold_profile = (tmp_path / "m" / "malliavin-profile.csv").read_bytes()
        cold_b = run("b", "bounds")
        assert cold_b == cold_m

        def refuse(*args, **kwargs):
            raise AssertionError("nested estimates rebuilt on a warm run")

        monkeypatch.setattr(ml, "phi_x_batch", refuse)
        assert run("m", "malliavin", "--no-simulate") == cold_m
        assert (tmp_path / "m" / "malliavin-profile.csv").read_bytes() == cold_profile
        assert run("b", "bounds") == cold_b

    def test_two_seeds_share_one_table(self, tmp_path, capsys):
        for seed in ("1", "2"):
            assert main(["--out", str(tmp_path), "--grid", "16", "--seed", seed,
                         "kernel-verify"]) == EXIT_OK
        assert len(list((tmp_path / "cache").glob("table-*.npz"))) == 1


class TestWriteFailures:
    """A file that cannot be written is a resource error (exit 3) with one
    stderr line naming it, never a traceback, and leaves no temp file."""

    @pytest.mark.parametrize("command", ["kernel-verify", "bounds"])
    def test_blocked_cache_dir(self, cached_run, capsys, command):
        argv, run = cached_run
        run.mkdir()
        (run / "cache").write_text("a file where the cache directory goes")
        assert main(argv[:-1] + [command]) == cli.EXIT_BUDGET
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"cannot write {run / 'cache'}:" in err
        assert not list(run.rglob("*.tmp"))

    def test_blocked_output_file(self, cached_run, capsys):
        argv, run = cached_run
        (run / "bounds.json").mkdir(parents=True)
        assert main(argv) == cli.EXIT_BUDGET
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"cannot write {run / 'bounds.json'}:" in err

    def test_failed_cache_write(self, cached_run, capsys, monkeypatch):
        argv, run = cached_run
        assert main(argv[:-1] + ["kernel-verify"]) == EXIT_OK     # the table is cached
        capsys.readouterr()

        def disk_full(tmp, **arrays):
            tmp.write_bytes(b"partial")
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(reports, "write_npz", disk_full)
        assert main(argv) == cli.EXIT_BUDGET
        err = capsys.readouterr().err
        (line,) = err.splitlines()
        assert line.startswith(f"error: cannot write {run / 'cache' / 'sim-'}")
        assert line.endswith(".npz: No space left on device")
        assert not list(run.rglob("*.tmp"))
        assert [p.name[:6] for p in (run / "cache").iterdir()] == ["table-"]


class TestKernelVerify:
    def test_passes_and_writes_json(self, small_config, capsys):
        path, out = small_config
        rc = main(["--config", str(path), "kernel-verify"])
        assert rc == EXIT_OK
        captured = capsys.readouterr().out
        assert "PASS" in captured and "FAIL" not in captured
        report = json.loads((out / "run" / "kernel-verify.json").read_text())
        assert report["config_hash"]
        assert report["config"]["grid_n"] == 32
        assert all(c["pass"] for c in report["checks"])

    def test_loaded_table_verifies_like_a_built_one(self, tmp_path, monkeypatch):
        # the second run reads the packed table file that the first wrote
        argv = ["--out", str(tmp_path), "--grid", "64", "kernel-verify"]
        assert main(argv) == EXIT_OK
        built = json.loads((tmp_path / "kernel-verify.json").read_text())["checks"]
        monkeypatch.setattr(kn, "build_kernel_table", None)
        assert main(argv) == EXIT_OK
        loaded = json.loads((tmp_path / "kernel-verify.json").read_text())["checks"]
        assert loaded == built

    def test_json_flag_parses(self, small_config, capsys):
        path, _ = small_config
        rc = main(["--config", str(path), "--json", "kernel-verify"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert "checks" in payload

    def test_corrupted_constant_fails(self, small_config, capsys, monkeypatch):
        path, _ = small_config
        table_for = cli._table_for
        monkeypatch.setattr(cli, "_table_for", lambda cfg: dataclasses.replace(
            table_for(cfg), c_H=table_for(cfg).c_H * 1.01))
        rc = main(["--config", str(path), "kernel-verify"])
        assert rc == EXIT_VIOLATION
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("H", [0.5 + 1e-6, 0.501, 0.7, 0.9, 0.95, 1.0 - 1e-6])
    @pytest.mark.parametrize("n", [16, 256])
    def test_passes_across_hurst(self, H, n):
        cfg = ExperimentConfig(hurst_H=H, grid_n=n)
        checks = cli.kernel_checks(cfg, kn.build_kernel_table(H, 1.0, n))
        assert [c["id"] for c in checks if not c["pass"]] == []

    @staticmethod
    def failed(table, **fields):
        cfg = ExperimentConfig(hurst_H=table.H, horizon_T=table.T, grid_n=table.n)
        return {c["id"] for c in cli.kernel_checks(cfg, dataclasses.replace(table, **fields))
                if not c["pass"]}

    def test_zeroed_diagonal_fails_row_sums(self, table64):
        rows = np.arange(1, table64.n + 1)
        weights = table64.row_weights.copy()
        weights[rows, rows] = 0.0
        assert "row_sum_closed_form" in self.failed(table64, row_weights=weights)

    def test_scaled_energies_fail_energy_table(self, table64):
        # a scale of 1 + 1e-4 passed the 5e-3 tolerance that TABLE_ENERGY_TOL replaced
        for scale in (1.01, 1.0 + 1e-4):
            assert "energy_table_max_abs" in self.failed(table64,
                                                         energies=scale * table64.energies)

    def test_scaled_weights_fail_covariance(self, table256):
        # the map's variance outgrows t^2H by 2e-4 relative; the fixed 5e-3
        # comparison it replaces still passed at a scale of 1 + 1e-3
        scaled = table256.row_weights * (1.0 + 1e-4)
        assert "covariance_reproduction" in self.failed(table256, row_weights=scaled)


class TestSimulate:
    def test_rerun_byte_identical(self, small_config, capsys):
        path, out = small_config
        assert main(["--config", str(path), "simulate"]) == EXIT_OK
        cfg = ExperimentConfig.from_file(path)
        csv_path = out / "run" / f"samples-{cfg.sim_hash()}.csv"
        first = csv_path.read_bytes()
        assert main(["--config", str(path), "simulate"]) == EXIT_OK
        assert csv_path.read_bytes() == first
        header = first.decode().splitlines()
        assert any(l.startswith("# config_hash=") for l in header)
        assert any(l.startswith("# seed=321") for l in header)

    def test_zero_paths_empty_file(self, small_config, capsys, tmp_path):
        path, _ = small_config
        cfg = json.loads(path.read_text())
        cfg["outer_paths"] = 0
        cfg["out_dir"] = str(tmp_path / "empty")
        p2 = tmp_path / "zero.json"
        p2.write_text(json.dumps(cfg))
        assert main(["--config", str(p2), "simulate"]) == EXIT_OK
        cfg_obj = ExperimentConfig.from_file(p2)
        csv_path = tmp_path / "empty" / f"samples-{cfg_obj.sim_hash()}.csv"
        lines = csv_path.read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data == ["path_id,F,lnF,X"]

    def test_zero_paths_json(self, tmp_path, capsys):
        # --json promises JSON on stdout, for an empty batch too
        argv = ["--out", str(tmp_path), "--grid", "16", "--paths", "0", "--json",
                "simulate"]
        assert main(argv) == EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads((tmp_path / "simulate.json").read_text())
        assert printed["summary"] == {}
        assert (tmp_path / printed["samples_csv"]).is_file()
        assert printed["samples_csv"] == f"samples-{printed['sim_hash']}.csv"


class TestBounds:
    def test_full_suite_passes(self, small_config, capsys):
        path, out = small_config
        rc = main(["--config", str(path), "bounds"])
        assert rc == EXIT_OK
        payload = json.loads((out / "run" / "bounds.json").read_text())
        assert payload["config_hash"]
        ids = [r["bound_id"] for r in payload["reports"]]
        assert "gaussian_left_tail" in ids and "phi_upper" in ids
        assert (out / "run" / "bound-gaussian_left_tail.csv").exists()

    def test_only_filter(self, small_config, capsys):
        path, out = small_config
        rc = main(["--config", str(path), "bounds", "--only",
                   "gaussian_left_tail"])
        assert rc == EXIT_OK
        payload = json.loads((out / "run" / "bounds.json").read_text())
        assert [r["bound_id"] for r in payload["reports"]] == ["gaussian_left_tail"]

    def test_json_output_parses(self, small_config, capsys):
        path, _ = small_config
        rc = main(["--config", str(path), "--json", "bounds", "--only", "tail"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["reports"][0]["bound_id"] == "gaussian_left_tail"

    def test_unknown_only_is_config_error(self, small_config, capsys):
        path, _ = small_config
        assert main(["--config", str(path), "bounds", "--only", "nope"]) == EXIT_CONFIG

    def test_bound_ids_name_one_suite(self):
        # --only <bound id> must select exactly one suite of the table; a
        # bound id that is also a suite name is that suite's
        ids = [b for suite in cli.SUITES.values() for b in suite.bound_ids]
        assert len(ids) == len(set(ids))
        for name, suite in cli.SUITES.items():
            assert all(b == name for b in suite.bound_ids if b in cli.SUITES)

    @pytest.mark.parametrize("nested_paths", [2, 1])
    def test_a_suite_is_one_record(self, tmp_path, capsys, monkeypatch, nested_paths):
        # a toy suite added as one record runs under --only <its bound id>;
        # below its minimum it is refused before any file is written
        def run(cfg, table, ctx):
            return [reports.point_report("toy_bound", "toy", [0.0], [float(table.n)],
                                         [16.0], [0.0], cfg.nested_paths, "both")]

        monkeypatch.setitem(cli.SUITES, "toy",
                            cli.Suite(run, ("toy_bound",), {"nested_paths": 2}))
        cfg = tmp_path / "toy.json"
        cfg.write_text(json.dumps({
            "grid_n": 16, "outer_paths": 2000, "centering_paths": 1000,
            "nested_paths": nested_paths, "suites": ["tail", "toy"],
            "out_dir": str(tmp_path / "run")}))
        rc = main(["--config", str(cfg), "bounds", "--only", "toy_bound"])
        if nested_paths == 1:
            assert rc == EXIT_CONFIG
            assert "toy needs nested_paths >= 2, got 1" in capsys.readouterr().err
            assert not (tmp_path / "run").exists()
            return
        assert rc == EXIT_OK
        payload = json.loads((tmp_path / "run" / "bounds.json").read_text())
        assert [r["bound_id"] for r in payload["reports"]] == ["toy_bound"]
        assert sorted(p.name for p in (tmp_path / "run").glob("bound-*.csv")) == \
            ["bound-toy_bound.csv"]
        assert not list((tmp_path / "run" / "cache").glob("sim-*.npz"))   # tail did not run

    def test_non_finite_results_fail(self, tmp_path, capsys):
        # sigma = 400 overflows F but not ln F: X is finite and the tail
        # count passes, while the MGF bound exp(lambda^2 sigma^2 T^2H / 2)
        # is inf and must fail, not PASS
        cfg = tmp_path / "huge-sigma.json"
        cfg.write_text(json.dumps({
            "sigma_vol": 400.0, "grid_n": 32, "outer_paths": 20_000,
            "centering_paths": 10_000, "suites": ["tail", "mgf"],
            "out_dir": str(tmp_path / "run")}))
        with np.errstate(all="ignore"):
            assert main(["--config", str(cfg), "bounds"]) == EXIT_VIOLATION
        payload = json.loads((tmp_path / "run" / "bounds.json").read_text())
        reports = {r["bound_id"]: r for r in payload["reports"]}
        assert reports["gaussian_left_tail"]["passed"]
        assert not reports["mgf_domination"]["passed"]
        assert reports["mgf_domination"]["meta"]["non_finite"] > 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sigma_zero_tail_without_warnings(self, tmp_path, capsys):
        # X is deterministic at sigma = 0: the tail bound is its limit exp(-inf) = 0
        cfg = sigma_zero_config(tmp_path, suites=["tail", "mgf"])
        assert main(["--config", str(cfg), "bounds"]) == EXIT_OK
        payload = json.loads((tmp_path / "run" / "bounds.json").read_text())
        assert payload["reports"][0]["rhs"] == [0.0] * 4

    @pytest.mark.parametrize("nested_paths", [0, 1])
    def test_clark_ocone_needs_two_paths(self, tmp_path, capsys, nested_paths):
        # the residual's SE needs two paths: fewer is a configuration error,
        # not a nan tolerance counted as a violation
        cfg = tmp_path / "co.json"
        cfg.write_text(json.dumps({
            "grid_n": 16, "outer_paths": 2000, "centering_paths": 1000,
            "nested_paths": nested_paths, "suites": ["clark_ocone"],
            "out_dir": str(tmp_path / "run")}))
        assert main(["--config", str(cfg), "bounds"]) == EXIT_CONFIG
        assert "nested_paths" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["derivatives", "dphi"])
    def test_nested_suites_need_a_path(self, tmp_path, capsys, suite):
        # without nested paths the suite is a configuration error that names
        # the field and the suite, not numpy's empty-reduction message
        cfg = tmp_path / "np0.json"
        cfg.write_text(json.dumps({
            "grid_n": 16, "outer_paths": 2000, "centering_paths": 1000,
            "nested_paths": 0, "inner_paths": 50, "suites": [suite],
            "out_dir": str(tmp_path / "run")}))
        assert main(["--config", str(cfg), "bounds"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{suite} needs nested_paths >= 1" in err

    def test_nested_paths_drawn_once(self, small_config, tmp_path, capsys, monkeypatch):
        path, _ = small_config
        cfg = json.loads(path.read_text())
        cfg.update(out_dir=str(tmp_path / "once"), nested_paths=3000,
                   suites=["derivatives", "dphi", "clark_ocone"])
        p2 = tmp_path / "once.json"
        p2.write_text(json.dumps(cfg))
        calls = []
        draw = cli.pth.sample_fbm_volterra
        monkeypatch.setattr(cli.pth, "sample_fbm_volterra",
                            lambda *a, **k: calls.append(a[1]) or draw(*a, **k))
        assert main(["--config", str(p2), "bounds"]) in (EXIT_OK, EXIT_VIOLATION)
        assert calls == [3000]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", [["bounds", "--only", "tail"],
                                         ["bounds", "--only", "mgf"],
                                         ["bounds", "--only", "envelopes"],
                                         ["bounds", "--only", "w"], ["density"]],
                             ids=["tail", "mgf", "envelopes", "w", "density"])
    def test_no_outer_paths_is_config_error(self, tmp_path, capsys, command):
        # outer_paths = 0 leaves no sample: every suite that reads it (w for
        # its centering constant) exits 2 before it is drawn or cached,
        # naming its least path count (the KDE's 1e4 for the envelopes)
        cfg = tmp_path / "p0.json"
        cfg.write_text(json.dumps({
            "grid_n": 16, "centering_paths": 1000, "nested_paths": 300,
            "inner_paths": 50, "out_dir": str(tmp_path / "run")}))
        assert main(["--config", str(cfg), "--paths", "0", *command]) == EXIT_CONFIG
        least = 10_000 if command[-1] in ("envelopes", "density") else 2
        assert f"outer_paths >= {least}, got 0" in capsys.readouterr().err
        assert not list((tmp_path / "run" / "cache").glob("sim-*"))

    def test_no_outer_paths_w_skips_the_nested_pass(self, tmp_path, capsys):
        # the w suite reads the sample first, so its nested pass neither runs
        # nor is cached
        cfg = tmp_path / "p0.json"
        cfg.write_text(json.dumps({
            "grid_n": 16, "centering_paths": 1000, "nested_paths": 300,
            "inner_paths": 50, "out_dir": str(tmp_path / "run")}))
        assert main(["--config", str(cfg), "--paths", "0", "bounds", "--only", "w"]) \
            == EXIT_CONFIG
        assert "outer_paths >= 2" in capsys.readouterr().err
        assert not list((tmp_path / "run" / "cache").glob("mal-*.npz"))

    def test_all_suites_refused_before_any_work(self, tmp_path, capsys):
        # w, the fifth suite, cannot run on 3000 nested paths: the four
        # before it neither run nor write the table, sample or nested cache
        cfg = tmp_path / "all.json"
        cfg.write_text(json.dumps({
            "grid_n": 32, "outer_paths": 20_000, "nested_paths": 3000,
            "out_dir": str(tmp_path / "run")}))
        assert main(["--config", str(cfg), "bounds"]) == EXIT_CONFIG
        assert "w needs nested_paths >= 10000" in capsys.readouterr().err
        assert not list((tmp_path / "run").glob("cache/*.npz"))

    @pytest.mark.parametrize("suites, only, message", [
        ([], [], "no suite selected"), (["tail"], ["--only", "nope"], "matches no suite"),
        (["tail"], ["--only", ""], "matches no suite")],
        ids=["empty", "only", "only-empty"])
    def test_empty_selection_refused_before_any_work(self, tmp_path, capsys, suites,
                                                     only, message):
        # a run that checks nothing must not read as a pass: an empty suite
        # list, like an --only that matches nothing (an empty one, which
        # once ran every suite and kept no report), writes no table and no
        # bounds.json
        cfg = tmp_path / "none.json"
        cfg.write_text(json.dumps({
            "grid_n": 16, "outer_paths": 2000, "centering_paths": 1000,
            "nested_paths": 300, "suites": suites, "out_dir": str(tmp_path / "run")}))
        assert main(["--config", str(cfg), "bounds", *only]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not list((tmp_path / "run").rglob("cache/*"))
        assert not (tmp_path / "run" / "bounds.json").exists()

    @pytest.mark.parametrize("command, fields", [
        (["density"], {"outer_paths": 5000}),
        (["bounds", "--only", "envelopes"], {"outer_paths": 20_000, "kde_bootstrap": 1})],
        ids=["samples", "bootstrap"])
    def test_kde_refused_before_any_work(self, tmp_path, capsys, command, fields):
        # the KDE needs 1e4 samples and two bootstrap replicates: the table
        # and the sample are neither made nor cached
        cfg = tmp_path / "kde.json"
        cfg.write_text(json.dumps(dict(
            grid_n=16, centering_paths=1000, out_dir=str(tmp_path / "run"), **fields)))
        assert main(["--config", str(cfg), *command]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "envelopes needs " in err
        assert not list((tmp_path / "run").rglob("cache/*"))

    def test_too_few_nested_paths_w_refused_before_any_work(self, tmp_path, capsys):
        # estimate_w_X needs 1e4 joint samples: the w suite refuses fewer
        # before it draws or caches the sample or the nested pass
        cfg = tmp_path / "w.json"
        cfg.write_text(json.dumps({
            "grid_n": 16, "outer_paths": 2000, "centering_paths": 1000,
            "nested_paths": 9999, "inner_paths": 50, "out_dir": str(tmp_path / "run")}))
        assert main(["--config", str(cfg), "bounds", "--only", "w"]) == EXIT_CONFIG
        assert not list((tmp_path / "run" / "cache").glob("sim-*.npz"))
        assert not list((tmp_path / "run" / "cache").glob("mal-*.npz"))
        assert "nested_paths >= 10000" in capsys.readouterr().err

    def test_no_outer_paths_tail_skips_the_centering(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(fn, "estimate_mean_lnF", lambda *a, **k: calls.append(a))
        cfg = tmp_path / "p0.json"
        cfg.write_text(json.dumps({
            "grid_n": 16, "centering_paths": 1000, "out_dir": str(tmp_path / "run")}))
        assert main(["--config", str(cfg), "--paths", "0", "bounds", "--only", "tail"]) \
            == EXIT_CONFIG
        assert "outer_paths >= 2" in capsys.readouterr().err
        assert calls == []

    def test_dphi_reports_its_coverage(self, tmp_path, capsys):
        # dphi runs on the first 2000 of the 3000 nested paths
        cfg = tmp_path / "dphi.json"
        cfg.write_text(json.dumps({
            "grid_n": 16, "nested_paths": 3000, "inner_paths": 50,
            "suites": ["dphi"], "out_dir": str(tmp_path / "run")}))
        assert main(["--config", str(cfg), "bounds"]) in (EXIT_OK, EXIT_VIOLATION)
        payload = json.loads((tmp_path / "run" / "bounds.json").read_text())
        reports = {r["bound_id"]: r for r in payload["reports"]}
        for bound_id in ("dphi_upper", "dphi_integral_upper"):
            assert reports[bound_id]["meta"]["coverage"] == pytest.approx(2.0 / 3.0)
            assert reports[bound_id]["n_samples"] == 2000

    def test_cached_table_runs_without_scipy(self, small_config, tmp_path):
        # no command loads scipy: kernel-verify's continuous quadratures run
        # on the graded rule of kernel, and the others use a cached table
        cfg = json.loads(small_config[0].read_text())
        cfg.update(out_dir=str(tmp_path / "run"))
        p2 = tmp_path / "cfg.json"
        p2.write_text(json.dumps(cfg))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        probe = ("import sys\n"
                 "from expfbm.cli import main\n"
                 "rc = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
                 "print(rc, [m for m in sys.modules if m.startswith('scipy')])")

        def run(*argv):
            out = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                                 capture_output=True, text=True, check=True)
            return out.stdout.splitlines()[-1]

        assert run("--config", str(p2), "kernel-verify") == "0 []"   # builds it
        assert run("--config", str(p2), "bounds") in ("0 []", "1 []")
        assert run() == "0 []"

    def test_missing_cache_with_no_simulate(self, small_config, tmp_path, capsys):
        path, _ = small_config
        cfg = json.loads(path.read_text())
        cfg["out_dir"] = str(tmp_path / "fresh")
        cfg["seed"] = 999
        p2 = tmp_path / "no-sim.json"
        p2.write_text(json.dumps(cfg))
        rc = main(["--config", str(p2), "bounds", "--no-simulate"])
        assert rc == EXIT_CONFIG
        assert "missing" in capsys.readouterr().err


def test_d2x_violations_are_counted_path_by_path(table64, params, monkeypatch):
    # a negative D^2 X entry is judged against its own path's largest entry,
    # so the count over a path set is the sum of its paths' counts
    paths = pth.sample_fbm_volterra(table64, 65, seed=3)
    idx = ml.phi_subgrid(table64.n, stride=16)
    d2x = ml.d2x

    def small_first_path(sub, table, params_, indices):
        out = d2x(sub, table, params_, indices=indices)
        first = np.all(sub.values == paths.values[0], axis=1)
        # path 0: largest entry 1e-3 and one entry at -1e-14, beyond rounding
        # for it, but within 1e-12 of the other paths' largest entries
        out[first] *= 1e-3 / np.abs(out[first]).max(axis=(1, 2))[:, None, None]
        out[first, 0, 0] = -1e-14
        return out

    monkeypatch.setattr(ml, "d2x", small_first_path)
    assert np.abs(d2x(paths, table64, params, indices=idx)).max() > 0.1
    whole = ml._d2x_summary(paths, table64, params, idx)["d2x_violations"]
    singles = [ml._d2x_summary(paths.subset(slice(p, p + 1)), table64, params,
                               idx)["d2x_violations"]
               for p in range(paths.n_paths)]
    assert singles[0] >= 1
    assert whole == sum(singles)


class TestMalliavinAndDensity:
    def test_malliavin_command(self, small_config, capsys):
        path, out = small_config
        rc = main(["--config", str(path), "malliavin"])
        assert rc == EXIT_OK
        assert (out / "run" / "malliavin-profile.csv").exists()
        payload = json.loads((out / "run" / "malliavin.json").read_text())
        assert all(r["passed"] for r in payload["reports"])

    def test_density_command(self, small_config, capsys):
        path, out = small_config
        rc = main(["--config", str(path), "density"])
        assert rc == EXIT_OK
        payload = json.loads((out / "run" / "density.json").read_text())
        assert payload["density"]["n_samples"] == 20_000

    def test_malliavin_missing_cache_with_no_simulate(self, tmp_path, capsys):
        argv = ["--out", str(tmp_path), "--grid", "16", "malliavin", "--no-simulate"]
        assert main(argv) == EXIT_CONFIG
        assert "simulation disabled" in capsys.readouterr().err

    def test_malliavin_no_simulate_draws_no_paths(self, small_config, tmp_path,
                                                  capsys, monkeypatch):
        # the nested cache holds the d2x_range summary: with every cache
        # present, malliavin reports it without drawing the nested paths
        cfg = json.loads(small_config[0].read_text())
        cfg.update(out_dir=str(tmp_path / "run"), suites=["derivatives"])
        p2 = tmp_path / "cfg.json"
        p2.write_text(json.dumps(cfg))
        assert main(["--config", str(p2), "bounds"]) == EXIT_OK
        written = (tmp_path / "run" / "bound-d2x_range.csv").read_bytes()

        def draw(*args, **kwargs):
            raise AssertionError("sample_fbm_volterra called")

        monkeypatch.setattr(cli.pth, "sample_fbm_volterra", draw)
        assert main(["--config", str(p2), "malliavin", "--no-simulate"]) == EXIT_OK
        assert (tmp_path / "run" / "bound-d2x_range.csv").read_bytes() == written

    def test_report_aggregates(self, small_config, capsys):
        path, out = small_config
        rc = main(["--config", str(path), "report"])
        assert rc == EXIT_OK
        text = capsys.readouterr().out
        assert "kernel-verify.json" in text
        assert (out / "run" / "report.txt").exists()

    def test_report_prints_bounds_lines_and_rejects_unreadable_json(self, tmp_path,
                                                                     capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_n": 16, "outer_paths": 2000,
                                   "centering_paths": 1000, "suites": ["tail", "mgf"],
                                   "out_dir": str(tmp_path / "run")}))
        assert main(["--config", str(cfg), "bounds"]) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        assert main(["--config", str(cfg), "report"]) == EXIT_OK
        assert set(printed) <= set(capsys.readouterr().out.splitlines())
        bounds_json = tmp_path / "run" / "bounds.json"
        bounds_json.write_bytes(bounds_json.read_bytes()[:500])
        assert main(["--config", str(cfg), "report"]) == EXIT_CONFIG
        assert str(bounds_json) in capsys.readouterr().err

    def test_report_empty_dir_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out_dir": str(tmp_path / "nothing")}))
        assert main(["--config", str(cfg), "report"]) == EXIT_CONFIG


class TestReportCommands:
    """bounds, malliavin and density share one runner, so one contract."""

    def test_degenerate_density_is_config_error(self, tmp_path, capsys):
        cfg = sigma_zero_config(tmp_path)
        assert main(["--config", str(cfg), "density"]) == EXIT_CONFIG
        assert "point-mass" in capsys.readouterr().err

    @pytest.mark.parametrize("command, only", [("density", "tail"),
                                               ("malliavin", "phi_upper")])
    def test_only_is_a_bounds_option(self, tmp_path, capsys, command, only):
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path), command, "--only", only])
        assert exc.value.code == EXIT_CONFIG
        assert "--only" in capsys.readouterr().err

    def test_density_json_carries_provenance(self, small_config, capsys):
        path, _ = small_config
        assert main(["--config", str(path), "--json", "density"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["config_hash"] == ExperimentConfig.from_file(path).hash()
        assert set(payload["summary"]) == {r["bound_id"] for r in payload["reports"]}

    @pytest.mark.parametrize("command", ["kernel-verify", "simulate", "bounds",
                                         "malliavin", "density"])
    def test_json_stdout_is_the_json_file(self, small_config, capsys, command):
        path, out = small_config
        assert main(["--config", str(path), "--json", command]) == EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        written = json.loads((out / "run" / f"{command}.json").read_text())
        # through dumps, so that a NaN equals itself
        assert json.dumps(printed, sort_keys=True) == json.dumps(written, sort_keys=True)

    def test_csv_fields_are_the_written_values(self, small_config, capsys):
        # every CSV field parses back to the value of the JSON or the cache
        # it came from; a report without an implied constant has empty ones
        path, out = small_config
        run = out / "run"
        implied = set()
        for command in ("bounds", "malliavin", "density"):
            assert main(["--config", str(path), command]) == EXIT_OK
            for r in json.loads((run / f"{command}.json").read_text())["reports"]:
                header, cols = read_columns(run / f"bound-{r['bound_id']}.csv")
                assert header == ["x", "lhs", "rhs", "margin", "se", "implied_c"]
                for col, key in zip(cols, ("points", "lhs", "rhs", "margins", "se")):
                    assert_floats(col, r[key])
                if r["implied_constant"] is None:
                    assert cols[5] == [""] * len(r["points"])
                else:
                    assert_floats(cols[5], r["implied_constant"])
                    implied.add(r["bound_id"])
        assert {"left_envelope", "right_envelope"} <= implied

        cfg = ExperimentConfig.from_file(path)
        table = cli._table_for(cfg)
        mal = run / "cache" / f"mal-{cfg.cache_key(cli.NESTED_FIELDS)}.npz"
        with np.load(mal) as nested:
            idx = nested["indices"]
            bounds = ml.dx_bounds(table, cfg.model_params(), idx)
            expected = [table.grid[idx], nested["dx_mean"], bounds,
                        nested["dx_mean"] - bounds, nested["cond_mean"],
                        nested["cond_se_mean"]]
        header, cols = read_columns(run / "malliavin-profile.csv")
        assert header == ["theta", "mean_dX", "bound_sigma_K", "margin",
                          "mean_cond_dX", "mean_inner_se"]
        for col, values in zip(cols, expected, strict=True):
            assert_floats(col, values)

        payload = json.loads((run / "density.json").read_text())
        dens, densF = payload["density"], payload["density_F"]
        header, cols = read_columns(run / "density.csv")
        assert header == ["x", "density", "se", "x_F", "density_F"]
        expected = [dens["x"], dens["density"], dens["se"], densF["x"], densF["density"]]
        for col, values in zip(cols, expected, strict=True):
            assert_floats(col, values)

    def test_malliavin_writes_bound_csvs(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_n": 16, "nested_paths": 300,
                                   "inner_paths": 50, "out_dir": str(tmp_path)}))
        assert main(["--config", str(cfg), "malliavin"]) in (EXIT_OK, EXIT_VIOLATION)
        written = sorted(p.name for p in tmp_path.glob("bound-*.csv"))
        assert written == sorted(f"bound-{b}.csv" for b in cli.SUITES["derivatives"].bound_ids)


class TestOverrides:
    def test_flag_overrides_enter_config(self, small_config):
        path, _ = small_config
        base = ExperimentConfig.from_file(path)
        import expfbm.cli as cli

        parser_args = ["--config", str(path), "--seed", "777", "--grid", "16",
                       "--paths", "100", "--inner", "64", "kernel-verify"]
        args = cli._build_parser().parse_args(parser_args)
        cfg = cli._apply_overrides(base, args)
        assert (cfg.seed, cfg.grid_n, cfg.outer_paths, cfg.inner_paths) == \
            (777, 16, 100, 64)
