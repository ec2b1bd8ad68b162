"""The benchmark's tracer wraps package functions by name, and its checks
expect each command's bound ids: keep them there. tests/compare_outputs.py
tells two output directories apart."""
import functools
import importlib
import importlib.util
import json
import sys
import threading
from pathlib import Path

import numpy as np

import expfbm.cli as cli
from expfbm import density as dn
from expfbm import functional as fn
from expfbm import malliavin as ml
from expfbm import rng
from expfbm.density import SampleBatch
from expfbm.malliavin import MalliavinProfile

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def load_script(path):
    spec = importlib.util.spec_from_file_location(f"{path.parent.name}_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module          # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def load_perfbench(name):
    return load_script(PERFBENCH / f"{name}.py")


def test_traced_names_resolve():
    trace_cli = load_perfbench("trace_cli")
    traced = set()
    for module_name, names in trace_cli.TRACED.items():
        module = importlib.import_module(f"expfbm.{module_name}")
        for qualname in names:
            obj = module
            for attr in qualname.split("."):
                obj = getattr(obj, attr)
            assert callable(obj), f"{module_name}.{qualname}"
            traced.add(f"{module_name}.{qualname}")
    assert set(trace_cli.RATES) <= traced


def install_thread_tracer(monkeypatch):
    """Install perfbench's wrappers with a tracer that records, for each
    traced call, its name and thread; return that list."""
    trace_cli = load_perfbench("trace_cli")
    opened = []

    class ThreadTracer:
        def wrap(self, name, fn_):
            @functools.wraps(fn_)
            def traced(*args, **kwargs):
                opened.append((name, threading.get_ident()))
                return fn_(*args, **kwargs)
            return traced

    # install() binds the wrappers with setattr; through monkeypatch every
    # binding is undone after the test
    monkeypatch.setattr(trace_cli, "setattr", monkeypatch.setattr, raising=False)
    trace_cli.install(ThreadTracer())
    return opened


def test_spans_open_on_the_main_thread(table64, params, monkeypatch):
    # the tracer's span stack is not thread-safe: the worker threads of the
    # ln F draw must call no traced function
    opened = install_thread_tracer(monkeypatch)
    monkeypatch.setattr(fn, "_workers", lambda n_batches: 3)
    centering = fn.estimate_mean_lnF(params, table64, 2 * rng.BATCH + 1, 3)
    dn.sample_X_batch(params, table64, 3 * rng.BATCH + 1, 4, centering)
    names = [name for name, _ in opened]
    assert names == ["functional.estimate_mean_lnF", "density.sample_X_batch"]
    assert {ident for _, ident in opened} == {threading.main_thread().ident}


def test_cache_saves_run_on_the_main_thread(tmp_path, monkeypatch):
    # the sample and nested caches are written in place by the command's own
    # thread, and a bounds run opens no span off it
    opened = install_thread_tracer(monkeypatch)
    saved = []
    savez = cli._savez

    def recording_savez(tmp, **arrays):
        saved.append(threading.get_ident())
        savez(tmp, **arrays)

    monkeypatch.setattr(cli, "_savez", recording_savez)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "grid_n": 16, "outer_paths": 2000, "centering_paths": 1000,
        "nested_paths": 300, "inner_paths": 50, "seed": 5,
        "suites": ["tail", "derivatives"], "out_dir": str(tmp_path)}))
    assert cli.main(["--config", str(cfg_path), "bounds"]) == 0
    assert sorted(p.name[:4] for p in (tmp_path / "cache").iterdir()) == [
        "mal-", "sim-", "tabl"]
    assert saved == [threading.main_thread().ident] * 2
    names = {name for name, _ in opened}
    assert {"cli.main", "kernel.save_table", "malliavin.phi_x_batch"} <= names
    assert {ident for _, ident in opened} == {threading.main_thread().ident}


def test_bounds_run_opens_no_span_off_the_main_thread(tmp_path, monkeypatch):
    # a bounds run with the clark_ocone and derivatives suites, and the tail
    # suite for its outer sample: the ln F draws, the Clark-Ocone sweep, the
    # Phi_X lower-bound sweep, the nested Phi_X pass and the D^2 X Gram
    # products run their blocks on worker threads, and only the calls into
    # them are traced
    opened = install_thread_tracer(monkeypatch)
    monkeypatch.setattr(fn, "_workers", lambda n_blocks: min(n_blocks, 3))
    main = threading.main_thread().ident
    ran = []
    run_blocks = fn.run_blocks
    off_main = threading.Event()

    def recording_run_blocks(work, *args):
        def recorded(*block):
            # the main thread takes a block too: it waits here until a
            # worker thread has taken one, so one surely runs off the main thread
            ran.append(threading.get_ident())
            if ran[-1] != main:
                off_main.set()
            assert off_main.wait(timeout=30)
            return work(*block)
        return run_blocks(recorded, *args)

    monkeypatch.setattr(fn, "run_blocks", recording_run_blocks)
    monkeypatch.setattr(ml, "run_blocks", recording_run_blocks)
    nested_paths = ml._sweep_paths(16) + 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "grid_n": 16, "outer_paths": 2 * rng.BATCH + 1, "centering_paths": rng.BATCH + 1,
        "nested_paths": nested_paths, "inner_paths": 50,
        "subgrid_stride": 4, "seed": 6,
        "suites": ["tail", "clark_ocone", "derivatives"], "out_dir": str(tmp_path)}))
    assert cli.main(["--config", str(cfg_path), "bounds"]) in (0, 1)
    names = {name for name, _ in opened}
    assert {"malliavin.clark_ocone_residual", "malliavin.phi_lower_bound_terms",
            "malliavin.d2x", "density.sample_X_batch"} <= names
    assert {ident for _, ident in opened} == {main}
    assert set(ran) - {main}
    # blocks per pass: the outer and centering ln F draws take 3 and 2
    # batches, each sweep 2 blocks of _sweep_paths(16), the Phi_X pass 4
    # groups of 8 nested blocks (no s columns), and the D^2 X Gram products
    # (17 rows, 7 subgrid nodes) 2 blocks of TASK_ELEMENTS // 119 paths
    def blocks(n, block):
        return len(list(rng.batch_ranges(n, block)))

    per_pass = [blocks(2 * rng.BATCH + 1, rng.BATCH), blocks(rng.BATCH + 1, rng.BATCH),
                blocks(nested_paths, ml._sweep_paths(16)),
                blocks(nested_paths, ml._sweep_paths(16)),
                blocks(nested_paths, ml._group_blocks(16, 0) * ml.CHUNK_OUTER),
                blocks(nested_paths, ml.TASK_ELEMENTS // (17 * len(ml.phi_subgrid(16, 4))))]
    assert per_pass == [3, 2, 2, 2, 4, 2]
    assert len(ran) == sum(per_pass)


def test_rate_attributes_exist():
    # RATES counts the work of a call by these attributes of its result
    assert isinstance(SampleBatch.F, property)
    assert "phi" in MalliavinProfile.__dataclass_fields__


def test_bound_ids_match_benchmark(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))    # run.py prepends its dir
    run = load_perfbench("run")
    fields = {"grid_n": 16, "outer_paths": 10_000, "centering_paths": 1000,
              "nested_paths": 10_000, "inner_paths": 50, "kde_bootstrap": 20,
              "seed": 5, "out_dir": str(tmp_path)}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        dict(fields, suites=run.WORKLOADS["bounds-n64"].config["suites"])))
    for command in ("bounds", "malliavin", "density"):
        assert cli.main(["--config", str(cfg_path), command]) in (0, 1)
        payload = json.loads((tmp_path / f"{command}.json").read_text())
        assert [r["bound_id"] for r in payload["reports"]] == run.BOUND_IDS[command]

    # --only matches on cli.BOUND_IDS: each suite must return exactly its ids
    cfg = cli.ExperimentConfig(**fields)
    table = cli._table_for(cfg)
    ctx = {"allow_simulate": False}          # reads the caches written above
    assert set(cli.BOUND_IDS) == set(cli.SUITES)
    for name, suite in cli.SUITES.items():
        assert [r.bound_id for r in suite(cfg, table, ctx)] == cli.BOUND_IDS[name]


def test_compare_outputs_flags_a_changed_float(tmp_path, capsys):
    # two runs of one config into two directories compare equal (their
    # out_dir and config_hash differ); one changed float in bounds.json and
    # one in a nested-cache array are each flagged
    compare = load_script(Path(__file__).parent / "compare_outputs.py")
    runs = [tmp_path / "a", tmp_path / "b"]
    for run in runs:
        cfg_path = tmp_path / f"{run.name}.json"
        cfg_path.write_text(json.dumps({
            "grid_n": 16, "outer_paths": 2000, "centering_paths": 1000,
            "nested_paths": 300, "inner_paths": 50, "seed": 5,
            "suites": ["tail", "derivatives"], "out_dir": str(run)}))
        assert cli.main(["--config", str(cfg_path), "bounds"]) == 0
    capsys.readouterr()
    assert compare.main([str(r) for r in runs]) == 0
    assert capsys.readouterr().out == "identical: 10 files\n"

    bounds_json = runs[1] / "bounds.json"
    payload = json.loads(bounds_json.read_text())
    lhs = payload["reports"][0]["lhs"]
    lhs[0] = float(np.nextafter(lhs[0], np.inf))
    bounds_json.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    (mal,) = (runs[1] / "cache").glob("mal-*.npz")
    with np.load(mal) as data:
        arrays = {k: data[k] for k in data.files}      # in the file's order
    arrays["phi"][3] = np.nextafter(arrays["phi"][3], np.inf)
    with open(mal, "wb") as fh:
        np.savez(fh, **arrays)
    assert compare.main([str(r) for r in runs]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "2 differences"
    assert out[0].startswith("bounds.json: .reports[0].lhs[0]: ")
    assert out[1] == f"cache/{mal.name}: phi: bytes differ"
