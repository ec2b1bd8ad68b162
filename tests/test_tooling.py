"""The benchmark's tracer wraps package functions by name, and its checks
expect each command's bound ids: keep them there. tests/compare_outputs.py
tells two output directories apart. The package draws its random numbers
at two sites."""
import ast
import functools
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import expfbm.cli as cli
from expfbm import density as dn
from expfbm import functional as fn
from expfbm import malliavin as ml
from expfbm import reports, rng
from expfbm.density import SampleBatch
from expfbm.malliavin import MalliavinProfile

PERFBENCH = Path(__file__).parents[1] / "perfbench"
PACKAGE = Path(__file__).parents[1] / "src" / "expfbm"


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


def test_cli_import_loads_every_traced_module():
    # trace_cli.install reads sys.modules["expfbm.<module>"] right after
    # `import expfbm.cli`, so that import alone must load every traced module
    # (test_traced_names_resolve imports each module itself)
    trace_cli = load_perfbench("trace_cli")
    code = ("import json, sys; import expfbm.cli; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('expfbm'))))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert {f"expfbm.{name}" for name in trace_cli.TRACED} <= loaded


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
    # the table, sample and nested caches are written in place by the
    # command's own thread, and a bounds run opens no span off it
    opened = install_thread_tracer(monkeypatch)
    saved = []
    write_npz = reports.write_npz

    def recording_write_npz(tmp, **members):
        saved.append(threading.get_ident())
        write_npz(tmp, **members)

    monkeypatch.setattr(reports, "write_npz", recording_write_npz)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "grid_n": 16, "outer_paths": 2000, "centering_paths": 1000,
        "nested_paths": 300, "inner_paths": 50, "seed": 5,
        "suites": ["tail", "derivatives"], "out_dir": str(tmp_path)}))
    assert cli.main(["--config", str(cfg_path), "bounds"]) == 0
    assert sorted(p.name[:4] for p in (tmp_path / "cache").iterdir()) == [
        "mal-", "sim-", "tabl"]
    assert saved == [threading.main_thread().ident] * 3
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

    # --only matches on each suite record's bound ids: each suite must
    # return exactly those, in that order
    cfg = cli.ExperimentConfig(**fields)
    table = cli._table_for(cfg)
    ctx = {"allow_simulate": False}          # reads the caches written above
    for suite in cli.SUITES.values():
        assert [r.bound_id for r in suite.run(cfg, table, ctx)] == list(suite.bound_ids)


def test_make_outputs_runs_the_benchmark_commands(tmp_path, capsys, monkeypatch):
    # the plan is perfbench's set-up and steps per workload, then the
    # all-suite config; two runs of one config from this tree compare equal
    monkeypatch.setattr(sys, "path", list(sys.path))    # run.py prepends its dir
    make = load_script(Path(__file__).parent / "make_outputs.py")
    run = make.load_run()
    configs = make.plan(run, 7)
    assert list(configs) == [*run.WORKLOADS, make.ALL_SUITES]
    seeds = run.derive_seeds(7, 2)
    assert configs["sweep-n256"] == (
        dict(run.WORKLOADS["sweep-n256"].config, seed=seeds[0]),
        [["kernel-verify"], ["--seed", str(seeds[0]), "bounds"],
         ["--seed", str(seeds[1]), "bounds"]])
    assert "suites" not in configs[make.ALL_SUITES][0]       # every suite

    small = {"grid_n": 16, "outer_paths": 2000, "centering_paths": 1000,
             "suites": ["tail"], "seed": 3}
    for name in ("a", "b"):
        assert make.run_config(run, PACKAGE.parents[1], tmp_path / name, small,
                               [["kernel-verify"], ["bounds"]]) == [0, 0]
    commands = json.loads((tmp_path / "a" / "commands.json").read_text())
    assert [c["argv"] for c in commands] == [["kernel-verify"], ["bounds"]]
    assert commands[1]["stdout"][0].startswith("PASS gaussian_left_tail")
    compare = load_script(Path(__file__).parent / "compare_outputs.py")
    capsys.readouterr()
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out == "identical: 7 files\n"


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


def test_compare_outputs_rtol(tmp_path, capsys):
    # a float moved by 1e-15 relative (in JSON, a CSV field, a cache array
    # and the cache's JSON metadata, whose length changes; the cache file is
    # named by another cache key) passes at --rtol 1e-13 and fails by
    # default; a non-float difference fails either way
    compare = load_script(Path(__file__).parent / "compare_outputs.py")
    runs = [tmp_path / "a", tmp_path / "b"]
    moved = 0.75 * (1.0 + 1e-15)
    for run, x, key in zip(runs, (0.75, moved), ("0123", "4567")):
        (run / "cache").mkdir(parents=True)
        (run / "bounds.json").write_text(json.dumps({"lhs": [x, 2.0], "id": "tail"}))
        (run / "bound-tail.csv").write_text(f"x,lhs\n0.5,{x!r}\n")
        meta = np.frombuffer(json.dumps({"mean": x}).encode(), dtype=np.uint8)
        np.savez(run / "cache" / f"table-{key}.npz", values=np.array([1.0, x]), meta=meta)
    capsys.readouterr()
    assert compare.main([str(r) for r in runs]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == [f"bound-tail.csv: line 2: '0.5,0.75' != '0.5,{moved!r}'",
                       f"bounds.json: .lhs[0]: 0.75 != {moved!r}",
                       f"cache/table-0123.npz: meta.mean: 0.75 != {moved!r}",
                       "cache/table-0123.npz: values: bytes differ"]
    assert out[-1] == "4 differences"
    assert compare.main(["--rtol", "1e-13", *map(str, runs)]) == 0
    out = capsys.readouterr().out.splitlines()
    # relative to the column's floor: 2.0 in the lhs list of bounds.json
    rel = {name: f"{(moved - 0.75) / floor:.2e}" for name, floor in
           (("bound-tail.csv", moved), ("bounds.json", 2.0), ("cache/table-0123.npz", moved))}
    assert out[:3] == [f"{name}: largest relative difference {r}" for name, r in rel.items()]
    assert out[-1] == "equal within rtol 1e-13: 3 files"

    (runs[1] / "bounds.json").write_text(json.dumps({"lhs": [0.75, 2.0], "id": "mgf"}))
    for argv in ([], ["--rtol", "1e-13"]):
        assert compare.main([*argv, *map(str, runs)]) == 1
        assert "bounds.json: .id: 'tail' != 'mgf'" in capsys.readouterr().out


def test_compare_outputs_column_floor(tmp_path, capsys):
    # a value near 0 in a column of larger ones (X or ln F in a samples CSV
    # or a cache, a rounding-level kernel-verify residual among the checks)
    # that moves by 10 % of itself, 7e-17 of its column, is equal at
    # --rtol 1e-12; a move of 3e-12 of the column is flagged in every file
    compare = load_script(Path(__file__).parent / "compare_outputs.py")

    def write(run, near_zero):
        (run / "cache").mkdir(parents=True)
        (run / "samples.csv").write_text(f"path_id,X\r\n0,-3.0\r\n1,{near_zero!r}\r\n")
        (run / "kernel-verify.json").write_text(json.dumps({"checks": [
            {"id": "energy", "value": 3.0}, {"id": "row_sum", "value": near_zero}]}))
        np.savez(run / "cache" / "sim-0.npz", lnF=np.array([-3.0, near_zero]))

    for moved, verdicts in ((2.2e-15, (0, 1)), (2e-15 + 1e-11, (1, 1))):
        runs = [tmp_path / str(moved) / side for side in "ab"]
        write(runs[0], 2e-15)
        write(runs[1], moved)
        for argv, verdict in ((["--rtol", "1e-12"], verdicts[0]), ([], verdicts[1])):
            assert compare.main([*argv, *map(str, runs)]) == verdict
            out = capsys.readouterr().out.splitlines()
            assert out[-1] == ("equal within rtol 1e-12: 3 files" if verdict == 0
                               else "3 differences")


def format_uses(tree):
    """What a parsed module uses of the file formats: np.savez, np.load, the
    csv module, or a CSV row's \\r\\n."""
    uses = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "np" and node.attr.startswith(("savez", "load"))):
            uses.add(f"np.{node.attr}")
        elif isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names):
            uses.add("csv")
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            uses.add("csv")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and "\r\n" in node.value):
            uses.add("\\r\\n")
    return uses


def test_file_formats_are_written_in_reports():
    # every CSV row and every .npz cache is written, and every cache read,
    # by reports.write_columns, write_npz and read_npz
    uses = {path.stem: format_uses(ast.parse(path.read_text()))
            for path in sorted(PACKAGE.glob("*.py"))}
    assert {module for module, used in uses.items() if used} == {"reports"}
    assert uses["reports"] == {"np.savez", "np.load", "\\r\\n"}


def stream_callers(tree, module):
    """Dotted names of the functions of a parsed module that call
    rng.stream, or import it by name ("<module>" outside any function)."""
    callers = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        calls = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "stream" and isinstance(node.func.value, ast.Name)
                 and node.func.value.id == "rng")
        imports = (isinstance(node, ast.ImportFrom) and (node.module or "").endswith("rng")
                   and any(alias.name == "stream" for alias in node.names))
        if calls or imports:
            callers.add(".".join([module] + (scope or ["<module>"])))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, [])
    return callers


def test_random_streams_are_opened_in_two_places():
    # every Gaussian draw goes through paths.increment_stream; only the KDE
    # bootstrap's multinomial draw opens a stream of its own
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "rng":
            callers |= stream_callers(ast.parse(path.read_text()), path.stem)
    assert callers == {"paths.increment_stream", "density.kde_log_domain"}
