"""Compare two expfbm output directories file by file.

    python3 tests/compare_outputs.py DIR_A DIR_B

Both trees must hold the same relative file names. JSON files are compared
after dropping every `out_dir` and `config_hash` key; `.npz` files member by
member (name, dtype, shape, bytes) and then by their bytes; other files
(and a `.json` file that does not parse) as text after dropping the lines
that carry the config hash, or by their bytes when they are not text.
Exits 0 when nothing differs, else 1 after listing each difference.
"""
from __future__ import annotations

import io
import json
import re
import sys
import zipfile
from pathlib import Path

import numpy as np

DROPPED_KEYS = {"out_dir", "config_hash"}
# a samples CSV's "# config_hash=..." line, report.txt's "(config <hash>)"
CONFIG_HASH_LINE = re.compile(r"config_hash|\(config [0-9a-f]+\)")


def _strip(value):
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k not in DROPPED_KEYS}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


def _json_diffs(a, b, where):
    """The paths (key or index chains) at which two JSON values differ; NaN
    equals NaN."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = [f"{where}.{k}: only in {'A' if k in a else 'B'}"
               for k in sorted(set(a) ^ set(b))]
        for k in sorted(set(a) & set(b)):
            out += _json_diffs(a[k], b[k], f"{where}.{k}")
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b))
                for d in _json_diffs(x, y, f"{where}[{i}]")]
    if type(a) is type(b) and (a == b or a != a and b != b):
        return []
    return [f"{where}: {a!r} != {b!r}"]


def _npz_members(data):
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        names = zf.namelist()
    with np.load(io.BytesIO(data), allow_pickle=False) as npz:
        return names, {k: npz[k] for k in npz.files}


def _npz_diffs(a, b):
    (names_a, arrays_a), (names_b, arrays_b) = _npz_members(a), _npz_members(b)
    out = [] if names_a == names_b else [f"members {names_a} != {names_b}"]
    for k in sorted(set(arrays_a) & set(arrays_b)):
        x, y = arrays_a[k], arrays_b[k]
        if (x.dtype, x.shape) != (y.dtype, y.shape):
            out.append(f"{k}: {x.dtype}{x.shape} != {y.dtype}{y.shape}")
        elif x.tobytes() != y.tobytes():
            out.append(f"{k}: bytes differ")
    if not out and a != b:
        out.append("file bytes differ")
    return out


def _text_lines(data):
    return [line for line in data.decode().splitlines()
            if not CONFIG_HASH_LINE.search(line)]


def file_diffs(a: Path, b: Path):
    """The differences between two files of the same name."""
    data_a, data_b = a.read_bytes(), b.read_bytes()
    if a.suffix == ".json":
        try:
            return _json_diffs(_strip(json.loads(data_a)), _strip(json.loads(data_b)), "")
        except ValueError:              # not JSON (an empty stdout, say): as text
            pass
    if a.suffix == ".npz":
        return _npz_diffs(data_a, data_b)
    try:
        lines_a, lines_b = _text_lines(data_a), _text_lines(data_b)
    except UnicodeDecodeError:
        return [] if data_a == data_b else ["file bytes differ"]
    if len(lines_a) != len(lines_b):
        return [f"{len(lines_a)} lines != {len(lines_b)} lines"]
    return [f"line {i + 1}: {x!r} != {y!r}"
            for i, (x, y) in enumerate(zip(lines_a, lines_b)) if x != y]


def compare(dir_a, dir_b):
    """Every difference between the trees, one string each."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    files_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    out = [f"{name}: only in {dir_a if name in files_a else dir_b}"
           for name in sorted(files_a ^ files_b)]
    for name in sorted(files_a & files_b):
        out += [f"{name}: {d}" for d in file_diffs(dir_a / name, dir_b / name)]
    return out


def main(argv):
    if len(argv) != 2:
        print("usage: compare_outputs.py DIR_A DIR_B", file=sys.stderr)
        return 2
    diffs = compare(*argv)
    for d in diffs:
        print(d)
    n_files = sum(1 for p in Path(argv[0]).rglob("*") if p.is_file())
    print(f"{len(diffs)} differences" if diffs else f"identical: {n_files} files")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
