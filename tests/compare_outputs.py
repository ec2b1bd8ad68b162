"""Compare two expfbm output directories file by file.

    python3 tests/compare_outputs.py [--rtol R] DIR_A DIR_B

Both trees must hold the same relative file names, except that a cache file
(`cache/<kind>-<key>.npz`) is paired with the other tree's only file of its
kind: its key hashes the cache schema, which a change may bump. JSON files
are compared after dropping every `out_dir` and `config_hash` key; `.npz`
files member by member (name, dtype, shape, values; a uint8 member that holds
JSON, as the cache metadata does, as JSON) and then by their bytes; other
files (and a `.json` file that does not parse) as text after dropping the
lines that carry the config hash, field by comma-separated field, or by their
bytes when they are not text.

Two floats x, y are equal when |x - y| <= R max(|x|, |y|, c) (NaN equals
NaN), where c, the column's floor, is the largest finite |value| of their
column in either file: a CSV file's field position, an `.npz` member, or in
JSON the same place in every entry of the innermost list around the float
(the float itself outside any list). So a value near 0 in a column of larger
ones, such as X, ln F or a rounding-level residual, may move by R times the
column's size. The default R = 0 asks for the same value. Everything else
must match exactly. Prints each difference, then the largest relative
difference (|x - y| / max(|x|, |y|, c)) of every file whose floats moved;
exits 0 when nothing differs, else 1.
"""
from __future__ import annotations

import argparse
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


def relative_difference(x, y, floor=0.0):
    """|x - y| / max(|x|, |y|, floor), elementwise: 0 where x == y or both
    are NaN, inf where only one is NaN or where two infinities differ."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(x - y) / np.maximum(np.maximum(np.abs(x), np.abs(y)), floor)
    same = (x == y) | (np.isnan(x) & np.isnan(y))
    return np.where(same, 0.0, np.where(np.isnan(rel), np.inf, rel))


def column_floor(*values):
    """The largest finite |value| of the given floats or arrays, 0 if none."""
    a = np.abs(np.concatenate([np.ravel(np.asarray(v, dtype=float)) for v in values]))
    a = a[np.isfinite(a)]
    return float(a.max()) if a.size else 0.0


def _json_floats(value, where, column, out):
    """Append each float of a JSON value to out[its column], the path of
    the innermost list around it with [*] for the index (where it is in no
    list, its own path)."""
    if isinstance(value, dict):
        for k, v in value.items():
            _json_floats(v, f"{where}.{k}", f"{column}.{k}", out)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _json_floats(v, f"{where}[{i}]", f"{where}[*]", out)
    elif type(value) is float:
        out.setdefault(column, []).append(value)


class Comparison:
    """The differences of one file pair beyond rtol, and the largest
    relative difference of its floats."""

    def __init__(self, rtol):
        self.rtol = rtol
        self.diffs = []
        self.max_rel = 0.0
        self.floors = {}          # JSON column -> its floor

    def floats(self, x, y, message, floor=0.0):
        """Compare float arrays (or floats) of one shape against the column
        floor; record message if they differ beyond rtol."""
        rel = relative_difference(x, y, floor)
        worst = float(rel.max()) if rel.size else 0.0
        self.max_rel = max(self.max_rel, worst)
        if worst > self.rtol:
            self.diffs.append(message)

    def json(self, a, b, where):
        """Compare two JSON values found at where (a path: "" for a file)."""
        columns = {}
        for value in (a, b):
            _json_floats(value, where, where, columns)
        self.floors.update((c, column_floor(v)) for c, v in columns.items())
        self._json(a, b, where, where)

    def _json(self, a, b, where, column):
        if isinstance(a, dict) and isinstance(b, dict):
            self.diffs += [f"{where}.{k}: only in {'A' if k in a else 'B'}"
                           for k in sorted(set(a) ^ set(b))]
            for k in sorted(set(a) & set(b)):
                self._json(a[k], b[k], f"{where}.{k}", f"{column}.{k}")
        elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            for i, (x, y) in enumerate(zip(a, b)):
                self._json(x, y, f"{where}[{i}]", f"{where}[*]")
        elif type(a) is float and type(b) is float:
            self.floats(a, b, f"{where}: {a!r} != {b!r}", self.floors[column])
        elif type(a) is not type(b) or a != b:
            self.diffs.append(f"{where}: {a!r} != {b!r}")

    def npz(self, a, b):
        (names_a, arrays_a), (names_b, arrays_b) = _npz_members(a), _npz_members(b)
        if names_a != names_b:
            self.diffs.append(f"members {names_a} != {names_b}")
        exact = names_a == names_b
        for k in sorted(set(arrays_a) & set(arrays_b)):
            x, y = arrays_a[k], arrays_b[k]
            if (x.dtype, x.shape) == (y.dtype, y.shape) and x.tobytes() == y.tobytes():
                continue
            elif x.dtype == y.dtype == np.uint8 and None not in (_as_json(x), _as_json(y)):
                self.json(_as_json(x), _as_json(y), k)     # a float's repr may change length
            elif (x.dtype, x.shape) != (y.dtype, y.shape):
                self.diffs.append(f"{k}: {x.dtype}{x.shape} != {y.dtype}{y.shape}")
            elif x.dtype.kind == "f":
                self.floats(x, y, f"{k}: bytes differ", column_floor(x, y))
            else:
                self.diffs.append(f"{k}: bytes differ")
            exact = False
        if exact and a != b:
            self.diffs.append("file bytes differ")

    def text(self, lines_a, lines_b):
        if len(lines_a) != len(lines_b):
            self.diffs.append(f"{len(lines_a)} lines != {len(lines_b)} lines")
            return
        rows_a, rows_b = ([line.split(",") for line in lines] for lines in (lines_a, lines_b))
        columns = {}
        for row in rows_a + rows_b:
            for c, value in enumerate(map(_as_float, row)):
                if value is not None:
                    columns.setdefault(c, []).append(value)
        floors = {c: column_floor(v) for c, v in columns.items()}
        for i, (x, y) in enumerate(zip(rows_a, rows_b)):
            if x != y and not self._fields(x, y, floors):
                self.diffs.append(f"line {i + 1}: {lines_a[i]!r} != {lines_b[i]!r}")

    def _fields(self, xs, ys, floors):
        """True if two lines' fields are equal, floats within rtol of their
        column's floor."""
        if len(xs) != len(ys):
            return False
        equal = True
        for c, (x, y) in enumerate(zip(xs, ys)):
            if x != y:
                fx, fy = _as_float(x), _as_float(y)
                if fx is None or fy is None:
                    return False
                rel = float(relative_difference(fx, fy, floors[c]))
                self.max_rel = max(self.max_rel, rel)
                equal = equal and rel <= self.rtol
        return equal


def _as_float(field):
    try:
        return float(field)
    except ValueError:
        return None


def _as_json(array):
    try:
        return json.loads(array.tobytes())
    except ValueError:
        return None


def _npz_members(data):
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        names = zf.namelist()
    with np.load(io.BytesIO(data), allow_pickle=False) as npz:
        return names, {k: npz[k] for k in npz.files}


def _text_lines(data):
    return [line for line in data.decode().splitlines()
            if not CONFIG_HASH_LINE.search(line)]


def compare_files(a: Path, b: Path, rtol=0.0):
    """The Comparison of two files of the same name."""
    out = Comparison(rtol)
    data_a, data_b = a.read_bytes(), b.read_bytes()
    if a.suffix == ".json":
        try:
            out.json(_strip(json.loads(data_a)), _strip(json.loads(data_b)), "")
            return out
        except ValueError:              # not JSON (an empty stdout, say): as text
            pass
    if a.suffix == ".npz":
        out.npz(data_a, data_b)
        return out
    try:
        out.text(_text_lines(data_a), _text_lines(data_b))
    except UnicodeDecodeError:
        if data_a != data_b:
            out.diffs.append("file bytes differ")
    return out


def _cache_kind(name: Path):
    """The kind of a cache file (`cache/table-<key>.npz` -> `cache/table`),
    None for any other file."""
    if name.parent.name == "cache" and "-" in name.stem:
        return name.parent / name.stem.rsplit("-", 1)[0]
    return None


def _pairs(files_a, files_b):
    """{name in A: name in B} for every file of A matched in B: by name, or
    for a cache file by its kind when each tree holds one file of it."""
    pairs = {name: name for name in files_a & files_b}
    for name in files_a - files_b:
        kind = _cache_kind(name)
        same_a = [p for p in files_a if kind is not None and _cache_kind(p) == kind]
        same_b = [p for p in files_b - files_a
                  if kind is not None and _cache_kind(p) == kind]
        if len(same_a) == 1 and len(same_b) == 1:
            pairs[name] = same_b[0]
    return pairs


def compare(dir_a, dir_b, rtol=0.0):
    """Every difference between the trees, one string each, and per file
    pair the largest relative difference of its floats, where it is not 0."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    files_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    pairs = _pairs(files_a, files_b)
    unpaired = (files_a - set(pairs)) | (files_b - set(pairs.values()))
    diffs = [f"{name}: only in {dir_a if name in files_a else dir_b}"
             for name in sorted(unpaired)]
    moved = {}
    for name in sorted(pairs):
        result = compare_files(dir_a / name, dir_b / pairs[name], rtol)
        diffs += [f"{name}: {d}" for d in result.diffs]
        if result.max_rel:
            moved[name] = result.max_rel
    return diffs, moved


def main(argv):
    parser = argparse.ArgumentParser(prog="compare_outputs.py",
                                     description="Compare two expfbm output directories.")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="relative tolerance for floats (default 0: exact)")
    parser.add_argument("dirs", nargs=2, metavar="DIR")
    args = parser.parse_args(argv)
    diffs, moved = compare(*args.dirs, rtol=args.rtol)
    for d in diffs:
        print(d)
    for name, rel in sorted(moved.items()):
        print(f"{name}: largest relative difference {rel:.2e}")
    n_files = sum(1 for p in Path(args.dirs[0]).rglob("*") if p.is_file())
    if diffs:
        print(f"{len(diffs)} differences")
    elif moved:
        print(f"equal within rtol {args.rtol:g}: {n_files} files")
    else:
        print(f"identical: {n_files} files")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
