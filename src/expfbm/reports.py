"""Structured pass/fail records for inequality suites and the range summary
they are built from; and the package's file formats: the one CSV writer
(write_columns) and the one .npz writer and reader (write_npz, read_npz)."""
from __future__ import annotations

import json
import zipfile
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import rng

# Standard errors by which a Monte Carlo estimate may pass its bound: the one
# verdict rule of every report built from an estimate and its SE.
Z = 3.0


def _tolist(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    return x


@dataclass
class BoundReport:
    """Verification record for one inequality on a grid of evaluation points.

    A point is a violation when the margin exceeds tolerance (which already
    folds in Z standard errors), or when its lhs, rhs or tolerance is not
    finite: a nan comparison is never true, so it would otherwise pass.
    Points without enough samples are flagged inconclusive rather than
    failed, and are exempt from the finiteness rule.
    """

    bound_id: str
    description: str
    points: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    se: np.ndarray
    tolerance: np.ndarray
    violations: int
    n_samples: int
    implied_constant: np.ndarray | None = None
    inconclusive: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        finite = (np.isfinite(np.asarray(self.lhs, dtype=float))
                  & np.isfinite(np.asarray(self.rhs, dtype=float))
                  & np.isfinite(np.asarray(self.tolerance, dtype=float)))
        bad = ~finite
        if self.inconclusive is not None:
            bad &= ~np.asarray(self.inconclusive, dtype=bool)
        n_bad = int(bad.sum())
        if n_bad:
            self.violations += n_bad
            self.meta["non_finite"] = n_bad

    @property
    def margins(self):
        return np.asarray(self.lhs) - np.asarray(self.rhs)

    @property
    def passed(self):
        return self.violations == 0

    def to_dict(self):
        return {
            "bound_id": self.bound_id,
            "description": self.description,
            "passed": bool(self.passed),
            "violations": int(self.violations),
            "n_samples": int(self.n_samples),
            "points": _tolist(np.asarray(self.points)),
            "lhs": _tolist(np.asarray(self.lhs)),
            "rhs": _tolist(np.asarray(self.rhs)),
            "margins": _tolist(self.margins),
            "se": _tolist(np.asarray(self.se)),
            "tolerance": _tolist(np.asarray(self.tolerance)),
            "implied_constant": _tolist(self.implied_constant)
            if self.implied_constant is not None else None,
            "inconclusive": _tolist(self.inconclusive)
            if self.inconclusive is not None else None,
            "meta": {k: _tolist(v) for k, v in self.meta.items()
                     if not isinstance(v, np.ndarray) or v.size <= 4096},
        }

    def write_csv(self, path):
        """Plot-ready rows: (x, lhs, rhs, margin, se, implied_c)."""
        write_columns(path, ["x", "lhs", "rhs", "margin", "se", "implied_c"],
                      [self.points, self.lhs, self.rhs, self.margins, self.se,
                       self.implied_constant])


def _fields(column):
    """repr of each entry as a Python scalar: an int column's ints, any
    other column's floats."""
    a = np.asarray(column)
    return map(repr, (a if a.dtype.kind in "iu" else a.astype(float)).tolist())


def write_columns(path, header, columns, comments=None):
    """A CSV file: a `# key=value` line per comment (sorted by key), the
    header row, then one row per entry of the columns, each field the repr
    of a Python int or float; a column that is None gives empty fields.

    Rows end in \\r\\n and are joined and written rng.BATCH at a time: the
    bytes of csv.writer, since no field needs quoting.
    """
    rows = len(columns[0])
    with open(path, "w", newline="") as fh:
        for key in sorted(comments or {}):
            fh.write(f"# {key}={comments[key]}\n")
        fh.write(",".join(header) + "\r\n")
        for start in range(0, rows, rng.BATCH):
            stop = min(start + rng.BATCH, rows)
            fields = [[""] * (stop - start) if c is None else _fields(c[start:stop])
                      for c in columns]
            fh.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")


def write_npz(path, **members):
    """A plain .npz of the members, in the caller's order, written through a
    handle (given a path without .npz, numpy would append it). A member
    `meta` is a dict, stored as the uint8 bytes of its sorted-key JSON."""
    if "meta" in members:
        blob = json.dumps(members["meta"], sort_keys=True).encode()
        members["meta"] = np.frombuffer(blob, dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **members)


def read_npz(path):
    """Every member of an .npz that write_npz wrote, in the file's order,
    with `meta` decoded from its JSON; nothing is unpickled."""
    # through a handle: np.load does not close its own when the zip is unreadable
    with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
        members = {k: data[k] for k in data.files}
    if "meta" in members:
        members["meta"] = json.loads(members["meta"].tobytes())
    return members


# what reading a truncated or otherwise damaged .npz file raises
UNREADABLE = (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile, zlib.error)


_EXCEEDS = {
    "upper": lambda lhs, rhs, tol: lhs > rhs + tol,
    "lower": lambda lhs, rhs, tol: lhs < rhs - tol,
    "both": lambda lhs, rhs, tol: np.abs(lhs - rhs) > tol,
}


def point_report(bound_id, description, points, lhs, rhs, se, n_samples, side,
                 **fields) -> BoundReport:
    """lhs <= rhs (side "upper"), lhs >= rhs ("lower") or lhs = rhs ("both")
    at each point, within a tolerance of Z * se; each point outside it is one
    violation. fields (meta, inconclusive, ...) go to the BoundReport."""
    lhs, rhs, se = (np.asarray(a, dtype=float) for a in (lhs, rhs, se))
    tol = Z * se
    return BoundReport(
        bound_id=bound_id, description=description,
        points=np.asarray(points, dtype=float), lhs=lhs, rhs=rhs, se=se,
        tolerance=tol, violations=int(np.sum(_EXCEEDS[side](lhs, rhs, tol))),
        n_samples=n_samples, **fields)


def range_violations(values, bound, se=0.0):
    """How many samples v lie outside 0 <= v <= bound by more than the
    tolerance 1e-9 bound + Z SE."""
    tol = 1e-9 * bound + Z * se
    return int(np.sum((values < -tol) | (values > bound + tol)))


def range_summary(values, bound, se=None):
    """The summary of values (one row per sample; a vector is one column)
    that a range check reads: per column max, mean (the bits of
    values[:, c].mean(); an axis-0 mean sums in another order) and
    violations, the count outside 0 <= v <= bound within 1e-9 bound + Z se;
    with se, also se_max and se_mean."""
    def columns(a):
        a = np.asarray(a).reshape(len(a), -1)
        return a, a.max(axis=0), np.array([a[:, c].mean() for c in range(a.shape[1])])

    values, vmax, vmean = columns(values)
    out = {"max": vmax, "mean": vmean}
    if se is not None:
        se, out["se_max"], out["se_mean"] = columns(se)
    out["violations"] = range_violations(values, bound, 0.0 if se is None else se)
    return out


def range_report(bound_id, description, values, bound, se=None, points=(0.0,),
                 meta=None) -> BoundReport:
    """0 <= v <= bound for every sample v, within 1e-9 bound + Z SE.

    values and se (0 if omitted) hold one row per path: a vector against a
    scalar bound at one point, or a matrix against one bound per column at
    points. The report keeps each column's largest value and SE.
    """
    s = range_summary(values, bound, se)
    return summary_report(bound_id, description, points, s["max"], bound,
                          s["violations"], len(values), se=s.get("se_max", 0.0),
                          meta=meta)


def summary_report(bound_id, description, points, lhs, bound, violations, n_samples,
                   se=0.0, tolerance=None, meta=None) -> BoundReport:
    """A range check's report from its summary over the samples: the largest
    value (lhs) and SE at each point, the bound, and the violations counted
    sample by sample. The tolerance defaults to 1e-9 bound + Z se; with se
    the largest SE at a point, that is the largest tolerance of its samples."""
    lhs = np.atleast_1d(np.asarray(lhs, dtype=float))
    se = np.full(lhs.shape, se, dtype=float)
    bound = np.atleast_1d(np.asarray(bound, dtype=float))
    if tolerance is None:
        tolerance = 1e-9 * bound + Z * se
    return BoundReport(
        bound_id=bound_id, description=description,
        points=np.asarray(points, dtype=float), lhs=lhs, rhs=bound, se=se,
        tolerance=np.atleast_1d(np.asarray(tolerance, dtype=float)),
        violations=int(violations), n_samples=n_samples, meta=meta or {})


def summarize(reports):
    """One line per report, given as a BoundReport.to_dict(): id, pass/fail,
    violations, worst margin."""
    lines = []
    for r in reports:
        margin = float(np.max(r["margins"])) if np.size(r["margins"]) else 0.0
        status = "PASS" if r["passed"] else "FAIL"
        lines.append(f"{status} {r['bound_id']}: violations={r['violations']} "
                     f"worst_margin={margin:.3e} n={r['n_samples']} :: "
                     f"{r['description']}")
    return lines
