"""Structured pass/fail records for inequality suites, the range summary
they are built from, and the one CSV writer of the package (write_columns)."""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

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


def write_columns(path, header, columns):
    """A CSV file of the header row, then one row per entry of the columns,
    each field repr(float); a column that is None gives empty fields."""
    rows = len(columns[0])
    fields = [[""] * rows if c is None else [repr(float(v)) for v in c]
              for c in columns]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*fields))


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
