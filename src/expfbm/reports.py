"""Structured pass/fail records for inequality suites."""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np


def _tolist(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    return x


@dataclass
class BoundReport:
    """Verification record for one inequality on a grid of evaluation points.

    A point is a violation when the margin exceeds tolerance (which already
    folds in 3 standard errors), or when its lhs, rhs or tolerance is not
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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "lhs", "rhs", "margin", "se", "implied_c"])
            pts = np.asarray(self.points)
            lhs = np.asarray(self.lhs)
            rhs = np.asarray(self.rhs)
            se = np.asarray(self.se)
            c = self.implied_constant
            for i in range(len(pts)):
                writer.writerow([
                    repr(float(pts[i])), repr(float(lhs[i])), repr(float(rhs[i])),
                    repr(float(lhs[i] - rhs[i])), repr(float(se[i])),
                    "" if c is None else repr(float(c[i])),
                ])


def range_report(bound_id, description, values, bound, se=None, points=(0.0,),
                 meta=None) -> BoundReport:
    """0 <= v <= bound for every sample v, within 1e-9 bound + 3 SE.

    values and se (0 if omitted) hold one row per path: a vector against a
    scalar bound at one point, or a matrix against one bound per column at
    points. The report keeps each column's largest value, SE and tolerance.
    """
    values = np.asarray(values)
    se = np.zeros(values.shape) if se is None else np.asarray(se)
    tol = 1e-9 * bound + 3.0 * se
    violations = int(np.sum((values < -tol) | (values > bound + tol)))
    lhs, se_max, tol_max = (np.atleast_1d(a.max(axis=0)) for a in (values, se, tol))
    return BoundReport(
        bound_id=bound_id, description=description,
        points=np.asarray(points, dtype=float), lhs=lhs,
        rhs=np.atleast_1d(np.asarray(bound, dtype=float)), se=se_max,
        tolerance=tol_max, violations=violations, n_samples=len(values),
        meta=meta or {})


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
