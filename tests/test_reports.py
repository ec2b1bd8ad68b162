import numpy as np
import pytest

from expfbm.reports import Z, point_report, range_report


@pytest.mark.parametrize("value, violations", [
    (0.0, 0), (1.0, 0), (-1e-10, 0), (1.0 + 1e-10, 0),   # within 1e-9 bound
    (-1e-8, 1), (1.0 + 1e-8, 1), (np.nan, 1)])
def test_range_report_checks_both_sides(value, violations):
    values = np.array([[0.5, 0.0], [value, 0.0]])
    r = range_report("r", "0 <= v <= U", values, np.array([1.0, 0.0]),
                     points=[0.25, 1.0])
    assert r.violations == violations
    assert r.tolerance.tolist() == [1e-9, 0.0]       # a zero bound has zero slack
    assert r.n_samples == 2


def test_range_report_scalar_bound_folds_in_se():
    r = range_report("r", "0 <= v <= U", np.array([1.2, -0.1]), 1.0,
                     se=np.array([0.1, 0.05]))
    assert r.violations == 0                        # 1.2 <= 1 + 0.3 and -0.1 >= -0.15
    assert r.lhs.tolist() == [1.2] and r.points.tolist() == [0.0]
    assert r.tolerance[0] == pytest.approx(0.3 + 1e-9)
    assert range_report("r", "", np.array([1.31]), 1.0, se=np.array([0.1])).violations == 1


@pytest.mark.parametrize("side, lhs, violations", [
    ("upper", [1.0, 1.29, 1.31], 1), ("upper", [0.5, -5.0, 0.69], 0),
    ("lower", [1.0, 0.71, 0.69], 1), ("lower", [5.0, 0.71, 1.31], 0),
    ("both", [1.29, 0.71, 1.31], 1), ("both", [0.69, 1.31, 1.0], 2)])
def test_point_report_sides(side, lhs, violations):
    r = point_report("p", "", [0.0, 1.0, 2.0], lhs, np.ones(3), np.full(3, 0.1),
                     7, side)
    assert r.violations == violations
    assert r.tolerance.tolist() == [Z * 0.1] * 3
    assert r.n_samples == 7 and r.se.tolist() == [0.1] * 3


def test_point_report_passes_fields_and_counts_non_finite():
    r = point_report("p", "", [0.0, 1.0], [np.nan, np.nan], [1.0, 1.0], [0.1, 0.1],
                     2, "upper", inconclusive=np.array([True, False]),
                     meta={"k": 1})
    assert r.violations == 1 and r.meta["k"] == 1 and r.meta["non_finite"] == 1
    with pytest.raises(KeyError):
        point_report("p", "", [0.0], [0.0], [0.0], [0.0], 1, "neither")
