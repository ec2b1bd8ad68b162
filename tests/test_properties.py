"""Exact facts of the discrete model, over the whole parameter range.

ln F, X and the Malliavin derivatives are Gibbs moments formed from
max-shifted exponentials, so they stay finite where F overflows; the
derivative bounds hold pathwise up to rounding.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expfbm import functional as fn
from expfbm import kernel as kn
from expfbm import malliavin as ml
from expfbm import paths as pth


def model(H, T, a, sigma):
    return fn.ModelParams(a=a, sigma=sigma, hurst=kn.HurstParams(H, T))


@settings(max_examples=30, deadline=None)
@given(H=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
       T=st.floats(0.5, 2.0), a=st.floats(-2.0, 2.0), sigma=st.floats(0.0, 1000.0))
@example(H=0.7, T=1.0, a=0.0, sigma=400.0)
@example(H=0.7, T=1.0, a=0.0, sigma=1000.0)
@example(H=0.75, T=1.0, a=2.2e-107, sigma=0.0)    # exp(aT) - 1 rounds to 0
def test_log_domain_derivatives(H, T, a, sigma):
    table = kn.build_kernel_table(H, T, 16)
    params = model(H, T, a, sigma)
    paths = pth.sample_fbm_volterra(table, 64, seed=3)
    lnF = fn.LogFunctional(paths, params).lnF
    X = lnF - fn.estimate_mean_lnF(params, table, 1000, seed=4).value
    D = ml.dx(paths, table, params)
    D2 = ml.d2x(paths, table, params)
    for value in (lnF, X, D, D2):
        assert np.all(np.isfinite(value))

    bound = ml.dx_bounds(table, params, np.arange(table.n + 1))
    assert np.all(D >= 0.0)
    assert np.all(D <= bound * (1.0 + 1e-9))
    assert np.all(D2 >= -1e-12 * np.abs(D2).max())

    # the bracket T exp(-|a|T + sigma min B) <= F <= T exp(|a|T + sigma max B)
    lo = np.log(params.T) - abs(params.a) * params.T + params.sigma * paths.values.min(axis=1)
    hi = np.log(params.T) + abs(params.a) * params.T + params.sigma * paths.values.max(axis=1)
    slack = 1e-12 * np.maximum(1.0, np.abs(lnF))
    assert np.all(lo - slack <= lnF) and np.all(lnF <= hi + slack)


@pytest.mark.parametrize("sigma", [400.0, 1000.0])
def test_finite_at_large_sigma_n32(sigma):
    table = kn.build_kernel_table(0.7, 1.0, 32)
    params = model(0.7, 1.0, 0.0, sigma)
    paths = pth.sample_fbm_volterra(table, 256, seed=3)
    X = fn.LogFunctional(paths, params).lnF \
        - fn.estimate_mean_lnF(params, table, 1000, seed=4).value
    assert np.all(np.isfinite(X))
    assert np.all(np.isfinite(ml.dx(paths, table, params)))
    assert np.all(np.isfinite(ml.d2x(paths, table, params)))


@settings(max_examples=30, deadline=None)
@given(H=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
       T=st.floats(0.5, 2.0), n=st.integers(8, 64))
def test_table_columns_monotone(H, T, n):
    # K(t, s) grows with t for H > 1/2, so every column of the table is
    # non-decreasing down its rows
    table = kn.build_kernel_table(H, T, n)
    assert np.all(np.diff(table.values, axis=0) >= 0.0)
