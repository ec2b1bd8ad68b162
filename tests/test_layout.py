"""The kernel table's column layout: every site that splits the driving
Gaussians into past and future reads the split from the table.

A layout with two columns known from node 1 splits cell 0's column V_0 into
cos(phi) V_0 and sin(phi) V_0, each with its own N(0, dt) Gaussian. Driven by
xi_a and xi_b it is the one-column table driven by xi_0 = cos(phi) xi_a +
sin(phi) xi_b, so every conditional object must agree with that table's to
rounding. A site that slices the columns by the node index k instead of
table.past(k) takes one column too few into the past from node 1 on, or
draws one Gaussian too few per row.
"""
import dataclasses

import numpy as np
import pytest

from expfbm import kernel as kn
from expfbm import malliavin as ml
from expfbm import paths as pth
from expfbm.functional import LogFunctional, ModelParams, sample_lnF

PHI = 0.6
PARAMS = ModelParams(a=0.3, sigma=1.2, hurst=kn.HurstParams(0.7, 1.0))


def split_first_column(table):
    """A copy of table whose cell-0 column is two columns known from node 1."""
    V = table.volterra_matrix
    split = dataclasses.replace(table)
    split.volterra_matrix = np.hstack([np.cos(PHI) * V[:, :1], np.sin(PHI) * V[:, :1],
                                       V[:, 1:]])
    split.column_nodes = np.concatenate([[1], table.column_nodes])
    return split


def assert_close(x, y):
    """Equal within 1e-12 of the largest entry of either array."""
    x, y = np.asarray(x), np.asarray(y)
    assert x.shape == y.shape
    scale = max(np.abs(x).max(initial=0.0), np.abs(y).max(initial=0.0))
    assert np.abs(x - y).max(initial=0.0) <= 1e-12 * scale


@pytest.fixture(scope="module")
def layouts():
    """(cell table, split table, Gaussians of the split table, the same
    Gaussians merged for the cell table)."""
    table = kn.build_kernel_table(0.7, 1.0, 32)
    split = split_first_column(table)
    gen = np.random.Generator(np.random.Philox(5))
    xi = gen.standard_normal((300, split.width)) * np.sqrt(table.dt)
    merged = np.hstack([np.cos(PHI) * xi[:, :1] + np.sin(PHI) * xi[:, 1:2], xi[:, 2:]])
    return table, split, xi, merged


def test_cell_layout(layouts):
    table, split, _, _ = layouts
    nodes = np.arange(table.n + 1)
    assert np.array_equal(table.column_nodes, nodes[1:])
    assert np.array_equal(table.past(nodes), nodes) and table.width == table.n
    assert split.width == table.n + 1
    assert np.array_equal(split.past(nodes), np.r_[0, nodes[1:] + 1])
    assert table.entering == [range(0)] + [range(k - 1, k) for k in nodes[1:]]
    assert split.entering[:3] == [range(0), range(0, 2), range(2, 3)]


def test_conditional_variances_and_shift(layouts):
    table, split, _, _ = layouts
    for k in range(table.n + 1):
        assert_close(split.conditional_variances(k), table.conditional_variances(k))
        assert_close(pth._lognormal_shift(split, PARAMS, k),
                     pth._lognormal_shift(table, PARAMS, k))


def test_conditional_means(layouts):
    table, split, xi, merged = layouts
    for k in range(table.n + 1):
        assert_close(pth.conditional_means(split, xi, k),
                     pth.conditional_means(table, merged, k))


def test_inner_fluctuations(layouts):
    # node 0: the whole future, xi_a and xi_b against xi_0; later nodes: the
    # same future cells in both layouts
    table, split, xi, merged = layouts
    assert_close(pth.inner_fluctuations(split, 0, xi),
                 pth.inner_fluctuations(table, 0, merged))
    for k in range(1, table.n + 1):
        future = merged[:, k:]
        assert_close(pth.inner_fluctuations(split, k, future),
                     pth.inner_fluctuations(table, k, future))


def test_sweep_against_conditional_lognormal(layouts):
    table, split, xi, merged = layouts
    for k, L, C in pth.conditional_lognormal_sweep(split, PARAMS, xi):
        N = pth.conditional_means(table, merged, k)
        exponent = PARAMS.sigma * N + pth._lognormal_shift(table, PARAMS, k)
        assert_close(L, exponent[:, k + 1:])
        assert_close(C, pth.conditional_lognormal(table, PARAMS, k, N)[:, k + 1:])


def test_clark_ocone_residual(layouts):
    table, split, xi, merged = layouts
    paths_split, paths_cell = pth.fbm_from_bm(split, xi), pth.fbm_from_bm(table, merged)
    assert_close(paths_split.values, paths_cell.values)
    assert_close(ml.clark_ocone_residual(paths_split, split, PARAMS),
                 ml.clark_ocone_residual(paths_cell, table, PARAMS))


def test_samplers_draw_the_table_width(layouts):
    _, split, _, _ = layouts
    paths = pth.sample_fbm_volterra(split, 300, seed=8)
    assert paths.increments.shape == (300, split.width)
    assert np.array_equal(sample_lnF(PARAMS, split, 300, seed=8),
                          LogFunctional(paths, PARAMS).lnF)
    with pytest.raises(ValueError, match="columns"):
        pth.fbm_from_bm(split, paths.increments[:, 1:])


def test_nested_reads_the_future_width(layouts):
    # from node 1 on the future cells, and so the inner draws, are the same
    # in both layouts; at node 0 the split layout draws one Gaussian more
    table, split, xi, merged = layouts
    idx = [0, 1, 2, 9, table.n - 1, table.n]
    est, se, _, _ = ml._nested(pth.fbm_from_bm(split, xi), split, PARAMS, idx, 50, 4, 0)
    ref, ref_se, _, _ = ml._nested(pth.fbm_from_bm(table, merged), table, PARAMS, idx,
                                   50, 4, 0)
    assert np.all(np.isfinite(est[:, 0])) and np.all(se[:, 0] > 0)
    assert_close(est[:, 1:], ref[:, 1:])
    assert_close(se[:, 1:], ref_se[:, 1:])
