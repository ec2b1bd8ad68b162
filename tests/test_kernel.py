import functools

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from expfbm import kernel as kn


def inner_integral_oracle(H, t, s):
    """Adaptive-quadrature oracle for int_s^t (u-s)^(H-3/2) u^(H-1/2) du.

    Exact singular part (constant u^(H-1/2) at u=s) plus an adaptive
    remainder: independent of the panel quadrature under test.
    """
    a = H - 1.5
    exact = s ** (H - 0.5) * (t - s) ** (H - 0.5) / (H - 0.5)

    def rem(u):
        return (u - s) ** a * (u ** (H - 0.5) - s ** (H - 0.5))

    val, _ = quad(rem, s, t, epsabs=1e-14, epsrel=1e-12, limit=200)
    return exact + val


def reference_build_kernel_table(H, T, n, c_H, cell_nodes=8):
    """(values, row_weights, sq_weights) of the per-cell build: K evaluated
    afresh, by the panel rule of the inner integral, at every (row, node)
    pair. Reference for the running sum of kn.build_kernel_table."""
    grid = np.linspace(0.0, T, n + 1)
    dt = T / n
    values = np.zeros((n + 1, n + 1))
    row_w = np.zeros((n + 1, n + 1))
    row_w2 = np.zeros((n + 1, n + 1))
    for i in range(1, n + 1):
        j = np.arange(1, i)
        if len(j):
            values[i, 1:i] = kn.kernel_eval(H, c_H, grid[i], grid[j])
    fw, fw2 = kn._first_cell_weights(H, c_H, grid[2:], grid[1])
    dw, dw2 = kn._diag_cell_weights(H, c_H, grid[2:], dt)
    fw_half, fw2_half = kn._first_cell_weights(H, c_H, grid[1:2], 0.5 * grid[1])
    dw_half, dw2_half = kn._diag_cell_weights(H, c_H, grid[1:2], 0.5 * grid[1])
    row_w[1, 1] = fw_half[0] + dw_half[0]
    row_w2[1, 1] = fw2_half[0] + dw2_half[0]
    rows2 = np.arange(2, n + 1)
    row_w[rows2, 1] = fw
    row_w2[rows2, 1] = fw2
    row_w[rows2, rows2] = dw
    row_w2[rows2, rows2] = dw2
    gx, gw = kn._gauss_legendre_01(cell_nodes)
    for i in range(3, n + 1):
        j = np.arange(2, i)
        r = grid[j - 1][:, None] + dt * gx[None, :]
        K = kn.kernel_eval(H, c_H, np.full_like(r, grid[i]), r)
        row_w[i, 2:i] = dt * (K @ gw)
        row_w2[i, 2:i] = dt * ((K ** 2) @ gw)
    return values, row_w, row_w2


def reference_sq_energy_unnormalized(H, t, epsrel=1e-11, limit=200):
    """int_0^t [s^(1/2-H) I(t,s)]^2 ds by adaptive quadrature in z = s^(2-2H),
    the panel rule of I called once per node. Reference for the graded rule
    of kn._sq_energy_unnormalized."""
    p = 2.0 - 2.0 * H

    def integrand(z):
        s = z ** (1.0 / p)
        if s >= t:
            return 0.0
        return float(kn._inner_integral(H, t, s)) ** 2

    val, _ = quad(integrand, 0.0, t ** p, epsabs=0.0, epsrel=epsrel, limit=limit)
    return val / p


def reference_calibrate_ch(H):
    """c_H from the unit-energy condition by adaptive quadrature at relative
    tolerance 1e-13. Reference for kn.calibrate_ch."""
    return 1.0 / np.sqrt(reference_sq_energy_unnormalized(H, 1.0, epsrel=1e-13,
                                                          limit=512))


def reference_time_integral_square_aggregate(H, c_H, T, epsrel=1e-10):
    """int_0^T (int_theta^T K(s,theta) ds)^2 dtheta by adaptive quadrature in
    z = theta^(2-2H). Reference for kn.time_integral_square_aggregate."""
    p = 2.0 - 2.0 * H

    def integrand(z):
        theta = z ** (1.0 / p)
        if theta >= T:
            return 0.0
        return float(kn._time_integral_reduced(H, theta, T)) ** 2

    val, _ = quad(integrand, 0.0, T ** p, epsabs=0.0, epsrel=epsrel, limit=200)
    return c_H ** 2 * val / p


def assert_matches_reference(table):
    ref = reference_build_kernel_table(table.H, table.T, table.n, table.c_H)
    for name, want in zip(("values", "row_weights", "sq_weights"), ref):
        got = getattr(table, name)
        assert np.array_equal(got == 0.0, want == 0.0), name
        nz = want != 0.0
        assert np.max(np.abs(got[nz] / want[nz] - 1.0)) < 1e-13, name
    # the running sum adds positive increments: columns monotone, exactly
    assert np.all(np.diff(table.values, axis=0) >= 0.0)


class TestRunningSumBuild:
    @pytest.mark.parametrize("H", [0.51, 0.55, 0.7, 0.9])
    def test_matches_per_cell_build(self, H):
        for T in (1.0, 2.0):
            for n in (8, 9, 16, 64):
                assert_matches_reference(kn.build_kernel_table(H, T, n))

    def test_matches_per_cell_build_n256(self):
        # largest differences from the per-cell build occur at H = 0.9
        assert_matches_reference(kn.build_kernel_table(0.9, 1.0, 256))


class TestCalibration:
    def test_matches_closed_form(self):
        for H in (0.501, 0.51, 0.55, 0.6, 0.7, 0.75, 0.9, 0.99, 0.999999):
            ch = kn.calibrate_ch(H)
            assert abs(ch / kn.ch_closed_form(H) - 1.0) < 1e-12

    def test_closed_form_from_lgamma(self):
        # the stdlib form against the Beta function of scipy.special
        from scipy.special import beta

        for H in (0.51, 0.55, 0.7, 0.9, 0.99):
            want = np.sqrt(H * (2.0 * H - 1.0) / beta(2.0 - 2.0 * H, H - 0.5))
            assert kn.ch_closed_form(H) == pytest.approx(want, rel=1e-14)
        assert kn.build_kernel_table(0.7, 1.0, 8).c_H == kn.ch_closed_form(0.7)

    def test_near_singular_H(self):
        ch = kn.calibrate_ch(0.51)
        assert abs(ch / kn.ch_closed_form(0.51) - 1.0) < 1e-6

    def test_unit_energy_residual(self):
        for H in (0.55, 0.7, 0.9):
            ch = kn.calibrate_ch(H)
            assert abs(kn.kernel_sq_integral(H, ch, 1.0) - 1.0) < 1e-8

    def test_deterministic(self):
        assert kn.calibrate_ch(0.7) == kn.calibrate_ch(0.7)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            kn.calibrate_ch(0.5)
        with pytest.raises(ValueError):
            kn.calibrate_ch(1.0)

    def test_failure_reports_residual(self, monkeypatch):
        calls = iter([(1.0, 0.0), (1.5, 0.0)])   # inconsistent passes
        monkeypatch.setattr(kn, "_sq_energy_unnormalized",
                            lambda *a, **k: next(calls))
        with pytest.raises(kn.CalibrationError) as err:
            kn.calibrate_ch(0.7)
        assert err.value.residual == pytest.approx(abs(1.0 / 1.5 - 1.0), rel=1e-12)


SWEEP_H = (0.501, 0.51, 0.55, 0.7, 0.9, 0.99)
SWEEP_T = (0.5, 1.0, 2.0)


@functools.lru_cache(maxsize=None)
def reference_sweep(H):
    """The adaptive-quadrature energies and time aggregates at the closed-form
    c_H, for t in SWEEP_T."""
    ch = kn.ch_closed_form(H)
    return ([ch ** 2 * reference_sq_energy_unnormalized(H, t) for t in SWEEP_T]
            + [reference_time_integral_square_aggregate(H, ch, t) for t in SWEEP_T])


def sweep_miss(H):
    """Largest relative difference of the graded-rule energies and time
    aggregates from reference_sweep(H)."""
    ch = kn.ch_closed_form(H)
    got = ([kn.kernel_sq_integral(H, ch, t) for t in SWEEP_T]
           + [kn.time_integral_square_aggregate(H, ch, t) for t in SWEEP_T])
    return max(abs(g / r - 1.0) for g, r in zip(got, reference_sweep(H)))


class TestGradedRule:
    @pytest.mark.parametrize("H", SWEEP_H)
    def test_matches_adaptive_references(self, H):
        assert abs(kn.calibrate_ch(H) / reference_calibrate_ch(H) - 1.0) < 1e-12
        assert sweep_miss(H) < 1e-12

    def test_sweep_can_fail(self, monkeypatch):
        # the rule at the table's depth of 14 is too shallow for the sweep,
        # and calibrate_ch's cross-check at CHECK_DEPTH catches it
        monkeypatch.setattr(kn, "QUAD_DEPTH", 14)
        assert sweep_miss(0.51) > 1e-12
        with pytest.raises(kn.CalibrationError) as err:
            kn.calibrate_ch(0.51)
        assert err.value.residual > 1e-10

    def test_error_estimate(self):
        # the change from depth - 1 bounds the miss of a shallow rule, and
        # vanishes where the rule has converged
        exact = 1.0 / 1.01
        val, err = kn.graded_quad(lambda x: x ** 0.01, 1.0, 8)
        assert 0.0 < abs(val - exact) <= err
        val, err = kn.graded_quad(lambda x: x ** 0.01, 1.0, kn.QUAD_DEPTH)
        assert abs(val - exact) < 1e-15 and err < 1e-14


class TestHurstParams:
    def test_open_interval(self):
        with pytest.raises(ValueError):
            kn.HurstParams(0.5, 1.0)
        with pytest.raises(ValueError):
            kn.HurstParams(1.0, 1.0)
        with pytest.raises(ValueError):
            kn.HurstParams(0.7, 0.0)
        kn.HurstParams(0.51, 2.0)


class TestKernelEval:
    def test_zero_on_diagonal(self):
        ch = kn.calibrate_ch(0.7)
        assert kn.kernel_eval(0.7, ch, 1.0, 1.0) == 0.0

    def test_against_adaptive_oracle(self):
        H, t, s = 0.7, 1.0, 0.5
        ch = kn.calibrate_ch(H)
        oracle = ch * s ** (0.5 - H) * inner_integral_oracle(H, t, s)
        assert abs(kn.kernel_eval(H, ch, t, s) / oracle - 1.0) < 1e-8

    def test_oracle_other_points(self):
        for H in (0.55, 0.9):
            ch = kn.calibrate_ch(H)
            for (t, s) in ((1.0, 0.25), (2.0, 1.5), (1.0, 0.9)):
                oracle = ch * s ** (0.5 - H) * inner_integral_oracle(H, t, s)
                assert abs(kn.kernel_eval(H, ch, t, s) / oracle - 1.0) < 1e-8

    def test_monotone_in_first_argument(self):
        ch = kn.calibrate_ch(0.7)
        assert kn.kernel_eval(0.7, ch, 1.0, 0.3) <= kn.kernel_eval(0.7, ch, 1.5, 0.3)

    def test_domain_errors(self):
        ch = kn.calibrate_ch(0.7)
        with pytest.raises(ValueError):
            kn.kernel_eval(0.7, ch, 1.0, 0.0)
        with pytest.raises(ValueError):
            kn.kernel_eval(0.7, ch, 1.0, -0.1)
        with pytest.raises(ValueError):
            kn.kernel_eval(0.7, ch, 0.5, 0.6)

    def test_vectorized(self):
        ch = kn.calibrate_ch(0.7)
        s = np.array([0.1, 0.5, 0.9])
        out = kn.kernel_eval(0.7, ch, 1.0, s)
        assert out.shape == (3,)
        assert np.all(out > 0)


class TestCovariance:
    def test_variance_on_diagonal(self):
        assert kn.covariance(0.7, 1.0, 1.0) == pytest.approx(1.0)
        assert kn.covariance(0.9, 2.0, 2.0) == pytest.approx(2.0 ** 1.8)

    def test_half_point_cancellation(self):
        for H in (0.55, 0.7, 0.95):
            assert kn.covariance(H, 1.0, 0.5) == pytest.approx(0.5)

    def test_closed_form_value(self):
        assert kn.covariance(0.75, 2.0, 1.0) == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_symmetry_and_zero(self):
        assert kn.covariance(0.7, 1.3, 0.4) == kn.covariance(0.7, 0.4, 1.3)
        assert kn.covariance(0.7, 1.0, 0.0) == 0.0

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            kn.covariance(0.7, -1.0, 0.5)


class TestEnergyIdentity:
    def test_continuous_identity(self):
        for H in (0.501, 0.55, 0.7, 0.9, 0.999999):
            ch = kn.ch_closed_form(H)
            for t in (0.5, 1.0, 2.0):
                val = kn.kernel_sq_integral(H, ch, t)
                assert abs(val / t ** (2 * H) - 1.0) < 1e-12

    def test_near_singular_relaxed(self):
        ch = kn.calibrate_ch(0.51)
        assert abs(kn.kernel_sq_integral(0.51, ch, 1.0) - 1.0) < 1e-6


class TestTimeIntegral:
    def test_zero_at_horizon(self, table64):
        assert kn.kernel_time_integral(table64, 1.0) == 0.0

    def test_rejects_off_grid_and_origin(self, table64):
        with pytest.raises(ValueError):
            kn.kernel_time_integral(table64, 0.12345)
        with pytest.raises(ValueError):
            kn.kernel_time_integral(table64, 0.0)

    def test_square_aggregate_identity(self):
        for (H, T) in ((0.7, 1.0), (0.6, 2.0), (0.501, 0.5), (0.999999, 1.0)):
            ch = kn.calibrate_ch(H)
            lhs = kn.time_integral_square_aggregate(H, ch, T)
            rhs = T ** (2 * H + 2) / (2 * H + 2)
            assert abs(lhs / rhs - 1.0) < 1e-12

    @pytest.mark.parametrize("H", [0.5 + 1e-6, 0.5 + 1e-9])
    def test_square_aggregate_identity_near_half(self, H):
        # the reduced time integral is split at u = 2 theta: one substitution
        # over [theta, T] missed by ~1e-9 here
        ch = kn.ch_closed_form(H)
        for T in (0.5, 1.0, 2.0):
            lhs = kn.time_integral_square_aggregate(H, ch, T)
            assert abs(lhs / (T ** (2 * H + 2) / (2 * H + 2)) - 1.0) < 1e-12, T

    def test_aggregate_against_covariance_double_integral(self):
        # independent route: the aggregate equals the double integral of the
        # covariance, which brute-force 2-D quadrature reproduces; the
        # |t - s|^2H kink sits on the diagonal, so each triangle is smooth
        H, T = 0.6, 2.0
        val = sum(dblquad(lambda s, t: kn.covariance(H, t, s), 0.0, T, lo, hi,
                          epsabs=1e-10, epsrel=1e-10)[0]
                  for lo, hi in ((0.0, lambda t: t), (lambda t: t, T)))
        assert val == pytest.approx(T ** (2 * H + 2) / (2 * H + 2), rel=1e-8)
        ch = kn.calibrate_ch(H)
        assert kn.time_integral_square_aggregate(H, ch, T) == pytest.approx(val, rel=1e-4)

    def test_positive_inside(self, table64):
        v = kn.kernel_time_integral(table64, 0.5)
        assert v > 0.0
        cont = kn.kernel_time_integral_continuous(table64.H, table64.c_H, 0.5, 1.0)
        assert v == cont


class TestKernelTable:
    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            kn.build_kernel_table(0.7, 1.0, 4)

    def test_diagonal_values_zero(self, table256):
        assert np.all(np.diag(table256.values) == 0.0)

    def test_zero_column_convention(self, table256):
        assert np.all(table256.values[:, 0] == 0.0)

    def test_discrete_energy_identity(self, table256):
        marg = table256.grid ** 1.4
        assert np.max(np.abs(table256.energies - marg)) < 5e-3

    def test_map_variance_reported(self, table256):
        marg = table256.grid ** 1.4
        err = np.max(np.abs(table256.map_variances - marg))
        assert err == pytest.approx(table256.meta["map_variance_max_abs_err"])
        assert err < 5e-3

    def test_covariance_reproduction(self, table256):
        i, j = table256.n, table256.n // 2
        mapcov = np.sum(table256.row_weights[i] * table256.row_weights[j]) / table256.dt
        assert abs(mapcov - kn.covariance(0.7, table256.grid[i], table256.grid[j])) < 5e-3

    def test_weights_nonnegative_and_monotone_columns(self, table256):
        assert table256.row_weights.min() >= 0.0
        assert table256.sq_weights.min() >= 0.0
        vals = table256.values
        for j in (1, 64, 128, 200):
            col = vals[j:, j]
            assert np.all(np.diff(col) >= -1e-12)

    def test_row_weight_consistent_with_kernel(self, table64):
        # interior cell integral matches adaptive quadrature of K
        i, j = 40, 20
        t_i = table64.grid[i]
        lo, hi = table64.grid[j - 1], table64.grid[j]
        val, _ = quad(lambda r: kn.kernel_eval(0.7, table64.c_H, t_i, r), lo, hi,
                      epsabs=1e-13, epsrel=1e-11)
        assert table64.row_weights[i, j] == pytest.approx(val, rel=1e-9)

    def test_conditional_variances(self, table64):
        v0 = table64.conditional_variances(0)
        assert np.allclose(v0, table64.map_variances, rtol=1e-12, atol=0)
        vT = table64.conditional_variances(table64.n)
        assert np.all(vT == 0.0)
        vk = table64.conditional_variances(32)
        assert np.all(vk >= 0.0)
        assert np.all(vk[:33] == 0.0)
        # the future cells' share: v(0) - v(k) is what the cells before t_k draw
        past = (table64.volterra_matrix[:, :32] ** 2).sum(axis=1) * table64.dt
        assert np.allclose(v0 - vk, past, rtol=1e-12, atol=1e-15)

    def test_build_deterministic(self):
        a = kn.build_kernel_table(0.7, 1.0, 16)
        b = kn.build_kernel_table(0.7, 1.0, 16)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.row_weights, b.row_weights)
        assert a.c_H == b.c_H

    def test_index_of(self, table64):
        assert table64.index_of(0.5) == 32
        with pytest.raises(ValueError):
            table64.index_of(0.5 + 1e-4)


class TestSerialization:
    def test_roundtrip(self, table64, tmp_path):
        path = tmp_path / "table.npz"
        kn.save_table(table64, path)
        loaded = kn.load_table(path)
        assert np.array_equal(loaded.values, table64.values)
        assert np.array_equal(loaded.row_weights, table64.row_weights)
        assert np.array_equal(loaded.sq_weights, table64.sq_weights)
        assert loaded.c_H == table64.c_H
        assert loaded.H == table64.H and loaded.T == table64.T

    def test_version_check(self, table64, tmp_path):
        import json as _json

        path = tmp_path / "table.npz"
        kn.save_table(table64, path)
        with np.load(path) as data:
            meta = _json.loads(bytes(data["meta"].tobytes()).decode())
            arrays = {k: data[k] for k in data.files if k != "meta"}
        meta["format_version"] = 999
        blob = np.frombuffer(_json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, meta=blob, **arrays)
        with pytest.raises(ValueError):
            kn.load_table(path)
