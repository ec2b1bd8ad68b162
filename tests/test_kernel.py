import functools
import json

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from expfbm import kernel as kn
from expfbm import reports


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
    """(values, row_weights, K^2 cell integrals) of the per-cell build: K
    evaluated afresh, by the panel rule of the inner integral, at every
    (row, node) pair. Reference for the running sum of kn._cell_integrals."""
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
    # the table keeps the build's values and row weights and, of its K^2
    # cells, only their row sums
    cells = kn._cell_integrals(table.H, table.c_H, table.T, table.n)
    assert np.array_equal(table.values, cells[0])
    assert np.array_equal(table.row_weights, cells[1])
    assert np.array_equal(table.energies, cells[2].sum(axis=1))
    ref = reference_build_kernel_table(table.H, table.T, table.n, table.c_H)
    for name, got, want in zip(("values", "row_weights", "K^2 cells"), cells, ref):
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


def reference_cell_integrals(H, c_H, t, lo, hi):
    """(int K(t, r) dr, int K(t, r)^2 dr) over [lo, hi] by adaptive
    quadrature: at the diagonal (hi = t) with K's algebraic end behaviour
    (t - r)^(p(H-1/2)) as quad's weight function, at the first cell (lo = 0)
    in z = r^P, P = 1 - p(H-1/2), which absorbs r^(-p(H-1/2)). Reference
    for the cell rules of the table. K comes from the panel rule of
    kn._inner_integral, so the reference does not share the binomial series
    of the diagonal cell rule."""
    alpha = H - 0.5
    out = []
    for p in (1, 2):
        if hi == t:          # K / g^alpha in g = t - r; c_H / alpha at g = 0
            def f(g):
                if g == 0.0:
                    return (c_H / alpha) ** p
                ratio = c_H * (t - g) ** -alpha * kn._inner_integral(H, t, t - g) / g ** alpha
                return float(ratio) ** p
            val, _ = quad(f, 0.0, hi - lo, weight="alg", wvar=(p * alpha, 0.0),
                          epsabs=0.0, epsrel=1e-13, limit=200)
        else:
            P = 1.0 - p * alpha

            def f(z):
                return float(c_H * kn._inner_integral(H, t, z ** (1.0 / P))) ** p / P
            val, _ = quad(f, 0.0, hi ** P, epsabs=0.0, epsrel=1e-13, limit=500)
        out.append(val)
    return out


LEGENDRE_MISS_H = 0.501


def legendre_diag_cell_weights(H, c_H, t_rows, dt, nodes=24):
    """A diagonal cell rule by Gauss-Legendre in
    y = (t_i - r)^(H-1/2), mapped back through y^(1/(H-1/2)), which
    underflows as H -> 1/2 (the K weight is 44 % low at H = 0.501)."""
    x, w = kn._gauss_legendre_01(nodes)
    alpha = H - 0.5
    t_rows = np.asarray(t_rows, dtype=float)
    ymax = dt ** alpha
    y = ymax * x
    r = t_rows[:, None] - (y ** (1.0 / alpha))[None, :]
    K = c_H * np.power(r, 0.5 - H) * kn._inner_integral(H, t_rows[:, None], r)
    out_w = ymax * ((K * (y ** ((1.5 - H) / alpha) / alpha)[None, :]) @ w)
    psimax = dt ** (2.0 * H)
    gap2 = (psimax * x) ** (1.0 / (2.0 * H))
    r2 = t_rows[:, None] - gap2[None, :]
    K2 = c_H * np.power(r2, 0.5 - H) * kn._inner_integral(H, t_rows[:, None], r2)
    out_w2 = (psimax / (2.0 * H)) * (((K2 ** 2) / np.power(gap2, 2.0 * H - 1.0)[None, :]) @ w)
    return out_w, out_w2


HURST_SWEEP = [0.5 + 1e-6, 0.5001, 0.501, 0.55, 0.7, 0.9, 0.99, 1.0 - 1e-6]


class TestCellRules:
    @pytest.mark.parametrize("H", HURST_SWEEP)
    def test_diagonal_cells_against_quad(self, H):
        # at dt = 1/256 a panel-rule diagonal misses by up to 1.3e-14
        c_H = kn.ch_closed_form(H)
        for dt, rows, tol in ((1.0 / 16, [2.0 / 16, 0.5, 1.0], 1e-13),
                              (1.0 / 256, [2.0 / 256, 3.0 / 256, 0.5, 1.0], 1e-14)):
            rows = np.array(rows)
            got = np.column_stack(kn._diag_cell_weights(H, c_H, rows, dt))
            half = np.column_stack(kn._diag_cell_weights(H, c_H, np.array([dt]), dt / 2))
            for (t, lo), (wK, wK2) in zip([(t, t - dt) for t in rows] + [(dt, dt / 2)],
                                          np.vstack([got, half])):
                qK, qK2 = reference_cell_integrals(H, c_H, t, lo, t)
                assert abs(wK / qK - 1.0) < tol and abs(wK2 / qK2 - 1.0) < tol, (dt, t)

    @pytest.mark.parametrize("H", sorted(HURST_SWEEP + [0.995, 0.999]))
    def test_first_cells_against_quad(self, H):
        c_H = kn.ch_closed_form(H)
        dt = 1.0 / 16
        for t, t1 in ((dt, dt / 2), (2 * dt, dt), (1.0, dt)):
            wK, wK2 = kn._first_cell_weights(H, c_H, np.array([t]), t1)
            qK, qK2 = reference_cell_integrals(H, c_H, t, 0.0, t1)
            assert abs(wK[0] / qK - 1.0) < 1e-13, t
            assert abs(wK2[0] / qK2 - 1.0) < 1e-13, t

    @pytest.mark.parametrize("H, n_K2", [(0.55, 24), (0.7, 24), (0.9, 48), (0.99, 48)])
    def test_first_cell_k2_nodes_only_where_needed(self, H, n_K2):
        # the H = 0.7 tables keep the 24-node rule, and with it their bits
        r, wK, wK2 = kn._first_cell_rule(H, 1.0 / 16)
        assert (len(wK), len(wK2), len(r)) == (24, n_K2, 24 + n_K2)

    def test_legendre_diagonal_rule_misses(self):
        # the defect the Gauss-Jacobi rule mends, measured by the same oracle
        c_H = kn.ch_closed_form(LEGENDRE_MISS_H)
        wK, _ = legendre_diag_cell_weights(LEGENDRE_MISS_H, c_H, np.array([0.5]), 1.0 / 16)
        qK, _ = reference_cell_integrals(LEGENDRE_MISS_H, c_H, 0.5, 0.5 - 1.0 / 16, 0.5)
        assert wK[0] / qK - 1.0 < -0.4

    def test_legendre_diagonal_rule_fails_row_sums(self, monkeypatch):
        from expfbm import cli

        monkeypatch.setattr(kn, "_diag_cell_weights", legendre_diag_cell_weights)
        table = kn.build_kernel_table(LEGENDRE_MISS_H, 1.0, 16)
        checks = cli.kernel_checks(cli.ExperimentConfig(hurst_H=LEGENDRE_MISS_H, grid_n=16),
                                   table)
        assert [c["id"] for c in checks if not c["pass"]] == ["row_sum_closed_form"]

    def test_gauss_jacobi_rule(self):
        from scipy.special import roots_jacobi
        for b in (1e-6, 0.4, 1.0):
            x, w = kn._gauss_jacobi_01(24, b)
            xs, ws = roots_jacobi(24, 0.0, b)
            assert np.max(np.abs(x - 0.5 * (xs + 1.0))) < 1e-15
            assert np.max(np.abs(w - ws / 2.0 ** (b + 1.0))) < 1e-14


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

    def test_kernel_checks_share_the_unit_energy(self):
        # at T = 1 calibrate_ch's energy at QUAD_DEPTH is the energy check's
        # at t = T: three evaluations (t = 1 at two depths, t = 1/2), not four
        from expfbm import cli

        cfg = cli.ExperimentConfig(hurst_H=0.7, horizon_T=1.0, grid_n=16)
        table = kn.build_kernel_table(0.7, 1.0, 16)
        kn._sq_energy_unnormalized.cache_clear()
        cli.kernel_checks(cfg, table)
        info = kn._sq_energy_unnormalized.cache_info()
        assert (info.misses, info.hits) == (3, 1)

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

    @pytest.mark.parametrize("H", HURST_SWEEP)
    def test_inner_integral_against_oracle(self, H):
        # s/t on both sides of 1/2, where the [s, 2s] piece is one constant,
        # and exactly at 1/2
        for t in (0.5, 1.0, 2.0):
            s = t * np.array([0.05, 0.3, 0.5, 0.7, 0.95])
            got = kn._inner_integral(H, t, s)
            want = np.array([inner_integral_oracle(H, t, x) for x in s])
            assert np.max(np.abs(got / want - 1.0)) < 1e-13, t

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
        assert kn._cell_integrals(0.7, table256.c_H, 1.0, 256)[2].min() >= 0.0
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


def write_format_2_table(table, path):
    """Write table as table format 2 did: the packed lower triangles of
    values, row_weights and the K^2 cells (sq_weights), and no energies."""
    cells = kn._cell_integrals(table.H, table.c_H, table.T, table.n)
    rows, cols = np.tril_indices(table.n)
    meta = dict(table.meta, H=table.H, T=table.T, c_H=table.c_H, n=table.n,
                format_version=2)
    reports.write_npz(path, meta=meta, **{
        name: a[1:, 1:][rows, cols]
        for name, a in zip(("values", "row_weights", "sq_weights"), cells)})


class TestSerialization:
    def test_roundtrip(self, table64, tmp_path):
        path = tmp_path / "table.npz"
        kn.save_table(table64, path)
        loaded = kn.load_table(path)
        assert np.array_equal(loaded.values, table64.values)
        assert np.array_equal(loaded.row_weights, table64.row_weights)
        assert np.array_equal(loaded.energies, table64.energies)
        assert loaded.c_H == table64.c_H
        assert loaded.H == table64.H and loaded.T == table64.T

    @pytest.mark.parametrize("H", [0.51, 0.9, 0.99])
    @pytest.mark.parametrize("n", [8, 256])
    def test_roundtrip_is_bit_exact(self, tmp_path, H, n):
        # the file holds only the lower triangles of [1:, 1:] and the
        # energies; every other entry loads as +0.0 and the grid is rebuilt
        # as the build makes it
        table = kn.build_kernel_table(H, 1.0, n)
        path = tmp_path / "table.npz"
        kn.save_table(table, path)
        with np.load(path) as data:
            assert data.files == ["meta", "values", "row_weights", "energies"]
        loaded = kn.load_table(path)
        for name in ("grid", "values", "row_weights", "energies"):
            a, b = getattr(table, name), getattr(loaded, name)
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
        outside = ~np.tril(np.ones((n + 1, n + 1), dtype=bool))
        outside[0] = outside[:, 0] = True
        for name in ("values", "row_weights"):
            assert np.all(getattr(loaded, name)[outside] == 0.0)
        assert loaded.meta == table.meta and loaded.c_H == table.c_H

    @pytest.mark.parametrize("damage", ["short_member", "one_entry_member",
                                        "short_energies", "truncated"])
    def test_damaged_file_is_a_miss(self, tmp_path, capsys, damage):
        # a member of the wrong length (one packed entry would broadcast) is
        # a ValueError, which the cache treats like a cut file: it reports the
        # miss, rebuilds the table and rewrites the file
        from expfbm import cli

        cfg = cli.ExperimentConfig(grid_n=16, out_dir=str(tmp_path))
        built = cli._table_for(cfg)
        (path,) = (tmp_path / "cache").glob("table-*.npz")
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        else:
            with np.load(path) as data:
                arrays = dict(data)
            name = "energies" if damage == "short_energies" else "row_weights"
            arrays[name] = (arrays[name][:1] if damage == "one_entry_member"
                            else arrays[name][:-1])
            with open(path, "wb") as fh:
                np.savez(fh, **arrays)
            with pytest.raises(ValueError, match=name):
                kn.load_table(path)
        capsys.readouterr()
        rebuilt = cli._table_for(cfg)
        err = capsys.readouterr().err
        assert "treating it as a miss" in err
        assert ("ValueError" in err) == (damage != "truncated")
        assert np.array_equal(rebuilt.row_weights, built.row_weights)
        assert np.array_equal(kn.load_table(path).row_weights, built.row_weights)

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

    def test_format_2_file_is_a_miss(self, tmp_path, capsys):
        # the cache schema, and so every cache key, is the one that format 2
        # was written under: kernel-verify reports the format-2 table as a
        # miss and rewrites it in format 3, and bounds then reads the sample
        # and nested caches (--no-simulate would refuse to rebuild them)
        from expfbm import cli

        run = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid_n": 16, "outer_paths": 2000, "centering_paths": 1000,
            "nested_paths": 300, "inner_paths": 50, "seed": 5,
            "suites": ["tail", "derivatives"], "out_dir": str(run)}))
        assert cli.main(["--config", str(cfg), "bounds"]) == cli.EXIT_OK
        clean = {p.name: p.read_bytes() for p in run.iterdir() if p.is_file()}
        (path,) = (run / "cache").glob("table-*.npz")
        others = {p: p.read_bytes() for p in (run / "cache").iterdir() if p != path}
        assert sorted(p.name[:4] for p in others) == ["mal-", "sim-"]
        write_format_2_table(kn.load_table(path), path)
        with pytest.raises(ValueError, match="unsupported table format 2"):
            kn.load_table(path)
        capsys.readouterr()
        assert cli.main(["--config", str(cfg), "kernel-verify"]) == cli.EXIT_OK
        err = capsys.readouterr().err
        assert "unsupported table format 2" in err and "treating it as a miss" in err
        with np.load(path) as data:
            assert data.files == ["meta", "values", "row_weights", "energies"]
        assert kn.load_table(path).meta["format_version"] == kn.TABLE_FORMAT_VERSION == 3
        assert cli.main(["--config", str(cfg), "bounds", "--no-simulate"]) == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        assert {p: p.read_bytes() for p in others} == others
        assert {name: (run / name).read_bytes() for name in clean} == clean
