import dataclasses

import numpy as np
import pytest
from scipy.stats import norm

from expfbm import density as dn
from expfbm import functional as fn
from expfbm import malliavin as ml
from expfbm import paths as pth
from expfbm.functional import CenteringEstimate, ModelParams
from expfbm.kernel import HurstParams
from expfbm.reports import BoundReport


def make_params(a=0.0, sigma=1.0, H=0.7, T=1.0):
    return ModelParams(a=a, sigma=sigma, hurst=HurstParams(H, T))


@pytest.fixture(scope="module")
def centering(table64, params):
    return fn.estimate_mean_lnF(params, table64, 20_000, seed=100)


@pytest.fixture(scope="module")
def batch(table64, params, centering):
    return dn.sample_X_batch(params, table64, 50_000, 101, centering)


class TestSampleBatch:
    def test_centered_mean(self, batch):
        se = batch.X.std(ddof=1) / np.sqrt(batch.n_samples)
        cent_se = batch.centering.se
        assert abs(batch.X.mean()) < 3.0 * np.sqrt(se ** 2 + cent_se ** 2)

    def test_variance_below_cap(self, batch, params):
        cap = params.sigma ** 2 * params.T ** (2 * params.H)
        var = batch.X.var(ddof=1)
        se = var * np.sqrt(2.0 / batch.n_samples)
        assert var <= cap + 3.0 * se

    def test_mean_F_matches_oracle(self, batch, params):
        se = batch.F.std(ddof=1) / np.sqrt(batch.n_samples)
        assert abs(batch.F.mean() - fn.analytic_mean_F(params)) < 3.0 * se + 3e-3

    def test_reproducible(self, table64, params, centering):
        again = dn.sample_X_batch(params, table64, 1_000, 101, centering)
        assert np.array_equal(again.F, dn.sample_X_batch(
            params, table64, 1_000, 101, centering).F)

    def test_lnF_matches_paths_bit_for_bit(self, table256, params, centering):
        # one batch at a time, yet path p's ln F is the one LogFunctional
        # gives on the same paths drawn whole, for any path count
        batch = dn.sample_X_batch(params, table256, 9000, 103, centering)
        for count in (1, 1000, 9000):
            paths = pth.sample_fbm_volterra(table256, count, 103)
            assert np.array_equal(batch.lnF[:count],
                                  fn.LogFunctional(paths, params).lnF)


class TestKde:
    def test_standard_normal_calibration(self):
        gen = np.random.Generator(np.random.Philox(2024))
        x = gen.standard_normal(100_000)
        dens = dn.kde_log_domain(x, seed=1)
        window = (dens.x >= -2.0) & (dens.x <= 2.0)
        err = np.abs(dens.density[window] - norm.pdf(dens.x[window]))
        assert err.max() < 0.01

    def test_unit_mass(self, batch):
        dens = dn.kde_log_domain(batch.X, seed=2)
        assert abs(dens.mass - 1.0) < 0.01

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError):
            dn.kde_log_domain(np.zeros(100) + np.arange(100))

    def test_point_mass_flag(self):
        dens = dn.kde_log_domain(np.zeros(20_000), seed=3)
        assert dens.point_mass

    def test_bootstrap_se_positive_in_bulk(self, batch):
        dens = dn.kde_log_domain(batch.X, seed=4)
        bulk = dens.local_counts > 1_000
        assert np.all(dens.se[bulk] > 0.0)


class TestInducedDensity:
    def test_change_of_variables_identity(self, batch):
        dens = dn.kde_log_domain(batch.X, seed=5)
        densF = dn.induced_density_F(dens, batch.centering)
        # rho_F(x) * x == rho_X(ln x - m) holds exactly on the grid
        assert np.allclose(densF.density * densF.x, dens.density, rtol=1e-14)
        assert np.allclose(np.log(densF.x) - batch.centering.value, dens.x,
                           rtol=0, atol=1e-12)

    def test_mass_preserved(self, batch):
        dens = dn.kde_log_domain(batch.X, seed=6)
        densF = dn.induced_density_F(dens, batch.centering)
        assert abs(densF.mass - 1.0) < 0.02

    def test_point_mass_refused(self):
        dens = dn.kde_log_domain(np.zeros(20_000), seed=7)
        with pytest.raises(ValueError):
            dn.induced_density_F(dens, CenteringEstimate(0.0, 0.0, 0, None))


class TestGaussianTail:
    def test_trivial_at_zero(self, batch, params):
        rep = dn.verify_gaussian_tail(batch.X, params, points=(0.0,))
        assert rep.rhs[0] == 1.0
        assert rep.passed

    def test_bound_values_frozen(self, params):
        rep = dn.verify_gaussian_tail(np.linspace(-3, 3, 20_000), params)
        assert np.allclose(rep.rhs, [np.exp(-2.0), np.exp(-1.125),
                                     np.exp(-0.5), np.exp(-0.125)])

    def test_default_points_pass(self, batch, params):
        rep = dn.verify_gaussian_tail(batch.X, params)
        assert rep.passed

    def test_rejects_positive_points(self, batch, params):
        with pytest.raises(ValueError):
            dn.verify_gaussian_tail(batch.X, params, points=(0.5,))

    def test_non_finite_samples_fail(self, batch, params):
        # nan <= x is False: counted alone, an all-nan X gives P(X <= x) = 0
        rep = dn.verify_gaussian_tail(np.full(1000, np.nan), params)
        assert not rep.passed
        assert rep.meta["non_finite"] == 4
        X = batch.X.copy()
        X[7] = -np.inf
        assert not dn.verify_gaussian_tail(X, params).passed


class TestBoundReport:
    def make(self, lhs, inconclusive=None):
        n = len(lhs)
        return BoundReport(bound_id="b", description="", points=np.arange(n),
                           lhs=np.asarray(lhs), rhs=np.ones(n), se=np.zeros(n),
                           tolerance=np.zeros(n), violations=0, n_samples=n,
                           inconclusive=inconclusive)

    def test_non_finite_is_a_violation(self):
        assert self.make([0.5, 0.5]).passed
        rep = self.make([0.5, np.nan, np.inf])
        assert rep.violations == 2 and not rep.passed
        assert rep.meta["non_finite"] == 2

    def test_inconclusive_point_exempt(self):
        assert self.make([0.5, np.nan], inconclusive=np.array([False, True])).passed


class TestMgf:
    def test_domination(self, batch, params):
        rep = dn.verify_mgf(batch.X, params)
        assert rep.passed
        assert np.all(rep.lhs <= rep.rhs)


class TestEnvelopes:
    def test_pass_rule_on_batch(self, batch, params):
        dens = dn.kde_log_domain(batch.X, seed=8)
        reports = dn.verify_envelopes(dens, params, batch.centering,
                                      sample_mean_F=float(batch.F.mean()),
                                      sample_var_F=float(batch.F.var(ddof=1)))
        ids = {r.bound_id for r in reports}
        assert ids == {"left_envelope", "right_envelope", "right_tail_slope",
                       "gaussian_left_envelope_F"}
        for r in reports:
            assert r.passed, r.bound_id

    def test_non_finite_moments_of_F_fail(self, batch, params):
        # F overflows at large sigma; an inf Var F flattens the envelope to 1
        dens = dn.kde_log_domain(batch.X, seed=8)
        reports = dn.verify_envelopes(dens, params, batch.centering,
                                      sample_mean_F=float(batch.F.mean()),
                                      sample_var_F=np.inf)
        report = {r.bound_id: r for r in reports}["gaussian_left_envelope_F"]
        assert not report.passed
        assert report.to_dict()["meta"]["sample_var_F"] == np.inf

    def test_nan_density_at_resolved_nodes_fails(self, batch, params):
        dens = dn.kde_log_domain(batch.X, seed=8)
        left = np.flatnonzero((dens.x < 0) & (dens.local_counts >= dn.MIN_TAIL_COUNT))
        # one node; then every node, which leaves the thirds rule no verdict
        for nodes in (left[:1], left):
            density = dens.density.copy()
            density[nodes] = np.nan
            reports = dn.verify_envelopes(dataclasses.replace(dens, density=density),
                                          params, batch.centering)
            report = {r.bound_id: r for r in reports}["left_envelope"]
            assert report.violations == len(nodes), len(nodes)

    def test_nan_density_at_resolved_right_tail_node_fails(self, batch, params):
        dens = dn.kde_log_domain(batch.X, seed=8)
        right = np.flatnonzero((dens.x > 0) & (dens.local_counts >= dn.MIN_TAIL_COUNT))
        density = dens.density.copy()
        density[right[len(right) // 2]] = np.nan
        reports = dn.verify_envelopes(dataclasses.replace(dens, density=density),
                                      params, batch.centering)
        assert not {r.bound_id: r for r in reports}["right_tail_slope"].passed

    def test_degenerate_refused(self, params):
        dens = dn.kde_log_domain(np.zeros(20_000), seed=9)
        with pytest.raises(ValueError):
            dn.verify_envelopes(dens, params, CenteringEstimate(0.0, 0.0, 0, None))

    def test_sigma_zero_refused(self, batch):
        dens = dn.kde_log_domain(batch.X, seed=10)
        with pytest.raises(ValueError):
            dn.verify_envelopes(dens, make_params(sigma=0.0),
                                batch.centering)

    @pytest.mark.filterwarnings("error")
    def test_empty_bins_raise_no_warning(self, params):
        # a far outlier leaves a gap of exact zeros in the density: ln rho is
        # -inf there and the slope next to it nan, by design and masked
        X = np.append(np.random.default_rng(3).standard_normal(20_000), 15.0)
        dens = dn.kde_log_domain(X, n_boot=10, seed=12)
        assert np.any(dens.density == 0.0)
        reports = dn.verify_envelopes(dens, params, CenteringEstimate(0.0, 0.0, 0, None))
        slope = next(r for r in reports if r.bound_id == "right_tail_slope")
        assert np.all(np.isfinite(slope.lhs))

    def test_extreme_tails_marked_inconclusive(self, batch, params):
        dens = dn.kde_log_domain(batch.X, seed=11)
        reports = dn.verify_envelopes(dens, params, batch.centering)
        for r in reports:
            if r.inconclusive is not None:
                # the KDE grid extends 3 bandwidths past the sample range, so
                # the outermost points never have enough local support
                assert r.inconclusive.any()


@pytest.fixture(scope="module")
def joint(table64, params, centering):
    paths = pth.sample_fbm_volterra(table64, 10_000, seed=110)
    prof = ml.phi_x_batch(paths, table64, params, 100, seed=11)
    lnF = np.log(fn.functional_F(paths, params))
    return lnF - centering.value, prof.phi


class TestWProfile:
    def test_lower_bound_and_sign(self, joint, params):
        X, phi = joint
        out = dn.estimate_w_X(X, phi, params)
        lower, recon = out["reports"]
        assert lower.passed
        assert recon.passed
        res = out["resolved"]
        pos = res & (out["centers"] > 0.05)
        neg = res & (out["centers"] < -0.05)
        assert np.all(out["w"][pos] > 0.0)
        assert np.all(out["w"][neg] < 0.0)

    def test_near_zero_normalized_limit(self, joint, params):
        X, phi = joint
        out = dn.estimate_w_X(X, phi, params)
        s2 = params.sigma ** 2
        res = out["resolved"] & (out["centers"] > 0.0)
        z = out["centers"][res][0]
        w = out["w"][res][0]
        se = out["se"][res][0]
        assert w * s2 / z >= 1.0 - 3.0 * se * s2 / z

    def test_requires_joint_samples(self, params):
        with pytest.raises(ValueError):
            dn.estimate_w_X(np.zeros(100), np.ones(100), params)
        with pytest.raises(ValueError):
            dn.estimate_w_X(np.zeros(20_000), np.zeros(20_000), params)

    def test_empty_bins_reported(self, joint, params):
        X, phi = joint
        # inject a far-out region so interior quantile bins stay intact but
        # the far bin has fewer than the resolution threshold
        X2 = np.concatenate([X, [10.0]])
        phi2 = np.concatenate([phi, [0.5]])
        out = dn.estimate_w_X(X2, phi2, params)
        assert not out["resolved"][-1]
