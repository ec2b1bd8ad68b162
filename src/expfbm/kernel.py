"""Volterra kernel of fractional Brownian motion with Hurst index H > 1/2.

The kernel is

    K(t, s) = c_H * s^(1/2-H) * int_s^t (u-s)^(H-3/2) * u^(H-1/2) du,  0 < s <= t,

with c_H normalized so that int_0^1 K(1,s)^2 ds = 1, i.e. Var(B^H_1) = 1.

The inner integrand has an endpoint singularity at u = s. Substituting
w = (u-s)^(H-1/2) removes it exactly:

    int_s^t (u-s)^(H-3/2) u^(H-1/2) du
        = 1/(H-1/2) * int_0^W (s + w^(1/(H-1/2)))^(H-1/2) dw,

with W = (t-s)^(H-1/2) and a smooth integrand, which composite Gauss-Legendre
panels (geometrically refined toward both panel ends) integrate to ~1e-12.
Outer integrals in s use power substitutions that absorb the s^(1/2-H)
prefactor; the bounded remainder keeps fractional powers at both ends, and
the same graded rule, refined to panels of width 2^-QUAD_DEPTH, integrates
it with one vectorised call over all its nodes (graded_quad).

The discrete table does not run the panel rule at every (row, node) pair.
At a node r of cell j it takes I(t_{j+1}, r) from the panel rule once, then
adds, row by row, the integral over each further cell m >= j+2 by a fixed
12-point Gauss-Legendre rule. The singularity u = r lies at least one cell
width outside cell m, so that rule converges like rho^-24 with
rho >= 3 + sqrt(8) (error below 1e-18). On the uniform grid, u - r depends
only on the offset m - j, so every power is tabulated once.

The diagonal cell integral of K^p (p = 1, 2) is one Gauss-Jacobi rule for
the weight g^(p(H-1/2)), g = t_i - r, since K / g^(H-1/2) is analytic on the
cell; there it is a closed-form binomial series in g / t_i <= 1/2, with no
panel rule (_diag_cell_weights). The first cell has its own substitutions.

The table takes c_H from its closed form; calibrate_ch, the graded-rule
quadrature of the unit-energy condition, cross-checks it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.polynomial.polynomial import polyval

from . import reports

TABLE_FORMAT_VERSION = 3


class CalibrationError(RuntimeError):
    """Normalization quadrature failed to converge; carries the achieved residual."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class HurstParams:
    """Hurst index H in (1/2, 1) and horizon T > 0."""

    H: float
    T: float

    def __post_init__(self):
        if not 0.5 < self.H < 1.0:
            raise ValueError(f"H must lie strictly in (1/2, 1), got {self.H}")
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")


# ---------------------------------------------------------------------------
# composite Gauss-Legendre rule on [0, 1], refined toward both endpoints
# ---------------------------------------------------------------------------

def _composite_unit_rule(nodes_per_panel=12, depth=14):
    left = [0.5 ** k for k in range(depth, 0, -1)]
    right = [1.0 - 0.5 ** k for k in range(2, depth + 1)]
    breaks = np.array([0.0] + left + right + [1.0])
    x, w = leggauss(nodes_per_panel)
    a, b = breaks[:-1], breaks[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


_UX, _UW = _composite_unit_rule()

# Depth of the graded rule in the continuous quadratures (the kernel
# identities here and the analytic moments of F): its end panels have width
# 2^-QUAD_DEPTH, so the fractional-power endpoint behaviour of the integrands
# leaves ~1e-15 relative. calibrate_ch cross-checks it at CHECK_DEPTH.
QUAD_DEPTH = 40
CHECK_DEPTH = 24


def graded_rule(upper, depth):
    """Nodes and weights of the graded rule at `depth` on [0, upper]."""
    x, w = _composite_unit_rule(depth=depth)
    return upper * x, upper * w


def graded_quad(f, upper, depth):
    """int_0^upper f(x) dx by the graded rule at `depth`, with one call of
    the vectorised f on all nodes. Returns (value, error estimate): the
    estimate is the change from the rule at depth - 1, which shares every
    panel but the end panels, where the endpoint singularities leave the error.
    """
    x, w = graded_rule(upper, depth)
    xc, wc = graded_rule(upper, depth - 1)
    nodes, where = np.unique(np.concatenate([x, xc]), return_inverse=True)
    fx = f(nodes)[where]
    value = fx[:len(x)] @ w
    return float(value), float(abs(value - fx[len(x):] @ wc))


def _gauss_legendre_01(n):
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


# Gauss-Legendre nodes per interior cell of build_kernel_table
CELL_NODES = 8

# Gauss-Legendre nodes per cell for the increments of the inner integral in
# build_kernel_table's running sum over rows
INCREMENT_NODES = 12
_IY, _IW = _gauss_legendre_01(INCREMENT_NODES)

# Gauss-Legendre nodes of _first_cell_rule by the largest power of y in a
# first-cell integrand: (largest power, nodes). Against adaptive quadrature,
# 24 nodes reach 2e-14 up to power 16 (at power 17, H = 0.9, they miss by
# 2.7e-14); 48 reach 7e-15 at power 98 (H = 0.99); 128 reach 2e-15 at power
# 198 (H = 0.995) and 5e-15 at power 998 (H = 0.999), where 48 miss by
# 2.7e-12 and 5.4e-7.
FIRST_CELL_NODES = ((16, 24), (100, 48), (math.inf, 128))


# ---------------------------------------------------------------------------
# pointwise kernel evaluation
# ---------------------------------------------------------------------------

@functools.lru_cache
def _unit_constant(alpha, q):
    """int_0^1 (1 + w^(1/q))^alpha dw by the panel rule: the [s, 2s] piece
    wherever 2s <= t (xi_max = 1 exactly), one value per H."""
    return float(np.power(1.0 + np.power(_UX, 1.0 / q), alpha) @ _UW)


def _unit_panels(xi_max, alpha, q):
    """int_0^1 (1 + (W v)^(1/q))^alpha dv with W = xi_max^q, by the panel rule
    at each xi_max, which runs only where xi_max < 1 (_unit_constant elsewhere)."""
    out = np.full(xi_max.shape, _unit_constant(alpha, q))
    part = xi_max != 1.0
    if part.any():
        W = np.power(xi_max[part], q)
        out[part] = np.power(1.0 + np.power(W[:, None] * _UX, 1.0 / q), alpha) @ _UW
    return out


def _inner_integral(H, t, s):
    """int_s^t (u-s)^(H-3/2) u^(H-1/2) du, vectorized over broadcastable t, s.

    Split at u = 2s so both pieces stay resolvable by fixed panels for every
    s/t ratio:

      [s, 2s]   u = s(1+xi), then w = xi^(H-1/2): unit-form integrand
                s^(2H-1)/(H-1/2) * int (1+w^(1/(H-1/2)))^(H-1/2) dw.
      [2s, t]   w = (u-s)^(H-1/2) directly; the integrand transition sits at
                the lower limit w = s^(H-1/2), where the panels are refined.

    Wherever 2s <= t the first piece's panel integral is one constant per H.

    Exact 0 when s == t. Result has the broadcast shape of (t, s).
    """
    t, s = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
    alpha = H - 0.5
    cut = np.minimum(2.0 * s, t)

    # inner piece on [s, cut]
    xi_max = np.maximum(cut / np.maximum(s, 1e-300) - 1.0, 0.0)
    W1 = np.power(xi_max, alpha)
    J1 = np.power(s, 2.0 * H - 1.0) * (W1 / alpha) * _unit_panels(xi_max, alpha, alpha)

    # outer piece on [cut, t], empty (and skipped) where t <= 2s
    out = np.asarray(J1)
    far = cut < t
    if far.any():
        s, cut, t = s[far], cut[far], t[far]
        wlo = np.power(np.maximum(cut - s, 0.0), alpha)
        whi = np.power(np.maximum(t - s, 0.0), alpha)
        span = np.maximum(whi - wlo, 0.0)
        w2 = wlo[..., None] + span[..., None] * _UX
        f2 = np.power(s[..., None] + np.power(w2, 1.0 / alpha), alpha)
        out[far] += (span / alpha) * (f2 @ _UW)
    return out if out.ndim else float(out)


def kernel_eval(H, c_H, t, s):
    """K(t, s) for 0 < s <= t. Vectorized; raises on domain violations."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0):
        raise ValueError("kernel requires s > 0 (s^(1/2-H) prefactor diverges at 0)")
    if np.any(s > t):
        raise ValueError("kernel requires s <= t")
    out = c_H * np.power(s, 0.5 - H) * _inner_integral(H, t, s)
    if out.ndim == 0:
        return float(out)
    return out


def covariance(H, t, s):
    """fBm covariance R_H(t,s) = (t^2H + s^2H - |t-s|^2H)/2 for t, s >= 0."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(t < 0) or np.any(s < 0):
        raise ValueError("covariance requires non-negative times")
    h2 = 2.0 * H
    out = 0.5 * (np.power(t, h2) + np.power(s, h2) - np.power(np.abs(t - s), h2))
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# normalization constant
# ---------------------------------------------------------------------------

def ch_closed_form(H):
    """Classical closed form c_H = sqrt(H(2H-1) / B(2-2H, H-1/2)), with the
    Beta function from math.lgamma."""
    log_beta = math.lgamma(2.0 - 2.0 * H) + math.lgamma(H - 0.5) - math.lgamma(1.5 - H)
    return math.sqrt(H * (2.0 * H - 1.0)) * math.exp(-0.5 * log_beta)


@functools.lru_cache
def _sq_energy_unnormalized(H, t, depth):
    """int_0^t [s^(1/2-H) I(t,s)]^2 ds via the substitution z = s^(2-2H).

    The substitution absorbs the s^(1-2H) prefactor of the squared kernel, so
    the remaining integrand is bounded, with fractional powers at z = 0 and
    z = t^(2-2H) that the graded rule at `depth` resolves (I vanishes for
    s >= t). Returns (value, error estimate of graded_quad).
    """
    p = 2.0 - 2.0 * H
    val, err = graded_quad(lambda z: _inner_integral(H, t, z ** (1.0 / p)) ** 2,
                           t ** p, depth)
    return val / p, err / p


def calibrate_ch(H):
    """c_H such that int_0^1 K(1,s)^2 ds = 1, to ~1e-15 relative.

    Cross-validated internally by a first pass of the graded rule at
    CHECK_DEPTH against the result at QUAD_DEPTH; raises CalibrationError
    with the achieved residual if the two passes disagree beyond 1e-10.
    """
    if not 0.5 < H < 1.0:
        raise ValueError(f"H must lie strictly in (1/2, 1), got {H}")
    J, _ = _sq_energy_unnormalized(H, 1.0, CHECK_DEPTH)
    J2, _ = _sq_energy_unnormalized(H, 1.0, QUAD_DEPTH)
    residual = abs(J / J2 - 1.0)
    if not np.isfinite(J) or J <= 0 or residual > 1e-10:
        raise CalibrationError(
            f"normalization quadrature did not converge for H={H}", residual
        )
    return 1.0 / np.sqrt(J2)


def kernel_sq_integral(H, c_H, t):
    """Continuous quadrature of int_0^t K(t,s)^2 ds (identity value: t^2H)."""
    J, _ = _sq_energy_unnormalized(H, t, QUAD_DEPTH)
    return c_H ** 2 * J


# ---------------------------------------------------------------------------
# time integrals of the kernel in its first argument
# ---------------------------------------------------------------------------

def _time_integral_reduced(H, theta, T):
    """int_theta^T (u-theta)^(H-3/2) u^(H-1/2) (T-u) du (Fubini-reduced form).

    int_theta^T K(s,theta) ds collapses to a single u-integral because the
    s-integration of the indicator {u <= s} contributes the factor (T - u).
    Split at u = 2 theta as in _inner_integral, so both pieces stay
    resolvable by fixed panels as H -> 1/2:

      [theta, 2 theta]  u = theta (1 + xi), T - u = (T - theta) - theta xi:
                        theta^(2H-1) [(T - theta) int xi^(H-3/2) (1+xi)^(H-1/2)
                        - theta int xi^(H-1/2) (1+xi)^(H-1/2)] dxi, the first
                        in the unit form of _inner_integral (w = xi^(H-1/2)),
                        the second in v = xi^(H+1/2), where its integrand
                        (1 + v^(1/(H+1/2)))^(H-1/2) is nearly flat.
      [2 theta, T]      w = (u - theta)^(H-1/2) directly.
    """
    theta = np.asarray(theta, dtype=float)
    alpha = H - 0.5
    cut = np.minimum(2.0 * theta, T)

    # inner piece on [theta, cut]
    xi_max = np.maximum(cut / np.maximum(theta, 1e-300) - 1.0, 0.0)
    W1 = np.power(xi_max, alpha)
    V1 = np.power(xi_max, 1.0 + alpha)
    out = np.power(theta, 2.0 * H - 1.0) * (
        (T - theta) * (W1 / alpha) * _unit_panels(xi_max, alpha, alpha)
        - theta * (V1 / (1.0 + alpha)) * _unit_panels(xi_max, alpha, 1.0 + alpha))

    # outer piece on [cut, T], empty where T <= 2 theta
    wlo = np.power(np.maximum(cut - theta, 0.0), alpha)
    span = np.maximum(np.power(np.maximum(T - theta, 0.0), alpha) - wlo, 0.0)
    ub = theta[..., None] + np.power(wlo[..., None] + span[..., None] * _UX, 1.0 / alpha)
    f2 = np.power(ub, alpha) * (T - ub)
    return out + (span / alpha) * (f2 @ _UW)


def kernel_time_integral_continuous(H, c_H, theta, T):
    """int_theta^T K(s, theta) ds for 0 < theta <= T, vectorized in theta."""
    theta_arr = np.asarray(theta, dtype=float)
    if np.any(theta_arr <= 0) or np.any(theta_arr > T):
        raise ValueError("theta must lie in (0, T]")
    out = c_H * np.power(theta_arr, 0.5 - H) * _time_integral_reduced(H, theta_arr, T)
    if out.ndim == 0:
        return float(out)
    return out


def time_integral_square_aggregate(H, c_H, T):
    """int_0^T (int_theta^T K(s,theta) ds)^2 dtheta (identity: T^(2H+2)/(2H+2)).

    Same z = theta^(2-2H) substitution and graded rule as the energy
    integral; the squared theta^(1/2-H) prefactor is absorbed exactly.
    """
    p = 2.0 - 2.0 * H
    val, _ = graded_quad(lambda z: _time_integral_reduced(H, z ** (1.0 / p), T) ** 2,
                         T ** p, QUAD_DEPTH)
    return c_H ** 2 * val / p


# ---------------------------------------------------------------------------
# discretized kernel table
# ---------------------------------------------------------------------------

@dataclass
class KernelTable:
    """Discretized kernel on a uniform grid 0 = t_0 < ... < t_n = T.

    values[i, j]      K(t_i, t_j) for 1 <= j <= i (0 elsewhere; the s = 0
                      column is identically 0 by convention, the kernel
                      diverges there and is never sampled pointwise).
    row_weights[i, j] int_{t_{j-1}}^{t_j} K(t_i, r) dr for 1 <= j <= i.
    energies[i]       int_0^{t_i} K(t_i, r)^2 dr (~ t_i^2H): the row sums of
                      the cell integrals of K^2 (_cell_integrals), which the
                      table does not keep.

    Derived arrays: volterra_matrix (row_weights / dt) maps the driving
    Gaussians to fBm values; map_variances = sum_j row_weights^2 / dt
    (variance actually produced by the discrete map, slightly below t_i^2H),
    and conditional_variances(k) the part of it that the future at t_k draws.

    Column layout: column c of volterra_matrix carries one N(0, dt) Gaussian,
    known from node column_nodes[c] on (cell j's increment: node j + 1). The
    columns are ordered by that node, so the past at node k is the prefix
    volterra_matrix[:, :past(k)] and the future the rest. Rows are nodes.
    """

    H: float
    T: float
    c_H: float
    grid: np.ndarray
    values: np.ndarray
    row_weights: np.ndarray
    energies: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n(self):
        return len(self.grid) - 1

    @property
    def dt(self):
        return self.T / self.n

    @functools.cached_property
    def volterra_matrix(self):
        return self.row_weights[:, 1:] / self.dt

    @functools.cached_property
    def column_nodes(self):
        """Node from which each column's Gaussian is known (>= 1, sorted)."""
        return np.arange(1, self.n + 1)

    @property
    def width(self):
        """Gaussians per path: the columns of volterra_matrix."""
        return len(self.column_nodes)

    def past(self, k):
        """Columns known at node k (k a node or an array of nodes)."""
        return np.searchsorted(self.column_nodes, k, side="right")

    @functools.cached_property
    def entering(self):
        """entering[k], k = 0..n: the columns that join the past at node k."""
        past = self.past(np.arange(self.n + 1)).tolist()
        return [range(c0, c1) for c0, c1 in zip([0] + past, past)]

    @property
    def map_variances(self):
        """Variance of the discrete Volterra map at each node."""
        return (self.row_weights ** 2).sum(axis=1) / self.dt

    @functools.cached_property
    def _future_variances(self):
        fv = np.zeros((self.width + 1, self.n + 1))
        fv[:-1] = np.cumsum((self.volterra_matrix.T ** 2 * self.dt)[::-1], axis=0)[::-1]
        fv.setflags(write=False)
        return fv

    def conditional_variances(self, k):
        """v_i(k) = Var(B^H_{t_i} | F_{t_k}) = sum_{c >= past(k)} V[i, c]^2 dt,
        drawn by the future columns: 0 for i <= k, map_variances at k = 0.
        Row past(k) of one cached reverse cumulative sum (read-only)."""
        return self._future_variances[self.past(k)]

    def index_of(self, t):
        """Grid index of time t; raises if t is not a grid node."""
        idx = int(round(t / self.dt))
        if not (0 <= idx <= self.n) or abs(self.grid[idx] - t) > 1e-9 * max(self.T, 1.0):
            raise ValueError(f"t={t} is not a node of the grid (interpolation unsupported)")
        return idx


def _first_cell_rule(H, t1):
    """Nodes r in (0, t1] and weights (wK, wK2) such that, for every t >= t1,

        int_0^t1 K(t,r) dr   = c_H   * I(t, r[:len(wK)]) @ wK,
        int_0^t1 K(t,r)^2 dr = c_H^2 * I(t, r[len(wK):])^2 @ wK2,

    with I the inner integral. z = r^P, P = 3/2-H and P = 2-2H, absorbs the
    r^(1/2-H) prefactor (resp. its square); z = z_max y^m, m = ceil(6 P),
    turns the inner integral's r^(2H-1) terms, which cost Gauss-Legendre in z
    1e-5 near H = 1/2, into y^(m-1 + m(2H-1)/P), smooth for 24 nodes in y.
    The K^2 integrand I^2 has powers up to y^(m-1 + 2m(2H-1)/P), about
    2/(1-H) for H near 1, and its half takes the nodes that FIRST_CELL_NODES
    gives that power: 24 below H = 0.895, 48 up to H = 0.99, 128 above, which
    keeps it within 1e-13 of quad up to H = 0.999. At H = 0.9999 (power
    9998) 128 nodes still miss by 7e-7.
    """
    r, weights = [], []
    for p, power in ((1, 1.5 - H), (2, 2.0 - 2.0 * H)):
        m = math.ceil(6.0 * power)
        degree = m - 1 + p * m * (2.0 * H - 1.0) / power
        x, w = _gauss_legendre_01(next(k for top, k in FIRST_CELL_NODES if degree <= top))
        zmax = t1 ** power
        r.append((zmax * x ** m) ** (1.0 / power))
        weights.append((zmax / power) * m * x ** (m - 1) * w)
    return np.concatenate(r), weights[0], weights[1]


def _first_cell_sums(c_H, inner, wK, wK2):
    """First-cell integrals of K and K^2 from inner[i] = I(t_i, r), r the
    nodes of _first_cell_rule."""
    m = len(wK)
    return c_H * (inner[:, :m] @ wK), c_H ** 2 * ((inner[:, m:] ** 2) @ wK2)


def _first_cell_weights(H, c_H, t_rows, t1):
    """(int_0^t1 K(t_i,r) dr, int_0^t1 K(t_i,r)^2 dr) for each row time t_i."""
    r, wK, wK2 = _first_cell_rule(H, t1)
    return _first_cell_sums(c_H, _inner_integral(H, t_rows[:, None], r[None, :]), wK, wK2)


def _gauss_jacobi_01(n, b):
    """n-point Gauss rule for the weight u^b on [0, 1], b > 0, from the Jacobi
    matrix of the shifted Jacobi polynomials P^(0, b) (Golub & Welsch 1969)."""
    k = np.arange(n, dtype=float)
    s = 2.0 * k + b
    diag = 0.5 + 0.5 * b * b / (s * (s + 2.0))
    k, s = k[1:], s[1:]
    off = k * (k + b) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, vectors[0] ** 2 / (b + 1.0)


# Terms of the binomial series in _diag_cell_weights: |a_k| < 1 for k >= 1,
# so at eps <= 1/2 the remainder is below 2^(1 - DIAG_SERIES_TERMS).
DIAG_SERIES_TERMS = 64


def _diag_cell_weights(H, c_H, t_rows, dt, nodes=24):
    """Cell integrals of K and K^2 over [t_i - dt, t_i], dt <= t_i / 2.

    With alpha = H - 1/2, g = t_i - r and eps = g / t_i <= 1/2, expanding
    u^alpha about u = t_i in I(t_i, r) and integrating term by term into Beta
    functions gives

        K / g^alpha = c_H (1 - eps)^(-alpha) sum_k a_k eps^k,
        a_0 = 1/alpha,  a_k = a_{k-1} (k - 1 - alpha) / (k + alpha),

    analytic on the cell (its nearest singularity, r = 0, lies at eps = 1), so
    int K^p dr = int_0^dt g^(p alpha) (K / g^alpha)^p dg is one Gauss-Jacobi
    rule, and DIAG_SERIES_TERMS Horner steps sum the series. No node passes
    through the power 1/alpha, which underflows as H -> 1/2.
    """
    alpha = H - 0.5
    a = np.empty(DIAG_SERIES_TERMS)
    a[0] = 1.0 / alpha
    for k in range(1, DIAG_SERIES_TERMS):
        a[k] = a[k - 1] * (k - 1.0 - alpha) / (k + alpha)
    t_rows = np.asarray(t_rows, dtype=float)[:, None]
    out = []
    for p in (1, 2):
        u, w = _gauss_jacobi_01(nodes, p * alpha)
        eps = dt * u / t_rows
        ratio = c_H * np.power(1.0 - eps, -alpha) * polyval(eps, a)
        out.append(dt ** (p * alpha + 1.0) * (ratio ** p @ w))
    return tuple(out)


def _offset_powers(H, dt, d, x):
    """D[d, q, k] = ((d + y_k - x_q) dt)^(H-3/2), y the increment rule's nodes.

    u - r for u = t_{m-1} + y_k dt in cell m and r = t_{j-1} + x_q dt in
    cell j, with d = m - j: on the uniform grid it depends on the offset only.
    """
    return np.power((d[:, None, None] + _IY - x[:, None]) * dt, H - 1.5)


def _uniform_grid(T, n):
    """The nodes t_i = i T / n, i = 0..n, of a table (load_table rebuilds
    them rather than storing them)."""
    return np.linspace(0.0, T, n + 1)


def _cell_integrals(H, c_H, T, n):
    """(values, row_w, row_w2) on the uniform grid with n cells: values and
    row_w as in KernelTable, and row_w2[i, j] = int_{t_{j-1}}^{t_j} K(t_i, r)^2
    dr for 1 <= j <= i, whose row sums build_kernel_table keeps.

    Interior cell integrals use plain Gauss-Legendre with CELL_NODES points
    (the integrand is smooth strictly inside (0, t_i)); the first cell and the
    diagonal cell get their own rules (_first_cell_rule, _diag_cell_weights).

    The inner integral I(t_i, r) at a node r of cell j is a running sum over
    the rows: I(t_{j+1}, r) from the panel rule of _inner_integral, then one
    increment per cell m = j+2..i, int_{t_{m-1}}^{t_m} (u-r)^(H-3/2) u^(H-1/2)
    du, by INCREMENT_NODES-point Gauss-Legendre. The singularity u = r lies at
    least one cell width outside cell m, so the rule's error decays like
    rho^(-2 INCREMENT_NODES) with rho >= 3 + sqrt(8): below 1e-18 relative.
    The increments are positive, so every column of `values` is monotone.
    """
    grid = _uniform_grid(T, n)
    dt = T / n

    values = np.zeros((n + 1, n + 1))
    row_w = np.zeros((n + 1, n + 1))
    row_w2 = np.zeros((n + 1, n + 1))

    # U[m-1, k] = u_k^(H-1/2) w_k dt at the increment nodes u_k of cell m
    U = np.power(grid[:-1, None] + dt * _IY, H - 0.5) * (dt * _IW)

    # first cell, rows i >= 2: its nodes are the same for every row
    r1, wK, wK2 = _first_cell_rule(H, grid[1])
    inc = np.einsum("dqk,dk->dq", _offset_powers(H, dt, np.arange(2, n), r1 / dt), U[2:])
    inner = np.cumsum(np.vstack([_inner_integral(H, grid[2], r1)[None], inc]), axis=0)
    row_w[2:, 1], row_w2[2:, 1] = _first_cell_sums(c_H, inner, wK, wK2)

    # diagonal-cell weights, vectorized across rows
    rows2 = np.arange(2, n + 1)
    row_w[rows2, rows2], row_w2[rows2, rows2] = _diag_cell_weights(H, c_H, grid[2:], dt)

    # row i = 1: the single cell touches both s=0 and s=t_1; split at t_1/2,
    # handling the left half with the first-cell substitution and the right
    # half with the diagonal substitution (each valid on its own half).
    fw_half, fw2_half = _first_cell_weights(H, c_H, grid[1:2], 0.5 * grid[1])
    dw_half, dw2_half = _diag_cell_weights(H, c_H, grid[1:2], 0.5 * grid[1])
    row_w[1, 1] = fw_half[0] + dw_half[0]
    row_w2[1, 1] = fw2_half[0] + dw2_half[0]

    # cells j = 1..n-1 at the cell-rule nodes and at r = t_j (for values):
    # S[j-1] = I(t_i, r) at row i, starting from I(t_{j+1}, r)
    gx, gw = _gauss_legendre_01(CELL_NODES)
    x = np.append(gx, 1.0)
    r = grid[:-2, None] + dt * x
    r[:, -1] = grid[1:-1]
    prefactor = c_H * np.power(r, 0.5 - H)
    S = _inner_integral(H, grid[2:, None], r)
    # increments of cell m for the cells j = 1..m-2 (offsets m-1 down to 2)
    D = _offset_powers(H, dt, np.arange(n - 1, 1, -1), x).reshape(-1, INCREMENT_NODES)
    for i in range(2, n + 1):
        S[: i - 2] += (D[(n - i) * len(x):] @ U[i - 1]).reshape(i - 2, len(x))
        K = prefactor[: i - 1] * S[: i - 1]
        values[i, 1:i] = K[:, -1]
        Kc = K[1:, :-1]                           # cells strictly inside (0, t_i)
        row_w[i, 2:i] = dt * (Kc @ gw)
        row_w2[i, 2:i] = dt * ((Kc * Kc) @ gw)
    return values, row_w, row_w2


def build_kernel_table(H, T, n):
    """Build the KernelTable on the uniform grid with n cells.

    c_H comes from its closed form (ch_closed_form); calibrate_ch, the
    quadrature of the unit-energy condition, cross-checks it in kernel-verify.
    The cells come from _cell_integrals; of the K^2 cells the table keeps
    only their row sums, the energies.
    """
    if n < 8:
        raise ValueError("grid size n must be >= 8")
    params = HurstParams(H, T)
    c_H = ch_closed_form(H)
    grid = _uniform_grid(T, n)
    values, row_w, row_w2 = _cell_integrals(H, c_H, T, n)

    marg = np.power(grid, 2.0 * H)
    energies = row_w2.sum(axis=1)
    map_var = (row_w ** 2).sum(axis=1) / (T / n)
    meta = {
        "format_version": TABLE_FORMAT_VERSION,
        "n": n,
        "cell_nodes": CELL_NODES,
        "energy_max_abs_err": float(np.max(np.abs(energies - marg))),
        "map_variance_max_abs_err": float(np.max(np.abs(map_var - marg))),
    }
    return KernelTable(H=params.H, T=params.T, c_H=float(c_H), grid=grid,
                       values=values, row_weights=row_w, energies=energies,
                       meta=meta)


def kernel_time_integral(table: KernelTable, theta):
    """int_theta^T K(s, theta) ds for a grid node theta (0 at theta = T)."""
    idx = table.index_of(theta)
    if idx == table.n:
        return 0.0
    if idx == 0:
        raise ValueError("time integral diverges at theta = 0 (kernel prefactor)")
    return kernel_time_integral_continuous(table.H, table.c_H, table.grid[idx], table.T)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

# the arrays a table file holds as the lower triangle of [1:, 1:]
_PACKED = ("values", "row_weights")


def save_table(table: KernelTable, path):
    """Write table to path as a plain .npz (reports.write_npz), stored
    without deflate.

    Of values and row_weights it holds only the entries that can be nonzero,
    the lower triangle (diagonal included) of [1:, 1:], in the order of
    np.tril_indices(n); then the n + 1 energies whole. The grid,
    _uniform_grid(T, n), is not stored, nor the K^2 cells whose row sums the
    energies are. A JSON `meta` member holds table.meta with H, T, c_H, n and
    the format version. Deflate would shrink the members by only 8 % and
    take about 20 times as long as this write (1.3-2.0 ms at n = 256,
    530 KB).
    """
    meta = dict(table.meta)
    meta.update({"H": table.H, "T": table.T, "c_H": table.c_H, "n": table.n,
                 "format_version": TABLE_FORMAT_VERSION})
    rows, cols = np.tril_indices(table.n)
    reports.write_npz(path, meta=meta,
                      **{name: getattr(table, name)[1:, 1:][rows, cols] for name in _PACKED},
                      energies=table.energies)


def load_table(path) -> KernelTable:
    """Read a table that save_table wrote, equal to the saved one bit for bit:
    each packed triangle goes back into zeros of shape (n + 1, n + 1), and the
    energies are read as stored.

    Raises ValueError for another format version (a format-2 file, which
    held the K^2 cells in place of the energies, included) or a member of the
    wrong length, and what reports.read_npz raises for a damaged file.
    """
    data = reports.read_npz(path)
    meta = data["meta"]
    if meta.get("format_version") != TABLE_FORMAT_VERSION:
        raise ValueError(f"unsupported table format {meta.get('format_version')}")
    n = meta["n"]
    rows, cols = np.tril_indices(n)
    shapes = {**dict.fromkeys(_PACKED, rows.shape), "energies": (n + 1,)}
    for name, shape in shapes.items():
        if data[name].shape != shape:
            raise ValueError(f"table member {name} has shape {data[name].shape}, "
                             f"expected {shape} for n = {n}")
    arrays = {"energies": data["energies"]}
    for name in _PACKED:
        full = np.zeros((n + 1, n + 1))
        full[1:, 1:][rows, cols] = data[name]
        arrays[name] = full
    return KernelTable(
        H=meta["H"], T=meta["T"], c_H=meta["c_H"], grid=_uniform_grid(meta["T"], n),
        meta={k: v for k, v in meta.items() if k not in ("H", "T", "c_H")},
        **arrays,
    )
