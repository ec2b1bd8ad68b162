"""Simulation and bound-verification toolkit for exponential functionals of
fractional Brownian motion with Hurst index H > 1/2."""

__version__ = "0.1.0"

from .kernel import (
    CalibrationError,
    HurstParams,
    KernelTable,
    build_kernel_table,
    calibrate_ch,
    ch_closed_form,
    covariance,
    kernel_eval,
    kernel_sq_integral,
    kernel_time_integral,
    load_table,
    save_table,
    time_integral_square_aggregate,
)
from .functional import (
    CenteringEstimate,
    LogFunctional,
    ModelParams,
    analytic_mean_F,
    analytic_second_moment_F,
    estimate_mean_lnF,
    functional_F,
)
from .paths import (
    ConditionalLaw,
    FbmPaths,
    conditional_law,
    fbm_from_bm,
    sample_bm_increments,
    sample_fbm_cholesky,
    sample_fbm_volterra,
)
from .malliavin import (
    MalliavinProfile,
    clark_ocone_residual,
    d2x,
    dphi_bound_check,
    dx,
    dx_increment,
    phi_x_batch,
)
from .density import (
    DensityEstimate,
    SampleBatch,
    estimate_w_X,
    induced_density_F,
    kde_log_domain,
    sample_X_batch,
    verify_envelopes,
    verify_gaussian_tail,
    verify_mgf,
)
from .reports import BoundReport
