import numpy as np
import pytest

from expfbm import kernel as kn
from expfbm import paths as pth
from expfbm.functional import ModelParams


@pytest.fixture(scope="session")
def table64():
    return kn.build_kernel_table(0.7, 1.0, 64)


@pytest.fixture(scope="session")
def table128():
    return kn.build_kernel_table(0.7, 1.0, 128)


@pytest.fixture(scope="session")
def table256():
    return kn.build_kernel_table(0.7, 1.0, 256)


@pytest.fixture(scope="session")
def params():
    return ModelParams(a=0.0, sigma=1.0, hurst=kn.HurstParams(0.7, 1.0))


@pytest.fixture(scope="session")
def rng_seeds():
    return np.arange(20)


@pytest.fixture(scope="session")
def martingale_M():
    """M_r = E[F | F_r] for the trapezoid-rule F: paths.conditional_lognormal
    over the whole row at node r. M_T is the functional value, M_0 = E[F]."""
    def M(paths, table, params, r):
        law = pth.conditional_law(paths, table, r)
        return pth.conditional_lognormal(table, params, law.theta_index, law.means) \
            @ pth.trapezoid_weights(table.grid)
    return M
