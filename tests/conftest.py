import numpy as np
import pytest

from biharmlab.core import validate_params


@pytest.fixture(scope="session")
def params10():
    return validate_params(10, 2.0)


@pytest.fixture(scope="session")
def profile10(params10):
    """The default solve, shared by the profile-consuming tests.

    Its mesh is [t_lo, t_hi] ~ [-4.28, 18.63]; the far-field checks out to
    r ~ 1e6 and the mode seeding at the 1e-8 potential plateau evaluate the
    profile's analytic tails beyond it.
    """
    from biharmlab.delaunay import solve_singular

    return solve_singular(params10, beta=1.0, tol=1e-4)


@pytest.fixture(scope="session")
def kernel10():
    from biharmlab.auxball import build_kernel, make_grid

    grid = make_grid(M=160, alpha_w=-2.0)
    return build_kernel(10, grid)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
