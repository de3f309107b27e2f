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


@pytest.fixture(scope="session")
def chain_rule_derivs():
    """Reference u, u', ..., u''''' at radii r, formed in r-space.

    u = r^{-a} ubar(-log r) is differentiated by the chain rule through u''',
    and u'''' and u''''' come from the radial equation Delta^2 u = u^p and its
    derivative; an independent route to what `RadialProfile.scaled_derivs`
    gives in Emden-Fowler time.
    """

    def derivs(profile, r):
        N, p, a = profile.params.N, profile.params.p, profile.params.singular_rate
        ub, ub1, ub2, ub3 = profile.ubar_state(-np.log(r))
        rma = r**-a
        u = rma * ub
        du = -(rma / r) * (a * ub + ub1)
        q = a * (a + 1.0) * ub + (2.0 * a + 1.0) * ub1 + ub2
        d2u = (rma / r**2) * q
        dq = a * (a + 1.0) * ub1 + (2.0 * a + 1.0) * ub2 + ub3
        d3u = -(rma / r**3) * ((a + 2.0) * q + dq)
        d4u = (np.abs(u) ** (p - 1.0) * u - 2.0 * (N - 1.0) * d3u / r
               - (N - 1.0) * (N - 3.0) * (d2u / r**2 - du / r**3))
        d5u = (p * np.abs(u) ** (p - 1.0) * du - 2.0 * (N - 1.0) * (d4u / r - d3u / r**2)
               - (N - 1.0) * (N - 3.0) * (d3u / r**2 - 3.0 * d2u / r**3 + 3.0 * du / r**4))
        return [u, du, d2u, d3u, d4u, d5u]

    return derivs


@pytest.fixture(scope="session")
def dense_newton_band():
    """Reference collocation Newton band from dense 4 x 4 blocks.

    Every block -I - h/6 (J_L + 2 J_m) - h^2/12 J_m J_L and
    I - h/6 (J_R + 2 J_m) + h^2/12 J_m J_R is formed in full, zeros included,
    with broadcast arithmetic and an einsum product, and written into
    `delaunay._newton_band`'s band storage; an independent route to the band
    that `_newton_band` builds from the Jacobian's nonzeros.
    """
    from biharmlab.delaunay import _KL, _KU

    def band(fun_jac, dya, dyb, x, h, y, y_mid):
        m = x.size
        J = np.moveaxis(fun_jac(x, y), 2, 0)
        Jm = np.moveaxis(fun_jac(x[:-1] + 0.5 * h, y_mid), 2, 0)
        h = h[:, None, None]
        eye = np.identity(4)
        ab = np.zeros((4 * m, 2 * _KL + _KU + 1))
        i, j = np.indices((4, 4))
        ab[:-4].reshape(m - 1, 4, -1)[:, j, 13 + i - j] = (
            -eye - h / 6 * (J[:-1] + 2 * Jm) - h**2 / 12 * np.einsum("...ij,...jk->...ik", Jm, J[:-1]))
        ab[4:].reshape(m - 1, 4, -1)[:, j, 9 + i - j] = (
            eye - h / 6 * (J[1:] + 2 * Jm) + h**2 / 12 * np.einsum("...ij,...jk->...ik", Jm, J[1:]))
        ab[j[:3], 10 + i[:3] - j[:3]] = dya[:3]
        k = np.arange(4)
        ab[k - 4, 13 - k] = dyb[3]
        return ab

    return band
