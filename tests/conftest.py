import numpy as np
import pytest

from biharmlab.core import serrin_exponent, sobolev_exponent, validate_params


@pytest.fixture(scope="session")
def params10():
    return validate_params(10, 2.0)


@pytest.fixture(scope="session")
def p_grid():
    """n exponents evenly spaced over the admissible window at N, 2% in from each end."""

    def grid(N: int, n: int) -> np.ndarray:
        lo, hi = serrin_exponent(N), sobolev_exponent(N)
        pad = 0.02 * (hi - lo)
        return np.linspace(lo + pad, hi - pad, n)

    return grid


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
def companion_jac():
    """The full 4 x 4 Jacobian of a `delaunay._Gauged` system at times t, shape (n, 4, 4).

    Formed from the companion entries the system reports: d on the diagonal,
    ones on the superdiagonal, and (a, k1, k2, k3) added to the last row.
    """

    def jac(prob, t, z):
        d, a = prob.jac(t, z)
        J = np.zeros((np.size(t), 4, 4))
        J[:, range(4), range(4)] = d[:, None]
        J[:, [0, 1, 2], [1, 2, 3]] = 1.0
        J[:, 3, 0] += a
        J[:, 3, 1:] += prob.k
        return J

    return jac


@pytest.fixture(scope="session")
def dense_newton_band(companion_jac):
    """Reference MIRK6 Newton band from dense 4 x 4 blocks.

    Every block -I - h sum_r b_r J_r dY_r/dy_q and I - h sum_r b_r J_r dY_r/dy_{q+1}
    is formed in full, with the stage derivatives dY_r/dy as matrix products
    (einsum) of the full Jacobians, and written into `delaunay._newton_band`'s
    band storage; an independent route to the band that `_newton_band` builds
    node-last in companion form.  The scheme is Cash & Singhal's MIRK6:
    c = (0, 1, 1/4, 3/4, 1/2), v = (0, 1, 5/32, 27/32, 1/2), b = (7/90, 7/90,
    16/45, 16/45, 2/15), X_31 = 9/64, X_32 = -3/64, X_41 = 3/64, X_42 = -9/64,
    X_51 = -5/24, X_52 = 5/24, X_53 = 2/3, X_54 = -2/3.
    """
    from biharmlab.delaunay import _KL, _KU

    def mm(A, B):
        return np.einsum("...ij,...jk->...ik", A, B)

    def band(prob, mesh, y, st):
        m, n = mesh.x.size, mesh.h.size
        h = mesh.h[:, None, None]
        J = companion_jac(prob, mesh.x, y)
        J34 = companion_jac(prob, mesh.t34, st.y34)
        J3, J4, J5 = J34[:n], J34[n:], companion_jac(prob, mesh.tm, st.y5)
        eye = np.identity(4)
        ab = np.zeros((4 * m, 2 * _KL + _KU + 1))
        i, j = np.indices((4, 4))
        for sign, Je, (v3, x3), (v4, x4), x5, rows, col0 in (
                (-1.0, J[:-1], (27 / 32, 9 / 64), (5 / 32, 3 / 64), -5 / 24, slice(None, -4), 13),
                (1.0, J[1:], (5 / 32, -3 / 64), (27 / 32, -9 / 64), 5 / 24, slice(4, None), 9)):
            S3 = v3 * eye + h * x3 * Je
            S4 = v4 * eye + h * x4 * Je
            S5 = 0.5 * eye + h * (x5 * Je + 2 / 3 * mm(J3, S3) - 2 / 3 * mm(J4, S4))
            block = sign * eye - h * (7 / 90 * Je + 16 / 45 * (mm(J3, S3) + mm(J4, S4))
                                      + 2 / 15 * mm(J5, S5))
            ab[rows].reshape(m - 1, 4, -1)[:, j, col0 + i - j] = block
        ab[j[:3], 10 + i[:3] - j[:3]] = prob.dya[:3]
        k = np.arange(4)
        ab[k - 4, 13 - k] = prob.dyb[3]
        return ab

    return band
