"""Conformal Fourier symbol: recurrence oracles and the gamma = 2 identity."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from biharmlab.cli import XI_MAX
from biharmlab.symbol import (GammaPoleError, complex_log_gamma, symbol_indicial_identity,
                              theta_cylinder)


def test_log_gamma_trivials():
    assert complex_log_gamma(1.0 + 0j) == pytest.approx(0.0, abs=1e-15)
    assert complex_log_gamma(0.5 + 0j) == pytest.approx(np.log(np.sqrt(np.pi)), rel=1e-14)


def test_log_gamma_recurrence_oracle():
    # log Gamma(z+1) = log z + log Gamma(z), checked off the real axis
    for z in (3 + 4j, 0.7 + 0.1j, 5.5 - 2j, 12 + 30j):
        lhs = complex_log_gamma(z + 1)
        rhs = np.log(z) + complex_log_gamma(z)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_log_gamma_pole():
    with pytest.raises(GammaPoleError):
        complex_log_gamma(0.0 + 0j)
    with pytest.raises(GammaPoleError):
        complex_log_gamma(-3.0 + 0j)


def test_theta_spot_value_225():
    assert float(theta_cylinder(10, 2.0, 0, 0.0)) == pytest.approx(225.0, rel=1e-12)


def test_theta_recurrence_closed_form():
    # two-step Gamma recurrence gives [(N-4)^2 + 4 xi^2][N^2 + 4 xi^2]/16 at j=0
    N = 10
    for xi in (0.0, 1.0, 2.0, 5.0):
        expect = ((N - 4.0) ** 2 + 4.0 * xi**2) * (N**2 + 4.0 * xi**2) / 16.0
        assert float(theta_cylinder(N, 2.0, 0, xi)) == pytest.approx(expect, rel=1e-12)
        # same thing through the |z(z+1)|^2 form
        z = (N - 4.0) / 4.0 + 0.5j * xi
        assert expect == pytest.approx(16.0 * abs(z * (z + 1.0)) ** 2, rel=1e-14)


def test_theta_even_and_positive():
    xi = np.linspace(0.0, 15.0, 121)
    for N in range(6, 15):
        for g in (1.0, 1.5, 2.0):
            for j in range(0, 11):
                tp = theta_cylinder(N, g, j, xi)
                tm = theta_cylinder(N, g, j, -xi)
                assert np.all(tp > 0.0)
                assert_allclose(tp, tm, rtol=0.0, atol=0.0)


def test_theta_monotone_in_mode():
    xi = np.linspace(0.0, 10.0, 50)
    for N in (6, 10, 14):
        prev = None
        for j in range(0, 11):
            th = theta_cylinder(N, 2.0, j, xi)
            if prev is not None:
                assert np.all(th > prev)
            prev = th


def test_identity_spot_values():
    # both sides 225 at xi=0 and 260 at xi=1 (N=10, j=0)
    assert symbol_indicial_identity(10, 0, 0.0) <= 1e-12
    th0 = theta_cylinder(10, 2.0, 0, np.array([0.0, 1.0]))
    assert th0[0] == pytest.approx(225.0, rel=1e-12)
    assert th0[1] == pytest.approx(260.0, rel=1e-12)
    assert symbol_indicial_identity(10, 1, 0.0) <= 1e-10


def test_gamma2_identity_across_the_window():
    # verify-all checks the identity at the N it is asked about; this is N = 5..14
    xi = np.linspace(0.0, 12.0, 100)
    for N in range(5, 15):
        for j in range(0, 11):
            assert float(np.max(symbol_indicial_identity(N, j, xi))) <= 1e-12, (N, j)


def test_identity_holds_up_to_xi_max():
    # the CLI's --xi-max domain: the residual grows like xi from roundoff, and
    # stays within verify-all's 1e-8 on [0, XI_MAX] across the window
    xi = np.unique(np.r_[np.linspace(0.0, XI_MAX, 1001), np.geomspace(1e-3, XI_MAX, 1001)])
    worst = max(float(np.max(symbol_indicial_identity(N, j, xi)))
                for N in range(5, 15) for j in range(0, 11))
    assert worst <= 1e-8


def test_query_validation():
    # gamma in (0, N/2) and j >= 0
    for gamma in (0.0, 5.0, 6.0, 7.3):
        with pytest.raises(ValueError, match=r"outside \(0, N/2\) for N=10"):
            theta_cylinder(10, gamma, 0, np.zeros(3))
    with pytest.raises(ValueError, match="mode j=-1"):
        theta_cylinder(10, 2.0, -1, np.zeros(3))


def test_overflow_resistance():
    # |Gamma|^2 ratios overflow naive evaluation well before xi = 200
    val = theta_cylinder(10, 2.0, 0, np.array([200.0]))
    assert np.isfinite(val[0]) and val[0] > 0
    expect = ((10 - 4.0) ** 2 + 4.0 * 200.0**2) * (100.0 + 4.0 * 200.0**2) / 16.0
    assert val[0] == pytest.approx(expect, rel=1e-10)


def test_log_gamma_matches_mpmath():
    """Oracle: 30-digit mpmath.loggamma at every argument the symbol suite evaluates."""
    mpmath = pytest.importorskip("mpmath")
    from biharmlab.indicial import sphere_eigenvalue

    xi = np.linspace(-12.0, 12.0, 199)
    zs = []
    for N in range(5, 15):
        for j in range(11):
            half_s = 0.5 * np.sqrt((N / 2.0 - 1.0) ** 2 + sphere_eigenvalue(j, N))
            for g in (1.0, 1.5, 2.0):
                zs += [0.5 + 0.5 * g + half_s + 0.5j * xi, 0.5 - 0.5 * g + half_s + 0.5j * xi]
    zs = np.unique(np.concatenate(zs))
    with mpmath.workdps(30):
        ref = np.array([complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag))) for z in zs])
    ours = complex_log_gamma(zs)
    # extended precision keeps Re log Gamma near a rounding of the result (8.9e-16)
    assert np.max(np.abs(ours.real - ref.real)) <= 2e-15
    assert np.max(np.abs(ours.imag - ref.imag)) <= 1e-14
    # off the suite's arguments: left of the poles, near them, and far up the line
    for z in (-0.5 + 0j, -2.5 + 0j, -3.0 + 1e-3j, 0.25 - 40j, 1e-3 + 0j, 30.0 + 0j):
        with mpmath.workdps(30):
            expect = complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))
        assert abs(complex_log_gamma(z).real - expect.real) <= 1e-13 * (1.0 + abs(expect.real))


def test_log_gamma_pole_error_names_the_pole():
    with pytest.raises(GammaPoleError, match=r"z=\(-2\+0j\)"):
        complex_log_gamma(np.array([1.0 + 0j, -2.0 + 0j, 0.5 + 3j]))
    with pytest.raises(GammaPoleError):
        complex_log_gamma(-0.0 + 0j)
    assert np.isfinite(complex_log_gamma(-2.0 + 1e-12j).real)
