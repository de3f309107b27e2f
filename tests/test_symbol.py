"""Conformal Fourier symbol: recurrence oracles and the gamma = 2 identity."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from biharmlab.symbol import (GammaPoleError, SymbolQuery, complex_log_gamma,
                              symbol_indicial_identity, theta, theta_cylinder,
                              theta_hyperbolic)


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
    q = SymbolQuery(N=10, gamma=2.0, j=0, xi=0.0)
    assert theta(q) == pytest.approx(225.0, rel=1e-12)


def test_theta_recurrence_closed_form():
    # two-step Gamma recurrence gives [(N-4)^2 + 4 xi^2][N^2 + 4 xi^2]/16 at j=0
    N = 10
    for xi in (0.0, 1.0, 2.0, 5.0):
        expect = ((N - 4.0) ** 2 + 4.0 * xi**2) * (N**2 + 4.0 * xi**2) / 16.0
        assert theta(SymbolQuery(N=N, gamma=2.0, j=0, xi=xi)) == pytest.approx(expect, rel=1e-12)
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


def test_cylinder_hyperbolic_bit_identical():
    xi = np.linspace(0.0, 20.0, 301)
    a = theta_cylinder(11, 1.5, 4, xi)
    b = theta_hyperbolic(11, 1.5, 4, xi)
    assert np.array_equal(a, b)


def test_identity_spot_values():
    # both sides 225 at xi=0 and 260 at xi=1 (N=10, j=0)
    assert symbol_indicial_identity(10, 0, 0.0) <= 1e-12
    th0 = theta_cylinder(10, 2.0, 0, np.array([0.0, 1.0]))
    assert th0[0] == pytest.approx(225.0, rel=1e-12)
    assert th0[1] == pytest.approx(260.0, rel=1e-12)
    assert symbol_indicial_identity(10, 1, 0.0) <= 1e-10


def test_query_validation():
    with pytest.raises(ValueError):
        SymbolQuery(N=10, gamma=5.0, j=0, xi=0.0)
    with pytest.raises(ValueError):
        SymbolQuery(N=10, gamma=2.0, j=-1, xi=0.0)


def test_overflow_resistance():
    # |Gamma|^2 ratios overflow naive evaluation well before xi = 200
    val = theta_cylinder(10, 2.0, 0, np.array([200.0]))
    assert np.isfinite(val[0]) and val[0] > 0
    expect = ((10 - 4.0) ** 2 + 4.0 * 200.0**2) * (100.0 + 4.0 * 200.0**2) / 16.0
    assert val[0] == pytest.approx(expect, rel=1e-10)
