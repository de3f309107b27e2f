"""Indicial roots: closed form vs the polynomial residual oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from biharmlab.core import serrin_exponent, sobolev_exponent, validate_params
from biharmlab.indicial import (indicial_polynomial, indicial_roots,
                                indicial_roots_for, sphere_eigenvalue,
                                verify_ordering, weight_window)


def test_sphere_eigenvalue():
    assert sphere_eigenvalue(0, 10) == 0.0
    assert sphere_eigenvalue(1, 10) == 9.0
    assert sphere_eigenvalue(2, 10) == 20.0
    with pytest.raises(ValueError):
        sphere_eigenvalue(-1, 10)


def test_roots_10_2_closed_form(params10):
    d = indicial_roots(params10, 0)
    gpp, gpm, gmp, gmm = d.roots_at_zero
    # frozen from the closed form: (1/2)[-6 + sqrt(68 + 4 sqrt(448))] etc.
    s448 = np.sqrt(448.0)
    assert gpp.real == pytest.approx(0.5 * (-6.0 + np.sqrt(68.0 + 4.0 * s448)), rel=1e-14)
    assert gmp.real == pytest.approx(0.5 * (-6.0 - np.sqrt(68.0 + 4.0 * s448)), rel=1e-14)
    assert gpp == pytest.approx(3.1778645573, abs=1e-9)
    assert gmp == pytest.approx(-9.1778645573, abs=1e-9)
    assert gpm.real == pytest.approx(-3.0, abs=1e-14)
    assert gpm.imag == pytest.approx(0.5 * np.sqrt(4.0 * s448 - 68.0), rel=1e-14)
    assert gpm.imag == pytest.approx(2.0410807158, abs=1e-9)
    assert gmm == gpm.conjugate()


def test_roots_residual_oracle(params10):
    for j in range(0, 25):
        d = indicial_roots(params10, j)
        assert max(d.residuals(10, params10.A_p)) <= 1e-9


def test_residuals_grid():
    for N in (6, 9, 12, 14):
        lo, hi = serrin_exponent(N), sobolev_exponent(N)
        for p in np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 7):
            par = validate_params(N, float(p))
            for j in (0, 1, 2, N, 2 * N):
                d = indicial_roots(par, j)
                assert max(d.residuals(N, par.A_p)) <= 1e-9


def test_roots_at_infinity_sets(params10):
    d0 = indicial_roots(params10, 0)
    vals = sorted(g.real for g in d0.roots_at_infinity)
    assert_allclose(vals, [-8.0, -6.0, 0.0, 2.0], atol=1e-12)
    assert all(abs(g.imag) == 0.0 for g in d0.roots_at_infinity)
    d1 = indicial_roots(params10, 1)
    plus = sorted(d1.root(b, at="infinity").real for b in ("++", "+-"))
    assert_allclose(plus, [1.0, 3.0], atol=1e-12)


def test_conjugate_pair_real_part(params10):
    # when the outer radicand is negative the pair sits on Re = (4-N)/2
    for N in (9, 10, 11, 12):
        lo, hi = serrin_exponent(N), sobolev_exponent(N)
        for p in np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 9):
            par = validate_params(N, float(p))
            d = indicial_roots(par, 0)
            gpm, gmm = d.root("+-"), d.root("--")
            assert gpm.real + gmm.real == pytest.approx(4.0 - N, abs=1e-10)
            if gpm.imag != 0.0:
                assert gpm.real == pytest.approx((4.0 - N) / 2.0, abs=1e-12)
                assert gmm == gpm.conjugate()


def test_complex_exactly_when_radicand_negative(params10):
    N, lam = 10, 0.0
    base = (N - 2.0) ** 2 + 4.0 + 4.0 * lam
    inner = np.sqrt((N - 2.0) ** 2 + 4.0 * lam + params10.A_p)
    assert base - 4.0 * inner < 0.0  # the (10,2) minus branch is complex
    roots = indicial_roots_for(N, lam, params10.A_p)
    assert roots[1].imag > 0.0
    # a potential small enough keeps all branches real
    roots_small = indicial_roots_for(N, lam, 1.0)
    assert all(g.imag == 0.0 for g in roots_small)


def test_ordering_chain(params10):
    rep = verify_ordering(params10, j_max=12)
    assert rep.all_ok, rep.failures()
    d = indicial_roots(params10, 0)
    assert d.root("++").real > 2.0


def test_branch_continuity_to_zero_potential(params10):
    lam = 0.0
    scan = [params10.A_p * 10.0**-k for k in range(8)] + [0.0]
    prev = None
    for A in scan:
        roots = np.sort_complex(np.asarray(indicial_roots_for(10, lam, A)))
        if A == 0.0:
            assert np.max(np.abs(roots - prev)) <= 1e-6
        prev = roots


def test_weight_window(params10):
    ww = weight_window(params10)
    assert ww.nu_lo == pytest.approx(-4.0)
    assert ww.nu_hi == pytest.approx(-3.0)   # complex pair: Re gamma0_-- = (4-N)/2
    assert ww.mu_lo == pytest.approx(-3.0)
    assert ww.nu == pytest.approx(-3.5)
    assert ww.mu == pytest.approx(-2.5)
    assert ww.mu + ww.nu == pytest.approx(4.0 - 10.0, abs=1e-14)
    assert ww.nu_lo < ww.nu_hi <= (4 - 10) / 2 <= ww.mu_lo < ww.mu


def test_weight_window_sum_exact():
    for N in (9, 11, 13):
        lo, hi = serrin_exponent(N), sobolev_exponent(N)
        for p in np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 7):
            ww = weight_window(validate_params(N, float(p)))
            assert ww.mu + ww.nu == pytest.approx(4.0 - N, abs=1e-13)


def test_indicial_polynomial_matches_display(params10):
    # Q_j(gamma) - A at a root is ~0; away from roots it matches the direct product
    g = 1.25 + 0.5j
    lam = sphere_eigenvalue(3, 10)
    f1 = g * (g - 1) + 9 * g - lam
    f2 = (g - 2) * (g - 3) + 9 * (g - 2) - lam
    assert indicial_polynomial(10, lam, g, 7.0) == pytest.approx(f1 * f2 - 7.0, rel=1e-14)
