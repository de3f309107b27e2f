"""Closed-form constants against independent oracles.

The frozen values for (N, p) = (10, 2) were computed two ways: exact
rational evaluation of the printed formulas (sympy) and the floating
implementation; both give k = 192, A_p = 384, (K0, K1, K2, K3) =
(192, -64, -28, 4).
"""

from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from biharmlab.core import (EmdenCoeffs, emden_coeffs, k_of, origin_spectrum, serrin_exponent,
                            sobolev_exponent, special_exponents, validate_params)


def k_exact(N, p) -> Fraction:
    """Independent rational evaluation of the k(p,N) bracket."""
    N, p = Fraction(N), Fraction(p)
    q = p - 1
    return 8 * (p + 1) / q**4 * (N**2 * q**2 + 8 * p * (p + 1) + N * (2 + 4 * p - 6 * p**2))


def k1_second_form(N, p):
    """The alternative printed expansion of K1 (independent transcription)."""
    q = p - 1.0
    return -2.0 / q**3 * (
        (6.0 * N - N * N - 8.0) * p**3
        + (22.0 * N - N * N - 56.0) * p**2
        + (5.0 * N * N - 14.0 * N - 56.0) * p
        - 3.0 * N * N - 8.0 - 14.0 * N
    )


def test_k_value_10_2():
    assert k_of(10, 2.0) == pytest.approx(float(k_exact(10, 2)), rel=1e-14)
    assert k_of(10, 2.0) == pytest.approx(192.0, rel=1e-14)
    assert k_of(8, 3.0) == pytest.approx(float(k_exact(8, 3)), rel=1e-14)
    assert k_of(8, 3.0) == pytest.approx(64.0, rel=1e-14)


def test_k_exact_on_rational_grid():
    for N in range(5, 15):
        for num in range(1, 8):
            p = Fraction(num, 4) + Fraction(3, 2)
            assert k_of(N, float(p)) == pytest.approx(float(k_exact(N, p)), rel=1e-12)


def test_k_vanishes_at_serrin():
    for N in range(5, 15):
        assert abs(k_of(N, serrin_exponent(N))) <= 1e-10


def test_validate_params_values(params10):
    assert params10.k_const == pytest.approx(192.0, rel=1e-12)
    assert params10.A_p == pytest.approx(384.0, rel=1e-12)
    assert params10.alpha_w == pytest.approx(-2.0, abs=1e-14)
    assert params10.c_p == pytest.approx(192.0, rel=1e-12)
    assert -4.0 < params10.alpha_w < 0.0


def test_validate_params_rejects_endpoints():
    with pytest.raises(ValueError, match="Serrin"):
        validate_params(10, 10.0 / 6.0)
    with pytest.raises(ValueError, match="Sobolev"):
        validate_params(8, 3.0)
    with pytest.raises(ValueError, match="N="):
        validate_params(4, 2.0)
    # interior values fine for every N
    for N in range(5, 15):
        validate_params(N, 0.5 * (serrin_exponent(N) + sobolev_exponent(N)))


def test_emden_coeffs_frozen_values(params10):
    K = emden_coeffs(params10)
    assert_allclose(K.as_tuple(), (192.0, -64.0, -28.0, 4.0), rtol=1e-12)


def test_emden_k1_second_form():
    for N in range(5, 15):
        lo, hi = serrin_exponent(N), sobolev_exponent(N)
        for p in np.linspace(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), 9):
            K = emden_coeffs(validate_params(N, float(p)))
            assert K.K1 == pytest.approx(k1_second_form(N, float(p)), rel=1e-9, abs=1e-9)


def test_characteristic_roots_polynomial_oracle(params10):
    K = emden_coeffs(params10)
    roots = np.sort(np.roots([1.0, K.K3, K.K2, K.K1, K.K0]).real)
    assert_allclose(roots, [-6.0, -4.0, 2.0, 4.0], atol=1e-10)
    # general tie to the indicial roots at infinity
    a = 4.0 / (params10.p - 1.0)
    target = np.sort([-(g + a) for g in (0.0, 2.0, 2.0 - params10.N, 4.0 - params10.N)])
    assert_allclose(roots, target, atol=1e-10)


def test_sign_facts_on_grid():
    for N in range(5, 15):
        lo, hi = serrin_exponent(N), sobolev_exponent(N)
        ps = np.linspace(lo, hi, 52)[1:-1]
        ks = np.array([k_of(N, float(p)) for p in ps])
        assert np.all(ks > 0)
        Ks = [emden_coeffs(validate_params(N, float(p))) for p in ps]
        assert all(K.K3 > 0 for K in Ks)
        assert all(K.K1 < 0 for K in Ks)
        # A_p strictly increasing, and the mode-estimate bound holds
        Aps = ps * ks
        assert np.all(np.diff(Aps) > 0)
        assert np.all(ps * (ps + 1.0) / 2.0 * ks <= N**3 * (N + 4.0) / 16.0 + 1e-9)


def test_special_exponents():
    sp = special_exponents(10)
    assert sp.serrin == pytest.approx(5.0 / 3.0, rel=1e-14)
    assert sp.sobolev == pytest.approx(7.0 / 3.0, rel=1e-14)
    assert sp.p0 == pytest.approx(3.0, rel=1e-14)
    # K1 zeros: p2_plus = (-4 + 2 sqrt(68)) / 8, below the Serrin endpoint
    assert sp.p2_plus == pytest.approx((-4.0 + 2.0 * np.sqrt(68.0)) / 8.0, rel=1e-14)
    assert sp.p2_minus < 0 < sp.p2_plus < sp.serrin
    assert sp.k1_zero == pytest.approx(sp.sobolev, rel=1e-14)
    assert special_exponents(6).p0 is None
    assert special_exponents(5).p0 is None
    # the zeros really are critical points / zeros of the respective functions
    N = 10
    h = 1e-6
    for pc in (sp.p0, sp.p1_plus):
        if pc is None or not sp.serrin < pc:
            continue
        dA = (pc + h) * k_of(N, pc + h) - (pc - h) * k_of(N, pc - h)
        assert abs(dA / (2 * h)) < 1e-3 * abs(pc * k_of(N, pc)) + 1e-3


def test_characteristic_method():
    # mu^4 + 4 mu^3 - 28 mu^2 - 64 mu + 192 = (mu - 2)(mu + 6)(mu - 4)(mu + 4)
    K = EmdenCoeffs(K0=192.0, K1=-64.0, K2=-28.0, K3=4.0)
    mu = origin_spectrum(K)
    assert np.all(mu.imag == 0.0)
    assert_allclose(np.sort(mu.real), [-6.0, -4.0, 2.0, 4.0], atol=1e-10)
