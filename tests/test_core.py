"""Closed-form constants against independent oracles.

The frozen values for (N, p) = (10, 2) were computed two ways: exact
rational evaluation of the printed formulas (sympy) and the floating
implementation; both give k = 192, A_p = 384, (K0, K1, K2, K3) =
(192, -64, -28, 4).
"""

import warnings
from fractions import Fraction
from itertools import combinations
from math import prod

import numpy as np
import pytest
import sympy as sp
from numpy.testing import assert_allclose

from biharmlab.core import (EmdenCoeffs, Params, emden_coeffs, k_of, origin_spectrum,
                            serrin_exponent, sobolev_exponent, special_exponents,
                            validate_params)


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


# symbolic N = n + 5 and p = 1 + x: every N >= 5 and p > 1
n, x = sp.Symbol("n", nonnegative=True), sp.Symbol("x", positive=True)
f, t, mu = sp.symbols("f t mu")
N_S, P_S = n + 5, 1 + x
# the window in the coordinates n >= 0, f in (0, 1): p = N/(N-4) + f 4/(N-4)
WINDOW = {x: 4 * (1 + f) / (n + 1)}


def printed_displays():
    """k(p,N) and K0..K3 as printed in the paper, in symbolic N and p."""
    N, p = N_S, P_S
    q, al = p - 1, (N - 4) * p - (N + 4)
    a4 = 4 + al
    k = 8 * (p + 1) / q**4 * (N**2 * q**2 + 8 * p * (p + 1) + N * (2 + 4 * p - 6 * p**2))
    K0 = (a4 / q**4) * (2 * (N - 2) * (N - 4) * q**3 + a4 * (N**2 - 10 * N + 20) * q**2
                        - 2 * a4**2 * (N - 4) * q + a4**3)
    K1 = (-2 / q**3) * ((N - 2) * (N - 4) * q**3 + a4 * (N**2 - 10 * N + 20) * q**2
                        - 3 * (al**2 + 8 * al + 16) * (N - 4) * q
                        + 2 * al * (al**2 + 12 * al + 48) + 128)
    K2 = (1 / q**2) * ((N**2 - 10 * N + 20) * q**2 - 6 * a4 * (N - 4) * q + 6 * al * (al + 8) + 96)
    K3 = (2 / q) * ((N - 4) * q - 2 * a4)
    return k, (K0, K1, K2, K3)


def code_forms():
    """k_of and emden_coeffs run on the symbols, each float literal replaced by its exact value."""
    def exact(expr):
        return expr.xreplace({c: sp.Rational(float(c)) for c in expr.atoms(sp.Float)})

    k = k_of(N_S, P_S)
    K = emden_coeffs(Params(N=N_S, p=P_S, alpha_w=None, k_const=k, c_p=None, A_p=None))
    return exact(k), [exact(c) for c in K.as_tuple()]


def sign_on_window(expr) -> int:
    """+1 or -1 when expr has that sign at every n >= 0, f in (0, 1); 0 when unproved.

    With f = t/(1+t), t > 0, expr is a ratio of polynomials in n and t.  One
    whose coefficients share a sign, and which keeps a term free of n, has
    that sign on n >= 0, t > 0.
    """
    num, den = sp.fraction(sp.cancel(sp.together(expr.subs(WINDOW).subs(f, t / (1 + t)))))
    sign = 1
    for poly in (sp.Poly(num, n, t), sp.Poly(den, n, t)):
        signs = {c > 0 for c in poly.coeffs()}
        if len(signs) != 1 or poly.as_expr().subs(n, 0) == 0:
            return 0
        sign *= 1 if signs.pop() else -1
    return sign


def test_closed_forms_are_the_origin_rates():
    # K0 = k, k = m(m+2)(N-2-m)(N-4-m), and the characteristic polynomial is
    # prod_g (mu + m + g), g in {0, 2, 2-N, 4-N}: for the displays and for the code
    k_printed, K_printed = printed_displays()
    k, K = code_forms()
    m = 4 / (P_S - 1)
    assert sp.cancel(K_printed[0] - k_printed) == 0
    assert sp.cancel(k_printed - m * (m + 2) * (N_S - 2 - m) * (N_S - 4 - m)) == 0
    char = mu**4 + K_printed[3] * mu**3 + K_printed[2] * mu**2 + K_printed[1] * mu + K_printed[0]
    assert sp.cancel(char - prod(mu + m + g for g in (0, 2, 2 - N_S, 4 - N_S))) == 0
    assert sp.cancel(k - k_printed) == 0
    assert all(sp.cancel(c - d) == 0 for c, d in zip(K, K_printed))


def test_window_facts_are_theorems():
    # what verify-all once scanned on a 50-point p-grid, proved for every N >= 5
    k, (_, K1, _, K3) = code_forms()
    N, p = N_S, P_S
    # k > 0, K3 > 0 and K1 < 0 on the window
    assert (sign_on_window(k), sign_on_window(K3), sign_on_window(K1)) == (1, 1, -1)
    # A_p = p k increases with f, and so with p = N/(N-4) + 4f/(N-4)
    assert sign_on_window(sp.diff((p * k).subs(WINDOW), f)) == 1
    # the mode estimate p(p+1)/2 k <= N^3(N+4)/16: increasing, and equal at the Sobolev end
    bound = (p * (p + 1) / 2 * k).subs(WINDOW)
    assert sign_on_window(sp.diff(bound, f)) == 1
    assert sp.cancel(bound.subs(f, 1) - N**3 * (N + 4) / 16) == 0
    # k vanishes at the Serrin end
    assert sp.cancel(k.subs(WINDOW).subs(f, 0)) == 0


def test_emden_coeffs_match_the_exact_product_form():
    # against the elementary symmetric functions of the exact rates at the float's
    # exact p: each computed rate is within eps (|r| + m) of its exact value, and
    # K_j takes at most 4 roundings more, so |K_j - exact| <= 4 eps e_j(|r| + m)
    eps = Fraction(np.finfo(float).eps)
    for N in range(5, 201):
        for frac in (0.02, 0.25, 0.5, 0.75, 0.98):
            params = validate_params(N, serrin_exponent(N) + frac * 4.0 / (N - 4))
            m = 4 / (Fraction(params.p) - 1)
            rates = (N - 4 - m, N - 2 - m, -m, -2 - m)
            mags = [abs(r) + m for r in rates]
            for j, got in zip((4, 3, 2, 1), emden_coeffs(params).as_tuple()):
                exact = (-1) ** j * sum(prod(c) for c in combinations(rates, j))
                bound = 4 * eps * sum(prod(c) for c in combinations(mags, j))
                assert abs(Fraction(got) - exact) <= bound, (N, frac, j)


@pytest.mark.parametrize("scale, ok", [(None, True), (1.0 + 1e-6, False)],
                         ids=["unpatched", "K1-scaled"])
def test_planted_defect_fails_the_char_roots_check(monkeypatch, scale, ok):
    # K1 times (1 + 1e-6) moves the roots at (10, 2) by about 2.7e-6
    from dataclasses import replace

    from biharmlab import verify

    if scale is not None:
        def planted(params):
            K = emden_coeffs(params)
            return replace(K, K1=scale * K.K1)

        monkeypatch.setattr(verify, "emden_coeffs", planted)
    (check,) = verify.suite_constants(10, 2.0)
    assert (check["name"], check["ok"]) == ("constants.char_roots_match_infinity_indicial", ok)


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


@pytest.mark.parametrize("kind", [float, np.float64])
def test_c_p_overflow_is_typed_for_every_float(kind):
    # at N = 200, f = 0.108, c_p = k^(1/(p-1)) leaves floating-point range: a numpy p
    # made k a numpy float, whose power returned inf with an overflow warning
    p = kind(200 / 196 + 0.108 * 4 / 196)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows floating-point range"):
            validate_params(200, p)
        params = validate_params(10, kind(2.0))
    assert type(params.p) is float and type(params.c_p) is float


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
