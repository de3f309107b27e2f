"""Mode decomposition, kernel elements, certificates, Hardy chain."""

import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from biharmlab.core import validate_params
from biharmlab.cutoff import annulus_bump
from biharmlab.indicial import BRANCHES, indicial_roots, weight_window
from biharmlab.linearized import (hardy_chain_check, injectivity_scan, make_mode,
                                  mode_coefficients, mode_solve, quadratic_certificates,
                                  translation_kernel_residual)

# Emden-Fowler times past both ends of the session profile's mesh (~[-4.28, 18.63])
T_LO, T_HI = -18.0, 24.63


def test_mode_coefficients_frozen():
    assert mode_coefficients(10, 0) == (18.0, 63.0, 63.0, 0.0)
    assert mode_coefficients(10, 1) == (18.0, 45.0, 189.0, 189.0)


def test_mode_coefficients_reproduce_indicial_polynomial():
    """Exact rational identity between the a-display and Q_j on sample gammas."""
    for N in (5, 8, 10, 13):
        for j in (0, 1, 2, 5, 9):
            lam = Fraction(j * (j + N - 2))
            a1, a2, a3, a4 = (Fraction(a) for a in mode_coefficients(N, j))
            for g in (Fraction(-3), Fraction(1, 2), Fraction(2), Fraction(7, 3), Fraction(-11, 4)):
                falling = (
                    g * (g - 1) * (g - 2) * (g - 3)
                    + a1 * g * (g - 1) * (g - 2)
                    + a2 * g * (g - 1)
                    - a3 * g
                    + a4
                )
                f1 = g * (g - 1) + (N - 1) * g - lam
                f2 = (g - 2) * (g - 3) + (N - 1) * (g - 2) - lam
                assert falling == f1 * f2


def test_translation_mode_in_kernel(profile10):
    t = np.linspace(T_HI - 0.5, T_LO + 0.5, 800)  # r = e^{-t}
    resid = translation_kernel_residual(profile10, t)
    assert float(np.max(resid)) <= 1e-6


@pytest.mark.parametrize("scale, ok", [(None, True), (1.0 + 1e-6, False)],
                         ids=["unpatched", "a1-scaled"])
def test_planted_defect_fails_the_translation_kernel_check(profile10, monkeypatch, scale, ok):
    # a1 of the j = 1 operator times (1 + 1e-6) leaves a residual of about 1e-6
    from biharmlab import linearized
    from biharmlab.verify import suite_modes

    if scale is not None:
        coefficients = linearized.mode_coefficients

        def planted(N, j):
            a1, *rest = coefficients(N, j)
            return (scale * a1 if j == 1 else a1, *rest)

        monkeypatch.setattr(linearized, "mode_coefficients", planted)
    checks = {c["name"]: c["ok"] for c in suite_modes(10, 2.0, profile10)}
    assert checks["modes.translation_kernel"] == ok


@pytest.mark.parametrize("drop_weight, ok", [(False, True), (True, False)],
                         ids=["unpatched", "hardy-weight-dropped"])
def test_planted_defect_fails_the_hardy_chain_check(profile10, monkeypatch, drop_weight, ok):
    # int r^{N-5} (r w)^2 = int r^{N-3} w^2: the first inequality loses Hardy's 1/r^2
    from biharmlab import linearized
    from biharmlab.verify import suite_modes

    if drop_weight:
        check = linearized.hardy_chain_check
        monkeypatch.setattr(linearized, "hardy_chain_check",
                            lambda N, r, w, dw, d2w: check(N, r, r * w, dw, d2w))
    checks = {c["name"]: c["ok"] for c in suite_modes(10, 2.0, profile10)}
    assert checks["modes.hardy_chain"] == ok


def test_mode_solve_zero_potential_monomial(params10, profile10):
    mode = make_mode(params10, profile10, 0)
    for g in (2.0, 0.0):
        ms = mode_solve(mode, g, potential="zero", tau_far=-T_LO - 0.2)
        dev = np.abs(ms.wn / np.exp(g * (ms.tau - ms.tau[0])) - 1.0)
        assert float(np.max(dev)) <= 1e-8


def test_mode_solve_growing_branch(params10, profile10):
    mode = make_mode(params10, profile10, 0)
    d = indicial_roots(params10, 0)
    ms = mode_solve(mode, d.roots_at_zero[BRANCHES.index("++")], tau_far=-T_LO - 0.2)
    assert ms.far_exponent >= 2.0 - 0.05
    assert ms.blowup_tau is None


def test_certificates(params10):
    C, Cbar = quadratic_certificates(params10, 11)
    lam = 11.0 * (11 + 8)
    assert C == pytest.approx(10**3 * 14 / 16 - 2 * 6 * lam - lam**2)
    assert C == pytest.approx(-45314.0)
    assert Cbar < 1.0
    C0, _ = quadratic_certificates(params10, 0)
    assert C0 == pytest.approx(10**3 * 14 / 16)


def test_hardy_chain_bump(rng):
    for _ in range(20):
        lo = float(rng.uniform(0.4, 1.2))
        hi = lo + float(rng.uniform(0.6, 2.5))
        r = np.linspace(0.9 * lo, 1.1 * hi, 4001)
        rep = hardy_chain_check(10, r, annulus_bump(r, lo, hi, 0),
                                annulus_bump(r, lo, hi, 1), annulus_bump(r, lo, hi, 2))
        assert rep.first_ok and rep.second_ok
        assert rep.first_slack > 0.0 and rep.second_slack > 0.0


def test_hardy_zero():
    r = np.linspace(0.5, 2.0, 101)
    z = np.zeros_like(r)
    rep = hardy_chain_check(10, r, z, z, z)
    assert rep.I_w == rep.I_dw == rep.I_d2w == 0.0
    assert rep.first_ok and rep.second_ok


def test_hardy_extremal_exponent_near_equality():
    """w = r^{(4-N)/2} * wide cutoff makes the first inequality tight.

    The Hardy constant 4/(N-4)^2 is attained in the limit by the critical
    exponent; widening the plateau drives the ratio toward 1.
    """
    from biharmlab.cutoff import smoothstep4

    N = 10
    expo = (4.0 - N) / 2.0
    ratios = []
    for decades in (2.0, 4.0, 8.0):
        # cutoff in the log variable: one-decade transitions, growing plateau
        tau_hi = decades * np.log(10.0)
        tau = np.linspace(-0.2, tau_hi + 0.2, 200001)
        r = np.exp(tau)
        wlog = np.log(10.0)
        chi = smoothstep4(tau / wlog) * smoothstep4((tau_hi - tau) / wlog)
        dchi_tau = (smoothstep4(tau / wlog, 1) / wlog * smoothstep4((tau_hi - tau) / wlog)
                    - smoothstep4(tau / wlog) * smoothstep4((tau_hi - tau) / wlog, 1) / wlog)
        d2chi_tau = (smoothstep4(tau / wlog, 2) / wlog**2 * smoothstep4((tau_hi - tau) / wlog)
                     - 2.0 * smoothstep4(tau / wlog, 1) * smoothstep4((tau_hi - tau) / wlog, 1) / wlog**2
                     + smoothstep4(tau / wlog) * smoothstep4((tau_hi - tau) / wlog, 2) / wlog**2)
        w = r**expo * chi
        dw = r ** (expo - 1.0) * (expo * chi + dchi_tau)
        d2w = r ** (expo - 2.0) * (expo * (expo - 1.0) * chi
                                   + (2.0 * expo - 1.0) * dchi_tau + d2chi_tau)
        rep = hardy_chain_check(N, r, w, dw, d2w)
        assert rep.first_ok
        ratios.append(rep.I_w / (4.0 / (N - 4.0) ** 2 * rep.I_dw))
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[-1] > 0.8


def test_injectivity_scan(params10, profile10):
    # the default mesh ends before V_p is within 1e-8 of A_p: the seeds sit on its tail
    entries = injectivity_scan(params10, profile10, [0, 1, 2, 11])
    by_j = {e.j: e for e in entries}
    assert by_j[0].status == "PASS" and by_j[0].route == "integration"
    assert by_j[1].status == "NOT-CERTIFIED" and by_j[1].route == "analytic"
    assert by_j[2].status == "PASS" and by_j[2].route == "certificate"
    assert by_j[11].status == "PASS" and by_j[11].route == "certificate"
    # only the integration route integrates; its exponent is mode_solve's, bit for bit
    assert by_j[1].branch_exponents == by_j[2].branch_exponents == by_j[11].branch_exponents == {}
    mode0 = make_mode(params10, profile10, 0)
    mu = weight_window(params10).mu
    direct = {f"{g.real:+.4f}{g.imag:+.4f}i": mode_solve(mode0, g).far_exponent
              for g in indicial_roots(params10, 0).roots_at_zero if g.real > mu}
    assert by_j[0].branch_exponents == direct
    assert len(direct) == 1 and all(math.isfinite(v) and v > 0 for v in direct.values())
    # certificate and integration agree where both apply: the integrated
    # branches still grow when continued to r = e^{-T_LO - 0.2}
    for j in (0, 11):
        mode = make_mode(params10, profile10, j)
        for g in indicial_roots(params10, j).roots_at_zero:
            if g.real > weight_window(params10).mu:
                ms = mode_solve(mode, g, tau_far=-T_LO - 0.2)
                assert ms.far_exponent > 0


def test_mode_solve_rejects_non_root(params10, profile10):
    mode = make_mode(params10, profile10, 0)
    with pytest.raises(ValueError):
        mode_solve(mode, 1.234)


def test_injectivity_scan_integrates_only_the_integration_route(params10, profile10, monkeypatch):
    from biharmlab import linearized

    calls = []

    def counting(mode, gamma_seed, **kw):
        calls.append((mode.j, gamma_seed))
        return mode_solve(mode, gamma_seed, **kw)

    monkeypatch.setattr(linearized, "mode_solve", counting)
    entries = injectivity_scan(params10, profile10, range(5))
    assert [e.route for e in entries] == ["integration", "analytic"] + 3 * ["certificate"]
    assert [j for j, _ in calls] == [0]


def test_mode_solve_seed_on_long_right_tail():
    """At (10, 1.68) the seed sits at tau0 ~ -268, where e^{gamma tau0} underflows.

    Both branches admissible at zero for j = 3 still give a finite exponent
    near the growing root j + 2 at infinity.
    """
    from biharmlab.core import validate_params
    from biharmlab.delaunay import solve_singular

    params = validate_params(10, 1.68)
    prof = solve_singular(params)
    mode = make_mode(params, prof, 3)
    branches = [g for g in indicial_roots(params, 3).roots_at_zero
                if g.real > weight_window(params).mu]
    assert len(branches) == 2
    for g in branches:
        ms = mode_solve(mode, g)
        assert ms.tau[0] * g.real < -745.0  # past exp's underflow
        assert math.isfinite(ms.far_exponent)
        assert abs(ms.far_exponent - 5.0) <= 0.1


def test_certificate_holds_for_every_mode_from_two():
    """Exact arithmetic: Cbar(N, 2) < 1 in closed form, and Cbar falls strictly in lambda_j.

    Cbar(N, lambda) is a quadratic in lambda; both its linear and its quadratic
    coefficient are negative, so Cbar(N, j) <= Cbar(N, 2) < 1 for every j >= 2.
    """
    def cbar(N, lam):
        C = Fraction(N**3 * (N + 4), 16) - 2 * (N - 4) * lam - lam * lam
        return (4 * C / (N - 4) ** 2 - (N - 1 + 2 * lam)) * Fraction(4, (N - 2) ** 2)

    for N in range(5, 401):
        assert 1 - cbar(N, 2 * N) == Fraction(4 * N * N * (N + 4), (N - 2) ** 2 * (N - 4) ** 2)
        c0, c1, c2 = cbar(N, 0), cbar(N, 1), cbar(N, 2)
        quad = (c2 - 2 * c1 + c0) / 2
        assert quad < 0 and c1 - c0 - quad < 0
    # the float certificates the scan reads agree with the exact ones
    for N in range(5, 41):
        params = validate_params(N, (N + 2) / (N - 4))
        assert quadratic_certificates(params, 2)[1] == pytest.approx(float(cbar(N, 2 * N)),
                                                                     rel=1e-12)


# six window points from N = 5 to 14; at the first four the tail rate at c_p is complex
ORACLE_POINTS = [(10, 2.0), (5, 6.5), (7, 3.33), (9, 2.4), (12, 1.625), (14, 1.5)]


def _dop853_propagate(events):
    """An oracle with _rk4_propagate's signature: scipy's DOP853 at rtol 1e-10.

    The potential is interpolated linearly on a 400001-point table (at 40001
    points the interpolation moves the j = 0 exponent by 2.3e-8 at N = 10,
    f = 0.9); the solve stops where max|y| reaches OVERFLOW, and each stop is
    appended to events.
    """
    from scipy.integrate import solve_ivp

    from biharmlab import linearized

    def propagate(B, potential_at, y0, tau0, tau_end):
        tab = np.linspace(min(tau0, tau_end) - 0.1, max(tau0, tau_end) + 0.1, 400001)
        xs, vs = tab.tolist(), potential_at(tab).tolist()
        b = B[3].tolist()
        ncol = y0.shape[1]

        def rhs(tau, y):
            i = min(max(bisect_right(xs, tau), 1), len(xs) - 1) - 1
            v = vs[i] + (vs[i + 1] - vs[i]) * (tau - xs[i]) / (xs[i + 1] - xs[i])
            y = y.tolist()
            out = []
            for c in range(ncol):
                w = y[4 * c:4 * c + 4]
                out += [w[1], w[2], w[3], (b[0] + v) * w[0] + b[1] * w[1] + b[2] * w[2] + b[3] * w[3]]
            return out

        def overflow(tau, y):
            return np.max(np.abs(y)) - linearized.OVERFLOW

        overflow.terminal = True
        sol = solve_ivp(rhs, (tau0, tau_end), y0.T.ravel(), method="DOP853", rtol=1e-10,
                        atol=1e-14, dense_output=True, events=[overflow])
        events.extend(sol.t_events[0].tolist())
        tau = np.linspace(tau0, sol.t[-1], linearized.N_OUT)
        return tau, sol.sol(tau).reshape(ncol, 4, -1).transpose(2, 1, 0), None

    return propagate


@pytest.mark.parametrize("N, p", ORACLE_POINTS)
def test_mode_solve_matches_dop853(N, p, monkeypatch):
    from biharmlab import linearized
    from biharmlab.delaunay import solve_singular

    params = validate_params(N, p)
    prof = solve_singular(params)
    mode = make_mode(params, prof, 0)
    branches = [g for g in indicial_roots(params, 0).roots_at_zero
                if g.real > weight_window(params).mu]
    rk4 = [mode_solve(mode, g) for g in branches]
    events = []
    monkeypatch.setattr(linearized, "_rk4_propagate", _dop853_propagate(events))
    ref = [mode_solve(mode, g) for g in branches]
    for a, b in zip(rk4, ref):
        assert abs(a.far_exponent - b.far_exponent) <= 1e-8
        assert a.blowup_tau is None
    assert events == []
    # j = 0 runs in complex mode wherever the tail rate at c_p is complex
    assert np.iscomplexobj(rk4[0].wn) == ((N, p) in {(10, 2.0), (5, 6.5), (7, 3.33), (9, 2.4)})
