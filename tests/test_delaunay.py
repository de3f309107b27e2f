"""Singular-profile construction: endpoint asymptotics, residuals, identities.

The session profile (beta = 1, the default mesh [~-4.28, ~18.63]) is shared;
tests that need a different frame build cheap shifted copies.  Checks over
the whole orbit run on [T_LO, T_HI], past both mesh ends, so they cover the
analytic tails with the tolerances the mesh meets.
"""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg.lapack
from numpy.testing import assert_allclose
from scipy.integrate import solve_bvp
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.optimize import brentq

import biharmlab
from biharmlab import delaunay
from biharmlab.cli import main
from biharmlab.core import validate_params
from biharmlab.delaunay import (ShootingError, dissipation_check, energy, hamiltonian,
                                kelvin_transform, monotonicity_report, scale_to_beta,
                                shoot_once, solve_singular)
from biharmlab.radial import dlap_radial, lap_radial

T_LO, T_HI = -18.0, 24.63


def _u(profile, r):
    """u(r) = r^{-a} ubar(-log r)."""
    return r ** -profile.params.singular_rate * profile.ubar(-np.log(r))


def test_endpoint_convergence(params10, profile10):
    prof = profile10
    assert abs(prof.ubar(prof.t_hi) - params10.c_p) <= 1e-4 * params10.c_p
    # the left tail is on the unstable manifold, below the contract size
    y0 = prof.ubar_state(prof.t_lo)
    assert np.linalg.norm(y0) <= 1e-4 * params10.c_p


def test_far_field_coefficient(params10, profile10):
    # r^{N-4} u(r) -> beta at large radius, on the far-field tail
    t0 = T_LO
    beta_fit = float(profile10.ubar(t0)) * math.exp(-params10.slow_rate * t0)
    assert abs(beta_fit - 1.0) <= 1e-4


@pytest.mark.parametrize("N,p", [(12, 1.625), (14, 1.5)])
def test_far_field_coefficient_past_mesh(N, p):
    # r^{N-4} u(r) -> beta far out on the tail; the nonlinear term the linear
    # left boundary condition leaves out is largest relative to tol here
    params = validate_params(N, p)
    prof = solve_singular(params, beta=1.0, tol=1e-4)
    t = prof.t_lo - 20.0
    assert abs(float(prof.ubar(t)) * math.exp(-params.slow_rate * t) - 1.0) <= 1e-4
    assert prof.far_field_beta == pytest.approx(1.0, rel=1e-4)


def test_ode_residual(profile10):
    tt = np.linspace(T_LO + 0.05, T_HI - 0.05, 6001)
    assert float(np.max(profile10.scaled_residual(tt))) <= 1e-7


def test_positivity_and_sup_bound(params10, profile10):
    tt = np.linspace(T_LO, T_HI, 6001)
    ub = profile10.ubar(tt)
    assert np.all(ub > 0.0)
    bound = (params10.p + 1.0) / 2.0 * params10.k_const
    assert float(np.max(ub ** (params10.p - 1.0))) <= bound * (1.0 + 1e-6)


def test_slow_rate_matches_characteristic_root(params10):
    # eigenvalue of the linearization at ubar = 0, cross-checked against the
    # characteristic polynomial root set
    K = profile_coeffs = None
    from biharmlab.core import emden_coeffs

    K = emden_coeffs(params10)
    mu = np.roots([1.0, K.K3, K.K2, K.K1, K.K0]).real
    assert params10.slow_rate == pytest.approx(2.0)
    assert np.min(np.abs(mu - params10.slow_rate)) <= 1e-9
    assert np.min(np.abs(mu - params10.fast_rate)) <= 1e-9


def test_shot_classification(params10):
    from biharmlab.core import emden_coeffs

    K = emden_coeffs(params10)
    h = 1e-6 * params10.c_p
    out_hi, _ = shoot_once(params10, K, h, 0.5 * h)
    out_lo, _ = shoot_once(params10, K, h, -0.5 * h)
    assert {out_hi.classification, out_lo.classification} == {"overshoot", "undershoot"}
    b_max = 2.0 * ((params10.p + 1.0) * params10.k_const / 2.0) ** (1.0 / (params10.p - 1.0))
    over = out_hi if out_hi.classification == "overshoot" else out_lo
    under = out_lo if over is out_hi else out_hi
    assert over.state_end[0] == pytest.approx(b_max, rel=1e-8)
    assert under.state_end[0] == pytest.approx(0.0, abs=1e-6 * params10.c_p)


def test_monotonicity_and_asymptotic_rates(profile10):
    rep = monotonicity_report(profile10)
    assert rep.signs_ok, rep.violations
    assert rep.max_slope_error() <= 0.05
    assert rep.nominal_far == {"u": -6.0, "du": -7.0, "lap": -8.0, "dlap": -9.0}
    assert rep.nominal_near == {"u": -4.0, "du": -5.0, "lap": -6.0, "dlap": -7.0}
    # the same at the radii of t in [T_LO + 1, T_HI - 1], deep in both tails
    r = np.geomspace(math.exp(-(T_HI - 1.0)), math.exp(-(T_LO + 1.0)), 600)
    rep = monotonicity_report(profile10, r=r)
    assert rep.signs_ok, rep.violations
    assert rep.max_slope_error() <= 0.05


def test_scaled_derivs_match_the_r_space_chain_rule(profile10, chain_rule_derivs):
    # on an annulus and one unit inside each mesh end, where r spans 2e-8 to 27
    a = profile10.params.singular_rate
    r = np.concatenate([np.geomspace(0.3, 3.0, 50),
                        np.exp([-(profile10.t_hi - 1.0), -(profile10.t_lo + 1.0)])])
    S = profile10.scaled_derivs(-np.log(r))
    assert S.shape == (6, r.size)
    for k, ref in enumerate(chain_rule_derivs(profile10, r)):
        assert_allclose(S[k] * r ** -(k + a), ref, rtol=1e-12, atol=0.0, err_msg=f"k={k}")


@pytest.mark.parametrize("N, p", [(5, 5.0 + 0.02 * 4.0), (10, 10 / 6.0 + 0.02 * 4.0 / 6.0),
                                  (14, 1.4128)])
def test_monotonicity_report_at_the_serrin_end(N, p):
    # long meshes (t_lo = -731.5 at N = 5): e^{-t_lo} and r-space powers of the
    # profile overflow there, so every sign and rate is read in Emden-Fowler time
    rep = monotonicity_report(solve_singular(validate_params(N, p), beta=1.0, tol=1e-4))
    assert rep.signs_ok, rep.violations
    assert rep.max_slope_error() <= 0.05


def test_sign_check_counts_nan_as_violation(profile10, monkeypatch):
    scaled = profile10.scaled_derivs

    def planted(t):
        S = scaled(t)
        S[3, 300] = np.nan
        return S

    monkeypatch.setattr(profile10, "scaled_derivs", planted)
    rep = monotonicity_report(profile10)
    assert not rep.signs_ok
    assert rep.violations == [("(Delta u)' > 0", 1)]


def _negate_du(S, t):
    S[1, 290:295] *= -1.0
    return S


@pytest.mark.parametrize("plant, failing", [
    (None, None),
    (_negate_du, "delaunay.signs"),
    (lambda S, t: S * np.exp(0.1 * t), "delaunay.slopes"),
], ids=["unpatched", "du-sign", "rate-shift"])
def test_planted_defects_fail_their_check(profile10, monkeypatch, plant, failing):
    from biharmlab.verify import suite_delaunay

    if plant is not None:
        scaled = profile10.scaled_derivs
        monkeypatch.setattr(profile10, "scaled_derivs", lambda t: plant(scaled(t), t))
    ok = {c["name"]: c["ok"] for c in suite_delaunay(10, 2.0, profile10)}
    for name in ("delaunay.signs", "delaunay.slopes"):
        assert ok[name] == (name != failing), name


def test_r_view_system_consistency(profile10):
    """Radial residual on an annulus via finite differences (non-circular).

    Differentiate Delta u numerically and compare with the state's (Delta u)'
    and with the closed radial equation; this checks the Emden-Fowler to
    r-space transformation of `scaled_derivs` independently of the
    construction of u''''.
    """
    tau = np.linspace(np.log(0.3), np.log(3.0), 4001)
    h = tau[1] - tau[0]
    r = np.exp(tau)
    S = profile10.scaled_derivs(-tau)
    u, du, d2u, d3u = (S[k] * r ** -(k + profile10.params.singular_rate) for k in range(4))
    lap, dlap = lap_radial(10, r, du, d2u), dlap_radial(10, r, du, d2u, d3u)

    def d_dtau4(f):
        # fourth-order central stencil on the uniform log grid (interior)
        return (-f[4:] + 8.0 * f[3:-1] - 8.0 * f[1:-3] + f[:-4]) / (12.0 * h)

    mid = slice(2, -2)
    # differentiate in the log variable: power-law fields stay well-scaled
    dlap_fd = d_dtau4(lap) / r[mid]
    assert np.max(np.abs(dlap_fd - dlap[mid]) / np.abs(dlap[mid])) <= 1e-8
    # second radial derivative of Delta u closes the equation Delta^2 u = u^p;
    # the two linear terms cancel to the size of u^p, so normalize by the
    # largest participating term
    d2lap_fd = d_dtau4(dlap) / r[mid]
    lower = (10 - 1.0) / r[mid] * dlap[mid]
    resid = d2lap_fd + lower - u[mid] ** 2
    scale = np.maximum(np.abs(d2lap_fd), np.maximum(np.abs(lower), u[mid] ** 2))
    assert np.max(np.abs(resid) / scale) <= 1e-8


def test_energy_endpoints(params10, profile10):
    K = profile10.coeffs
    cp = params10.c_p
    e_left = float(energy(profile10, T_LO))
    assert abs(e_left) <= 1e-6 * K.K0 * cp**2
    e_right = float(energy(profile10, T_HI))
    e_limit = cp ** (params10.p + 1.0) / (params10.p + 1.0) - 0.5 * K.K0 * cp**2
    assert e_right == pytest.approx(e_limit, rel=1e-6)
    # one unit past the mesh the right tail carries the same limit
    assert float(energy(profile10, profile10.t_hi + 1.0)) == pytest.approx(e_limit, rel=1e-6)


def test_dissipation_identity(profile10):
    lhs, rhs = dissipation_check(profile10, T_LO + 0.1, T_HI - 6.0)
    scale = max(abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-6 * scale
    # at a critical point of ubar, E itself satisfies the identity and E <= E(-inf)
    tt = np.linspace(T_HI - 8.0, T_HI - 1.0, 2000)
    du = profile10.ubar_state(tt)[1]
    k = int(np.argmax(du[:-1] * du[1:] < 0.0))
    t1 = brentq(lambda t: float(profile10.ubar_state(t)[1]), tt[k], tt[k + 1])
    e1 = float(energy(profile10, t1))
    h1 = float(hamiltonian(profile10, t1))
    assert e1 == pytest.approx(h1, rel=1e-9)
    lhs2, rhs2 = dissipation_check(profile10, T_LO + 0.1, t1)
    assert lhs2 == pytest.approx(rhs2, rel=1e-6)
    assert e1 - float(energy(profile10, T_LO + 0.1)) <= 0.0


def test_scale_to_beta_identity_and_shift(params10, profile10):
    same = scale_to_beta(profile10, profile10.beta)
    tt = np.linspace(profile10.t_lo + 0.5, profile10.t_hi - 0.5, 200)
    assert_allclose(same.ubar(tt), profile10.ubar(tt), rtol=0.0, atol=0.0)
    prof3 = scale_to_beta(profile10, 3.0)
    assert prof3.beta == pytest.approx(3.0)
    delta = math.log(3.0) / params10.slow_rate
    t2 = np.linspace(max(profile10.t_lo, prof3.t_lo) + 0.2,
                     min(profile10.t_hi, prof3.t_hi) - 0.2, 300)
    assert_allclose(prof3.ubar(t2), profile10.ubar(t2 + delta), rtol=0.0,
                    atol=1e-12 * params10.c_p)


def test_shift_out_of_float_range_is_typed(profile10):
    big = scale_to_beta(profile10, 1e308)
    assert big.beta == 1e308
    for delta in (math.inf, math.nan, 1e6, -1e6):
        with pytest.raises(ShootingError, match="frame shift: shift ") as exc:
            profile10.shifted(delta)
        assert exc.value.stage == "frame shift"
    for beta_new in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="must be positive and finite"):
            scale_to_beta(profile10, beta_new)


def test_dilation_acts_on_far_field(params10, profile10):
    # dilation by eps multiplies the far-field coefficient by eps^{N-4-4/(p-1)}
    eps = 0.3
    a = params10.singular_rate
    prof2 = scale_to_beta(profile10, profile10.beta * eps**params10.slow_rate)
    r = np.geomspace(5.0, 50.0, 20)
    assert_allclose(_u(prof2, r), eps**-a * _u(profile10, r / eps), rtol=1e-12)


def test_translation_equivariance_vs_fresh_solve(params10, profile10):
    fresh = solve_singular(params10, beta=3.0, tol=1e-4)
    shifted = scale_to_beta(profile10, 3.0)
    tt = np.linspace(max(fresh.t_lo, shifted.t_lo) + 0.3,
                     min(fresh.t_hi, shifted.t_hi) - 0.3, 400)
    diff = np.max(np.abs(fresh.ubar(tt) - shifted.ubar(tt))) / params10.c_p
    assert diff <= 1e-6


def test_kelvin_transform(params10, profile10):
    kv = kelvin_transform(profile10)
    assert kv.value_at_zero == pytest.approx(profile10.beta)
    # utilde at the small end approaches beta (bounded, no singularity)
    lo, hi = math.exp(T_LO), math.exp(T_HI)
    assert kv.value(np.array([lo * 1.5]))[0] == pytest.approx(profile10.beta, rel=1e-4)
    assert kv.tail_exponent_nominal == pytest.approx(-2.0)
    # the tail coefficient is c_p: utilde(rho) rho^{(4+alpha)/(p-1)} -> c_p
    rho_far = np.array([hi / 3.0])
    assert kv.value(rho_far)[0] * rho_far[0] ** 2 == pytest.approx(params10.c_p, rel=1e-6)
    assert kv.weak_residual(0.5, 4.0) <= 1e-4


def test_profile_out_reads_back_exactly(profile10, tmp_path):
    # the file `delaunay --profile-out` writes holds the mesh times and the
    # state there to the last bit, under a header naming N, p and beta
    path = tmp_path / "profile.txt"
    assert main(["delaunay", "--N", "10", "--p", "2", "--beta", "1", "--profile-out", str(path),
                 "--out", str(tmp_path / "d.json")]) == 0
    header = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") and "=" in line:
            key, val = line[1:].split("=", 1)
            header[key.strip()] = val.strip()
    assert (int(header["N"]), float(header["p"]), float(header["beta"])) == (10, 2.0, 1.0)
    data = np.loadtxt(path)
    assert data.shape == (int(header["rows"]), 5)
    t = data[:, 0]
    assert np.array_equal(t, profile10.t_grid - profile10.t_shift)
    assert np.array_equal(data[:, 1:].T, profile10.ubar_state(t))


def test_solve_rejects_bad_arguments(params10):
    for beta in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="must be positive and finite"):
            solve_singular(params10, beta=beta)
    for tol in (1e-7, math.nan):
        with pytest.raises(ValueError, match="must exceed the manifold-truncation floor"):
            solve_singular(params10, beta=1.0, tol=tol)
    for tol in (1.0, math.inf):
        with pytest.raises(ValueError, match="and lie below 1"):
            solve_singular(params10, beta=1.0, tol=tol)


def test_solver_never_shoots(monkeypatch, params10):
    def no_shot(*args, **kwargs):
        raise AssertionError("solve_singular called shoot_once")

    monkeypatch.setattr(delaunay, "shoot_once", no_shot)
    prof = solve_singular(params10, beta=1.0, tol=1e-4)
    assert prof.diagnostics["bisections"] == 0
    assert "s_star" not in prof.diagnostics


def _window_p(N, f):
    lo, hi = N / (N - 4.0), (N + 4.0) / (N - 4.0)
    return lo + f * (hi - lo)


@pytest.mark.parametrize("N", [5, 8, 11, 14])
def test_window_points(N):
    # f = 0.25 for even N and 0.75 for odd N covers both halves of the window
    tol = 1e-4
    prof = solve_singular(validate_params(N, _window_p(N, 0.25 if N % 2 == 0 else 0.75)),
                          beta=1.0, tol=tol)
    tt = np.linspace(prof.t_lo + 0.1, prof.t_hi - 0.1, 4001)
    assert float(np.max(prof.scaled_residual(tt))) <= 1e-7
    assert prof.diagnostics["endpoint_rel"] <= tol
    assert prof.diagnostics["beta_fit_rel"] <= tol


@pytest.mark.parametrize("N,p", [(10, 2.0)] + [
    (N, _window_p(N, 0.25 if N % 2 == 0 else 0.75)) for N in (5, 8, 11, 12, 14)])
def test_analytic_tails_match_long_mesh(N, p):
    # oracle: the same collocation on a mesh 8 units longer on the left and
    # with a 40-unit tail, compared in the profile's frame
    params = validate_params(N, p)
    prof = solve_singular(params, beta=1.0, tol=1e-4)
    res, _, ref = delaunay._bvp_polish(params, prof.coeffs, delaunay.H_REL * params.c_p,
                                       8.0 - float(prof.t_grid[0]), 40.0, delaunay.BVP_TOL)
    assert res.status == 0

    def ref_state(t):
        return ref(t + prof.t_shift)

    ref_lo, ref_hi = res.x[0] - prof.t_shift, res.x[-1] - prof.t_shift
    # right tail: ubar within 1e-10 c_p (the derivative components at t_hi
    # carry the mesh's own end error, up to 1e-10 c_p in the third derivative at N = 11)
    tt = np.linspace(prof.t_hi, ref_hi - 0.05, 400)
    assert np.max(np.abs(prof.ubar(tt) - ref_state(tt)[0])) <= 1e-10 * params.c_p

    # left tail: no worse than the mesh's own error next to t_lo, per component
    def rel_err(t):
        y = ref_state(t)
        return np.max(np.abs(prof.ubar_state(t) - y) / np.abs(y), axis=1)

    mesh_err = rel_err(np.linspace(prof.t_lo, prof.t_lo + 3.0, 400))
    tail_err = rel_err(np.linspace(ref_lo + 3.0, prof.t_lo, 400))
    assert np.all(tail_err <= 1.5 * mesh_err), (tail_err, mesh_err)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("p", [2.32, 2.30])
def test_near_sobolev_raises_typed_error(p):
    # the logistic gauge overflows on the long tail these points need; the
    # NaN it produces must fail the gates instead of reaching the profile
    with pytest.raises(ShootingError, match="collocation polish"):
        solve_singular(validate_params(10, p), beta=1.0, tol=1e-4)


def test_mesh_collapse_raises_typed_error(monkeypatch, params10):
    def collapsed(*args, **kwargs):
        raise ValueError("`x` must be strictly increasing or decreasing.")

    monkeypatch.setattr(delaunay, "_collocate", collapsed)
    with pytest.raises(ShootingError, match="collocation polish: `x` must be strictly"):
        solve_singular(params10, beta=1.0, tol=1e-4)


def test_out_of_memory_raises_typed_error(monkeypatch, params10):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(delaunay, "_collocate", exhausted)
    with pytest.raises(ShootingError, match="collocation polish: out of memory at 1600 nodes"):
        solve_singular(params10, beta=1.0, tol=1e-4)


def test_singular_newton_matrix_raises_typed_error(monkeypatch, params10):
    def singular(ab, kl, ku, **kwargs):
        return ab, np.zeros(ab.shape[1], dtype=np.int32), 1

    monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf", singular)
    with pytest.raises(ShootingError, match="collocation polish: A singular Jacobian"):
        solve_singular(params10, beta=1.0, tol=1e-4)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_newton_matrix_is_never_factored(monkeypatch):
    # at (10, 2.32) the gauge overflows, so the first Newton matrix holds NaN
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return dgbtrf(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf", counting)
    with pytest.raises(ShootingError, match="collocation polish"):
        solve_singular(validate_params(10, 2.32), beta=1.0, tol=1e-4)
    assert not calls


@pytest.mark.parametrize("N,f", [(10, None), (11, 0.75), (5, 0.75)])
def test_banded_collocation_matches_solve_bvp(monkeypatch, N, f):
    # oracle: scipy's solve_bvp on the same gauged problem, at every pad the loop tries;
    # at (11, 0.75) the pad-0 polish stops after its first mesh pass, which solve_bvp
    # reproduces with no room for a node more; (5, 0.75) has the longest mesh of the three
    params = validate_params(N, 2.0 if f is None else _window_p(N, f))
    collocate, runs = delaunay._collocate, []

    def both(fun, fun_jac, bc, bc_jac, x, y, tol, max_nodes, stop=None):
        res = collocate(fun, fun_jac, bc, bc_jac, x, y, tol, max_nodes, stop=stop)
        first_pass_only = res.status == delaunay._STOPPED
        ref = solve_bvp(fun, bc, x, y, fun_jac=fun_jac, bc_jac=bc_jac, tol=tol,
                        max_nodes=x.size if first_pass_only else max_nodes)
        runs.append((ref, res))
        return res

    monkeypatch.setattr(delaunay, "_collocate", both)
    solve_singular(params, beta=1.0, tol=1e-4)
    assert [res.status for _, res in runs] == ([delaunay._STOPPED, 0] if N == 11 else [0])
    mu, cp = params.slow_rate, params.c_p
    for ref, res in runs:
        assert ref.status == (1 if res.status == delaunay._STOPPED else 0)
        assert np.array_equal(ref.x, res.x)
        t = np.linspace(res.x[0], res.x[-1], 20001)
        ubar_ref = delaunay._ScaledSpline(ref.sol, cp, delaunay.H_REL, mu)(t)[0]
        ubar = delaunay._ScaledSpline(res.sol, cp, delaunay.H_REL, mu)(t)[0]
        assert np.max(np.abs(ubar - ubar_ref)) <= 1e-12 * cp


# Before the pad was decided from the first mesh pass, each of these points solved
# twice, the pad-0 solve converged and then discarded: (t_grid.size, t_lo, ubar at
# EARLY_PAD_T) of those solves, beta = 1, tol = 1e-4.
EARLY_PAD_T = [-12.0, -4.0, 0.0, 3.0, 8.0, 25.0]
EARLY_PAD_FROZEN = {
    (11, 0.75): (7308, -3.374318417914454, [2.319523076597412e-16, 6.144159631915057e-06,
                 0.9768124758589611, 448.2623824930432, 366.45382658044144, 359.999667057326]),
    (12, 0.25): (2900, -5.339698526645277, [4.5873190071661146e-09, 0.0016613000074956424,
                 0.9902466114096462, 103.23252036485503, 7988.695011386364, 9669.650771348224]),
    (13, 0.75): (7094, -3.2552470711649404, [7.913520590756896e-21, 1.9927533202452563e-07,
                 0.980896297159734, 6539.606243081874, 5684.026333820351, 5662.862225880242]),
    (14, 0.25): (3291, -4.9376689290903, [3.775247189648952e-11, 0.0003354297149999585,
                 0.9931946290747745, 358.1945459446048, 239352.96430612603, 409599.99538755463]),
}


@pytest.mark.parametrize("N,f", EARLY_PAD_FROZEN)
def test_early_pad_decision_keeps_the_profile(N, f):
    # the pad grows from the first pass's far-field errors instead of the converged
    # ones; they agree to about 4 digits, so the mesh start moves by far less than
    # 1e-6 and the profile by far less than 1e-12 c_p
    size, t_lo, ubar = EARLY_PAD_FROZEN[N, f]
    params = validate_params(N, _window_p(N, f))
    prof = solve_singular(params, beta=1.0, tol=1e-4)
    assert prof.t_grid.size == size
    assert abs(prof.t_lo - t_lo) <= 1e-6
    assert np.max(np.abs(prof.ubar(np.array(EARLY_PAD_T)) - ubar)) <= 1e-12 * params.c_p


# (N, f) -> (bvp_nodes, dgbtrf calls, dgbtrs calls) of one solve at beta = 1, tol = 1e-4:
# the benchmark's reference points, f = 0.25 for even N and 0.75 for odd N, and (10, 2)
WORK_COUNTS = {
    (5, 0.75): (16119, 12, 42), (6, 0.25): (2350, 4, 13), (7, 0.75): (8328, 7, 18),
    (8, 0.25): (2373, 3, 11), (9, 0.75): (7468, 6, 15), (10, 0.25): (2107, 3, 11),
    (11, 0.75): (7308, 6, 23), (12, 0.25): (2900, 5, 22), (13, 0.75): (7094, 6, 22),
    (14, 0.25): (3291, 5, 23), (10, None): (3458, 4, 12),
}


# the two original cases keep their ids; the window_sweep reference points are named by (N, f)
WORK_COUNT_IDS = {(13, 0.75): "13-0.75-at-most-6", (10, None): "10-2-exactly-4"}


@pytest.mark.parametrize("N,f", list(WORK_COUNTS),
                         ids=[WORK_COUNT_IDS.get(key, f"{key[0]}-{key[1]}") for key in WORK_COUNTS])
def test_factorizations_per_solve(monkeypatch, N, f):
    # work counts, not times, and the meshes they pin: a pad-0 polish that misses the
    # fit stops after one mesh pass rather than converge (it took 10 factorizations at
    # (13, 0.75)), and a trial iterate that meets the tolerance ends Newton with no
    # solve to confirm it ((10, 2) took 15 solves with that solve)
    calls = {"dgbtrf": 0, "dgbtrs": 0}

    def counting(name):
        lapack = getattr(scipy.linalg.lapack, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return lapack(*args, **kwargs)

        return call

    for name in calls:
        monkeypatch.setattr(scipy.linalg.lapack, name, counting(name))
    prof = solve_singular(validate_params(N, 2.0 if f is None else _window_p(N, f)),
                          beta=1.0, tol=1e-4)
    assert (prof.diagnostics["bvp_nodes"], calls["dgbtrf"], calls["dgbtrs"]) == WORK_COUNTS[N, f]


def _newton_problem(monkeypatch, params, nodes):
    """The gauged problem's first Newton state on `nodes` of its initial mesh, spread evenly:
    (fun, fun_jac, bc, bc_jac, x, h, y, y_mid)."""
    problem = []

    def capture(fun, fun_jac, bc, bc_jac, x, y, tol, max_nodes, stop=None):
        problem.extend([fun, fun_jac, bc, bc_jac, x, y])
        raise MemoryError

    with monkeypatch.context() as m:
        m.setattr(delaunay, "_collocate", capture)
        with pytest.raises(ShootingError):
            solve_singular(params, beta=1.0, tol=1e-4)
    fun, fun_jac, bc, bc_jac, x, y = problem
    keep = np.linspace(0, x.size - 1, nodes).astype(int)
    x, y = x[keep], y[:, keep]
    h = np.diff(x)
    return fun, fun_jac, bc, bc_jac, x, h, y, delaunay._lobatto(fun, x, h, y)[1]


def test_banded_newton_step_matches_dense_solve(monkeypatch, params10, dense_newton_band):
    # the gauged problem at (10, 2) on a 12-node mesh: one Newton step through the band
    # against np.linalg.solve on the dense matrix read back from the band storage
    fun, fun_jac, bc, bc_jac, x, h, y, _ = _newton_problem(monkeypatch, params10, 12)

    def residual(flat):  # in the band's row order; unknowns node by node
        y = flat.reshape(-1, 4).T
        col, y_mid, _, _ = delaunay._lobatto(fun, x, h, y)
        bcr = bc(y[:, 0], y[:, -1])
        return np.concatenate([bcr[:3], col.ravel(order="F"), bcr[3:]]), y_mid

    res, y_mid = residual(y.T.ravel())
    ab, finite = delaunay._newton_band(fun_jac, *bc_jac(y[:, 0], y[:, -1]), x, h, y, y_mid)
    assert finite
    assert np.array_equal(ab, dense_newton_band(fun_jac, *bc_jac(y[:, 0], y[:, -1]), x, h, y, y_mid))
    n = ab.shape[0]
    dense = np.zeros((n, n))
    for c in range(n):
        for k in range(ab.shape[1]):
            r = c + k - delaunay._KL - delaunay._KU
            if 0 <= r < n:
                dense[r, c] = ab[c, k]
            else:
                assert ab[c, k] == 0.0
    # the blocks: the dense matrix is the residual's Jacobian (central differences)
    fd = np.zeros((n, n))
    for c in range(n):
        e = np.zeros(n)
        e[c] = 1e-6
        fd[:, c] = (residual(y.T.ravel() + e)[0] - residual(y.T.ravel() - e)[0]) / 2e-6
    assert np.max(np.abs(fd - dense)) <= 1e-8 * np.max(np.abs(dense))
    lu, piv, info = dgbtrf(ab.T, delaunay._KL, delaunay._KU)
    assert info == 0
    step = dgbtrs(lu, delaunay._KL, delaunay._KU, res, piv)[0]
    exact = np.linalg.solve(dense, res)
    assert np.max(np.abs(step - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_newton_band_matches_dense_blocks_on_every_mesh(monkeypatch, dense_newton_band):
    # oracle: the dense-block band, at every Newton matrix of the (5, 0.75) solve, whose
    # last meshes exceed 10 000 nodes; equal entry for entry, finiteness verdict included
    band, sizes = delaunay._newton_band, []

    def both(fun_jac, dya, dyb, x, h, y, y_mid):
        ab, finite = band(fun_jac, dya, dyb, x, h, y, y_mid)
        ref = dense_newton_band(fun_jac, dya, dyb, x, h, y, y_mid)
        assert np.array_equal(ab, ref)
        assert finite == np.isfinite(ref).all()
        sizes.append(x.size)
        return ab, finite

    monkeypatch.setattr(delaunay, "_newton_band", both)
    solve_singular(validate_params(5, _window_p(5, 0.75)), beta=1.0, tol=1e-4)
    assert max(sizes) >= 10_000


@pytest.mark.parametrize("where,bad", [("y0", np.nan), ("y0", np.inf), ("y1", -np.inf),
                                       ("y3", np.nan), ("dyb", np.nan)])
def test_newton_band_counts_non_finite_as_the_dense_band_does(monkeypatch, params10,
                                                              dense_newton_band, where, bad):
    # only the written entries are tested for finiteness: the verdict is the dense band's
    # (J reads z0 alone, so a NaN in z3 leaves both bands finite)
    fun, fun_jac, bc, bc_jac, x, h, y, _ = _newton_problem(monkeypatch, params10, 12)
    dya, dyb = bc_jac(y[:, 0], y[:, -1])
    if where == "dyb":
        dyb[3, 1] = bad
    else:
        y[int(where[1]), 5] = bad
    with np.errstate(all="ignore"):
        y_mid = delaunay._lobatto(fun, x, h, y)[1]
        _, finite = delaunay._newton_band(fun_jac, dya, dyb, x, h, y, y_mid)
        ref = dense_newton_band(fun_jac, dya, dyb, x, h, y, y_mid)
    assert finite == np.isfinite(ref).all() == (where == "y3")


def test_fun_jac_has_the_companion_pattern(monkeypatch, params10):
    # _newton_band reads only these entries: a unit superdiagonal, equal first three
    # diagonal entries, constant J[3, 1] and J[3, 2], and zeros everywhere else
    _, fun_jac, _, _, x, _, y, _ = _newton_problem(monkeypatch, params10, 40)
    J = fun_jac(x, y)
    assert J.shape == (4, 4, x.size)
    pattern = np.identity(4, dtype=bool) | np.eye(4, k=1, dtype=bool)
    pattern[3] = True
    assert not np.any(J[~pattern])
    assert np.all(J[[0, 1, 2], [1, 2, 3]] == 1.0)
    assert np.all(J[1, 1] == J[0, 0]) and np.all(J[2, 2] == J[0, 0])
    assert np.all(J[3, 1] == J[3, 1, 0]) and np.all(J[3, 2] == J[3, 2, 0])
    assert np.ptp(J[0, 0]) > 0 and np.ptp(J[3, 0]) > 0 and np.ptp(J[3, 3]) > 0


def test_cli_reports_solver_failure_without_traceback():
    src = os.path.dirname(os.path.dirname(biharmlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "biharmlab.cli", "delaunay", "--N", "10",
                           "--p", "2.32"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "error: collocation polish" in proc.stderr


def _same_bits(got, want):
    """Equal bit for bit, NaN and signed zero included, and laid out alike in memory."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.strides == want.strides
            and np.array_equal(got.view(np.int64), want.view(np.int64)))


def test_cubic_matches_ppoly_bit_for_bit():
    # oracle: scipy's PPoly on the same coefficients, on axis 1 with extrapolation; the
    # memory layout must match too, since pow and exp take other code paths on strided rows
    from scipy.interpolate import PPoly

    rng = np.random.default_rng(18)
    m = 300
    x = np.sort(rng.uniform(-5.0, 40.0, m))
    c = rng.standard_normal((4, m - 1, 4)) * 10.0 ** rng.integers(-6, 7, (4, m - 1, 4))
    c[3, :10] = -0.0  # scipy sums from 0.0, so a -0.0 constant term evaluates to +0.0
    cubic = delaunay._Cubic(np.ascontiguousarray(c.transpose(0, 2, 1)), x)
    pp = PPoly(c.transpose(2, 0, 1), x, extrapolate=True, axis=1)
    t = np.concatenate([rng.uniform(x[0] - 5.0, x[-1] + 5.0, 20000), x, [np.nan]])
    assert np.nanmin(t) < x[0] and np.nanmax(t) > x[-1]  # both extrapolation sides
    for tq in (t, t[:60].reshape(3, 20), 3.3, x[-1]):
        assert _same_bits(cubic(tq), pp(tq))
        assert _same_bits(cubic(tq, 1), pp(tq, 1))
        assert _same_bits(cubic.derivative()(tq), pp.derivative()(tq))
    h = np.diff(x)
    xm, s = x[:-1] + 0.5 * h, 0.5 * h * (3 / 7) ** 0.5
    for xk in (xm + s, xm - s):  # the collocation's 5-point Lobatto samples
        assert _same_bits(cubic.per_interval(xk), pp(xk))
        assert _same_bits(cubic.per_interval(xk, 1), pp(xk, 1))


def test_exprel_matches_scipy():
    from scipy.special import exprel

    x = np.concatenate([np.linspace(-800.0, 800.0, 160001),
                        [0.0, -0.0, 5e-324, -1e-300, 1e-17, -1e-17, 709.78, 709.79]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = delaunay._exprel(x)
        assert delaunay._exprel(0.0) == 1.0
    want = exprel(x)
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite])  # +inf past overflow
    assert np.all(got[x == 0] == 1.0)
    assert np.max(np.abs(got[finite] - want[finite]) / want[finite]) <= 4e-16
