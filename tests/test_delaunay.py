"""Singular-profile construction: endpoint asymptotics, residuals, identities.

The session profile (beta = 1, the default mesh [~-4.28, ~18.63]) is shared;
tests that need a different frame build cheap shifted copies.  Checks over
the whole orbit run on [T_LO, T_HI], past both mesh ends, so they cover the
analytic tails with the tolerances the mesh meets.
"""

import dataclasses
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

    # (at (5, 8.0) both sit at roundoff, about 1e-15, so they are compared above 20 ulps)
    mesh_err = rel_err(np.linspace(prof.t_lo, prof.t_lo + 3.0, 400))
    tail_err = rel_err(np.linspace(ref_lo + 3.0, prof.t_lo, 400))
    assert np.all(tail_err <= np.maximum(1.5 * mesh_err, 20 * np.finfo(float).eps)), (tail_err, mesh_err)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [2.33])
def test_near_sobolev_raises_typed_error(p):
    # Newton diverges on the long tail this point needs; the NaN it meets must
    # fail the gates instead of reaching the profile, and the floating-point
    # errors on the way are counted in the message, with no warning
    with pytest.raises(ShootingError, match=r"collocation polish: .*; floating-point errors: \d+$"):
        solve_singular(validate_params(10, p), beta=1.0, tol=1e-4)


@pytest.mark.filterwarnings("error")
def test_diverging_newton_counts_its_floating_point_errors():
    # at (5, 8.4525) Newton diverges and overflows in fun, the stages, the Armijo cost
    # and the tail fit (124 RuntimeWarnings once); they are counted, not printed
    with pytest.raises(ShootingError, match=r"; floating-point errors: \d+$"):
        solve_singular(validate_params(5, 8.4525), beta=1.0, tol=1e-4)


def test_passing_solve_reports_its_floating_point_errors_once(monkeypatch, params10):
    # a solve that passes after a floating-point error warns once, naming the count
    polish = delaunay._bvp_polish

    def overflowing(*args, **kwargs):
        np.float64(1e308) * 10.0
        return polish(*args, **kwargs)

    monkeypatch.setattr(delaunay, "_bvp_polish", overflowing)
    with pytest.warns(RuntimeWarning, match="floating-point errors: 1$") as caught:
        solve_singular(params10, beta=1.0, tol=1e-4)
    assert len(caught) == 1


@pytest.mark.parametrize("N", range(5, 15))
def test_shift_keeps_the_fitted_tails(N):
    # the tails are fitted in the internal frame, which a shift does not move: a
    # shifted profile shares them and evaluates bit for bit as one that refits them,
    # at the window sweep's reference points
    prof = solve_singular(validate_params(N, _window_p(N, 0.25 if N % 2 == 0 else 0.75)),
                          beta=1.0, tol=1e-4)
    shifted = delaunay.scale_to_beta(prof, 3.0)
    refit = dataclasses.replace(shifted)
    assert shifted._left is prof._left and shifted._right is prof._right
    assert refit._left is not prof._left
    t = np.linspace(shifted.t_lo - 20.0, shifted.t_hi + 20.0, 2001)
    for deriv in (False, True):
        assert _same_bits(shifted._evaluate(t, deriv), refit._evaluate(t, deriv))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p", [2.30, 2.32])
def test_log_gauge_solves_near_sobolev(p):
    # the gauge is built in log space, so the long tails near the Sobolev end
    # overflow nothing and the profile meets the window sweep's gates
    tol = 1e-4
    prof = solve_singular(validate_params(10, p), beta=1.0, tol=tol)
    tt = np.linspace(prof.t_lo + 0.1, prof.t_hi - 0.1, 4001)
    assert float(np.max(prof.scaled_residual(tt))) <= 1e-7
    assert prof.diagnostics["endpoint_rel"] <= tol


def test_mesh_collapse_raises_typed_error(monkeypatch, params10):
    def collapsed(*args, **kwargs):
        raise ValueError("`x` must be strictly increasing or decreasing.")

    monkeypatch.setattr(delaunay, "_collocate", collapsed)
    with pytest.raises(ShootingError, match="collocation polish: `x` must be strictly"):
        solve_singular(params10, beta=1.0, tol=1e-4)


def test_out_of_memory_raises_typed_error(monkeypatch, params10):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(delaunay, "_newton", exhausted)
    with pytest.raises(ShootingError, match="collocation polish: out of memory at 500 nodes"):
        solve_singular(params10, beta=1.0, tol=1e-4)


def test_singular_newton_matrix_raises_typed_error(monkeypatch, params10):
    def singular(ab, kl, ku, **kwargs):
        return ab, np.zeros(ab.shape[1], dtype=np.int32), 1

    monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf", singular)
    with pytest.raises(ShootingError, match="collocation polish: A singular Jacobian"):
        solve_singular(params10, beta=1.0, tol=1e-4)


def test_non_finite_newton_matrix_is_never_factored(monkeypatch, params10):
    # a NaN planted in the Jacobian at one node makes the first Newton matrix non-finite
    calls, collocate = [], delaunay._collocate

    def counting(*args, **kwargs):
        calls.append(1)
        return dgbtrf(*args, **kwargs)

    def planted(prob, *args, **kwargs):
        def nan_jac(t, z):
            d, a = prob.jac(t, z)
            a[5] = np.nan
            return d, a

        return collocate(prob._replace(jac=nan_jac), *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf", counting)
    monkeypatch.setattr(delaunay, "_collocate", planted)
    with pytest.raises(ShootingError, match="collocation polish"):
        solve_singular(params10, beta=1.0, tol=1e-4)
    assert not calls


@pytest.mark.parametrize("N,f", [(10, None), (11, 0.75), (5, 0.75)])
def test_banded_collocation_matches_solve_bvp(monkeypatch, companion_jac, N, f):
    # oracle: scipy's solve_bvp (3-point Lobatto IIIA) on the same gauged problem at
    # tolerance 3e-10, started from the converged mesh; (5, 0.75) has the longest mesh
    params = validate_params(N, 2.0 if f is None else _window_p(N, f))
    collocate, runs = delaunay._collocate, []

    def keep(*args, **kwargs):
        runs.append((args, collocate(*args, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(delaunay, "_collocate", keep)
    solve_singular(params, beta=1.0, tol=1e-4)
    (prob, *_), res = runs[-1]
    assert res.status == 0
    ref = solve_bvp(prob.fun, prob.bc, res.x, res.sol(res.x), tol=3e-10, max_nodes=10**6,
                    fun_jac=lambda t, z: np.moveaxis(companion_jac(prob, t, z), 0, 2),
                    bc_jac=lambda za, zb: (prob.dya, prob.dyb))
    assert ref.status == 0
    t = np.linspace(res.x[0], res.x[-1], 20001)
    mu, cp = params.slow_rate, params.c_p
    ubar_ref = delaunay._ScaledSpline(ref.sol, cp, delaunay.H_REL, mu)(t)[0]
    ubar = delaunay._ScaledSpline(res.sol, cp, delaunay.H_REL, mu)(t)[0]
    assert np.max(np.abs(ubar - ubar_ref) / ubar_ref) <= 1e-10


# Before the pad was decided from the first mesh pass, each of these points solved
# twice, the pad-0 solve converged and then discarded: (t_grid.size, t_lo, ubar at
# EARLY_PAD_T) of the solves that replaced them, beta = 1, tol = 1e-4.  Frozen again
# with the sixth-order collocation: t_lo moved by at most 1.1e-9 and ubar by at most
# 7e-13 c_p from the values frozen on the fourth-order meshes; and again with Newton
# run to convergence on every mesh: t_lo moved by at most 1.1e-9 and ubar by at most
# 4e-14 c_p.
EARLY_PAD_T = [-12.0, -4.0, 0.0, 3.0, 8.0, 25.0]
EARLY_PAD_FROZEN = {
    (11, 0.75): (1081, -3.3743184177742664, [2.3195230765974067e-16, 6.144159631915132e-06,
                 0.9768124758591443, 448.2623824931113, 366.45382658019054, 359.99966705721084]),
    (12, 0.25): (545, -5.339698526645922, [4.587319007166126e-09, 0.0016613000074956654,
                 0.9902466114088395, 103.23252036486495, 7988.69501138849, 9669.650771348224]),
    (13, 0.75): (980, -3.2552470711578545, [7.913520590756857e-21, 1.9927533202452616e-07,
                 0.9808962971596842, 6539.606243083423, 5684.026333817317, 5662.862225880132]),
    (14, 0.25): (584, -4.937668929090384, [3.775247189648953e-11, 0.0003354297149999577,
                 0.9931946290748388, 358.19454594475576, 239352.96430617635, 409599.99538755463]),
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
    (5, 0.75): (1810, 13, 43), (6, 0.25): (551, 4, 13), (7, 0.75): (1318, 7, 18),
    (8, 0.25): (509, 3, 10), (9, 0.75): (1115, 5, 13), (10, 0.25): (506, 2, 14),
    (11, 0.75): (1081, 5, 16), (12, 0.25): (545, 5, 16), (13, 0.75): (980, 5, 14),
    (14, 0.25): (584, 5, 20), (10, None): (585, 2, 14),
}


# the two original cases keep their ids; the window_sweep reference points are named by (N, f)
WORK_COUNT_IDS = {(13, 0.75): "13-0.75-at-most-6", (10, None): "10-2-exactly-4"}


@pytest.mark.parametrize("N,f", list(WORK_COUNTS),
                         ids=[WORK_COUNT_IDS.get(key, f"{key[0]}-{key[1]}") for key in WORK_COUNTS])
def test_factorizations_per_solve(monkeypatch, N, f):
    # work counts, not times, and the meshes they pin: Newton converges on every mesh,
    # a pad-0 polish that misses the fit stops after its first pass and the next
    # starts from it, and a trial iterate that meets the tolerance ends Newton with
    # no solve to confirm it
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


def test_reference_set_node_budget():
    # the window sweep's 10 reference solves take at most 10 000 nodes in all (59 338
    # with the fourth-order scheme and the cubic, 15 249 when Newton stopped short on
    # the first meshes and the refinement followed its error)
    assert sum(WORK_COUNTS[key][0] for key in WORK_COUNTS if key[1] is not None) <= 10_000


# the benchmark's residual gate is 1e-7; these points keep half of it as margin: the
# reference points, (10, 2), and the three worst seeded window_sweep points of seeds
# 0..59 with the fourth-order scheme (seed 31's N = 14, 2.0e-8; seed 8's N = 14; seed
# 58's N = 13)
GATE_MARGIN_POINTS = [(N, _window_p(N, 0.25 if N % 2 == 0 else 0.75)) for N in range(5, 15)] + [
    (10, 2.0), (14, 1.7384057672191702), (14, 1.7349487550887268), (13, 1.840259924622106)]


@pytest.mark.parametrize("N,p", GATE_MARGIN_POINTS)
def test_residual_keeps_half_the_gate(N, p):
    prof = solve_singular(validate_params(N, p), beta=1.0, tol=1e-4)
    tt = np.linspace(prof.t_lo + 0.1, prof.t_hi - 0.1, 4001)
    assert float(np.max(prof.scaled_residual(tt))) <= 5e-8


def _newton_problem(monkeypatch, params, nodes):
    """The gauged problem's first Newton state on `nodes` of its initial mesh, spread
    evenly: (prob, mesh, y, stages)."""
    problem = []

    def capture(prob, x, y, tol, max_nodes, stop=None):
        problem.extend([prob, x, y])
        raise MemoryError

    with monkeypatch.context() as m:
        m.setattr(delaunay, "_collocate", capture)
        with pytest.raises(ShootingError):
            solve_singular(params, beta=1.0, tol=1e-4)
    prob, x, y = problem
    keep = np.linspace(0, x.size - 1, nodes).astype(int)
    mesh = delaunay._mesh(x[keep])
    y = y[:, keep]
    return prob, mesh, y, delaunay._mirk6(prob.fun, mesh, y)[1]


def _close(got, want):
    """Equal up to roundoff in the largest entry."""
    return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_banded_newton_step_matches_dense_solve(monkeypatch, params10, dense_newton_band):
    # the gauged problem at (10, 2) on a 12-node mesh: one Newton step through the band
    # against np.linalg.solve on the dense matrix read back from the band storage
    prob, mesh, y, st = _newton_problem(monkeypatch, params10, 12)

    def residual(flat):  # in the band's row order; unknowns node by node
        y = flat.reshape(-1, 4).T
        res = delaunay._mirk6(prob.fun, mesh, y)[0]
        bcr = prob.bc(y[:, 0], y[:, -1])
        return np.concatenate([bcr[:3], res.ravel(order="F"), bcr[3:]])

    res = residual(y.T.ravel())
    ab, finite = delaunay._newton_band(prob, mesh, y, st)
    assert finite
    assert _close(ab, dense_newton_band(prob, mesh, y, st))
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
        fd[:, c] = (residual(y.T.ravel() + e) - residual(y.T.ravel() - e)) / 2e-6
    assert np.max(np.abs(fd - dense)) <= 1e-8 * np.max(np.abs(dense))
    lu, piv, info = dgbtrf(ab.T, delaunay._KL, delaunay._KU)
    assert info == 0
    step = dgbtrs(lu, delaunay._KL, delaunay._KU, res, piv)[0]
    exact = np.linalg.solve(dense, res)
    assert np.max(np.abs(step - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_newton_band_matches_dense_blocks_on_every_mesh(monkeypatch, dense_newton_band):
    # oracle: the dense-block band, at every Newton matrix of the (10, 2.3) solve, whose
    # last meshes exceed 5 000 nodes; equal up to roundoff, finiteness verdict included
    band, sizes = delaunay._newton_band, []

    def both(prob, mesh, y, st):
        ab, finite = band(prob, mesh, y, st)
        ref = dense_newton_band(prob, mesh, y, st)
        assert _close(ab, ref)
        assert finite == np.isfinite(ref).all()
        sizes.append(mesh.x.size)
        return ab, finite

    monkeypatch.setattr(delaunay, "_newton_band", both)
    solve_singular(validate_params(10, 2.3), beta=1.0, tol=1e-4)
    assert max(sizes) >= 5_000


@pytest.mark.parametrize("where,bad", [("y0", np.nan), ("y0", np.inf), ("y1", -np.inf),
                                       ("y3", np.nan), ("dyb", np.nan)])
def test_newton_band_counts_non_finite_as_the_dense_band_does(monkeypatch, params10,
                                                              dense_newton_band, where, bad):
    # the band reads z0 alone at the nodes and the stages, so its verdict is the dense
    # band's: a non-finite z0 or z1 (through f0 = z1 - dl z0) at a node reaches the
    # stages' z0, while a NaN in z3 reaches only their z1..z3, and both bands stay finite
    prob, mesh, y, _ = _newton_problem(monkeypatch, params10, 12)
    if where == "dyb":
        prob = prob._replace(dyb=prob.dyb.copy())
        prob.dyb[3, 1] = bad
    else:
        y[int(where[1]), 5] = bad
    with np.errstate(all="ignore"):
        st = delaunay._mirk6(prob.fun, mesh, y)[1]
        _, finite = delaunay._newton_band(prob, mesh, y, st)
        ref = dense_newton_band(prob, mesh, y, st)
    assert finite == np.isfinite(ref).all() == (where == "y3")


def test_fun_jac_has_the_companion_pattern(monkeypatch, params10, companion_jac):
    # the band reads the Jacobian as (d, a, k): d on the diagonal, ones on the
    # superdiagonal, (a, k1, k2, k3) added to the last row; that is fun's Jacobian
    # (central differences), and d and a vary along the mesh
    prob, mesh, y, _ = _newton_problem(monkeypatch, params10, 40)
    J = companion_jac(prob, mesh.x, y)
    fd = np.zeros_like(J)
    for j in range(4):
        e = np.zeros((4, 1))
        e[j] = 1e-6 * (1 + np.abs(y[j]).max())
        fd[:, :, j] = ((prob.fun(mesh.x, y + e) - prob.fun(mesh.x, y - e)) / (2 * e[j])).T
    assert np.max(np.abs(fd - J)) <= 1e-7 * np.max(np.abs(J))
    d, a = prob.jac(mesh.x, y)
    assert np.ptp(d) > 0 and np.ptp(a) > 0


def test_mirk6_is_sixth_order():
    # Cash & Singhal's table: on z' = A z + g(t) with a known solution, the residual of
    # the exact nodal values is the local error, O(h^7); halving h divides it by ~128,
    # and the quintic interpolant's residual off the midpoint (the mesh's error control) by ~32
    A = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                  [-1.0, -0.5, -2.0, -0.3]])

    def exact(t):
        return np.vstack([np.sin(t + k) * np.exp(0.1 * t) for k in range(4)])

    def dexact(t):
        return np.vstack([(np.cos(t + k) + 0.1 * np.sin(t + k)) * np.exp(0.1 * t) for k in range(4)])

    def fun(t, z):
        return A @ z + dexact(t) - A @ exact(t)

    def accel(t, z, f):
        return A @ f + (np.vstack([(-np.sin(t + k) + 0.2 * np.cos(t + k) + 0.01 * np.sin(t + k))
                                   * np.exp(0.1 * t) for k in range(4)]) - A @ dexact(t))

    local, interp = [], []
    for n in (5, 10, 20):
        mesh = delaunay._mesh(np.linspace(0.0, 2.0, n + 1))
        y = exact(mesh.x)
        res, st = delaunay._mirk6(fun, mesh, y)
        local.append(np.max(np.abs(res)))
        q = delaunay._quintic(mesh.x, mesh.h, y, st.f, accel(mesh.x, y, st.f))
        tk = mesh.tm + 0.5 * mesh.h * (3 / 7) ** 0.5  # an interior Lobatto node
        interp.append(np.max(np.abs(q.per_interval(tk, 1) - fun(tk, q.per_interval(tk)))))
    for ratios, order in ((local, 7), (interp, 5)):
        assert all(2.0 ** (order - 0.3) <= a / b <= 2.0 ** (order + 0.3) for a, b in zip(ratios, ratios[1:])), ratios


def test_cli_reports_solver_failure_without_traceback():
    src = os.path.dirname(os.path.dirname(biharmlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "biharmlab.cli", "delaunay", "--N", "10",
                           "--p", "2.33"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "error: collocation polish" in proc.stderr


def _same_bits(got, want):
    """Equal bit for bit, NaN and signed zero included, and laid out alike in memory."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.strides == want.strides
            and np.array_equal(got.view(np.int64), want.view(np.int64)))


def test_quintic_matches_ppoly_bit_for_bit():
    # oracle: scipy's PPoly on the same degree-5 coefficients, on axis 1 with extrapolation;
    # the memory layout must match too, since pow and exp take other code paths on strided rows
    from scipy.interpolate import PPoly

    rng = np.random.default_rng(18)
    m = 300
    x = np.sort(rng.uniform(-5.0, 40.0, m))
    c = rng.standard_normal((6, m - 1, 4)) * 10.0 ** rng.integers(-6, 7, (6, m - 1, 4))
    c[5, :10] = -0.0  # scipy sums from 0.0, so a -0.0 constant term evaluates to +0.0
    quintic = delaunay._Spline(np.ascontiguousarray(c.transpose(0, 2, 1)), x)
    pp = PPoly(c.transpose(2, 0, 1), x, extrapolate=True, axis=1)
    t = np.concatenate([rng.uniform(x[0] - 5.0, x[-1] + 5.0, 20000), x, [np.nan]])
    assert np.nanmin(t) < x[0] and np.nanmax(t) > x[-1]  # both extrapolation sides
    for tq in (t, t[:60].reshape(3, 20), 3.3, x[-1]):
        assert _same_bits(quintic(tq), pp(tq))
        assert _same_bits(quintic(tq, 1), pp(tq, 1))
        assert _same_bits(quintic.derivative()(tq), pp.derivative()(tq))
    h = np.diff(x)
    xm, s = x[:-1] + 0.5 * h, 0.5 * h * (3 / 7) ** 0.5
    for xk in (xm, xm + s, xm - s):  # the collocation's interior 5-point Lobatto samples
        assert _same_bits(quintic.per_interval(xk), pp(xk))
        assert _same_bits(quintic.per_interval(xk, 1), pp(xk, 1))


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
