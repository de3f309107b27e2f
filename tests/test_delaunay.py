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

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_bvp
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.optimize import brentq

import biharmlab
from biharmlab import delaunay
from biharmlab.core import validate_params
from biharmlab.delaunay import (ShootingError, dissipation_check, energy,
                                export_profile, hamiltonian, import_profile,
                                kelvin_transform, monotonicity_report,
                                normalize_small_tail, scale_to_beta, shoot_once,
                                solve_singular)

T_LO, T_HI = -18.0, 24.63


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


def test_r_view_system_consistency(profile10):
    """Radial residual on an annulus via finite differences (non-circular).

    Differentiate Delta u numerically and compare with the state's (Delta u)'
    and with the closed radial equation; this checks the Emden-Fowler to
    r-view transformation independently of the construction of u''''.
    """
    tau = np.linspace(np.log(0.3), np.log(3.0), 4001)
    h = tau[1] - tau[0]
    r = np.exp(tau)
    v = profile10.r_view(r)

    def d_dtau4(f):
        # fourth-order central stencil on the uniform log grid (interior)
        return (-f[4:] + 8.0 * f[3:-1] - 8.0 * f[1:-3] + f[:-4]) / (12.0 * h)

    mid = slice(2, -2)
    # differentiate in the log variable: power-law fields stay well-scaled
    dlap_fd = d_dtau4(v.lap) / r[mid]
    assert np.max(np.abs(dlap_fd - v.dlap[mid]) / np.abs(v.dlap[mid])) <= 1e-8
    # second radial derivative of Delta u closes the equation Delta^2 u = u^p;
    # the two linear terms cancel to the size of u^p, so normalize by the
    # largest participating term
    d2lap_fd = d_dtau4(v.dlap) / r[mid]
    lower = (10 - 1.0) / r[mid] * v.dlap[mid]
    resid = d2lap_fd + lower - v.u[mid] ** 2
    scale = np.maximum(np.abs(d2lap_fd), np.maximum(np.abs(lower), v.u[mid] ** 2))
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


def test_dilation_acts_on_far_field(params10, profile10):
    # dilation by eps multiplies the far-field coefficient by eps^{N-4-4/(p-1)}
    eps = 0.3
    a = params10.singular_rate
    prof2 = scale_to_beta(profile10, profile10.beta * eps**params10.slow_rate)
    r = np.geomspace(5.0, 50.0, 20)
    u2 = prof2.r_view(r).u
    u1 = profile10.r_view(r / eps).u
    assert_allclose(u2, eps**-a * u1, rtol=1e-12)


def test_translation_equivariance_vs_fresh_solve(params10, profile10):
    fresh = solve_singular(params10, beta=3.0, tol=1e-4)
    shifted = scale_to_beta(profile10, 3.0)
    tt = np.linspace(max(fresh.t_lo, shifted.t_lo) + 0.3,
                     min(fresh.t_hi, shifted.t_hi) - 0.3, 400)
    diff = np.max(np.abs(fresh.ubar(tt) - shifted.ubar(tt))) / params10.c_p
    assert diff <= 1e-6


def test_normalize_small_tail(params10, profile10):
    prof = normalize_small_tail(profile10, 0.01)
    r = np.geomspace(1.0, 1e6, 400)
    vals = r**4 * prof.r_view(r).u ** (params10.p - 1.0)
    assert np.max(vals) <= 0.01 * (1.0 + 1e-9)
    # identity when the bound already holds globally
    big = (params10.p + 1.0) / 2.0 * params10.k_const
    assert normalize_small_tail(profile10, 1.1 * big).t_shift == profile10.t_shift
    # doubling alpha never increases the applied dilation
    s1 = normalize_small_tail(profile10, 0.01).t_shift
    s2 = normalize_small_tail(profile10, 0.02).t_shift
    assert s2 >= s1
    # a bound the mesh start already exceeds is met on the far-field tail
    assert profile10.ubar(profile10.t_lo) ** (params10.p - 1.0) > 1e-6
    prof = normalize_small_tail(profile10, 1e-6)
    vals = r**4 * prof.r_view(r).u ** (params10.p - 1.0)
    assert np.max(vals) <= 1e-6 * (1.0 + 1e-9)


def test_kelvin_transform(params10, profile10):
    kv = kelvin_transform(profile10)
    assert kv.value_at_zero == pytest.approx(profile10.beta)
    # utilde at the small end approaches beta (bounded, no singularity)
    lo, hi = math.exp(T_LO), math.exp(T_HI)
    assert kv.value(np.array([lo * 1.5]))[0] == pytest.approx(profile10.beta, rel=1e-4)
    assert kv.tail_exponent_nominal == pytest.approx(-2.0)
    assert kv.tail_slope() == pytest.approx(-2.0, abs=0.01)
    # the tail coefficient is c_p: utilde(rho) rho^{(4+alpha)/(p-1)} -> c_p
    rho_far = np.array([hi / 3.0])
    assert kv.value(rho_far)[0] * rho_far[0] ** 2 == pytest.approx(params10.c_p, rel=1e-6)
    assert kv.weak_residual(0.5, 4.0) <= 1e-4


def test_export_import_roundtrip(profile10, tmp_path):
    path = tmp_path / "profile.txt"
    export_profile(profile10, path)
    prof2 = import_profile(path)
    path2 = tmp_path / "profile2.txt"
    export_profile(prof2, path2)
    assert path.read_bytes() == path2.read_bytes()
    tt = np.linspace(profile10.t_lo + 0.2, profile10.t_hi - 0.2, 300)
    assert_allclose(prof2.ubar(tt), profile10.ubar(tt), atol=1e-9 * 192.0)
    assert prof2.beta == profile10.beta
    assert prof2.params.N == 10
    # the tails come from the exported end states, so they survive the round trip
    tails = np.concatenate([np.linspace(T_LO, profile10.t_lo - 0.01, 50),
                            np.linspace(profile10.t_hi + 0.01, T_HI, 50)])
    assert_allclose(prof2.ubar_state(tails), profile10.ubar_state(tails), rtol=1e-12, atol=0.0)


def test_solve_rejects_bad_arguments(params10):
    with pytest.raises(ValueError):
        solve_singular(params10, beta=-1.0)
    with pytest.raises(ValueError):
        solve_singular(params10, beta=1.0, tol=1e-7)


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

    monkeypatch.setattr(delaunay, "dgbtrf", singular)
    with pytest.raises(ShootingError, match="collocation polish: A singular Jacobian"):
        solve_singular(params10, beta=1.0, tol=1e-4)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_newton_matrix_is_never_factored(monkeypatch):
    # at (10, 2.32) the gauge overflows, so the first Newton matrix holds NaN
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return dgbtrf(*args, **kwargs)

    monkeypatch.setattr(delaunay, "dgbtrf", counting)
    with pytest.raises(ShootingError, match="collocation polish"):
        solve_singular(validate_params(10, 2.32), beta=1.0, tol=1e-4)
    assert not calls


@pytest.mark.parametrize("N,f", [(10, None), (11, 0.75), (5, 0.75)])
def test_banded_collocation_matches_solve_bvp(monkeypatch, N, f):
    # oracle: scipy's solve_bvp on the same gauged problem, at every pad the loop tries;
    # (11, 0.75) solves twice, (5, 0.75) has the longest mesh of the three
    params = validate_params(N, 2.0 if f is None else _window_p(N, f))
    collocate, runs = delaunay._collocate, []

    def both(fun, fun_jac, bc, bc_jac, x, y, tol, max_nodes):
        ref = solve_bvp(fun, bc, x, y, fun_jac=fun_jac, bc_jac=bc_jac, tol=tol,
                        max_nodes=max_nodes)
        res = collocate(fun, fun_jac, bc, bc_jac, x, y, tol, max_nodes)
        runs.append((ref, res))
        return res

    monkeypatch.setattr(delaunay, "_collocate", both)
    solve_singular(params, beta=1.0, tol=1e-4)
    assert len(runs) == (2 if N == 11 else 1)
    mu, cp = params.slow_rate, params.c_p
    for ref, res in runs:
        assert ref.status == res.status == 0
        assert np.array_equal(ref.x, res.x)
        t = np.linspace(res.x[0], res.x[-1], 20001)
        ubar_ref = delaunay._ScaledSpline(ref.sol, cp, delaunay.H_REL, mu)(t)[0]
        ubar = delaunay._ScaledSpline(res.sol, cp, delaunay.H_REL, mu)(t)[0]
        assert np.max(np.abs(ubar - ubar_ref)) <= 1e-12 * cp


def test_banded_newton_step_matches_dense_solve(monkeypatch, params10):
    # the gauged problem at (10, 2) on a 12-node mesh: one Newton step through the band
    # against np.linalg.solve on the dense matrix read back from the band storage
    problem = []

    def capture(fun, fun_jac, bc, bc_jac, x, y, tol, max_nodes):
        problem.extend([fun, fun_jac, bc, bc_jac, x, y])
        raise MemoryError

    monkeypatch.setattr(delaunay, "_collocate", capture)
    with pytest.raises(ShootingError):
        solve_singular(params10, beta=1.0, tol=1e-4)
    fun, fun_jac, bc, bc_jac, x, y = problem
    keep = np.linspace(0, x.size - 1, 12).astype(int)
    x, y = x[keep], y[:, keep]
    h = np.diff(x)

    def residual(flat):  # in the band's row order; unknowns node by node
        y = flat.reshape(-1, 4).T
        col, y_mid, _, _ = delaunay._lobatto(fun, x, h, y)
        bcr = bc(y[:, 0], y[:, -1])
        return np.concatenate([bcr[:3], col.ravel(order="F"), bcr[3:]]), y_mid

    res, y_mid = residual(y.T.ravel())
    ab = delaunay._newton_band(fun_jac, *bc_jac(y[:, 0], y[:, -1]), x, h, y, y_mid)
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


def test_cli_reports_solver_failure_without_traceback():
    src = os.path.dirname(os.path.dirname(biharmlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "biharmlab.cli", "delaunay", "--N", "10",
                           "--p", "2.32"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "error: collocation polish" in proc.stderr
