"""Clamped-ball pipeline: kernel oracles, Picard branch, Pohozaev, blow-up."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from biharmlab import auxball
from biharmlab.auxball import (_boggio_ring, blowup_family, blowup_rescale,
                               build_kernel, exact_unit_load, green_apply,
                               hardy_sobolev_check, laplacian_of_solution,
                               make_grid, picard_minimal, pohozaev_residual,
                               radial_clamped_solve, solve_at_amplitude,
                               sphere_area, t_apply)
from biharmlab.core import SolverError, validate_params

P, ALPHA = 2.0, -2.0
# the blow-up amplitudes of the CLI, the acceptance suite and the benchmark
AMPLITUDES = [1e2, 1e3, 1e4, 1e5, 1e6]


def ring_by_quad(N, r, s):
    """K_raw(r, s) by adaptive quadrature of the Boggio integrand, with pow."""
    e4, e2 = (4.0 - N) / 2.0, (2.0 - N) / 2.0

    def integrand(phi):
        rho = 2.0 * r * s * (1.0 - math.cos(phi))
        d2 = (r - s) ** 2 + rho
        a2 = (1.0 - r * s) ** 2 + rho
        G = (a2**e4 - d2**e4) / (4.0 - N) - (d2 * a2**e2 - d2**e4) / (2.0 - N)
        return G * math.sin(phi) ** (N - 2)

    val = quad(integrand, 0.0, math.pi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    return sphere_area(N - 1) * val


@pytest.mark.parametrize("N", [5, 6, 9, 10, 14])  # sqrt path, even path, single factor
def test_ring_kernel_matches_quadrature(N):
    s = make_grid(M=16).nodes
    K = _boggio_ring(N, s, s)
    for i in range(s.size - 1):
        for j in range(i + 1, s.size - 1):
            ref = ring_by_quad(N, s[i], s[j])
            assert abs(K[i, j] - ref) <= 1e-9 * abs(ref), (i, j)
    assert np.array_equal(K, K.T)
    assert np.all(K[-1] == 0.0) and np.all(K[:, -1] == 0.0)
    with pytest.raises(ValueError, match="one grid"):
        _boggio_ring(N, s, s[:-1])


def ring_by_mpmath(mp, N, r, s):
    """K_raw(r, s) to 40 digits: mpmath.quad of the Boggio ring integrand."""
    with mp.workdps(40):
        r, s = mp.mpf(r), mp.mpf(s)
        e4, e2 = mp.mpf(4 - N) / 2, mp.mpf(2 - N) / 2

        def integrand(phi):
            rho = 4 * r * s * mp.sin(phi / 2) ** 2  # 2 r s (1 - cos phi)
            d2 = (r - s) ** 2 + rho
            a2 = (1 - r * s) ** 2 + rho
            G = (a2**e4 - d2**e4) / (4 - N) - (d2 * a2**e2 - d2**e4) / (2 - N)
            return G * mp.sin(phi) ** (N - 2)

        # breakpoints at 4^k times the width |r-s|/sqrt(rs) of the near-singularity
        pts, h = [mp.mpf(0)], (abs(r - s) / mp.sqrt(r * s) if r > 0 else mp.pi)
        while 0 < h < mp.pi / 2:
            pts.append(h)
            h *= 4
        area = 2 * mp.pi ** (mp.mpf(N - 1) / 2) / mp.gamma(mp.mpf(N - 1) / 2)
        return float(area * mp.quad(integrand, pts + [mp.pi]))


@pytest.mark.parametrize("N", [5, 6, 9, 10, 14])
def test_ring_kernel_matches_mpmath(N):
    mp = pytest.importorskip("mpmath")
    grid = make_grid(M=320, sigma_g=3.0)
    s = grid.nodes
    kern = build_kernel(N, grid)
    K = kern.K / kern.norm_constant
    last = s.size - 2  # the last interior node, 9.3e-3 from the sphere
    entries = [(K[last, last], s[last], s[last]),
               (K[last - 1, last], s[last - 1], s[last]),
               (K[40, 200], s[40], s[200]),
               (kern.K_origin[last] / kern.norm_constant, 0.0, s[last])]
    for val, r, ss in entries:
        ref = ring_by_mpmath(mp, N, r, ss)
        assert abs(val - ref) <= 1e-13 * abs(ref), (r, ss, val, ref)


def test_kernel_origin_row_closed_form(kernel10):
    N, s = 10, kernel10.grid.nodes
    K0 = kernel10.K_origin / kernel10.norm_constant
    closed = sphere_area(N) * ((1.0 - s ** (4.0 - N)) / (4.0 - N)
                               - (s**2 - s ** (4.0 - N)) / (2.0 - N))
    assert_allclose(K0, closed, rtol=1e-12, atol=0.0)
    assert K0[-1] == 0.0
    for j in (0, 40, 100, 158):
        assert K0[j] == pytest.approx(ring_by_quad(N, 0.0, s[j]), rel=1e-9)


@pytest.mark.parametrize("N", [6, 8, 10])
def test_green_unit_load_oracle(N):
    grid = make_grid(M=128, alpha_w=0.0)
    kern = build_kernel(N, grid)
    u = green_apply(kern, np.ones_like(grid.nodes))
    ex = exact_unit_load(N, grid.nodes)
    assert float(np.max(np.abs(u - ex)) / np.max(ex)) <= 1e-4


def test_green_zero_and_linearity(kernel10, rng):
    grid = kernel10.grid
    assert_allclose(green_apply(kernel10, np.zeros_like(grid.nodes)), 0.0, atol=0.0)
    f = rng.standard_normal(grid.nodes.size)
    g = rng.standard_normal(grid.nodes.size)
    lhs = green_apply(kernel10, 2.5 * f - 1.25 * g)
    rhs = 2.5 * green_apply(kernel10, f) - 1.25 * green_apply(kernel10, g)
    assert float(np.max(np.abs(lhs - rhs))) <= 1e-10 * float(np.max(np.abs(rhs)) + 1.0)


def test_kernel_symmetry_positivity(kernel10):
    K = kernel10.K
    assert float(np.max(np.abs(K - K.T))) <= 1e-8 * float(np.max(np.abs(K)))
    # Boggio positivity away from the clamped boundary row (which is 0)
    assert np.all(K[:-1, :-1] > 0.0)
    assert float(np.max(np.abs(K[-1]))) <= 1e-12 * float(np.max(K))
    # mirrored assembly: exactly symmetric, exact zeros at |x| = 1 and |y| = 1
    assert np.array_equal(K, K.T)
    assert np.all(K[-1] == 0.0) and np.all(K[:, -1] == 0.0)


def test_self_adjointness(kernel10, rng):
    grid = kernel10.grid
    inner = grid.nodes ** (kernel10.N - 1.0) * grid.weights
    for _ in range(4):
        f = rng.standard_normal(grid.nodes.size)
        g = rng.standard_normal(grid.nodes.size)
        lhs = float((green_apply(kernel10, f) * g) @ inner)
        rhs = float((f * green_apply(kernel10, g)) @ inner)
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1e-30)


def test_green_vs_radial_integrator(kernel10):
    # independent kernel-free route through cumulative quadrature; it is the
    # lower-order side (trapezoid), so the agreement tightens under refinement
    def mismatch(kern):
        s = kern.grid.nodes
        f = np.cos(3.0 * s) + 0.5 * s**2
        u_k = green_apply(kern, f)
        u_r = radial_clamped_solve(kern.grid, 10, f)
        return float(np.max(np.abs(u_k - u_r)) / np.max(np.abs(u_r)))

    base = mismatch(kernel10)
    assert base <= 5e-3
    fine = mismatch(build_kernel(10, make_grid(M=2 * kernel10.grid.M, alpha_w=ALPHA)))
    assert fine <= 0.4 * base


def test_t_apply_basics(kernel10):
    s = kernel10.grid.nodes
    u0 = np.zeros_like(s)
    base = t_apply(kernel10, u0, 1e-3, P, ALPHA)
    assert_allclose(base, 1e-3 * green_apply(kernel10, s**ALPHA), rtol=1e-13)
    assert_allclose(t_apply(kernel10, u0, 2e-3, P, ALPHA), 2.0 * base, rtol=1e-13)
    # positive and radially nonincreasing for u >= 0
    out = t_apply(kernel10, np.ones_like(s), 1e-3, P, ALPHA)
    assert np.all(out[:-1] > 0.0)
    assert np.all(np.diff(out) <= 1e-14)


def test_picard_minimal(kernel10):
    pic = picard_minimal(kernel10, 1e-3, P, ALPHA)
    assert pic.converged and pic.monotone
    assert np.all(pic.u >= 0.0)
    assert np.all(np.diff(pic.u) <= 1e-14)  # radially nonincreasing
    assert pic.residual <= 1e-10 * max(1.0, float(np.max(pic.u)))
    zero = picard_minimal(kernel10, 0.0, P, ALPHA)
    assert float(np.max(zero.u)) == 0.0


@pytest.mark.parametrize("N", [9, 11])
def test_picard_nonnegative_with_exact_boundary_zero(N):
    # cancellation roundoff in the r = 1 row once made u[-1] ~ -1e-24 here
    params = validate_params(N, 2.0)
    kern = build_kernel(N, make_grid(M=160, alpha_w=params.alpha_w))
    pic = picard_minimal(kern, 1e-3, params.p, params.alpha_w)
    assert pic.converged
    assert np.all(pic.u >= 0.0)
    assert pic.u[-1] == 0.0


def test_picard_branch_monotone_in_lambda(kernel10):
    lams = [2e-4, 5e-4, 1e-3, 2e-3]
    sols = [picard_minimal(kernel10, lam, P, ALPHA) for lam in lams]
    assert all(s.converged for s in sols)
    u0s = [s.u_origin for s in sols]
    assert all(b > a for a, b in zip(u0s, u0s[1:]))
    # minimal solution sits below the supersolution from a larger lambda
    assert np.all(sols[0].u <= sols[-1].u + 1e-15)
    # continuity: u_lambda(0) ~ linear in lambda at this scale
    ratio = u0s[1] / u0s[0]
    assert ratio == pytest.approx(2.5, rel=0.05)


def test_picard_divergence_reported(kernel10):
    big = picard_minimal(kernel10, 1e4, P, ALPHA, max_iter=400)
    assert not big.converged


def test_pohozaev_unit_load_specialization():
    """f = 1 (so F = t): closed-form solution, exact rational side integrals.

    LHS = int_B [u - (N-4)/(2N) (lap u)^2] dx, RHS = |S^{N-1}| (lap u(1))^2 / (2N)
    with u = (1-r^2)^2 / (8N(N+2)); the identity holds exactly, so quadrature
    sets the floor.
    """
    N = 10
    c = Fraction(8 * N * (N + 2))
    # int_0^1 (1-r^2)^2 r^{N-1} dr and int_0^1 (-4N + 4(N+2) r^2)^2 r^{N-1} dr
    i_u = (Fraction(1, N) - Fraction(2, N + 2) + Fraction(1, N + 4)) / c
    i_lap = (Fraction(16 * N * N, N) - Fraction(32 * N * (N + 2), N + 2)
             + Fraction(16 * (N + 2) ** 2, N + 4)) / c**2
    lhs_exact = i_u - Fraction(N - 4, 2 * N) * i_lap
    rhs_exact = Fraction(16, 2 * N) / c**2 * (N + 2 - N) ** 2 * 4  # (lap u(1))^2 = (8/c)^2... replaced below
    lap1 = Fraction(-4 * N + 4 * (N + 2), 1) / c
    rhs_exact = lap1**2 / (2 * N)
    assert lhs_exact == rhs_exact  # the identity itself, exactly
    grid = make_grid(M=160, alpha_w=0.0)
    kern = build_kernel(N, grid)
    u = green_apply(kern, np.ones_like(grid.nodes))
    lap = laplacian_of_solution(grid, N, np.ones_like(grid.nodes), alpha_w=0.0, f_coeff0=1.0)
    lhs = grid.integrate_ball(u - (N - 4.0) / (2.0 * N) * lap**2, N)
    rhs = sphere_area(N) * lap[-1] ** 2 / (2.0 * N)
    assert abs(lhs - rhs) <= 1e-4 * abs(rhs)


def test_pohozaev_zero():
    grid = make_grid(M=64, alpha_w=0.0)
    kern = build_kernel(10, grid)
    res = pohozaev_residual(kern, np.zeros_like(grid.nodes), 0.0, P, ALPHA)
    assert res == 0.0


def test_hardy_sobolev(kernel10):
    grid = kernel10.grid
    u = (1.0 - grid.nodes**2) ** 2
    lap = -4.0 * 10 + 4.0 * 12 * grid.nodes**2
    ratio = hardy_sobolev_check(grid, 10, u, 2.0, lap_u=lap)
    assert np.isfinite(ratio) and ratio > 0.0
    # scale invariance and the FD fallback
    assert hardy_sobolev_check(grid, 10, 7.0 * u, 2.0, lap_u=7.0 * lap) == pytest.approx(ratio, rel=1e-12)
    assert hardy_sobolev_check(grid, 10, u, 2.0) == pytest.approx(ratio, rel=2e-2)
    assert hardy_sobolev_check(grid, 10, np.zeros_like(u), 2.0, lap_u=np.zeros_like(u)) == 0.0


def test_amplitude_continuation(kernel10):
    u, lam = solve_at_amplitude(kernel10, 5.0, P, ALPHA)
    s = kernel10.grid.nodes
    dens = s**ALPHA * (1.0 + np.abs(u)) ** P
    u0 = lam * kernel10.apply_origin(dens)
    assert u0 == pytest.approx(5.0, rel=1e-9)
    resid = np.max(np.abs(u - lam * kernel10.apply(dens)))
    assert resid <= 1e-9 * max(1.0, float(np.max(u)))


def test_amplitude_continuation_failure_is_typed(kernel10, monkeypatch):
    with pytest.raises(SolverError, match="amplitude continuation: no convergence") as exc:
        solve_at_amplitude(kernel10, 5.0, P, ALPHA, max_iter=1)
    assert exc.value.stage == "amplitude continuation"

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(auxball, "solve_banded", singular)
    with pytest.raises(SolverError, match="amplitude continuation: Singular matrix at a=5.0"):
        solve_at_amplitude(kernel10, 5.0, P, ALPHA)


def test_amplitude_continuation_non_finite_residual_is_typed():
    # the Newton iterate overflows (1 + u)^p here; the solve stops at the first
    # non-finite residual, silently, instead of iterating on NaN to max_iter
    params = validate_params(5, 7.763093072275918)
    kern = build_kernel(5, make_grid(M=320, sigma_g=3.0, alpha_w=params.alpha_w))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SolverError, match=r"amplitude continuation: non-finite residual "
                                              r"at a=\S+ after \d+ Newton steps") as exc:
            blowup_family(kern, AMPLITUDES, params.p, params.alpha_w)
    assert exc.value.stage == "amplitude continuation"
    assert caught == []


@pytest.mark.parametrize("M, sigma_g", [(160, 2.0), (320, 3.0)])
def test_kernel_is_generator_representable(M, sigma_g):
    # K[i, j] = c (C[hi] - s[lo]^2 L[hi]): the rank-2 semiseparable form the
    # banded Newton step relies on
    grid = make_grid(M=M, sigma_g=sigma_g)
    s = grid.nodes
    idx = np.arange(s.size)
    hi, lo = np.maximum.outer(idx, idx), np.minimum.outer(idx, idx)
    for N in range(5, 15):
        kern = build_kernel(N, grid)
        C, L = auxball._ring_terms(N, s)
        gen = kern.norm_constant * (C[hi] - s[lo] ** 2 * L[hi])
        scale = float(np.max(np.abs(kern.K)))
        assert float(np.max(np.abs(kern.K - gen))) <= 1e-14 * scale, N
        assert_allclose(kern.K_origin, kern.norm_constant * C, rtol=1e-15, atol=0.0)


def norm(v):
    return float(np.max(np.abs(v)))


@pytest.mark.parametrize("N", [5, 8, 10, 14])
def test_banded_newton_step_solves_the_bordered_system(N):
    params = validate_params(N, (N + 2.0) / (N - 4.0))  # mid-window
    p, a_w = params.p, params.alpha_w
    kern = build_kernel(N, make_grid(M=320, sigma_g=3.0, alpha_w=a_w))
    s = kern.grid.nodes
    step = auxball._newton_band(kern, p, a_w)
    for amp in (1.0, 1e2, 1e4):
        u = amp * (1.0 - s**2) ** 2 * (1.0 + 0.1 * np.sin(7.0 * s))
        dens = s**a_w * (1.0 + np.abs(u)) ** p
        Gu, G0 = kern.apply(dens), kern.apply_origin(dens)
        lam = 0.9 * amp / G0
        F, F0 = u - lam * Gu, lam * G0 - amp
        du, dlam = step(u, lam, Gu, G0, F, F0)
        # the dense bordered Jacobian, built here from K and K_origin alone
        g = p * s**a_w * (1.0 + np.abs(u)) ** (p - 1.0) * s ** (N - 1.0) * kern.grid.weights
        A = np.zeros((s.size + 1, s.size + 1))
        A[:-1, :-1] = np.eye(s.size) - lam * kern.K * g[None, :]
        A[:-1, -1] = -Gu
        A[-1, :-1] = lam * kern.K_origin * g
        A[-1, -1] = G0
        b = -np.concatenate([F, [F0]])
        x = np.concatenate([du, [dlam]])
        backward = norm(A @ x - b) / (float(np.max(np.sum(np.abs(A), axis=1))) * norm(x) + norm(b))
        assert backward <= 1e-13, (amp, backward)
        # where the system is well enough conditioned, the steps agree too
        if np.linalg.cond(A) <= 1e10:
            x_dense = np.linalg.solve(A, b)
            assert norm(x - x_dense) <= 1e-12 * norm(x_dense), amp


def test_kernel_quadrature_breach_is_typed(monkeypatch):
    monkeypatch.setattr(auxball, "exact_unit_load", lambda N, r: (1.0 - r) / (8.0 * N * (N + 2.0)))
    with pytest.raises(SolverError, match="kernel quadrature: unit-load oracle off") as exc:
        build_kernel(8, make_grid(M=64, alpha_w=0.0))
    assert exc.value.stage == "kernel quadrature"


def test_blowup_family_and_rescale():
    grid = make_grid(M=320, sigma_g=3.0, alpha_w=ALPHA)
    kern = build_kernel(10, grid)
    fam = blowup_family(kern, AMPLITUDES, P, ALPHA)
    # the lambdas of the dense-step Newton solve, which the banded step reproduces
    dense = [312.2799562840934, 307.89607459463105, 312.10809931285445,
             310.73638759099094, 310.9311426550557]
    assert_allclose([lam for lam, _ in fam], dense, rtol=1e-10, atol=0.0)
    rep = blowup_rescale(fam, kern, P, ALPHA)
    # normalization v_k(0) = 1 by construction; r_k decreasing, lambda away from 0
    assert all(np.diff(rep.r_scales) < 0.0)
    assert min(rep.lambdas) > 100.0
    assert rep.tail_exponent_nominal == pytest.approx(-2.0)
    assert rep.tail_exponent == pytest.approx(-2.0, abs=0.1)
    with pytest.raises(ValueError):
        blowup_rescale(fam[:1], kern, P, ALPHA)


def test_kernel_cache_roundtrip(tmp_path):
    grid = make_grid(M=64, alpha_w=0.0)
    k1 = build_kernel(8, grid, cache_dir=str(tmp_path))
    k2 = build_kernel(8, grid, cache_dir=str(tmp_path))
    assert_allclose(k1.K, k2.K, rtol=0.0, atol=0.0)
    assert k1.norm_constant == k2.norm_constant
    files = list(tmp_path.glob("ballkernel_*.npz"))
    assert len(files) == 1
    assert files[0].name == "ballkernel_v3_N8_M64_g2.npz"


def test_kernel_cache_write_leaves_no_partial_file(tmp_path, monkeypatch):
    def interrupted(fh, **arrays):
        fh.write(b"PK\x03\x04 truncated")
        raise OSError("disk full")

    monkeypatch.setattr(auxball.np, "savez", interrupted)
    with pytest.raises(OSError, match="disk full"):
        build_kernel(8, make_grid(M=64, alpha_w=0.0), cache_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_verify_auxball_defaults_pass_at_10_2():
    from biharmlab.verify import run_suites

    checks = run_suites(10, 2.0, suites=["auxball"])
    assert [c["name"] for c in checks] == ["auxball.green_oracle", "auxball.self_adjoint",
                                           "auxball.picard_minimal", "auxball.pohozaev"]
    assert all(c["ok"] for c in checks), [c for c in checks if not c["ok"]]


def test_grid_quadrature():
    grid = make_grid(M=160, alpha_w=ALPHA)
    # integrates the graded weight exactly enough: int_0^1 s^{-2} * s^{N-1} ds
    val = grid.integrate(grid.nodes ** (-2.0 + 9.0))
    assert val == pytest.approx(1.0 / 8.0, rel=1e-6)
    assert np.all(np.diff(grid.nodes) > 0.0)
    assert grid.nodes[0] > 0.0 and grid.nodes[-1] == 1.0
