"""Invariant suites behind `biharmlab verify-all`: the one home of every check.

Each suite returns check records {name, ok, detail}; every detail string is
built from numbers computed in-process with a fixed seed, so repeated runs
are byte-identical.  Each invariant is computed and judged here only: the
acceptance tests assert these checks by name at (N, p) = (10, 2), and the
CLI reports the figures it shares with them through profile_figures,
translation_residual and auxball.unit_load_error.
"""

from __future__ import annotations

import numpy as np

from .core import (emden_coeffs, k_of, origin_spectrum, serrin_exponent, sobolev_exponent,
                   validate_params)
from .indicial import indicial_roots, indicial_roots_for, verify_ordering, weight_window

ALL_SUITES = ("constants", "indicial", "symbol", "delaunay", "modes", "auxball", "glue")


def _check(name, ok, detail) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _p_grid(N: int, n: int = 20) -> np.ndarray:
    lo, hi = serrin_exponent(N), sobolev_exponent(N)
    pad = 0.02 * (hi - lo)
    return np.linspace(lo + pad, hi - pad, n)


def profile_figures(prof):
    """(max scaled residual, ubar, sup ubar^(p-1)) at the 4001 times the profile checks sample."""
    tt = np.linspace(prof.t_lo + 0.1, prof.t_hi - 0.1, 4001)
    res = float(np.max(prof.scaled_residual(tt)))
    ub = prof.ubar(tt)
    return res, ub, float(np.max(ub ** (prof.params.p - 1.0)))


def translation_residual(prof) -> float:
    """Max residual of u1' in the j = 1 mode equation at 600 times across the profile mesh."""
    from .linearized import translation_kernel_residual

    t = np.linspace(prof.t_hi - 0.5, prof.t_lo + 0.5, 600)
    return float(np.max(translation_kernel_residual(prof, t)))


def suite_constants(N, p, **_) -> list:
    checks = []
    params = validate_params(N, p)
    K = emden_coeffs(params)
    signs_ok, mono_ok, bound_ok, serrin_ok = True, True, True, True
    for NN in range(5, 15):
        ps = _p_grid(NN, 50)
        ks = np.array([k_of(NN, float(q)) for q in ps])
        coeffs = [emden_coeffs(validate_params(NN, float(q))) for q in ps]
        signs_ok &= bool(np.all(ks > 0)) and all(c.K1 < 0 < c.K3 for c in coeffs)
        mono_ok &= bool(np.all(np.diff(ps * ks) > 0))
        bound_ok &= bool(np.all(ps * (ps + 1.0) / 2.0 * ks <= NN**3 * (NN + 4.0) / 16.0 + 1e-9))
        serrin_ok &= abs(k_of(NN, serrin_exponent(NN))) <= 1e-10
    checks.append(_check("constants.k_positive_K3_pos_K1_neg", signs_ok,
                         "grid N=5..14 x 50 p-values; k(p,N) > 0, K3 > 0, K1 < 0"))
    checks.append(_check("constants.A_p_monotone", mono_ok,
                         "finite-difference slope of p*k(p,N) positive on every grid"))
    checks.append(_check("constants.mode_estimate_bound", bound_ok,
                         "p(p+1)/2 k(p,N) <= N^3(N+4)/16 on every grid"))
    checks.append(_check("constants.serrin_zero", serrin_ok,
                         "k(N, N/(N-4)) = 0 to 1e-10 for N=5..14"))
    # characteristic/indicial correspondence at (N, p)
    mu = np.sort(origin_spectrum(K).real)
    a = 4.0 / (params.p - 1.0)
    target = np.sort([-(g + a) for g in (0.0, 2.0, 2.0 - N, 4.0 - N)])
    err = float(np.max(np.abs(mu - target)))
    checks.append(_check("constants.char_roots_match_infinity_indicial", err <= 1e-8,
                         f"max root error {err:.3e} (tol 1e-8)"))
    return checks


def suite_indicial(N, p, **_) -> list:
    checks = []
    params = validate_params(N, p)
    worst_res = 0.0
    for j in range(0, 2 * N + 1):
        d = indicial_roots(params, j)
        worst_res = max(worst_res, max(d.residuals(N, params.A_p)))
    checks.append(_check("indicial.root_residuals", worst_res <= 1e-9,
                         f"max scaled residual {worst_res:.3e} (tol 1e-9)"))
    bad = []
    for NN in range(9, 15):
        for q in _p_grid(NN, 20):
            rep = verify_ordering(validate_params(NN, float(q)), 2 * NN)
            if not rep.all_ok:
                bad.append((NN, float(q), rep.failures()[:2]))
    checks.append(_check("indicial.ordering_chain", not bad,
                         f"N=9..14 x 20 p-values x j<=2N; failures: {bad[:3]}"))
    ww = weight_window(params)
    ok = (ww.nu_lo < ww.nu_hi <= (4 - N) / 2 + 1e-12 <= ww.mu_lo + 1e-12
          and abs(ww.mu + ww.nu - (4 - N)) < 1e-12)
    checks.append(_check("indicial.weight_window", ok,
                         f"nu in ({ww.nu_lo:.4f}, {ww.nu_hi:.4f}), mu default {ww.mu:.4f}"))
    # branch continuity: roots at zero converge to roots at infinity as A -> 0
    near, limit = (np.sort_complex(np.asarray(indicial_roots_for(N, 0.0, A)))
                   for A in (params.A_p * 10.0**-7, 0.0))
    cont_ok = np.max(np.abs(limit - near)) < 1e-3
    checks.append(_check("indicial.branch_continuity", cont_ok,
                         "root multiset continuous along A_p -> 0 scan"))
    return checks


def suite_symbol(N, p, **_) -> list:
    from .symbol import symbol_indicial_identity, theta_cylinder, theta_hyperbolic

    checks = []
    xi = np.linspace(0.0, 12.0, 100)
    worst = 0.0
    for NN in range(6, 15):
        for j in range(0, 11):
            worst = max(worst, float(np.max(symbol_indicial_identity(NN, j, xi))))
    checks.append(_check("symbol.gamma2_identity", worst <= 1e-8,
                         f"max relative residual {worst:.3e} over N=6..14, j<=10 (tol 1e-8)"))
    even_pos_ok = True
    mono_ok = True
    for g in (1.0, 1.5, 2.0):
        prev = None
        for j in range(0, 11):
            th_p = theta_cylinder(N, g, j, xi)
            th_m = theta_cylinder(N, g, j, -xi)
            if not (np.all(th_p > 0) and np.allclose(th_p, th_m, rtol=0, atol=0)):
                even_pos_ok = False
            if g == 2.0 and prev is not None and not np.all(th_p > prev):
                mono_ok = False
            prev = th_p
    checks.append(_check("symbol.even_positive", even_pos_ok,
                         "Theta even in xi and positive, gamma in {1, 3/2, 2}"))
    checks.append(_check("symbol.mode_monotone", mono_ok,
                         "Theta increasing in j at gamma = 2"))
    spot = float(theta_cylinder(10, 2.0, 0, np.array([0.0]))[0])
    checks.append(_check("symbol.spot_value_225", abs(spot - 225.0) <= 1e-8 * 225.0,
                         f"Theta(xi=0, j=0, N=10, gamma=2) = {spot!r}"))
    bit_ok = np.array_equal(theta_cylinder(N, 2.0, 3, xi), theta_hyperbolic(N, 2.0, 3, xi))
    checks.append(_check("symbol.cylinder_hyperbolic_identical", bit_ok,
                         "both entry points evaluate bit-identically"))
    return checks


def suite_delaunay(N, p, profile, **_) -> list:
    from .delaunay import dissipation_check, monotonicity_report, scale_to_beta

    checks = []
    params = validate_params(N, p)
    prof = profile
    d = prof.diagnostics
    checks.append(_check("delaunay.endpoint", d["endpoint_rel"] <= 1e-4,
                         f"|ubar(end) - c_p|/c_p = {d['endpoint_rel']:.3e} (tol 1e-4)"))
    res, ub, supr = profile_figures(prof)
    checks.append(_check("delaunay.ode_residual", res <= 1e-7,
                         f"max scaled residual {res:.3e} (tol 1e-7)"))
    checks.append(_check("delaunay.positive", bool(np.all(ub > 0)), "ubar > 0 on the window"))
    bound = (p + 1.0) / 2.0 * params.k_const * (1.0 + 1e-6)
    checks.append(_check("delaunay.sup_bound", supr <= bound,
                         f"sup ubar^(p-1) = {supr:.6g} <= {bound:.6g}"))
    rep = monotonicity_report(prof)
    checks.append(_check("delaunay.signs", rep.signs_ok, f"violations: {rep.violations}"))
    checks.append(_check("delaunay.slopes", rep.max_slope_error() <= 0.05,
                         f"max |fitted - nominal| = {rep.max_slope_error():.3f} (tol 0.05)"))
    lhs, rhs = dissipation_check(prof, prof.t_lo + 0.2, d["t_arrival"] - prof.t_shift)
    scale = max(abs(lhs), abs(rhs))
    checks.append(_check("delaunay.dissipation", abs(lhs - rhs) <= 1e-5 * scale,
                         f"|H-jump - integral| = {abs(lhs - rhs):.3e} of scale {scale:.3e}"))
    prof2 = scale_to_beta(prof, 3.0)
    tt2 = np.linspace(max(prof.t_lo, prof2.t_lo) + 0.1, min(prof.t_hi, prof2.t_hi) - 0.1, 500)
    delta = np.log(3.0) / params.slow_rate
    equiv = float(np.max(np.abs(prof2.ubar(tt2) - prof.ubar(tt2 + delta)))
                  / params.c_p)
    checks.append(_check("delaunay.translation_equivariance", equiv <= 1e-6,
                         f"pointwise mismatch {equiv:.3e} (tol 1e-6)"))
    return checks


def suite_modes(N, p, profile, seed=0, **_) -> list:
    from .cutoff import annulus_bump
    from .linearized import hardy_chain_check, quadratic_certificates

    checks = []
    resid = translation_residual(profile)
    checks.append(_check("modes.translation_kernel", resid <= 1e-6,
                         f"u1' residual in j=1 mode ODE: {resid:.3e} (tol 1e-6)"))
    bad = []
    for NN in range(9, 15):
        pj = validate_params(NN, 0.5 * (serrin_exponent(NN) + sobolev_exponent(NN)))
        for j in range(NN + 1, 4 * NN + 1):
            _, cbar = quadratic_certificates(pj, j)
            if not cbar < 1.0:
                bad.append((NN, j, cbar))
    checks.append(_check("modes.certificates", not bad,
                         f"Cbar(N,j) < 1 for j in [N+1, 4N], N=9..14; failures {bad[:3]}"))
    rng = np.random.default_rng(seed)
    worst_slack = np.inf
    hardy_ok = True
    for _ in range(20):
        lo = rng.uniform(0.3, 1.5)
        width = rng.uniform(0.5, 3.0)
        rr = np.linspace(lo * 0.9, (lo + width) * 1.1, 3001)
        rep = hardy_chain_check(N, rr, *(annulus_bump(rr, lo, lo + width, k) for k in range(3)))
        hardy_ok &= rep.first_ok and rep.second_ok
        worst_slack = min(worst_slack, rep.first_slack, rep.second_slack)
    checks.append(_check("modes.hardy_chain", bool(hardy_ok),
                         f"20 random bumps; worst slack {worst_slack:.3f}"))
    return checks


def suite_auxball(N, p, grid_m=160, seed=0, cache_dir=None, **_) -> list:
    from .auxball import (build_kernel, green_apply, make_grid, picard_minimal,
                          pohozaev_residual, unit_load_error)

    checks = []
    params = validate_params(N, p)
    grid = make_grid(M=grid_m, alpha_w=0.0)
    worst = max(unit_load_error(build_kernel(NN, grid, cache_dir=cache_dir)) for NN in (6, 8, 10))
    checks.append(_check("auxball.green_oracle", worst <= 1e-4,
                         f"sup rel error vs (1-r^2)^2/(8N(N+2)): {worst:.3e} (tol 1e-4)"))
    grid = make_grid(M=grid_m, alpha_w=params.alpha_w)
    kern = build_kernel(N, grid, cache_dir=cache_dir)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(grid.nodes.size)
    g = rng.standard_normal(grid.nodes.size)
    inner = grid.nodes ** (N - 1.0) * grid.weights
    lhs = float((green_apply(kern, f) * g) @ inner)
    rhs = float((f * green_apply(kern, g)) @ inner)
    checks.append(_check("auxball.self_adjoint", abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1e-30),
                         f"<Gf,g> vs <f,Gg> mismatch {abs(lhs - rhs):.3e}"))
    pic = picard_minimal(kern, 1e-3, p, params.alpha_w)
    ok = pic.converged and pic.monotone and bool(np.all(pic.u >= 0)) \
        and bool(np.all(np.diff(pic.u) <= 1e-12))
    checks.append(_check("auxball.picard_minimal", ok,
                         f"lambda=1e-3: converged={pic.converged} iters={pic.iterations} "
                         f"monotone={pic.monotone} decreasing profile"))
    res = pohozaev_residual(kern, pic.u, pic.lam, p, params.alpha_w)
    checks.append(_check("auxball.pohozaev", res <= 1e-3,
                         f"relative residual {res:.3e} (tol 1e-3)"))
    return checks


def suite_glue(N, p, profile, seed=0, eps_list=None, **_) -> list:
    from .gluing import decay_fit, remainder_Q

    checks = []
    params = validate_params(N, p)
    eps_list = eps_list or [2.0**-k for k in range(3, 8)]
    prof = profile
    fit = decay_fit(params, prof, eps_list, -3.5, mode="points", seed=seed)
    checks.append(_check("glue.points_decay", 1.7 <= fit.slope <= 2.3,
                         f"fitted slope {fit.slope:.3f} vs nominal {fit.nominal:.3f} in [1.7, 2.3]"))
    fit2 = decay_fit(params, prof, eps_list, -3.2, mode="flat_edge", edge_k=2, seed=seed)
    checks.append(_check("glue.flat_decay", fit2.slope >= 0.1,
                         f"fitted slope {fit2.slope:.3f} >= 0.1 (nominal {fit2.nominal:.3f}, "
                         "extrapolated target)"))
    rng = np.random.default_rng(seed)
    ub = rng.uniform(0.5, 2.0, 200)
    v = ub * rng.uniform(-0.1, 0.1, 200)
    Q = remainder_Q(ub, v, p)
    Cp = p * (p - 1.0) * 1.1 ** abs(p - 2.0)
    taylor_ok = bool(np.all(np.abs(Q) <= Cp * ub ** (p - 2.0) * v**2 + 1e-14))
    checks.append(_check("glue.remainder_taylor", taylor_ok,
                         "|Q(v)| <= p(p-1) 1.1^|p-2| ubar^{p-2} v^2 on random samples"))
    return checks


def run_suites(N, p, seed=0, suites=None, grid_m=160, eps_list=None, cache_dir=None) -> list:
    """Run the requested suites (all by default) and return check records."""
    selected = list(suites) if suites else list(ALL_SUITES)
    unknown = [s for s in selected if s not in ALL_SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}; available {ALL_SUITES}")
    checks = []
    profile = None
    if any(s in selected for s in ("delaunay", "modes", "glue")):
        from .delaunay import solve_singular

        profile = solve_singular(validate_params(N, p), beta=1.0, tol=1e-4)
    table = {
        "constants": suite_constants,
        "indicial": suite_indicial,
        "symbol": suite_symbol,
        "delaunay": suite_delaunay,
        "modes": suite_modes,
        "auxball": suite_auxball,
        "glue": suite_glue,
    }
    for name in selected:
        checks.extend(table[name](N, p, profile=profile, seed=seed, grid_m=grid_m,
                                  eps_list=eps_list, cache_dir=cache_dir))
    return checks
