"""Invariant suites behind `biharmlab verify-all`: the one home of every check.

Each suite returns check records {name, ok, detail} about the (N, p) it is
given, and a detail that scans names the N it scanned; the scans across the
window are unit tests of the same library functions.  Every input is a
fixed grid or lattice, nothing is drawn at random, so repeated runs are
byte-identical.  The acceptance tests assert these checks by name at
(N, p) = (10, 2), and the CLI reports the figures it shares with them
through profile_figures and translation_residual.
"""

from __future__ import annotations

import numpy as np

from .core import SolverError, emden_coeffs, origin_rates, origin_spectrum, validate_params
from .indicial import indicial_roots, indicial_roots_for, verify_ordering, weight_window

ALL_SUITES = ("constants", "indicial", "symbol", "delaunay", "modes", "auxball", "glue")
# the suites that share one profile solve
PROFILE_SUITES = ("delaunay", "modes", "glue")


def _check(name, ok, detail) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


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
    # the signs of k, K3 and K1, the growth of A_p, the mode-estimate bound and the
    # zero of k at the Serrin end are theorems on the whole window (tests/test_core.py)
    params = validate_params(N, p)
    mu = np.sort(origin_spectrum(emden_coeffs(params)).real)
    err = float(np.max(np.abs(mu - np.sort(origin_rates(params.N, params.p)))))
    return [_check("constants.char_roots_match_infinity_indicial", err <= 1e-8,
                   f"max root error {err:.3e} (tol 1e-8)")]


def suite_indicial(N, p, **_) -> list:
    checks = []
    params = validate_params(N, p)
    worst_res = max(max(indicial_roots(params, j).residuals(N, params.A_p))
                    for j in range(0, 2 * N + 1))
    checks.append(_check("indicial.root_residuals", worst_res <= 1e-9,
                         f"max scaled residual {worst_res:.3e} (tol 1e-9)"))
    rep = verify_ordering(params)
    checks.append(_check("indicial.ordering_chain", rep.all_ok,
                         f"N={N}, p={p:g}, j<=2N; failures: {rep.failures()[:3]}"))
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
    from .symbol import symbol_indicial_identity, theta_cylinder

    checks = []
    xi = np.linspace(0.0, 12.0, 100)
    worst = max(float(np.max(symbol_indicial_identity(N, j, xi))) for j in range(0, 11))
    checks.append(_check("symbol.gamma2_identity", worst <= 1e-8,
                         f"max relative residual {worst:.3e} at N={N}, j<=10 (tol 1e-8)"))
    th = {(g, j): theta_cylinder(N, g, j, xi) for g in (1.0, 1.5, 2.0) for j in range(0, 11)}
    even_pos_ok = all(np.all(v > 0) and np.array_equal(v, theta_cylinder(N, g, j, -xi))
                      for (g, j), v in th.items())
    mono_ok = all(np.all(th[2.0, j + 1] > th[2.0, j]) for j in range(0, 10))
    checks.append(_check("symbol.even_positive", even_pos_ok,
                         "Theta even in xi and positive, gamma in {1, 3/2, 2}"))
    checks.append(_check("symbol.mode_monotone", mono_ok,
                         "Theta increasing in j at gamma = 2"))
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


def suite_modes(N, p, profile, **_) -> list:
    from .cutoff import annulus_bump
    from .linearized import hardy_chain_check, quadratic_certificates

    checks = []
    resid = translation_residual(profile)
    checks.append(_check("modes.translation_kernel", resid <= 1e-12,
                         f"j=1 operator on u1' vs the Emden-Fowler equation via scaled_derivs, "
                         f"not the profile's accuracy: {resid:.3e} (tol 1e-12)"))
    params = validate_params(N, p)
    cbars = {j: quadratic_certificates(params, j)[1] for j in range(N + 1, 4 * N + 1)}
    bad = [(j, cbar) for j, cbar in cbars.items() if not cbar < 1.0]
    checks.append(_check("modes.certificates", not bad,
                         f"Cbar(N,j) < 1 for j in [N+1, 4N] at N={N}; failures {bad[:3]}"))
    worst_slack = np.inf
    hardy_ok = True
    for lo in np.linspace(0.3, 1.5, 5):  # bumps supported on [lo, lo + width]
        for width in np.linspace(0.5, 3.0, 4):
            rr = np.linspace(lo * 0.9, (lo + width) * 1.1, 3001)
            rep = hardy_chain_check(N, rr, *(annulus_bump(rr, lo, lo + width, k) for k in range(3)))
            hardy_ok &= rep.first_ok and rep.second_ok
            worst_slack = min(worst_slack, rep.first_slack, rep.second_slack)
    checks.append(_check("modes.hardy_chain", bool(hardy_ok),
                         f"20 bumps, lo in [0.3, 1.5] x width in [0.5, 3]; "
                         f"worst slack {worst_slack:.3f}"))
    return checks


def suite_auxball(N, p, grid_m=160, **_) -> list:
    from .auxball import build_kernel, make_grid, picard_minimal, pohozaev_residual

    checks = []
    params = validate_params(N, p)
    grid = make_grid(M=grid_m, alpha_w=params.alpha_w)
    # build_kernel raises SolverError ("kernel quadrature") off the unit-load oracle
    kern = build_kernel(N, grid)
    pic = picard_minimal(kern, 1e-3, p, params.alpha_w)
    ok = pic.converged and pic.monotone and bool(np.all(pic.u >= 0)) \
        and bool(np.all(np.diff(pic.u) <= 1e-12))
    checks.append(_check("auxball.picard_minimal", ok,
                         f"lambda=1e-3: converged={pic.converged} iters={pic.iterations} "
                         f"monotone={pic.monotone} decreasing profile"))
    # at most 8.7e-5 across the window on the default M = 160 and falling 16-fold
    # per doubling of M; a u off by (1 + 1e-3) reads about 1e-3
    res = pohozaev_residual(kern, pic.u, pic.lam, p, params.alpha_w)
    checks.append(_check("auxball.pohozaev", res <= 2e-4,
                         f"relative residual {res:.3e} (tol 2e-4)"))
    return checks


def suite_glue(N, p, profile, eps_list=None, **_) -> list:
    from .gluing import decay_fit, default_gamma_w, remainder_Q

    checks = []
    params = validate_params(N, p)
    eps_list = eps_list or [2.0**-k for k in range(3, 8)]
    fit = decay_fit(params, profile, eps_list, default_gamma_w(params))
    lo, hi = fit.nominal - 0.3, fit.nominal + 0.3
    checks.append(_check("glue.points_decay", lo <= fit.slope <= hi,
                         f"fitted slope {fit.slope:.3f} vs nominal {fit.nominal:.3f} "
                         f"in [{lo:g}, {hi:g}]"))
    # |v|/ubar spaced geometrically down to 1e-4, where a term linear in v
    # would outgrow the quadratic bound
    ub = np.linspace(0.5, 2.0, 16)[:, None]
    frac = np.geomspace(1e-4, 0.1, 13)
    v = ub * np.concatenate([-frac, frac])
    Q = remainder_Q(ub, v, p)
    Cp = p * (p - 1.0) * 1.1 ** abs(p - 2.0)
    taylor_ok = bool(np.all(np.abs(Q) <= Cp * ub ** (p - 2.0) * v**2 + 1e-14))
    checks.append(_check("glue.remainder_taylor", taylor_ok,
                         "|Q(v)| <= p(p-1) 1.1^|p-2| ubar^{p-2} v^2 on ubar in [0.5, 2] "
                         "x |v|/ubar in [1e-4, 0.1]"))
    return checks


def run_suites(N, p, suites=None, grid_m=160, eps_list=None) -> list:
    """Run the requested suites (all by default) and return check records.

    A suite whose solver raises SolverError yields one FAIL record
    `<suite>.solver` with the error's `stage: detail`, and the other suites
    still run; a failed profile solve marks every suite in PROFILE_SUITES.
    """
    selected = list(suites) if suites else list(ALL_SUITES)
    unknown = [s for s in selected if s not in ALL_SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}; available {ALL_SUITES}")
    checks = []
    profile = profile_error = None
    if any(s in selected for s in PROFILE_SUITES):
        from .delaunay import solve_singular

        try:
            profile = solve_singular(validate_params(N, p), beta=1.0, tol=1e-4)
        except SolverError as exc:
            profile_error = exc
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
        if profile_error is not None and name in PROFILE_SUITES:
            checks.append(_check(f"{name}.solver", False, str(profile_error)))
            continue
        try:
            checks.extend(table[name](N, p, profile=profile, grid_m=grid_m,
                                      eps_list=eps_list))
        except SolverError as exc:
            checks.append(_check(f"{name}.solver", False, str(exc)))
    return checks
