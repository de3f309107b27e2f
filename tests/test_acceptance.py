"""Acceptance criteria: one pass/fail line per criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Each criterion asserts, by name, the `verify-all` checks of
biharmlab.verify at (N, p) = (10, 2) listed in CHECKS, plus the (10, 2)
oracles that no suite has, and its runtime budget.  Expensive artifacts (the
profile solve) are built once and the build time is charged to the first
criterion that needs them; each criterion is charged the time of its suite.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from biharmlab import verify
from biharmlab.core import emden_coeffs, serrin_exponent, sobolev_exponent, validate_params
from biharmlab.indicial import indicial_roots

# Emden-Fowler times checked by criteria 4 and 5, past both ends of the
# profile's mesh (~[-4.28, 18.63]) into its analytic tails
T_LO, T_HI = -8.0, 24.63

BUDGETS = {1: 1.0, 2: 5.0, 3: 5.0, 4: 60.0, 5: 30.0, 6: 5.0, 7: 120.0, 8: 120.0}

# criterion -> the verify-all checks at (10, 2) it asserts; together every check
CHECKS = {
    1: ("constants.char_roots_match_infinity_indicial",),
    2: ("indicial.root_residuals", "indicial.ordering_chain", "indicial.weight_window",
        "indicial.branch_continuity"),
    4: ("delaunay.endpoint", "delaunay.ode_residual", "delaunay.positive", "delaunay.sup_bound",
        "delaunay.signs", "delaunay.slopes", "delaunay.dissipation",
        "delaunay.translation_equivariance"),
    5: ("modes.translation_kernel", "modes.certificates", "modes.hardy_chain"),
    6: ("symbol.gamma2_identity", "symbol.even_positive", "symbol.mode_monotone"),
    7: ("auxball.picard_minimal", "auxball.pohozaev"),
    8: ("glue.points_decay", "glue.remainder_taylor"),
}


def _report(num, ok, elapsed, detail):
    budget = BUDGETS.get(num)
    in_budget = budget is None or elapsed < budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    budget_txt = f"{elapsed:.1f}s < {budget:.0f}s" if budget else f"{elapsed:.1f}s"
    print(f"ACCEPTANCE {num} {status}: {detail} [{budget_txt}]")
    assert ok, f"criterion {num}: {detail}"
    assert in_budget, f"criterion {num} exceeded runtime budget: {elapsed:.1f}s >= {budget}s"


@pytest.fixture(scope="module")
def acc_profile(params10):
    """Profile shared by the suite runs and criteria 4, 5, 8; build time charged to 4."""
    from biharmlab.delaunay import solve_singular

    t0 = time.perf_counter()
    prof = solve_singular(params10, beta=1.0, tol=1e-4)
    return prof, time.perf_counter() - t0


@pytest.fixture(scope="module")
def suite_runs(acc_profile):
    """Each verify-all suite at (10, 2) on the shared profile: suite -> (checks, seconds)."""
    prof, _ = acc_profile
    runs = {}
    for name in verify.ALL_SUITES:
        t0 = time.perf_counter()
        checks = getattr(verify, f"suite_{name}")(10, 2.0, profile=prof, grid_m=160,
                                                  eps_list=None)
        runs[name] = (checks, time.perf_counter() - t0)
    return runs


def _suite_checks(suite_runs, num):
    """(all of criterion num's checks pass, seconds of their suite, summary line)."""
    suite = CHECKS[num][0].split(".")[0]
    checks, elapsed = suite_runs[suite]
    by_name = {c["name"]: c for c in checks}
    failed = [f"{n}: {by_name[n]['detail']}" for n in CHECKS[num] if not by_name[n]["ok"]]
    if failed:
        return False, elapsed, "FAILED " + "; ".join(failed)
    return True, elapsed, f"{len(CHECKS[num])} {suite} checks pass"


def test_criterion_1_constants(suite_runs):
    t0 = time.perf_counter()
    par = validate_params(10, 2.0)
    K = emden_coeffs(par)

    def k_exact(N, p):
        N, p = Fraction(N), Fraction(p)
        q = p - 1
        return 8 * (p + 1) / q**4 * (N**2 * q**2 + 8 * p * (p + 1) + N * (2 + 4 * p - 6 * p**2))

    ok = abs(par.k_const - 192.0) <= 1e-12 * 192.0
    ok &= par.k_const == float(k_exact(10, 2))
    ok &= abs(par.A_p - 384.0) <= 1e-12 * 384.0
    for got, want in zip(K.as_tuple(), (192.0, -64.0, -28.0, 4.0)):
        ok &= abs(got - want) <= 1e-12 * abs(want)
    checks_ok, suite_s, summary = _suite_checks(suite_runs, 1)
    _report(1, ok and checks_ok, time.perf_counter() - t0 + suite_s,
            f"k=192, A_p=384, K=(192,-64,-28,4) to 1e-12; {summary}")


def test_criterion_2_indicial(params10, suite_runs):
    t0 = time.perf_counter()
    d = indicial_roots(params10, 0)
    gpp, gpm, gmp, gmm = d.roots_at_zero
    # quoted 4-digit reference values carry ~1.4e-4 rounding; the sharp gate
    # is the polynomial residual of indicial.root_residuals
    ok = abs(gpp - 3.1780) <= 2.5e-4 and abs(gmp - (-9.1780)) <= 2.5e-4
    ok &= abs(gpm - (-3 + 2.0412j)) <= 2.5e-4 and abs(gmm - (-3 - 2.0412j)) <= 2.5e-4
    checks_ok, suite_s, summary = _suite_checks(suite_runs, 2)
    _report(2, ok and checks_ok, time.perf_counter() - t0 + suite_s,
            f"roots {{3.1778, -9.1778, -3 +/- 2.0411i}}; {summary}")


def test_criterion_3_characteristic_correspondence():
    t0 = time.perf_counter()
    ok = True
    for N in range(9, 15):
        lo, hi = serrin_exponent(N), sobolev_exponent(N)
        for p in np.linspace(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), 20):
            par = validate_params(N, float(p))
            K = emden_coeffs(par)
            mu = np.sort(np.roots([1.0, K.K3, K.K2, K.K1, K.K0]).real)
            a = 4.0 / (par.p - 1.0)
            target = np.sort([-(g + a) for g in (0.0, 2.0, 2.0 - N, 4.0 - N)])
            ok &= float(np.max(np.abs(mu - target))) <= 1e-8
    _report(3, ok, time.perf_counter() - t0,
            "char roots = {-(gamma_inf + 4/(p-1))} to 1e-8 on N=9..14 x 20 p")


def test_criterion_4_delaunay(params10, acc_profile, suite_runs):
    from biharmlab.delaunay import (dissipation_check, monotonicity_report,
                                    scale_to_beta, solve_singular)

    prof, t_solve = acc_profile
    t0 = time.perf_counter()
    cp = params10.c_p
    endpoint = abs(float(prof.ubar(T_HI)) - cp) / cp
    tt = np.linspace(T_LO + 0.05, T_HI - 0.05, 6001)
    resid = float(np.max(prof.scaled_residual(tt)))
    sup = float(np.max(prof.ubar(tt) ** (params10.p - 1.0)))
    rep = monotonicity_report(prof, r=np.geomspace(math.exp(-(T_HI - 1.0)),
                                                   math.exp(-(T_LO + 1.0)), 600))
    lhs, rhs = dissipation_check(prof, T_LO + 0.1, T_HI - 8.0)
    diss = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    fresh = solve_singular(params10, beta=3.0, tol=1e-4)
    shifted = scale_to_beta(prof, 3.0)
    t2 = np.linspace(max(fresh.t_lo, shifted.t_lo) + 0.3,
                     min(fresh.t_hi, shifted.t_hi) - 0.3, 500)
    equiv = float(np.max(np.abs(fresh.ubar(t2) - shifted.ubar(t2)))) / cp
    checks_ok, suite_s, summary = _suite_checks(suite_runs, 4)
    elapsed = time.perf_counter() - t0 + t_solve + suite_s
    near = abs(rep.slopes_near["u"] - (-4.0))
    far = abs(rep.slopes_far["u"] - (-6.0))
    ok = (endpoint <= 1e-4 and sup <= 1.5 * 192.0 * (1 + 1e-6) and resid <= 1e-7
          and near <= 0.05 and far <= 0.05 and diss <= 1e-6 and equiv <= 1e-6)
    _report(4, ok and checks_ok, elapsed,
            f"endpoint {endpoint:.1e} <= 1e-4; sup bound {sup:.1f} <= 288; "
            f"residual {resid:.1e} <= 1e-7; slopes (-4, -6) +/- 0.05; "
            f"dissipation {diss:.1e}; equivariance {equiv:.1e} <= 1e-6 "
            f"on t in [{T_LO}, {T_HI}]; {summary}")


def test_criterion_5_mode_kernel(acc_profile, suite_runs):
    from biharmlab.linearized import translation_kernel_residual

    prof, _ = acc_profile
    t0 = time.perf_counter()
    t = np.linspace(T_HI - 0.5, T_LO + 0.5, 800)  # r = e^{-t}
    resid = float(np.max(translation_kernel_residual(prof, t)))
    checks_ok, suite_s, summary = _suite_checks(suite_runs, 5)
    _report(5, resid <= 1e-6 and checks_ok, time.perf_counter() - t0 + suite_s,
            f"u1' kernel residual {resid:.1e} <= 1e-6 past both mesh ends; {summary}")


def test_criterion_6_symbol_identity(suite_runs):
    checks_ok, suite_s, summary = _suite_checks(suite_runs, 6)
    _report(6, checks_ok, suite_s,
            f"Theta_2 = Q_j on the critical line; {summary}")


def test_criterion_7_ball_solver(suite_runs):
    from biharmlab.auxball import (blowup_family, blowup_rescale, build_kernel,
                                   make_grid, picard_minimal, pohozaev_residual)

    t0 = time.perf_counter()
    grid = make_grid(M=160, alpha_w=-2.0)
    kern = build_kernel(10, grid)
    pic = picard_minimal(kern, 1e-3, 2.0, -2.0)
    res1 = pohozaev_residual(kern, pic.u, 1e-3, 2.0, -2.0)
    grid2 = make_grid(M=320, alpha_w=-2.0)
    kern2 = build_kernel(10, grid2)
    pic2 = picard_minimal(kern2, 1e-3, 2.0, -2.0)
    res2 = pohozaev_residual(kern2, pic2.u, 1e-3, 2.0, -2.0)
    poho_ok = res2 <= res1 / 2.0
    gridb = make_grid(M=320, sigma_g=3.0, alpha_w=-2.0)
    kernb = build_kernel(10, gridb)
    fam = blowup_family(kernb, [1e2, 1e3, 1e4, 1e5, 1e6], 2.0, -2.0)
    rep = blowup_rescale(fam, kernb, 2.0, -2.0)
    tail_ok = abs(rep.tail_exponent - (-2.0)) <= 0.1
    checks_ok, suite_s, summary = _suite_checks(suite_runs, 7)
    _report(7, poho_ok and tail_ok and checks_ok, time.perf_counter() - t0 + suite_s,
            f"Pohozaev {res1:.1e} refined {res2:.1e} <= half; "
            f"blow-up tail {rep.tail_exponent:.3f} = -2 +/- 0.1; {summary}")


def test_criterion_8_gluing_decay(params10, acc_profile, suite_runs, rng):
    from biharmlab.gluing import CutoffSpec, ErrorField, GlueConfig

    prof, _ = acc_profile
    t0 = time.perf_counter()
    # scaling covariance to 1e-12
    eps = 0.25
    cfg = GlueConfig(params=params10, profile=prof, cutoff=CutoffSpec(1.0), gamma_w=-3.5,
                     eps=eps)
    cfg_ref = GlueConfig(params=params10, profile=prof, cutoff=CutoffSpec(1.0 / eps),
                         gamma_w=-3.5, eps=1.0)
    r = rng.uniform(0.2, 2.2, 60)
    lhs = ErrorField(cfg).value(r)
    rhs = eps**-8.0 * ErrorField(cfg_ref).value(r / eps)
    cov = float(np.max(np.abs(lhs - rhs)) / (np.max(np.abs(lhs)) + 1e-300))
    checks_ok, suite_s, summary = _suite_checks(suite_runs, 8)
    _report(8, cov <= 1e-12 and checks_ok, time.perf_counter() - t0 + suite_s,
            f"covariance {cov:.1e} <= 1e-12; {summary}")


def test_criterion_9_determinism(tmp_path):
    from biharmlab.cli import main

    out = tmp_path / "verify.json"
    args = ["verify-all", "--N", "10", "--p", "2",
            "--suites", "constants,indicial,symbol,modes,auxball,glue",
            "--eps-list", "0.125,0.0625,0.03125", "--out", str(out)]
    rc1 = main(args + ["--seed", "3"])
    first = out.read_bytes()
    rc2 = main(args + ["--seed", "4"])
    ok = rc1 == 0 and rc2 == 0 and out.read_bytes() == first
    _report(9, ok, 0.0, "verify-all twice, --seed 3 and 4 (ignored): byte-identical report, exit 0")


def test_criteria_assert_every_verify_all_check(suite_runs):
    """A verify-all check that no criterion asserts, or a criterion name that
    verify-all does not emit, fails here; the shared runs are verify-all's."""
    emitted = verify.run_suites(10, 2.0)
    asserted = [name for names in CHECKS.values() for name in names]
    assert sorted(asserted) == sorted(c["name"] for c in emitted)
    assert [c for name in verify.ALL_SUITES for c in suite_runs[name][0]] == emitted
