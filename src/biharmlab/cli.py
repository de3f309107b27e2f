"""Command-line surface: every module as a subcommand with machine-readable output.

Outputs are JSON (nested: config echo, library version, results) or CSV
(config echoed as leading '# key=value' comment lines, single header row).
Nothing is sampled at random and nothing is cached (--seed and --cache-dir
are accepted and ignored), and reports carry no timestamps, so identical
invocations produce byte-identical files.

Exit codes: 0 success, 1 verification failure (a PASS-expected check failed;
in verify-all a suite whose solver raised SolverError is one such check,
`<suite>.solver`), 2 usage error, 3 numerical failure (a solver raised
SolverError naming the stage that failed, or the report would carry a
non-finite number: stage "report", naming the field).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .core import SolverError, emden_coeffs, origin_spectrum, special_exponents, validate_params
from .indicial import indicial_roots, verify_ordering, weight_window

DEFAULT_EPS = "0.125,0.0625,0.03125,0.015625,0.0078125"
# --xi-max bound: symbol's gamma = 2 identity holds to 1e-8 for |xi| <= XI_MAX at
# N = 5..14, j <= 10; its residual grows like |xi|, 1.8e-9 at 1e7 and 1.5e-8 at 5e7
XI_MAX = 1e7
# --grid bound: one M x M float64 kernel takes 8 M^2 bytes, 134 MB at 4096
GRID_MAX = 4096


def _fmt(x):
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, complex):
        return f"{x.real!r}{x.imag:+}j" if x.imag else repr(x.real)
    return x


def _jsonable(obj, path: str):
    """obj in JSON's types; a non-finite float raises SolverError naming its field path."""
    if isinstance(obj, dict):
        return {k: _jsonable(v, f"{path}.{k}") for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, f"{path}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, complex):
        return {"re": _jsonable(obj.real, f"{path}.re"), "im": _jsonable(obj.imag, f"{path}.im")}
    if isinstance(obj, (np.floating, np.integer, np.ndarray)):
        return _jsonable(obj.tolist(), path)
    if isinstance(obj, float) and not math.isfinite(obj):
        raise SolverError("report", f"{path} is {obj}")
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


def emit(config: dict, results, args) -> None:
    """Write the report in the requested format with config provenance.

    A report never carries NaN or infinity: the first such number raises
    SolverError (stage "report") naming its field, and nothing is written.
    """
    config = _jsonable(config, "config")
    if args.format == "json":
        payload = {"config": config, "version": __version__,
                   "results": _jsonable(results, "results")}
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        rows = results if isinstance(results, list) else [results]
        rows = [_jsonable(r, f"results[{i}]") for i, r in enumerate(rows)]
        keys = sorted({k for r in rows for k in r})
        buf = io.StringIO()
        for k in sorted(config):
            buf.write(f"# {k}={_fmt(config[k])}\n")
        buf.write(f"# version={__version__}\n")
        writer = csv.DictWriter(buf, fieldnames=keys, lineterminator="\n")
        writer.writeheader()
        for r in rows:
            writer.writerow({k: _fmt(r.get(k, "")) for k in keys})
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse(kind, text, domain: str):
    """kind(text); text that is no int or float is a usage error stating the domain."""
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be {domain}, got {text!r}") from None


def _at_least(least: int):
    """argparse type: an integer >= least."""

    def integer(text):
        n = _parse(int, text, f"an integer >= {least}")
        if n < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {n}")
        return n

    return integer


def _finite(text, domain: str):
    """A finite float; `domain` describes the argument's values in the usage error."""
    x = _parse(float, text, domain)
    if not np.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return x


def _finite_nonnegative(text):
    """argparse type: a finite float >= 0."""
    x = _finite(text, "a finite number >= 0")
    if x < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return x


def _beta(text):
    """argparse type: a profile's far-field coefficient beta, a finite float > 0."""
    x = _finite(text, "a finite number > 0")
    if not x > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return x


def _profile_tol(text):
    """argparse type: a profile tolerance in (2e-6, 1), as `solve_singular` requires
    (2e-6 is the manifold-truncation floor of its left boundary condition)."""
    x = _finite(text, "a number in (2e-06, 1)")
    if not 2e-6 < x < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (2e-06, 1), got {text}")
    return x


def _xi_max(text):
    """argparse type: a float in [-XI_MAX, XI_MAX], where the gamma = 2 identity holds."""
    x = _finite(text, f"a number in [-{XI_MAX:g}, {XI_MAX:g}]")
    if not abs(x) <= XI_MAX:
        raise argparse.ArgumentTypeError(f"must lie in [-{XI_MAX:g}, {XI_MAX:g}], got {text}")
    return x


def _grid(text):
    """argparse type: an even grid size M in [2, GRID_MAX] (composite Simpson pairs panels)."""
    domain = f"an even integer in [2, {GRID_MAX}]"
    M = _parse(int, text, domain)
    if not (2 <= M <= GRID_MAX and M % 2 == 0):
        raise argparse.ArgumentTypeError(f"must be {domain}, got {text}")
    return M


def _eps_list(text: str) -> list:
    """The floats of a comma list given as --eps-list."""
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"--eps-list must be a comma list of numbers, got {text!r}") from None


def _config_echo(args, fields) -> dict:
    return {k: getattr(args, k) for k in fields if getattr(args, k, None) is not None}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_constants(args) -> int:
    params = validate_params(args.N, args.p)
    K = emden_coeffs(params)
    sp = special_exponents(args.N)
    results = {
        "N": params.N, "p": params.p, "k_const": params.k_const, "c_p": params.c_p,
        "A_p": params.A_p, "alpha_w": params.alpha_w,
        "K0": K.K0, "K1": K.K1, "K2": K.K2, "K3": K.K3,
        "serrin": sp.serrin, "sobolev": sp.sobolev,
        "p0": sp.p0, "p1_plus": sp.p1_plus, "p1_minus": sp.p1_minus,
        "p2_plus": sp.p2_plus, "p2_minus": sp.p2_minus,
        "char_roots": sorted(origin_spectrum(K).real.tolist()),
    }
    emit(_config_echo(args, ["N", "p", "format", "out"]), results, args)
    return 0


def cmd_indicial(args) -> int:
    params = validate_params(args.N, args.p)
    rows = []
    for j in range(args.jmax + 1):
        d = indicial_roots(params, j)
        row = {"j": j, "lambda_j": d.lambda_j}
        for tag, g in zip(("pp", "pm", "mp", "mm"), d.roots_at_zero):
            row[f"zero_{tag}_re"], row[f"zero_{tag}_im"] = g.real, g.imag
        for tag, g in zip(("pp", "pm", "mp", "mm"), d.roots_at_infinity):
            row[f"inf_{tag}_re"], row[f"inf_{tag}_im"] = g.real, g.imag
        row["max_residual"] = max(d.residuals(params.N, params.A_p))
        rows.append(row)
    rep = verify_ordering(params, args.jmax)
    ww = weight_window(params)
    summary = {"j": "summary", "ordering_ok": rep.all_ok,
               "ordering_failures": ";".join(rep.failures()),
               "nu_lo": ww.nu_lo, "nu_hi": ww.nu_hi, "mu_lo": ww.mu_lo,
               "nu_default": ww.nu, "mu_default": ww.mu}
    emit(_config_echo(args, ["N", "p", "jmax", "format", "out"]), rows + [summary], args)
    return 0


def cmd_symbol(args) -> int:
    from .symbol import symbol_indicial_identity, theta_cylinder

    xi = np.linspace(0.0, args.xi_max, args.xi_points)
    rows = []
    worst = 0.0
    for j in range(args.jmax + 1):
        th = theta_cylinder(args.N, args.gamma, j, xi)
        resid = symbol_indicial_identity(args.N, j, xi) if args.gamma == 2.0 else None
        row = {"j": j, "theta_xi0": th[0], "theta_ximax": th[-1]}
        if resid is not None:
            row["max_identity_residual"] = float(np.max(resid))
            worst = max(worst, row["max_identity_residual"])
        rows.append(row)
    emit(_config_echo(args, ["N", "gamma", "jmax", "xi_max", "xi_points", "format", "out"]),
         rows, args)
    return 0 if (args.gamma != 2.0 or worst <= 1e-8) else 1


def cmd_delaunay(args) -> int:
    from .delaunay import export_profile, monotonicity_report, solve_singular
    from .verify import profile_figures

    params = validate_params(args.N, args.p)
    prof = solve_singular(params, beta=args.beta, tol=args.tol)
    rep = monotonicity_report(prof)
    res, _, supr = profile_figures(prof)
    results = {
        "beta": prof.beta,
        "c_p": params.c_p,
        "endpoint_rel": prof.diagnostics["endpoint_rel"],
        "max_scaled_residual": res,
        "sup_ubar_pm1_over_bound": supr / ((params.p + 1.0) / 2.0 * params.k_const),
        "signs_ok": rep.signs_ok,
        "slopes_far": rep.slopes_far,
        "slopes_near": rep.slopes_near,
        "bisections": prof.diagnostics["bisections"],
        "bvp_nodes": prof.diagnostics["bvp_nodes"],
    }
    if args.profile_out:
        export_profile(prof, args.profile_out)
        results["profile_out"] = args.profile_out
    emit(_config_echo(args, ["N", "p", "beta", "tol", "format", "out"]), results, args)
    return 0


def cmd_modes(args) -> int:
    from .delaunay import solve_singular
    from .linearized import injectivity_scan, quadratic_certificates
    from .verify import translation_residual

    params = validate_params(args.N, args.p)
    rows = []
    for j in range(args.jmax + 1):
        C, Cbar = quadratic_certificates(params, j)
        rows.append({"j": j, "C": C, "Cbar": Cbar, "certified": bool(Cbar < 1.0 and j >= 2)})
    prof = solve_singular(params, beta=args.beta, tol=args.tol)
    scan = injectivity_scan(params, prof, range(0, min(args.jmax, 4) + 1))
    summary = {"j": "summary", "translation_kernel_residual": translation_residual(prof),
               "scan": [{"j": e.j, "status": e.status, "route": e.route,
                         "exponents": e.branch_exponents} for e in scan]}
    emit(_config_echo(args, ["N", "p", "jmax", "format", "out"]), rows + [summary], args)
    return 0


def cmd_auxball(args) -> int:
    from .auxball import (blowup_family, blowup_rescale, build_kernel, make_grid,
                          picard_minimal, pohozaev_residual, unit_load_error)

    params = validate_params(args.N, args.p)
    grid = make_grid(M=args.grid, alpha_w=params.alpha_w)
    kern = build_kernel(args.N, grid)
    pic = picard_minimal(kern, args.lam, params.p, params.alpha_w)
    results = {
        "grid_M": grid.M,
        "green_oracle_rel": unit_load_error(kern),
        "picard_converged": pic.converged,
        "picard_iterations": pic.iterations,
        "picard_u0": pic.u_origin,
        "picard_monotone": pic.monotone,
    }
    if pic.converged:
        results["pohozaev_residual"] = pohozaev_residual(kern, pic.u, pic.lam,
                                                         params.p, params.alpha_w)
    if args.blowup:
        # deeper grading and amplitudes: the tail window opens only past the
        # crossover rho ~ c_p^{(p-1)/(4+alpha)}
        gridb = make_grid(M=max(args.grid, 320), sigma_g=3.0, alpha_w=params.alpha_w)
        kernb = build_kernel(args.N, gridb)
        fam = blowup_family(kernb, [1e2, 1e3, 1e4, 1e5, 1e6], params.p, params.alpha_w)
        rep = blowup_rescale(fam, kernb, params.p, params.alpha_w)
        results["blowup_tail_exponent"] = rep.tail_exponent
        results["blowup_tail_nominal"] = rep.tail_exponent_nominal
        results["blowup_lambdas"] = rep.lambdas
    emit(_config_echo(args, ["N", "p", "lam", "grid", "format", "out"]), results, args)
    return 0


def cmd_glue(args) -> int:
    from .delaunay import solve_singular
    from .gluing import decay_fit, default_gamma_w

    params = validate_params(args.N, args.p)
    if args.gamma_w is None:
        args.gamma_w = default_gamma_w(params)
    eps_list = _eps_list(args.eps_list)
    prof = solve_singular(params, beta=1.0, tol=args.tol)
    fit = decay_fit(params, prof, eps_list, args.gamma_w)
    results = {
        "mode": args.mode, "gamma_w": args.gamma_w, "eps": fit.eps_list,
        "norms": fit.norms, "slope": fit.slope, "nominal": fit.nominal,
    }
    emit(_config_echo(args, ["N", "p", "gamma_w", "eps_list", "mode", "format", "out"]),
         results, args)
    return 0


def cmd_verify_all(args) -> int:
    from .verify import run_suites

    suites = args.suites.split(",") if args.suites else None
    checks = run_suites(args.N, args.p, suites=suites, grid_m=args.grid,
                        eps_list=_eps_list(args.eps_list))
    for c in checks:
        sys.stderr.write(f"{'PASS' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}\n")
    n_fail = sum(not c["ok"] for c in checks)
    config = _config_echo(args, ["N", "p", "grid", "eps_list", "suites", "format", "out"])
    emit(config, checks, args)
    return 1 if n_fail else 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="biharmlab",
        description="Numerical laboratory for singular solutions of Delta^2 u = u^p",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, n=10, p=2.0):
        sp.add_argument("--N", type=int, default=n)
        sp.add_argument("--p", type=float, default=p)
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", default=None)
        sp.add_argument("--seed", type=int, default=0, help="ignored; nothing is sampled")

    sp = sub.add_parser("constants", help="closed-form constants")
    common(sp)
    sp.set_defaults(fn=cmd_constants)

    sp = sub.add_parser("indicial", help="indicial roots, ordering, weight window")
    common(sp)
    sp.add_argument("--jmax", type=_at_least(0), default=None)
    sp.set_defaults(fn=cmd_indicial)

    sp = sub.add_parser("symbol", help="conformal Fourier symbol and gamma=2 identity")
    common(sp)
    sp.add_argument("--gamma", type=float, default=2.0)
    sp.add_argument("--jmax", type=_at_least(0), default=10)
    sp.add_argument("--xi-max", type=_xi_max, default=10.0,
                    help=f"|xi-max| <= {XI_MAX:g}, where the gamma = 2 identity holds to 1e-8")
    sp.add_argument("--xi-points", type=_at_least(1), default=100)
    sp.set_defaults(fn=cmd_symbol)

    sp = sub.add_parser("delaunay", help="singular radial profile by gauged collocation")
    common(sp)
    sp.add_argument("--beta", type=_beta, default=1.0)
    sp.add_argument("--tol", type=_profile_tol, default=1e-4)
    sp.add_argument("--profile-out", default=None)
    sp.set_defaults(fn=cmd_delaunay)

    sp = sub.add_parser("modes", help="mode certificates, kernel residual, scans")
    common(sp)
    sp.add_argument("--jmax", type=_at_least(0), default=None)
    sp.add_argument("--beta", type=_beta, default=1.0)
    sp.add_argument("--tol", type=_profile_tol, default=1e-4)
    sp.set_defaults(fn=cmd_modes)

    sp = sub.add_parser("auxball", help="clamped-ball kernel, Picard branch, Pohozaev")
    common(sp)
    sp.add_argument("--lam", type=_finite_nonnegative, default=1e-3)
    sp.add_argument("--grid", type=_grid, default=160,
                    help=f"radial grid size M: even, in [2, {GRID_MAX}]")
    sp.add_argument("--cache-dir", default=None, help="ignored; nothing is cached")
    sp.add_argument("--blowup", action="store_true")
    sp.set_defaults(fn=cmd_auxball)

    sp = sub.add_parser("glue", help="approximate-solution error decay fit")
    common(sp)
    sp.add_argument("--mode", choices=("points",), default="points",
                    help="singular set; point singularities are the only model")
    sp.add_argument("--gamma-w", type=float, default=None,
                    help="weight; default 5/12 of the way across (4-N, 0)")
    sp.add_argument("--eps-list", default=DEFAULT_EPS)
    sp.add_argument("--tol", type=_profile_tol, default=1e-4)
    sp.set_defaults(fn=cmd_glue)

    sp = sub.add_parser("verify-all", help="run all invariant suites")
    common(sp)
    sp.add_argument("--suites", default=None,
                    help="comma list: constants,indicial,symbol,delaunay,modes,auxball,glue")
    sp.add_argument("--grid", type=_grid, default=160,
                    help=f"radial grid size M: even, in [2, {GRID_MAX}]")
    sp.add_argument("--eps-list", default=DEFAULT_EPS)
    sp.add_argument("--cache-dir", default=None, help="ignored; nothing is cached")
    sp.set_defaults(fn=cmd_verify_all)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "jmax", 1) is None:
        args.jmax = 2 * args.N  # ordering scans default past the j = N+1 split
    try:
        return args.fn(args)
    except (ValueError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3 if isinstance(exc, SolverError) else 2


if __name__ == "__main__":
    sys.exit(main())
