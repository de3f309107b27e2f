"""CLI surface: outputs, provenance, exit codes, determinism."""

import ast
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import biharmlab
from biharmlab.cli import main


def run(args):
    return main(args)


def test_constants_json(tmp_path):
    out = tmp_path / "c.json"
    assert run(["constants", "--N", "10", "--p", "2", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["config"]["N"] == 10
    assert data["config"]["p"] == 2.0
    assert "version" in data
    r = data["results"]
    assert r["k_const"] == 192.0
    assert r["A_p"] == 384.0
    assert r["K0"] == 192.0 and r["K1"] == -64.0 and r["K2"] == -28.0 and r["K3"] == 4.0


def test_constants_csv_header(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["constants", "--N", "10", "--p", "2", "--format", "csv",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert any(ln.startswith("# N=10") for ln in comments)
    assert any(ln.startswith("# version=") for ln in comments)
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert "k_const" in header.split(",")


def test_usage_errors():
    assert run(["constants", "--N", "10", "--p", "3"]) == 2  # above Sobolev
    assert run(["constants", "--N", "4", "--p", "2"]) == 2
    # point singularities are the only gluing model
    for argv in (["no-such-command"], ["glue", "--mode", "flat_edge"], ["glue", "--k", "2"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv


BAD_INPUTS = {
    "symbol --gamma 7.3": "gamma=7.3 outside (0, N/2) for N=10",
    "symbol --gamma 6": "gamma=6.0 outside (0, N/2) for N=10",
    "symbol --xi-points 0": "argument --xi-points: must be >= 1, got 0",
    "indicial --jmax -1": "argument --jmax: must be >= 0, got -1",
    "modes --jmax -1": "argument --jmax: must be >= 0, got -1",
    "glue --eps-list 0.1,0.1": "at least two distinct dilations, got [0.1, 0.1]",
    "auxball --grid 0": "argument --grid: must be an even integer in [2, 4096], got 0",
    "auxball --grid 4098": "argument --grid: must be an even integer in [2, 4096], got 4098",
    "verify-all --grid 161": "argument --grid: must be an even integer in [2, 4096], got 161",
    "delaunay --beta nan": "argument --beta: must be finite, got nan",
    "glue --eps-list 0.1,nan": "dilation eps=nan must lie in (0, 1]",
    "glue --eps-list ,": "--eps-list must be a comma list of numbers, got ','",
    "verify-all --suites glue --eps-list 0.1,x": "--eps-list must be a comma list of numbers",
    "symbol --xi-max nan": "argument --xi-max: must be finite, got nan",
    "symbol --xi-max inf": "argument --xi-max: must be finite, got inf",
    "symbol --xi-max 1e308": "argument --xi-max: must lie in [-1e+07, 1e+07], got 1e308",
    "auxball --lam nan": "argument --lam: must be finite, got nan",
    "auxball --lam inf": "argument --lam: must be finite, got inf",
    "auxball --lam -1": "argument --lam: must be >= 0, got -1",
    "delaunay --tol inf": "argument --tol: must be finite, got inf",
    "delaunay --tol nan": "argument --tol: must be finite, got nan",
    "delaunay --tol 1": "argument --tol: must lie in (2e-06, 1), got 1",
    "delaunay --beta 0": "argument --beta: must be > 0, got 0",
    "delaunay --beta -1": "argument --beta: must be > 0, got -1",
    "delaunay --beta inf": "argument --beta: must be finite, got inf",
    "delaunay --beta x": "argument --beta: must be a finite number > 0, got 'x'",
    "delaunay --tol 2e-6": "argument --tol: must lie in (2e-06, 1), got 2e-6",
    "delaunay --tol x": "argument --tol: must be a number in (2e-06, 1), got 'x'",
    "modes --beta -1": "argument --beta: must be > 0, got -1",
    "modes --beta nan": "argument --beta: must be finite, got nan",
    "modes --tol 0": "argument --tol: must lie in (2e-06, 1), got 0",
    "glue --tol 1.5": "argument --tol: must lie in (2e-06, 1), got 1.5",
    "glue --tol nan": "argument --tol: must be finite, got nan",
    "auxball --lam x": "argument --lam: must be a finite number >= 0, got 'x'",
    "symbol --xi-max x": "argument --xi-max: must be a number in [-1e+07, 1e+07], got 'x'",
    "auxball --grid x": "argument --grid: must be an even integer in [2, 4096], got 'x'",
    "indicial --jmax x": "argument --jmax: must be an integer >= 0, got 'x'",
}


@pytest.mark.parametrize("command", BAD_INPUTS)
def test_bad_input_is_a_usage_error_naming_it(command, capsys):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the input is named, not met by a numpy warning
            rc = run(command.split())
    except SystemExit as exc:  # rejected by the argument parser
        rc = exc.code
    assert rc == 2
    assert BAD_INPUTS[command] in capsys.readouterr().err


def test_solver_error_exits_3(monkeypatch, capsys):
    from biharmlab import auxball
    from biharmlab.core import SolverError

    def failing(kernel, amplitudes, p, alpha_w):
        raise SolverError("amplitude continuation", "no convergence at a=1e6 in 60 Newton steps")

    monkeypatch.setattr(auxball, "blowup_family", failing)
    assert run(["auxball", "--N", "10", "--p", "2", "--grid", "64", "--blowup"]) == 3
    assert "error: amplitude continuation: no convergence" in capsys.readouterr().err


def test_verify_all_reports_a_failed_profile_solve(monkeypatch, tmp_path, capsys):
    from biharmlab import delaunay
    from biharmlab.core import SolverError

    def failing(params, **_):
        raise SolverError("collocation polish", "singular Jacobian")

    monkeypatch.setattr(delaunay, "solve_singular", failing)
    out = tmp_path / "report.json"
    assert run(["verify-all", "--N", "10", "--p", "2", "--out", str(out)]) == 1
    failed = {c["name"]: c["detail"] for c in json.loads(out.read_text())["results"] if not c["ok"]}
    solver = {f"{s}.solver" for s in ("delaunay", "modes", "glue")}
    assert set(failed) == solver, failed
    assert all(failed[name] == "collocation polish: singular Jacobian" for name in solver)
    assert "FAIL glue.solver: collocation polish: singular Jacobian" in capsys.readouterr().err


@pytest.mark.parametrize("N", [48, 100, 200])
@pytest.mark.parametrize("f", [0.02, 0.5])
def test_constants_at_large_dimension(N, f, tmp_path):
    # no runtime cross-check of two closed-form displays and no p-grid scan: below the
    # c_p overflow bound the constants report and suite exit 0 at any N
    p = repr(_window_p(N, f))
    assert run(["constants", "--N", str(N), "--p", p, "--out", str(tmp_path / "c.json")]) == 0
    out = tmp_path / "report.json"
    assert run(["verify-all", "--N", str(N), "--p", p, "--suites", "constants",
                "--out", str(out)]) == 0
    assert [c["ok"] for c in json.loads(out.read_text())["results"]] == [True]


def test_c_p_overflow_is_a_usage_error(capsys):
    # from N = 206 at f = 0.25, c_p = k^(1/(p-1)) leaves floating-point range
    assert run(["constants", "--N", "206", "--p", repr(_window_p(206, 0.25))]) == 2
    err = capsys.readouterr().err
    assert "N=206" in err and "overflows floating-point range" in err


def test_indicial_output(tmp_path):
    out = tmp_path / "i.json"
    assert run(["indicial", "--N", "10", "--p", "2", "--jmax", "4",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    rows = data["results"]
    assert rows[-1]["ordering_ok"] is True
    j0 = rows[0]
    assert j0["zero_pp_re"] == pytest.approx(3.1778645573, abs=1e-9)
    assert j0["max_residual"] <= 1e-9


def test_symbol_exit_gates_identity(tmp_path):
    out = tmp_path / "s.json"
    assert run(["symbol", "--N", "10", "--jmax", "5", "--xi-points", "40",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["results"][0]["theta_xi0"] == pytest.approx(225.0, rel=1e-10)
    assert all(r["max_identity_residual"] <= 1e-8 for r in data["results"])


def test_blowup_fit_window_failure_exits_3(capsys):
    # at (14, 1.6) the largest amplitude leaves fewer than 8 nodes in the tail fit window
    assert run(["auxball", "--N", "14", "--p", "1.6", "--blowup"]) == 3
    assert "error: blow-up rescaling: fit window too narrow" in capsys.readouterr().err


def test_modes_report_carries_exponents_only_for_integration(tmp_path):
    out = tmp_path / "m.json"
    assert run(["modes", "--N", "10", "--p", "2", "--jmax", "4", "--out", str(out)]) == 0
    scan = json.loads(out.read_text())["results"][-1]["scan"]
    assert [e["route"] for e in scan] == ["integration", "analytic"] + 3 * ["certificate"]
    for e in scan:
        assert isinstance(e["exponents"], dict)
        assert bool(e["exponents"]) == (e["route"] == "integration")


def test_modes_scan_completes_on_long_right_tail(tmp_path):
    # at (6, 4.5) e^{gamma tau0} underflows at a j = 4 mode seed; the scan integrates j = 0 only
    out = tmp_path / "m.json"
    assert run(["modes", "--N", "6", "--p", "4.5", "--jmax", "4", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())["results"][-1]
    assert [(e["j"], e["status"]) for e in summary["scan"]] == [
        (0, "PASS"), (1, "NOT-CERTIFIED"), (2, "PASS"), (3, "PASS"), (4, "PASS")]
    assert summary["translation_kernel_residual"] <= 1e-6


def test_modes_translation_residual_on_long_mesh(tmp_path):
    # at (10, 1.68) the mesh reaches r = e^{-t_hi}, where r-space powers of the profile overflow
    out = tmp_path / "m.json"
    assert run(["modes", "--N", "10", "--p", "1.68", "--jmax", "4", "--out", str(out)]) == 0
    resid = json.loads(out.read_text())["results"][-1]["translation_kernel_residual"]
    assert math.isfinite(resid) and resid <= 1e-6


# the README commands at (10, 2), as the benchmark runs them
README_ARGS = {
    "constants": ["constants", "--N", "10", "--p", "2"],
    "indicial": ["indicial", "--N", "10", "--p", "2", "--jmax", "12", "--format", "json",
                 "--out", "roots.json"],
    "symbol": ["symbol", "--N", "10", "--jmax", "10", "--xi-points", "100"],
    "delaunay": ["delaunay", "--N", "10", "--p", "2", "--beta", "1", "--profile-out", "profile.txt"],
    "modes": ["modes", "--N", "10", "--p", "2", "--jmax", "8"],
    "auxball": ["auxball", "--N", "10", "--p", "2", "--lam", "1e-3", "--grid", "160", "--blowup",
                "--cache-dir", ".cache"],
    "glue": ["glue", "--N", "10", "--p", "2", "--mode", "points", "--gamma-w", "-3.5"],
    "verify-all": ["verify-all", "--N", "10", "--p", "2", "--out", "report.json",
                   "--cache-dir", ".cache"],
}


def test_commands_load_only_scipy_linalg(tmp_path):
    """Each command is a fresh process, and scipy's other subpackages double its import time.

    Two processes run the commands through cli.main and then list sys.modules,
    which also catches imports made inside functions at run time.  The closed
    forms load no scipy at all; the solvers load scipy.linalg and what it
    imports itself.
    """
    src = os.path.dirname(os.path.dirname(biharmlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import contextlib, io, json, sys; from biharmlab.cli import main\n"
            "for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))")
    groups = {"closed": ["constants", "indicial", "symbol"],
              "solvers": ["delaunay", "modes", "auxball", "glue", "verify-all"]}
    procs = {}
    for name, cmds in groups.items():
        (tmp_path / name).mkdir()
        procs[name] = subprocess.Popen(
            [sys.executable, "-c", code.format(argvs=[README_ARGS[c] for c in cmds])],
            cwd=tmp_path / name, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
    loaded = {}
    for name, proc in procs.items():
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        loaded[name] = set(json.loads(out))
    # only the files named by --out and --profile-out: no kernel cache under --cache-dir
    assert sorted(os.listdir(tmp_path / "closed")) == ["roots.json"]
    assert sorted(os.listdir(tmp_path / "solvers")) == ["profile.txt", "report.json"]
    assert loaded["closed"] == set()
    assert "scipy.linalg" in loaded["solvers"]
    for sub in ("integrate", "interpolate", "special", "optimize"):
        assert not any(m == f"scipy.{sub}" or m.startswith(f"scipy.{sub}.")
                       for m in loaded["solvers"]), sub


def _src_nodes():
    """(module file name, enclosing function name or None, node) for every AST node under src/."""
    for path in sorted(Path(biharmlab.__file__).parent.glob("*.py")):
        scopes = [(None, ast.parse(path.read_text()))]
        while scopes:
            scope, node = scopes.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.FunctionDef):
                    scopes.append((child.name, child))
                    continue
                scopes.append((scope, child))
                yield path.name, scope, child


def test_src_imports_of_scipy():
    """Every scipy import statement under src/, with the function it sits in.

    A lazy import inside a function that no README command runs escapes
    test_commands_load_only_scipy_linalg; this lists them all from the source.
    """
    found = set()
    for name, scope, node in _src_nodes():
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        found |= {(name, m, scope) for m in modules if m.split(".")[0] == "scipy"}
    assert found == {("radial.py", "scipy.linalg.lapack", "band_solver"),
                     ("delaunay.py", "scipy.integrate", "shoot_once")}


# public names that no code under src/ references, each with the reason it stays
UNREFERENCED_IN_SRC = {
    ("delaunay.py", "kelvin_transform"): "the blow-up oracle of ROADMAP item 3",
    ("delaunay.py", "KelvinProfile.weak_residual"): "the blow-up oracle of ROADMAP item 3",
    ("delaunay.py", "shoot_once"): "bench/tracing.py wraps it",
}


def test_src_public_names_have_a_caller():
    """Every public function, class and method under src/ that no code under src/ references.

    A name counts as referenced when it appears, by name, as a variable or an
    attribute anywhere under src/: a call, a callback, a property read.  Its
    __all__ entry and docstrings do not count, so a name that only tests
    reach is listed, and stays only with a reason in UNREFERENCED_IN_SRC.
    """
    defined, referenced = set(), set()
    for path in sorted(Path(biharmlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((path.name, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined |= {(path.name, f"{node.name}.{m.name}", m.name) for m in node.body
                            if isinstance(m, ast.FunctionDef)}
        referenced |= {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                       if isinstance(n, (ast.Name, ast.Attribute))}
    found = {(module, qualname) for module, qualname, name in defined
             if not name.startswith("_") and name not in referenced}
    assert found == set(UNREFERENCED_IN_SRC)


def _file_write(node):
    """What makes node a file write: np.save*, tempfile, os.replace/rename, mkdir,
    Path.write_*, or open() in a writing mode; None for anything else."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        modules = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
        return "tempfile" if any(m.split(".")[0] == "tempfile" for m in modules) else None
    if isinstance(node, ast.Name):
        return "tempfile" if node.id == "tempfile" else None
    if isinstance(node, ast.Attribute):
        owner = node.value.id if isinstance(node.value, ast.Name) else None
        if ((owner in ("np", "numpy") and node.attr.startswith("save"))
                or (owner == "os" and node.attr in ("replace", "rename"))
                or node.attr in ("mkdir", "makedirs", "write_text", "write_bytes")):
            return f"{owner or '?'}.{node.attr}"
        return None
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
        modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
        for mode in modes:
            if not (isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax+")):
                return "open"
    return None


def test_src_writes_only_the_files_a_flag_names():
    """Every file write under src/, with the function it sits in.

    The reports that --out and --profile-out name are the only files the
    library writes: no kernel cache, no temporary file, no directory.
    """
    found = {(name, _file_write(node), scope) for name, scope, node in _src_nodes()
             if _file_write(node)}
    assert found == {("cli.py", "open", "emit"), ("delaunay.py", "open", "export_profile")}


def test_src_draws_nothing_at_random():
    """No module under src/ references numpy.random or imports random: every
    check and report is deterministic by construction, not by a fixed seed."""
    found = []
    for path in sorted(Path(biharmlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                hit = (node.attr == "random" and isinstance(node.value, ast.Name)
                       and node.value.id in ("np", "numpy"))
            elif isinstance(node, ast.Import):
                hit = any(a.name.split(".")[0] == "random" or a.name.startswith("numpy.random")
                          for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                hit = (module.split(".")[0] == "random" or module.startswith("numpy.random")
                       or (module == "numpy" and any(a.name == "random" for a in node.names)))
            else:
                continue
            if hit:
                found.append((path.name, node.lineno))
    assert found == []


def _window_p(N: int, f: float) -> float:
    return N / (N - 4.0) + f * 4.0 / (N - 4.0)


# (9, 2.0) and (10, 1.7) have alpha_w = -3 and -3.8, where the Pohozaev
# residual once came from nested trapezoid sums of singular integrands
@pytest.mark.parametrize("N, p", [(10, 2.0), (14, 1.4128)]
                         + [(N, _window_p(N, f)) for N, f in ((5, 0.02), (5, 0.25), (5, 0.75),
                                                              (6, 0.75), (7, 0.75), (8, 0.75),
                                                              (11, 0.25), (14, 0.25), (14, 0.75))]
                         + [(9, 2.0), (10, 1.7)])
def test_verify_all_across_the_window(N, p, tmp_path):
    out = tmp_path / "report.json"
    rc = run(["verify-all", "--N", str(N), "--p", repr(p), "--out", str(out)])
    failed = [c["name"] for c in json.loads(out.read_text())["results"] if not c["ok"]]
    assert (rc, failed) == (0, [])


# the checks that scan a domain: each scans the N it is asked about, and says so
SCANS_AT_N = ("indicial.ordering_chain", "symbol.gamma2_identity", "modes.certificates")


def test_verify_all_details_name_the_dimension_asked():
    from biharmlab.verify import run_suites

    details = {c["name"]: c["detail"] for c in run_suites(7, _window_p(7, 0.5))}
    assert {name: details[name] for name in SCANS_AT_N if "N=7" not in details[name]} == {}


def test_delaunay_report_at_the_serrin_end(tmp_path):
    # at (14, 1.4128) (f = 0.032) the mesh is long enough that r-space powers of
    # the profile overflow; the report reads signs and rates in Emden-Fowler time
    out = tmp_path / "d.json"
    assert run(["delaunay", "--N", "14", "--p", "1.4128", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["results"]["signs_ok"] is True


def test_largest_beta_is_a_report_or_a_typed_error(tmp_path):
    # beta / h overflowed, and the NaN frame ended in a raw TypeError; the
    # shift is now formed in logs, and the mode scan never forms the seed's
    # e^(gamma tau0), so its frame-independent exponents are reported, without
    # RuntimeWarnings on the way (2.000747259222779 at beta = 1)
    out, modes = tmp_path / "d.json", tmp_path / "m.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["delaunay", "--beta", "1e308", "--out", str(out)]) == 0
        assert run(["modes", "--beta", "1e308", "--jmax", "2", "--out", str(modes)]) == 0
    assert json.loads(out.read_text())["results"]["beta"] == 1e308
    scan = json.loads(modes.read_text())["results"][-1]["scan"]
    assert list(scan[0]["exponents"].values()) == [pytest.approx(2.000747259222779, abs=1e-9)]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_number_never_reaches_a_report(tmp_path, capsys, fmt):
    # a finite --lam whose Picard iterates overflow: the report would carry
    # "picard_u0": NaN, which is not JSON; it is a numerical failure naming the field
    out = tmp_path / f"a.{fmt}"
    argv = ["auxball", "--N", "10", "--p", "2", "--grid", "64", "--lam", "1e308",
            "--format", fmt, "--out", str(out)]
    assert run(argv) == 3
    row = "results" if fmt == "json" else "results[0]"
    assert f"error: report: {row}.picard_u0 is nan" in capsys.readouterr().err
    assert not out.exists()


def test_glue_default_weight_lies_in_the_window(tmp_path):
    # at (7, 3.0) the old fixed default -3.5 lay outside (4 - N, 0) = (-3, 0)
    out = tmp_path / "g.json"
    assert run(["glue", "--N", "7", "--p", "3", "--eps-list", "0.125,0.0625", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["config"]["gamma_w"] == data["results"]["gamma_w"] == -3.0 + 5 / 12 * 3.0
