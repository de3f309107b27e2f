"""CLI surface: outputs, provenance, exit codes, determinism."""

import json
import math

import pytest

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
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2


def test_solver_error_exits_3(monkeypatch, capsys):
    from biharmlab import auxball
    from biharmlab.core import SolverError

    def failing(kernel, amplitudes, p, alpha_w):
        raise SolverError("amplitude continuation", "no convergence at a=1e6 in 60 Newton steps")

    monkeypatch.setattr(auxball, "blowup_family", failing)
    assert run(["auxball", "--N", "10", "--p", "2", "--grid", "64", "--blowup"]) == 3
    assert "error: amplitude continuation: no convergence" in capsys.readouterr().err


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
