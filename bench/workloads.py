"""The benchmark workloads: seeded inputs, timed ops and their correctness gates.

Load is a closed loop with one client: the next op starts when the previous
one returns.  Every op has a gate that decides pass or fail from numbers the
library returned; each gate is written so that NaN fails (`x <= tol` together with
`np.isfinite`, never `not x > tol`).  A window point is
p = serrin + f (sobolev - serrin) with f ~ U(0.02, 0.98), the 2% pad of the
verify suites; where a run draws several points, f is stratified (one
draw per equal slice of the range, slices in seeded order) so that every
run covers the whole window, and N takes distinct values of 5..14.  A
run's seeded ops are a fixed list drawn from the seed, so the same seed
always fails the same ops.

Besides its seeded ops, every workload has a reference set: ops at fixed
inputs that do not depend on the seed, run whole in every run, each
between two runs of a calibration loop.  The benchmark's gated timing
comes from the reference set alone, so it moves with the program and the
machine but not with the points a seed draws.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# fixed window points of the reference sets, one per N = 5..14: f = 0.25
# for even N and 0.75 for odd N, so that both halves of the window are
# covered at every part of the dimension range
REF_POINTS = [(N, 0.25 if N % 2 == 0 else 0.75) for N in range(5, 15)]
# the ball's reference points, N = 5..14 at f = 0.75: Picard and Pohozaev hold
# there at every N (at f = 0.25 Pohozaev misses 1e-3 at every N).  Blow-up
# meets its gate only at N = 8 and 9 of these, so only those two points
# carry it; the seeded ops run it everywhere and count its failures.
BALL_REF_F = 0.75
BALL_REF_BLOWUP = (8, 9)
AMPLITUDES = [1e2, 1e3, 1e4, 1e5, 1e6]
# seeded window points per run; the window sweep takes half of 5..14 per run
# (the reference set already solves at every N), which keeps a run near 30 s
SWEEP_POINTS = 5
BALL_POINTS = 4
CLI_TIMEOUT_S = 150.0


@dataclass
class Op:
    """One timed unit of work.

    `fn(tracer)` does the library work and returns what the gate needs; the
    tracer is None for a plain execution.  The runner installs the wrappers
    for in-process ops; subprocess ops switch to the traced launcher.  Ops
    that leave files keep plain and traced executions in separate
    directories, so the second of a pair never reads what the first wrote.
    `gate(result)` returns None on pass or the reason for failure.  `ref`
    marks the ops of a reference set, whose inputs do not depend on the seed.
    """

    kind: str
    fn: Callable
    gate: Callable
    layer: str
    in_process: bool = True
    ref: bool = False


def window_p(N: int, f: float) -> float:
    serrin, sobolev = N / (N - 4.0), (N + 4.0) / (N - 4.0)
    return serrin + f * (sobolev - serrin)


def stratified_f(rng, n: int) -> np.ndarray:
    return 0.02 + 0.96 * (rng.permutation(n) + rng.random(n)) / n


def draw_points(rng, n: int):
    """n <= 10 window points at distinct N of 5..14, in seeded order, f stratified."""
    dims = rng.permutation(np.arange(5, 15))[:n]
    return [(int(N), window_p(int(N), float(f))) for f, N in zip(stratified_f(rng, n), dims)]


def _within(x, tol) -> bool:
    """Every |x| <= tol; NaN and inf fail."""
    a = np.abs(np.asarray(x, dtype=float))
    return bool(np.all(np.isfinite(a))) and bool(np.all(a <= tol))


def _finite(*xs) -> bool:
    return all(bool(np.all(np.isfinite(np.asarray(x, dtype=float)))) for x in xs)


def _unit_load_error(kernel, N: int):
    """Sup relative error of G[1] against (1-r^2)^2 / (8N(N+2)), the clamped closed form."""
    from biharmlab.auxball import green_apply

    r = kernel.grid.nodes
    exact = (1.0 - r**2) ** 2 / (8.0 * N * (N + 2.0))
    return np.max(np.abs(green_apply(kernel, np.ones_like(r)) - exact)) / np.max(exact)


# ---------------------------------------------------------------------------

class WindowSweep:
    """SWEEP_POINTS seeded window points; each op is one profile solve plus its
    checks.  The reference set solves at REF_POINTS."""

    name = "window_sweep"
    calib = "ode"   # machine-speed gauge the reference set is divided by

    def __init__(self, seed: int, workdir: Path, traced: bool):
        self.rng = np.random.default_rng(seed)

    def setup(self):
        pass

    def seeded(self):
        return [self._op(N, p) for N, p in draw_points(self.rng, SWEEP_POINTS)]

    def reference(self, k):
        return [self._op(N, window_p(N, f), ref=True) for N, f in REF_POINTS]

    @staticmethod
    def _op(N, p, ref=False):
        def fn(_):
            from biharmlab.core import validate_params
            from biharmlab.delaunay import solve_singular

            prof = solve_singular(validate_params(N, p), beta=1.0, tol=1e-4)
            tt = np.linspace(prof.t_lo + 0.1, prof.t_hi - 0.1, 4001)
            return prof, np.max(prof.scaled_residual(tt)), prof.ubar(tt)

        def gate(out):
            prof, resid, ub = out
            d = prof.diagnostics
            if not _finite(ub, [v for v in d.values() if isinstance(v, (int, float))]):
                return "non-finite profile"
            if not _within(resid, 1e-7):
                return f"scaled residual {resid:.3e} > 1e-7"
            if not _within(d["endpoint_rel"], d["tol"]):
                return f"endpoint error {d['endpoint_rel']:.3e} > {d['tol']}"
            return None

        return Op(f"solve_singular@N{N}", fn, gate, "delaunay", ref=ref)


class BallContinuation:
    """BALL_POINTS seeded window points; per point cold kernel builds, a cache
    read, Picard and blow-up.  The reference set runs the same ops at N = 5..14,
    f = BALL_REF_F, blow-up at BALL_REF_BLOWUP only.  Every point builds its
    kernels into a fresh cache directory."""

    name = "ball_continuation"
    calib = "numpy"   # machine-speed gauge the reference set is divided by

    def __init__(self, seed: int, workdir: Path, traced: bool):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)

    def reference(self, k):
        ops = []
        for N in range(5, 15):
            point = self._point_ops(N, window_p(N, BALL_REF_F), self.workdir / f"ref{k}-N{N}")
            ops += point if N in BALL_REF_BLOWUP else point[:-1]
        for op in ops:
            op.ref = True
        return ops

    def seeded(self):
        return [op for i, (N, p) in enumerate(draw_points(self.rng, BALL_POINTS))
                for op in self._point_ops(N, p, self.workdir / f"point{i}")]

    @staticmethod
    def _point_ops(N, p, cache_dir: Path):
        from biharmlab.core import validate_params

        params = validate_params(N, p)
        a_w = params.alpha_w
        kern = {}
        specs = {"M160": (160, 2.0), "M320": (320, 3.0)}

        def build(tag, tracer):
            from biharmlab.auxball import build_kernel, make_grid

            M, sigma_g = specs[tag]
            d = cache_dir / ("traced" if tracer is not None else "plain")
            return build_kernel(N, make_grid(M=M, sigma_g=sigma_g, alpha_w=a_w), cache_dir=str(d))

        def cold(tag):
            def fn(tracer):
                kern[tag] = build(tag, tracer)
                return kern[tag]

            def gate(k):
                err = _unit_load_error(k, N)
                return None if _within(err, 1e-4) else f"unit-load error {err:.3e} > 1e-4"

            return Op(f"build_kernel_{tag}@N{N}", fn, gate, "auxball")

        def reread_fn(tracer):
            return [build(tag, tracer) for tag in specs]

        def reread_gate(ks):
            for tag, k in zip(specs, ks):
                if tag not in kern:
                    return f"cold {tag} kernel missing"
                same = np.array_equal(k.K, kern[tag].K) and \
                    np.array_equal(k.K_origin, kern[tag].K_origin)
                if not same:
                    return f"cached {tag} kernel differs from the built one"
                err = _unit_load_error(k, N)
                if not _within(err, 1e-4):
                    return f"unit-load error {err:.3e} > 1e-4"
            return None

        def picard_fn(_):
            from biharmlab.auxball import picard_minimal, pohozaev_residual

            pic = picard_minimal(kern["M160"], 1e-3, p, a_w)
            res = pohozaev_residual(kern["M160"], pic.u, pic.lam, p, a_w) \
                if pic.converged else float("nan")
            return pic, res

        def picard_gate(out):
            pic, res = out
            if not (pic.converged and _finite(pic.u, pic.u_origin)):
                return f"Picard did not converge ({pic.iterations} iterations)"
            return None if _within(res, 1e-3) else f"Pohozaev residual {res:.3e} > 1e-3"

        def blowup_fn(_):
            from biharmlab.auxball import blowup_family, blowup_rescale

            fam = blowup_family(kern["M320"], AMPLITUDES, p, a_w)
            return blowup_rescale(fam, kern["M320"], p, a_w)

        def blowup_gate(rep):
            if not _finite(rep.tail_exponent, rep.lambdas, rep.amplitudes):
                return "non-finite blow-up report"
            off = rep.tail_exponent - rep.tail_exponent_nominal
            return None if _within(off, 0.1) else \
                f"tail {rep.tail_exponent:.3f} vs nominal {rep.tail_exponent_nominal:.3f}"

        return [cold("M160"), cold("M320"),
                Op(f"build_kernel_cached@N{N}", reread_fn, reread_gate, "auxball"),
                Op(f"picard_pohozaev@N{N}", picard_fn, picard_gate, "auxball"),
                Op(f"blowup@N{N}", blowup_fn, blowup_gate, "auxball")]


# (op kind, argv, report file or None for stdout): the README's invocations at (10, 2)
README_COMMANDS = [
    ("constants", ["constants", "--N", "10", "--p", "2"], None),
    ("indicial", ["indicial", "--N", "10", "--p", "2", "--jmax", "12", "--format", "json",
                  "--out", "roots.json"], "roots.json"),
    ("symbol", ["symbol", "--N", "10", "--jmax", "10", "--xi-points", "100"], None),
    ("delaunay", ["delaunay", "--N", "10", "--p", "2", "--beta", "1",
                  "--profile-out", "profile.txt"], None),
    ("modes", ["modes", "--N", "10", "--p", "2", "--jmax", "8"], None),
    ("auxball", ["auxball", "--N", "10", "--p", "2", "--lam", "1e-3", "--grid", "160",
                 "--blowup", "--cache-dir", ".cache"], None),
    ("glue", ["glue", "--N", "10", "--p", "2", "--mode", "points", "--gamma-w", "-3.5"], None),
    ("verify-all", ["verify-all", "--N", "10", "--p", "2", "--out", "report.json",
                    "--cache-dir", ".cache"], "report.json"),
]
CLI_KINDS = tuple(k for k, _, _ in README_COMMANDS) + ("verify-all-window",)


def _gate_delaunay(res):
    if not _within(res["max_scaled_residual"], 1e-7):
        return f"scaled residual {res['max_scaled_residual']:.3e} > 1e-7"
    if not _within(res["endpoint_rel"], 1e-4):
        return f"endpoint error {res['endpoint_rel']:.3e} > 1e-4"
    return None


def _gate_modes(rows):
    summary = rows[-1]
    exps = [v for e in summary["scan"] for v in e["exponents"].values()]
    if not summary["scan"] or not _finite(exps):
        return "non-finite scan exponents"
    if not _within(summary["translation_kernel_residual"], 1e-6):
        return f"translation kernel residual {summary['translation_kernel_residual']:.3e} > 1e-6"
    return None


def _gate_auxball(res):
    if not _within(res["green_oracle_rel"], 1e-4):
        return f"unit-load error {res['green_oracle_rel']:.3e} > 1e-4"
    if not _within(res.get("pohozaev_residual", float("nan")), 1e-3):
        return f"Pohozaev residual {res.get('pohozaev_residual')} > 1e-3"
    if not _within(res["blowup_tail_exponent"] - res["blowup_tail_nominal"], 0.1):
        return (f"tail {res['blowup_tail_exponent']:.3f} vs nominal "
                f"{res['blowup_tail_nominal']:.3f}")
    return None


def _gate_glue(res):
    if not (_finite(res["norms"]) and _within(res["slope"] - res["nominal"], 0.3)):
        return f"slope {res['slope']} vs nominal {res['nominal']}"
    return None


# checks of a report's numbers, beyond exit code, finiteness and sha256
CLI_GATES = {"delaunay": _gate_delaunay, "modes": _gate_modes, "auxball": _gate_auxball,
             "glue": _gate_glue}
WARNING_LINE = re.compile(r"^(.+?):(\d+): (\w*Warning): (.*)$", re.MULTILINE)


@dataclass
class CliResult:
    returncode: int
    report: bytes
    stderr: bytes
    child: dict | None       # what the traced launcher recorded
    warnings: list           # (category, message, filename, lineno)


class CliReport:
    """The README invocations at (10, 2), in two rounds, as the reference set; one
    verify-all at a seeded window point as the workload's own op.

    Each op is a fresh `python -m biharmlab.cli` process, so every op pays the
    interpreter start and the package import a user pays.  Each round runs in
    a directory of its own, where auxball --blowup and verify-all share one
    --cache-dir, so verify-all reads kernels that auxball wrote; the window
    verify-all starts from an empty directory.  A report's sha256 must match
    every earlier report of the same command line in the run, so every run
    checks that each command prints the same bytes twice.  A traced run
    executes each op plain and traced, which already runs every command
    twice, so it takes one round.
    """

    name = "cli_report"
    calib = "spawn"   # machine-speed gauge the reference set is divided by

    def __init__(self, seed: int, workdir: Path, traced: bool):
        rng = np.random.default_rng(seed)
        N = int(rng.integers(5, 15))
        self.seed = seed
        self.window = (N, window_p(N, float(rng.uniform(0.02, 0.98))))
        self.workdir = workdir
        self.rounds = 1 if traced else 2
        self.root = Path(__file__).resolve().parent.parent
        self.known = {}   # command line -> sha256 of its first report

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)

    def seeded(self):
        N, p = self.window
        args = ["verify-all", "--N", str(N), "--p", repr(p), "--out", "report-window.json",
                "--cache-dir", ".cache", "--seed", str(self.seed)]
        return [self._op("verify-all-window", args, "report-window.json", self.workdir / "window")]

    def reference(self, k):
        return [self._op(kind, args + ["--seed", str(self.seed)], out,
                         self.workdir / f"round{r}", ref=True)
                for r in range(k * self.rounds, (k + 1) * self.rounds)
                for kind, args, out in README_COMMANDS]

    def _op(self, kind, args, out, cwd: Path, ref=False):
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        launcher = str(self.root / "bench" / "cli_launch.py")

        def fn(tracer):
            run_dir = cwd / ("traced" if tracer is not None else "plain")
            run_dir.mkdir(parents=True, exist_ok=True)
            spans_file = run_dir / f"spans-{kind}.json"
            if tracer is None:
                cmd = [sys.executable, "-m", "biharmlab.cli", *args]
            else:
                cmd = [sys.executable, launcher, str(spans_file), *args]
            proc = subprocess.run(cmd, cwd=run_dir, env=env, capture_output=True,
                                  timeout=CLI_TIMEOUT_S)
            report_file = run_dir / out if out else None
            report = report_file.read_bytes() if out and report_file.exists() else proc.stdout
            if out:
                report_file.unlink(missing_ok=True)
            child = None
            if tracer is not None and spans_file.exists():
                child = json.loads(spans_file.read_text())
                spans_file.unlink()
            warns = child["warnings"] if child else \
                [(c, m, f, int(n)) for f, n, c, m in
                 WARNING_LINE.findall(proc.stderr.decode(errors="replace"))]
            return CliResult(proc.returncode, report, proc.stderr, child, warns)

        def gate(res):
            rc, report = res.returncode, res.report
            if rc != 0:
                last = res.stderr.decode(errors="replace").strip().splitlines()[-1:]
                return f"exit {rc}: {last[0] if last else ''}"

            def reject(tok):
                raise ValueError(f"non-finite {tok}")

            try:
                parsed = json.loads(report, parse_constant=reject)
            except ValueError as exc:
                return f"report unreadable: {exc}"
            if kind in CLI_GATES:
                try:
                    reason = CLI_GATES[kind](parsed["results"])
                except (KeyError, IndexError, TypeError) as exc:
                    reason = f"report lacks {exc!r}"
                if reason is not None:
                    return reason
            digest = hashlib.sha256(report).hexdigest()
            if self.known.setdefault(" ".join(args), digest) != digest:
                return "report sha256 differs from an earlier run of the command"
            return None

        return Op(kind, fn, gate, "cli", in_process=False, ref=ref)


WORKLOADS = {w.name: w for w in (WindowSweep, BallContinuation, CliReport)}
