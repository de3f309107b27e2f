"""Running ops against the clock, and turning what they did into metrics."""

from __future__ import annotations

import builtins
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import (LAYERS, SPAN_NAMES, Tracer, children_per_parent, info_sum, install,
                     layer_of, span_stats, uninstall)
from workloads import CLI_KINDS


@dataclass
class Record:
    kind: str
    seconds: float
    ok: bool
    reason: str | None
    traced: bool
    exit: int | None = None
    ref: bool = False        # op of a reference set, not one of the workload's seeded ops


@dataclass
class Run:
    records: list = field(default_factory=list)
    timed_s: float = 0.0
    main_s: float = 0.0
    calib_s: dict = field(default_factory=dict)   # kind -> {start, end}
    calib_loops: list = field(default_factory=list)   # loop times next to reference ops
    peak_rss_mb: float = 0.0
    traced: bool = False
    warnings: Counter = field(default_factory=Counter)
    child_import_s: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.records)

    @property
    def correct(self) -> bool:
        """Every op of the reference set passed its gate.

        The reference inputs are fixed and pass at the baseline, so a failed
        reference op is a fault of the program.  Seeded ops may fail at some
        window points; those count in `failed` and `fail_ratio`.
        """
        return all(r.ok for r in self.records if r.ref)


def _calib_ode():
    """One DOP853 solve of x'' = -x through scipy: interpreter-bound, like the integrators."""
    from scipy.integrate import solve_ivp   # not at module import: set-up time is measured

    solve_ivp(_oscillator, (0.0, 60.0), [1.0, 0.0], method="DOP853", rtol=1e-10, atol=1e-12)


def _oscillator(t, y):
    return [y[1], -y[0]]


def _calib_numpy():
    """Elementwise ufuncs over 1e5 doubles: array-bound, like the kernel assembly."""
    y = np.linspace(0.0, 1.0, 100_000)
    for _ in range(10):
        y = np.sqrt(np.exp(-y) + y * y)


def _calib_spawn():
    """A fresh interpreter that imports numpy and scipy.integrate: the start-up every
    CLI command pays, which an in-process loop does not track."""
    subprocess.run([sys.executable, "-c", "import numpy, scipy.integrate"], check=True,
                   timeout=60)


# kind -> (loop, runs of it before each reference op)
CALIBRATIONS = {"ode": (_calib_ode, 6), "numpy": (_calib_numpy, 6), "spawn": (_calib_spawn, 1)}
# loops timed at the start and the end of every run, so machine-speed drift shows
MACHINE_GAUGES = ("ode", "numpy")


def calibration_loops(kind: str, runs: int | None = None) -> list:
    """Times of runs of a fixed loop that runs no biharmlab code: a gauge of machine speed.

    Other tenants slow interpreter-bound work, array-bound work and process
    start-up by different amounts at different times, so each workload's
    reference set is divided by the loop of its own kind (Workload.calib).
    """
    loop, default_runs = CALIBRATIONS[kind]
    times = []
    for _ in range(runs or default_runs):
        t = time.perf_counter()
        loop()
        times.append(time.perf_counter() - t)
    return times


def run_setup(workload, tracer):
    if tracer is None:
        workload.setup()
        return
    tracer.op = "setup"
    undo = install(tracer)
    try:
        workload.setup()
    finally:
        uninstall(undo)


def _replay(records):
    """Re-raise warnings a subprocess reported, so they are counted here and still shown."""
    for cat, msg, filename, lineno in records:
        category = getattr(builtins, cat, None)
        if not (isinstance(category, type) and issubclass(category, Warning)):
            category = RuntimeWarning
        warnings.warn_explicit(msg, category, filename, lineno)


def _execute(op, tracer, op_id, run: Run):
    """Run one op (traced when a tracer is given), then gate its result."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        result, error = None, None
        try:
            if tracer is None:
                result = op.fn(None)
            else:
                with tracer.op_span(f"op.{op.kind.split('@')[0]}", op_id) as idx:
                    if op.in_process:
                        undo = install(tracer)
                        try:
                            result = op.fn(tracer)
                        finally:
                            uninstall(undo)
                    else:
                        result = op.fn(tracer)
                        child = result.child or {}
                        tracer.add_child_spans(child.get("spans", []), idx, op_id)
                        if "import_s" in child:
                            run.child_import_s.append(child["import_s"])
            seconds = time.perf_counter() - t0
        except Exception as exc:  # an op that raises is a failed op, not a crash
            seconds = time.perf_counter() - t0
            error = f"{type(exc).__name__}: {exc}"
        if result is not None and not op.in_process:
            _replay(result.warnings)
    counts, shown = Counter(), Counter()
    for w in caught:
        counts[layer_of(w.filename, op.layer)] += 1
        shown[f"{os.path.basename(w.filename)}:{w.lineno}: {w.category.__name__}: {w.message}"] += 1
    for text, n in shown.items():
        sys.stderr.write(f"warning [{op.kind}] {text} (x{n})\n")
    if run.traced == (tracer is not None):   # a traced run counts its traced executions
        run.warnings.update(counts)
    reason = error if error is not None else op.gate(result)
    rec = Record(op.kind, seconds, reason is None, reason, tracer is not None,
                 getattr(result, "returncode", None), op.ref)
    run.records.append(rec)
    return rec


def run_timed(workload, seconds: float, tracer) -> Run:
    """Closed loop over the ops the seed fixes, then the reference set again until `seconds`.

    Which ops a run executes never depends on how fast they ran: the
    workload's seeded ops and its reference set, one op of each in turn,
    so the same seed gives the same ops, `attempted` and `failed`.  Should
    they end before `seconds` have passed, the reference set runs again,
    whole, until the time is up.  In untraced runs the calibration loop
    runs before each reference op.  Traced runs execute each op plain and
    traced, alternating which goes first.
    """
    run = Run(traced=tracer is not None)
    calib_start = {kind: statistics.median(calibration_loops(kind, 3))
                   for kind in MACHINE_GAUGES}
    t0 = time.perf_counter()
    op_id = 0

    def execute(op):
        nonlocal op_id
        order = (None, tracer) if op_id % 2 == 0 else (tracer, None)
        for tr in (order if tracer is not None else (None,)):
            if op.ref and tracer is None:
                run.calib_loops += calibration_loops(workload.calib)
            rec = _execute(op, tr, op_id, run)
            if not (op.ref or rec.traced):
                run.main_s += rec.seconds
        op_id += 1

    for pair in itertools.zip_longest(workload.reference(0), workload.seeded()):
        for op in pair:
            if op is not None:
                execute(op)
    k = 1
    while time.perf_counter() < t0 + seconds:
        for op in workload.reference(k):
            execute(op)
        k += 1
    run.timed_s = time.perf_counter() - t0
    run.calib_s = {kind: {"start": calib_start[kind],
                          "end": statistics.median(calibration_loops(kind, 3))}
                   for kind in MACHINE_GAUGES}
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_report" else resource.RUSAGE_SELF
    run.peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    return run


def child_setup(cmd, timeout: float) -> float:
    """Set-up time of a fresh interpreter running the same workload's set-up."""
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=os.getcwd())
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# metrics

def tail(times):
    """Highest percentile with at least ten samples beyond it: (value, percentile, n)."""
    n = len(times)
    if n < 11:
        return None, None, n
    return sorted(times)[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(run: Run, setups) -> dict:
    main = [r for r in run.records if not r.traced and not r.ref]
    ok = [r.seconds for r in main if r.ok]
    refs = [r for r in run.records if not r.traced and r.ref and r.ok]
    return {
        "setup_s": statistics.median(setups),
        "ok_per_s": len(ok) / run.main_s if run.main_s else 0.0,
        # with no op passing, the median of all ops keeps a figure defined
        "op_p50_s": statistics.median(ok or [r.seconds for r in main] or [run.main_s]),
        "op_tail_s": tail(ok)[0],
        "fail_ratio": run.failed / run.attempted,
        "peak_rss_mb": run.peak_rss_mb,
        "ref_op_p50_s": statistics.median([r.seconds for r in refs]) if refs else None,
        "ref_op_rel": ref_op_rel(refs, run.calib_loops),
    }


def ref_op_rel(refs, loops):
    """Time of the reference set in units of the calibration loop.

    The machine's speed swings between runs, the program's cost does not.
    The loop's time is averaged over every run of it next to the reference
    ops: a shared machine has fast and slow spells, and the mean weighs
    them as the ops meet them.  Each reference op counts once, at its mean
    time over its executions in the run (the README commands run twice).
    Passing ops only; a run with a failed reference op is not correct
    (None when none passed).
    """
    times = {}
    for r in refs:
        times.setdefault(r.kind, []).append(r.seconds)
    if not times:
        return None
    return sum(statistics.fmean(t) for t in times.values()) / statistics.fmean(loops)


def per_layer(run: Run, tracer: Tracer, import_s: float) -> dict:
    spans = tracer.spans
    st = span_stats(spans)
    m = {"core.import_s": statistics.median(run.child_import_s) if run.child_import_s
         else import_s}
    for name in SPAN_NAMES:
        for key in ("calls", "s", "self_s"):
            m[f"{name}.{key}"] = st[name][key]
    m["delaunay.solve_singular.fail"] = st["delaunay.solve_singular"]["fail"]
    m["delaunay.polish_s"] = st["delaunay.solve_singular"]["self_s"]
    m["delaunay.bisections"] = info_sum(spans, "delaunay.solve_singular", "bisections")
    m["delaunay.bvp_nodes"] = info_sum(spans, "delaunay.solve_singular", "bvp_nodes")
    shots = children_per_parent(spans, "delaunay.shoot_once", "delaunay.solve_singular")
    m["delaunay.shoot_once.per_solve"] = statistics.median(shots) if shots else 0
    solves = st["linearized.mode_solve"]["calls"]
    useful = info_sum(spans, "linearized.injectivity_scan", "useful")
    m["linearized.mode_solve.useful_ratio"] = useful / solves if solves else 0.0
    per_scan = children_per_parent(spans, "linearized.mode_solve", "linearized.injectivity_scan")
    m["linearized.mode_solve.per_scan"] = statistics.median(per_scan) if per_scan else 0
    m["gluing.points_sampled"] = info_sum(spans, "gluing.weighted_norm", "points")
    assembled = {s.parent for s in spans if s.name == "auxball._boggio_ring"}
    cold = {i for i, s in enumerate(spans) if s.name == "auxball.build_kernel" and i in assembled}
    m["auxball.build_kernel.cache_hits"] = st["auxball.build_kernel"]["calls"] - len(cold)
    m["auxball.kernel_pair_evals"] = info_sum(spans, "auxball._boggio_ring", "pairs")
    m["auxball.kernel_bytes"] = info_sum(spans, "auxball.build_kernel", "bytes",
                                         where=cold.__contains__)
    m["auxball.picard_iterations"] = info_sum(spans, "auxball.picard_minimal", "iterations")
    for layer in LAYERS:
        m[f"{layer}.fp_warnings"] = run.warnings[layer]
    for kind in CLI_KINDS:
        recs = [r for r in run.records if r.kind == kind and not r.traced]
        m[f"cli.{kind}.wall_s"] = statistics.median([r.seconds for r in recs]) if recs else 0.0
        m[f"cli.{kind}.exit"] = max((r.exit for r in recs), default=0)
    pairs = _pairs(run.records)
    plain_s = sum(p.seconds for p, _ in pairs)
    traced_s = sum(t.seconds for _, t in pairs)
    m["trace.overhead_s"] = (traced_s - plain_s) / len(pairs) if pairs else 0.0
    m["trace.overhead_ratio"] = traced_s / plain_s - 1.0 if plain_s else 0.0
    m["trace.spans"] = len(spans)
    m["machine.calib_s"] = statistics.median(run.calib_s["ode"].values())
    m["machine.calib_numpy_s"] = statistics.median(run.calib_s["numpy"].values())
    return m


def _pairs(records):
    """(plain, traced) records of the same op execution pair."""
    out = []
    for a, b in zip(records[::2], records[1::2]):
        plain, traced = (a, b) if not a.traced else (b, a)
        if plain.kind == traced.kind and plain.traced != traced.traced:
            out.append((plain, traced))
    return out


def write_spans(tracer: Tracer, root: str, workload: str, seed: int) -> str:
    path = os.path.join(root, ".bench_state", f"spans-{workload}-seed{seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump([s.as_list() for s in tracer.spans], fh)
    return path


# ---------------------------------------------------------------------------
# provenance and report

def _git_revision(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_file = os.path.join(root, ".git", ref[5:])
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(ref[5:]):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _src_digest(root: str) -> str:
    h = hashlib.sha256()
    src = Path(root, "src", "biharmlab")
    for f in sorted(src.glob("*.py")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def provenance(root: str, seed: int, nproc: int, run: Run) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "seed": seed,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_revision": _git_revision(root),
        "src_sha256": _src_digest(root),
        "machine.calib_s": run.calib_s,
    }


UNITS = {"setup_s": "s", "ok_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
         "fail_ratio": "ratio", "peak_rss_mb": "MB", "ref_op_p50_s": "s",
         "ref_op_rel": "calib"}


def print_report(args, run: Run, setups, metrics, wanted, prov):
    plain = [r for r in run.records if not r.traced]
    main = [r for r in plain if not r.ref]
    ok = [r for r in main if r.ok]
    refs = [r for r in plain if r.ref]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {run.attempted} ops attempted, "
          f"{run.attempted - run.failed} ok, {run.failed} failed; timed phase "
          f"{run.timed_s:.2f} s, {run.main_s:.2f} s of it in workload ops")
    if not args.trace:
        value, pct, n = tail([r.seconds for r in ok])
        detail = {
            "setup_s": "median of %d set-ups: %s" % (len(setups),
                                                     ", ".join(f"{s:.3f}" for s in setups)),
            "ok_per_s": f"{len(ok)} ok ops in {run.main_s:.2f} s",
            "op_p50_s": f"median of {len(ok)} ok ops",
            "op_tail_s": (f"p{pct:.1f} of {n} ok ops" if value is not None
                          else f"n/a: needs >= 11 ok ops, have {n}"),
            "fail_ratio": f"{run.failed} of {run.attempted} ops",
            "peak_rss_mb": "largest child process" if args.workload == "cli_report"
                           else "this process",
            "ref_op_p50_s": f"median of {sum(r.ok for r in refs)} ok reference ops",
            "ref_op_rel": f"their time over the mean of {len(run.calib_loops)} "
                          "calibration loops run next to them",
        }
        for name, unit in UNITS.items():
            v = metrics[name]
            shown = "n/a" if v is None else f"{v:.6g}"
            print(f"  {name:<12} {shown:>12} {unit:<6} ({detail[name]})")
    else:
        for m in wanted:
            v = metrics.get(m["name"])
            if v:
                print(f"  {m['name']:<44} {v:>14.6g} {m['unit']}")
        print("  (auxball.kernel_pair_evals and auxball.kernel_bytes are computed from the grid "
              "sizes and the angular rule, not measured)")
    kinds = {}
    for r in plain:
        label = r.kind.split("@")[0] + (" (ref)" if r.ref else "")
        kinds.setdefault(label, []).append(r)
    for kind, recs in kinds.items():
        good = [r.seconds for r in recs if r.ok]
        p50 = f"{statistics.median(good):.4g} s" if good else "n/a"
        print(f"  op {kind:<40} n={len(recs):<4} ok={len(good):<4} p50={p50}")
    for r in plain:
        if not r.ok:
            print(f"  FAIL {r.kind}{' (ref)' if r.ref else ''} after {r.seconds:.2f} s: "
                  f"{(r.reason or '')[:160]}")
    if run.warnings:
        print("  fp warnings by layer: " + ", ".join(f"{k}={v}" for k, v in
                                                     sorted(run.warnings.items())))
    print("metrics " + json.dumps(metrics, sort_keys=True))
    print("provenance " + json.dumps(prov, sort_keys=True))

