"""biharmlab benchmark: one closed-loop client runs the ops of a named workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.  The
workloads (see workloads.py) are window_sweep, ball_continuation and
cli_report.  Inputs come from --seed only, and so does the list of ops a
run executes (see harness.run_timed).  Every op is checked by its gate;
failed ops are counted, never dropped.  `correct` is false, and the exit
code 1, when an op of a reference set fails (see harness.Run.correct).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
(spans recorded around biharmlab's public functions, see tracing.py).  In a
traced run every op runs twice, once plain and once traced, in alternating
order, and the difference is reported as the tracing overhead.  The metric
names and units come from BENCHMARK.json at the checkout root.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 5          # set-ups per run (this process plus fresh children)
CHILD_TIMEOUT_S = 170.0


def process_age() -> float:
    """Seconds since this process started (kernel start time, 10 ms ticks)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("window_sweep", "ball_continuation", "cli_report"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set the workload up, print its set-up time and exit")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(src, "biharmlab", "__init__.py")):
        sys.stderr.write(f"bench: no biharmlab sources under {src}\n")
        return 2
    if not os.path.isfile(spec_path):
        sys.stderr.write(f"bench: {spec_path} missing\n")
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)   # BLAS threads capped at nproc, children too
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import biharmlab  # noqa: F401
    import biharmlab.cli  # noqa: F401  (core, indicial)
    import_s = time.perf_counter() - t0

    import harness
    from workloads import WORKLOADS

    with open(spec_path) as fh:
        spec = json.load(fh)
    workdir = os.path.join(ROOT, ".bench_state", f"{args.workload}-{os.getpid()}")
    workload = WORKLOADS[args.workload](args.seed, Path(workdir), bool(args.trace))
    tracer = harness.Tracer() if args.trace else None
    harness.run_setup(workload, tracer)
    setup_main = process_age()
    if args.setup_only:
        shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": setup_main}))
        return 0

    run = harness.run_timed(workload, args.seconds, tracer)
    child_cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    setups = [setup_main] + [harness.child_setup(child_cmd, CHILD_TIMEOUT_S)
                             for _ in range(SETUP_REPEATS - 1)]
    shutil.rmtree(workdir, ignore_errors=True)

    prov = harness.provenance(ROOT, args.seed, nproc, run)
    if args.trace:
        metrics = harness.per_layer(run, tracer, import_s)
        wanted = spec["per_layer"]
        harness.write_spans(tracer, ROOT, args.workload, args.seed)
    else:
        metrics = harness.end_to_end(run, setups)
        wanted = spec["end_to_end"]
    harness.print_report(args, run, setups, metrics, wanted, prov)
    if not any(r.ok for r in run.records if r.ref):
        sys.stderr.write("bench: no reference op passed its gate\n")
        return 1
    out = {}
    for m in wanted:
        if metrics.get(m["name"]) is None:
            sys.stderr.write(f"bench: metric {m['name']} was not computed\n")
            return 1
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
