"""Profile agreement across the window: solve a fixed point set, or compare two runs.

    python3 tools/agreement.py --out head.json
    python3 tools/agreement.py --set large-n --out head-large.json
    python3 tools/agreement.py --compare head.json change.json

`--out` solves `solve_singular(beta=1, tol=1e-4)` at every point of the set
below and writes, per point, its outcome under the window_sweep benchmark's
gate (scaled residual at 4001 points <= 1e-7, endpoint error <= tol, every
number finite), the error text of a failed solve, the node count, the
residual, ubar at 301 times in [-25, 35] and the wall time of the point.
`--compare` prints the points one side passes and the other does not, the
largest profile deviation over the points both pass, and each side's worst
residual, seeded failures and reference-set nodes; for the large-N set it
prints every point's outcome, nodes and seconds on both sides.  It exits 1
when a point that passes in A fails in B, or when B has more seeded
failures than A.

The window set (`--set window`, the default; about a minute):
  - window_sweep's seeded points of seeds 0..399 (`bench/workloads.py`'s
    `draw_points`, imported read-only);
  - the 10 reference points and (10, 2);
  - N = 5..14 x f = linspace(0.02, 0.98, 25);
  - the 80-point grid N = 5..14 x f = 0.02, 0.1, 0.25, 0.5, 0.75, 0.85,
    0.95, 0.98.
A point drawn by several sources is solved once.

The large-N set (`--set large-n`; about 11 minutes where profiles run to
the node cap): N = 26..32, 36, 40, 48, 64, 80, 100 x f = 0.1, 0.25, 0.5,
0.75, 0.9, the 65 points where the profile solver's rounding floor decides
its meshes (ROADMAP item 30).

Run from the repository root; the library comes from ./src.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from workloads import REF_POINTS, SWEEP_POINTS, draw_points, window_p  # noqa: E402

SEEDS = range(400)
GRID_F = (0.02, 0.1, 0.25, 0.5, 0.75, 0.85, 0.95, 0.98)
LARGE_N = (26, 27, 28, 29, 30, 31, 32, 36, 40, 48, 64, 80, 100)
LARGE_F = (0.1, 0.25, 0.5, 0.75, 0.9)
TIMES = np.linspace(-25.0, 35.0, 301)
GATE = 1e-7
TOL = 1e-4


def points(point_set: str = "window") -> dict:
    """(N, p) -> the sources that draw it, in a fixed order."""
    out = {}

    def add(N, p, source):
        out.setdefault((int(N), float(p)), []).append(source)

    if point_set == "large-n":
        for N in LARGE_N:
            for f in LARGE_F:
                add(N, window_p(N, f), "large-n")
        return out
    for seed in SEEDS:
        for N, p in draw_points(np.random.default_rng(seed), SWEEP_POINTS):
            add(N, p, f"seed{seed}")
    for N, f in REF_POINTS:
        add(N, window_p(N, f), "reference")
    add(10, 2.0, "reference")
    for N in range(5, 15):
        for f in np.linspace(0.02, 0.98, 25):
            add(N, window_p(N, float(f)), "f25")
        for f in GRID_F:
            add(N, window_p(N, f), "grid80")
    return out


def solve(N: int, p: float) -> dict:
    from biharmlab.core import validate_params
    from biharmlab.delaunay import solve_singular

    rec = {"ok": False, "error": None, "nodes": None, "residual": None, "ubar": None}
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            prof = solve_singular(validate_params(N, p), beta=1.0, tol=TOL)
            tt = np.linspace(prof.t_lo + 0.1, prof.t_hi - 0.1, 4001)
            resid = float(np.max(prof.scaled_residual(tt)))
            d = prof.diagnostics
            numbers = [v for v in d.values() if isinstance(v, (int, float))]
            rec.update(nodes=d["bvp_nodes"], residual=resid,
                       ubar=[float(v) for v in prof.ubar(TIMES)])
            if not np.all(np.isfinite(numbers + [resid] + rec["ubar"])):
                rec["error"] = "non-finite profile"
            elif not resid <= GATE:
                rec["error"] = f"scaled residual {resid:.3e} > {GATE:g}"
            elif not d["endpoint_rel"] <= TOL:
                rec["error"] = f"endpoint error {d['endpoint_rel']:.3e} > {TOL:g}"
            else:
                rec["ok"] = True
        except Exception as exc:  # every failure is recorded, none ends the run
            rec["error"] = f"{type(exc).__name__}: {exc}"
    rec["warnings"] = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    rec["seconds"] = time.perf_counter() - t0
    return rec


def run(out: Path, point_set: str) -> None:
    rows = []
    for (N, p), sources in points(point_set).items():
        rec = solve(N, p)
        rows.append({"N": N, "p": p, "sources": sources, **rec})
        print(f"N={N:2d} p={p!r:<20} {'ok  ' if rec['ok'] else 'FAIL'} "
              f"nodes={rec['nodes']} res={rec['residual']} {rec['seconds']:.2f} s "
              f"{rec['error'] or ''}", flush=True)
    out.write_text(json.dumps({"set": point_set, "points": rows}, indent=0))


def _seeded_failures(rows) -> int:
    return sum(sum(s.startswith("seed") for s in r["sources"]) for r in rows if not r["ok"])


def compare(a_path: Path, b_path: Path) -> bool:
    """Print the comparison; False when B loses a point A passes or fails more seeded points."""
    runs = [json.loads(Path(x).read_text()) for x in (a_path, b_path)]
    a, b = (run["points"] for run in runs)
    A = {(r["N"], r["p"]): r for r in a}
    B = {(r["N"], r["p"]): r for r in b}
    if A.keys() != B.keys():
        sys.exit("the two runs solved different point sets")
    if runs[0].get("set") == "large-n":
        print("point                       A: outcome nodes seconds    B: outcome nodes seconds")
        for k in A:
            print(f"  N={k[0]:3d} p={k[1]!r:<20}" + "".join(
                f"  {'ok  ' if r['ok'] else 'FAIL'} {str(r['nodes']):>7} {r['seconds']:7.2f}"
                for r in (A[k], B[k])))
    lost = [k for k in A if A[k]["ok"] and not B[k]["ok"]]
    gained = [k for k in A if B[k]["ok"] and not A[k]["ok"]]
    both = [k for k in A if A[k]["ok"] and B[k]["ok"]]
    print(f"points: {len(A)}; pass: {sum(r['ok'] for r in a)} -> {sum(r['ok'] for r in b)}")
    for name, keys, side in (("lost", lost, B), ("gained", gained, A)):
        print(f"{name}: {len(keys)}")
        for k in keys:
            print(f"  N={k[0]:2d} p={k[1]!r}: {side[k]['error']}")
    worst, worst_key = 0.0, None
    for k in both:
        ua, ub = np.array(A[k]["ubar"]), np.array(B[k]["ubar"])
        with np.errstate(divide="ignore", invalid="ignore"):  # ubar underflows to 0 at large N
            rel = np.abs(ub - ua) / np.abs(ua)
        dev = float(np.max(np.where(ub == ua, 0.0, rel)))  # inf where ua = 0 alone
        if not dev < worst:
            worst, worst_key = dev, k
    print(f"largest relative ubar deviation over {len(both)} points passing on both sides: "
          f"{worst:.2e} at {worst_key}")
    same = sum(A[k]["nodes"] == B[k]["nodes"] for k in both)
    print(f"same node count: {same} of {len(both)}")
    for name, rows, side in (("A", a, A), ("B", b, B)):
        ok = [r for r in rows if r["ok"]]
        if not ok:
            print(f"{name}: no point passes")
            continue
        w = max(ok, key=lambda r: r["residual"])
        ref_nodes = sum(r["nodes"] or 0 for r in rows if "reference" in r["sources"]
                        and (r["N"], r["p"]) != (10, 2.0))
        print(f"{name}: worst residual {w['residual']:.2e} at N={w['N']} p={w['p']!r}; "
              f"seeded failures (seeds 0..{SEEDS[-1]}) {_seeded_failures(rows)}; "
              f"nodes per reference set {ref_nodes}; "
              f"RuntimeWarnings {sum(r['warnings'] for r in rows)}; "
              f"seconds {sum(r['seconds'] for r in rows):.1f}")
    return not lost and _seeded_failures(b) <= _seeded_failures(a)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--set", choices=("window", "large-n"), default="window",
                    help="the point set --out solves (default: window)")
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", type=Path, help="solve the point set and write it here")
    group.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                       help="compare two --out files")
    args = ap.parse_args(argv)
    if args.out:
        run(args.out, args.set)
    elif not compare(*args.compare):
        sys.exit(1)


if __name__ == "__main__":
    main()
