"""Spans around biharmlab's layer boundaries, recorded from outside the library.

A span is one call of a public layer function: its name, start, end, the
span that was open when it started (its parent) and the benchmark op it
belongs to.  Spans stay in memory and are written out when the run ends.

`install` swaps each boundary function for a timing wrapper in its own
module and in every loaded biharmlab module that bound the same object at
import (`linearized` binds `indicial_roots` that way); `uninstall` puts the
originals back.  Code that resolves names at call time (the CLI imports
inside its subcommands) picks the wrapper up from the owning module.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

# verify.ALL_SUITES, spelled out so that importing this module imports no biharmlab
SUITES = ("constants", "indicial", "symbol", "delaunay", "modes", "auxball", "glue")

# module -> functions timed as spans.  auxball._boggio_ring is private, but it
# is the kernel assembly itself: a build_kernel span without one under it was
# served from the cache.
BOUNDARIES = {
    "delaunay": ("solve_singular", "shoot_once"),
    "linearized": ("injectivity_scan", "mode_solve", "translation_kernel_residual"),
    "gluing": ("decay_fit", "weighted_norm"),
    "auxball": ("build_kernel", "_boggio_ring", "picard_minimal", "solve_at_amplitude",
                "blowup_family"),
    "indicial": ("indicial_roots", "verify_ordering"),
    "symbol": ("theta_cylinder", "symbol_indicial_identity"),
    "verify": tuple(f"suite_{s}" for s in SUITES),
}
SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in BOUNDARIES.items() for f in fs)
# layers that fp warnings are attributed to, by the file that raised them
LAYERS = ("core", "indicial", "delaunay", "linearized", "symbol", "auxball", "gluing",
          "verify", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "failed", "info")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = 0.0
        self.failed = False
        self.info = None

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.op, self.failed, self.info]

    @classmethod
    def from_list(cls, row):
        s = cls(row[0], row[3], row[4])
        s.start, s.end, s.failed, s.info = row[1], row[2], row[5], row[6]
        return s


# -- result-derived counters, attached to the span as `info` ------------------

def _count_points(span, args, kwargs):
    """Wrap weighted_norm's value_fn so every sampled point is counted."""
    counter = span.info = {"points": 0}
    fn = args[0] if args else kwargs["value_fn"]

    def counted(pts):
        counter["points"] += len(pts)
        return fn(pts)

    if args:
        return (counted,) + tuple(args[1:]), kwargs
    return args, dict(kwargs, value_fn=counted)


def _pair_evals(span, args, kwargs):
    """Kernel entries x angular nodes that one _boggio_ring call evaluates (computed)."""
    aux = sys.modules["biharmlab.auxball"]
    n_ang = aux._angular_rule()[0].size
    span.info = {"pairs": len(args[1]) * len(args[2]) * n_ang}
    return args, kwargs


PRE_HOOKS = {"gluing.weighted_norm": _count_points, "auxball._boggio_ring": _pair_evals}

POST_HOOKS = {
    "delaunay.solve_singular": lambda r: {"bisections": r.diagnostics["bisections"],
                                          "bvp_nodes": r.diagnostics["bvp_nodes"]},
    "auxball.build_kernel": lambda k: {"bytes": k.K.nbytes + k.K_origin.nbytes},
    "auxball.picard_minimal": lambda r: {"iterations": r.iterations},
    "linearized.injectivity_scan": lambda entries: {
        "useful": sum(len(e.branch_exponents) for e in entries if e.route == "integration")},
}


class Tracer:
    """In-memory span recorder; `op` tags new spans with the current benchmark op."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = None

    def wrap(self, name, fn):
        pre, post = PRE_HOOKS.get(name), POST_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, self.op)
            if pre is not None:
                args, kwargs = pre(span, args, kwargs)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if post is not None:
                span.info = {**(span.info or {}), **post(result)}
            return result

        return traced

    @contextlib.contextmanager
    def op_span(self, name, op):
        """Root span of one benchmark op; yields its index for child spans."""
        span = Span(name, None, op)
        idx = len(self.spans)
        self.spans.append(span)
        self._stack.append(idx)
        self.op = op
        span.start = time.perf_counter()
        try:
            yield idx
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def add_child_spans(self, rows, parent: int, op):
        """Merge spans recorded in a subprocess under the op span `parent`.

        Child times are on the child's clock; only durations and the
        intervals of siblings (same clock) are ever compared.
        """
        base = len(self.spans)
        for row in rows:
            s = Span.from_list(row)
            s.parent = parent if s.parent is None else base + s.parent
            s.op = op
            self.spans.append(s)


def install(tracer: Tracer) -> list:
    """Swap every boundary function for a traced wrapper; returns the undo list."""
    importlib.import_module("biharmlab.cli")
    for mod in BOUNDARIES:
        importlib.import_module(f"biharmlab.{mod}")
    lib = [m for n, m in list(sys.modules.items())
           if m is not None and (n == "biharmlab" or n.startswith("biharmlab."))]
    undo = []
    for mod, fnames in BOUNDARIES.items():
        owner = sys.modules[f"biharmlab.{mod}"]
        for fname in fnames:
            orig = getattr(owner, fname)
            wrapped = tracer.wrap(f"{mod}.{fname}", orig)
            for m in lib:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)
                        undo.append((m, attr, orig))
    return undo


def uninstall(undo: list) -> None:
    for m, attr, orig in reversed(undo):
        setattr(m, attr, orig)


def layer_of(filename: str, default: str) -> str:
    """Layer a warning belongs to: the biharmlab module whose file raised it."""
    parts = filename.replace("\\", "/").split("/")
    if len(parts) >= 2 and parts[-2] == "biharmlab":
        mod = parts[-1].removesuffix(".py")
        if mod in LAYERS:
            return mod
    return default


# -- aggregation ----------------------------------------------------------------

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    kids: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append((s.start, s.end))
    return [s.end - s.start - _covered(kids.get(i, ())) for i, s in enumerate(spans)]


def span_stats(spans: list[Span]) -> dict:
    """Per span name: calls, busy seconds, self seconds, failures, child counts."""
    selfs = self_times(spans)
    out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0, "fail": 0} for n in SPAN_NAMES}
    for s, st in zip(spans, selfs):
        d = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "fail": 0})
        d["calls"] += 1
        d["s"] += s.end - s.start
        d["self_s"] += st
        d["fail"] += int(s.failed)
    return out


def info_sum(spans: list[Span], name: str, key: str, where=None) -> int:
    return sum((s.info or {}).get(key, 0) for i, s in enumerate(spans)
               if s.name == name and (where is None or where(i)))


def children_per_parent(spans: list[Span], child: str, parent: str) -> list[int]:
    """For every `parent` span, how many direct `child` spans it has."""
    counts = {i: 0 for i, s in enumerate(spans) if s.name == parent}
    for s in spans:
        if s.name == child and s.parent in counts:
            counts[s.parent] += 1
    return list(counts.values())
