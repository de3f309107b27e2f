"""Cutoff-glued approximate solutions and their equation error.

Point mode: for centers x_i with dilations eps_i,

    ubar(x) = sum_i chi_R(x - x_i) eps_i^{-4/(p-1)} u1(|x - x_i| / eps_i),

with chi_R a fixed C^4 polynomial cutoff (1 on B_R, 0 outside B_2R) whose
supports are pairwise disjoint and contained in the box domain.  The error
f = Delta^2 ubar - ubar^p is then supported in the transition annuli.

Flat-edge mode on R^N x R^k: ubar(x,y) = u_eps(|x|) chi_R(|y|).  Since the
profile solves the equation exactly in the x-factor, the product Laplacian
(Delta_x + Delta_y)^2 leaves exactly three error terms:

    f = u_eps^p (chi - chi^p) + 2 Delta_x u_eps . Delta_y chi + u_eps . Delta_y^2 chi.

Everything is assembled analytically from the profile's radial derivatives
and the cutoff's closed-form derivatives; no finite differences enter.

Weighted Holder norms are *sampled* suprema over dyadic shells around the
singular set (lower bounds of the true norms); sample counts and the RNG
seed are part of the report, and a fixed seed makes reports byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Params
from .cutoff import CUTOFF_DERIV_BOUNDS, radial_cutoff
from .delaunay import RadialProfile
from .radial import bilap_radial, dlap_radial, lap_radial

__all__ = [
    "CutoffSpec",
    "GlueConfig",
    "NormReport",
    "DecayFit",
    "approx_solution",
    "error_field",
    "weighted_norm",
    "decay_fit",
    "remainder_Q",
    "export_error_samples",
    "export_norm_report",
]

_BINOM4 = [[1], [1, 1], [1, 2, 1], [1, 3, 3, 1], [1, 4, 6, 4, 1]]


@dataclass(frozen=True)
class CutoffSpec:
    """Radial C^4 cutoff chi_R: 1 on B_R, 0 outside B_2R, polynomial transition.

    deriv_bounds records sup |chi_R^{(k)}| on the transition region.
    """

    radius: float = 1.0

    def chi(self, r, order: int = 0):
        return radial_cutoff(np.asarray(r, dtype=float) / self.radius, order) / self.radius**order

    @property
    def deriv_bounds(self) -> tuple[float, ...]:
        return tuple(b / self.radius**k for k, b in enumerate(CUTOFF_DERIV_BOUNDS))


@dataclass
class GlueConfig:
    """Geometry, dilations, cutoff, profile, and norm weight of one gluing run.

    points mode: `centers` (K, N) with dilations `eps` (K,), all cutoff balls
    B_2R pairwise disjoint and inside the box [-L, L]^N.
    flat_edge mode: edge dimension k (ambient n = N + k), single dilation.
    """

    mode: str
    params: Params
    profile: RadialProfile
    cutoff: CutoffSpec
    gamma_w: float
    centers: np.ndarray | None = None
    eps: np.ndarray | None = None
    edge_k: int = 0
    box_halfwidth: float = 4.0
    sigma: float | None = None  # tubular radius of the norm shells; default 2R

    def __post_init__(self):
        N, p = self.params.N, self.params.p
        R = self.cutoff.radius
        if self.sigma is None:
            self.sigma = 2.0 * R
        if self.mode == "points":
            self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
            self.eps = np.atleast_1d(np.asarray(self.eps, dtype=float))
            if self.centers.shape[1] != N:
                raise ValueError(f"centers must have {N} columns")
            if self.centers.shape[0] != self.eps.size:
                raise ValueError("one dilation per center required")
            if np.any(self.eps <= 0.0) or np.any(self.eps > 1.0):
                raise ValueError("dilations must lie in (0, 1]")
            if not 4.0 - N < self.gamma_w < 0.0:
                raise ValueError(f"points mode needs gamma_w in ({4 - N}, 0), got {self.gamma_w}")
            for i in range(self.centers.shape[0]):
                if np.max(np.abs(self.centers[i])) + 2.0 * R > self.box_halfwidth:
                    raise ValueError(f"cutoff ball at center {i} leaves the box")
                for jj in range(i + 1, self.centers.shape[0]):
                    if np.linalg.norm(self.centers[i] - self.centers[jj]) < 4.0 * R:
                        raise ValueError(f"cutoff balls {i} and {jj} overlap")
        elif self.mode == "flat_edge":
            if self.edge_k < 1:
                raise ValueError("flat_edge mode needs edge dimension k >= 1")
            self.eps = np.atleast_1d(np.asarray(self.eps, dtype=float))
            if self.eps.size != 1 or self.eps[0] <= 0.0 or self.eps[0] > 1.0:
                raise ValueError("flat_edge mode takes a single dilation in (0, 1]")
            lo = -4.0 / (p - 1.0)
            hi = (p - 5.0) / (p - 1.0)
            if not lo < self.gamma_w < hi:
                raise ValueError(f"flat mode needs gamma_w in ({lo}, {hi}), got {self.gamma_w}")
        else:
            raise ValueError(f"unknown mode {self.mode!r}")


def _profile_derivs(profile: RadialProfile, r: np.ndarray, eps: float):
    """u_eps and radial derivatives through order 4 at radii r (r > 0)."""
    a = profile.params.singular_rate
    v = profile.r_view(r / eps)
    scale = eps**-a
    return (
        scale * v.u,
        scale / eps * v.du,
        scale / eps**2 * v.d2u,
        scale / eps**3 * v.d3u,
        scale / eps**4 * v.d4u,
    )


def _product_derivs(chi: list, vd: tuple) -> list:
    """Leibniz derivatives of chi * v through order 4."""
    out = []
    for k in range(5):
        acc = 0.0
        for m, b in enumerate(_BINOM4[k]):
            acc = acc + b * chi[m] * vd[k - m]
        out.append(acc)
    return out


class ApproxSolution:
    """Pointwise evaluator of (ubar, grad, Delta, grad Delta, Delta^2).

    Points must avoid the singular set (centers / edge); everything is
    assembled from closed forms, exact to profile residual where chi = 1.
    """

    def __init__(self, config: GlueConfig):
        self.config = config

    # -- points mode ---------------------------------------------------------
    def _fields_points(self, pts: np.ndarray):
        cfg = self.config
        N = cfg.params.N
        m = pts.shape[0]
        val = np.zeros(m)
        grad = np.zeros((m, N))
        lap = np.zeros(m)
        glap = np.zeros((m, N))
        bilap = np.zeros(m)
        R = cfg.cutoff.radius
        for center, eps in zip(cfg.centers, cfg.eps):
            y = pts - center[None, :]
            r = np.linalg.norm(y, axis=1)
            if np.any(r == 0.0):
                raise ValueError("evaluation exactly on a singular point")
            hit = r < 2.0 * R
            if not np.any(hit):
                continue
            rr = r[hit]
            chi = [cfg.cutoff.chi(rr, k) for k in range(5)]
            vd = _profile_derivs(cfg.profile, rr, eps)
            P = _product_derivs(chi, vd)
            rhat = y[hit] / rr[:, None]
            val[hit] += P[0]
            grad[hit] += P[1][:, None] * rhat
            lap[hit] += lap_radial(N, rr, P[1], P[2])
            glap[hit] += dlap_radial(N, rr, P[1], P[2], P[3])[:, None] * rhat
            bilap[hit] += bilap_radial(N, rr, P[1], P[2], P[3], P[4])
        return val, grad, lap, glap, bilap

    # -- flat-edge mode ------------------------------------------------------
    def _fields_flat(self, pts: np.ndarray):
        cfg = self.config
        N, k = cfg.params.N, cfg.edge_k
        eps = float(cfg.eps[0])
        if pts.shape[1] != N + k:
            raise ValueError(f"flat mode points must have {N + k} columns")
        x = pts[:, :N]
        yy = pts[:, N:]
        rx = np.linalg.norm(x, axis=1)
        ry = np.linalg.norm(yy, axis=1)
        if np.any(rx == 0.0):
            raise ValueError("evaluation exactly on the edge")
        u0, u1, u2, u3, u4 = _profile_derivs(cfg.profile, rx, eps)
        # k-dimensional radial cutoff derivatives in y; guard the ry=0 axis
        ry_safe = np.where(ry == 0.0, 1.0, ry)
        c = [cfg.cutoff.chi(ry, j) for j in range(5)]
        lap_c = np.where(ry == 0.0, k * cfg.cutoff.chi(np.zeros(1), 2),
                         lap_radial(k, ry_safe, c[1], c[2]))
        dlap_c = np.where(ry == 0.0, 0.0, dlap_radial(k, ry_safe, c[1], c[2], c[3]))
        bilap_c = np.where(
            ry == 0.0,
            k * (k + 2.0) * cfg.cutoff.chi(np.zeros(1), 4) / 3.0,
            bilap_radial(k, ry_safe, c[1], c[2], c[3], c[4]),
        )
        lap_u = lap_radial(N, rx, u1, u2)
        dlap_u = dlap_radial(N, rx, u1, u2, u3)
        bilap_u = bilap_radial(N, rx, u1, u2, u3, u4)
        val = u0 * c[0]
        m, n = pts.shape
        grad = np.zeros((m, n))
        grad[:, :N] = (u1 * c[0])[:, None] * (x / rx[:, None])
        yhat = np.where(ry[:, None] == 0.0, 0.0, yy / ry_safe[:, None])
        grad[:, N:] = (u0 * c[1])[:, None] * yhat
        lap = lap_u * c[0] + u0 * lap_c
        glap = np.zeros((m, n))
        glap[:, :N] = (dlap_u * c[0] + u1 * lap_c)[:, None] * (x / rx[:, None])
        glap[:, N:] = (lap_u * c[1] + u0 * dlap_c)[:, None] * yhat
        bilap = bilap_u * c[0] + 2.0 * lap_u * lap_c + u0 * bilap_c
        return val, grad, lap, glap, bilap

    def fields(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.config.mode == "points":
            return self._fields_points(pts)
        return self._fields_flat(pts)

    def value(self, pts) -> np.ndarray:
        return self.fields(pts)[0]

    def bilap(self, pts) -> np.ndarray:
        return self.fields(pts)[4]


class ErrorField:
    """f = Delta^2 ubar - ubar^p, assembled analytically."""

    def __init__(self, config: GlueConfig):
        self.config = config
        self._approx = ApproxSolution(config)

    def value(self, pts) -> np.ndarray:
        val, _, _, _, bilap = self._approx.fields(pts)
        return bilap - np.abs(val) ** (self.config.params.p - 1.0) * val


def approx_solution(config: GlueConfig) -> ApproxSolution:
    return ApproxSolution(config)


def error_field(config: GlueConfig) -> ErrorField:
    return ErrorField(config)


# ---------------------------------------------------------------------------
# weighted Holder norms (sampled)
# ---------------------------------------------------------------------------

@dataclass
class NormReport:
    """Sampled weighted norm: per-shell seminorms, outer norm, and their total.

    total = outer + max over shells of s^{-gamma} (sup + s^alpha * quotient);
    all suprema are sampled lower bounds.  Sample counts and seed are echoed
    for reproducibility.
    """

    gamma_w: float
    alpha_h: float
    sigma: float
    shells: list = field(default_factory=list)   # (s, sup, hoelder_quotient, weighted)
    outer: float = 0.0
    total: float = 0.0
    sample_counts: dict = field(default_factory=dict)
    seed: int = 0
    samples: list = field(default_factory=list)  # (shell index, points, values)


def _unit_vectors(rng, n_dirs: int, dim: int) -> np.ndarray:
    v = rng.standard_normal((n_dirs, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _shell_points_for_center(rng, center, dim, s_lo, s_hi, n_radial, n_dirs):
    radii = np.geomspace(s_lo, s_hi, n_radial)
    dirs = _unit_vectors(rng, n_dirs, dim)
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, dim)
    return pts + center[None, :]


def weighted_norm(value_fn, config: GlueConfig, gamma_w: float, alpha_h: float = 0.0,
                  n_shells: int = 10, n_radial: int = 6, n_dirs: int = 16,
                  n_pairs: int = 20, seed: int = 0) -> NormReport:
    """Sampled C^{0,alpha}_{gamma} norm of a scalar field around the singular set.

    Dyadic shells s_m = sigma 2^{-m}, m = 0..n_shells-1; on each shell the
    sup of |w| and (for alpha_h > 0) sampled Holder quotients of w.  The
    outer region contributes its unweighted sup.  value_fn maps an (m, dim)
    array of points to values.
    """
    cfg = config
    rng = np.random.default_rng(seed)
    sigma = cfg.sigma
    N = cfg.params.N
    report = NormReport(gamma_w=gamma_w, alpha_h=alpha_h, sigma=sigma, seed=seed)
    report.sample_counts = dict(n_shells=n_shells, n_radial=n_radial,
                                n_dirs=n_dirs, n_pairs=n_pairs)

    if cfg.mode == "points":
        dim = N
        centers = list(cfg.centers)

        def shell_pts(s_lo, s_hi):
            return np.concatenate([
                _shell_points_for_center(rng, c, dim, s_lo, s_hi, n_radial, n_dirs)
                for c in centers
            ])

        def outer_pts():
            out = [
                _shell_points_for_center(rng, c, dim, sigma / 2.0, 2.0 * cfg.cutoff.radius,
                                         2 * n_radial, n_dirs)
                for c in centers
            ]
            box = rng.uniform(-cfg.box_halfwidth, cfg.box_halfwidth, (n_dirs, dim))
            keep = np.array([
                min(np.linalg.norm(b - c) for c in centers) > sigma / 2.0 for b in box
            ])
            out.append(box[keep] if np.any(keep) else np.empty((0, dim)))
            return np.concatenate(out)
    else:
        dim = N + cfg.edge_k
        R = cfg.cutoff.radius

        def _flat_pts(s_lo, s_hi, n_rad):
            radii = np.geomspace(s_lo, s_hi, n_rad)
            xdirs = _unit_vectors(rng, n_dirs, N)
            x = (radii[:, None, None] * xdirs[None, :, :]).reshape(-1, N)
            # y samples concentrated where the cutoff varies, plus plateau points
            ry = np.concatenate([
                rng.uniform(R, 2.0 * R, max(n_dirs // 2, 4)),
                rng.uniform(0.0, R, 4),
            ])
            ydirs = _unit_vectors(rng, ry.size, cfg.edge_k)
            y = ry[:, None] * ydirs
            reps = np.repeat(x, y.shape[0], axis=0)
            ytile = np.tile(y, (x.shape[0], 1))
            return np.concatenate([reps, ytile], axis=1)

        def shell_pts(s_lo, s_hi):
            return _flat_pts(s_lo, s_hi, n_radial)

        def outer_pts():
            return _flat_pts(sigma / 2.0, cfg.box_halfwidth, 2 * n_radial)

    shells = []
    samples = []
    for mshell in range(n_shells):
        s = sigma * 2.0 ** (-mshell)
        pts = shell_pts(s / 2.0, s)
        vals = value_fn(pts)
        samples.append((mshell, pts, np.asarray(vals)))
        sup = float(np.max(np.abs(vals)))
        hq = 0.0
        if alpha_h > 0.0:
            base = pts[rng.integers(0, pts.shape[0], n_pairs)]
            step = s * 10.0 ** rng.uniform(-2.0, -0.5, n_pairs)
            dirs = _unit_vectors(rng, n_pairs, dim)
            mate = base + step[:, None] * dirs
            # keep the pair inside the same closed shell
            if cfg.mode == "points":
                d = np.min(np.stack([
                    np.linalg.norm(mate - c[None, :], axis=1) for c in cfg.centers
                ]), axis=0)
            else:
                d = np.linalg.norm(mate[:, :N], axis=1)
            ok = (d >= s / 2.0) & (d <= s)
            if np.any(ok):
                qv = np.abs(value_fn(base[ok]) - value_fn(mate[ok])) / step[ok] ** alpha_h
                hq = float(np.max(qv))
        weighted = s**-gamma_w * (sup + s**alpha_h * hq)
        shells.append((s, sup, hq, weighted))
    outer_vals = value_fn(outer_pts())
    report.outer = float(np.max(np.abs(outer_vals))) if outer_vals.size else 0.0
    report.shells = shells
    report.samples = samples
    report.total = report.outer + max(w for _, _, _, w in shells)
    return report


def export_error_samples(path, approx: "ApproxSolution", report: NormReport) -> None:
    """Columnar text export of the sampled field: coordinates, ubar, f, shell index."""
    with open(path, "w") as fh:
        fh.write("# biharmlab error-field samples v1\n")
        fh.write(f"# mode = {approx.config.mode}\n")
        fh.write(f"# gamma_w = {report.gamma_w!r}\n")
        fh.write(f"# sigma = {report.sigma!r}\n")
        fh.write(f"# seed = {report.seed}\n")
        dim = report.samples[0][1].shape[1]
        cols = " ".join(f"x{k}" for k in range(dim))
        fh.write(f"# columns: {cols} ubar f shell\n")
        for mshell, pts, vals in report.samples:
            ub = approx.value(pts)
            for row, u, f in zip(pts, ub, vals):
                coords = " ".join("%.17g" % c for c in row)
                fh.write(f"{coords} %.17g %.17g {mshell}\n" % (u, f))


def export_norm_report(path, report: NormReport) -> None:
    """Key-value table export of a sampled weighted-norm report."""
    with open(path, "w") as fh:
        fh.write("# biharmlab norm report v1\n")
        fh.write(f"gamma_w = {report.gamma_w!r}\n")
        fh.write(f"alpha_h = {report.alpha_h!r}\n")
        fh.write(f"sigma = {report.sigma!r}\n")
        fh.write(f"seed = {report.seed}\n")
        for key, val in sorted(report.sample_counts.items()):
            fh.write(f"{key} = {val}\n")
        for s, sup, hq, weighted in report.shells:
            fh.write(f"shell[{s!r}] = sup {sup!r} quotient {hq!r} weighted {weighted!r}\n")
        fh.write(f"outer = {report.outer!r}\n")
        fh.write(f"total = {report.total!r}\n")


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

@dataclass
class DecayFit:
    eps_list: list
    norms: list
    slope: float
    nominal: float
    extrapolated_target: bool = False
    reports: list = field(default_factory=list)


def nominal_decay_exponent(params: Params, mode: str, gamma_w: float) -> float:
    if mode == "points":
        return params.N - 4.0 * params.p / (params.p - 1.0)
    return (params.p - 5.0) / (params.p - 1.0) - gamma_w


def decay_fit(params: Params, profile: RadialProfile, eps_list, gamma_w: float,
              mode: str = "points", edge_k: int = 2, seed: int = 0) -> DecayFit:
    """Least-squares slope of log ||f_eps||_{C^{0,alpha}_{gamma-4}} against log eps.

    For the flat-edge model the nominal rate (p-5)/(p-1) - gamma is the
    curved-case exponent used as an extrapolated target (the flat model has
    no curvature terms and decays no slower).
    """
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 2:
        raise ValueError("decay fit needs at least two dilations (>= 4 recommended)")
    cutoff = CutoffSpec(radius=1.0)
    norms, reports = [], []
    for eps in eps_list:
        if mode == "points":
            cfg = GlueConfig(mode="points", params=params, profile=profile,
                             cutoff=cutoff, gamma_w=gamma_w,
                             centers=np.zeros((1, params.N)), eps=[eps],
                             box_halfwidth=2.0 * cutoff.radius + 1.0)
        else:
            cfg = GlueConfig(mode="flat_edge", params=params, profile=profile,
                             cutoff=cutoff, gamma_w=gamma_w, eps=[eps],
                             edge_k=edge_k, box_halfwidth=2.0 * cutoff.radius + 1.0)
        rep = weighted_norm(error_field(cfg).value, cfg, gamma_w - 4.0, seed=seed)
        norms.append(rep.total)
        reports.append(rep)
    slope = float(np.polyfit(np.log(eps_list), np.log(norms), 1)[0])
    return DecayFit(eps_list=eps_list, norms=norms, slope=slope,
                    nominal=nominal_decay_exponent(params, mode, gamma_w),
                    extrapolated_target=(mode == "flat_edge"), reports=reports)


def remainder_Q(ubar, v, p: float, absolute: bool = False) -> np.ndarray:
    """Nonlinear remainder Q(v) = -(ubar+v)^p + ubar^p + p ubar^{p-1} v.

    Requires ubar + v >= 0 unless absolute=True, which switches to the
    |ubar + v|^p variant used to keep the fixed-point iteration well-defined.
    """
    ubar = np.asarray(ubar, dtype=float)
    v = np.asarray(v, dtype=float)
    w = ubar + v
    if absolute:
        head = -np.abs(w) ** p
    else:
        if np.any(w < 0.0) or np.any(ubar < 0.0):
            raise ValueError("remainder needs ubar + v >= 0 (use absolute=True otherwise)")
        head = -(w**p)
    return head + ubar**p + p * ubar ** (p - 1.0) * v
