"""Cutoff-glued approximate solutions and their equation error.

For centers x_i with dilations eps_i,

    ubar(x) = sum_i chi_R(x - x_i) eps_i^{-4/(p-1)} u1(|x - x_i| / eps_i),

with chi_R a fixed C^4 polynomial cutoff (1 on B_R, 0 outside B_2R) whose
supports are pairwise disjoint and contained in the box domain.  The error
f = Delta^2 ubar - ubar^p is then supported in the transition annuli.

Everything is assembled analytically from the profile's radial derivatives
and the cutoff's closed-form derivatives; no finite differences enter.

Weighted Holder norms are *sampled* suprema over dyadic shells around the
singular set (lower bounds of the true norms); a fixed RNG seed makes them
byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Params
from .cutoff import CUTOFF_DERIV_BOUNDS, radial_cutoff
from .delaunay import RadialProfile
from .radial import bilap_radial, dlap_radial, lap_radial

__all__ = [
    "CutoffSpec",
    "GlueConfig",
    "ApproxSolution",
    "ErrorField",
    "NormReport",
    "DecayFit",
    "weighted_norm",
    "decay_fit",
    "default_gamma_w",
    "weight_interval",
    "remainder_Q",
]

_BINOM4 = [[1], [1, 1], [1, 2, 1], [1, 3, 3, 1], [1, 4, 6, 4, 1]]
# the default weight sits this fraction of the way across its interval
DEFAULT_WEIGHT_FRACTION = 5 / 12


def weight_interval(params: Params) -> tuple[float, float]:
    """Open interval (4-N, 0) of admissible weights gamma_w."""
    return 4.0 - params.N, 0.0


def default_gamma_w(params: Params) -> float:
    """The weight at DEFAULT_WEIGHT_FRACTION of its admissible interval: -3.5 at (10, 2)."""
    lo, hi = weight_interval(params)
    return lo + DEFAULT_WEIGHT_FRACTION * (hi - lo)


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

    `centers` (K, N) with dilations `eps` (K,), all cutoff balls B_2R
    pairwise disjoint and inside the box [-L, L]^N.
    """

    params: Params
    profile: RadialProfile
    cutoff: CutoffSpec
    gamma_w: float
    centers: np.ndarray
    eps: np.ndarray
    box_halfwidth: float = 4.0

    def __post_init__(self):
        N = self.params.N
        R = self.cutoff.radius
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        self.eps = np.atleast_1d(np.asarray(self.eps, dtype=float))
        if self.centers.shape[1] != N:
            raise ValueError(f"centers must have {N} columns")
        if self.centers.shape[0] != self.eps.size:
            raise ValueError("one dilation per center required")
        if np.any(self.eps <= 0.0) or np.any(self.eps > 1.0):
            raise ValueError("dilations must lie in (0, 1]")
        for i in range(self.centers.shape[0]):
            if np.max(np.abs(self.centers[i])) + 2.0 * R > self.box_halfwidth:
                raise ValueError(f"cutoff ball at center {i} leaves the box")
            for jj in range(i + 1, self.centers.shape[0]):
                if np.linalg.norm(self.centers[i] - self.centers[jj]) < 4.0 * R:
                    raise ValueError(f"cutoff balls {i} and {jj} overlap")
        lo, hi = weight_interval(self.params)
        if not lo < self.gamma_w < hi:
            raise ValueError(f"gamma_w must lie in ({lo}, {hi}), got {self.gamma_w}")


def _profile_derivs(profile: RadialProfile, r: np.ndarray, eps: float):
    """u_eps = eps^{-a} u(r/eps) and its radial derivatives through order 4 at radii r > 0.

    u_eps^{(k)}(r) = r^{-(k+a)} S[k] at t = log(eps/r), S of `RadialProfile.scaled_derivs`:
    the dilation enters through t alone.
    """
    a = profile.params.singular_rate
    S = profile.scaled_derivs(np.log(eps / r))
    return tuple(S[k] * r ** -(k + a) for k in range(5))


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

    Points must avoid the centers; everything is assembled from closed
    forms, exact to profile residual where chi = 1.
    """

    def __init__(self, config: GlueConfig):
        self.config = config

    def fields(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
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

    def value(self, pts) -> np.ndarray:
        return self.fields(pts)[0]


class ErrorField:
    """f = Delta^2 ubar - ubar^p, assembled analytically."""

    def __init__(self, config: GlueConfig):
        self.config = config
        self._approx = ApproxSolution(config)

    def value(self, pts) -> np.ndarray:
        val, _, _, _, bilap = self._approx.fields(pts)
        return bilap - np.abs(val) ** (self.config.params.p - 1.0) * val


# ---------------------------------------------------------------------------
# weighted Holder norms (sampled)
# ---------------------------------------------------------------------------

@dataclass
class NormReport:
    """Sampled weighted norm: per-shell seminorms, outer norm, and their total.

    total = outer + max over shells of s^{-gamma} (sup + s^alpha * quotient);
    all suprema are sampled lower bounds.
    """

    shells: list  # (s, sup, hoelder_quotient, weighted)
    outer: float
    total: float


# samples per center and shell: N_RADIAL radii times N_DIRS random directions;
# N_PAIRS random point pairs per shell for the Holder quotient
N_RADIAL, N_DIRS, N_PAIRS = 6, 16, 20


def _unit_vectors(rng, count: int, dim: int) -> np.ndarray:
    v = rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _shell_points_for_center(rng, center, dim, s_lo, s_hi, radii_count):
    radii = np.geomspace(s_lo, s_hi, radii_count)
    dirs = _unit_vectors(rng, N_DIRS, dim)
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, dim)
    return pts + center[None, :]


def weighted_norm(value_fn, config: GlueConfig, gamma_w: float, alpha_h: float = 0.0,
                  n_shells: int = 10, seed: int = 0) -> NormReport:
    """Sampled C^{0,alpha}_{gamma} norm of a scalar field around the singular set.

    Dyadic shells s_m = sigma 2^{-m}, m = 0..n_shells-1, with sigma = 2R the
    cutoff's outer radius; on each shell the sup of |w| and (for alpha_h > 0)
    sampled Holder quotients of w.  The outer region contributes its
    unweighted sup.  value_fn maps an (m, dim) array of points to values.
    """
    cfg = config
    rng = np.random.default_rng(seed)
    sigma = 2.0 * cfg.cutoff.radius
    N = cfg.params.N
    centers = list(cfg.centers)

    def shell_pts(s_lo, s_hi):
        return np.concatenate([
            _shell_points_for_center(rng, c, N, s_lo, s_hi, N_RADIAL) for c in centers
        ])

    def outer_pts():
        out = [
            _shell_points_for_center(rng, c, N, sigma / 2.0, sigma, 2 * N_RADIAL) for c in centers
        ]
        box = rng.uniform(-cfg.box_halfwidth, cfg.box_halfwidth, (N_DIRS, N))
        keep = np.array([
            min(np.linalg.norm(b - c) for c in centers) > sigma / 2.0 for b in box
        ])
        out.append(box[keep] if np.any(keep) else np.empty((0, N)))
        return np.concatenate(out)

    shells = []
    for mshell in range(n_shells):
        s = sigma * 2.0 ** (-mshell)
        pts = shell_pts(s / 2.0, s)
        vals = value_fn(pts)
        sup = float(np.max(np.abs(vals)))
        hq = 0.0
        if alpha_h > 0.0:
            base = pts[rng.integers(0, pts.shape[0], N_PAIRS)]
            step = s * 10.0 ** rng.uniform(-2.0, -0.5, N_PAIRS)
            dirs = _unit_vectors(rng, N_PAIRS, N)
            mate = base + step[:, None] * dirs
            # keep the pair inside the same closed shell
            d = np.min(np.stack([
                np.linalg.norm(mate - c[None, :], axis=1) for c in centers
            ]), axis=0)
            ok = (d >= s / 2.0) & (d <= s)
            if np.any(ok):
                qv = np.abs(value_fn(base[ok]) - value_fn(mate[ok])) / step[ok] ** alpha_h
                hq = float(np.max(qv))
        weighted = s**-gamma_w * (sup + s**alpha_h * hq)
        shells.append((s, sup, hq, weighted))
    outer_vals = value_fn(outer_pts())
    outer = float(np.max(np.abs(outer_vals))) if outer_vals.size else 0.0
    return NormReport(shells=shells, outer=outer, total=outer + max(w for _, _, _, w in shells))


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

@dataclass
class DecayFit:
    eps_list: list
    norms: list
    slope: float
    nominal: float


def nominal_decay_exponent(params: Params) -> float:
    """The error's decay rate N - 4p/(p-1) in eps."""
    return params.N - 4.0 * params.p / (params.p - 1.0)


def decay_fit(params: Params, profile: RadialProfile, eps_list, gamma_w: float,
              seed: int = 0) -> DecayFit:
    """Least-squares slope of log ||f_eps||_{C^{0,alpha}_{gamma-4}} against log eps,
    one point singularity at the origin per eps."""
    eps_list = [float(e) for e in eps_list]
    if len(set(eps_list)) < 2:
        raise ValueError(f"decay fit needs at least two distinct dilations, got {eps_list}")
    cutoff = CutoffSpec(radius=1.0)
    norms = []
    for eps in eps_list:
        cfg = GlueConfig(params=params, profile=profile, cutoff=cutoff, gamma_w=gamma_w,
                         centers=np.zeros((1, params.N)), eps=[eps],
                         box_halfwidth=2.0 * cutoff.radius + 1.0)
        norms.append(weighted_norm(ErrorField(cfg).value, cfg, gamma_w - 4.0, seed=seed).total)
    slope = float(np.polyfit(np.log(eps_list), np.log(norms), 1)[0])
    return DecayFit(eps_list=eps_list, norms=norms, slope=slope,
                    nominal=nominal_decay_exponent(params))


def remainder_Q(ubar, v, p: float) -> np.ndarray:
    """Nonlinear remainder Q(v) = -(ubar+v)^p + ubar^p + p ubar^{p-1} v, for ubar, ubar + v >= 0."""
    ubar = np.asarray(ubar, dtype=float)
    v = np.asarray(v, dtype=float)
    w = ubar + v
    if np.any(w < 0.0) or np.any(ubar < 0.0):
        raise ValueError("remainder needs ubar >= 0 and ubar + v >= 0")
    return -(w**p) + ubar**p + p * ubar ** (p - 1.0) * v
