"""Cutoff-glued approximate solution of one point singularity and its equation error.

The singular profile u1, dilated by eps and cut off at the origin,

    ubar(x) = chi_R(r) eps^{-4/(p-1)} u1(r / eps),    r = |x|,

with chi_R a fixed C^4 polynomial cutoff (1 on B_R, 0 outside B_2R).  ubar
is radial, so it and its error f = Delta^2 ubar - ubar^p are functions of r
alone; f is supported in the transition annulus R <= r <= 2R.

Everything is assembled analytically from the profile's radial derivatives
and the cutoff's closed-form derivatives; no finite differences enter.

Weighted norms are weighted suprema of |f| at fixed radii on dyadic shells
around the origin (lower bounds of the true sup norms); no randomness enters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Params
from .cutoff import radial_cutoff
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
    """Radial C^4 cutoff chi_R: 1 on B_R, 0 outside B_2R, polynomial transition."""

    radius: float = 1.0

    def chi(self, r, order: int = 0):
        return radial_cutoff(np.asarray(r, dtype=float) / self.radius, order) / self.radius**order


@dataclass(frozen=True)
class GlueConfig:
    """Profile, dilation eps in (0, 1], cutoff and norm weight of one point singularity
    at the origin."""

    params: Params
    profile: RadialProfile
    cutoff: CutoffSpec
    gamma_w: float
    eps: float

    def __post_init__(self):
        # written so that NaN fails it
        if not 0.0 < self.eps <= 1.0:
            raise ValueError(f"dilation eps={self.eps} must lie in (0, 1]")
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
    """Radial evaluator of ubar = chi_R u_eps.

    `fields(r)` returns (ubar, ubar', Delta ubar, (Delta ubar)', Delta^2 ubar) at
    radii r > 0, assembled from closed forms: exact to profile residual where
    chi = 1, and zero for r >= 2R.
    """

    def __init__(self, config: GlueConfig):
        self.config = config

    def fields(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0.0):
            raise ValueError("evaluation at or inside the singular point r = 0")
        cfg = self.config
        N = cfg.params.N
        out = [np.zeros(r.shape) for _ in range(5)]
        hit = r < 2.0 * cfg.cutoff.radius
        rr = r[hit]
        chi = [cfg.cutoff.chi(rr, k) for k in range(5)]
        P = _product_derivs(chi, _profile_derivs(cfg.profile, rr, cfg.eps))
        out[0][hit] = P[0]
        out[1][hit] = P[1]
        out[2][hit] = lap_radial(N, rr, P[1], P[2])
        out[3][hit] = dlap_radial(N, rr, P[1], P[2], P[3])
        out[4][hit] = bilap_radial(N, rr, P[1], P[2], P[3], P[4])
        return tuple(out)


class ErrorField:
    """f = Delta^2 ubar - ubar^p at radii r > 0, assembled analytically."""

    def __init__(self, config: GlueConfig):
        self.config = config
        self._approx = ApproxSolution(config)

    def value(self, r) -> np.ndarray:
        val, _, _, _, bilap = self._approx.fields(r)
        return bilap - np.abs(val) ** (self.config.params.p - 1.0) * val


# ---------------------------------------------------------------------------
# weighted norms (sampled at fixed radii)
# ---------------------------------------------------------------------------

@dataclass
class NormReport:
    """Sampled weighted norm: per-shell suprema, outer norm, and their total.

    total = outer + max over shells of s^{-gamma} sup; all suprema are
    sampled lower bounds.
    """

    shells: list  # (s, sup, weighted)
    outer: float
    total: float


# geometric radii per dyadic shell; the outer term samples 2 N_RADIAL radii on [R, 2R]
N_RADIAL = 6


def weighted_norm(value_fn, config: GlueConfig, gamma_w: float,
                  n_shells: int = 10) -> NormReport:
    """Sampled weighted sup norm of a radial field around the origin.

    Dyadic shells [s/2, s], s = sigma 2^{-m}, m = 0..n_shells-1, with sigma = 2R
    the cutoff's outer radius, each contribute s^{-gamma} times the sup of |w|
    at N_RADIAL geometric radii.  The outer region [R, 2R] contributes its
    unweighted sup at 2 N_RADIAL radii; the glued fields vanish beyond 2R.
    value_fn maps a 1-D array of radii to values; it is called once.
    """
    sigma = 2.0 * config.cutoff.radius
    s = sigma * 2.0 ** -np.arange(n_shells)
    shell_r = np.geomspace(s / 2.0, s, N_RADIAL, axis=1)
    outer_r = np.geomspace(sigma / 2.0, sigma, 2 * N_RADIAL)
    vals = np.abs(value_fn(np.concatenate([shell_r.ravel(), outer_r])))
    sups = vals[:shell_r.size].reshape(shell_r.shape).max(axis=1)
    shells = [(float(si), float(sup), float(si) ** -gamma_w * float(sup))
              for si, sup in zip(s, sups)]
    outer = float(np.max(vals[shell_r.size:]))
    return NormReport(shells=shells, outer=outer, total=outer + max(w for _, _, w in shells))


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


def decay_fit(params: Params, profile: RadialProfile, eps_list, gamma_w: float) -> DecayFit:
    """Least-squares slope of log ||f_eps||_{C^0_{gamma-4}} against log eps,
    one point singularity at the origin per eps."""
    eps_list = [float(e) for e in eps_list]
    if len(set(eps_list)) < 2:
        raise ValueError(f"decay fit needs at least two distinct dilations, got {eps_list}")
    cutoff = CutoffSpec(radius=1.0)
    norms = []
    for eps in eps_list:
        cfg = GlueConfig(params=params, profile=profile, cutoff=cutoff, gamma_w=gamma_w, eps=eps)
        norms.append(weighted_norm(ErrorField(cfg).value, cfg, gamma_w - 4.0).total)
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
