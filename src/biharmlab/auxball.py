"""Clamped-plate problem on the unit ball: Green kernel, minimal branch, diagnostics.

The auxiliary equation is

    Delta^2 u = lambda |x|^alpha (1 + u)^p   in B_1,
    u = du/dnu = 0                            on dB_1   (clamped conditions),

solved through the integral operator u -> lambda * int G(x,y) |y|^alpha (1+u)^p dy
with G the clamped bilaplacian Green function.  G is Boggio's closed form

    G(x,y) = kN |x-y|^{4-N} int_1^{[x,y]/|x-y|} (v^2 - 1) v^{1-N} dv,
    [x,y]^2 = |x|^2 |y|^2 - 2 x.y + 1,

positive on the ball; its spherical average over directions of y gives a
ring-reduced kernel K(r,s) acting on radial functions.  The overall
normalization of K is fixed empirically against the exact clamped solution
(1-r^2)^2 / (8N(N+2)) of Delta^2 u = 1 rather than trusting a constant
transcription.

The radial grid is graded, r_i = (i/M)^2, to resolve the |y|^alpha weight
(alpha in (-4,0)); quadrature is composite Simpson in the uniform variable
xi = sqrt(s).  Picard iteration from zero produces the minimal branch for
small lambda; continuation beyond it prescribes the amplitude a = u(0) and
solves for lambda(a) by Newton on the augmented system.

Note on conditions: these are the clamped (Dirichlet) conditions
u = du/dnu = 0 of the auxiliary ball problem, distinct from the Navier
conditions u = Delta u = 0 of the main domain problem; the two are never
mixed here.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import cumulative_trapezoid

from .core import SolverError

__all__ = [
    "RadialGrid",
    "BallKernel",
    "make_grid",
    "build_kernel",
    "green_apply",
    "t_apply",
    "picard_minimal",
    "PicardResult",
    "solve_at_amplitude",
    "blowup_family",
    "blowup_rescale",
    "laplacian_of_solution",
    "radial_clamped_solve",
    "pohozaev_residual",
    "hardy_sobolev_check",
]

KERNEL_FORMAT_VERSION = 2  # 2: exact zeros on the r = 1 row and column


@dataclass(frozen=True)
class RadialGrid:
    """Graded radial quadrature grid on (0, 1].

    nodes = (i/M)^sigma_g for i = 1..M; weights integrate f(s) ds over (0,1)
    by composite Simpson in xi = s^{1/sigma_g} (the s = 0 endpoint carries
    zero weight and is omitted).  alpha_w records the weight exponent the
    grid is meant to resolve.
    """

    M: int
    sigma_g: float
    alpha_w: float
    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, vals: np.ndarray) -> float:
        """int_0^1 f(s) ds for f sampled on the nodes (0-limit assumed finite*xi)."""
        return float(self.weights @ vals)

    def integrate_ball(self, vals: np.ndarray, N: int) -> float:
        """int_{B_1} f(|x|) dx for radial f sampled on the nodes."""
        return sphere_area(N) * float(self.weights @ (vals * self.nodes ** (N - 1.0)))


def sphere_area(N: int) -> float:
    """Surface measure |S^{N-1}|."""
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


def make_grid(M: int = 160, sigma_g: float = 2.0, alpha_w: float = 0.0) -> RadialGrid:
    if M % 2 != 0:
        raise ValueError(f"M={M} must be even (composite Simpson)")
    xi = np.arange(1, M + 1) / M
    nodes = xi**sigma_g
    # Simpson weights over xi in [0,1] including the xi=0 endpoint, then the
    # measure factor ds = sigma_g xi^{sigma_g-1} dxi; the 0 node drops out.
    w = np.zeros(M + 1)
    w[0] = w[-1] = 1.0
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w /= 3.0 * M
    weights = w[1:] * sigma_g * xi ** (sigma_g - 1.0)
    return RadialGrid(M=M, sigma_g=sigma_g, alpha_w=alpha_w, nodes=nodes, weights=weights)


# ---------------------------------------------------------------------------
# Boggio kernel
# ---------------------------------------------------------------------------

def _angular_rule(n_panel: int = 16, k_max: int = 16):
    """Dyadic-panel Gauss-Legendre rule on [0, pi] refined toward phi = 0.

    The integrand has a near-singularity of width ~|r-s|/sqrt(rs) at phi = 0;
    dyadic panels keep a fixed Bernstein-ellipse margin per panel, so 16
    points per panel reach ~1e-12 uniformly over the grid diagonals.
    """
    xs, ws = leggauss(n_panel)
    edges = [math.pi * 2.0 ** (-k) for k in range(k_max + 1)] + [0.0]
    nodes, weights = [], []
    for a, b in zip(edges[1:], edges[:-1]):
        nodes.append(0.5 * (b - a) * xs + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * ws)
    return np.concatenate(nodes), np.concatenate(weights)


def _neg_half_power(x: np.ndarray, n: int, out: np.ndarray, tmp: np.ndarray) -> None:
    """out = x^{-n/2} (n >= 1) from one sqrt (odd n) or one reciprocal (even n).

    The integer power of that base is taken by repeated squaring in tmp, whose
    contents are destroyed; no two of the buffers may overlap.
    """
    if n % 2:
        np.sqrt(x, out=tmp)
        np.reciprocal(tmp, out=tmp)
        k = n
    else:
        np.reciprocal(x, out=tmp)
        k = n // 2
    started = False
    while k:
        if k & 1:
            if started:
                np.multiply(out, tmp, out=out)
            else:
                np.copyto(out, tmp)
                started = True
        k >>= 1
        if k:
            np.multiply(tmp, tmp, out=tmp)


def _boggio_ring(N: int, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Unnormalized spherical average of the Boggio Green function.

    K_raw(r, s) = int_{S^{N-1}} G(r e1, s omega) dsigma(omega) with kN = 1,
    via the closed primitive of the Boggio integral for m = 2:

        G = |x-y|^{4-N} [ (A^{4-N}-1)/(4-N) - (A^{2-N}-1)/(2-N) ],
        A = [x,y]/|x-y|.

    r and s are the same ascending node vector (the two-grid call form is
    kept because bench/tracing.py wraps this function and reads both sizes).
    Row i is evaluated only for s_j >= r_i and mirrored into column i, so the
    result is exactly symmetric.  G vanishes for |x| = 1 and for |y| = 1, so
    those rows and columns are exactly 0 rather than cancellation roundoff.
    All per-row work runs in five preallocated (rows, angles) buffers.
    """
    if not np.array_equal(r, s):
        raise ValueError("_boggio_ring evaluates a square kernel: r and s must be one grid")
    phi, wphi = _angular_rule()
    omc2 = 2.0 * (1.0 - np.cos(phi))
    # |S^{N-2}| factor of the angular reduction and the sin^{N-2} Jacobian
    w = sphere_area(N - 1) * np.sin(phi) ** (N - 2) * wphi
    m = int(np.searchsorted(s, 1.0))  # nodes strictly inside the ball
    K = np.zeros((s.size, s.size))
    bufs = [np.empty((m, phi.size)) for _ in range(5)]
    for i in range(m):
        ri, sj = s[i], s[i:m]
        a2, d2, D4, A4, G = (b[: m - i] for b in bufs)
        rs = ri * sj
        np.multiply(rs[:, None], omc2, out=a2)          # rho = 2 r s (1 - cos phi)
        np.add(a2, ((ri - sj) ** 2)[:, None], out=d2)   # |x-y|^2
        np.add(a2, ((1.0 - rs) ** 2)[:, None], out=a2)  # [x,y]^2
        _neg_half_power(d2, N - 4, D4, G)
        _neg_half_power(a2, N - 4, A4, G)
        # G = (A4 - D4)/(4-N) - (d2 A4/a2 - D4)/(2-N), A4 = a2^{(4-N)/2}, D4 = d2^{(4-N)/2};
        # the two differences are formed pointwise (they cancel near the
        # boundary) and integrated separately, which saves the scaling passes
        np.divide(A4, a2, out=G)
        G *= d2
        G -= D4
        A4 -= D4
        row = (A4 @ w) / (4.0 - N) - (G @ w) / (2.0 - N)
        K[i, i:m] = row
        K[i:m, i] = row
    return K


@dataclass
class BallKernel:
    """Ring-reduced clamped Green kernel on a graded grid, plus the r = 0 row.

    green_apply(f)(r_i) = sum_j K[i,j] f(s_j) s_j^{N-1} w_j; K is symmetric,
    positive in the interior, and normalized so that f = 1 reproduces the
    exact clamped solution of Delta^2 u = 1.
    """

    N: int
    grid: RadialGrid
    K: np.ndarray
    K_origin: np.ndarray
    norm_constant: float

    def apply(self, f: np.ndarray) -> np.ndarray:
        dens = f * self.grid.nodes ** (self.N - 1.0) * self.grid.weights
        return self.K @ dens

    def apply_origin(self, f: np.ndarray) -> float:
        dens = f * self.grid.nodes ** (self.N - 1.0) * self.grid.weights
        return float(self.K_origin @ dens)

    def save(self, path):
        """Write the .npz at path atomically.

        The arrays go to a temporary .npz in the same directory, which is then
        renamed over path, so a concurrent reader sees the old file, no file
        or the whole new one, never a truncated archive.
        """
        path = Path(path)
        fd, tmp = tempfile.mkstemp(suffix=".npz", prefix=f"{path.stem}.tmp-", dir=path.parent)
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(
                    fh,
                    version=KERNEL_FORMAT_VERSION,
                    N=self.N,
                    M=self.grid.M,
                    sigma_g=self.grid.sigma_g,
                    alpha_w=self.grid.alpha_w,
                    nodes=self.grid.nodes,
                    weights=self.grid.weights,
                    K=self.K,
                    K_origin=self.K_origin,
                    norm_constant=self.norm_constant,
                )
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path) -> "BallKernel":
        with np.load(path) as data:
            if int(data["version"]) != KERNEL_FORMAT_VERSION:
                raise ValueError(f"kernel cache version {int(data['version'])} unsupported")
            grid = RadialGrid(
                M=int(data["M"]), sigma_g=float(data["sigma_g"]), alpha_w=float(data["alpha_w"]),
                nodes=data["nodes"], weights=data["weights"],
            )
            return cls(N=int(data["N"]), grid=grid, K=data["K"], K_origin=data["K_origin"],
                       norm_constant=float(data["norm_constant"]))


def exact_unit_load(N: int, r: np.ndarray) -> np.ndarray:
    """Clamped solution of Delta^2 u = 1 on B_1: (1-r^2)^2 / (8N(N+2))."""
    return (1.0 - r**2) ** 2 / (8.0 * N * (N + 2.0))


def build_kernel(N: int, grid: RadialGrid, cache_dir: str | None = None) -> BallKernel:
    """Assemble (or load) the ring-reduced kernel for dimension N on the grid."""
    if N < 5:
        raise ValueError(f"N={N} must be >= 5")
    if cache_dir is not None:
        tag = f"ballkernel_v{KERNEL_FORMAT_VERSION}_N{N}_M{grid.M}_g{grid.sigma_g:g}.npz"
        cache = Path(cache_dir) / tag
        if cache.exists():
            kern = BallKernel.load(cache)
            if kern.grid.M == grid.M and kern.grid.sigma_g == grid.sigma_g:
                kern.grid = grid  # kernel is alpha-independent; keep the caller's grid
                return kern
    r = grid.nodes
    K_raw = _boggio_ring(N, r, r)
    # at |x| = 0 the integrand does not depend on the angle: closed form, 0 at s = 1
    r4 = r ** (4.0 - N)
    K0_raw = sphere_area(N) * ((1.0 - r4) / (4.0 - N) - (r**2 - r4) / (2.0 - N))
    kern = BallKernel(N=N, grid=grid, K=K_raw, K_origin=K0_raw, norm_constant=1.0)
    # empirical normalization against the f = 1 oracle
    u_raw = kern.apply(np.ones_like(r))
    u_ex = exact_unit_load(N, r)
    c = float(u_raw @ u_ex / (u_raw @ u_raw))
    kern.K = c * K_raw
    kern.K_origin = c * K0_raw
    kern.norm_constant = c
    # the remaining sup deviation is pure quadrature error; gate it here so a
    # degraded grid surfaces at build time, not inside a solve
    rel = float(np.max(np.abs(c * u_raw - u_ex)) / np.max(u_ex))
    if not (rel <= 1e-4):  # NaN fails too
        raise SolverError(
            "kernel quadrature",
            f"unit-load oracle off by {rel:.2e} (tol 1e-4); increase the grid size")
    if cache_dir is not None:
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
        kern.save(cache)
    return kern


def green_apply(kernel: BallKernel, f: np.ndarray) -> np.ndarray:
    """u = int G(.,y) f(y) dy on the grid nodes (weakly Delta^2 u = f, clamped)."""
    return kernel.apply(np.asarray(f, dtype=float))


def t_apply(kernel: BallKernel, u: np.ndarray, lam: float, p: float,
            alpha_w: float) -> np.ndarray:
    """One application of the fixed-point map lambda G[|y|^alpha (1+|u|)^p]."""
    s = kernel.grid.nodes
    dens = s**alpha_w * (1.0 + np.abs(u)) ** p
    return lam * kernel.apply(dens)


@dataclass
class PicardResult:
    u: np.ndarray
    u_origin: float
    iterations: int
    converged: bool
    monotone: bool
    lam: float
    residual: float


def picard_minimal(kernel: BallKernel, lam: float, p: float, alpha_w: float,
                   tol: float = 1e-12, max_iter: int = 2000,
                   cap: float = 1e8) -> PicardResult:
    """Minimal-branch fixed point by monotone Picard iteration from u = 0.

    Iterates are pointwise nondecreasing (positive kernel); divergence past
    `cap` is reported as lambda beyond the convergent range, with the failure
    flagged rather than raised.
    """
    if lam < 0:
        raise ValueError(f"lambda={lam} must be >= 0")
    u = np.zeros_like(kernel.grid.nodes)
    monotone = True
    for it in range(1, max_iter + 1):
        u_new = t_apply(kernel, u, lam, p, alpha_w)
        if np.any(u_new < u - 1e-13 * (1.0 + np.abs(u))):
            monotone = False
        inc = float(np.max(np.abs(u_new - u)))
        u = u_new
        if inc <= tol * max(1.0, float(np.max(u))):
            resid = float(np.max(np.abs(u - t_apply(kernel, u, lam, p, alpha_w))))
            s = kernel.grid.nodes
            u0 = lam * kernel.apply_origin(s**alpha_w * (1.0 + u) ** p)
            return PicardResult(u=u, u_origin=u0, iterations=it, converged=True,
                                monotone=monotone, lam=lam, residual=resid)
        if float(np.max(u)) > cap:
            break
    return PicardResult(u=u, u_origin=float("nan"), iterations=it, converged=False,
                        monotone=monotone, lam=lam, residual=float("inf"))


def _newton_matrix(kernel: BallKernel, u: np.ndarray, lam: float, p: float,
                   alpha_w: float) -> np.ndarray:
    s = kernel.grid.nodes
    gprime = p * s**alpha_w * (1.0 + np.abs(u)) ** (p - 1.0)
    col = s ** (kernel.N - 1.0) * kernel.grid.weights * gprime
    return np.eye(s.size) - lam * kernel.K * col[None, :]


def solve_at_amplitude(kernel: BallKernel, a: float, p: float, alpha_w: float,
                       u0: np.ndarray | None = None, lam0: float | None = None,
                       tol: float = 1e-11, max_iter: int = 60):
    """Solve u = lambda G[|y|^alpha (1+u)^p] with prescribed amplitude u(0) = a.

    Newton on the augmented system in (u, lambda); parametrizing by the
    amplitude walks through the turning point of the minimal branch.
    Returns (u, lambda); raises SolverError (stage "amplitude continuation")
    when Newton does not converge in max_iter steps or meets a singular matrix.
    """
    s = kernel.grid.nodes
    u = np.zeros_like(s) if u0 is None else u0.copy()
    lam = (1e-3 if lam0 is None else lam0)
    for _ in range(max_iter):
        dens = s**alpha_w * (1.0 + np.abs(u)) ** p
        Gu = kernel.apply(dens)
        G0 = kernel.apply_origin(dens)
        F = u - lam * Gu
        F0 = lam * G0 - a
        res = max(float(np.max(np.abs(F))), abs(F0)) / max(1.0, a)
        if res <= tol:
            return u, lam
        A = _newton_matrix(kernel, u, lam, p, alpha_w)
        gprime = p * s**alpha_w * (1.0 + np.abs(u)) ** (p - 1.0)
        row0 = lam * (kernel.K_origin * s ** (kernel.N - 1.0) * kernel.grid.weights * gprime)
        # block solve of [[A, -Gu], [row0, G0]] [du, dlam] = -[F, F0]
        M = np.zeros((s.size + 1, s.size + 1))
        M[:-1, :-1] = A
        M[:-1, -1] = -Gu
        M[-1, :-1] = row0
        M[-1, -1] = G0
        rhs = -np.concatenate([F, [F0]])
        try:
            step = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverError("amplitude continuation", f"{exc} at a={a}") from exc
        u = u + step[:-1]
        lam = lam + step[-1]
    raise SolverError("amplitude continuation",
                      f"no convergence at a={a} in {max_iter} Newton steps")


def blowup_family(kernel: BallKernel, amplitudes, p: float, alpha_w: float):
    """Solutions with prescribed amplitudes u(0) = a_k, continued in a.

    Amplitudes must increase; each solve warm-starts from the previous one
    (with a few intermediate steps when the ratio jump is large).
    """
    amplitudes = sorted(float(a) for a in amplitudes)
    out = []
    u, lam = None, None
    a_prev = None
    for a in amplitudes:
        steps = [a]
        if a_prev is not None and a / a_prev > 4.0:
            n_mid = int(math.ceil(math.log(a / a_prev) / math.log(4.0)))
            steps = list(np.geomspace(a_prev, a, n_mid + 1)[1:])
        elif a_prev is None and a > 4.0:
            n_mid = int(math.ceil(math.log(a) / math.log(4.0)))
            steps = list(np.geomspace(1.0, a, n_mid + 1))
        for a_step in steps:
            u, lam = solve_at_amplitude(kernel, a_step, p, alpha_w, u0=u, lam0=lam)
        out.append((lam, u))
        a_prev = a
    return out


@dataclass
class BlowupReport:
    r_scales: list
    lambdas: list
    amplitudes: list
    tail_exponent: float
    tail_exponent_nominal: float
    rescaled: list = field(default_factory=list)


def blowup_rescale(family, kernel: BallKernel, p: float, alpha_w: float,
                   fit_window=(None, 0.2)) -> BlowupReport:
    """Rescale a lambda-family by v_k(x) = u_k(r_k x)/u_k(0), r_k^{4+alpha} lam_k u_k(0)^{p-1} = 1.

    The fitted tail exponent of the largest member is compared against the
    nominal m = (4+alpha)/(p-1).  The fit window must sit inside the
    asymptotic regime: the limit profile crosses over to its power tail
    k(p,N)^{1/(p-1)} rho^{-m} only past rho* = c_p^{1/m}, and leaves the
    blow-up regime near rho ~ u(0)^{1/m}.  fit_window = (rho_min or None for
    3 rho*, fraction of 1/r_k); the upper end is additionally capped at
    0.3 u(0)^{1/m}.
    """
    from .core import k_of

    if len(family) < 2:
        raise ValueError("family too short for a rescaling fit")
    s = kernel.grid.nodes
    r_scales, lams, amps, rescaled = [], [], [], []
    for lam, u in family:
        dens = s**alpha_w * (1.0 + np.abs(u)) ** p
        u0 = lam * kernel.apply_origin(dens)
        r_k = (lam * u0 ** (p - 1.0)) ** (-1.0 / (4.0 + alpha_w))
        r_scales.append(r_k)
        lams.append(lam)
        amps.append(u0)
        rho = s / r_k
        rescaled.append((rho, u / u0))
    rho, v = rescaled[-1]
    r_k = r_scales[-1]
    lo, frac = fit_window
    m_exp = (4.0 + alpha_w) / (p - 1.0)
    if lo is None:
        c_tail = k_of(kernel.N, p) ** (1.0 / (p - 1.0))
        lo = 3.0 * c_tail ** (1.0 / m_exp)
    hi = min(frac / r_k, 0.3 * amps[-1] ** (1.0 / m_exp))
    mask = (rho >= lo) & (rho <= hi) & (v > 0)
    if np.sum(mask) < 8:
        raise ValueError("fit window too narrow; increase the largest amplitude")
    slope = float(np.polyfit(np.log(rho[mask]), np.log(v[mask]), 1)[0])
    return BlowupReport(
        r_scales=r_scales, lambdas=lams, amplitudes=amps,
        tail_exponent=slope,
        tail_exponent_nominal=-(4.0 + alpha_w) / (p - 1.0),
        rescaled=rescaled,
    )


# ---------------------------------------------------------------------------
# radial calculus on the grid (independent of the kernel)
# ---------------------------------------------------------------------------

def _cumint(xi: np.ndarray, integrand_nodes: np.ndarray, sigma_g: float,
            from_zero: bool = True) -> np.ndarray:
    """Cumulative integral of g(t) dt on the graded grid (trapezoid in xi).

    With from_zero the integral starts at 0 (the integrand must vanish
    there); otherwise it starts at the first node, for integrands that are
    singular at the origin.
    """
    vals = integrand_nodes * sigma_g * xi ** (sigma_g - 1.0)
    if from_zero:
        vals = np.concatenate([[0.0], vals])
        xi = np.concatenate([[0.0], xi])
        return cumulative_trapezoid(vals, xi, initial=0.0)[1:]
    return cumulative_trapezoid(vals, xi, initial=0.0)


def laplacian_of_solution(grid: RadialGrid, N: int, f: np.ndarray,
                          alpha_w: float = 0.0, f_coeff0: float | None = None) -> np.ndarray:
    """Delta u on the grid for the clamped solution of Delta^2 u = f.

    Integrates the radial equation directly: with w = Delta u,
    w'(r) = r^{1-N} int_0^r f t^{N-1} dt, and the free constant is fixed by
    the clamped condition u'(1) = 0, i.e. int_0^1 w t^{N-1} dt = 0.  The
    anchor point is the first grid node, not the origin: for weights
    |y|^alpha with alpha <= -2 the Laplacian is singular at 0 (log r at
    alpha = -2) and only its integrals enter.

    When f_coeff0 = lim s^{-alpha} f(s) is supplied, the leading singular
    part c0 s^alpha is integrated in closed form and only the regular
    remainder goes through the trapezoid, which removes the quadrature
    penalty of the near-origin log region.  No kernel is involved, so this
    doubles as an independent route.
    """
    s = grid.nodes
    xi = s ** (1.0 / grid.sigma_g)
    s1 = s[0]
    if f_coeff0 is None:
        F1 = _cumint(xi, f * s ** (N - 1.0), grid.sigma_g)
        wprime = F1 / s ** (N - 1.0)
        w_var = _cumint(xi, wprime, grid.sigma_g, from_zero=False)
    else:
        c0 = float(f_coeff0)
        f_reg = f - c0 * s**alpha_w
        F1_reg = _cumint(xi, f_reg * s ** (N - 1.0), grid.sigma_g)
        wprime_reg = F1_reg / s ** (N - 1.0)
        w_var = _cumint(xi, wprime_reg, grid.sigma_g, from_zero=False)
        # closed-form cumulative of the singular part c0 s^{1+alpha}/(N+alpha)
        if abs(alpha_w + 2.0) < 1e-12:
            w_var = w_var + c0 / (N + alpha_w) * np.log(s / s1)
        else:
            w_var = w_var + c0 / ((N + alpha_w) * (alpha_w + 2.0)) * (
                s ** (alpha_w + 2.0) - s1 ** (alpha_w + 2.0))
    # u'(1) = 0  =>  int_0^1 (c1 + w_var) t^{N-1} dt = 0; the [0, s_1] tail of
    # the singular part is O(s_1^{N+2+alpha}) and negligible on graded grids
    int_wvar = grid.integrate(w_var * s ** (N - 1.0))
    c1 = -N * int_wvar
    return c1 + w_var


def radial_clamped_solve(grid: RadialGrid, N: int, f: np.ndarray) -> np.ndarray:
    """Clamped radial solution of Delta^2 u = f by quadrature (kernel-free oracle)."""
    s = grid.nodes
    xi = s ** (1.0 / grid.sigma_g)
    w = laplacian_of_solution(grid, N, f)
    G1 = _cumint(xi, w * s ** (N - 1.0), grid.sigma_g)
    uprime = G1 / s ** (N - 1.0)
    u_var = _cumint(xi, uprime, grid.sigma_g)
    return u_var - u_var[-1]  # u(1) = 0; u'(1) = 0 is built into w


def pohozaev_residual(kernel: BallKernel, u: np.ndarray, lam: float, p: float,
                      alpha_w: float) -> float:
    """Relative residual of the clamped-ball Pohozaev identity for a solution u.

    With f(x,u) = lambda |x|^alpha (1+u)^p and F its u-primitive,

        int_B [F + x.F_x/N - (N-4)/(2N) (Delta u)^2] dx
            = 1/(2N) int_{dB} (Delta u)^2 dsigma,

    where x.F_x = alpha F.  Delta u comes from the kernel-free radial route.
    """
    N = kernel.N
    grid = kernel.grid
    s = grid.nodes
    f = lam * s**alpha_w * (1.0 + np.abs(u)) ** p
    F = lam * s**alpha_w * ((1.0 + np.abs(u)) ** (p + 1.0) - 1.0) / (p + 1.0)
    u0 = lam * kernel.apply_origin(s**alpha_w * (1.0 + np.abs(u)) ** p)
    lap = laplacian_of_solution(grid, N, f, alpha_w=alpha_w,
                                f_coeff0=lam * (1.0 + u0) ** p)
    lhs = grid.integrate_ball(F * (1.0 + alpha_w / N) - (N - 4.0) / (2.0 * N) * lap**2, N)
    rhs = sphere_area(N) * lap[-1] ** 2 / (2.0 * N)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return float(abs(lhs - rhs) / scale)


def hardy_sobolev_check(grid: RadialGrid, N: int, u: np.ndarray, beta_hs: float,
                        lap_u: np.ndarray | None = None) -> float:
    """Ratio LHS/RHS of the Hardy-Sobolev inequality for clamped u.

    (int u^{2(N-beta)/(N-4)} / |x|^beta dx)^{(N-4)/(N-beta)} <= c0 int (Delta u)^2 dx;
    the returned ratio is a certified-finite lower bound for c0.  When lap_u
    is not supplied it is computed by finite differences in the uniform
    xi variable.
    """
    if not 0.0 < beta_hs < 4.0:
        raise ValueError(f"beta_hs={beta_hs} outside (0,4)")
    s = grid.nodes
    if lap_u is None:
        xi = s ** (1.0 / grid.sigma_g)
        du_dxi = np.gradient(u, xi, edge_order=2)
        ds_dxi = grid.sigma_g * xi ** (grid.sigma_g - 1.0)
        du = du_dxi / ds_dxi
        d2u = np.gradient(du, xi, edge_order=2) / ds_dxi
        lap_u = d2u + (N - 1.0) * du / s
    q = 2.0 * (N - beta_hs) / (N - 4.0)
    num = grid.integrate_ball(np.abs(u) ** q * s ** (-beta_hs), N)
    den = grid.integrate_ball(lap_u**2, N)
    if den == 0.0:
        return 0.0
    return float(num ** ((N - 4.0) / (N - beta_hs)) / den)
