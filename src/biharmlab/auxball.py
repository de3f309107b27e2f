"""Clamped-plate problem on the unit ball: Green kernel, minimal branch, diagnostics.

The auxiliary equation is

    Delta^2 u = lambda |x|^alpha (1 + u)^p   in B_1,
    u = du/dnu = 0                            on dB_1   (clamped conditions),

solved through the integral operator u -> lambda * int G(x,y) |y|^alpha (1+u)^p dy
with G the clamped bilaplacian Green function.  G is Boggio's closed form

    G(x,y) = kN |x-y|^{4-N} int_1^{[x,y]/|x-y|} (v^2 - 1) v^{1-N} dv,
    [x,y]^2 = |x|^2 |y|^2 - 2 x.y + 1,

positive on the ball; its spherical average over directions of y gives a
ring-reduced kernel K(r,s) acting on radial functions.  That average is
taken in closed form, not by angular quadrature: on |y| = s >= r the mean
of |x-y|^{4-N} is s^{4-N} + (4-N) r^2 s^{2-N}/N (it is biharmonic in x),
the mean of [x,y]^{4-N} is 1 + (4-N)(rs)^2/N and that of [x,y]^{2-N} is 1
(the pole lies outside the unit sphere), and |x-y|^2 = [x,y]^2 -
(1-r^2)(1-s^2) reduces the remaining term to these.  Boggio's constant
kN = Gamma(N/2) / (8 pi^{N/2}) times the sphere's area |S^{N-1}| is exactly
1/4, so the normalized kernel needs no constant beyond that quarter.  The
exact clamped solution (1-r^2)^2 / (8N(N+2)) of Delta^2 u = 1 is then an
independent oracle: build_kernel gates the assembled kernel on it.

The radial grid is graded, r_i = (i/M)^2, to resolve the |y|^alpha weight
(alpha in (-4,0)); quadrature is composite Simpson in the uniform variable
xi = sqrt(s).  Picard iteration from zero produces the minimal branch for
small lambda; continuation beyond it prescribes the amplitude a = u(0) and
solves for lambda(a) by Newton on the augmented system.  The kernel is
rank-2 semiseparable, K(r, s) = C(hi) - lo^2 L(hi), so each Newton step is
solved exactly as a banded system in O(M), while the residual and its
tolerance use the dense kernel.

Note on conditions: these are the clamped (Dirichlet) conditions
u = du/dnu = 0 of the auxiliary ball problem, distinct from the Navier
conditions u = Delta u = 0 of the main domain problem; the two are never
mixed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core import SolverError, validate_params
from .radial import band_solver

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
    "pohozaev_residual",
    "unit_load_error",
]

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

    def integrate_ball(self, vals: np.ndarray, N: int) -> float:
        """int_{B_1} f(|x|) dx for radial f sampled on the nodes."""
        return sphere_area(N) * float(self.weights @ (vals * self.nodes ** (N - 1.0)))


def sphere_area(N: int) -> float:
    """Surface measure |S^{N-1}|."""
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


def make_grid(M: int = 160, sigma_g: float = 2.0, alpha_w: float = 0.0) -> RadialGrid:
    if M < 2 or M % 2 != 0:
        raise ValueError(f"grid size M={M} must be an even integer >= 2 (composite Simpson)")
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

    The kernel no longer integrates over angles (see _boggio_ring); this rule
    stays because bench/tracing.py::_pair_evals sizes its kernel work counter
    from it.
    """
    xs, ws = leggauss(n_panel)
    edges = [math.pi * 2.0 ** (-k) for k in range(k_max + 1)] + [0.0]
    nodes, weights = [], []
    for a, b in zip(edges[1:], edges[:-1]):
        nodes.append(0.5 * (b - a) * xs + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * ws)
    return np.concatenate(nodes), np.concatenate(weights)


# Taylor coefficients 1/(k+2)! of phi2; 18 terms reach 1 ulp for |z| < 1
_PHI2_TAYLOR = np.array([1.0 / math.factorial(k + 2) for k in range(18)])


def _phi2(z: np.ndarray) -> np.ndarray:
    """phi2(z) = (e^z - 1 - z)/z^2 (1/2 at z = 0), to a few ulp below exp overflow."""
    small = np.abs(z) < 1.0
    zs = np.where(small, z, 0.0)
    zb = np.where(small, 1.0, z)
    return np.where(small, np.polynomial.polynomial.polyval(zs, _PHI2_TAYLOR),
                    (np.expm1(zb) - zb) / (zb * zb))


def _ring_terms(N: int, s: np.ndarray):
    """(C, L) with K(r, s) = C(s) - r^2 L(s) for r <= s <= 1.

    With x = -log s, a = N-4, b = N-2 and phi2 as above,

        C = 1/(4b) [2a x^2 phi2(a x) + 4x^2 phi2(-2x)],
        L = 1/(4b) [(2b^2/N) x^2 phi2(b x) + (b/N) 4x^2 phi2(-2x)],

    where 1/4 is Boggio's kN times |S^{N-1}|, exactly.  The terms linear in
    x cancel analytically, so both are O(x^2) near s = 1 with no
    cancellation and exactly 0 at s = 1.  C alone is the r = 0 row.
    """
    a, b = N - 4.0, N - 2.0
    x = -np.log(s)
    x2 = x * x
    e2 = 4.0 * x2 * _phi2(-2.0 * x)
    scale = 1.0 / (4.0 * b)
    C = scale * (2.0 * a * x2 * _phi2(a * x) + e2)
    L = scale * ((2.0 * b * b / N) * x2 * _phi2(b * x) + (b / N) * e2)
    return C, L


def _boggio_ring(N: int, r: np.ndarray, s: np.ndarray, *, C=None, L=None) -> np.ndarray:
    """Spherical average of the Boggio Green function, in closed form.

    K(r, s) = int_{S^{N-1}} G(r e1, s omega) dsigma(omega) with

        G = kN |x-y|^{4-N} [ (A^{4-N}-1)/(4-N) - (A^{2-N}-1)/(2-N) ],
        A = [x,y]/|x-y|,

    i.e. G/kN = ([x,y]^{4-N} - |x-y|^{4-N})/(4-N)
                - (|x-y|^2 [x,y]^{2-N} - |x-y|^{4-N})/(2-N).
    Each power has an exact spherical mean over |y| = s, for r <= s:
    |x-y|^{4-N} is biharmonic in x inside the sphere, so its mean is
    s^{4-N} + (4-N) r^2 s^{2-N}/N; [x,y] = |s x - y/s| puts the pole outside
    the unit sphere, so the mean of [x,y]^{4-N} is 1 + (4-N)(rs)^2/N and that
    of the harmonic [x,y]^{2-N} is 1; and |x-y|^2 = [x,y]^2 - (1-r^2)(1-s^2)
    reduces the mixed term to these.  Collected in lo = min(r, s) and
    hi = max(r, s), the mean is C(hi) - lo^2 L(hi) (_ring_terms), so the
    kernel costs O(M) transcendentals plus one rank-2 outer combination.

    r and s are the same ascending node vector (the two-grid call form is
    kept because bench/tracing.py wraps this function and reads both sizes).
    A caller that already holds the generators (C, L) of s passes them.
    The upper triangle is mirrored, so the result is exactly symmetric, and
    the row and column at s = 1 are exactly 0, as G vanishes on the sphere.
    """
    if not np.array_equal(r, s):
        raise ValueError("_boggio_ring evaluates a square kernel: r and s must be one grid")
    if C is None:
        C, L = _ring_terms(N, s)
    upper = np.triu(C[None, :] - (s * s)[:, None] * L[None, :])
    return upper + np.triu(upper, 1).T


@dataclass
class BallKernel:
    """Ring-reduced clamped Green kernel on a graded grid, plus the r = 0 row.

    green_apply(f)(r_i) = sum_j K[i,j] f(s_j) s_j^{N-1} w_j; K is exactly
    symmetric, positive in the interior, and carries Boggio's constant, so
    f = 1 reproduces the exact clamped solution of Delta^2 u = 1 up to
    quadrature error.  K_origin and L are the generators C and L of
    _ring_terms, K[i, j] = C(s_hi) - s_lo^2 L(s_hi), kept for the banded
    Newton step.  The measure s^{N-1} of the nodes is formed once, for apply.
    """

    N: int
    grid: RadialGrid
    K: np.ndarray
    K_origin: np.ndarray
    L: np.ndarray
    _measure: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._measure = self.grid.nodes ** (self.N - 1.0)

    def apply(self, f: np.ndarray) -> np.ndarray:
        dens = f * self._measure * self.grid.weights
        return self.K @ dens

    def apply_origin(self, f: np.ndarray) -> float:
        dens = f * self._measure * self.grid.weights
        return float(self.K_origin @ dens)


def exact_unit_load(N: int, r: np.ndarray) -> np.ndarray:
    """Clamped solution of Delta^2 u = 1 on B_1: (1-r^2)^2 / (8N(N+2))."""
    return (1.0 - r**2) ** 2 / (8.0 * N * (N + 2.0))


def unit_load_error(kernel: BallKernel) -> float:
    """Sup error of G[1] against exact_unit_load, relative to its maximum."""
    ex = exact_unit_load(kernel.N, kernel.grid.nodes)
    u = green_apply(kernel, np.ones_like(kernel.grid.nodes))
    return float(np.max(np.abs(u - ex)) / np.max(ex))


def build_kernel(N: int, grid: RadialGrid, cache_dir: str | None = None) -> BallKernel:
    """Assemble the ring-reduced kernel for dimension N on the grid (cache_dir is ignored)."""
    if N < 5:
        raise ValueError(f"N={N} must be >= 5")
    r = grid.nodes
    C, L = _ring_terms(N, r)
    kern = BallKernel(N=N, grid=grid, K=_boggio_ring(N, r, r, C=C, L=L), K_origin=C, L=L)
    # the kernel's constant is exact, so the unit-load deviation is quadrature
    # error; gate it here so a degraded grid surfaces at build time, not
    # inside a solve
    rel = unit_load_error(kern)
    if not (rel <= 1e-4):  # NaN fails too
        raise SolverError(
            "kernel quadrature",
            f"unit-load oracle off by {rel:.2e} (tol 1e-4); increase the grid size")
    return kern


def green_apply(kernel: BallKernel, f: np.ndarray) -> np.ndarray:
    """u = int G(.,y) f(y) dy on the grid nodes (weakly Delta^2 u = f, clamped)."""
    return kernel.apply(np.asarray(f, dtype=float))


def _density(kernel: BallKernel, u: np.ndarray, p: float, alpha_w: float) -> np.ndarray:
    """|y|^alpha (1+|u|)^p on the grid nodes: the load of the equation over lambda."""
    return kernel.grid.nodes**alpha_w * (1.0 + np.abs(u)) ** p


def t_apply(kernel: BallKernel, u: np.ndarray, lam: float, p: float,
            alpha_w: float) -> np.ndarray:
    """One application of the fixed-point map lambda G[|y|^alpha (1+|u|)^p]."""
    return lam * kernel.apply(_density(kernel, u, p, alpha_w))


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
    if not 0.0 <= lam < math.inf:  # NaN fails too
        raise ValueError(f"lambda={lam} must lie in [0, inf)")
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
            u0 = lam * kernel.apply_origin(_density(kernel, u, p, alpha_w))
            return PicardResult(u=u, u_origin=u0, iterations=it, converged=True,
                                monotone=monotone, lam=lam, residual=resid)
        if float(np.max(u)) > cap:
            break
    return PicardResult(u=u, u_origin=float("nan"), iterations=it, converged=False,
                        monotone=monotone, lam=lam, residual=float("inf"))


def _newton_band(kernel: BallKernel, p: float, alpha_w: float):
    """Step function (u, lam, Gu, G0, F, F0) -> (du, dlam) of the bordered Newton system

        [I - lam K diag(g), -Gu; lam K_origin diag(g), G0] [du; dlam] = -[F; F0],

    g = p s^alpha (1+|u|)^{p-1} s^{N-1} weights, solved exactly in O(M) as a
    banded system, never assembled densely.  K[i,j] = C(s_hi) - s_lo^2 L(s_hi)
    (C = kernel.K_origin, L = kernel.L), so with w = lam g du,
    (K w)_i = P_i - Q_i + R_i - T_i for the running sums

        P_i = C_i sum_{j<=i} w_j,   Q_i = L_i sum_{j<=i} s_j^2 w_j,
        R_i = sum_{j>i} C_j w_j,    T_i = s_i^2 sum_{j>i} L_j w_j,

    each O(1) (C alone reaches 1e75 at the first node for N = 14) and each a
    two-term recurrence, e.g. P_i = (C_i/C_{i-1}) P_{i-1} + C_i w_i.  Node i
    carries the unknowns (du_i, P_i, Q_i, R_i, T_i, dlam_i) and the rows
    (Newton equation, the four recurrences, dlam_i = dlam_{i-1}); node 0's
    sixth row is the amplitude border R_0 + C_0 w_0 + G0 dlam = -F0.  Every
    coupling lies within 6 of the diagonal; the band (ab[12 + i - j, j] = A[i, j],
    rows 0..5 left to LAPACK's fill-in) is built once per call and only its
    u-dependent entries change per step.
    """
    s = kernel.grid.nodes
    M = s.size
    C, L = kernel.K_origin, kernel.L
    s2 = s * s
    ab = np.zeros((19, 6 * M), order="F")  # dgbtrf's layout: factored in place, no copy
    ab[12] = 1.0
    ab[11, 1::6], ab[10, 2::6], ab[9, 3::6], ab[8, 4::6] = -1.0, 1.0, -1.0, 1.0  # -(P-Q+R-T)
    ab[18, 1:-6:6] = -C[1:] / C[:-1]  # P_{k-1}, Q_{k-1} in the recurrences of node k
    ab[18, 2:-6:6] = -L[1:] / L[:-1]
    ab[6, 9::6] = -1.0  # R_{k+1}, T_{k+1} in those of node k
    ab[6, 10::6] = -s2[:-1] / s2[1:]
    ab[18, 5:-6:6] = -1.0  # dlam_i = dlam_{i-1}
    ab[14, 3] = 1.0  # border: R_0
    # couplings to du_k (column 6k): rows of P_k, Q_k, R_{k-1}, T_{k-1}, border
    w_rows = [13, 14, 9, 10, 17]
    gen = np.zeros((5, M))
    gen[0], gen[1] = -C, -L * s2
    gen[2, 1:], gen[3, 1:] = -C[1:], -s2[:-1] * L[1:]
    gen[4, 0] = C[0]
    weight = p * s**alpha_w * s ** (kernel.N - 1.0) * kernel.grid.weights

    def step(u, lam, Gu, G0, F, F0):
        band = ab.copy(order="F")
        band[w_rows, 0::6] = gen * (lam * weight * (1.0 + np.abs(u)) ** (p - 1.0))
        band[7, 5::6] = -Gu
        band[12, 5] = G0
        b = np.zeros(6 * M)
        b[0::6] = -F
        b[5] = -F0
        x = band_solver(band, 6, 6)(b)
        return x[0::6], x[5]

    return step


def solve_at_amplitude(kernel: BallKernel, a: float, p: float, alpha_w: float,
                       u0: np.ndarray | None = None, lam0: float | None = None,
                       tol: float = 1e-11, max_iter: int = 60):
    """Solve u = lambda G[|y|^alpha (1+u)^p] with prescribed amplitude u(0) = a.

    Newton on the augmented system in (u, lambda); parametrizing by the
    amplitude walks through the turning point of the minimal branch.  The
    residual and its test against tol use the dense kernel; each step solves
    the bordered Jacobian system exactly, as a banded one (_newton_band).
    Returns (u, lambda); raises SolverError (stage "amplitude continuation")
    at the first non-finite residual, when Newton does not converge in
    max_iter steps or when a step meets a singular matrix.
    """
    s = kernel.grid.nodes
    u = np.zeros_like(s) if u0 is None else u0.copy()
    lam = (1e-3 if lam0 is None else lam0)
    step = _newton_band(kernel, p, alpha_w)
    # an overflowing iterate is reported once, as a typed error, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(max_iter):
            dens = _density(kernel, u, p, alpha_w)
            Gu = kernel.apply(dens)
            G0 = kernel.apply_origin(dens)
            F = u - lam * Gu
            F0 = lam * G0 - a
            if not (np.all(np.isfinite(dens)) and np.all(np.isfinite(F)) and math.isfinite(F0)):
                raise SolverError("amplitude continuation",
                                  f"non-finite residual at a={a} after {k} Newton steps")
            res = max(float(np.max(np.abs(F))), abs(F0)) / max(1.0, a)
            if res <= tol:
                return u, lam
            try:
                du, dlam = step(u, lam, Gu, G0, F, F0)
            except np.linalg.LinAlgError as exc:
                raise SolverError("amplitude continuation", f"{exc} at a={a}") from exc
            u = u + du
            lam = lam + dlam
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
    0.3 u(0)^{1/m}.  A window holding fewer than 8 nodes raises SolverError
    (stage "blow-up rescaling"); a family of fewer than 2 members is a
    caller error (ValueError).
    """
    if len(family) < 2:
        raise ValueError("family too short for a rescaling fit")
    s = kernel.grid.nodes
    r_scales, lams, amps, rescaled = [], [], [], []
    for lam, u in family:
        u0 = lam * kernel.apply_origin(_density(kernel, u, p, alpha_w))
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
        lo = 3.0 * validate_params(kernel.N, p).c_p ** (1.0 / m_exp)
    hi = min(frac / r_k, 0.3 * amps[-1] ** (1.0 / m_exp))
    mask = (rho >= lo) & (rho <= hi) & (v > 0)
    if np.sum(mask) < 8:
        raise SolverError("blow-up rescaling",
                          "fit window too narrow; increase the largest amplitude")
    slope = float(np.polyfit(np.log(rho[mask]), np.log(v[mask]), 1)[0])
    return BlowupReport(
        r_scales=r_scales, lambdas=lams, amplitudes=amps,
        tail_exponent=slope,
        tail_exponent_nominal=-(4.0 + alpha_w) / (p - 1.0),
        rescaled=rescaled,
    )


def pohozaev_residual(kernel: BallKernel, u: np.ndarray, lam: float, p: float,
                      alpha_w: float) -> float:
    """Relative residual of the clamped-ball Pohozaev identity for a solution u.

    With f(x,u) = lambda |x|^alpha (1+u)^p and F its u-primitive,

        int_B [F + x.F_x/N - (N-4)/(2N) (Delta u)^2] dx
            = 1/(2N) int_{dB} (Delta u)^2 dsigma,

    where x.F_x = alpha F.  Two exact identities of the clamped solution of
    Delta^2 u = f remove Delta u: int_B (Delta u)^2 = int_B f u (by parts
    twice, u = du/dnu = 0 on dB), and Green's second identity with
    1 - |x|^2, with int_B Delta u = int_{dB} du/dnu = 0, gives
    Delta u(1) = int_B f (1-|x|^2) dx / (2 |S^{N-1}|).  Each side is then a
    single ball integral of u and f, with no derivative and no kernel product.
    """
    N = kernel.N
    grid = kernel.grid
    s = grid.nodes
    f = lam * _density(kernel, u, p, alpha_w)
    F = lam * s**alpha_w * ((1.0 + np.abs(u)) ** (p + 1.0) - 1.0) / (p + 1.0)
    lhs = grid.integrate_ball(F * (1.0 + alpha_w / N) - (N - 4.0) / (2.0 * N) * f * u, N)
    area = sphere_area(N)
    lap1 = grid.integrate_ball(f * (1.0 - s * s), N) / (2.0 * area)
    rhs = area * lap1**2 / (2.0 * N)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return float(abs(lhs - rhs) / scale)
