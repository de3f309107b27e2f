"""Spherical-harmonic mode analysis of the linearized operator L1 = Delta^2 - p u1^{p-1}.

On the mode of degree j (lambda_j = j(j+N-2)) the kernel equation L1 w = 0
reduces to the radial ODE

    w'''' + a1/r w''' + a2/r^2 w'' - a3/r^3 w' + (a4 - V_p(r))/r^4 w = 0,

    a1 = 2(N-1),  a2 = N^2-4N+3-2 lambda_j,
    a3 = (N-3)(N-1+2 lambda_j),  a4 = 2(N-4) lambda_j + lambda_j^2,

with potential V_p(r) = p r^4 u1^{p-1}(r), which tends to A_p at the origin
and to 0 at infinity.  In the log variable tau = log r the ODE has constant
coefficients plus the potential, and substituting w = r^gamma reproduces the
indicial polynomial Q_j(gamma) of the companion module exactly.

Mode solutions are integrated in tau by fixed-step classical RK4, written
as 4x4 step matrices: the potential is evaluated at every step's start,
midpoint and end in one vectorized call, the step matrices inside each
output interval are multiplied together in log2 passes of batched matmul,
and only the interval propagators are applied in sequence.  The module
loads numpy alone; its quadratures use the composite Simpson rule of
`radial.simpson`.

The injectivity scans here are corroboration, not proof: results carry
PASS / NOT-CERTIFIED labels.  The translation mode u1' is an exact kernel
element at j = 1 and provides a closed-form residual test along the profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Params, SolverError
from .delaunay import RadialProfile
from .indicial import indicial_polynomial, indicial_roots, sphere_eigenvalue
from .radial import simpson

__all__ = [
    "ModeData",
    "ModeSolution",
    "mode_coefficients",
    "make_mode",
    "mode_solve",
    "translation_kernel_residual",
    "quadratic_certificates",
    "hardy_chain_check",
    "injectivity_scan",
]

# mode seeds sit where the potential is within this fraction of its origin value A_p
SEED_REL = 1e-8
# mode solutions are sampled at N_OUT points; each of the N_OUT - 1 intervals takes
# the least number of equal RK4 steps no longer than RK4_STEP in tau
N_OUT = 2000
RK4_STEP = 4e-3
# a branch stops where its seed-normalized state first reaches this size
OVERFLOW = 1e280
# step matrices are formed in blocks of at most this many steps (2 MB per array)
STEP_BLOCK = 2**14


def mode_coefficients(N: int, j: int) -> tuple[float, float, float, float]:
    """Coefficients (a1, a2, a3, a4) of the degree-j mode operator."""
    lam = sphere_eigenvalue(j, N)
    a1 = 2.0 * (N - 1.0)
    a2 = N * N - 4.0 * N + 3.0 - 2.0 * lam
    a3 = (N - 3.0) * (N - 1.0 + 2.0 * lam)
    a4 = 2.0 * (N - 4.0) * lam + lam * lam
    return a1, a2, a3, a4


@dataclass(frozen=True)
class ModeData:
    """Mode index, eigenvalue, printed coefficients, and the profile that sets the potential."""

    j: int
    lambda_j: float
    a1: float
    a2: float
    a3: float
    a4: float
    profile: RadialProfile


def make_mode(params: Params, profile: RadialProfile, j: int) -> ModeData:
    a1, a2, a3, a4 = mode_coefficients(params.N, j)
    return ModeData(j=j, lambda_j=sphere_eigenvalue(j, params.N),
                    a1=a1, a2=a2, a3=a3, a4=a4, profile=profile)


def _log_coeffs(N: int, j: int) -> tuple[float, float, float, float]:
    """Constant coefficients (b3, b2, b1, a4) of the mode ODE in tau = log r."""
    a1, a2, a3, a4 = mode_coefficients(N, j)
    b3 = a1 - 6.0
    b2 = 11.0 - 3.0 * a1 + a2
    b1 = -6.0 + 2.0 * a1 - a2 - a3
    return b3, b2, b1, a4


def _rk4_step_matrices(B: np.ndarray, v0, vm, v1, h: float) -> np.ndarray:
    """Classical RK4 step matrices of y' = (B + V e4 e1^T) y, one per step.

    v0, vm and v1 hold V at the steps' starts, midpoints and ends; with A0, Am,
    A1 the matrices there, k2 = K2 y, k3 = K3 y and k4 = K4 y, where
    K2 = Am (I + h/2 A0), K3 = Am (I + h/2 K2), K4 = A1 (I + h K3).
    """
    def A(v):
        a = np.repeat(B[None], v.size, axis=0)
        a[:, 3, 0] += v
        return a

    A0, Am, A1 = A(v0), A(vm), A(v1)
    K = Am + 0.5 * h * (Am @ A0)
    S = A0 + 2.0 * K
    K = Am + 0.5 * h * (Am @ K)
    S += 2.0 * K
    S += A1 + h * (A1 @ K)
    S *= h / 6.0
    S += np.eye(4)
    return S


def _rk4_propagate(B: np.ndarray, potential_at, y0: np.ndarray, tau0: float, tau_end: float):
    """RK4 solution of y' = (B + V e4 e1^T) y from y(tau0) = y0, sampled at N_OUT points.

    The potential is evaluated at every step's start, midpoint and end in one
    call; the step matrices inside each output interval are multiplied in
    log2 passes, and only the interval propagators are applied in sequence.
    Returns (tau, Y, over), Y[i] the state at tau[i]: over is the first index
    where max|Y| passes OVERFLOW, and the samples end there; else None.
    """
    n_int = N_OUT - 1
    tau = np.linspace(tau0, tau_end, N_OUT)
    m = max(1, math.ceil(abs(tau_end - tau0) / (n_int * RK4_STEP)))
    n_steps = n_int * m
    h = (tau_end - tau0) / n_steps
    V = potential_at(np.linspace(tau0, tau_end, 2 * n_steps + 1))
    P = np.empty((n_int, 4, 4))
    per = max(1, STEP_BLOCK // m)
    for i in range(0, n_int, per):
        v = V[2 * m * i:2 * m * min(i + per, n_int) + 1]
        S = _rk4_step_matrices(B, v[:-1:2], v[1::2], v[2::2], h).reshape(-1, m, 4, 4)
        while S.shape[1] > 1:  # each step's successor multiplies it from the left
            odd = S[:, -1:] if S.shape[1] % 2 else S[:, :0]
            S = np.concatenate([S[:, 1::2] @ S[:, :-1:2], odd], axis=1)
        P[i:i + per] = S[:, 0]
    Y = np.empty((N_OUT,) + y0.shape)
    Y[0] = y0
    for i in range(n_int):
        Y[i + 1] = P[i] @ Y[i]
        if np.max(np.abs(Y[i + 1])) > OVERFLOW:
            return tau[:i + 2], Y[:i + 2], i + 1
    return tau, Y, None


@dataclass
class ModeSolution:
    """Mode ODE solution sampled in tau = log r, with end-exponent fits."""

    j: int
    gamma_seed: complex
    tau: np.ndarray
    wn: np.ndarray         # mode function w_j(e^tau), normalized at the seed
    far_exponent: float
    blowup_tau: float | None = None


def mode_solve(mode: ModeData, gamma_seed: complex, potential: str = "profile",
               tau_far: float | None = None) -> ModeSolution:
    """Integrate the mode ODE outward from its seed w ~ r^gamma near the origin.

    The seed sits at a radius small enough that |V_p - A_p| <= SEED_REL * A_p,
    on the mesh or past it on the profile's right tail (with a one-term
    Frobenius correction from the tail's slowest mode at c_p); integration
    runs to tau = tau_far = log r, by default -t_lo - 0.2, just inside the
    mesh.  gamma_seed must be an indicial root at the origin.
    potential='zero' drops V_p, which leaves the biharmonic mode equation:
    its exact solutions are the monomials r^gamma, with gamma an indicial
    root at infinity.

    The method is fixed-step classical RK4 on the state (w, w', w'', w''')
    in tau, written as step matrices (`_rk4_propagate`): every step is at
    most RK4_STEP long, and the solution is sampled at N_OUT points.  A
    complex seed propagates as two real columns.  A branch whose
    seed-normalized state reaches OVERFLOW stops there: blowup_tau is that
    point, found log-linearly between samples, and the solution is sampled
    again on [tau0, blowup_tau], where the far exponent is fitted.  The mode
    function is returned as wn, of modulus 1 at the seed; its absolute
    scale e^{gamma tau0}, which overflows on far-shifted profiles, is never
    formed.
    """
    prof = mode.profile
    par = prof.params
    N, p, j = par.N, par.p, mode.j
    b3, b2, b1, a4 = _log_coeffs(N, j)
    A_p = par.A_p

    data = indicial_roots(par, j)
    roots = data.roots_at_infinity if potential == "zero" else data.roots_at_zero
    nearest = min(roots, key=lambda g: abs(gamma_seed - g))
    if abs(gamma_seed - nearest) > 1e-3 * (1.0 + abs(gamma_seed)):
        raise ValueError(f"gamma_seed={gamma_seed} is not an indicial root")
    gamma_seed = nearest  # snap to the exact branch value

    t_lo, t_hi = prof.t_lo, prof.t_hi
    tau_min = -t_hi   # tau = log r = -t
    if tau_far is None:
        tau_far = -t_lo - 0.2

    if potential == "zero":
        # exact biharmonic kernel: monomials propagate unchanged
        tau0 = tau_min + 0.2
        kappa = 1.0
        corr_amp = 0.0
    else:
        # seed radius: potential within SEED_REL of A_p from there inward, searched
        # over the mesh and 40 e-foldings of the right tail's slowest mode
        C, lam_s = prof.plateau_decay()
        tt = np.linspace(t_lo, t_hi + 40.0 / -lam_s.real, 10000)
        rel = np.abs(p * prof.ubar(tt) ** (p - 1.0) - A_p) / A_p
        ok = np.flip(np.maximum.accumulate(np.flip(rel))) <= SEED_REL
        if not ok[-1]:
            raise SolverError("mode seed", f"potential never within {SEED_REL:g} of A_p "
                              f"(j={j}, gamma={gamma_seed})")
        t_seed = float(tt[np.argmax(ok)])
        tau0 = -t_seed
        # one-term Frobenius correction from the tail's slowest mode at c_p
        c1 = p * (p - 1.0) * par.c_p ** (p - 2.0) * C
        kappa = -lam_s
        denom = indicial_polynomial(N, mode.lambda_j, gamma_seed + kappa, A_p)
        corr_amp = c1 / denom if abs(denom) > 1e-10 else 0.0

    # the seed state over e^{gamma tau0}, which underflows on long right tails
    g, k = gamma_seed, kappa
    y0c = np.array([g**m + corr_amp * (g + k) ** m * np.exp(k * tau0) for m in range(4)])
    complex_mode = abs(complex(gamma_seed).imag) > 0 or abs(complex(kappa).imag) > 0
    scale = max(abs(y0c[0]), 1e-290)
    y0c = y0c / scale  # mode ODE is linear; normalize the seed
    # a complex seed propagates as two real columns under the real step matrices
    y0 = np.stack([y0c.real, y0c.imag], axis=1) if complex_mode else y0c.real[:, None]

    B = np.zeros((4, 4))
    B[[0, 1, 2], [1, 2, 3]] = 1.0
    B[3] = -a4, -b1, -b2, -b3

    def potential_at(tau):
        return 0.0 * tau if potential == "zero" else p * prof.ubar(-tau) ** (p - 1.0)

    tau, Y, over = _rk4_propagate(B, potential_at, y0, tau0, tau_far)
    blow = None
    if over is not None:
        # locate the crossing of max|y| = OVERFLOW log-linearly inside the interval
        # that passed it, then sample [tau0, crossing] as a full output grid again
        m0, m1 = (math.log(float(np.max(np.abs(Y[i])))) for i in (over - 1, over))
        blow = float(tau[over - 1] + (math.log(OVERFLOW) - m0) / (m1 - m0)
                     * (tau[over] - tau[over - 1]))
        tau, Y, _ = _rk4_propagate(B, potential_at, y0, tau0, blow)
    Yn = Y[..., 0] + 1j * Y[..., 1] if complex_mode else Y[..., 0]
    wn = Yn[:, 0]

    # fitted exponent over the final stretch of integration
    span = abs(tau[-1] - tau0)
    in_window = np.abs(tau - tau[-1]) <= max(min(2.3, span / 2), 1e-9)
    vals = np.abs(wn[in_window])
    good = np.isfinite(vals) & (vals > 0)
    if np.count_nonzero(good) < 2:
        raise SolverError("mode integration", "fewer than two finite nonzero samples in the "
                          f"fit window (j={j}, gamma={gamma_seed})")
    slope = float(np.polyfit(tau[in_window][good], np.log(vals[good]), 1)[0])
    return ModeSolution(j=j, gamma_seed=gamma_seed, tau=tau, wn=wn,
                        far_exponent=slope, blowup_tau=blow)


def translation_kernel_residual(profile: RadialProfile, t) -> np.ndarray:
    """Relative residual of w = u1' in the j = 1 mode ODE, at Emden-Fowler times t = -log r.

    Differentiating the radial equation shows u1' solves the j = 1 kernel
    equation exactly.  Every term carries the factor r^{-a-5}, a = 4/(p-1), so
    the relative residual is formed from S[k] = r^{k+a} u^{(k)} of
    `RadialProfile.scaled_derivs`, with no power of r, and V = p r^4 u^{p-1}
    = p |ubar|^{p-1}.
    """
    par = profile.params
    a1, a2, a3, a4 = mode_coefficients(par.N, 1)
    S = profile.scaled_derivs(t)
    V = par.p * np.abs(S[0]) ** (par.p - 1.0)
    terms = np.stack([S[5], a1 * S[4], a2 * S[3], -a3 * S[2], (a4 - V) * S[1]])
    return np.abs(np.sum(terms, axis=0)) / np.max(np.abs(terms), axis=0)


def quadratic_certificates(params: Params, j: int) -> tuple[float, float]:
    """Certificate constants (C(N,j), Cbar(N,j)) of the large-mode injectivity step.

    C = N^3(N+4)/16 - 2(N-4) lambda_j - lambda_j^2 and
    Cbar = [4C/(N-4)^2 - (N-1+2 lambda_j)] * 4/(N-2)^2; Cbar < 1 certifies
    that only w_j = 0 survives the Hardy chain.  (All exponents read in
    dimension N.)
    """
    N = params.N
    lam = sphere_eigenvalue(j, N)
    C = N**3 * (N + 4.0) / 16.0 - 2.0 * (N - 4.0) * lam - lam * lam
    Cbar = (4.0 * C / (N - 4.0) ** 2 - (N - 1.0 + 2.0 * lam)) * 4.0 / (N - 2.0) ** 2
    return C, Cbar


@dataclass(frozen=True)
class HardyReport:
    I_w: float      # int r^{N-5} w^2
    I_dw: float     # int r^{N-3} w'^2
    I_d2w: float    # int r^{N-1} w''^2
    first_ok: bool
    second_ok: bool
    first_slack: float
    second_slack: float


def hardy_chain_check(N: int, r: np.ndarray, w: np.ndarray, dw: np.ndarray,
                      d2w: np.ndarray) -> HardyReport:
    """Quadrature check of the two-step Hardy chain for compactly supported w.

    int r^{N-5} w^2 <= 4/(N-4)^2 int r^{N-3} w'^2  and
    int r^{N-3} w'^2 <= 4/(N-2)^2 int r^{N-1} w''^2,
    by Simpson's rule on w, w' and w'' sampled at an odd number of radii r.
    """
    I0 = simpson(r ** (N - 5.0) * w**2, r)
    I1 = simpson(r ** (N - 3.0) * dw**2, r)
    I2 = simpson(r ** (N - 1.0) * d2w**2, r)
    b1 = 4.0 / (N - 4.0) ** 2 * I1
    b2 = 4.0 / (N - 2.0) ** 2 * I2
    tolr = 1e-12 * (1.0 + abs(b1) + abs(b2))
    return HardyReport(
        I_w=I0, I_dw=I1, I_d2w=I2,
        first_ok=I0 <= b1 + tolr, second_ok=I1 <= b2 + tolr,
        first_slack=(b1 - I0) / b1 if b1 > 0 else 0.0,
        second_slack=(b2 - I1) / b2 if b2 > 0 else 0.0,
    )


@dataclass
class ScanEntry:
    j: int
    status: str                 # "PASS" or "NOT-CERTIFIED"
    route: str                  # "integration", "certificate", "analytic"
    certificate: tuple[float, float] | None = None
    branch_exponents: dict = field(default_factory=dict)
    note: str = ""


def injectivity_scan(params: Params, profile: RadialProfile, j_list) -> list[ScanEntry]:
    """Asymptotic-cone injectivity corroboration per mode.

    Each j takes one route.  Degree one is the translation case, handled
    analytically and always NOT-CERTIFIED.  Every j >= 2 takes the
    certificate route: Cbar is a concave quadratic in lambda_j with negative
    slope at 0, so it falls strictly in lambda_j, and
    1 - Cbar(N, 2) = 4N^2(N+4)/((N-2)^2(N-4)^2) > 0 at every N >= 5.  Only
    j = 0 takes the integration route: the branches admissible at zero
    (Re gamma > mu) are continued to large r, and PASS requires every one to
    grow (fitted exponent > 0), which is incompatible with a bounded kernel
    element.  Only integration entries carry branch exponents; the other
    routes' verdicts need none.
    """
    from .indicial import weight_window

    mu = weight_window(params).mu
    out = []
    for j in j_list:
        entry = ScanEntry(j=j, status="PASS", route="integration")
        if j == 1:
            entry.route, entry.status = "analytic", "NOT-CERTIFIED"
            entry.note = ("translation direction u1' decays like r^{3-N}; handled by the "
                          "comparison argument, no finite certificate")
        elif j >= 2:
            entry.route, entry.certificate = "certificate", quadratic_certificates(params, j)
            assert entry.certificate[1] < 1.0, entry.certificate
        else:
            mode = make_mode(params, profile, j)
            exps = {f"{g.real:+.4f}{g.imag:+.4f}i": mode_solve(mode, g).far_exponent
                    for g in indicial_roots(params, j).roots_at_zero if g.real > mu}
            entry.branch_exponents = exps
            if not exps or not all(e > 0.0 for e in exps.values()):
                entry.status = "NOT-CERTIFIED"
                entry.note = "some admissible branch failed to grow numerically"
        out.append(entry)
    return out
