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

The injectivity scans here are corroboration, not proof: results carry
PASS / NOT-CERTIFIED labels.  The translation mode u1' is an exact kernel
element at j = 1 and provides a closed-form residual test along the profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import simpson, solve_ivp

from .core import Params
from .delaunay import RadialProfile
from .indicial import indicial_polynomial, indicial_roots, sphere_eigenvalue

__all__ = [
    "ModeData",
    "ModeSolution",
    "mode_coefficients",
    "make_mode",
    "mode_potential",
    "mode_solve",
    "translation_kernel_residual",
    "quadratic_certificates",
    "hardy_chain_check",
    "byparts_identity_check",
    "injectivity_scan",
]


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
    """Mode index, eigenvalue, printed coefficients, and the sampled potential."""

    j: int
    lambda_j: float
    a1: float
    a2: float
    a3: float
    a4: float
    profile: RadialProfile

    def potential(self, r) -> np.ndarray:
        return mode_potential(self.profile, r)


def make_mode(params: Params, profile: RadialProfile, j: int) -> ModeData:
    a1, a2, a3, a4 = mode_coefficients(params.N, j)
    return ModeData(j=j, lambda_j=sphere_eigenvalue(j, params.N),
                    a1=a1, a2=a2, a3=a3, a4=a4, profile=profile)


def mode_potential(profile: RadialProfile, r) -> np.ndarray:
    """V_p(r) = p r^4 u1^{p-1}(r) = p ubar(-log r)^{p-1}."""
    r = np.asarray(r, dtype=float)
    p = profile.params.p
    return p * profile.ubar(-np.log(r)) ** (p - 1.0)


def _log_coeffs(N: int, j: int) -> tuple[float, float, float, float]:
    """Constant coefficients (b3, b2, b1, a4) of the mode ODE in tau = log r."""
    a1, a2, a3, a4 = mode_coefficients(N, j)
    b3 = a1 - 6.0
    b2 = 11.0 - 3.0 * a1 + a2
    b1 = -6.0 + 2.0 * a1 - a2 - a3
    return b3, b2, b1, a4


@dataclass
class ModeSolution:
    """Mode ODE solution sampled in tau = log r, with end-exponent fits."""

    j: int
    gamma_seed: complex
    tau: np.ndarray
    w: np.ndarray          # mode function w_j(e^tau)
    dw_dtau: np.ndarray
    far_exponent: float
    blowup_tau: float | None = None


def mode_solve(mode: ModeData, gamma_seed: complex, potential: str = "profile",
               seed_rel: float = 1e-8, rtol: float = 1e-10, n_out: int = 2000,
               tau_far: float | None = None) -> ModeSolution:
    """Integrate the mode ODE outward from its seed w ~ r^gamma near the origin.

    The seed sits at a radius small enough that |V_p - A_p| <= seed_rel * A_p,
    on the mesh or past it on the profile's right tail (with a one-term
    Frobenius correction from the tail's slowest mode at c_p); integration
    runs to tau = tau_far = log r, by default -t_lo - 0.2, just inside the
    mesh.  gamma_seed must be an indicial root at the origin.
    potential='zero' drops V_p, which leaves the biharmonic mode equation:
    its exact solutions are the monomials r^gamma, with gamma an indicial
    root at infinity.
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
        # seed radius: potential within seed_rel of A_p from there inward, searched
        # over the mesh and 40 e-foldings of the right tail's slowest mode
        C, lam_s = prof.plateau_decay()
        tt = np.linspace(t_lo, t_hi + 40.0 / -lam_s.real, 10000)
        rel = np.abs(p * prof.ubar(tt) ** (p - 1.0) - A_p) / A_p
        ok = np.flip(np.maximum.accumulate(np.flip(rel))) <= seed_rel
        if not ok[-1]:
            raise ValueError(f"seed_rel={seed_rel:g} is below the potential's round-off")
        t_seed = float(tt[np.argmax(ok)])
        tau0 = -t_seed
        # one-term Frobenius correction from the tail's slowest mode at c_p
        c1 = p * (p - 1.0) * par.c_p ** (p - 2.0) * C
        kappa = -lam_s
        denom = indicial_polynomial(N, mode.lambda_j, gamma_seed + kappa, A_p)
        corr_amp = c1 / denom if abs(denom) > 1e-10 else 0.0

    def seed_state(tau: float) -> np.ndarray:
        g, k = gamma_seed, kappa
        vals = np.array([
            g**m * np.exp(g * tau) + corr_amp * (g + k) ** m * np.exp((g + k) * tau)
            for m in range(4)
        ])
        return vals

    complex_mode = abs(complex(gamma_seed).imag) > 0 or abs(complex(kappa).imag) > 0
    y0c = seed_state(tau0)
    scale = max(abs(y0c[0]), 1e-290)
    y0c = y0c / scale  # mode ODE is linear; normalize the seed

    # dense potential table: the spline is smooth and interpolation error is
    # far below the 0.05 exponent-fit tolerance the solutions feed into
    if potential == "zero":
        def pot(tau):
            return 0.0
    else:
        tau_tab = np.linspace(min(tau0, tau_far) - 0.1, max(tau0, tau_far) + 0.1, 40001)
        V_tab = p * prof.ubar(-tau_tab) ** (p - 1.0)

        def pot(tau):
            return np.interp(tau, tau_tab, V_tab)

    def rhs(tau, y):
        wv, w1, w2, w3 = y[0:4] + (1j * y[4:8] if complex_mode else 0.0)
        V = pot(tau)
        w4 = -(b3 * w3 + b2 * w2 + b1 * w1 + (a4 - V) * wv)
        out = np.array([w1, w2, w3, w4])
        if complex_mode:
            return np.concatenate([out.real, out.imag])
        return out.real

    y0 = np.concatenate([y0c.real, y0c.imag]) if complex_mode else y0c.real

    def ev_overflow(tau, y):
        return np.max(np.abs(y)) - 1e280

    ev_overflow.terminal = True
    sol = solve_ivp(rhs, (tau0, tau_far), y0, method="DOP853", rtol=rtol,
                    atol=1e-14, dense_output=True,
                    events=[ev_overflow])
    blow = float(sol.t_events[0][0]) if sol.t_events[0].size else None
    tau = np.linspace(tau0, sol.t[-1], n_out)
    Y = sol.sol(tau)
    w = (Y[0] + 1j * Y[4]) * scale if complex_mode else Y[0] * scale
    dw = (Y[1] + 1j * Y[5]) * scale if complex_mode else Y[1] * scale

    # fitted exponent over the final stretch of integration
    span = abs(sol.t[-1] - tau0)
    window = tau[np.abs(tau - sol.t[-1]) <= max(min(2.3, span / 2), 1e-9)]
    vals = np.abs((sol.sol(window)[0] + (1j * sol.sol(window)[4] if complex_mode else 0.0)))
    good = vals > 0
    slope = float(np.polyfit(window[good], np.log(vals[good]), 1)[0])
    return ModeSolution(j=j, gamma_seed=gamma_seed, tau=tau, w=w, dw_dtau=dw,
                        far_exponent=slope, blowup_tau=blow)


def translation_kernel_residual(profile: RadialProfile, r) -> np.ndarray:
    """Relative residual of w = u1' in the j = 1 mode ODE.

    Differentiating the radial equation shows u1' solves the j = 1 kernel
    equation exactly; everything here is closed-form from the profile state,
    so the residual measures profile quality, not differencing error.
    """
    r = np.asarray(r, dtype=float)
    par = profile.params
    N, p = par.N, par.p
    a1, a2, a3, a4 = mode_coefficients(N, 1)
    v = profile.r_view(r)
    V = p * r**4 * np.abs(v.u) ** (p - 1.0)
    terms = np.stack([
        v.d5u,
        a1 / r * v.d4u,
        a2 / r**2 * v.d3u,
        -a3 / r**3 * v.d2u,
        (a4 - V) / r**4 * v.du,
    ])
    resid = np.sum(terms, axis=0)
    scale = np.max(np.abs(terms), axis=0)
    return np.abs(resid) / scale


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
    int r^{N-3} w'^2 <= 4/(N-2)^2 int r^{N-1} w''^2.
    """
    I0 = float(simpson(r ** (N - 5.0) * w**2, x=r))
    I1 = float(simpson(r ** (N - 3.0) * dw**2, x=r))
    I2 = float(simpson(r ** (N - 1.0) * d2w**2, x=r))
    b1 = 4.0 / (N - 4.0) ** 2 * I1
    b2 = 4.0 / (N - 2.0) ** 2 * I2
    tolr = 1e-12 * (1.0 + abs(b1) + abs(b2))
    return HardyReport(
        I_w=I0, I_dw=I1, I_d2w=I2,
        first_ok=I0 <= b1 + tolr, second_ok=I1 <= b2 + tolr,
        first_slack=(b1 - I0) / b1 if b1 > 0 else 0.0,
        second_slack=(b2 - I1) / b2 if b2 > 0 else 0.0,
    )


def byparts_identity_check(N: int, j: int, r: np.ndarray,
                           derivs: tuple[np.ndarray, ...]) -> float:
    """Relative residual of the exact-derivative identity behind the mode estimate.

    For w with four sampled derivatives on [r0, r1], compares the quadrature
    of r^{N-1} w (w'''' + a1/r w''' + a2/r^2 w'' - a3/r^3 w' + a4/r^4 w)
    against the boundary terms plus
    (N-1+2 lambda_j) r^{N-3} w'^2 + r^{N-1} w''^2 + a4 r^{N-5} w^2.
    """
    w, w1, w2, w3, w4 = derivs
    a1, a2, a3, a4 = mode_coefficients(N, j)
    lam = sphere_eigenvalue(j, N)
    lhs_int = simpson(
        r ** (N - 1.0) * w * (w4 + a1 / r * w3 + a2 / r**2 * w2 - a3 / r**3 * w1 + a4 / r**4 * w),
        x=r,
    )

    def boundary(idx):
        rr = r[idx]
        return (
            rr ** (N - 1.0) * w[idx] * w3[idx]
            - rr ** (N - 1.0) * w1[idx] * w2[idx]
            + (N - 1.0) * rr ** (N - 2.0) * w[idx] * w2[idx]
            - (N - 1.0 + 2.0 * lam) * rr ** (N - 3.0) * w[idx] * w1[idx]
        )

    bulk = simpson(
        (N - 1.0 + 2.0 * lam) * r ** (N - 3.0) * w1**2
        + r ** (N - 1.0) * w2**2
        + a4 * r ** (N - 5.0) * w**2,
        x=r,
    )
    rhs = boundary(-1) - boundary(0) + bulk
    scale = abs(bulk) + abs(boundary(-1) - boundary(0)) + abs(lhs_int)
    if scale == 0.0:
        return 0.0
    return float(abs(lhs_int - rhs) / scale)


@dataclass
class ScanEntry:
    j: int
    status: str                 # "PASS" or "NOT-CERTIFIED"
    route: str                  # "integration", "certificate", "analytic"
    certificate: tuple[float, float] | None = None
    branch_exponents: dict = field(default_factory=dict)
    note: str = ""


def injectivity_scan(params: Params, profile: RadialProfile, j_list,
                     mu: float | None = None, seed_rel: float = 1e-8) -> list[ScanEntry]:
    """Asymptotic-cone injectivity corroboration per mode.

    For each j the branches admissible at zero (Re gamma > mu) are continued
    to large r; PASS requires every such branch to grow (fitted exponent
    > 0), which is incompatible with a bounded kernel element.  Degree one
    is the analytically handled translation case and is always flagged
    NOT-CERTIFIED; for j >= 2 with Cbar < 1 the certificate route decides
    without integration.
    """
    from .indicial import weight_window

    if mu is None:
        mu = weight_window(params).mu
    out = []
    for j in j_list:
        data = indicial_roots(params, j)
        admissible = [g for g in data.roots_at_zero if g.real > mu]
        entry = ScanEntry(j=j, status="PASS", route="integration")
        if j >= 2:
            cert = quadratic_certificates(params, j)
            entry.certificate = cert
            if cert[1] < 1.0:
                entry.route = "certificate"
                entry.status = "PASS"
        if j == 1:
            entry.route = "analytic"
            entry.status = "NOT-CERTIFIED"
            entry.note = ("translation direction u1' decays like r^{3-N}; handled by the "
                          "comparison argument, no finite certificate")
        mode = make_mode(params, profile, j)
        exps = {}
        for g in admissible:
            ms = mode_solve(mode, g, seed_rel=seed_rel)
            exps[f"{g.real:+.4f}{g.imag:+.4f}i"] = ms.far_exponent
        entry.branch_exponents = exps
        if entry.route == "integration":
            if not exps or not all(e > 0.0 for e in exps.values()):
                entry.status = "NOT-CERTIFIED"
                entry.note = entry.note or "some admissible branch failed to grow numerically"
        out.append(entry)
    return out
