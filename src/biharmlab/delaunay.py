"""Singular radial profile of Delta^2 u = u^p as an Emden-Fowler heteroclinic.

In the coordinates t = log r, ubar(t) = r^{-4/(p-1)} u(1/r), the radial
equation becomes the autonomous system

    ubar'''' + K3 ubar''' + K2 ubar'' + K1 ubar' + K0 ubar = ubar^p,

and the singular profile is the heteroclinic orbit connecting the origin
(t -> -infinity) to the positive equilibrium c_p = K0^{1/(p-1)}
(t -> +infinity).  The origin has a two-dimensional unstable manifold with
rates mu_slow = N-4-4/(p-1) and mu_fast = N-2-4/(p-1); the slow amplitude
is exactly the far-field coefficient beta of r^{N-4} u(r).

Solution strategy (one collocation boundary-value solve):

1. rescale the state by the logistic gauge D(t) = c_p w/(1+w),
   w = (h/c_p) e^{mu_slow t} with h = 1e-6 c_p, so the unknown z = y/D is
   O(1) from the far-field tail to the c_p plateau and the collocation error
   control is relative everywhere;
2. start Newton from the logistic transition itself, y = D (so
   z_k = D^(k)/D), on [-pad, t_cross + tail] where t_cross is the time
   the gauge reaches c_p/2;
3. impose boundary conditions that kill the two stable components at the
   origin and pin the slow amplitude to h on the left, and kill the unstable
   component at c_p on the right;
4. solve by solve_bvp's Lobatto IIIA collocation with residual-controlled
   mesh refinement, its Newton matrix ordered as the 3 left conditions, the
   collocation rows of each interval, the right condition: banded, O(nodes).

The profile is defined on all of R: the collocation spline on the mesh
[t_lo, t_hi]; before t_lo the origin's unstable manifold (slow and fast
modes plus the first nonlinear term); past t_hi c_p plus the stable modes
at c_p.  The tails are the eigen-projections the boundary conditions impose,
taken from the end states, so an imported profile has them too.

`shoot_once` is kept as a standalone overshoot/undershoot classifier of
single orbits seeded on the unstable manifold; the solver does not use it.

The approach to c_p is oscillatory (the j=0 indicial pair is complex), so
convergence is always measured through the full state distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from scipy.integrate import simpson, solve_ivp
from scipy.interpolate import BPoly, PPoly
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.special import exprel

from .core import EmdenCoeffs, Params, ShootingError, emden_coeffs, equilibrium_spectrum
from .cutoff import annulus_bump
from .radial import bilap_radial, dlap_radial, lap_radial

__all__ = [
    "RadialProfile",
    "RadialView",
    "ShotOutcome",
    "ShootingError",
    "solve_singular",
    "shoot_once",
    "scale_to_beta",
    "normalize_small_tail",
    "energy",
    "hamiltonian",
    "dissipation_check",
    "monotonicity_report",
    "kelvin_transform",
    "export_profile",
    "import_profile",
]

H_REL = 1e-6          # slow amplitude at the anchor frame's t = 0, relative to c_p
BVP_TOL = 3e-9        # collocation tolerance of the polish pass
MAX_BVP_NODES = 120000  # the collocation takes ~1.7 kB per node: ~200 MB at the cap
TAIL = 16.0           # least mesh length past the gauge's c_p/2 crossing


def _eigvec(m: float) -> np.ndarray:
    return np.array([1.0, m, m * m, m**3])


def _eigbasis(rates) -> np.ndarray:
    """Columns v(lam) = (1, lam, lam^2, lam^3): the states of the modes e^{lam t}."""
    return np.column_stack([_eigvec(l) for l in rates])


def _origin_rates(params: Params) -> np.ndarray:
    """Rates at the origin: slow and fast (unstable), then the stable pair."""
    a = params.singular_rate
    return np.array([params.slow_rate, params.fast_rate, -a, -2.0 - a])


def _divided_differences(a: float, b: float, d) -> np.ndarray:
    """[x^k e^{x d}] over the nodes a, b for k = 0..4, shape (5, m); finite at a = b."""
    lo, hi = min(a, b), max(a, b)
    ea = np.exp(a * d)
    dd = np.exp(lo * d) * d * exprel((hi - lo) * d)  # (e^{ad} - e^{bd}) / (a - b)
    out, h = [], 0.0  # h = (a^k - b^k) / (a - b)
    for k in range(5):
        out.append(h * ea + b**k * dd)
        h = a * h + b**k
    return np.array(out)


class _ModeTail:
    """The state past a mesh end s0: base + Re sum_k c_k e^{lam_k d} v(lam_k), d = s - s0.

    amp != 0 adds the origin's first nonlinear term: the slow mode c_s e^{mu_s d}
    forces (c_s e^{mu_s d})^p, answered by amp = c_s^p / Q(a) times the divided
    differences over a = p mu_s and b = mu_f, where Q(x) = P(x)/(x - mu_f).
    They stay finite at the resonance a = b, where (N, p) = (10, 2) sits.
    """

    def __init__(self, s0, base, lam, c, amp=0.0, a=0.0, b=0.0):
        self.s0, self.base, self.lam, self.c = s0, base, lam, c
        self.amp, self.a, self.b = amp, a, b
        self._V = _eigbasis(lam)

    def __call__(self, s, deriv: bool = False) -> np.ndarray:
        d = np.asarray(s) - self.s0
        c = self.c * self.lam if deriv else self.c
        y = (self._V @ (c[:, None] * np.exp(np.outer(self.lam, d)))).real
        if self.amp:
            y += self.amp * _divided_differences(self.a, self.b, d)[int(deriv):int(deriv) + 4]
        return y if deriv else y + self.base[:, None]


@dataclass(frozen=True)
class ShotOutcome:
    """Classification of one shot: overshoot / undershoot / converged."""

    classification: str
    t_end: float
    state_end: np.ndarray


@dataclass(frozen=True)
class RadialView:
    """r-view of the profile: u and its radial derivatives at radii r."""

    r: np.ndarray
    u: np.ndarray
    du: np.ndarray
    d2u: np.ndarray
    d3u: np.ndarray
    d4u: np.ndarray
    d5u: np.ndarray
    lap: np.ndarray
    dlap: np.ndarray


@dataclass
class RadialProfile:
    """Connecting orbit on all of R: spline on the mesh, mode tails beyond it.

    The stored interpolant lives in a fixed internal frame; `t_shift`
    realizes dilations (time translations), so `ubar(t)` evaluates the
    interpolant at t + t_shift.  beta is the slow-mode amplitude in the
    *current* frame: ubar(t) ~ beta e^{mu_slow t} as t -> -infinity.
    `_sol(s, deriv)` interpolates the state (or its derivative) on the mesh
    [t_lo, t_hi]; the tails beyond it are projected from its end states.
    """

    params: Params
    coeffs: EmdenCoeffs
    beta: float
    t_grid: np.ndarray
    _sol: object
    t_shift: float = 0.0
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        par = self.params
        s_lo, s_hi = float(self.t_grid[0]), float(self.t_grid[-1])
        # far field, in passes: the nonlinear term depends on the slow amplitude it corrects
        rates = _origin_rates(par)
        a, b = par.p * rates[0], rates[1]
        q = np.prod(a - rates[[0, 2, 3]])
        y0, amp = self._sol(s_lo), 0.0
        for _ in range(3):
            c = np.linalg.solve(_eigbasis(rates), y0 - amp * _divided_differences(a, b, 0.0)[:4])
            amp = abs(c[0]) ** (par.p - 1.0) * c[0] / q
        self._left = _ModeTail(s_lo, np.zeros(4), rates[:2], c[:2], amp, a, b)
        lam = equilibrium_spectrum(self.coeffs, par.p)
        xstar = np.array([par.c_p, 0.0, 0.0, 0.0])
        c = np.linalg.solve(_eigbasis(lam), self._sol(s_hi) - xstar)
        self._right = _ModeTail(s_hi, xstar, lam[lam.real < 0], c[lam.real < 0])

    # -- frame handling ----------------------------------------------------
    @property
    def t_lo(self) -> float:
        return float(self.t_grid[0] - self.t_shift)

    @property
    def t_hi(self) -> float:
        return float(self.t_grid[-1] - self.t_shift)

    def shifted(self, delta: float) -> "RadialProfile":
        """Profile with ubar_new(t) = ubar(t + delta) (same orbit, new frame)."""
        beta_new = self.beta * math.exp(self.params.slow_rate * delta)
        return replace(self, beta=beta_new, t_shift=self.t_shift + delta,
                       diagnostics=dict(self.diagnostics))

    # -- evaluation ---------------------------------------------------------
    def _evaluate(self, t, deriv: bool) -> np.ndarray:
        """State (or its derivative) at t; within 1e-9 of the mesh ends the spline holds."""
        s = np.asarray(t, dtype=float) + self.t_shift
        lo, hi = self.t_grid[0], self.t_grid[-1]
        eps = 1e-9 * (1.0 + abs(lo) + abs(hi))
        out = np.asarray(self._sol(np.clip(s, lo - eps, hi + eps), deriv))
        for beyond, tail in ((s < lo - eps, self._left), (s > hi + eps, self._right)):
            if beyond.any():
                out[..., beyond] = tail(s[beyond], deriv)
        return out

    def ubar_state(self, t) -> np.ndarray:
        """State (ubar, ubar', ubar'', ubar''') at Emden-Fowler times t, shape (4, m)."""
        return self._evaluate(t, False)

    def ubar(self, t) -> np.ndarray:
        return self.ubar_state(t)[0]

    def scaled_residual(self, t) -> np.ndarray:
        """|ubar'''' + K3 ubar''' + ... - ubar^p| / (1 + ubar^p) using the dense state."""
        y = self._evaluate(t, False)
        d4 = self._evaluate(t, True)[3]
        K = self.coeffs
        u = y[0]
        res = d4 + K.K3 * y[3] + K.K2 * y[2] + K.K1 * y[1] + K.K0 * u - np.abs(u) ** (self.params.p - 1.0) * u
        return np.abs(res) / (1.0 + np.abs(u) ** self.params.p)

    @property
    def far_field_beta(self) -> float:
        """Slow amplitude of the left tail: ubar(t) e^{-mu_slow t} as t -> -infinity."""
        return float(self._left.c[0]) * math.exp(-self.params.slow_rate * self.t_lo)

    def plateau_decay(self) -> tuple[complex, complex]:
        """Slowest approach to c_p: (C, lam) with ubar(t) - c_p ~ Re(C e^{lam t}).

        A complex lam's conjugate carries the conjugate amplitude; C counts both.
        """
        tail = self._right
        k = int(np.argmax(tail.lam.real))
        C = (2.0 if tail.lam[k].imag else 1.0) * tail.c[k] * np.exp(-tail.lam[k] * self.t_hi)
        return complex(C), complex(tail.lam[k])

    def r_view(self, r) -> RadialView:
        """u(r) and radial derivatives through order five, assembled from the state.

        u''''  comes from the radial equation Delta^2 u = u^p and u''''' from
        its derivative, so no numerical differentiation is involved.
        """
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0.0):
            raise ValueError("radii must be positive")
        N, p = self.params.N, self.params.p
        a = self.params.singular_rate
        t = -np.log(r)
        ub, ub1, ub2, ub3 = self.ubar_state(t)
        rma = r**-a
        u = rma * ub
        du = -(rma / r) * (a * ub + ub1)
        q = a * (a + 1.0) * ub + (2.0 * a + 1.0) * ub1 + ub2
        d2u = (rma / r**2) * q
        dq = a * (a + 1.0) * ub1 + (2.0 * a + 1.0) * ub2 + ub3
        d3u = -(rma / r**3) * ((a + 2.0) * q + dq)
        up = np.abs(u) ** (p - 1.0) * u
        d4u = up - 2.0 * (N - 1.0) * d3u / r - (N - 1.0) * (N - 3.0) * (d2u / r**2 - du / r**3)
        d5u = (
            p * np.abs(u) ** (p - 1.0) * du
            - 2.0 * (N - 1.0) * (d4u / r - d3u / r**2)
            - (N - 1.0) * (N - 3.0) * (d3u / r**2 - 3.0 * d2u / r**3 + 3.0 * du / r**4)
        )
        lap = lap_radial(N, r, du, d2u)
        dlap = dlap_radial(N, r, du, d2u, d3u)
        return RadialView(r=r, u=u, du=du, d2u=d2u, d3u=d3u, d4u=d4u, d5u=d5u, lap=lap, dlap=dlap)


# ---------------------------------------------------------------------------
# single-shot classifier
# ---------------------------------------------------------------------------

def _rhs_factory(coeffs: EmdenCoeffs, p: float):
    K0, K1, K2, K3 = coeffs.K0, coeffs.K1, coeffs.K2, coeffs.K3

    def rhs(t, y):
        u, u1, u2, u3 = y
        return [u1, u2, u3, np.abs(u) ** (p - 1.0) * u - K3 * u3 - K2 * u2 - K1 * u1 - K0 * u]

    return rhs


def shoot_once(params: Params, coeffs: EmdenCoeffs, amp_slow: float, s: float,
               t_max: float = 80.0, eta: float = 1e-3):
    """Integrate one shot from the linearized unstable manifold.

    Classification: overshoot when ubar reaches B_max = 2((p+1)k/2)^{1/(p-1)},
    undershoot when ubar crosses zero, converged when the full state dwells
    within eta*c_p of (c_p,0,0,0) for a window of length 5/|slowest stable rate|
    before t_max.
    """
    cp = params.c_p
    p = params.p
    b_max = 2.0 * ((p + 1.0) * params.k_const / 2.0) ** (1.0 / (p - 1.0))
    y0 = amp_slow * _eigvec(params.slow_rate) + s * _eigvec(params.fast_rate)
    rhs = _rhs_factory(coeffs, p)

    def ev_over(t, y):
        return y[0] - b_max

    def ev_under(t, y):
        return y[0]

    ev_over.terminal = True
    ev_over.direction = 1
    ev_under.terminal = True
    ev_under.direction = -1
    sol = solve_ivp(rhs, (0.0, t_max), y0, method="DOP853", rtol=1e-10,
                    atol=1e-13 * cp, events=[ev_over, ev_under], dense_output=True)
    xstar = np.array([cp, 0.0, 0.0, 0.0])
    if sol.t_events[0].size:
        return ShotOutcome("overshoot", float(sol.t_events[0][0]), sol.y_events[0][0]), sol
    if sol.t_events[1].size:
        return ShotOutcome("undershoot", float(sol.t_events[1][0]), sol.y_events[1][0]), sol
    # no escape within t_max: check dwell near the equilibrium
    lam = equilibrium_spectrum(coeffs, p)
    slowest = min(abs(l.real) for l in lam if l.real < 0)
    dwell = 5.0 / slowest
    tt = np.linspace(max(0.0, t_max - dwell), t_max, 201)
    dist = np.linalg.norm(sol.sol(tt) - xstar[:, None], axis=0) / cp
    cls = "converged" if np.all(dist <= eta) else "undershoot"
    return ShotOutcome(cls, float(sol.t[-1]), sol.y[:, -1]), sol


# ---------------------------------------------------------------------------
# gauged collocation
# ---------------------------------------------------------------------------

def _gauge(t, cp, w0, mu):
    """Logistic gauge D(t) = c_p w/(1+w) with w = w0 e^{mu t}; returns (D, w)."""
    w = w0 * np.exp(mu * np.asarray(t, dtype=float))
    return cp * w / (1.0 + w), w


class _ScaledSpline:
    """State interpolant y(t) = D(t) z(t) with scalar amplitude gauge D.

    The collocation pass solves for z (O(1) across the window); D carries the
    exponential tail, so relative accuracy is uniform down to the far field.
    """

    def __init__(self, zsol, cp, w0, mu):
        self._z, self._dz = zsol, zsol.derivative()
        self.cp, self.w0, self.mu = cp, w0, mu

    def __call__(self, t, deriv: bool = False):
        D, w = _gauge(t, self.cp, self.w0, self.mu)
        if deriv:
            return D * self.mu / (1.0 + w) * self._z(t) + D * self._dz(t)
        return D * self._z(t)


# The collocation of scipy.integrate.solve_bvp (Kierzenka & Shampine, ACM TOMS 27(3),
# 2001), step for step, with one change: the Newton matrix's rows are ordered as the
# 3 left boundary conditions, the 4 collocation rows of each interval in turn, then
# the right boundary condition.  With separated conditions that matrix is banded,
# (kl, ku) = (6, 4), and LAPACK's dgbtrf/dgbtrs factor and solve it in O(m).
_KL, _KU = 6, 4
_FAILURES = {1: "The maximum number of mesh nodes is exceeded.",
             2: "A singular Jacobian encountered when solving the collocation system.",
             3: "The solver was unable to satisfy boundary conditions tolerance on iteration 10."}


class _Collocation(NamedTuple):
    x: np.ndarray
    sol: PPoly
    rms_residuals: np.ndarray
    status: int  # 0 converged, else a key of _FAILURES


def _lobatto(fun, x, h, y):
    """3-point Lobatto IIIA residuals of the nodal states y: (residual, y_mid, f, f_mid)."""
    f = fun(x, y)
    y_mid = 0.5 * (y[:, 1:] + y[:, :-1]) - 0.125 * h * (f[:, 1:] - f[:, :-1])
    f_mid = fun(x[:-1] + 0.5 * h, y_mid)
    return y[:, 1:] - y[:, :-1] - h / 6 * (f[:, :-1] + f[:, 1:] + 4 * f_mid), y_mid, f, f_mid


def _newton_band(fun_jac, dya, dyb, x, h, y, y_mid):
    """The Newton matrix in LAPACK band storage, transposed: row r, column c at [c, 10 + r - c].

    Rows r: left conditions 0..2, interval q's collocation 3 + 4q + i, right
    condition 4m - 1; column c = 4q + j is component j of node q.
    """
    m = x.size
    J = np.moveaxis(fun_jac(x, y), 2, 0)
    Jm = np.moveaxis(fun_jac(x[:-1] + 0.5 * h, y_mid), 2, 0)
    h = h[:, None, None]
    eye = np.identity(4)
    ab = np.zeros((4 * m, 2 * _KL + _KU + 1))
    i, j = np.indices((4, 4))
    ab[:-4].reshape(m - 1, 4, -1)[:, j, 13 + i - j] = (
        -eye - h / 6 * (J[:-1] + 2 * Jm) - h**2 / 12 * np.einsum("...ij,...jk->...ik", Jm, J[:-1]))
    ab[4:].reshape(m - 1, 4, -1)[:, j, 9 + i - j] = (
        eye - h / 6 * (J[1:] + 2 * Jm) + h**2 / 12 * np.einsum("...ij,...jk->...ik", Jm, J[1:]))
    ab[j[:3], 10 + i[:3] - j[:3]] = dya[:3]
    k = np.arange(4)
    ab[k - 4, 13 - k] = dyb[3]
    return ab


def _newton(fun, fun_jac, bc, bc_jac, x, h, y, tol):
    """Damped Newton on one mesh, as solve_bvp: returns (y, singular).

    Armijo backtracking (sigma 0.2, tau 0.5, 4 trials) on the affine-invariant
    cost |J^-1 res|^2; at most 8 iterations and 4 Jacobians, and a Jacobian is
    reused after a full step.  A non-finite matrix counts as singular.
    """
    tol_r = 2 / 3 * h * 5e-2 * tol

    def residual(y):
        col, y_mid, _, f_mid = _lobatto(fun, x, h, y)
        bcr = bc(y[:, 0], y[:, -1])
        done = np.all(np.abs(col) < tol_r * (1 + np.abs(f_mid))) and np.all(np.abs(bcr) < tol)
        return np.concatenate([bcr[:3], col.ravel(order="F"), bcr[3:]]), y_mid, done

    res, y_mid, _ = residual(y)
    njev, recompute = 0, True
    for _ in range(8):
        if recompute:
            ab = _newton_band(fun_jac, *bc_jac(y[:, 0], y[:, -1]), x, h, y, y_mid)
            njev += 1
            if not np.isfinite(ab).all():
                return y, True
            lu, piv, info = dgbtrf(ab.T, _KL, _KU, overwrite_ab=1)
            if info > 0:
                return y, True
            step = dgbtrs(lu, _KL, _KU, res, piv)[0]
            cost = step @ step
        alpha = 1.0
        for trial in range(5):
            y_new = y - alpha * step.reshape(-1, 4).T
            res, y_mid, done = residual(y_new)
            step_new = dgbtrs(lu, _KL, _KU, res, piv)[0]
            cost_new = step_new @ step_new
            if cost_new < (1 - 2 * alpha * 0.2) * cost:
                break
            if trial < 4:
                alpha *= 0.5
        y = y_new
        if njev == 4 or done:
            break
        recompute = alpha != 1
        if not recompute:
            step, cost = step_new, cost_new
    return y, False


def _collocate(fun, fun_jac, bc, bc_jac, x, y, tol, max_nodes) -> _Collocation:
    """solve_bvp's mesh loop, with bc_tol = tol.

    Each pass runs Newton on the mesh, estimates each interval's rms relative
    residual by 5-point Lobatto quadrature of the C1 cubic, and inserts 1 node
    where tol < rms < 100 tol and 2 where rms >= 100 tol.
    """
    h = np.diff(x)
    status, iteration = None, 0
    while status is None:
        y, singular = _newton(fun, fun_jac, bc, bc_jac, x, h, y, tol)
        iteration += 1
        col, _, f, f_mid = _lobatto(fun, x, h, y)
        # the C1 cubic with nodal values y and slopes f
        slope = (y[:, 1:] - y[:, :-1]) / h
        c3 = (f[:, :-1] + f[:, 1:] - 2 * slope) / h
        c = np.stack([c3 / h, (slope - f[:, :-1]) / h - c3, f[:, :-1], y[:, :-1]], axis=1)
        sol = PPoly(c, x, extrapolate=True, axis=1)
        xm, s = x[:-1] + 0.5 * h, 0.5 * h * (3 / 7) ** 0.5
        r2 = [np.sum((1.5 * col / h / (1 + np.abs(f_mid))) ** 2, axis=0)]
        for xk in (xm + s, xm - s):
            fk = fun(xk, sol(xk))
            r2.append(np.sum(((sol(xk, 1) - fk) / (1 + np.abs(fk))) ** 2, axis=0))
        rms = (0.5 * (32 / 45 * r2[0] + 49 / 90 * (r2[1] + r2[2]))) ** 0.5
        ins1 = np.nonzero((rms > tol) & (rms < 100 * tol))[0]
        ins2 = np.nonzero(rms >= 100 * tol)[0]
        if singular:
            status = 2
        elif x.size + ins1.size + 2 * ins2.size > max_nodes:
            status = 1
        elif ins1.size or ins2.size:
            x = np.sort(np.hstack((x, 0.5 * (x[ins1] + x[ins1 + 1]),
                                   (2 * x[ins2] + x[ins2 + 1]) / 3, (x[ins2] + 2 * x[ins2 + 1]) / 3)))
            h = np.diff(x)
            y = sol(x)
        elif np.max(np.abs(bc(y[:, 0], y[:, -1]))) <= tol:
            status = 0
        elif iteration >= 10:
            status = 3
    return _Collocation(x, sol, rms, status)


def _bvp_polish(params, coeffs, amp_anchor, pad, tail, tol_bvp):
    """Collocation solve of the connection, in gauged variables.

    The unknown is z = y / D(t) with D(t) = c_p w/(1+w), w = (h/c_p) e^{mu_s t},
    which is O(1) from the deep tail to the plateau; the collocation error
    control is therefore relative everywhere, and in particular the slow
    amplitude (the time anchor of the orbit) is consistent across window
    choices.  Left boundary (4 conditions total): the two stable
    eigen-components vanish and the slow component equals the manifold
    amplitude; right boundary: the unstable eigen-component at c_p vanishes.

    The anchor frame puts slow amplitude amp_anchor at t = 0, and the mesh
    starts at t = -pad.  Newton starts from the smooth logistic transition
    y = D itself: the gauged system is well-conditioned enough to converge
    from it.  `_collocate` solves it; the boundary conditions are separated
    (3 on the left, 1 on the right), so its Newton matrix is banded.
    """
    p = params.p
    cp = params.c_p
    mu_s = params.slow_rate
    xstar = np.array([cp, 0.0, 0.0, 0.0])
    K0, K1, K2, K3 = coeffs.as_tuple()
    V0inv = np.linalg.inv(_eigbasis(_origin_rates(params)))
    lam = equilibrium_spectrum(coeffs, p)
    iu = int(np.argmax(lam.real))
    w_u = np.linalg.inv(_eigbasis(lam))[iu].real
    w_u /= np.linalg.norm(w_u)
    rate_slowest = min(abs(l.real) for l in lam if l.real < 0)

    w0 = amp_anchor / cp
    # the gauge crosses c_p/2 at t_cross; the window runs on until the slowest
    # stable decay at c_p has had time to shrink an O(1) deviation to 5e-6
    # (or `tail`, if longer); t_arr marks three of its e-foldings past t_cross
    t_cross = math.log(1.0 / w0) / mu_s
    t_arr = t_cross + 3.0 / rate_slowest
    need = math.log(1.0 / 5e-6) / rate_slowest
    t_end = t_cross + max(tail, need)
    tg = np.linspace(-pad, t_end, 1600)
    _, w = _gauge(tg, cp, w0, mu_s)
    zg = np.vstack([
        np.ones_like(tg),
        mu_s / (1.0 + w),
        mu_s**2 * (1.0 - w) / (1.0 + w) ** 2,
        mu_s**3 * (1.0 - 4.0 * w + w * w) / (1.0 + w) ** 3,
    ])

    def fun(t, z):
        D, w = _gauge(t, cp, w0, mu_s)
        dl = mu_s / (1.0 + w)
        z0, z1, z2, z3 = z
        f4 = (D ** (p - 1.0) * np.abs(z0) ** (p - 1.0) * z0
              - K3 * z3 - K2 * z2 - K1 * z1 - K0 * z0)
        return np.vstack([z1 - dl * z0, z2 - dl * z1, z3 - dl * z2, f4 - dl * z3])

    nodes = [tg.size]  # largest mesh Newton has linearized on, for the memory error

    def fun_jac(t, z):
        nodes[0] = max(nodes[0], t.size)
        D, w = _gauge(t, cp, w0, mu_s)
        dl = mu_s / (1.0 + w)
        J = np.zeros((4, 4, t.size))
        for i in range(4):
            J[i, i] = -dl
        J[0, 1] = J[1, 2] = J[2, 3] = 1.0
        J[3, 0] = p * D ** (p - 1.0) * np.abs(z[0]) ** (p - 1.0) - K0
        J[3, 1] = -K1
        J[3, 2] = -K2
        J[3, 3] = -K3 - dl
        return J

    _, w_left = _gauge(-pad, cp, w0, mu_s)
    D_right, _ = _gauge(t_end, cp, w0, mu_s)

    def bc(za, zb):
        cL = V0inv @ za
        return np.array([cL[2], cL[3], cL[0] - (1.0 + w_left),
                         (w_u @ (float(D_right) * zb - xstar)) / cp])

    def bc_jac(za, zb):
        dya = np.zeros((4, 4))
        dyb = np.zeros((4, 4))
        dya[0] = V0inv[2]
        dya[1] = V0inv[3]
        dya[2] = V0inv[0]
        dyb[3] = w_u * float(D_right) / cp
        return dya, dyb

    try:
        res = _collocate(fun, fun_jac, bc, bc_jac, tg, zg, tol_bvp, MAX_BVP_NODES)
    except ValueError as exc:  # mesh refinement collapsed nodes
        raise ShootingError("collocation polish", str(exc)) from exc
    except MemoryError as exc:  # the mesh's work arrays outgrew memory
        raise ShootingError("collocation polish", f"out of memory at {nodes[0]} nodes") from exc
    return res, t_arr, _ScaledSpline(res.sol, cp, w0, mu_s)


def solve_singular(params: Params, beta: float = 1.0, tol: float = 1e-4) -> RadialProfile:
    """Compute the singular radial profile with far-field coefficient beta.

    tol controls the asymptotic-fit guarantees at both ends of the mesh
    (it must exceed the 1e-6 manifold-truncation floor of the left boundary
    condition);
    the ODE-residual quality is fixed by the collocation tolerance and is
    reported in profile.diagnostics.  Every gate fails on NaN, so a solve
    either meets them or raises ShootingError naming the stage.  The mesh
    is chosen here; the returned profile evaluates every t through its tails.
    """
    if beta <= 0.0:
        raise ValueError(f"beta={beta} must be positive")
    if tol <= 2e-6:
        raise ValueError(f"tol={tol} below the manifold-truncation floor ~2e-6")
    coeffs = emden_coeffs(params)
    h = H_REL * params.c_p

    # anchor frame: slow amplitude h at t = 0, shifted to the requested beta after.
    # Extend the pad until two far-field errors meet the contract: the fit
    # r^{N-4} u -> beta at the mesh start (fast-mode content, decays at rate
    # mu_f - mu_s) and the left tail's slow amplitude (off by the nonlinear
    # term the linear boundary condition leaves out, decays at (p-1) mu_s).
    rates = (params.fast_rate - params.slow_rate, (params.p - 1.0) * params.slow_rate)
    pad = 0.0
    for _ in range(4):
        res, t_arr, ysol = _bvp_polish(params, coeffs, h, pad, TAIL, BVP_TOL)
        if res.status != 0:
            grid_res = float(np.max(res.rms_residuals)) if res.rms_residuals.size else math.inf
            if not (grid_res <= 1e-7):
                raise ShootingError("collocation polish",
                                    f"{_FAILURES[res.status]} (rms {grid_res:.2e})")
        prof = RadialProfile(params=params, coeffs=coeffs, beta=h, t_grid=res.x, _sol=ysol)
        t_l = float(res.x[0])
        errs = (abs(float(ysol(t_l)[0]) * math.exp(-params.slow_rate * t_l) / h - 1.0),
                abs(prof.far_field_beta / h - 1.0))
        beta_fit_rel = float(np.max(errs))  # NaN-propagating
        if beta_fit_rel <= 0.9 * tol:
            break
        if not math.isfinite(beta_fit_rel):
            raise ShootingError("far-field fit", f"coefficient error is {beta_fit_rel}")
        pad += max(math.log(e / (0.3 * tol)) / k for e, k in zip(errs, rates) if e > 0.3 * tol)
    else:
        raise ShootingError("far-field fit", f"coefficient off by {beta_fit_rel:.2e} > tol")
    endpoint_rel = float(abs(ysol(res.x[-1])[0] - params.c_p) / params.c_p)
    if not (endpoint_rel <= tol):
        raise ShootingError("c_p endpoint", f"off by {endpoint_rel:.2e} > tol")

    prof.diagnostics = {
        # always 0: the solver no longer shoots or bisects.  The key stays
        # because the CLI report and bench/tracing.py read it.
        "bisections": 0,
        "bvp_nodes": int(res.x.size),
        "bvp_rms": float(np.max(res.rms_residuals)),
        "t_arrival": t_arr,
        "endpoint_rel": endpoint_rel,
        "beta_fit_rel": beta_fit_rel,
    }
    # shift the frame so the slow amplitude equals the requested beta
    prof = prof.shifted(math.log(beta / h) / params.slow_rate)
    prof.beta = beta  # exact by construction; avoids exp/log roundoff
    prof.diagnostics["tol"] = tol
    return prof


# ---------------------------------------------------------------------------
# dilations and normalization
# ---------------------------------------------------------------------------

def scale_to_beta(profile: RadialProfile, beta_new: float) -> RadialProfile:
    """Time-translated profile with slow amplitude beta_new (same orbit)."""
    if beta_new <= 0.0:
        raise ValueError(f"beta_new={beta_new} must be positive")
    delta = math.log(beta_new / profile.beta) / profile.params.slow_rate
    out = profile.shifted(delta)
    out.beta = beta_new
    return out


def normalize_small_tail(profile: RadialProfile, alpha_norm: float) -> RadialProfile:
    """Dilate so that sup_{r>=1} r^4 u^{p-1}(r) <= alpha_norm.

    In Emden-Fowler variables r^4 u^{p-1}(r) = ubar^{p-1}(-log r), so the
    requirement is a running-max condition on ubar over t <= 0 and the
    dilation is a left time shift.  Profiles already satisfying the bound
    are returned unshifted.
    """
    if alpha_norm <= 0.0:
        raise ValueError(f"alpha_norm={alpha_norm} must be positive")
    pm1 = profile.params.p - 1.0
    # start where the slow mode beta e^{mu_slow t} alone is a factor e below alpha_norm^{1/(p-1)}
    t_start = (math.log(alpha_norm) / pm1 - math.log(profile.beta) - 1.0) / profile.params.slow_rate
    tt = np.linspace(min(profile.t_lo, t_start), profile.t_hi, 6000)
    vals = profile.ubar(tt) ** pm1
    running = np.maximum.accumulate(vals)
    ok = running <= alpha_norm
    if ok[-1]:
        return profile.shifted(0.0)
    idx = int(np.argmin(ok))  # first failure
    t_alpha = float(tt[max(idx - 1, 0)])
    delta = min(t_alpha, 0.0)
    return profile.shifted(delta)


# ---------------------------------------------------------------------------
# energy and dissipation
# ---------------------------------------------------------------------------

def energy(profile: RadialProfile, t) -> np.ndarray:
    """E(t) = ubar^{p+1}/(p+1) - K0 ubar^2/2 - K2 ubar'^2/2 + ubar''^2/2."""
    K = profile.coeffs
    p = profile.params.p
    u, u1, u2, _ = profile.ubar_state(t)
    return u ** (p + 1.0) / (p + 1.0) - 0.5 * K.K0 * u**2 - 0.5 * K.K2 * u1**2 + 0.5 * u2**2


def hamiltonian(profile: RadialProfile, t) -> np.ndarray:
    """H = E - ubar''' ubar' - K3 ubar'' ubar'; equals E wherever ubar' = 0.

    H is the conserved-up-to-dissipation form: multiplying the equation by
    ubar' gives H(t1) - H(t0) = int K1 ubar'^2 - K3 ubar''^2 dt.
    """
    K = profile.coeffs
    u, u1, u2, u3 = profile.ubar_state(t)
    return energy(profile, t) - u3 * u1 - K.K3 * u2 * u1


def dissipation_check(profile: RadialProfile, t0: float, t1: float, n: int = 8001):
    """Both sides of the dissipation identity on [t0, t1] (Simpson quadrature)."""
    tt = np.linspace(t0, t1, n)
    _, u1, u2, _ = profile.ubar_state(tt)
    K = profile.coeffs
    rate = K.K1 * u1**2 - K.K3 * u2**2
    lhs = float(hamiltonian(profile, t1) - hamiltonian(profile, t0))
    rhs = float(simpson(rate, x=tt))
    return lhs, rhs


# ---------------------------------------------------------------------------
# r-view reports
# ---------------------------------------------------------------------------

def _loglog_slope(r: np.ndarray, vals: np.ndarray) -> float:
    mask = np.abs(vals) > 0
    return float(np.polyfit(np.log(r[mask]), np.log(np.abs(vals[mask])), 1)[0])


@dataclass
class MonotonicityReport:
    """Sign checks and fitted asymptotic rates of the r-view."""

    signs_ok: bool
    violations: list
    slopes_far: dict
    slopes_near: dict
    nominal_far: dict
    nominal_near: dict

    def max_slope_error(self) -> float:
        err = 0.0
        for k in self.slopes_far:
            err = max(err, abs(self.slopes_far[k] - self.nominal_far[k]))
        for k in self.slopes_near:
            err = max(err, abs(self.slopes_near[k] - self.nominal_near[k]))
        return err


def monotonicity_report(profile: RadialProfile, r=None,
                        fit_decades: float = 1.0) -> MonotonicityReport:
    """Verify u' < 0, Delta u < 0, (Delta u)' > 0 and fit the eight end rates.

    The increasing radii r default to 600 points one unit inside the mesh ends.
    """
    N = profile.params.N
    a = profile.params.singular_rate
    if r is None:
        r = np.geomspace(math.exp(-(profile.t_hi - 1.0)), math.exp(-(profile.t_lo + 1.0)), 600)
    r_lo, r_hi = r[0], r[-1]
    v = profile.r_view(r)
    violations = []
    if not np.all(v.du < 0):
        violations.append(("u' < 0", int(np.sum(v.du >= 0))))
    if not np.all(v.lap < 0):
        violations.append(("Delta u < 0", int(np.sum(v.lap >= 0))))
    if not np.all(v.dlap > 0):
        violations.append(("(Delta u)' > 0", int(np.sum(v.dlap <= 0))))

    far = r >= r_hi / 10**fit_decades
    near = r <= r_lo * 10**fit_decades
    slopes_far = {
        "u": _loglog_slope(r[far], v.u[far]),
        "du": _loglog_slope(r[far], v.du[far]),
        "lap": _loglog_slope(r[far], v.lap[far]),
        "dlap": _loglog_slope(r[far], v.dlap[far]),
    }
    slopes_near = {
        "u": _loglog_slope(r[near], v.u[near]),
        "du": _loglog_slope(r[near], v.du[near]),
        "lap": _loglog_slope(r[near], v.lap[near]),
        "dlap": _loglog_slope(r[near], v.dlap[near]),
    }
    nominal_far = {"u": 4.0 - N, "du": 3.0 - N, "lap": 2.0 - N, "dlap": 1.0 - N}
    nominal_near = {"u": -a, "du": -a - 1.0, "lap": -a - 2.0, "dlap": -a - 3.0}
    return MonotonicityReport(
        signs_ok=not violations,
        violations=violations,
        slopes_far=slopes_far,
        slopes_near=slopes_near,
        nominal_far=nominal_far,
        nominal_near=nominal_near,
    )


# ---------------------------------------------------------------------------
# Kelvin transform
# ---------------------------------------------------------------------------

@dataclass
class KelvinProfile:
    """Transformed solution utilde(rho) = rho^{4-N} u(1/rho) of the weighted equation.

    utilde is bounded at the origin with utilde(0+) = beta, solves
    Delta^2 utilde = rho^alpha utilde^p, and decays like
    rho^{-(4+alpha)/(p-1)} at infinity.
    """

    profile: RadialProfile
    value_at_zero: float

    @property
    def params(self) -> Params:
        return self.profile.params

    @property
    def tail_exponent_nominal(self) -> float:
        p = self.params
        return -(4.0 + p.alpha_w) / (p.p - 1.0)

    def value(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        p = self.params
        expo = 4.0 - p.N + p.singular_rate
        return rho**expo * self.profile.ubar(np.log(rho))

    def tail_slope(self, decades: float = 1.0) -> float:
        hi = math.exp(self.profile.t_hi)
        rho = np.geomspace(hi / 10**decades, hi / 1.05, 200)
        return _loglog_slope(rho, self.value(rho))

    def weak_residual(self, rho_lo: float, rho_hi: float, n: int = 4001) -> float:
        """Relative residual of the weighted equation against a C^4 annulus bump.

        Tests int utilde Delta^2 psi dV = int rho^alpha utilde^p psi dV with
        psi supported in [rho_lo, rho_hi]; all derivatives land on psi.
        """
        p = self.params
        rho = np.linspace(rho_lo, rho_hi, n)
        d = [annulus_bump(rho, rho_lo, rho_hi, k) for k in range(5)]
        bilap_psi = bilap_radial(p.N, rho, d[1], d[2], d[3], d[4])
        ut = self.value(rho)
        meas = rho ** (p.N - 1.0)
        lhs = simpson(ut * bilap_psi * meas, x=rho)
        rhs = simpson(rho**p.alpha_w * ut**p.p * d[0] * meas, x=rho)
        return float(abs(lhs - rhs) / (abs(rhs) + 1e-300))


def kelvin_transform(profile: RadialProfile) -> KelvinProfile:
    return KelvinProfile(profile=profile, value_at_zero=profile.beta)


# ---------------------------------------------------------------------------
# text export / import
# ---------------------------------------------------------------------------

def export_profile(profile: RadialProfile, path) -> None:
    """Columnar text export: header (N, p, beta, grid spec), rows t ubar ubar' ubar'' ubar'''.

    Values are written with 17 significant digits, so the file round-trips
    exactly at double precision.
    """
    t = profile.t_grid - profile.t_shift
    y = profile.ubar_state(t)
    with open(path, "w") as fh:
        fh.write("# biharmlab radial profile v1\n")
        fh.write(f"# N = {profile.params.N}\n")
        fh.write(f"# p = {profile.params.p!r}\n")
        fh.write(f"# beta = {profile.beta!r}\n")
        fh.write(f"# rows = {t.size}\n")
        fh.write("# columns: t ubar ubar1 ubar2 ubar3\n")
        for k in range(t.size):
            fh.write("%.17g %.17g %.17g %.17g %.17g\n" % (t[k], y[0, k], y[1, k], y[2, k], y[3, k]))


def import_profile(path) -> RadialProfile:
    """Rebuild a profile from the columnar export.

    The interpolant is reconstructed as a piecewise polynomial matching
    (ubar, ubar', ubar'', ubar''') at every exported node, which preserves
    the stored samples exactly and evaluates between nodes to interpolation
    accuracy.
    """
    from .core import validate_params

    header = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                if "=" in line:
                    key, val = line[1:].split("=", 1)
                    header[key.strip()] = val.strip()
                continue
            rows.append([float(tok) for tok in line.split()])
    data = np.asarray(rows, dtype=float)
    params = validate_params(int(header["N"]), float(header["p"]))
    beta = float(header["beta"])
    t = data[:, 0]
    # Hermite reconstruction: 3 derivatives of ubar known, lower orders for the rest
    return RadialProfile(params=params, coeffs=emden_coeffs(params), beta=beta, t_grid=t,
                         _sol=_StateSpline(t, data[:, 1:5]), diagnostics={"imported": True})


class _StateSpline:
    """Piecewise-polynomial state interpolant built from exported samples.

    Component 0 uses the full derivative stack (degree-7 Hermite pieces);
    components 1..3 use their remaining derivative information.
    """

    def __init__(self, t, state):
        cols = [state[:, 0:4], state[:, 1:4], state[:, 2:4], state[:, 3:4]]
        self._polys = [BPoly.from_derivatives(t, c) for c in cols]
        self._dpolys = [pp.derivative() for pp in self._polys]

    def __call__(self, tq, deriv: bool = False):
        tq = np.asarray(tq, dtype=float)
        return np.stack([pp(tq) for pp in (self._dpolys if deriv else self._polys)])
