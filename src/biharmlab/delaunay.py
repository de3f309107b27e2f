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
4. solve by the sixth-order collocation MIRK6 (Cash & Singhal), its Newton
   matrix ordered as the 3 left conditions, the residual rows of each
   interval, the right condition: banded, O(nodes); refine the mesh on the
   residual of the C2 quintic Hermite interpolant of the nodal values, which
   is evaluated in numpy, bit for bit as scipy's PPoly evaluates it, so the
   module loads scipy.linalg alone;
5. lengthen the pad until the two far-field errors (fast-mode content at
   the mesh start, the left tail's slow amplitude) fall below 0.9 tol.  The
   first mesh pass, Newton-converged but unrefined, already gives both to
   about 4 digits, so a polish that misses stops after it and the next
   starts on the longer mesh, from that pass's profile (its left tail over
   the added pad); only a polish that passes is refined, and the gate reads
   the converged solution.

The profile is defined on all of R: the collocation spline on the mesh
[t_lo, t_hi]; before t_lo the origin's unstable manifold (slow and fast
modes plus the first nonlinear term); past t_hi c_p plus the stable modes
at c_p.  The tails are the eigen-projections the boundary conditions impose,
taken from the end states.

`shoot_once` is kept as a standalone overshoot/undershoot classifier of
single orbits seeded on the unstable manifold; the solver does not use it,
and it imports scipy.integrate's solve_ivp only when called.  The
dissipation identity and the Kelvin transform's weak residual integrate by
`radial.simpson`, in numpy.

The approach to c_p is oscillatory (the j=0 indicial pair is complex), so
convergence is always measured through the full state distance.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.polynomial import polyfromroots

from .core import EmdenCoeffs, Params, ShootingError, emden_coeffs, equilibrium_spectrum
from .cutoff import annulus_bump
from .radial import band_solver, bilap_radial, dlap_radial, lap_radial, simpson

__all__ = [
    "RadialProfile",
    "ShotOutcome",
    "ShootingError",
    "solve_singular",
    "shoot_once",
    "scale_to_beta",
    "energy",
    "hamiltonian",
    "dissipation_check",
    "monotonicity_report",
    "kelvin_transform",
    "export_profile",
]

H_REL = 1e-6          # slow amplitude at the anchor frame's t = 0, relative to c_p
BVP_TOL = 1e-10       # rms residual target of the quintic, per interval
START_NODES = 500     # uniform nodes of the first mesh
MAX_BVP_NODES = 120000  # a Newton pass takes ~2.0 kB per node: ~250 MB at the cap
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


def _exprel(x):
    """(e^x - 1)/x, exactly 1 at x = 0 and inf past overflow, with no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(x == 0, 1.0, np.expm1(x) / x)


def _divided_differences(a: float, b: float, d) -> np.ndarray:
    """[x^k e^{x d}] over the nodes a, b for k = 0..4, shape (5, m); finite at a = b."""
    lo, hi = min(a, b), max(a, b)
    ea = np.exp(a * d)
    dd = np.exp(lo * d) * d * _exprel((hi - lo) * d)  # (e^{ad} - e^{bd}) / (a - b)
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
        """Profile with ubar_new(t) = ubar(t + delta) (same orbit, new frame).

        A shift that takes the slow amplitude out of floating-point range
        raises ShootingError (stage "frame shift").  The tails live in the
        internal frame, which a shift does not move, so they are shared.
        """
        with np.errstate(over="ignore"):
            beta_new = float(np.exp(math.log(self.beta) + self.params.slow_rate * delta))
        if not 0.0 < beta_new < math.inf:  # NaN fails too
            raise ShootingError("frame shift", f"shift {delta!r} takes the slow amplitude "
                                              f"{self.beta!r} out of floating-point range")
        out = copy.copy(self)
        out.beta, out.t_shift, out.diagnostics = beta_new, self.t_shift + delta, dict(self.diagnostics)
        return out

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

    def scaled_derivs(self, t) -> np.ndarray:
        """S[k] = r^{k+a} u^{(k)}(r) at r = e^{-t} for k = 0..5, shape (6, m), from the state.

        With u = r^{-a} ubar(-log r), a = 4/(p-1), the operator r d/dr acts on
        r^{-a} f(-log r) as r^{-a} (-a - d/dt) f, so
        r^{k+a} u^{(k)} = prod_{i<k} (-a - d/dt - i) ubar; ubar'''' and ubar'''''
        come from the Emden-Fowler equation and its derivative.  No power of r
        is formed, so S is finite wherever the state is.  The radial operators
        are homogeneous in r, so r^{a+2} Delta u = lap_radial(N, 1, S[1], S[2])
        and r^{a+3} (Delta u)' = dlap_radial(N, 1, S[1], S[2], S[3]).
        """
        p, a = self.params.p, self.params.singular_rate
        K = self.coeffs
        y = self.ubar_state(t)
        up = np.abs(y[0]) ** (p - 1.0)
        d4 = up * y[0] - K.K3 * y[3] - K.K2 * y[2] - K.K1 * y[1] - K.K0 * y[0]
        d5 = p * up * y[1] - K.K3 * d4 - K.K2 * y[3] - K.K1 * y[2] - K.K0 * y[1]
        derivs = np.vstack([y, d4, d5])
        return np.stack([(-1) ** k * polyfromroots(-a - np.arange(k)) @ derivs[:k + 1]
                         for k in range(6)])


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
    from scipy.integrate import solve_ivp

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

def _expit(x):
    """1/(1 + e^-x), formed from e^-|x| so that no argument overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _gauge(t, cp, w0, mu):
    """Logistic gauge D(t) = c_p w/(1+w), w = w0 e^{mu t}, in log space: (D, 1/(1+w)).

    With x = log w0 + mu t, D = c_p expit(x) and 1/(1+w) = expit(-x), so no
    power of w is formed and both stay finite on every mesh.
    """
    x = math.log(w0) + mu * np.asarray(t, dtype=float)
    return cp * _expit(x), _expit(-x)


class _ScaledSpline:
    """State interpolant y(t) = D(t) z(t) with scalar amplitude gauge D.

    The collocation pass solves for z (O(1) across the window); D carries the
    exponential tail, so relative accuracy is uniform down to the far field.
    """

    def __init__(self, zsol, cp, w0, mu):
        self._z, self._dz = zsol, zsol.derivative()
        self.cp, self.w0, self.mu = cp, w0, mu

    def __call__(self, t, deriv: bool = False):
        D, g = _gauge(t, self.cp, self.w0, self.mu)
        if deriv:
            return D * self.mu * g * self._z(t) + D * self._dz(t)
        return D * self._z(t)


# The profile's collocation: the sixth-order, 5-stage mono-implicit Runge-Kutta
# scheme MIRK6 of Cash & Singhal (IMA J. Numer. Anal. 2, 1982), with the mesh
# refined on the residual of the C2 quintic Hermite interpolant of its nodal
# values (defect control after Enright & Muir, SIAM J. Sci. Comput. 17, 1996).
# Stage r of the interval [x_q, x_q + h] sits at x_q + c_r h,
#     Y_r = (1 - v_r) y_q + v_r y_{q+1} + h sum_j X_rj f(Y_j),
# with c = (0, 1, 1/4, 3/4, 1/2), v = (0, 1, 5/32, 27/32, 1/2) and the nonzero
# X_rj below; the residual is y_{q+1} - y_q - h sum_r b_r f(Y_r) with Boole's
# weights b = (7/90, 7/90, 16/45, 16/45, 2/15).  Every stage is explicit in the
# interval's end nodes, so the residual couples nodes q and q + 1 only.  The
# Newton matrix's rows are ordered as the 3 left boundary conditions, the 4
# residual rows of each interval in turn, then the right boundary condition:
# it is banded, (kl, ku) = (6, 4), and LAPACK's dgbtrf/dgbtrs factor and solve
# it in O(m).
_X3, _X4 = (9 / 64, -3 / 64), (3 / 64, -9 / 64)  # X_31, X_32 and X_41, X_42
_X5 = (-5 / 24, 5 / 24, 2 / 3, -2 / 3)          # X_51 .. X_54
_B = (7 / 90, 16 / 45, 2 / 15)                   # b_1 = b_2, b_3 = b_4, b_5
_KL, _KU = 6, 4
_FAILURES = {1: "The maximum number of mesh nodes is exceeded.",
             2: "A singular Jacobian encountered when solving the collocation system.",
             3: "The solver was unable to satisfy boundary conditions tolerance on iteration 10."}
_STOPPED = 4  # `stop` ended the solve after its first mesh pass
_NEWTON_ITERATIONS, _NEWTON_JACOBIANS = 24, 12  # Newton's budget on one mesh
_CONTRACTION = 0.2  # a chord step that shrinks the next one less than this refreshes the Jacobian


class _Spline:
    """Piecewise polynomial on breakpoints x; c[power, component, interval], highest power first.

    Evaluates bit for bit, in the same memory layout, as scipy.interpolate.PPoly on
    axis 1 with extrapolate=True: on the interval of the last breakpoint <= t (the
    end pieces extrapolate), summing the powers from the lowest up in scipy's order.
    The sums run node-last and are laid out as PPoly's at the end.
    """

    def __init__(self, c, x):
        self.c, self.x = c, x

    def __call__(self, t, nu: int = 0):
        """Values (nu = 0) or first derivatives (nu = 1) at t, shape (4,) + t.shape."""
        t = np.asarray(t, dtype=float)
        k = np.searchsorted(self.x[1:-1], t, side="right")  # in [0, m-2], NaN at m-2
        return self._sum(t - self.x[k], nu, k)

    def per_interval(self, t, nu: int = 0):
        """As __call__ at one point t[k] inside each interval k, with no search."""
        return self._sum(t - self.x[:-1], nu)

    def _sum(self, s, nu, k=None):
        deg = self.c.shape[0] - 1
        res, z = 0.0, 1.0
        with np.errstate(all="ignore"):  # as PPoly's compiled loop; (5, 8.36) meets inf
            for j in range(nu, deg + 1):
                cj = self.c[deg - j] if k is None else self.c[deg - j].take(k, axis=1)
                res = res + (cj * z * j if nu else cj * z)
                if j < deg:
                    z = z * s
        out = np.empty(s.shape + self.c.shape[1:2])  # PPoly's layout: components vary fastest
        np.moveaxis(out, -1, 0)[...] = res
        return np.moveaxis(out, -1, 0)

    def derivative(self) -> "_Spline":
        """PPoly.derivative(): coefficients scaled by their powers, one degree down."""
        return _Spline(self.c[:-1] * np.arange(self.c.shape[0] - 1, 0, -1.0)[:, None, None],
                       self.x)


class _Gauged(NamedTuple):
    """A system z' = fun(t, z) in companion form, with separated boundary conditions.

    The Jacobian is d I + (ones on the superdiagonal) + (a, k1, k2, k3) added to
    the last row: jac(t, z) returns the varying (d, a), `k` holds the constant
    (k1, k2, k3).  accel(t, z, f) returns z'' = J f + d_t f.  bc(za, zb) returns
    3 left conditions, then 1 right; dya and dyb are its constant Jacobians.
    """

    fun: Callable
    accel: Callable
    jac: Callable
    k: tuple
    bc: Callable
    dya: np.ndarray
    dyb: np.ndarray


class _Mesh(NamedTuple):
    """Nodes x, steps h, the stage times at 1/4 and 3/4 of each interval (in that
    order, stacked) and the interval midpoints."""

    x: np.ndarray
    h: np.ndarray
    t34: np.ndarray
    tm: np.ndarray


def _mesh(x) -> _Mesh:
    h = np.diff(x)
    return _Mesh(x, h, np.concatenate([x[:-1] + 0.25 * h, x[:-1] + 0.75 * h]), x[:-1] + 0.5 * h)


class _Stages(NamedTuple):
    """f at the nodes, the stage states at 1/4 and 3/4 (stacked) and at the midpoint, and f there."""

    f: np.ndarray
    y34: np.ndarray
    y5: np.ndarray
    f5: np.ndarray


class _Collocation(NamedTuple):
    x: np.ndarray
    sol: _Spline  # the quintic of the last Newton pass
    rms_residuals: np.ndarray
    status: int  # 0 converged, _STOPPED, else a key of _FAILURES


def _mirk6(fun, mesh: _Mesh, y):
    """MIRK6 residuals of the nodal states y, shape (4, m - 1), and the stages."""
    h, n = mesh.h, mesh.h.size
    f = fun(mesh.x, y)
    yl, yr, fl, fr = y[:, :-1], y[:, 1:], f[:, :-1], f[:, 1:]
    y34 = np.hstack([27 / 32 * yl + 5 / 32 * yr + h * (_X3[0] * fl + _X3[1] * fr),
                     5 / 32 * yl + 27 / 32 * yr + h * (_X4[0] * fl + _X4[1] * fr)])
    f34 = fun(mesh.t34, y34)
    f3, f4 = f34[:, :n], f34[:, n:]
    y5 = 0.5 * (yl + yr) + h * (_X5[0] * fl + _X5[1] * fr + _X5[2] * f3 + _X5[3] * f4)
    f5 = fun(mesh.tm, y5)
    res = yr - yl - h * (_B[0] * (fl + fr) + _B[1] * (f3 + f4) + _B[2] * f5)
    return res, _Stages(f, y34, y5, f5)


def _jmul(d, a, k, M):
    """J M at each node, node-last, for the companion J of (d, a, k) and M of shape (4, 4, n)."""
    out = np.empty(M.shape)
    for i in range(3):
        np.add(d * M[i], M[i + 1], out=out[i])
    out[3] = a * M[0] + k[0] * M[1] + k[1] * M[2] + (k[2] + d) * M[3]
    return out


def _newton_band(prob: _Gauged, mesh: _Mesh, y, st: _Stages):
    """The Newton matrix in LAPACK band storage, transposed, and whether it is finite.

    Row r, column c is at [c, 10 + r - c].  Rows r: left conditions 0..2,
    interval q's residual 3 + 4q + i, right condition 4m - 1; column
    c = 4q + j is component j of node q.  Interval q's blocks are
    -I - h sum_r b_r J_r dY_r/dy_q on node q and I - h sum_r b_r J_r dY_r/dy_{q+1}
    on node q + 1, by the chain rule through the stages; each 4 x 4 block is
    formed node-last, J_r applied in its companion form.  Only the written
    entries are tested for finiteness; every other entry is 0.
    """
    m, n, h, k = mesh.x.size, mesh.h.size, mesh.h, prob.k
    eye = np.broadcast_to(np.identity(4)[:, :, None], (4, 4, n))
    d, a = prob.jac(mesh.x, y)
    d34, a34 = prob.jac(mesh.t34, st.y34)
    d5, a5 = prob.jac(mesh.tm, st.y5)
    ab = np.zeros((4 * m, 2 * _KL + _KU + 1))
    i, j = np.indices((4, 4))
    ab[j[:3], 10 + i[:3] - j[:3]] = prob.dya[:3]
    ab[np.arange(4) - 4, 13 - np.arange(4)] = prob.dyb[3]
    finite = np.isfinite(prob.dya[:3]).all() and np.isfinite(prob.dyb[3]).all()
    # node q: dY_3 = 27/32 + h X_31 J_1, dY_4 = 5/32 + h X_41 J_1; node q + 1 likewise
    for sign, node, v3, v4, e, row0, col0 in ((-1.0, slice(None, -1), 27 / 32, 5 / 32, 0, 0, 13),
                                              (1.0, slice(1, None), 5 / 32, 27 / 32, 1, 4, 9)):
        Je = h * _jmul(d[node], a[node], k, eye)  # h J at the end node
        JS3 = _jmul(d34[:n], a34[:n], k, v3 * eye + _X3[e] * Je)
        JS4 = _jmul(d34[n:], a34[n:], k, v4 * eye + _X4[e] * Je)
        S5 = 0.5 * eye + _X5[e] * Je + h * (_X5[2] * JS3 + _X5[3] * JS4)
        block = sign * eye - _B[0] * Je - h * (_B[1] * (JS3 + JS4) + _B[2] * _jmul(d5, a5, k, S5))
        finite = finite and np.isfinite(block).all()
        ab[row0:row0 + 4 * n].reshape(n, 4, -1)[:, j, col0 + i - j] = block.transpose(2, 0, 1)
    return ab, finite


def _newton(prob: _Gauged, mesh: _Mesh, y, tol):
    """Damped Newton on one mesh: returns (y, singular, converged, stages at y).

    Armijo backtracking (sigma 0.2, tau 0.5, 4 trials) on the affine-invariant
    cost |J^-1 res|^2.  A Jacobian is reused after a full step, as in
    solve_bvp, and refreshed after a damped step or after a full chord step
    (one that reused it) whose successor is more than _CONTRACTION times as
    long.  The full step of a fresh Jacobian is always followed by a chord
    step: refreshing there too drives Newton out of its basin from the hard
    starts near the Sobolev end.  It runs to its convergence test within a
    budget of _NEWTON_ITERATIONS iterations and _NEWTON_JACOBIANS Jacobians
    (solve_bvp's 8 and 4 stop short of it at tol = 1e-10).  A non-finite
    matrix counts as singular.  A trial iterate that meets the tolerance is
    accepted at once, with no solve for the Armijo test.
    """
    tol_r = 2 / 3 * mesh.h * 5e-2 * tol

    def residual(y):
        res, st = _mirk6(prob.fun, mesh, y)
        bcr = prob.bc(y[:, 0], y[:, -1])
        done = np.all(np.abs(res) < tol_r * (1 + np.abs(st.f5))) and np.all(np.abs(bcr) < tol)
        return np.concatenate([bcr[:3], res.ravel(order="F"), bcr[3:]]), st, done

    res, st, _ = residual(y)
    njev, recompute = 0, True
    for _ in range(_NEWTON_ITERATIONS):
        if recompute:
            ab, finite = _newton_band(prob, mesh, y, st)
            njev += 1
            if not finite:
                return y, True, False, st
            try:
                solve = band_solver(ab.T, _KL, _KU)
            except np.linalg.LinAlgError:
                return y, True, False, st
            step = solve(res)
            cost = step @ step
        alpha = 1.0
        for trial in range(5):
            y_new = y - alpha * step.reshape(-1, 4).T
            res, st, done = residual(y_new)
            if done:
                break
            step_new = solve(res)
            cost_new = step_new @ step_new
            if cost_new < (1 - 2 * alpha * 0.2) * cost:
                break
            if trial < 4:
                alpha *= 0.5
        y = y_new
        if njev == _NEWTON_JACOBIANS or done:
            break
        chord = not recompute  # this step reused the Jacobian
        recompute = alpha != 1 or (chord and not cost_new <= _CONTRACTION**2 * cost)
        if not recompute:
            step, cost = step_new, cost_new
    return y, False, done, st


def _quintic(x, h, y, f, a) -> _Spline:
    """The C2 quintic Hermite interpolant of nodal values y, slopes f and second derivatives a."""
    y0, f0, a0 = y[:, :-1], f[:, :-1], a[:, :-1]
    A = y[:, 1:] - y0 - h * (f0 + 0.5 * h * a0)
    B = h * (f[:, 1:] - f0 - h * a0)
    C = h * h * (a[:, 1:] - a0)
    return _Spline(np.stack([(6 * A - 3 * B + 0.5 * C) / h**5, (7 * B - 15 * A - C) / h**4,
                             (10 * A - 4 * B + 0.5 * C) / h**3, 0.5 * a0, f0, y0]), x)


def _collocate(prob: _Gauged, x, y, tol, max_nodes, stop=None) -> _Collocation:
    """MIRK6 on a mesh refined on the quintic's residual, with bc_tol = tol.

    Each pass runs Newton on the mesh and interpolates its nodal states by the
    C2 quintic Hermite interpolant.  It estimates each interval's rms relative
    residual |q' - f(t, q)| / (1 + |f|) of that quintic q by 5-point Lobatto
    quadrature (q' = f at the nodes), and inserts 1 node where
    tol < rms < 100 tol and 2 where rms >= 100 tol, as solve_bvp does.  Newton
    runs to convergence on each mesh, so the nodes follow the discretization
    error; a pass that exhausts Newton's budget is refined from its last
    iterate all the same, which is how the coarse first meshes near the
    Sobolev end reach a mesh where Newton converges.  After a converged first
    pass, stop(x, quintic) may end the solve there, unrefined, with status
    _STOPPED.  A MemoryError names the mesh size it met.
    """
    status, iteration = None, 0
    try:
        while status is None:
            mesh = _mesh(x)
            y, singular, converged, st = _newton(prob, mesh, y, tol)
            iteration += 1
            h = mesh.h
            sol = _quintic(x, h, y, st.f, prob.accel(x, y, st.f))
            # the interior Lobatto nodes lie inside interval k, so evaluated there with no search
            s = 0.5 * h * (3 / 7) ** 0.5
            xk = (mesh.tm, mesh.tm - s, mesh.tm + s)
            fk = prob.fun(np.concatenate(xk), np.hstack([sol.per_interval(t) for t in xk]))
            rk = np.hstack([sol.per_interval(t, 1) for t in xk]) - fk
            r2 = np.sum((rk / (1 + np.abs(fk))) ** 2, axis=0).reshape(3, -1)
            rms = (0.5 * (32 / 45 * r2[0] + 49 / 90 * (r2[1] + r2[2]))) ** 0.5
            ins1 = np.nonzero((rms > tol) & (rms < 100 * tol))[0]
            ins2 = np.nonzero(rms >= 100 * tol)[0]
            if singular:
                status = 2
            elif iteration == 1 and converged and stop is not None and stop(x, sol):
                status = _STOPPED
            elif x.size + ins1.size + 2 * ins2.size > max_nodes:
                status = 1
            elif ins1.size or ins2.size:
                x = np.sort(np.hstack((x, 0.5 * (x[ins1] + x[ins1 + 1]),
                                       (2 * x[ins2] + x[ins2 + 1]) / 3, (x[ins2] + 2 * x[ins2 + 1]) / 3)))
                y = sol(x)
            elif np.max(np.abs(prob.bc(y[:, 0], y[:, -1]))) <= tol:
                status = 0
            elif iteration >= 10:
                status = 3
    except MemoryError:
        raise MemoryError(f"out of memory at {x.size} nodes") from None
    return _Collocation(x, sol, rms, status)


def _bvp_polish(params, coeffs, amp_anchor, pad, tail, tol_bvp, stop=None, start=None):
    """Collocation solve of the connection, in gauged variables.

    The unknown is z = y / D(t) with D(t) = c_p w/(1+w), w = (h/c_p) e^{mu_s t},
    which is O(1) from the deep tail to the plateau; the collocation error
    control is therefore relative everywhere, and in particular the slow
    amplitude (the time anchor of the orbit) is consistent across window
    choices.  Left boundary (4 conditions total): the two stable
    eigen-components vanish and the slow component equals the manifold
    amplitude; right boundary: the unstable eigen-component at c_p vanishes.

    The anchor frame puts slow amplitude amp_anchor at t = 0, and the mesh
    starts at t = -pad.  Newton starts from the state start(t) when given (a
    profile of the same anchor frame), else from the smooth logistic
    transition y = D itself: the gauged system is well-conditioned enough to
    converge from it.  `_collocate` solves it; the boundary conditions are
    separated (3 on the left, 1 on the right), so its Newton matrix is
    banded.  Given stop(x, state interpolant), the first mesh pass may end
    the solve.
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
    tg = np.linspace(-pad, t_end, START_NODES)
    e, g = _gauge(tg, 1.0, w0, mu_s)
    if start is not None:
        zg = start(tg) / (cp * e)
    else:  # the logistic transition z_k = D^(k)/D in g = 1/(1+w) and e = w/(1+w)
        zg = np.vstack([np.ones_like(tg), mu_s * g, mu_s**2 * g * (g - e),
                        mu_s**3 * g * (1.0 - 6.0 * e * g)])

    memo = {}  # t.size -> (t, D^(p-1), mu_s/(1+w)), one entry per point set of a mesh

    def gauge_terms(t):
        """D^(p-1) and mu_s/(1+w) at t, formed once per mesh and point set: the nodes,
        the stages at 1/4 and 3/4, the midpoints and the Lobatto samples differ in size."""
        hit = memo.get(t.size)
        if hit is None or not np.array_equal(hit[0], t):
            D, g = _gauge(t, cp, w0, mu_s)
            hit = memo[t.size] = (t.copy(), D ** (p - 1.0), mu_s * g)
        return hit[1:]

    def fun(t, z):
        Dp, dl = gauge_terms(t)
        z0, z1, z2, z3 = z
        f4 = (Dp * np.abs(z0) ** (p - 1.0) * z0
              - K3 * z3 - K2 * z2 - K1 * z1 - K0 * z0)
        f = np.empty((4, t.size))
        for k, z_next in enumerate((z1, z2, z3, f4)):
            np.subtract(z_next, dl * z[k], out=f[k])
        return f

    def accel(t, z, f):
        """z'' = J f + d_t f, where d_t acts on the gauge: (mu_s/(1+w))' = -dl (mu_s - dl)."""
        Dp, dl = gauge_terms(t)
        ddl = dl * (mu_s - dl)
        z0p = np.abs(z[0]) ** (p - 1.0)
        a = np.empty_like(f)
        for k in range(3):
            a[k] = f[k + 1] - dl * f[k] + ddl * z[k]
        a[3] = ((p * Dp * z0p - K0) * f[0] - K1 * f[1] - K2 * f[2] - (K3 + dl) * f[3]
                + (p - 1.0) * Dp * dl * z0p * z[0] + ddl * z[3])
        return a

    def jac(t, z):
        """The companion Jacobian's varying entries: the diagonal -dl and J[3, 0]."""
        Dp, dl = gauge_terms(t)
        return -dl, p * Dp * np.abs(z[0]) ** (p - 1.0) - K0

    w_left = w0 * math.exp(-mu_s * pad)
    D_right, _ = _gauge(t_end, cp, w0, mu_s)

    def bc(za, zb):
        cL = V0inv @ za
        return np.array([cL[2], cL[3], cL[0] - (1.0 + w_left),
                         (w_u @ (float(D_right) * zb - xstar)) / cp])

    dya, dyb = np.zeros((4, 4)), np.zeros((4, 4))
    dya[:3] = V0inv[[2, 3, 0]]
    dyb[3] = w_u * float(D_right) / cp
    prob = _Gauged(fun, accel, jac, (-K1, -K2, -K3), bc, dya, dyb)
    try:
        res = _collocate(prob, tg, zg, tol_bvp, MAX_BVP_NODES,
                         stop=None if stop is None else
                         lambda x, sol: stop(x, _ScaledSpline(sol, cp, w0, mu_s)))
    except ValueError as exc:  # mesh refinement collapsed nodes
        raise ShootingError("collocation polish", str(exc)) from exc
    except MemoryError as exc:  # the mesh's work arrays outgrew memory
        raise ShootingError("collocation polish", str(exc)) from exc
    return res, t_arr, _ScaledSpline(res.sol, cp, w0, mu_s)


def solve_singular(params: Params, beta: float = 1.0, tol: float = 1e-4) -> RadialProfile:
    """Compute the singular radial profile with far-field coefficient beta.

    tol controls the asymptotic-fit guarantees at both ends of the mesh; it
    must lie in (2e-6, 1), above the manifold-truncation floor of the left
    boundary condition.  The ODE-residual quality is fixed by the
    collocation tolerance and is reported in profile.diagnostics.  Every
    gate fails on NaN, so a solve either meets them or raises ShootingError
    naming the stage.  The mesh is chosen here; the returned profile
    evaluates every t through its tails.
    """
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta={beta} must be positive and finite")
    if not 2e-6 < tol < 1.0:  # NaN fails too
        raise ValueError(f"tol={tol} must exceed the manifold-truncation floor ~2e-6 "
                         "and lie below 1")
    coeffs = emden_coeffs(params)
    h = H_REL * params.c_p

    # anchor frame: slow amplitude h at t = 0, shifted to the requested beta after.
    # Extend the pad until two far-field errors meet the contract: the fit
    # r^{N-4} u -> beta at the mesh start (fast-mode content, decays at rate
    # mu_f - mu_s) and the left tail's slow amplitude (off by the nonlinear
    # term the linear boundary condition leaves out, decays at (p-1) mu_s).
    # The first mesh pass, Newton-solved but unrefined, already decides:
    # a polish whose first pass misses the fit stops there, the pad grows
    # from that pass's errors, and the next polish starts from that pass's
    # profile, its left tail spanning the added pad.  The last polish runs
    # in full, so the gate and its message always read a converged solution.
    rates = (params.fast_rate - params.slow_rate, (params.p - 1.0) * params.slow_rate)

    def far_field(x, ysol):
        """The profile on mesh x and its two far-field errors, relative to h."""
        prof = RadialProfile(params=params, coeffs=coeffs, beta=h, t_grid=x, _sol=ysol)
        t_l = float(x[0])
        return prof, (abs(float(ysol(t_l)[0]) * math.exp(-params.slow_rate * t_l) / h - 1.0),
                      abs(prof.far_field_beta / h - 1.0))

    def misses(x, ysol):  # NaN does not stop: the full polish's gates name it
        return float(np.max(far_field(x, ysol)[1])) > 0.9 * tol

    def polish():
        pad, start = 0.0, None
        for attempt in range(4):
            res, t_arr, ysol = _bvp_polish(params, coeffs, h, pad, TAIL, BVP_TOL,
                                           misses if attempt < 3 else None, start)
            if res.status not in (0, _STOPPED):
                grid_res = float(np.max(res.rms_residuals)) if res.rms_residuals.size else math.inf
                if not (grid_res <= 1e-7):
                    raise ShootingError("collocation polish",
                                        f"{_FAILURES[res.status]} (rms {grid_res:.2e})")
            prof, errs = far_field(res.x, ysol)
            beta_fit_rel = float(np.max(errs))  # NaN-propagating
            if beta_fit_rel <= 0.9 * tol:
                return res, t_arr, ysol, prof, beta_fit_rel
            if not math.isfinite(beta_fit_rel):
                raise ShootingError("far-field fit", f"coefficient error is {beta_fit_rel}")
            pad += max(math.log(e / (0.3 * tol)) / k for e, k in zip(errs, rates) if e > 0.3 * tol)
            start = prof.ubar_state
        raise ShootingError("far-field fit", f"coefficient off by {beta_fit_rel:.2e} > tol")

    # a diverging Newton iterate overflows in fun, the stages, the Armijo cost and
    # the tail fit: count those floating-point errors and report them once
    fp_errors = []
    try:
        with np.errstate(over="call", divide="call", invalid="call",
                         call=lambda kind, flag: fp_errors.append(kind)):
            res, t_arr, ysol, prof, beta_fit_rel = polish()
    except ShootingError as exc:
        if not fp_errors:
            raise
        raise ShootingError(exc.stage, f"{exc.detail}; floating-point errors: "
                                       f"{len(fp_errors)}") from exc
    if fp_errors:
        warnings.warn(f"profile solve at N={params.N}, p={params.p!r}: floating-point "
                      f"errors: {len(fp_errors)}", RuntimeWarning, stacklevel=2)
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
    prof = prof.shifted((math.log(beta) - math.log(h)) / params.slow_rate)
    prof.beta = beta  # exact by construction; avoids exp/log roundoff
    prof.diagnostics["tol"] = tol
    return prof


# ---------------------------------------------------------------------------
# dilations and normalization
# ---------------------------------------------------------------------------

def scale_to_beta(profile: RadialProfile, beta_new: float) -> RadialProfile:
    """Time-translated profile with slow amplitude beta_new (same orbit)."""
    if not 0.0 < beta_new < math.inf:
        raise ValueError(f"beta_new={beta_new} must be positive and finite")
    delta = (math.log(beta_new) - math.log(profile.beta)) / profile.params.slow_rate
    out = profile.shifted(delta)
    out.beta = beta_new
    return out


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
    """Both sides of the dissipation identity on [t0, t1] (Simpson quadrature, n odd)."""
    tt = np.linspace(t0, t1, n)
    _, u1, u2, _ = profile.ubar_state(tt)
    K = profile.coeffs
    rate = K.K1 * u1**2 - K.K3 * u2**2
    lhs = float(hamiltonian(profile, t1) - hamiltonian(profile, t0))
    rhs = simpson(rate, tt)
    return lhs, rhs


# ---------------------------------------------------------------------------
# monotonicity and rate reports
# ---------------------------------------------------------------------------

def _loglog_slope(logr: np.ndarray, vals: np.ndarray) -> float:
    """Fitted slope of log|vals| against log r over the nonzero samples."""
    mask = np.abs(vals) > 0
    return float(np.polyfit(logr[mask], np.log(np.abs(vals[mask])), 1)[0])


@dataclass
class MonotonicityReport:
    """Sign checks and fitted asymptotic rates of u, u', Delta u and (Delta u)'."""

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


def monotonicity_report(profile: RadialProfile, r=None) -> MonotonicityReport:
    """Verify u' < 0, Delta u < 0, (Delta u)' > 0 and fit the eight end rates.

    Everything is read from `RadialProfile.scaled_derivs` at t = -log r, with
    no power of r: r^{k+a} u^{(k)} > 0 carries the sign of u^{(k)}, and each
    rate is the slope of log|r^{k+a} u^{(k)}| against log r over the decade
    at either end, minus (a + k).  A sample that is not of the required sign,
    NaN included, is a violation.  The increasing radii r default to 600
    points, equally spaced in log r, one unit inside the mesh ends.
    """
    N = profile.params.N
    a = profile.params.singular_rate
    logr = np.linspace(1.0 - profile.t_hi, -1.0 - profile.t_lo, 600) if r is None else np.log(r)
    S = profile.scaled_derivs(-logr)
    fields = {"u": S[0], "du": S[1], "lap": lap_radial(N, 1.0, S[1], S[2]),
              "dlap": dlap_radial(N, 1.0, S[1], S[2], S[3])}
    violations = []
    for name, key, sign in (("u' < 0", "du", -1.0), ("Delta u < 0", "lap", -1.0),
                            ("(Delta u)' > 0", "dlap", 1.0)):
        bad = int(np.count_nonzero(~(sign * fields[key] > 0)))
        if bad:
            violations.append((name, bad))

    order = {"u": 0, "du": 1, "lap": 2, "dlap": 3}

    def slopes(at):  # of log|u^(k)| over the decade `at`
        return {k: _loglog_slope(logr[at], v[at]) - a - order[k] for k, v in fields.items()}

    return MonotonicityReport(
        signs_ok=not violations,
        violations=violations,
        slopes_far=slopes(logr >= logr[-1] - math.log(10.0)),
        slopes_near=slopes(logr <= logr[0] + math.log(10.0)),
        nominal_far={k: 4.0 - N - k_ for k, k_ in order.items()},
        nominal_near={k: -a - k_ for k, k_ in order.items()},
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

    def weak_residual(self, rho_lo: float, rho_hi: float, n: int = 4001) -> float:
        """Relative residual of the weighted equation against a C^4 annulus bump.

        Tests int utilde Delta^2 psi dV = int rho^alpha utilde^p psi dV with
        psi supported in [rho_lo, rho_hi]; all derivatives land on psi.  n is odd.
        """
        p = self.params
        rho = np.linspace(rho_lo, rho_hi, n)
        d = [annulus_bump(rho, rho_lo, rho_hi, k) for k in range(5)]
        bilap_psi = bilap_radial(p.N, rho, d[1], d[2], d[3], d[4])
        ut = self.value(rho)
        meas = rho ** (p.N - 1.0)
        lhs = simpson(ut * bilap_psi * meas, rho)
        rhs = simpson(rho**p.alpha_w * ut**p.p * d[0] * meas, rho)
        return float(abs(lhs - rhs) / (abs(rhs) + 1e-300))


def kelvin_transform(profile: RadialProfile) -> KelvinProfile:
    return KelvinProfile(profile=profile, value_at_zero=profile.beta)


# ---------------------------------------------------------------------------
# text export
# ---------------------------------------------------------------------------

def export_profile(profile: RadialProfile, path) -> None:
    """Columnar text export: header (N, p, beta, grid spec), rows t ubar ubar' ubar'' ubar'''.

    Values are written with 17 significant digits, so reading the file back
    (np.loadtxt) recovers the exact doubles.
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
