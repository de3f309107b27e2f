"""Problem parameters and closed-form constants for Delta^2 u = u^p.

The admissible parameter range is the open window between the Serrin-type
exponent N/(N-4) and the Sobolev exponent (N+4)/(N-4), with N >= 5.  Inside
it the singular radial profile u ~ c_p r^{-4/(p-1)} exists, with

    c_p = k(p,N)^{1/(p-1)},
    k(p,N) = 8(p+1)/(p-1)^4 * [N^2(p-1)^2 + 8p(p+1) + N(2+4p-6p^2)],

and the linearized potential limit A_p = p*k(p,N).  The same profile, read
in Emden-Fowler time t = log r through ubar(t) = r^{-4/(p-1)} u(1/r),
solves the autonomous fourth-order equation

    ubar'''' + K3 ubar''' + K2 ubar'' + K1 ubar' + K0 ubar = ubar^p,

whose coefficients K0..K3 are the elementary symmetric functions of the four
origin rates N-4-m, N-2-m, -m and -2-m, m = 4/(p-1): the characteristic
polynomial is prod_g (mu + m + g) over g in {0, 2, 2-N, 4-N}, and K0 = k(p,N)
= m(m+2)(N-2-m)(N-4-m).  Their agreement with the printed displays, and
the signs of k, K3 and K1 on the window, are proved symbolically in
tests/test_core.py.

All routines are pure functions evaluated in double precision.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

__all__ = [
    "Params",
    "EmdenCoeffs",
    "ShootingError",
    "SolverError",
    "SpecialExponents",
    "serrin_exponent",
    "sobolev_exponent",
    "origin_rates",
    "k_of",
    "validate_params",
    "emden_coeffs",
    "origin_spectrum",
    "equilibrium_spectrum",
    "special_exponents",
]


class SolverError(RuntimeError):
    """A numerical solver failed; `stage` names the stage that failed.

    Lives here so the CLI maps it to an exit code without importing scipy.
    """

    def __init__(self, stage: str, detail: str):
        super().__init__(stage, detail)
        self.stage = stage
        self.detail = detail

    def __str__(self) -> str:
        return f"{self.stage}: {self.detail}"


class ShootingError(SolverError):
    """Failure of the profile solve."""


def serrin_exponent(N: int) -> float:
    """Lower endpoint N/(N-4) of the admissible exponent window."""
    return N / (N - 4)


def sobolev_exponent(N: int) -> float:
    """Upper (critical) endpoint (N+4)/(N-4) of the admissible window."""
    return (N + 4) / (N - 4)


def origin_rates(N: int, p: float) -> tuple[float, float, float, float]:
    """Rates at the Emden-Fowler origin ubar = 0, the roots of the characteristic polynomial.

    The slow and fast unstable rates N-4-m and N-2-m, then the stable pair
    -m and -2-m, with m = 4/(p-1).
    """
    a = 4.0 / (p - 1.0)
    return (N - 4.0 - a, N - 2.0 - a, -a, -2.0 - a)


def k_of(N: int, p: float) -> float:
    """Constant k(p,N) = m(m+2)(N-2-m)(N-4-m), m = 4/(p-1), with c_p = k^{1/(p-1)}.

    The product of the four origin rates: it has no cancellation and is 0 at
    p = N/(N-4).  Evaluation is allowed outside the admissible window; only
    N >= 5 and p > 1 are required.
    """
    if N < 5:
        raise ValueError(f"dimension N={N} is below the minimum 5")
    if p <= 1:
        raise ValueError(f"exponent p={p} must exceed 1")
    slow, fast, a, b = origin_rates(N, p)
    return (slow * fast) * (a * b)


@dataclass(frozen=True)
class Params:
    """A validated problem instance with its derived constants.

    N is the ambient dimension of the point singularity.  alpha_w =
    (N-4)p - (N+4) is the weight exponent produced by the Kelvin transform;
    it lies in (-4, 0) exactly when p is admissible.
    """

    N: int
    p: float
    alpha_w: float
    k_const: float
    c_p: float
    A_p: float

    @property
    def serrin(self) -> float:
        return serrin_exponent(self.N)

    @property
    def sobolev(self) -> float:
        return sobolev_exponent(self.N)

    @property
    def singular_rate(self) -> float:
        """Exponent 4/(p-1) of the r -> 0 blow-up of the profile."""
        return 4.0 / (self.p - 1.0)

    @property
    def slow_rate(self) -> float:
        """Slow unstable rate N - 4 - 4/(p-1) of the Emden-Fowler origin."""
        return origin_rates(self.N, self.p)[0]

    @property
    def fast_rate(self) -> float:
        """Fast unstable rate N - 2 - 4/(p-1)."""
        return origin_rates(self.N, self.p)[1]


def validate_params(N: int, p: float) -> Params:
    """Validate (N, p) strictly inside the admissible window and derive constants.

    Raises ValueError naming the violated endpoint (Serrin vs Sobolev).
    The inequalities are strict with no tolerance band: the theory
    degenerates exactly at the endpoints.  A c_p beyond floating-point range
    (from N = 206 at a quarter of the window) raises ValueError too.
    """
    if not float(N).is_integer():
        raise ValueError(f"dimension N={N} must be an integer")
    N = int(N)
    if N < 5:
        raise ValueError(f"dimension N={N} rejected: need N >= 5")
    lo, hi = serrin_exponent(N), sobolev_exponent(N)
    if not p > lo:
        raise ValueError(
            f"p={p} rejected: must exceed the Serrin endpoint N/(N-4) = {lo} (excluded)"
        )
    if not p < hi:
        raise ValueError(
            f"p={p} rejected: must be below the Sobolev endpoint (N+4)/(N-4) = {hi} (excluded)"
        )
    k = k_of(N, p)
    if not k > 0:
        raise ValueError(f"k(p,N)={k} not positive for N={N}, p={p}")
    alpha_w = (N - 4.0) * p - (N + 4.0)
    try:
        c_p = k ** (1.0 / (p - 1.0))
    except OverflowError:
        raise ValueError(f"N={N}, p={p} rejected: c_p = k^(1/(p-1)) = {k!r}^{1.0 / (p - 1.0)!r} "
                         "overflows floating-point range") from None
    return Params(
        N=N,
        p=float(p),
        alpha_w=alpha_w,
        k_const=k,
        c_p=c_p,
        A_p=p * k,
    )


@dataclass(frozen=True)
class EmdenCoeffs:
    """Coefficients of the autonomous Emden-Fowler equation.

    ubar'''' + K3 ubar''' + K2 ubar'' + K1 ubar' + K0 ubar = ubar^p,
    with K0 = k(p,N), K3 > 0 and K1 < 0 on the admissible window.
    """

    K0: float
    K1: float
    K2: float
    K3: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.K0, self.K1, self.K2, self.K3)


def emden_coeffs(params: Params) -> EmdenCoeffs:
    """K0..K3 as the elementary symmetric functions of the four origin rates.

    The characteristic polynomial is formed as the product of the unstable
    quadratic (mu - slow)(mu - fast) and the stable one (mu + m)(mu + m + 2);
    K0 is k(p,N) itself.
    """
    slow, fast, a, b = origin_rates(params.N, params.p)
    B, C = -(slow + fast), slow * fast
    D, E = -(a + b), a * b
    return EmdenCoeffs(K0=params.k_const, K1=B * E + C * D, K2=C + E + B * D, K3=B + D)


def origin_spectrum(coeffs: EmdenCoeffs) -> np.ndarray:
    """Rates at the origin ubar = 0: roots of the characteristic polynomial, numpy.roots order."""
    return np.roots([1.0, coeffs.K3, coeffs.K2, coeffs.K1, coeffs.K0])


def equilibrium_spectrum(coeffs: EmdenCoeffs, p: float) -> np.ndarray:
    """Rates of the Emden-Fowler linearization at the equilibrium ubar = c_p.

    Roots of lambda^4 + K3 lambda^3 + K2 lambda^2 + K1 lambda + (1-p) K0,
    in numpy.roots order: one unstable rate and three stable ones (a complex
    pair wherever the j=0 indicial pair is complex).
    """
    return np.roots([1.0, coeffs.K3, coeffs.K2, coeffs.K1, (1.0 - p) * coeffs.K0])


@dataclass(frozen=True)
class SpecialExponents:
    """Critical exponents of the constant family at fixed N.

    p0 and p1_pm are the stationary points of p -> A_p (p0 undefined for
    N in {5, 6}); k1_zero and p2_pm are the zeros of K1.  serrin/sobolev
    bound the admissible window.
    """

    N: int
    serrin: float
    sobolev: float
    p0: float | None
    p1_plus: float
    p1_minus: float
    k1_zero: float
    p2_plus: float
    p2_minus: float


def special_exponents(N: int) -> SpecialExponents:
    if N < 5:
        raise ValueError(f"dimension N={N} rejected: need N >= 5")
    s = math.sqrt(N * N + 4.0)
    p0 = (N + 2.0) / (N - 6.0) if N >= 7 else None
    p1p = (N + 4.0 + 2.0 * s) / (3.0 * N - 8.0)
    p1m = (N + 4.0 - 2.0 * s) / (3.0 * N - 8.0)
    t = math.sqrt(N * N - 4.0 * N + 8.0)
    p2p = (6.0 - N + 2.0 * t) / (N - 2.0)
    p2m = (6.0 - N - 2.0 * t) / (N - 2.0)
    return SpecialExponents(
        N=N,
        serrin=serrin_exponent(N),
        sobolev=sobolev_exponent(N),
        p0=p0,
        p1_plus=p1p,
        p1_minus=p1m,
        k1_zero=sobolev_exponent(N),
        p2_plus=p2p,
        p2_minus=p2m,
    )
