"""Indicial roots of the linearized operator L1 = Delta^2 - p u1^{p-1}.

On the j-th spherical-harmonic mode (lambda_j = j(j+N-2)) the indicial
equation at the origin is

    Q_j(gamma) - A_p = 0,
    Q_j(g) = [g(g-1) + (N-1)g - lambda_j] * [(g-2)(g-3) + (N-1)(g-2) - lambda_j],

with A_p = p*k(p,N); at infinity the potential vanishes and the same
equation holds with A = 0.  The four branches have the closed form

    gamma_j = (1/2) [4-N +- sqrt((N-2)^2 + 4 + 4 lambda_j +- 4 sqrt((N-2)^2 + 4 lambda_j + A))],

evaluated with complex square roots; the minus outer branch routinely
produces a conjugate pair with real part (4-N)/2.  The admissible weight
window (mu, nu) with mu + nu = 4 - N sits strictly between the branch
thresholds of the j = 0 roots.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

from .core import Params

__all__ = [
    "IndicialData",
    "WeightWindow",
    "OrderingReport",
    "sphere_eigenvalue",
    "indicial_polynomial",
    "indicial_roots_for",
    "indicial_roots",
    "verify_ordering",
    "weight_window",
]

# Branch labels in the fixed output order of root tuples.
BRANCHES = ("++", "+-", "-+", "--")


def sphere_eigenvalue(j: int, N: int) -> float:
    """Eigenvalue lambda_j = j(j+N-2) of -Delta on S^{N-1} (degree-indexed)."""
    if j < 0:
        raise ValueError(f"mode index j={j} must be >= 0")
    if N < 2:
        raise ValueError(f"sphere dimension parameter N={N} must be >= 2")
    return float(j * (j + N - 2))


def indicial_polynomial(N: int, lambda_j: float, gamma: complex, A: float = 0.0) -> complex:
    """Q_j(gamma) - A, the indicial polynomial of the mode operator."""
    g = gamma
    f1 = g * (g - 1.0) + (N - 1.0) * g - lambda_j
    f2 = (g - 2.0) * (g - 3.0) + (N - 1.0) * (g - 2.0) - lambda_j
    return f1 * f2 - A


def indicial_roots_for(N: int, lambda_j: float, A: float) -> tuple[complex, complex, complex, complex]:
    """The four branches (++, +-, -+, --) of the closed-form root display.

    Complex square roots use the principal branch; when the outer radicand
    of a minus branch is negative the corresponding pair is returned as an
    exact conjugate pair with real part (4-N)/2.
    """
    inner = cmath.sqrt(complex((N - 2.0) ** 2 + 4.0 * lambda_j + A))
    base = (N - 2.0) ** 2 + 4.0 + 4.0 * lambda_j
    roots = {}
    for s_in, tag in ((+1.0, "+"), (-1.0, "-")):
        rad = base + 4.0 * s_in * inner
        outer = cmath.sqrt(rad)
        gp = 0.5 * (4.0 - N + outer)
        gm = 0.5 * (4.0 - N - outer)
        if rad.real < 0.0 and abs(rad.imag) <= 1e-14 * (1.0 + abs(rad.real)):
            # exact conjugate pairing on the critical line
            gp = complex(0.5 * (4.0 - N), 0.5 * abs(outer.imag))
            gm = gp.conjugate()
        roots["+" + tag] = gp
        roots["-" + tag] = gm
    return tuple(roots[b] for b in BRANCHES)


@dataclass(frozen=True)
class IndicialData:
    """Per-mode eigenvalue and the four indicial roots at 0 and at infinity."""

    j: int
    lambda_j: float
    roots_at_zero: tuple[complex, complex, complex, complex]
    roots_at_infinity: tuple[complex, complex, complex, complex]

    def root(self, branch: str, at: str = "zero") -> complex:
        roots = self.roots_at_zero if at == "zero" else self.roots_at_infinity
        return roots[BRANCHES.index(branch)]

    def residuals(self, N: int, A_p: float) -> tuple[float, ...]:
        """Scaled indicial-polynomial residuals |Q_j(g)-A| / (1+|g|^4) of all 8 roots."""
        out = []
        for g in self.roots_at_zero:
            out.append(abs(indicial_polynomial(N, self.lambda_j, g, A_p)) / (1.0 + abs(g) ** 4))
        for g in self.roots_at_infinity:
            out.append(abs(indicial_polynomial(N, self.lambda_j, g, 0.0)) / (1.0 + abs(g) ** 4))
        return tuple(out)


def indicial_roots(params: Params, j: int) -> IndicialData:
    """Indicial data of mode j: roots at zero with A = A_p, at infinity with A = 0.

    The at-infinity family is the A = 0 one, matching the vanishing of
    r^4 u1^{p-1} at infinity.
    """
    lam = sphere_eigenvalue(j, params.N)
    at_zero = indicial_roots_for(params.N, lam, params.A_p)
    at_inf = indicial_roots_for(params.N, lam, 0.0)
    return IndicialData(j=j, lambda_j=lam, roots_at_zero=at_zero, roots_at_infinity=at_inf)


@dataclass
class OrderingReport:
    """Boolean verdict per clause of the root-ordering chains."""

    clauses: dict[str, bool] = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return all(self.clauses.values())

    def failures(self) -> list[str]:
        return [k for k, v in self.clauses.items() if not v]


def verify_ordering(params: Params, j_max: int | None = None) -> OrderingReport:
    """Check the ordering chains of the indicial roots at 0 and at infinity.

    Failures are reported, never raised.  j_max defaults to 2N, past the
    j = N+1 split of the injectivity argument.
    """
    N, p = params.N, params.p
    if j_max is None:
        j_max = 2 * N
    d0 = indicial_roots(params, 0)
    gpp, gpm, gmp, gmm = d0.roots_at_zero
    m4 = -4.0 / (p - 1.0)
    rep = OrderingReport()
    c = rep.clauses
    c["gamma0_-+ < 4-N"] = gmp.real < 4.0 - N
    c["4-N < -4/(p-1)"] = 4.0 - N < m4
    c["-4/(p-1) < Re gamma0_--"] = m4 < gmm.real
    c["Re gamma0_-- <= (4-N)/2"] = gmm.real <= (4.0 - N) / 2.0 + 1e-14 * N
    c["(4-N)/2 <= Re gamma0_+-"] = (4.0 - N) / 2.0 <= gpm.real + 1e-14 * N
    c["Re gamma0_+- < 0"] = gpm.real < 0.0
    c["gamma0_++ > 2"] = gpp.real > 2.0 and abs(gpp.imag) == 0.0
    for j in range(1, j_max + 1):
        dj = indicial_roots(params, j)
        jpp, jpm, jmp, jmm = dj.roots_at_zero
        c[f"j={j}: Re gamma_-pm < -4/(p-1)"] = max(jmp.real, jmm.real) < m4
        c[f"j={j}: Re gamma0_+- < Re gamma_+pm"] = gpm.real < min(jpp.real, jpm.real)
        tpp, tpm, tmp_, tmm = dj.roots_at_infinity
        c[f"j={j}: tilde gamma_+pm >= 1"] = min(tpp.real, tpm.real) >= 1.0 - 1e-12
        c[f"j={j}: tilde gamma_-pm < 4-N"] = max(tmp_.real, tmm.real) < 4.0 - N
    return rep


class DegenerateWindowError(ValueError):
    """Raised when the admissible weight window is empty."""


@dataclass(frozen=True)
class WeightWindow:
    """Admissible weights: nu in (nu_lo, nu_hi), mu = 4-N-nu with mu > mu_lo.

    nu_lo = -4/(p-1), nu_hi = Re(gamma0_--), mu_lo = Re(gamma0_+-); the
    default selection takes nu at the window midpoint.
    """

    nu_lo: float
    nu_hi: float
    mu_lo: float
    nu: float
    mu: float


def weight_window(params: Params) -> WeightWindow:
    d0 = indicial_roots(params, 0)
    gpp, gpm, gmp, gmm = d0.roots_at_zero
    nu_lo = -4.0 / (params.p - 1.0)
    nu_hi = gmm.real
    mu_lo = gpm.real
    if not nu_lo < nu_hi:
        raise DegenerateWindowError(
            f"empty weight window: nu_lo={nu_lo} >= nu_hi={nu_hi} for N={params.N}, p={params.p}"
        )
    nu = 0.5 * (nu_lo + nu_hi)
    mu = 4.0 - params.N - nu
    if not mu > mu_lo:
        raise DegenerateWindowError(
            f"midpoint rule violates mu > mu_lo: mu={mu}, mu_lo={mu_lo}"
        )
    return WeightWindow(nu_lo=nu_lo, nu_hi=nu_hi, mu_lo=mu_lo, nu=nu, mu=mu)

