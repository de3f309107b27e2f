"""Fourier symbol of the order-2*gamma conformal operator on the cylinder.

On R x S^{N-1} (and identically, through the Fourier-Helgason transform,
on S^{N-1} x H^{k+1}) the mode-j symbol is

    Theta_gamma^j(xi) = 2^{2 gamma} |Gamma(1/2 + gamma/2 + S/2 + i xi/2)|^2
                                  / |Gamma(1/2 - gamma/2 + S/2 + i xi/2)|^2,

with S = sqrt((N-2)^2 + 4 lambda_j).  For gamma = 2 the symbol coincides
with the pure-bilaplacian indicial polynomial evaluated on the critical
line, Theta_2^j(xi) = Q_j((4-N)/2 + i xi), which is the identity checked by
`symbol_indicial_identity`.

Moduli of Gamma values grow/decay exponentially in xi, so |Gamma|^2 is
evaluated as exp(2 Re log Gamma) throughout.
"""

from __future__ import annotations

import numpy as np

from .indicial import indicial_polynomial, sphere_eigenvalue

__all__ = [
    "complex_log_gamma",
    "theta_cylinder",
    "symbol_indicial_identity",
]

# log Gamma is moved by its recurrence to Re z >= STIRLING_FROM, where Stirling's
# series with the terms B_2k / (2k (2k-1) z^(2k-1)), k = 1..8, is summed
STIRLING_FROM = 16.0
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)
_HALF_LOG_2PI = np.longdouble("0.91893853320467274178032973640562")


class GammaPoleError(ValueError):
    """log Gamma evaluated at a nonpositive integer."""


def complex_log_gamma(z: complex | np.ndarray) -> complex | np.ndarray:
    """Principal-branch log Gamma(z).

    Rejects nonpositive integers (poles).  The upward recurrence
    log Gamma(z) = log Gamma(z + n) - log prod_{k<n} (z + k) brings Re z to
    STIRLING_FROM or past it, where Stirling's series is summed
    (Abramowitz & Stegun 6.1.40-41).  Both terms are near log Gamma(16) = 27.9
    where log Gamma(z) is near 0, so they are formed in np.longdouble, the
    x87 80-bit format on x86-64.  Against 30-digit mpmath.loggamma, Re log
    Gamma is then within 8.9e-16 absolute on the arguments the symbol suite
    evaluates (N = 5..14, j <= 10, |xi| <= 12, gamma in {1, 1.5, 2}); in
    double precision the same steps reach 1.1e-14.  The imaginary part sums
    the factors' arguments, which keeps the branch.
    """
    arr = np.asarray(z, dtype=complex)
    on_axis = (arr.imag == 0.0) & (arr.real <= 0.0) & (arr.real == np.round(arr.real))
    if np.any(on_axis):
        raise GammaPoleError(f"log Gamma pole at nonpositive integer z={arr[on_axis].flat[0]}")
    n = np.ceil(np.maximum(STIRLING_FROM - arr.real, 0.0))
    k = np.arange(n.max(initial=0.0))
    zk = arr.astype(np.clongdouble)[..., None] + k  # the factors z + k, padded with ones
    zk[k >= n[..., None]] = 1.0
    w = arr.astype(np.clongdouble) + n
    inv2 = 1.0 / (w * w)
    series = np.zeros_like(w)
    for c in reversed(_STIRLING):
        series = series * inv2 + c
    out = (w - 0.5) * np.log(w) - w + _HALF_LOG_2PI + series / w - np.log(np.abs(zk.prod(axis=-1)))
    arg = np.arctan2(zk.imag.astype(float), zk.real.astype(float)).sum(axis=-1)
    out = out.real.astype(float) + 1j * (out.imag.astype(float) - arg)
    if np.isscalar(z) or np.ndim(z) == 0:
        return complex(out)
    return out


def _theta_values(N: int, gamma: float, j: int, xi: np.ndarray) -> np.ndarray:
    lam = sphere_eigenvalue(j, N)
    half_s = 0.5 * np.sqrt((N / 2.0 - 1.0) ** 2 + lam)
    zp = 0.5 + 0.5 * gamma + half_s + 0.5j * xi
    zm = 0.5 - 0.5 * gamma + half_s + 0.5j * xi
    lg_p, lg_m = np.real(complex_log_gamma(np.stack([zp, zm])))
    log_ratio = 2.0 * (lg_p - lg_m)
    return 2.0 ** (2.0 * gamma) * np.exp(log_ratio)


def theta_cylinder(N: int, gamma: float, j: int, xi) -> np.ndarray:
    """Theta_gamma^j(xi), gamma in (0, N/2), mode j >= 0; vectorized, even and positive in xi."""
    if not 0.0 < gamma < N / 2.0:
        raise ValueError(f"gamma={gamma} outside (0, N/2) for N={N}")
    if j < 0:
        raise ValueError(f"mode j={j} must be >= 0")
    return _theta_values(N, gamma, j, np.asarray(xi, dtype=float))


def symbol_indicial_identity(N: int, j: int, xi) -> np.ndarray:
    """Relative residual of Theta_{gamma=2}^j(xi) = Q_j((4-N)/2 + i xi).

    Q_j is the pure-Delta^2 indicial polynomial (A = 0); on the critical
    line its two factors are complex conjugates, so the right side is real
    and positive.
    """
    xi = np.asarray(xi, dtype=float)
    lam = sphere_eigenvalue(j, N)
    th = _theta_values(N, 2.0, j, xi)
    Q = np.real(indicial_polynomial(N, lam, (4.0 - N) / 2.0 + 1j * xi, 0.0))
    return np.abs(th - Q) / (1.0 + np.abs(Q))
