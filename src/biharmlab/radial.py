"""Radial differential operators in dimension N from one-dimensional derivatives.

For a radial function f(|x|) on R^N:

    Delta f       = f'' + (N-1)/r f'
    (Delta f)'    = f''' + (N-1)(f''/r - f'/r^2)
    Delta^2 f     = f'''' + 2(N-1)/r f''' + (N-1)(N-3)(f''/r^2 - f'/r^3)

plus the composite Simpson rule that radial integrals are taken with, and
the banded LAPACK solve of the collocation's and the blow-up's Newton steps.
"""

from __future__ import annotations

import numpy as np

__all__ = ["lap_radial", "dlap_radial", "bilap_radial", "simpson"]


def lap_radial(N: int, r, d1, d2):
    return d2 + (N - 1.0) * d1 / r


def dlap_radial(N: int, r, d1, d2, d3):
    return d3 + (N - 1.0) * (d2 / r - d1 / r**2)


def bilap_radial(N: int, r, d1, d2, d3, d4):
    return d4 + 2.0 * (N - 1.0) * d3 / r + (N - 1.0) * (N - 3.0) * (d2 / r**2 - d1 / r**3)


def simpson(y, x) -> float:
    """Composite Simpson integral of samples y at distinct nodes x, an odd number of them.

    Each panel [x_2i, x_2i+2] integrates the parabola through its three
    samples; the arithmetic is scipy.integrate.simpson's for an odd count,
    term for term.
    """
    y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
    if y.ndim != 1 or y.shape != x.shape or y.size % 2 == 0:
        raise ValueError(f"simpson needs an odd number of samples at as many nodes, "
                         f"got {y.shape} and {x.shape}")
    h = np.diff(x)
    h0, h1 = h[:-1:2], h[1::2]
    hsum = h0 + h1
    h0divh1 = h0 / h1
    return float(np.sum(hsum / 6.0 * (y[:-2:2] * (2.0 - 1.0 / h0divh1)
                                      + y[1::2] * (hsum * (hsum / (h0 * h1)))
                                      + y[2::2] * (2.0 - h0divh1))))


def band_solver(ab, kl: int, ku: int):
    """Factor a banded A once (LAPACK dgbtrf) and return b -> x solving A x = b (dgbtrs).

    ab is dgbtrf's band storage, A[i, j] at ab[kl + ku + i - j, j] below kl
    rows of fill-in space, overwritten if Fortran-ordered.  Raises
    np.linalg.LinAlgError on a zero pivot.  scipy loads at the first call.
    """
    from scipy.linalg.lapack import dgbtrf, dgbtrs

    lu, piv, info = dgbtrf(ab, kl, ku, overwrite_ab=1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return lambda b: dgbtrs(lu, kl, ku, b, piv)[0]
