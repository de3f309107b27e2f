"""Fixed C^4 polynomial cutoffs with closed-form derivatives.

The transition profile is the degree-9 smoothstep

    s4(x) = 126 x^5 - 420 x^6 + 540 x^7 - 315 x^8 + 70 x^9,

which rises from 0 to 1 on [0,1] with four vanishing derivatives at both
ends, so every cutoff built from it is exactly C^4 with polynomial pieces.
All error terms of the gluing construction are therefore closed-form; no
finite differences enter.
"""

from __future__ import annotations

import numpy as np

__all__ = ["smoothstep4", "radial_cutoff", "annulus_bump"]

# s4 coefficients, ascending powers x^5..x^9
_S4 = np.array([126.0, -420.0, 540.0, -315.0, 70.0])


def smoothstep4(x, order: int = 0):
    """The C^4 smoothstep s4 (order=0) or its k-th derivative, clamped outside [0,1]."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside]
    acc = np.zeros_like(xi)
    for k, c in enumerate(_S4):
        deg = 5 + k
        if deg - order < 0:
            continue
        fall = 1.0
        for m in range(order):
            fall *= deg - m
        acc += c * fall * xi ** (deg - order)
    out[inside] = acc
    if order == 0:
        out[x >= 1.0] = 1.0
    return out


def radial_cutoff(r, order: int = 0):
    """chi(r): 1 on [0,1], 0 on [2,inf), C^4 transition s4(2-r) in between."""
    r = np.asarray(r, dtype=float)
    if order == 0:
        return smoothstep4(2.0 - r, 0)
    return (-1.0) ** order * smoothstep4(2.0 - r, order)


def annulus_bump(r, r_lo: float, r_hi: float, order: int = 0):
    """C^4 bump equal to 1 on the middle half of [r_lo, r_hi], 0 outside.

    Rises on [r_lo, r_lo + w] and falls on [r_hi - w, r_hi] with
    w = (r_hi - r_lo)/4; used as a compactly supported radial test function.
    """
    if not r_hi > r_lo > 0.0:
        raise ValueError(f"need 0 < r_lo < r_hi, got ({r_lo}, {r_hi})")
    r = np.asarray(r, dtype=float)
    w = 0.25 * (r_hi - r_lo)
    up = smoothstep4((r - r_lo) / w, order) / w**order
    down = smoothstep4((r_hi - r) / w, order) / w**order * (-1.0) ** order
    # the two transitions have disjoint support, so no product rule is needed
    return np.where(r <= 0.5 * (r_lo + r_hi), up, down)

