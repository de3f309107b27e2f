"""The composite Simpson rule against scipy's, on the grids of its call sites."""

import numpy as np
import pytest
from scipy.integrate import simpson as scipy_simpson

from biharmlab.radial import simpson

# the node sets the library and its checks integrate on: dissipation_check (8001 times),
# KelvinProfile.weak_residual (4001 radii), the Hardy-chain suite (3001 radii) and a
# log-spaced Hardy grid (200001 radii), plus uniform grids of 30001 and 2001 radii
GRIDS = {
    "dissipation": np.linspace(-17.9, 18.63, 8001),
    "weak_residual": np.linspace(0.5, 4.0, 4001),
    "hardy_suite": np.linspace(0.9 * 0.7, (0.7 + 2.1) * 1.1, 3001),
    "byparts": np.linspace(0.9, 2.2, 30001),
    "byparts_poly": np.linspace(0.5, 2.0, 2001),
    "hardy_log": np.exp(np.linspace(-0.2, 8.0 * np.log(10.0) + 0.2, 200001)),
    "three_nodes": np.array([0.0, 0.3, 1.0]),
}


@pytest.mark.parametrize("name", GRIDS)
def test_simpson_matches_scipy_bit_for_bit(name, rng):
    x = GRIDS[name]
    for y in (rng.standard_normal(x.size), np.exp(-x**2) * x**3, np.zeros_like(x)):
        assert simpson(y, x) == float(scipy_simpson(y, x=x))


def test_simpson_needs_an_odd_count():
    x = np.linspace(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="odd number"):
        simpson(x**2, x)
    with pytest.raises(ValueError):
        simpson(np.ones(5), np.linspace(0.0, 1.0, 7))
