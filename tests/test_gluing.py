"""Glued approximate solutions: exactness, FD cross-checks, norms, decay."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from biharmlab.core import validate_params
from biharmlab.cutoff import radial_cutoff, smoothstep4
from biharmlab.gluing import (ApproxSolution, CutoffSpec, ErrorField, GlueConfig, decay_fit,
                              default_gamma_w, remainder_Q, weighted_norm)


def _points_config(params, profile, eps, R=1.0, gamma_w=-3.5):
    return GlueConfig(params=params, profile=profile, cutoff=CutoffSpec(R),
                      gamma_w=gamma_w, eps=eps)


# ---------------------------------------------------------------------------
# cutoff
# ---------------------------------------------------------------------------

def test_cutoff_c4_matching():
    # value and four derivatives continuous at the seams r = 1, 2
    for r0 in (1.0, 2.0):
        for k in range(5):
            lo = radial_cutoff(np.array([r0 - 1e-12]), k)[0]
            hi = radial_cutoff(np.array([r0 + 1e-12]), k)[0]
            assert lo == pytest.approx(hi, abs=1e-7)
    r = np.linspace(-0.5, 3.0, 2001)
    chi = radial_cutoff(r)
    assert np.all((0.0 <= chi) & (chi <= 1.0))
    assert np.all(chi[r <= 1.0] == 1.0)
    assert np.all(chi[r >= 2.0] == 0.0)


def test_smoothstep_derivative_consistency():
    x = np.linspace(0.05, 0.95, 400)
    h = 1e-5
    for k in range(4):
        fd = (smoothstep4(x + h, k) - smoothstep4(x - h, k)) / (2.0 * h)
        assert_allclose(fd, smoothstep4(x, k + 1), rtol=1e-7, atol=1e-4)


# ---------------------------------------------------------------------------
# approximate solution and error field
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps", [2.0**-3, 2.0**-7])
def test_profile_derivs_match_chain_rule_derivs(profile10, chain_rule_derivs, eps):
    # u_eps^{(k)}(r) = eps^{-a-k} u^{(k)}(r/eps) on the cutoff's support (0, 2R)
    from biharmlab.gluing import _profile_derivs

    a = profile10.params.singular_rate
    r = np.geomspace(0.01, 2.0, 60)
    ref = chain_rule_derivs(profile10, r / eps)
    for k, got in enumerate(_profile_derivs(profile10, r, eps)):
        assert_allclose(got, eps ** (-a - k) * ref[k], rtol=1e-12, atol=0.0, err_msg=f"k={k}")


def test_exact_inside_and_zero_outside(params10, profile10, rng):
    cfg = _points_config(params10, profile10, 0.25)
    ef = ErrorField(cfg)
    ap = ApproxSolution(cfg)
    inside = rng.uniform(0.05, 0.99, 40)
    vals = ap.fields(inside)[0]
    f_in = ef.value(inside)
    # exact solution region: residual at profile-residual level
    assert np.max(np.abs(f_in) / (1.0 + vals**2)) <= 1e-7
    outside = rng.uniform(2.01, 3.5, 40)
    assert all(np.all(field == 0.0) for field in ap.fields(outside))
    assert np.all(ef.value(outside) == 0.0)
    annulus = rng.uniform(1.05, 1.95, 40)
    assert np.max(np.abs(ef.value(annulus))) > 0.0
    with pytest.raises(ValueError, match="singular point"):
        ap.fields(np.array([0.5, 0.0]))


def test_fd_cross_check(params10, profile10, rng):
    """The radial fields at |x| match centered 4th-order differences in Cartesian x."""
    eps = 0.25
    cfg = _points_config(params10, profile10, eps)
    ap = ApproxSolution(cfg)

    def at(x, field=0):
        return ap.fields(np.linalg.norm(x, axis=1))[field]

    pts = rng.standard_normal((100, 10))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= rng.uniform(0.35, 1.9, (100, 1))
    r = np.linalg.norm(pts, axis=1)
    val, du, lap, dlap, bilap = ap.fields(r)
    h = 3e-4  # tuned for eps = 0.25
    lap_fd = np.zeros(len(pts))
    for k in range(10):
        e = np.zeros(10)
        e[k] = h
        lap_fd += (-at(pts + 2 * e) + 16 * at(pts + e) - 30 * val
                   + 16 * at(pts - e) - at(pts - 2 * e)) / (12 * h * h)
    assert np.max(np.abs(lap_fd - lap) / (1.0 + np.abs(lap))) <= 1e-5
    bilap_fd = np.zeros(len(pts))
    for k in range(10):
        e = np.zeros(10)
        e[k] = h
        lp = [at(pts + m * e, 2) for m in (-2, -1, 1, 2)]
        bilap_fd += (-lp[3] + 16 * lp[2] - 30 * lap + 16 * lp[1] - lp[0]) / (12 * h * h)
    assert np.max(np.abs(bilap_fd - bilap) / (1.0 + np.abs(bilap))) <= 1e-5
    # radial derivatives of u and Delta u along x / |x|
    for field, deriv in ((0, du), (2, dlap)):
        rfd = (at(pts * (1 + 1e-6), field) - at(pts * (1 - 1e-6), field)) / (2e-6 * r)
        assert np.max(np.abs(deriv - rfd) / (1.0 + np.abs(deriv))) <= 1e-4, field


def test_scaling_covariance(params10, profile10, rng):
    """f for (eps, R) equals eps^{-4p/(p-1)} (f for (1, R/eps))(./eps), to 1e-12."""
    eps, R = 0.25, 1.0
    cfg = _points_config(params10, profile10, eps, R=R)
    cfg_ref = _points_config(params10, profile10, 1.0, R=R / eps)
    r = rng.uniform(0.2, 2.2 * R, 80)
    lhs = ErrorField(cfg).value(r)
    rhs = eps ** (-4.0 * 2.0 / (2.0 - 1.0)) * ErrorField(cfg_ref).value(r / eps)
    assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * np.max(np.abs(lhs)))


def test_config_validation(params10, profile10):
    with pytest.raises(ValueError, match="gamma_w"):
        _points_config(params10, profile10, 0.1, gamma_w=0.5)
    for eps in (1.5, 0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match=r"dilation eps=.* must lie in \(0, 1\]"):
            _points_config(params10, profile10, eps)


def test_weighted_norm_pure_power(params10, profile10):
    """Homogeneity: s^{-gamma} |w|_{0,0,s} constant across shells for w = |x|^gamma."""
    cfg = _points_config(params10, profile10, 0.25)
    gamma = -3.5

    def w(r):
        return r**gamma

    rep = weighted_norm(w, cfg, gamma, n_shells=8)
    assert len(rep.shells) == 8
    weighted = np.array([row[2] for row in rep.shells])
    assert float(np.max(weighted) / np.min(weighted)) <= 1.0 + 1e-10
    # sup over a larger shell family never decreases the total
    rep_more = weighted_norm(w, cfg, gamma, n_shells=12)
    assert rep_more.total >= rep.total - 1e-12


def test_decay_fit_reproducible_across_ranges(params10, profile10):
    lo = decay_fit(params10, profile10, [2.0**-k for k in range(3, 6)], -3.5)
    hi = decay_fit(params10, profile10, [2.0**-k for k in range(5, 8)], -3.5)
    assert abs(lo.slope - hi.slope) <= 0.15


# decay_fit over eps = 2^-3..2^-7 at the default weight, as computed by the Cartesian
# sampler (6 radii x 16 random directions per shell) that the radial one replaced;
# p = 8 and 1.625 sit at window fractions 0.75 and 0.25.  The (5, 8.0) values come
# from a profile solved at collocation tolerance 1e-13 (62 147 nodes): the sampler's
# carried the fourth-order mesh's own error there, 1.1e-11 relative
FROZEN_DECAY = {
    (10, 2.0): ([314.23643588761973, 78.56732058752031, 19.642409392439852,
                 4.9106427244354975, 1.227663464230682], 1.9999528649230813),
    (5, 8.0): ([5101.898609471426, 3791.9194515527383, 2817.615126439566,
                 2093.5229171844976, 1555.4895447447218], 0.4284326668930914),
    (12, 1.625): ([1207.8957693385325, 398.73294580679783, 131.57850159233288,
                  43.41226903133952, 14.32196384633259], 1.5995493734984207),
}


@pytest.mark.parametrize("N, p", FROZEN_DECAY, ids=lambda v: str(v))
def test_decay_fit_matches_frozen_norms(profile10, N, p):
    from biharmlab.delaunay import solve_singular

    params = validate_params(N, p)
    profile = profile10 if N == 10 else solve_singular(params, beta=1.0, tol=1e-4)
    fit = decay_fit(params, profile, [2.0**-k for k in range(3, 8)], default_gamma_w(params))
    norms, slope = FROZEN_DECAY[N, p]
    assert_allclose(fit.norms, norms, rtol=1e-12, atol=0.0)
    assert_allclose(fit.slope, slope, rtol=1e-12, atol=0.0)


def test_decay_fit_needs_multiple_eps(params10, profile10):
    for eps_list in ([0.125], [0.1, 0.1]):
        with pytest.raises(ValueError, match="two distinct dilations"):
            decay_fit(params10, profile10, eps_list, -3.5)


def _scale_fourth_derivative(monkeypatch, gluing):
    # the fourth derivative of u_eps times (1 + 1e-3) leaves an error 1e-3 u_eps^(4)
    # where chi = 1; on the shells where u_eps is near c_p r^-a it does not decay with eps
    derivs = gluing._profile_derivs

    def scaled(*args):
        *low, d4 = derivs(*args)
        return (*low, (1.0 + 1e-3) * d4)

    monkeypatch.setattr(gluing, "_profile_derivs", scaled)


def _linear_remainder(monkeypatch, gluing):
    # a term linear in v breaks the quadratic Taylor bound at small v
    remainder = gluing.remainder_Q
    monkeypatch.setattr(gluing, "remainder_Q", lambda ub, v, p: remainder(ub, v, p) + 1e-3 * v)


@pytest.mark.parametrize("plant, failing", [
    (None, None),
    (_scale_fourth_derivative, "glue.points_decay"),
    (_linear_remainder, "glue.remainder_taylor"),
], ids=["unpatched", "fourth-derivative", "linear-remainder"])
def test_planted_defects_fail_their_check(params10, profile10, monkeypatch, plant, failing):
    from biharmlab import gluing
    from biharmlab.verify import suite_glue

    assert gluing.nominal_decay_exponent(params10) == 2.0
    if plant is not None:
        plant(monkeypatch, gluing)
    ok = {c["name"]: c["ok"] for c in suite_glue(10, 2.0, profile10)}
    assert sorted(ok) == ["glue.points_decay", "glue.remainder_taylor"]
    for name in ok:
        assert ok[name] == (name != failing), name


def test_remainder_q():
    ub = np.array([2.0, 1.0, 0.5])
    assert_allclose(remainder_Q(ub, np.zeros(3), 2.0), 0.0, atol=0.0)
    v = np.array([0.3, -0.05, 0.1])
    assert_allclose(remainder_Q(ub, v, 2.0), -(v**2), rtol=1e-12, atol=1e-16)
    with pytest.raises(ValueError):
        remainder_Q(np.array([1.0]), np.array([-2.0]), 2.0)


def test_remainder_taylor_bound(rng):
    """|Q(v)| <= p(p-1) 1.1^{|p-2|} ubar^{p-2} v^2 for |v| <= ubar/10."""
    for p in (1.6, 2.0, 2.2):
        ub = rng.uniform(0.2, 3.0, 500)
        v = ub * rng.uniform(-0.1, 0.1, 500)
        Q = remainder_Q(ub, v, p)
        bound = p * (p - 1.0) * 1.1 ** abs(p - 2.0) * ub ** (p - 2.0) * v**2
        assert np.all(np.abs(Q) <= bound + 1e-14)
