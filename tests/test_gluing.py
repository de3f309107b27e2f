"""Glued approximate solutions: exactness, FD cross-checks, norms, decay."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from biharmlab.cutoff import CUTOFF_DERIV_BOUNDS, radial_cutoff, smoothstep4
from biharmlab.gluing import (ApproxSolution, CutoffSpec, ErrorField, GlueConfig, decay_fit,
                              remainder_Q, weighted_norm)


def _points_config(params, profile, eps, centers=None, R=1.0, gamma_w=-3.5, L=4.0):
    centers = np.zeros((1, params.N)) if centers is None else np.asarray(centers)
    eps = np.atleast_1d(eps)
    return GlueConfig(params=params, profile=profile, cutoff=CutoffSpec(R),
                      gamma_w=gamma_w, centers=centers, eps=eps, box_halfwidth=L)


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
    assert len(CUTOFF_DERIV_BOUNDS) == 5 and all(np.isfinite(b) for b in CUTOFF_DERIV_BOUNDS)


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
    dirs = rng.standard_normal((40, 10))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    inside = dirs * rng.uniform(0.05, 0.99, (40, 1))
    vals = ap.value(inside)
    f_in = ef.value(inside)
    # exact solution region: residual at profile-residual level
    assert np.max(np.abs(f_in) / (1.0 + vals**2)) <= 1e-7
    outside = dirs * rng.uniform(2.01, 3.5, (40, 1))
    assert np.all(ap.value(outside) == 0.0)
    assert np.all(ef.value(outside) == 0.0)
    annulus = dirs * rng.uniform(1.05, 1.95, (40, 1))
    assert np.max(np.abs(ef.value(annulus))) > 0.0


def test_fd_cross_check(params10, profile10, rng):
    """Analytic Delta and Delta^2 match centered 4th-order differences."""
    eps = 0.25
    cfg = _points_config(params10, profile10, eps)
    ap = ApproxSolution(cfg)
    pts = rng.standard_normal((100, 10))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= rng.uniform(0.35, 1.9, (100, 1))
    val, grad, lap, glap, bilap = ap.fields(pts)
    h = 3e-4  # tuned for eps = 0.25
    lap_fd = np.zeros(len(pts))
    for k in range(10):
        e = np.zeros(10)
        e[k] = h
        lap_fd += (-ap.value(pts + 2 * e) + 16 * ap.value(pts + e) - 30 * val
                   + 16 * ap.value(pts - e) - ap.value(pts - 2 * e)) / (12 * h * h)
    assert np.max(np.abs(lap_fd - lap) / (1.0 + np.abs(lap))) <= 1e-5
    bilap_fd = np.zeros(len(pts))
    for k in range(10):
        e = np.zeros(10)
        e[k] = h
        lp = [ap.fields(pts + m * e)[2] for m in (-2, -1, 1, 2)]
        bilap_fd += (-lp[3] + 16 * lp[2] - 30 * lap + 16 * lp[1] - lp[0]) / (12 * h * h)
    assert np.max(np.abs(bilap_fd - bilap) / (1.0 + np.abs(bilap))) <= 1e-5
    # gradient directions
    gdot = np.einsum("ij,ij->i", grad, pts / np.linalg.norm(pts, axis=1, keepdims=True))
    vfd = (ap.value(pts * (1 + 1e-6)) - ap.value(pts * (1 - 1e-6)))
    rfd = vfd / (2e-6 * np.linalg.norm(pts, axis=1))
    assert np.max(np.abs(gdot - rfd) / (1.0 + np.abs(gdot))) <= 1e-4


def test_superposition_two_points(params10, profile10):
    centers = np.zeros((2, 10))
    centers[0, 0] = -2.0
    centers[1, 0] = 2.01
    cfg2 = _points_config(params10, profile10, [0.25, 0.125], centers=centers, L=4.5)
    cfg_a = _points_config(params10, profile10, 0.25, centers=centers[:1], L=4.5)
    cfg_b = _points_config(params10, profile10, 0.125, centers=centers[1:], L=4.5)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-4.4, 4.4, (300, 10))
    f2 = ErrorField(cfg2).value(pts)
    fa = ErrorField(cfg_a).value(pts)
    fb = ErrorField(cfg_b).value(pts)
    # disjoint supports: the cross-term in ubar^p vanishes identically
    assert_allclose(f2, fa + fb, rtol=1e-12, atol=1e-12)


def test_scaling_covariance(params10, profile10, rng):
    """f for (eps, R) equals eps^{-4p/(p-1)} (f for (1, R/eps))(./eps), to 1e-12."""
    eps, R = 0.25, 1.0
    cfg = _points_config(params10, profile10, eps, R=R)
    cfg_ref = _points_config(params10, profile10, 1.0, R=R / eps, L=2.0 * R / eps + 1.0)
    pts = rng.standard_normal((80, 10))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= rng.uniform(0.2, 2.2 * R, (80, 1))
    lhs = ErrorField(cfg).value(pts)
    rhs = eps ** (-4.0 * 2.0 / (2.0 - 1.0)) * ErrorField(cfg_ref).value(pts / eps)
    assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * np.max(np.abs(lhs)))


def test_config_validation(params10, profile10):
    with pytest.raises(ValueError, match="overlap"):
        centers = np.zeros((2, 10))
        centers[1, 0] = 3.0
        _points_config(params10, profile10, [0.1, 0.1], centers=centers, L=8.0)
    with pytest.raises(ValueError, match="box"):
        _points_config(params10, profile10, 0.1, L=1.5)
    with pytest.raises(ValueError, match="gamma_w"):
        _points_config(params10, profile10, 0.1, gamma_w=0.5)
    with pytest.raises(ValueError, match="dilation"):
        _points_config(params10, profile10, 1.5)


def test_weighted_norm_pure_power(params10, profile10):
    """Homogeneity: s^{-gamma} |w|_{0,0,s} constant across shells for w = |x|^gamma."""
    cfg = _points_config(params10, profile10, 0.25)
    gamma = -3.5

    def w(pts):
        return np.linalg.norm(pts, axis=1) ** gamma

    rep = weighted_norm(w, cfg, gamma, n_shells=8, seed=3)
    weighted = np.array([row[3] for row in rep.shells])
    assert float(np.max(weighted) / np.min(weighted)) <= 1.0 + 1e-10
    # sup over a larger shell family never decreases the total
    rep_more = weighted_norm(w, cfg, gamma, n_shells=12, seed=3)
    assert rep_more.total >= rep.total - 1e-12


def test_weighted_norm_holder_quotient(params10, profile10):
    cfg = _points_config(params10, profile10, 0.25)
    ef = ErrorField(cfg)
    rep = weighted_norm(ef.value, cfg, -7.5, alpha_h=0.4, seed=1)
    assert rep.total > rep.outer >= 0.0
    assert all(row[2] >= 0.0 for row in rep.shells)
    assert len(rep.shells) == 10


def test_decay_fit_reproducible_across_ranges(params10, profile10):
    lo = decay_fit(params10, profile10, [2.0**-k for k in range(3, 6)], -3.5, seed=0)
    hi = decay_fit(params10, profile10, [2.0**-k for k in range(5, 8)], -3.5, seed=0)
    assert abs(lo.slope - hi.slope) <= 0.15


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
