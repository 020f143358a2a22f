"""Cylindrical stationary model: matching, eigenvalues, wall ladder."""

import numpy as np
import pytest

import absqm.aharonov_bohm as ab
from absqm.aharonov_bohm import (
    ABConfig,
    _brent,
    solve_radial,
    u_theta_profile,
    wall_sweep,
)
from absqm.cli import DEFAULTS
from absqm.errors import BranchNotFoundError, ConvergenceError, DomainError
from absqm.numerics import bessel, bessel_derivative
from scipy.optimize import brentq


BASE = ABConfig(b=1.0, B0=0.5, C1=0.3, phi0=10.0, r_out=5.0, n_r=2048)


@pytest.fixture(scope="module")
def sol():
    return solve_radial(BASE)


def exterior_R(s, r):
    return s.C5 * bessel("J", s.nu, s.lam * r) + s.C6 * bessel("Y", s.nu, s.lam * r)


def exterior_dR(s, r):
    return s.lam * (
        s.C5 * bessel_derivative("J", s.nu, s.lam * r)
        + s.C6 * bessel_derivative("Y", s.nu, s.lam * r)
    )


def test_config_validation():
    with pytest.raises(ValueError):
        ABConfig(b=-1.0)
    with pytest.raises(ValueError):
        ABConfig(b=2.0, r_out=5.0)
    with pytest.raises(ValueError):
        ABConfig(b=1.0, phi0=-1.0)
    with pytest.raises(ValueError):
        ABConfig(b=1.0, n_r=8)
    assert ABConfig(b=1.0, B0=0.5, C1=0.3).c2 == pytest.approx(0.55)


def test_u_theta_piecewise():
    cfg = BASE
    r_in, r_out = 0.5, 2.0
    assert u_theta_profile(cfg, r_in) == pytest.approx(
        0.5 * cfg.B0 * r_in + cfg.C1 / r_in
    )
    assert u_theta_profile(cfg, r_out) == pytest.approx(cfg.c2 / r_out)
    # continuous at the wall
    eps = 1e-12
    assert u_theta_profile(cfg, cfg.b - eps) == pytest.approx(
        u_theta_profile(cfg, cfg.b + eps), rel=1e-9
    )
    with pytest.raises(DomainError):
        u_theta_profile(cfg, 0.0)
    with pytest.raises(DomainError):
        u_theta_profile(cfg, np.array([1.0, -0.5]))


def test_eigenvalue_regression(sol):
    # frozen solver outputs for the base configuration
    assert sol.E == pytest.approx(0.2805001266809242, rel=1e-10)
    assert solve_radial(BASE, branch=1).E == pytest.approx(
        1.1093472446273656, rel=1e-10
    )
    assert sol.E < 1.1093472446273656


def test_amplitude_continuity_at_wall(sol):
    b = BASE.b
    inner = float(sol.interior_amplitude(b))
    outer = exterior_R(sol, b)
    scale = float(np.max(np.abs(sol.R)))
    assert abs(inner - outer) <= 1e-8 * scale


def test_derivative_continuity_at_wall(sol):
    b, h = BASE.b, 1e-6
    d_in = float(
        sol.interior_amplitude(b) - sol.interior_amplitude(b - h)
    ) / h
    d_out = exterior_dR(sol, b)
    assert d_in == pytest.approx(d_out, rel=1e-4)


def test_outer_box_condition(sol):
    scale = float(np.max(np.abs(sol.R)))
    assert abs(exterior_R(sol, BASE.r_out)) <= 1e-10 * scale


def test_exterior_radial_ode(sol):
    """R'' + R'/r + (lam^2 - nu^2/r^2) R = 0 on (b, r_out)."""
    h = 1e-5
    scale = float(np.max(np.abs(sol.R)))
    for r in (1.5, 2.5, 4.0):
        f = exterior_R(sol, r)
        fp = exterior_dR(sol, r)
        fpp = (exterior_dR(sol, r + h) - exterior_dR(sol, r - h)) / (2.0 * h)
        res = fpp + fp / r + (sol.lam**2 - sol.nu**2 / r**2) * f
        assert abs(res) <= 1e-7 * scale * max(sol.lam**2, 1.0)


def test_interior_radial_ode(sol):
    """R'' + R'/r - (kappa^2 + mu^2/r^2) R = 0 on (0, b)."""
    h = 1e-6
    scale = float(np.max(np.abs(sol.R)))
    for r in (0.4, 0.7, 0.95):
        f = float(sol.interior_amplitude(r))
        fp = float(
            sol.interior_amplitude(r + h) - sol.interior_amplitude(r - h)
        ) / (2.0 * h)
        fpp = float(
            sol.interior_amplitude(r + h)
            - 2.0 * sol.interior_amplitude(r)
            + sol.interior_amplitude(r - h)
        ) / h**2
        res = fpp + fp / r - (sol.kappa**2 + sol.mu**2 / r**2) * f
        assert abs(res) <= 1e-3 * scale * sol.kappa**2


def test_normalization_and_interior_mass(sol):
    dr = BASE.r_out / BASE.n_r
    assert dr * np.sum(sol.R**2 * sol.r) == pytest.approx(1.0, rel=1e-12)
    assert 0.0 < sol.interior_mass < 0.01


def test_annulus_limit():
    """For phi0 -> infinity the interior empties and E approaches the
    Dirichlet-annulus eigenvalue J_nu(l b) Y_nu(l r_out) = J_nu(l r_out) Y_nu(l b)."""
    cfg = ABConfig(b=1.0, B0=0.5, C1=0.3, phi0=1e4, r_out=5.0, n_r=2048)
    nu = abs(cfg.c2)

    def eigencondition(lam):
        return bessel("J", nu, lam * cfg.b) * bessel("Y", nu, lam * cfg.r_out) - (
            bessel("J", nu, lam * cfg.r_out) * bessel("Y", nu, lam * cfg.b)
        )

    lams = np.linspace(0.05, 1.5, 400)
    vals = np.array([eigencondition(l) for l in lams])
    i = int(np.argmax(vals[:-1] * vals[1:] < 0))
    lam0 = brentq(eigencondition, lams[i], lams[i + 1], xtol=1e-13)
    e_annulus = 0.5 * lam0**2
    sol_hi = solve_radial(cfg)
    # the residual wall softness contributes an O(1/kappa) shift
    assert sol_hi.E == pytest.approx(e_annulus, rel=5e-3)
    assert sol_hi.interior_mass < 1e-5


def test_wall_sweep_expulsion():
    rep = wall_sweep(BASE, [10.0, 100.0, 1000.0, 1e4])
    assert np.all(np.diff(rep.interior_mass) < 0.0)
    assert np.all(np.diff(rep.max_interior_R) < 0.0)
    assert rep.interior_mass[0] / rep.interior_mass[-1] >= 100.0
    # interior velocity is analytic and independent of the wall height:
    # identical to the last bit across the ladder
    assert np.unique(rep.u_theta_half_b).size == 1
    assert rep.u_theta_half_b[0] == pytest.approx(
        0.5 * BASE.B0 * 0.5 * BASE.b + BASE.C1 / (0.5 * BASE.b)
    )
    assert rep.decay_exponent < -1.0


def test_wall_sweep_validation():
    with pytest.raises(ValueError):
        wall_sweep(BASE, [10.0, 100.0])
    with pytest.raises(ValueError):
        wall_sweep(BASE, [10.0, 100.0, 50.0, 1000.0])


def test_branch_errors():
    with pytest.raises(ValueError):
        solve_radial(BASE, branch=-1)
    with pytest.raises(BranchNotFoundError):
        solve_radial(ABConfig(b=1.0, phi0=0.5, r_out=5.0), branch=10)


def test_null_vector_sign_does_not_flip_R(monkeypatch):
    """The SVD null vector may come with either sign; R does not follow it,
    and its largest-magnitude value is positive."""
    want = solve_radial(BASE)
    svd = np.linalg.svd

    def negated(a, *args, **kwargs):
        u, s, vh = svd(a, *args, **kwargs)
        return u, s, -vh

    monkeypatch.setattr(np.linalg, "svd", negated)
    got = solve_radial(BASE)
    assert np.array_equal(got.R, want.R)
    assert (got.C3, got.C5, got.C6) == (want.C3, want.C5, want.C6)
    assert got.R[np.argmax(np.abs(got.R))] > 0.0


def test_default_sweep_roots_equal_brentq(monkeypatch):
    """On the default ab-sweep `_brent` returns brentq's root bit for bit on
    each scan bracket, with two determinant evaluations fewer per rung: the
    scan has already evaluated both ends."""
    cfg = DEFAULTS["ab-sweep"]
    cyl = cfg["cylinder"]
    base = ABConfig(
        b=float(cyl["b"]), B0=float(cyl["B0"]), C1=float(cyl["C1"]),
        uz=float(cyl["uz"]), r_out=float(cyl["r_out"]), n_r=int(cyl["n_r"]),
    )
    calls, solves = [], []
    matching, brent = ab._matching_matrix, ab._brent

    def counting(c, e):
        if np.ndim(e) == 0:
            calls.append(e)
        return matching(c, e)

    def recording(f, a, b, fa, fb):
        n_before = len(calls)
        root = brent(f, a, b, fa, fb)
        solves.append((f, a, b, root, len(calls) - n_before))
        return root

    monkeypatch.setattr(ab, "_matching_matrix", counting)
    monkeypatch.setattr(ab, "_brent", recording)
    rep = wall_sweep(base, cfg["phi0_ladder"], int(cfg["branch"]))
    assert len(solves) == len(rep.solutions) == 4
    for f, a, b, root, n_evals in solves:
        n_before = len(calls)
        assert root == brentq(f, a, b, xtol=1e-13, rtol=1e-15)
        assert n_evals == len(calls) - n_before - 2


def test_brent_on_a_known_root():
    root = _brent(np.cos, 1.0, 2.0, np.cos(1.0), np.cos(2.0))
    assert root == brentq(np.cos, 1.0, 2.0, xtol=1e-13, rtol=1e-15)
    assert abs(root - 0.5 * np.pi) <= 1e-13
    with pytest.raises(ConvergenceError):
        _brent(lambda x: np.nan, 1.0, 2.0, 1.0, -1.0)
