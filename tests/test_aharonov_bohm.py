"""Cylindrical stationary model: matching, eigenvalues, wall ladder."""

import sys
from dataclasses import FrozenInstanceError, replace

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
from absqm.errors import BranchNotFoundError, ConvergenceError, DomainError, RangeError
from scipy.optimize import brentq
from scipy.special import ive, jv, jvp, yv, yvp


BASE = ABConfig(b=1.0, B0=0.5, C1=0.3, phi0=10.0, r_out=5.0, n_r=2048)


@pytest.fixture(scope="module")
def sol():
    return solve_radial(BASE)


def exterior_R(s, r):
    return s.C5 * jv(s.nu, s.lam * r) + s.C6 * yv(s.nu, s.lam * r)


def exterior_dR(s, r):
    return s.lam * (s.C5 * jvp(s.nu, s.lam * r) + s.C6 * yvp(s.nu, s.lam * r))


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


@pytest.mark.parametrize("bad, message", [
    ({"b": np.nan}, "b must be finite"),
    ({"B0": np.nan}, "B0 must be finite"),
    ({"C1": np.nan}, "C1 must be finite"),
    ({"uz": np.nan}, "uz must be finite"),
    ({"phi0": np.inf}, "phi0 must be finite"),
    ({"r_out": np.inf}, "r_out must be finite"),
    ({"n_r": 100.5}, "n_r must be an integer"),
], ids=["b-nan", "B0-nan", "C1-nan", "uz-nan", "phi0-inf", "r_out-inf", "n_r-100.5"])
def test_config_refuses_non_finite_fields_and_a_fractional_grid(bad, message):
    """Refused where the config is made, not deep in `solve_radial` by
    `int()` of a NaN or an infinite window, and not by a grid whose last
    point lands on r_out."""
    with pytest.raises(ValueError, match=message):
        ABConfig(**{"b": 1.0, **bad})


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
        return jv(nu, lam * cfg.b) * yv(nu, lam * cfg.r_out) - (
            jv(nu, lam * cfg.r_out) * yv(nu, lam * cfg.b)
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
    # the interior mass falls faster than 1/kappa
    slope = np.polyfit(np.log(rep.kappa), np.log(rep.interior_mass), 1)[0]
    assert slope < -1.0


def test_wall_sweep_validation():
    with pytest.raises(ValueError):
        wall_sweep(BASE, [10.0, 100.0])
    with pytest.raises(ValueError):
        wall_sweep(BASE, [10.0, 100.0, 50.0, 1000.0])


def test_branch_errors():
    with pytest.raises(ValueError):
        solve_radial(BASE, branch=-1)
    with pytest.raises(BranchNotFoundError, match="only 1 sign changes"):
        solve_radial(ABConfig(b=1.0, phi0=0.5, r_out=5.0), branch=10)


def test_default_sweep_roots_equal_brentq(monkeypatch):
    """On the default ab-sweep `_brent` returns brentq's root bit for bit on
    each scan bracket."""
    cfg = DEFAULTS["ab-sweep"]
    solves = []
    brent = ab._brent

    def recording(f, a, b):
        root = brent(f, a, b)
        solves.append((f, a, b, root))
        return root

    monkeypatch.setattr(ab, "_brent", recording)
    rep = wall_sweep(default_base(), cfg["phi0_ladder"], int(cfg["branch"]))
    assert len(solves) == len(rep.solutions) == 4
    for f, a, b, root in solves:
        assert root == brentq(f, a, b, xtol=1e-13, rtol=1e-15)


def default_base():
    cyl = DEFAULTS["ab-sweep"]["cylinder"]
    return ABConfig(
        b=float(cyl["b"]), B0=float(cyl["B0"]), C1=float(cyl["C1"]),
        uz=float(cyl["uz"]), r_out=float(cyl["r_out"]), n_r=int(cyl["n_r"]),
    )


def scan_grid(cfg):
    """The energies the scan of `solve_radial` walks, uniform in lambda."""
    e_lo = 0.5 * cfg.uz**2
    e_hi = e_lo + cfg.phi0 + 0.5 * cfg.B0 * cfg.C1
    lam_max = np.sqrt(2.0 * (e_hi - e_lo))
    n_scan = max(ab.N_SCAN, int(16.0 * lam_max * (cfg.r_out - cfg.b) / np.pi))
    return e_lo + 0.5 * np.linspace(1e-6 * lam_max, lam_max * (1.0 - 1e-9), n_scan) ** 2


def checked_shot(cfg, e):
    """(C5, C6) of the solution with R(b) = 1 and R'(b) = zeta, from the
    library's Bessel functions called here by name: C5 = (pi x_b/2)(Y'_b -
    (zeta/lambda) Y_b), C6 = (pi x_b/2)((zeta/lambda) J_b - J'_b)."""
    nu, lam, kap = abs(cfg.c2), ab._lambda(cfg, e), ab._kappa(cfg, e)
    xb = lam * cfg.b
    zeta_lam = kap * ab._i_log_derivative(abs(cfg.C1), kap * cfg.b) / lam
    half = 0.5 * np.pi * xb
    return (half * (yvp(nu, xb) - zeta_lam * yv(nu, xb)),
            half * (zeta_lam * jv(nu, xb) - jvp(nu, xb)))


def checked_f(cfg, e):
    """R(r_out) of the checked shot solution, the scalar matching function."""
    nu, xo = abs(cfg.c2), ab._lambda(cfg, e) * cfg.r_out
    c5, c6 = checked_shot(cfg, e)
    return c5 * jv(nu, xo) + c6 * yv(nu, xo)


def full_window_energy(cfg, branch):
    """E as a scan of the whole window finds it: the checked f at every grid
    energy, the branch-th exact zero or sign change, and brentq on that
    bracket."""
    es = scan_grid(cfg)
    fs = checked_f(cfg, es)
    i = np.flatnonzero((fs[:-1] == 0.0) | (fs[:-1] * fs[1:] < 0))[branch]
    if fs[i] == 0.0:
        return es[i]
    return brentq(lambda e: checked_f(cfg, e), es[i], es[i + 1], xtol=1e-13,
                  rtol=1e-15)


@pytest.mark.parametrize("nu", [0.0, 5e-324, 0.55, 10.25, 21.0, 150.0],
                         ids=["0", "subnormal", "0.55", "10.25", "21", "150"])
def test_bessel_kernels_equal_scipy_special_bit_for_bit(nu):
    """The solver's J, Y and scaled I and its J' and Y' (`_prime`) give the
    bits of `scipy.special`'s jv, yv, ive, jvp and yvp over the envelope's
    x range, on an array and on each scalar (overflowed Y and its NaN
    derivative included)."""
    sp = ab._special()
    pairs = [(sp.jv, jv), (sp.yv, yv), (sp.ive, ive),
             (lambda v, x: ab._prime(sp.jv, v, x), jvp),
             (lambda v, x: ab._prime(sp.yv, v, x), yvp)]
    x = np.geomspace(1e-6, 1e4, 400)
    with np.errstate(all="ignore"):
        for got, want in pairs:
            assert got(nu, x).tobytes() == want(nu, x).tobytes()
            assert (np.array([got(nu, xi) for xi in x.tolist()]).tobytes()
                    == np.array([want(nu, xi) for xi in x.tolist()]).tobytes())


def test_bessel_module_is_the_one_scipy_special_holds():
    """With `scipy.special` loaded (by this module's imports), the solver
    takes its compiled module rather than a second copy."""
    module = ab._special()
    assert sys.modules["scipy.special._special_ufuncs"] is module
    assert module.jv is jv and module.yv is yv and module.ive is ive


def test_shoot_equals_the_checked_bessel_calls():
    """The kernel's one stacked evaluation gives the bits of the
    coefficients built from the library's functions by name."""
    es = scan_grid(BASE)
    for e in (es, es[123] + 1e-3):
        got, want = ab._shoot(BASE, e, abs(BASE.c2)), checked_shot(BASE, e)
        assert np.shape(got[0]) == np.shape(e)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.fixture(scope="module")
def full_scans():
    """Per branch, the default ladder solved with one chunk: the whole window."""
    base, ladder = default_base(), DEFAULTS["ab-sweep"]["phi0_ladder"]
    chunk = ab.SCAN_CHUNK
    ab.SCAN_CHUNK = 10**9
    try:
        return {b: wall_sweep(base, ladder, b).solutions for b in (0, 1, 2)}
    finally:
        ab.SCAN_CHUNK = chunk


@pytest.mark.parametrize("chunk", [1, 7, 64, None])
@pytest.mark.parametrize("branch", [0, 1, 2])
def test_chunked_scan_equals_the_full_window(monkeypatch, full_scans, chunk, branch):
    """Scanning chunk by chunk up to the wanted bracket moves no bit of E, C3,
    C5, C6 or R against the scan of the whole window (chunk None: one chunk of
    exactly the grid's size), E is brentq's root of the full-window bracket
    of the checked f, and R is positive where |R| peaks."""
    base, ladder = default_base(), DEFAULTS["ab-sweep"]["phi0_ladder"]
    for p0, want in zip(ladder, full_scans[branch]):
        cfg = replace(base, phi0=p0)
        monkeypatch.setattr(ab, "SCAN_CHUNK", chunk or len(scan_grid(cfg)))
        got = solve_radial(cfg, branch)
        assert got.E == want.E == full_window_energy(cfg, branch)
        assert (got.C3, got.C5, got.C6) == (want.C3, want.C5, want.C6)
        assert got.R.tobytes() == want.R.tobytes()
        assert got.determinants <= want.determinants
        assert got.R[np.argmax(np.abs(got.R))] > 0.0


def record_stacks(monkeypatch):
    """The energy stacks of the scan's evaluations of f, in order."""
    stacks, shoot = [], ab._shoot

    def recording(cfg, e, nu):
        coefficients = shoot(cfg, e, nu)
        if np.ndim(e):
            stacks.append(e)
        return coefficients

    monkeypatch.setattr(ab, "_shoot", recording)
    return stacks


def test_bracket_across_a_chunk_edge(monkeypatch):
    """A sign change between the last point of one chunk and the first of
    the next is found, and the scan stops with that second chunk."""
    es = scan_grid(BASE)
    fs = checked_f(BASE, es)
    i = int(np.flatnonzero(fs[:-1] * fs[1:] < 0)[0])
    assert i > 0
    monkeypatch.setattr(ab, "SCAN_CHUNK", i + 1)
    stacks = record_stacks(monkeypatch)
    assert solve_radial(BASE).E == full_window_energy(BASE, 0)
    assert [len(e) for e in stacks] == [i + 1, i + 1]


def test_exact_zero_at_the_last_point_of_a_chunk(monkeypatch):
    """An f that is exactly 0 on a chunk's last grid point is a root there,
    found when the next chunk is scanned (the zero is faked on the scan's
    stacked evaluation at x = lambda r_out of that point)."""
    es = scan_grid(BASE)
    x6 = ab._lambda(BASE, es[6]) * BASE.r_out
    exterior = ab._exterior

    def zero_at_es6(nu, x, c5, c6):
        r = exterior(nu, x, c5, c6)
        if np.ndim(r):
            r[x == x6] = 0.0
        return r

    monkeypatch.setattr(ab, "SCAN_CHUNK", 7)
    monkeypatch.setattr(ab, "_exterior", zero_at_es6)
    assert solve_radial(BASE).E == es[6]


@pytest.mark.parametrize("cfg, worst, first_chunk", [
    (ABConfig(b=1.0, B0=0.5, C1=160.0, phi0=10.0), "order 160.25 > 150", False),
    (ABConfig(b=1.0, B0=0.5, C1=0.3, phi0=2e6, r_out=5.0), "x = 10000.0002 > 10000",
     True),
], ids=["order", "x"])
def test_window_outside_the_envelope_is_refused_up_front(monkeypatch, cfg, worst,
                                                          first_chunk):
    """The whole window is checked before the first evaluation of f, with a
    message naming the worst value, although the wide window's ground state
    lies in the first chunk: unchecked, it solves from that chunk alone."""
    stacks = record_stacks(monkeypatch)
    with pytest.raises(RangeError, match=worst) as err:
        solve_radial(cfg)
    assert stacks == [] and len(str(err.value)) < 60
    if first_chunk:
        monkeypatch.setattr(ab, "_window_order", lambda nu, x: nu)
        with np.errstate(over="ignore"):  # exp(kappa b) of the 2e6 wall
            solve_radial(cfg)
        assert [len(e) for e in stacks] == [ab.SCAN_CHUNK]


@pytest.mark.parametrize("cfg, error, message", [
    (ABConfig(b=1.0, B0=1.0, C1=-1.0, phi0=0.1), ValueError,
     r"no energy window: phi0 \+ B0 C1/2 must be positive"),
    (ABConfig(b=1.0, uz=447.3, phi0=1.0), DomainError,
     r"E <= uz\^2/2: exterior wavenumber not real"),
    (ABConfig(b=1.0, uz=1.5e4, phi0=1.0), DomainError, "interior not evanescent"),
], ids=["no_window", "exterior_not_real", "interior_not_evanescent"])
def test_solve_radial_refusals(cfg, error, message):
    """An empty window is an argument error.  A window that exists can still
    round onto its edges when uz^2/2 is large against it: the scan's first
    energy onto uz^2/2 (a zero exterior wavenumber), or its last onto the top
    of the window (a zero interior decay rate)."""
    with pytest.raises(error, match=message):
        solve_radial(cfg)


def test_overflowing_y_is_refused(monkeypatch):
    """Y_140 overflows at the window's small lambda*b: refused, not scanned."""
    with pytest.raises(RangeError, match="overflows double precision"):
        solve_radial(ABConfig(b=1.0, C1=140.0, phi0=10.0))


@pytest.mark.parametrize("cfg, e_mpmath", [
    (ABConfig(b=1.0, B0=0.5, C1=15.0, phi0=10.0), 8.2153851936622463),
    (ABConfig(b=1.0, B0=2.0, C1=20.0, phi0=10.0), 14.038267068086641),
    (ABConfig(b=1.0, B0=0.5, C1=40.0, phi0=1000.0), 44.012800671183712),
], ids=["nu-15.25", "nu-21", "nu-40.25"])
def test_high_order_solves(cfg, e_mpmath):
    """High exterior orders, where the true C6/C5 lies below round-off
    (Y_nu(lambda b) is -1.5e6, -1.4e9 and -2.7e19 there), solve: E matches
    the root of the same f found by mpmath at 60 digits to 4 ulps (2 at
    most measured), R(b) is one value from both sides and R(r_out) is 0 to
    round-off of the profile's peak."""
    sol = solve_radial(cfg)
    assert abs(sol.E - e_mpmath) <= 4.0 * np.spacing(e_mpmath)
    r_b = float(sol.interior_amplitude(cfg.b))
    assert abs(r_b - exterior_R(sol, cfg.b)) <= 1e-14 * abs(r_b)
    assert abs(exterior_R(sol, cfg.r_out)) <= 1e-14 * np.max(np.abs(sol.R))


def test_shot_solutions_keep_the_wronskian_on_the_scan():
    """R(b) = C5 J_nu(lambda b) + C6 Y_nu(lambda b) = 1 at every energy
    `solve_radial` scans, by the Wronskian (DLMF 10.5.2), for exterior
    orders 0.25 to 40.25 and walls 10 to 1e4 (a config whose window is
    refused scans nothing, and C1 = 60 overflows Y).  Worst measured:
    4.9e-14 at nu = 40.25."""
    worst, n_checked = 0.0, 0
    for c1 in (0.0, 0.3, 5.0, 10.0, 15.0, 20.0, 40.0, 60.0):
        for p0 in (10.0, 1e3, 1e4):
            cfg = ABConfig(b=1.0, B0=0.5, C1=c1, phi0=p0)
            with pytest.MonkeyPatch.context() as mp:
                stacks = record_stacks(mp)
                try:
                    solve_radial(cfg)
                except (RangeError, BranchNotFoundError):
                    pass
            if not stacks:
                continue
            es, nu = np.concatenate(stacks), abs(cfg.c2)
            c5, c6 = ab._shoot(cfg, es, nu)
            xb = ab._lambda(cfg, es) * cfg.b
            worst = max(worst, float(np.max(np.abs(
                c5 * jv(nu, xb) + c6 * yv(nu, xb) - 1.0))))
            n_checked += 1
    assert n_checked == 21
    assert worst <= 1e-13


def test_subnormal_order_solves_as_order_zero():
    """An exterior order nu = |C2| = 5e-324 is flushed to 0 before the scan:
    the library's Y of a subnormal order is 0.0 below x ~ 2, and unflushed
    the solve overflows in Brent's steps and finds E = 0.0622."""
    got = solve_radial(ABConfig(b=1.0, C1=5e-324, phi0=10.0))
    want = solve_radial(ABConfig(b=1.0, C1=0.0, phi0=10.0))
    assert got.nu == 0.0
    assert got.E == want.E == 0.2567045755979142
    assert (got.C3, got.C5, got.C6) == (want.C3, want.C5, want.C6)
    assert got.R.tobytes() == want.R.tobytes()


def test_solution_is_frozen(sol):
    with pytest.raises(FrozenInstanceError):
        sol.R = np.zeros_like(sol.R)


def test_high_wall_solves_without_overflow():
    """At phi0 = 3e5 the wall's kappa b is 775, past exp's overflow at 709.8:
    C3 = a_b / I_mu(kappa b) carries e^(-kappa b), which underflows to 0, so
    the solve warns of nothing (the test settings make a RuntimeWarning an
    error) and R stays finite and normalized."""
    sol = solve_radial(ABConfig(b=1, B0=0.5, C1=0.3, phi0=3e5, r_out=5))
    assert sol.kappa * sol.config.b > 709.8
    assert sol.C3 == 0.0
    assert np.isfinite(sol.R).all()
    dr = sol.r[1] - sol.r[0]
    assert dr * np.sum(sol.R**2 * sol.r) == pytest.approx(1.0, rel=1e-12)
    assert 0.0 < sol.interior_mass < 1e-8


def test_default_sweep_counts_its_determinants():
    """The default ladder's solves evaluate 384 scan determinants (3, 1, 1
    and 1 chunks of 64) and 27 in brentq: it evaluates both ends of each
    bracket again, then 19 steps.  The whole-window scan took 5,392 scan
    determinants."""
    rep = wall_sweep(default_base(), DEFAULTS["ab-sweep"]["phi0_ladder"])
    assert [s.determinants for s in rep.solutions] == [198, 71, 71, 71]


def test_brent_on_a_known_root(monkeypatch):
    """brentq's root to the bit; a NaN value of f and a solve that runs out
    of steps are refused."""
    root = _brent(np.cos, 1.0, 2.0)
    assert root == brentq(np.cos, 1.0, 2.0, xtol=1e-13, rtol=1e-15)
    assert abs(root - 0.5 * np.pi) <= 1e-13
    with pytest.raises(ConvergenceError, match="NaN at 1.5"):
        _brent(lambda x: np.nan if 1.0 < x < 2.0 else np.cos(x), 1.0, 2.0)
    monkeypatch.setattr(ab, "ROOT_MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match="within 1 Brent steps"):
        _brent(np.cos, 1.0, 2.0)
