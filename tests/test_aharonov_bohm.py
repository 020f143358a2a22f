"""Cylindrical stationary model: matching, eigenvalues, wall ladder."""

import re
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
    base = default_base()
    calls, solves = [], []
    matching, brent = ab._matching_matrix, ab._brent

    def counting(c, e, nu):
        if np.ndim(e) == 0:
            calls.append(e)
        return matching(c, e, nu)

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


def checked_matrix(cfg, e):
    """The matching matrix built entry by entry from the library's Bessel
    functions, called here by name."""
    nu, lam, kap = abs(cfg.c2), ab._lambda(cfg, e), ab._kappa(cfg, e)
    xb, xo = lam * cfg.b, lam * cfg.r_out
    zeta = kap * ab._i_log_derivative(abs(cfg.C1), kap * cfg.b)
    m = np.array([
        [np.ones_like(zeta), -jv(nu, xb), -yv(nu, xb)],
        [zeta, -lam * jvp(nu, xb), -lam * yvp(nu, xb)],
        [np.zeros_like(zeta), jv(nu, xo), yv(nu, xo)],
    ])
    return np.moveaxis(m, (0, 1), (-2, -1))


def full_window_energy(cfg, branch):
    """E as a scan of the whole window finds it: the determinant of the
    checked matrix at every grid energy, the branch-th exact zero or sign
    change, and brentq on that bracket."""
    es = scan_grid(cfg)
    dets = np.linalg.det(checked_matrix(cfg, es))
    i = np.flatnonzero((dets[:-1] == 0.0) | (dets[:-1] * dets[1:] < 0))[branch]
    if dets[i] == 0.0:
        return es[i]
    return brentq(lambda e: np.linalg.det(checked_matrix(cfg, e)), es[i], es[i + 1],
                  xtol=1e-13, rtol=1e-15)


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


def test_matching_matrix_equals_the_checked_bessel_calls():
    """The kernel's one stacked evaluation gives the bits of the matrix
    built entry by entry."""
    es = scan_grid(BASE)
    for e in (es, es[123] + 1e-3):
        got = ab._matching_matrix(BASE, e, abs(BASE.c2))
        assert got.tobytes() == checked_matrix(BASE, e).tobytes()


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
    exactly the grid's size), and E is brentq's root of the full-window
    bracket of the checked determinant."""
    base, ladder = default_base(), DEFAULTS["ab-sweep"]["phi0_ladder"]
    for p0, want in zip(ladder, full_scans[branch]):
        cfg = replace(base, phi0=p0)
        monkeypatch.setattr(ab, "SCAN_CHUNK", chunk or len(scan_grid(cfg)))
        got = solve_radial(cfg, branch)
        assert got.E == want.E == full_window_energy(cfg, branch)
        assert (got.C3, got.C5, got.C6) == (want.C3, want.C5, want.C6)
        assert got.R.tobytes() == want.R.tobytes()
        assert got.determinants <= want.determinants


def record_stacks(monkeypatch):
    """The sizes of the stacked (scan) matching-matrix evaluations."""
    sizes, matching = [], ab._matching_matrix

    def recording(cfg, e, nu):
        if np.ndim(e):
            sizes.append(np.size(e))
        return matching(cfg, e, nu)

    monkeypatch.setattr(ab, "_matching_matrix", recording)
    return sizes


def test_bracket_across_a_chunk_edge(monkeypatch):
    """A sign change between the last point of one chunk and the first of
    the next is found, and the scan stops with that second chunk."""
    es = scan_grid(BASE)
    dets = np.linalg.det(checked_matrix(BASE, es))
    i = int(np.flatnonzero(dets[:-1] * dets[1:] < 0)[0])
    assert i > 0
    monkeypatch.setattr(ab, "SCAN_CHUNK", i + 1)
    sizes = record_stacks(monkeypatch)
    assert solve_radial(BASE).E == full_window_energy(BASE, 0)
    assert sizes == [i + 1, i + 1]


def test_exact_zero_at_the_last_point_of_a_chunk(monkeypatch):
    """A determinant that is exactly 0 on a chunk's last grid point is a
    root there, found when the next chunk is scanned.  The zero is faked, so
    the matrix there is not singular and the matching check refuses the
    solution; with that check off, the solve returns the scanned root."""
    es = scan_grid(BASE)
    m6 = ab._matching_matrix(BASE, es[6], abs(BASE.c2))
    det = np.linalg.det

    def zero_at_es6(m):
        d = det(m)
        if np.ndim(d):
            d[np.all(m == m6, axis=(-2, -1))] = 0.0
        return d

    monkeypatch.setattr(ab, "SCAN_CHUNK", 7)
    monkeypatch.setattr(np.linalg, "det", zero_at_es6)
    with pytest.raises(RangeError, match="gap"):
        solve_radial(BASE)
    monkeypatch.setattr(ab, "MAX_MATCH_GAP", np.inf)
    assert solve_radial(BASE).E == es[6]


@pytest.mark.parametrize("cfg, worst, first_chunk", [
    (ABConfig(b=1.0, B0=0.5, C1=160.0, phi0=10.0), "order 160.25 > 150", False),
    (ABConfig(b=1.0, B0=0.5, C1=0.3, phi0=2e6, r_out=5.0), "x = 10000.0002 > 10000",
     True),
], ids=["order", "x"])
def test_window_outside_the_envelope_is_refused_up_front(monkeypatch, cfg, worst,
                                                          first_chunk):
    """The whole window is checked before the first determinant, with a
    message naming the worst value, although the wide window's ground state
    lies in the first chunk: unchecked, it solves from that chunk alone."""
    sizes = record_stacks(monkeypatch)
    with pytest.raises(RangeError, match=worst) as err:
        solve_radial(cfg)
    assert sizes == [] and len(str(err.value)) < 60
    if first_chunk:
        monkeypatch.setattr(ab, "_window_order", lambda nu, x: nu)
        with np.errstate(over="ignore"):  # exp(kappa b) of the 2e6 wall
            solve_radial(cfg)
        assert sizes == [ab.SCAN_CHUNK]


def test_overflowing_y_is_refused(monkeypatch):
    """Y_140 overflows at the window's small lambda*b: refused, not scanned."""
    with pytest.raises(RangeError, match="overflows double precision"):
        solve_radial(ABConfig(b=1.0, C1=140.0, phi0=10.0))


@pytest.mark.parametrize("cfg, nu, gap", [
    (ABConfig(b=1.0, B0=0.5, C1=40.0, phi0=1000.0), "40.25", "1.2e+00"),
    (ABConfig(b=1.0, B0=2.0, C1=20.0, phi0=0.0), "21", "1.0e+00"),
    (ABConfig(b=1.0, B0=0.5, C1=15.0, phi0=10.0), "15.25", "7.8e-03"),
], ids=["nu-40.25", "nu-21", "nu-15.25"])
def test_unresolved_high_order_is_refused(cfg, nu, gap):
    """At a high exterior order R(b) from the null vector (a_b) and from the
    exterior (C5 J_nu + C6 Y_nu, which scales the interior) part: C6 is
    round-off times a huge Y_nu(lambda b).  Unrefused, nu = 40.25 returned an
    interior_mass of 0.43, and nu = 21 judged masses of 1e-23.  Refused by
    name, with the gap."""
    with pytest.raises(RangeError, match=rf"nu = {nu} .* gap of {re.escape(gap)}"):
        solve_radial(cfg)


def test_resolved_orders_pass_the_gap_check():
    """Below MAX_MATCH_GAP the solution is kept: at nu = 10.25 the gap is
    1.6e-7, and on the default cylinder (nu = 0.55) 3e-14."""
    sol = solve_radial(ABConfig(b=1.0, B0=0.5, C1=10.0, phi0=10.0))
    assert sol.nu == 10.25 and 0.0 < sol.interior_mass < 1e-11


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
    and 1 chunks of 64) and 19 in Brent's steps; the whole-window scan took
    5,392 scan determinants."""
    rep = wall_sweep(default_base(), DEFAULTS["ab-sweep"]["phi0_ladder"])
    assert [s.determinants for s in rep.solutions] == [196, 69, 69, 69]


def test_brent_on_a_known_root():
    root = _brent(np.cos, 1.0, 2.0, np.cos(1.0), np.cos(2.0))
    assert root == brentq(np.cos, 1.0, 2.0, xtol=1e-13, rtol=1e-15)
    assert abs(root - 0.5 * np.pi) <= 1e-13
    with pytest.raises(ConvergenceError):
        _brent(lambda x: np.nan, 1.0, 2.0, 1.0, -1.0)
