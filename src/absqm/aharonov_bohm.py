"""Cylindrically symmetric stationary model with a finite potential wall.

Dimensionless units hbar = m = e = 1.  Inside a cylinder of radius b there is
a uniform magnetic field B0 and a scalar potential phi(r) = phi0 - B0^2 r^2/8;
outside both vanish.  The velocity field is purely tangential,
u_theta = B0 r/2 + C1/r inside and C2/r outside with C2 = C1 + B0 b^2/2.  The
radial amplitude solves a modified Bessel equation inside (regular branch
I_mu(kappa r), mu = |C1|) and a Bessel equation outside
(C5 J_nu(lambda r) + C6 Y_nu(lambda r), nu = |C2|); the system is closed by a
hard outer box R(r_out) = 0.  Matching R and R' at b makes the energy E an
eigenvalue, a zero of the 3x3 matching determinant: scanned SCAN_CHUNK points
at a time up to the requested branch's sign change, then found by Brent.  As
phi0 -> infinity the interior density vanishes while u_theta, independent of
phi0, stays finite and nonzero inside.

This is the package's only user of Bessel functions.  They come from
`scipy.special`, imported on the first evaluation (so only `ab-sweep` loads
it), and each solve checks its whole window once against their validated
envelope (`_window_order`) before the first determinant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .errors import BranchNotFoundError, ConvergenceError, DomainError, RangeError

N_SCAN = 800
SCAN_CHUNK = 64  # determinants per scan evaluation
ROOT_MAX_ITER = 100
# validated accuracy envelope of J_nu(x) and Y_nu(x); a window outside it is
# refused rather than risk silent inaccuracy
MAX_ORDER = 150.0
MAX_X = 1e4


def _special():
    """`scipy.special`, imported on the first Bessel evaluation."""
    from scipy import special

    return special


def _ive(order, x):
    """Exponentially scaled I_order(x)."""
    return _special().ive(order, x)


def _exterior(nu: float, x, c5, c6):
    """The exterior amplitude C5 J_nu(x) + C6 Y_nu(x) at x = lambda r."""
    sp = _special()
    return c5 * sp.jv(nu, x) + c6 * sp.yv(nu, x)


def _window_order(nu: float, x) -> float:
    """The exterior order nu, once it and every lambda*r value x of a window
    lie inside the envelope.  A subnormal order makes the library return 0.0
    for Y; the functions are continuous in the order, so it flushes to 0."""
    if nu > MAX_ORDER:
        raise RangeError(f"J, Y of lambda*r: order {nu:.9g} > {MAX_ORDER:g}")
    if np.any(x > MAX_X):
        raise RangeError(f"J, Y of lambda*r: x = {x.max():.9g} > {MAX_X:g}")
    return 0.0 if nu < 2.3e-308 else nu


@dataclass(frozen=True)
class ABConfig:
    b: float
    B0: float = 0.0
    C1: float = 0.0
    uz: float = 0.0
    phi0: float = 10.0
    r_out: float = 5.0
    n_r: int = 2048

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError("cylinder radius b must be positive")
        if self.r_out < 3.0 * self.b:
            raise ValueError("r_out must be at least 3*b")
        if self.phi0 < 0:
            raise ValueError("phi0 must be nonnegative")
        if self.n_r < 64:
            raise ValueError("n_r must be at least 64")

    @property
    def c2(self) -> float:
        return self.C1 + 0.5 * self.B0 * self.b**2


def u_theta_profile(cfg: ABConfig, r):
    """Analytic piecewise tangential velocity; independent of phi0."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("u_theta is defined for r > 0 only")
    out = np.where(r < cfg.b, 0.5 * cfg.B0 * r + cfg.C1 / r, cfg.c2 / r)
    return float(out) if out.ndim == 0 else out


def _kappa(cfg: ABConfig, e):
    arg = cfg.phi0 - e + 0.5 * cfg.uz**2 + 0.5 * cfg.B0 * cfg.C1
    if np.any(arg <= 0):
        raise DomainError("phi0 - E + uz^2/2 + B0 C1/2 <= 0: interior not evanescent")
    return np.sqrt(2.0 * arg)


def _lambda(cfg: ABConfig, e):
    arg = e - 0.5 * cfg.uz**2
    if np.any(arg <= 0):
        raise DomainError("E <= uz^2/2: exterior wavenumber not real")
    return np.sqrt(2.0 * arg)


def _i_log_derivative(order: float, x):
    """kappa-free part of I'_mu(x)/I_mu(x), computed from scaled functions
    so it stays finite for large x."""
    if order == 0.0:
        return _ive(1.0, x) / _ive(0.0, x)
    return (_ive(order - 1.0, x) + _ive(order + 1.0, x)) / (2.0 * _ive(order, x))


def _matching_matrix(cfg: ABConfig, e, nu: float) -> np.ndarray:
    """Matching of R and R' at b plus R(r_out)=0 for the scaled unknowns
    (C3*I_mu(kappa b), C5, C6); a 3x3 matrix per energy, stacked along the
    leading axes of e.  nu is the exterior order as `_window_order` returned
    it for the whole window, so here the Bessel values are only checked
    finite."""
    sp = _special()
    kap, lam = _kappa(cfg, e), _lambda(cfg, e)
    xb, xo = lam * cfg.b, lam * cfg.r_out
    with np.errstate(invalid="ignore"):  # Y' of an overflowed Y: refused below
        jb, yb, djb, dyb, jo, yo = jy = np.array([
            sp.jv(nu, xb), sp.yv(nu, xb), sp.jvp(nu, xb), sp.yvp(nu, xb),
            sp.jv(nu, xo), sp.yv(nu, xo)])
    if not np.isfinite(jy).all():
        raise RangeError(f"J_{nu:g} or Y_{nu:g} overflows double precision "
                         f"for E in [{np.min(e):g}, {np.max(e):g}]")
    zeta = kap * _i_log_derivative(abs(cfg.C1), kap * cfg.b)
    zero, one = np.zeros_like(zeta), np.ones_like(zeta)
    m = np.array([[one, -jb, -yb], [zeta, -lam * djb, -lam * dyb], [zero, jo, yo]])
    return np.moveaxis(m, (0, 1), (-2, -1))


def _brent(f, a, b, fa, fb, xtol=1e-13, rtol=1e-15):
    """Root of f in [a, b], where f(a) = fa and f(b) = fb differ in sign, by
    Brent's method step for step as `scipy.optimize.brentq` takes it, so the
    root is the same to the last bit: inverse quadratic or secant steps,
    bisection when they fall short, and a stop once the bracket is narrower
    than xtol + rtol |x|.  Taking f(a) and f(b) from the caller saves the two
    evaluations brentq spends on them."""
    xpre, xcur, fpre, fcur = a, b, fa, fb
    xblk = fblk = spre = scur = 0.0
    for _ in range(ROOT_MAX_ITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        short = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            short = 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
        if np.isnan(fcur):
            raise ConvergenceError(f"the function is NaN at {xcur!r}")
    raise ConvergenceError(f"no root within {ROOT_MAX_ITER} Brent steps")


def _roots(det, es):
    """The zeros of det along the grid es: a point where det is 0, else the
    root of each sign change, scanning SCAN_CHUNK points at a time."""
    dets, n = np.empty_like(es), SCAN_CHUNK
    for a in range(0, len(es), n):
        dets[a:a + n] = det(es[a:a + n])
        for i in range(max(a - 1, 0), min(a + n, len(es)) - 1):
            if dets[i] == 0.0:
                yield float(es[i])
            elif dets[i] * dets[i + 1] < 0:
                yield float(_brent(det, es[i], es[i + 1], dets[i], dets[i + 1]))


def _interior(cfg: ABConfig, kap: float, lam: float, mu: float, nu: float,
              c5: float, c6: float, r) -> np.ndarray:
    """R(r) for r <= b, matched at b to the exterior amplitude of (C5, C6),
    via scaled modified Bessel functions (no overflow even for very high
    walls)."""
    r = np.asarray(r, dtype=float)
    scale = _exterior(nu, lam * cfg.b, c5, c6)
    ratio = _ive(mu, kap * r) / _ive(mu, kap * cfg.b)
    return scale * ratio * np.exp(kap * (r - cfg.b))


@dataclass(frozen=True)
class RadialABSolution:
    E: float
    kappa: float
    lam: float
    mu: float
    nu: float
    C3: float
    C5: float
    C6: float
    r: np.ndarray
    R: np.ndarray
    u_theta: np.ndarray
    interior_mass: float
    determinants: int  # matching determinants evaluated: scan plus Brent
    config: ABConfig = field(repr=False)

    def interior_amplitude(self, r) -> np.ndarray:
        """R(r) for r <= b."""
        return _interior(self.config, self.kappa, self.lam, self.mu, self.nu,
                         self.C5, self.C6, r)


def solve_radial(cfg: ABConfig, branch: int = 0) -> RadialABSolution:
    """Find the branch-th energy eigenvalue and build the matched solution."""
    if branch < 0:
        raise ValueError("branch must be nonnegative")
    e_lo = 0.5 * cfg.uz**2
    e_hi = e_lo + cfg.phi0 + 0.5 * cfg.B0 * cfg.C1
    if e_hi <= e_lo:
        raise DomainError("no energy window: phi0 + B0 C1/2 must be positive")
    span = e_hi - e_lo
    # scan uniformly in lambda: exterior roots are spaced ~ pi/(r_out - b)
    # there, while an E-uniform scan over a tall-wall window skips them
    lam_max = np.sqrt(2.0 * span)
    n_scan = max(N_SCAN, int(16.0 * lam_max * (cfg.r_out - cfg.b) / np.pi))
    lams = np.linspace(1e-6 * lam_max, lam_max * (1.0 - 1e-9), n_scan)
    es = e_lo + 0.5 * lams**2
    # every refusal of the whole window, before the first determinant
    _kappa(cfg, es)
    nu = _window_order(abs(cfg.c2),
                       np.multiply.outer(_lambda(cfg, es), (cfg.b, cfg.r_out)))
    n_det = 0

    def det(e):
        nonlocal n_det
        n_det += np.size(e)
        return np.linalg.det(_matching_matrix(cfg, e, nu))

    roots = list(islice(_roots(det, es), branch + 1))
    if len(roots) <= branch:
        raise BranchNotFoundError(f"only {len(roots)} sign changes in the energy "
                                  f"window; branch {branch} not found")
    e = roots[branch]
    kap, lam, mu = float(_kappa(cfg, e)), float(_lambda(cfg, e)), abs(cfg.C1)
    _, _, vh = np.linalg.svd(_matching_matrix(cfg, e, nu))
    a_b, c5, c6 = vh[-1]  # null vector: (C3*I_mu(kappa b), C5, C6)
    # C3 = a_b / (ive e^(kappa b)) underflows to 0 on very high walls, never
    # overflows; the interior amplitude uses scaled ratios, never C3 itself
    ive_b = _ive(mu, kap * cfg.b)
    c3 = a_b / ive_b * np.exp(-kap * cfg.b) if ive_b > 0 else 0.0

    dr = cfg.r_out / cfg.n_r
    r = (np.arange(cfg.n_r) + 0.5) * dr
    inner = r < cfg.b
    big = np.empty_like(r)
    big[~inner] = _exterior(nu, lam * r[~inner], c5, c6)
    big[inner] = _interior(cfg, kap, lam, mu, nu, c5, c6, r[inner])
    # the null vector's sign is arbitrary: make R positive where |R| peaks
    peak = big[np.argmax(np.abs(big))]
    signed_norm = np.copysign(np.sqrt(dr * np.sum(big**2 * r)), peak)
    R = big / signed_norm
    return RadialABSolution(
        E=e, kappa=kap, lam=lam, mu=mu, nu=nu, C3=float(c3 / signed_norm),
        C5=float(c5 / signed_norm), C6=float(c6 / signed_norm), r=r, R=R,
        u_theta=u_theta_profile(cfg, r),
        interior_mass=float(dr * np.sum(R[inner] ** 2 * r[inner])),
        determinants=n_det, config=cfg,
    )


@dataclass(frozen=True)
class WallSweepReport:
    phi0: np.ndarray
    energy: np.ndarray
    kappa: np.ndarray
    interior_mass: np.ndarray
    max_interior_R: np.ndarray
    u_theta_half_b: np.ndarray  # analytic, identical across the ladder
    solutions: tuple[RadialABSolution, ...] = field(repr=False)


def wall_sweep(cfg: ABConfig, phi0_ladder, branch: int = 0) -> WallSweepReport:
    """Solve along an increasing phi0 ladder; interior u_theta stays fixed
    while the interior mass decays with the wall height."""
    phi0s = [float(p) for p in phi0_ladder]
    if len(phi0s) < 4 or any(b <= a for a, b in zip(phi0s, phi0s[1:])):
        raise ValueError("phi0 ladder must be increasing with at least 4 points")
    sols = tuple(solve_radial(replace(cfg, phi0=p0), branch) for p0 in phi0s)
    arr = np.array([
        (s.config.phi0, s.E, s.kappa, s.interior_mass,
         float(np.max(np.abs(s.R[s.r < cfg.b]))),
         float(u_theta_profile(s.config, 0.5 * cfg.b)))
        for s in sols
    ])
    return WallSweepReport(*arr.T, solutions=sols)  # columns in field order
