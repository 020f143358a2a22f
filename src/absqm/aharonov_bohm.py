"""Cylindrically symmetric stationary model with a finite potential wall.

Dimensionless units hbar = m = e = 1.  Inside a cylinder of radius b there is
a uniform magnetic field B0 and a scalar potential phi(r) = phi0 - B0^2 r^2/8;
outside both vanish.  The velocity field is purely tangential,
u_theta = B0 r/2 + C1/r inside and C2/r outside with C2 = C1 + B0 b^2/2.  The
radial amplitude solves a modified Bessel equation inside (regular branch
I_mu(kappa r), mu = |C1|) and a Bessel equation outside
(C5 J_nu(lambda r) + C6 Y_nu(lambda r), nu = |C2|); the system is closed by a
hard outer box R(r_out) = 0.  The axial motion uz separates: the radial
kinetic energy E - uz^2/2 = lambda^2/2 = W - kappa^2/2 ranges over the window
W = phi0 + B0 C1/2, so the radial problem is solved in lambda alone and uz
only shifts E = uz^2/2 + lambda^2/2.  The solution is shot outward: R(b) = 1
and R'(b) = kappa I'_mu/I_mu fix C5 and C6 through the Wronskian of J and Y,
and lambda is an eigenvalue where that solution's R(r_out) is 0, scanned
SCAN_CHUNK points at a time up to the requested branch's sign change, then
found by Brent's method.  As phi0 -> infinity the interior density vanishes
while u_theta, independent of phi0, stays finite and nonzero inside.

This is the package's only user of Bessel functions.  J, Y and the scaled I
are the compiled ufuncs that `scipy.special` re-exports, loaded on the first
evaluation from their extension module alone (`_special`), so no command
imports `scipy.special` and its array-API layer; J' and Y' are formed from
them as `scipy.special.jvp` and `yvp` form theirs, to the same bits.  Brent's
method is the compiled kernel of `scipy.optimize.brentq`, loaded the same way
from `scipy.optimize._zeros`, so no command imports `scipy.optimize` either.
Each solve checks its whole window once against the validated envelope
(`_window_order`) before the first evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from itertools import islice

import numpy as np

from .errors import BranchNotFoundError, ConvergenceError, DomainError, RangeError
from .numerics import _scipy_extension

N_SCAN = 800
SCAN_CHUNK = 64  # wavenumbers per scan evaluation
ROOT_MAX_ITER = 100
# validated accuracy envelope of J_nu(x) and Y_nu(x); a window outside it is
# refused rather than risk silent inaccuracy
MAX_ORDER = 150.0
MAX_X = 1e4


def _special():
    """scipy's compiled special-function ufuncs: `jv`, `yv` and `ive` here
    are the objects `scipy.special` exports under those names."""
    return _scipy_extension("special", "_special_ufuncs")


def _prime(bessel, nu: float, x):
    """d/dx of the ufunc bessel (J or Y) of order nu at x, by the recurrence
    (L_(nu-1) - L_(nu+1)) / 2 with the upper order taken as (nu - 1) + 2, as
    `scipy.special.jvp` and `yvp` compute it, so the bits are theirs."""
    lo = nu - 1
    return (bessel(lo, x) - bessel(lo + 2, x)) / 2.0


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
        bad = [f.name for f in fields(self) if not np.isfinite(getattr(self, f.name))]
        if bad:
            raise ValueError(f"{', '.join(bad)} must be finite")
        if self.n_r != int(self.n_r):
            raise ValueError("n_r must be an integer")
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

    @property
    def window(self) -> float:
        """W = phi0 + B0 C1/2 = lambda^2/2 + kappa^2/2, the range of the
        radial kinetic energy E - uz^2/2 = lambda^2/2."""
        return self.phi0 + 0.5 * self.B0 * self.C1


def u_theta_profile(cfg: ABConfig, r):
    """Analytic piecewise tangential velocity; independent of phi0."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("u_theta is defined for r > 0 only")
    out = np.where(r < cfg.b, 0.5 * cfg.B0 * r + cfg.C1 / r, cfg.c2 / r)
    return float(out) if out.ndim == 0 else out


def _kappa(cfg: ABConfig, lam):
    """The interior decay rate at exterior wavenumber lam in the window."""
    return np.sqrt(2.0 * cfg.window - lam**2)


def _i_log_derivative(order: float, x):
    """kappa-free part of I'_mu(x)/I_mu(x), computed from scaled functions
    so it stays finite for large x."""
    if order == 0.0:
        return _ive(1.0, x) / _ive(0.0, x)
    return (_ive(order - 1.0, x) + _ive(order + 1.0, x)) / (2.0 * _ive(order, x))


def _shoot(cfg: ABConfig, lam, nu: float):
    """Exterior coefficients (C5, C6), each stacked along the shape of the
    exterior wavenumber lam, of the solution with R(b) = 1 and R'(b) = zeta
    = kappa I'_mu/I_mu(kappa b), kappa = sqrt(2 W - lam^2), from the
    Wronskian J Y' - J' Y = 2/(pi x) (DLMF 10.5.2).  nu is the exterior
    order as `_window_order` returned it for the whole window, so here the
    Bessel values are only checked finite."""
    sp = _special()
    kap = _kappa(cfg, lam)
    xb = lam * cfg.b
    zeta_lam = kap * _i_log_derivative(abs(cfg.C1), kap * cfg.b) / lam
    half = 0.5 * np.pi * xb
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        c5 = half * (_prime(sp.yv, nu, xb) - zeta_lam * sp.yv(nu, xb))
        c6 = half * (zeta_lam * sp.jv(nu, xb) - _prime(sp.jv, nu, xb))
    if not np.isfinite([c5, c6]).all():
        raise RangeError(f"J_{nu:g} or Y_{nu:g} overflows double precision "
                         f"for lambda in [{np.min(lam):g}, {np.max(lam):g}]")
    return c5, c6


def _brent(f, a, b, xtol=1e-13, rtol=1e-15):
    """Root of f in [a, b], where f(a) and f(b) differ in sign, by the
    compiled kernel that `scipy.optimize.brentq` calls, so the root is
    brentq's to the last bit; it stops once the bracket is narrower than
    xtol + rtol |x|.  A NaN value of f and an unconverged solve are refused."""
    def checked(x):
        fx = f(x)
        if np.isnan(fx):
            raise ConvergenceError(f"the function is NaN at {x!r}")
        return fx

    root, _, _, flag = _scipy_extension("optimize", "_zeros")._brentq(
        checked, a, b, xtol, rtol, ROOT_MAX_ITER, (), True, False)
    if flag != 0:
        raise ConvergenceError(f"no root within {ROOT_MAX_ITER} Brent steps")
    return root


def _roots(f, xs):
    """The zeros of f along the grid xs: a point where f is 0, else the
    root of each sign change, scanning SCAN_CHUNK points at a time."""
    fs, n = np.empty_like(xs), SCAN_CHUNK
    for a in range(0, len(xs), n):
        fs[a:a + n] = f(xs[a:a + n])
        for i in range(max(a - 1, 0), min(a + n, len(xs)) - 1):
            if fs[i] == 0.0:
                yield float(xs[i])
            elif fs[i] * fs[i + 1] < 0:
                yield _brent(f, xs[i], xs[i + 1])


def _interior(cfg: ABConfig, kap: float, mu: float, r_b: float, r) -> np.ndarray:
    """R(r) for r <= b, matched at b to the exterior amplitude r_b there,
    via scaled modified Bessel functions (no overflow even for very high
    walls)."""
    r = np.asarray(r, dtype=float)
    ratio = _ive(mu, kap * r) / _ive(mu, kap * cfg.b)
    return r_b * ratio * np.exp(kap * (r - cfg.b))


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
    # evaluations of the matching determinant in its scalar form, R(r_out)
    # of the shot solution: the scan, then brentq's, both bracket ends again
    determinants: int
    config: ABConfig = field(repr=False)

    def interior_amplitude(self, r) -> np.ndarray:
        """R(r) for r <= b."""
        r_b = _exterior(self.nu, self.lam * self.config.b, self.C5, self.C6)
        return _interior(self.config, self.kappa, self.mu, r_b, r)


def solve_radial(cfg: ABConfig, branch: int = 0) -> RadialABSolution:
    """Find the branch-th eigenvalue, as the exterior wavenumber lambda, and
    build the matched solution, whose energy is E = uz^2/2 + lambda^2/2."""
    if branch < 0:
        raise ValueError("branch must be nonnegative")
    if cfg.window <= 0:
        raise ValueError("no energy window: phi0 + B0 C1/2 must be positive")
    # scan uniformly in lambda: exterior roots are spaced ~ pi/(r_out - b)
    # there, while an E-uniform scan over a tall-wall window skips them
    lam_max = np.sqrt(2.0 * cfg.window)
    n_scan = max(N_SCAN, int(16.0 * lam_max * (cfg.r_out - cfg.b) / np.pi))
    lams = np.linspace(1e-6 * lam_max, lam_max * (1.0 - 1e-9), n_scan)
    # the whole window against the envelope, before the first evaluation of f
    nu = _window_order(abs(cfg.c2), np.multiply.outer(lams, (cfg.b, cfg.r_out)))
    n_det = 0

    def f(lam):  # R(r_out) of the shot solution: (pi b/2) times the determinant
        nonlocal n_det
        n_det += np.size(lam)
        return _exterior(nu, lam * cfg.r_out, *_shoot(cfg, lam, nu))

    roots = list(islice(_roots(f, lams), branch + 1))
    if len(roots) <= branch:
        raise BranchNotFoundError(f"only {len(roots)} sign changes in the energy "
                                  f"window; branch {branch} not found")
    lam = roots[branch]
    kap, mu = float(_kappa(cfg, lam)), abs(cfg.C1)
    c5, c6 = _shoot(cfg, lam, nu)
    # C3 = R(b) / (ive e^(kappa b)) with R(b) = 1 underflows to 0 on very high
    # walls, never overflows; the interior amplitude uses scaled ratios
    ive_b = _ive(mu, kap * cfg.b)
    c3 = np.exp(-kap * cfg.b) / ive_b if ive_b > 0 else 0.0

    dr = cfg.r_out / cfg.n_r
    r = (np.arange(cfg.n_r) + 0.5) * dr
    inner = r < cfg.b
    big = np.empty_like(r)
    big[~inner] = _exterior(nu, lam * r[~inner], c5, c6)
    big[inner] = _interior(cfg, kap, mu, 1.0, r[inner])
    # make R positive where |R| peaks
    peak = big[np.argmax(np.abs(big))]
    signed_norm = np.copysign(np.sqrt(dr * np.sum(big**2 * r)), peak)
    R = big / signed_norm
    return RadialABSolution(
        E=0.5 * cfg.uz**2 + 0.5 * lam**2, kappa=kap, lam=lam, mu=mu, nu=nu,
        C3=float(c3 / signed_norm), C5=float(c5 / signed_norm),
        C6=float(c6 / signed_norm), r=r, R=R, u_theta=u_theta_profile(cfg, r),
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
