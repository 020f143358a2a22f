"""Uniform 1D grids, differentiation and quadrature.

All physics modules share these primitives.  Grids are uniform with
midpoint sampling: the n sample points are x_min + (j + 1/2) dx,
dx = (x_max - x_min)/n, so symmetric domains have exactly symmetric
sample points and the periodic trapezoid rule reduces to dx * sum.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cache, cached_property
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from numbers import Integral

import numpy as np

from .errors import ContractViolationError, GridMismatchError, StabilityError

PERIODIC = "periodic"
DIRICHLET = "dirichlet_zero"
# Snapshots per block of `schrodinger.snapshot_blocks`, each block one
# `derivative` call per field.  At n=2048 a stack of 8 complex rows (256 KB)
# transforms in 44 us per row against 95 for one row and 78 for 16 rows
# (2-core host, 4 MiB L2), and keeps each block's temporaries near 1 MB.
BLOCK_ROWS = 8


@dataclass(frozen=True)
class Grid:
    """Uniform 1D spatial sampling."""

    x_min: float
    x_max: float
    n: int
    boundary: str = PERIODIC

    def __post_init__(self):
        for name, value in (("x_min", self.x_min), ("x_max", self.x_max)):
            if not np.isfinite(value):
                raise ValueError(f"{name}={value!r} must be finite")
        if self.x_max <= self.x_min:
            raise ValueError("x_max must exceed x_min")
        if not isinstance(self.n, Integral):
            raise ValueError(f"n={self.n!r} must be an integer")
        if self.n < 8:
            raise ValueError("need at least 8 grid points")
        if self.boundary not in (PERIODIC, DIRICHLET):
            raise ValueError(f"unknown boundary mode {self.boundary!r}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @cached_property
    def x(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n) + 0.5) * self.dx

    @cached_property
    def k(self) -> np.ndarray:
        """Angular wavenumbers for the periodic FFT representation."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    @cached_property
    def ik(self) -> np.ndarray:
        """The first-derivative multiplier 1j * k, read-only, with the
        unpaired Nyquist mode of an even n zeroed."""
        ik = 1j * self.k
        if self.n % 2 == 0:
            ik[self.n // 2] = 0.0
        ik.flags.writeable = False
        return ik

    def need_periodic(self, who: str) -> None:
        """Refuse a grid with walls where `who` needs a periodic one."""
        if self.boundary != PERIODIC:
            raise ContractViolationError(
                f"{who} needs a {PERIODIC} grid, not {self.boundary}")


@cache
def _scipy_extension(package: str, name: str):
    """The compiled extension module `scipy.<package>.<name>`, where package
    may be nested ("fft._pocketfft"), loaded without running the `__init__`
    of `scipy.<package>` or of a package above it, whose array-API layer
    costs about 0.2 s and 20 MB on import.  A module scipy's package already loaded is
    that one; a module loaded here is registered under its full name, so a
    later import of the package takes it and a process holds one copy."""
    full = f"scipy.{package}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    import scipy

    path = "/".join((scipy.__path__[0], *package.split(".")))
    spec = PathFinder.find_spec(full, [path])
    if spec is None:
        raise ModuleNotFoundError(f"scipy {scipy.__version__} has no compiled "
                                  f"module {full}", name=full)
    module = module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    return module


# The transforms below are numpy.fft's, bit for bit: numpy vendors the same
# pocketfft library, and scipy's compiled module `pypocketfft` runs it without
# numpy.fft's frontend, which costs 4-7 us of a 9-21 us call at n = 1024-2048
# (2-core host).  Each transforms the last axis on one thread; out= may be the
# input of the complex pair.
_LAST_AXIS = (-1,)


def _pocketfft():
    """scipy's compiled pocketfft module, loaded on the first transform."""
    return _scipy_extension("fft._pocketfft", "pypocketfft")


def cfft(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """numpy.fft.fft(a): the unnormalised complex forward transform.  A real a
    is cast to complex first; pocketfft's own real path differs from numpy's
    in the last bits."""
    return _pocketfft().c2c(np.asarray(a, dtype=complex), _LAST_AXIS, True, 0, out, 1)


def icfft(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """numpy.fft.ifft(a): the complex inverse transform, scaled by 1/n."""
    return _pocketfft().c2c(np.asarray(a, dtype=complex), _LAST_AXIS, False, 2, out, 1)


def rfft(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """numpy.fft.rfft(a): the n//2 + 1 nonnegative-frequency coefficients of
    a real a."""
    return _pocketfft().r2c(np.asarray(a, dtype=float), _LAST_AXIS, True, 0, out, 1)


def irfft(a: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """numpy.fft.irfft(a, n): the real inverse to n points of n//2 + 1
    coefficients, scaled by 1/n."""
    return _pocketfft().c2r(np.asarray(a, dtype=complex), _LAST_AXIS, n, False, 2, out, 1)


def check_dt(dt: float, bound: float = np.inf, rule: str = "") -> None:
    """Refuse a step dt that is not positive and finite, or above a scheme's
    stability bound (named by its rule, e.g. "dx/c") by over 1e-12 relative."""
    if not 0 < dt < np.inf:
        raise ContractViolationError(f"step dt={dt!r} must be positive and finite")
    if dt > bound * (1.0 + 1e-12):
        raise StabilityError(f"dt={dt:.3e} exceeds the bound {rule} = {bound:.3e}")


def whole_steps(span: float, dt: float) -> int:
    """Steps of dt that cover span, which must be a finite, nonnegative whole
    multiple of a finite dt > 0."""
    check_dt(dt)
    if not np.isfinite(span):
        raise ContractViolationError(f"span {span!r} must be finite")
    if span < 0:
        raise ContractViolationError(f"span {span!r} must be nonnegative")
    n_steps = int(round(span / dt))
    if abs(n_steps * dt - span) > 1e-9 * span:
        raise ContractViolationError(f"span {span:g} is not a multiple of dt={dt:g}")
    return n_steps


def uniform_spacing(times: np.ndarray) -> float:
    """The common step of two or more snapshot times, which must be evenly
    spaced (to 1e-9 relative) for the centered differences of `centered`."""
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=1e-12):
        raise ContractViolationError("snapshots must be uniformly spaced in time")
    return float(dts[0])


def centered(series: np.ndarray, dt: float):
    """Centered first and second differences in time of a series sampled
    every dt (along its first axis), at its interior samples."""
    d1 = (series[2:] - series[:-2]) / (2.0 * dt)
    d2 = (series[2:] - 2.0 * series[1:-1] + series[:-2]) / dt**2
    return d1, d2


def check_field(f: np.ndarray, g: Grid, stack: bool = False) -> np.ndarray:
    """f as an array of shape (n,), or with `stack` also a stack of fields
    shaped (m, n); refused if any value is not finite."""
    f = np.asarray(f)
    if f.shape[-1:] != (g.n,) or f.ndim > (2 if stack else 1):
        raise GridMismatchError(f"field of shape {f.shape} on grid with n={g.n}")
    if not np.isfinite(f).all():
        raise GridMismatchError("field contains non-finite values")
    return f


# 4th-order finite-difference stencils (uniform grid).  Boundary rows use
# one-sided stencils of the same order, so polynomials up to degree 4 (first
# derivative) / degree 3 (second derivative, degree 5 in the interior) are
# differentiated exactly everywhere.  D1_WEIGHTS and D2_WEIGHTS are the
# interior weights at offsets -2..2 in units of 1/12.
D1_WEIGHTS = np.array([1.0, -8.0, 0.0, 8.0, -1.0])
D2_WEIGHTS = np.array([-1.0, 16.0, -30.0, 16.0, -1.0])
_D1_INTERIOR = D1_WEIGHTS / 12.0
_D1_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_D1_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
_D2_INTERIOR = D2_WEIGHTS / 12.0
_D2_EDGE0 = np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0]) / 12.0
_D2_EDGE1 = np.array([10.0, -15.0, -4.0, 14.0, -6.0, 1.0]) / 12.0


def _fd_derivative(f: np.ndarray, dx: float, order: int) -> np.ndarray:
    """The stencil derivative of a real field, or of each row of a stack."""
    # as floats: a buffer of an integer f's dtype would truncate the rows
    f = np.asarray(f, dtype=float)
    if f.ndim == 2:
        return np.array([_fd_derivative(row, dx, order) for row in f])
    n = f.size
    out = np.empty_like(f)
    if order == 1:
        core = _D1_INTERIOR
        e0, e1 = _D1_EDGE0, _D1_EDGE1
        scale = dx
    else:
        core = _D2_INTERIOR
        e0, e1 = _D2_EDGE0, _D2_EDGE1
        scale = dx * dx
    if n >= 5:
        out[2 : n - 2] = np.convolve(f, core[::-1], mode="valid")
    m = e0.size
    out[0] = e0 @ f[:m]
    out[1] = e1 @ f[:m]
    sgn = -1.0 if order == 1 else 1.0
    out[-1] = sgn * (e0 @ f[-1 : -m - 1 : -1])
    out[-2] = sgn * (e1 @ f[-1 : -m - 1 : -1])
    return out / scale


def fourier_multiply(f: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
    """ifft(multiplier * fft(f)) along the last axis: the periodic Fourier
    multiplier of a field or a stack of fields, real for a real f; in place,
    multiplier first (numpy's complex product is not bitwise commutative)."""
    spec = cfft(f)
    room = np.ndim(multiplier) <= spec.ndim  # not for a stack from one field
    spec = np.multiply(multiplier, spec, out=spec if room else None)
    out = icfft(spec, out=spec)
    if np.isrealobj(f):
        return out.real.copy()
    return out


def derivative(f: np.ndarray, g: Grid, order: int = 1) -> np.ndarray:
    """Spatial derivative of a field, or of each row of a stack (m, n) of
    fields, on its grid.

    Spectral on periodic grids, 4th-order central differences (one-sided at
    the edges) on dirichlet_zero grids.  A stack takes one transform pair on
    a periodic grid and the stencil row by row otherwise, so each row equals
    the derivative of that row alone bit for bit.
    """
    f = check_field(f, g, stack=True)
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if g.boundary == PERIODIC:
        return fourier_multiply(f, g.ik if order == 1 else -(g.k**2))
    if np.iscomplexobj(f):
        return _fd_derivative(f.real, g.dx, order) + 1j * _fd_derivative(
            f.imag, g.dx, order
        )
    return _fd_derivative(f, g.dx, order)


def integrate(f: np.ndarray, g: Grid):
    """Quadrature of f over the grid domain, or of each row of a stack.

    Midpoint/trapezoid rule dx * sum; spectrally accurate for smooth periodic
    integrands, 2nd order otherwise.
    """
    f = check_field(f, g, stack=True)
    return g.dx * f.sum(axis=-1)


def l2_norm(values: np.ndarray, g: Grid, mask: np.ndarray | None = None):
    """sqrt(dx * sum values^2) of a field, or of each row of a stack, over
    the points of mask (of values' shape) if one is given.  Each row is
    summed alone, so it equals its own norm bit for bit."""
    if mask is None:
        return np.sqrt(g.dx * np.sum(values**2, axis=-1))
    sq = [np.sum(v[m] ** 2)
          for v, m in zip(np.atleast_2d(values), np.atleast_2d(mask))]
    return np.sqrt(g.dx * np.reshape(sq, values.shape[:-1]))


def antiderivative_periodic(f: np.ndarray, g: Grid) -> np.ndarray:
    """Spectral antiderivative on a periodic grid.

    Returns F with F' = f (spectrally) and the mean of f carried as a linear
    ramp mean(f) * x; F is only periodic when mean(f) * L is a multiple of 2pi.
    """
    f = check_field(f, g)
    mean = f.mean()
    fk = cfft(f - mean)
    Fk = np.divide(fk, 1j * g.k, out=np.zeros_like(fk), where=g.k != 0.0)
    F = icfft(Fk, out=Fk)
    if np.isrealobj(f):
        F = F.real
    return F + mean * g.x
