"""Wave fields, polar decomposition, gauge/boost transforms and process geometry.

The absolute (frame- and gauge-free) description of a state is the density
rho, the velocity u and the energy eps; R = sqrt(rho), s = -eps - u^2/2 and
j = rho u follow from them.  `extract_block` produces the processes of a
block of wave functions that share their potentials from their evolution
right-hand sides in one stacked pass; one state is a block of one row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ChartDomainError,
    ContractViolationError,
    DegenerateInputError,
    GridMismatchError,
)
from .numerics import (
    PERIODIC,
    Grid,
    check_field,
    derivative,
    fourier_multiply,
    integrate,
)

RHO_FLOOR = 1e-12


@dataclass
class WaveField:
    """Complex wave function on a grid at one instant, plus gauge/frame tags."""

    psi: np.ndarray
    grid: Grid
    time: float = 0.0
    a0: np.ndarray | None = None
    a1: np.ndarray | None = None
    frame_velocity: float = 0.0

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=complex)
        check_field(self.psi, self.grid)
        if self.a0 is None:
            self.a0 = np.zeros(self.grid.n)
        if self.a1 is None:
            self.a1 = np.zeros(self.grid.n)
        self.a0 = check_field(np.asarray(self.a0, dtype=float), self.grid)
        self.a1 = check_field(np.asarray(self.a1, dtype=float), self.grid)

    def norm_sq(self) -> float:
        return float(integrate(np.abs(self.psi) ** 2, self.grid))

    def normalized(self) -> "WaveField":
        n2 = self.norm_sq()
        if n2 <= 0:
            raise DegenerateInputError("cannot normalize a zero field")
        return replace(self, psi=self.psi / np.sqrt(n2))


@dataclass
class AbsoluteProcess:
    """The fields (rho, u, eps) on a grid at one instant; R = sqrt(rho),
    s = -eps - u^2/2 and j = rho u are computed from them when read."""

    rho: np.ndarray
    u: np.ndarray
    eps: np.ndarray
    grid: Grid
    time: float = 0.0
    flagged: np.ndarray = None  # points where rho is below the floor

    def __post_init__(self):
        for name in ("rho", "u", "eps"):
            setattr(self, name, check_field(getattr(self, name), self.grid))
        if self.flagged is None:
            self.flagged = np.zeros(self.grid.n, dtype=bool)
        if np.any(self.rho < -1e-12):
            raise ContractViolationError("rho must be nonnegative")

    @property
    def r_amp(self) -> np.ndarray:
        return np.sqrt(self.rho)

    @property
    def s(self) -> np.ndarray:
        return -self.eps - 0.5 * self.u**2

    @property
    def j(self) -> np.ndarray:
        return self.rho * self.u


@dataclass
class PolarDecomposition:
    r_amp: np.ndarray
    phase: np.ndarray
    flagged: np.ndarray


def _interpolate_flagged(values: np.ndarray, flagged: np.ndarray, x: np.ndarray):
    """Fill flagged points: linear interpolation inside the valid range and
    linear extrapolation (least-squares over the outermost valid points) in
    the tails, so smooth fields continue without kinks."""
    valid = ~flagged
    if valid.all() or not valid.any():
        return values
    out = values.copy()
    xv, yv = x[valid], values[valid]
    out[flagged] = np.interp(x[flagged], xv, yv)
    m = min(8, xv.size)
    if m >= 2:
        left = x < xv[0]
        if left.any():
            out[left] = np.polyval(np.polyfit(xv[:m], yv[:m], 1), x[left])
        right = x > xv[-1]
        if right.any():
            out[right] = np.polyval(np.polyfit(xv[-m:], yv[-m:], 1), x[right])
    return out


def _flag_below_floor(r_amp: np.ndarray):
    """rho = R^2, its peak and the points below RHO_FLOOR times the peak, of
    a field or of each row of a stack (the peak kept as a column)."""
    rho = r_amp**2
    peak = rho.max(axis=-1, keepdims=True)
    if np.any(peak == 0.0):
        raise DegenerateInputError("wave function is identically zero")
    return rho, peak, rho < RHO_FLOOR * peak


def polar_decompose(w: WaveField) -> PolarDecomposition:
    """Split psi = R exp(iS) with S unwrapped from the index of max |psi|."""
    r_amp = np.abs(w.psi)
    flagged = _flag_below_floor(r_amp)[2]
    angle = np.angle(w.psi)
    phase = np.unwrap(angle)
    i0 = int(np.argmax(r_amp))
    phase = phase - phase[i0] + angle[i0]
    phase = _interpolate_flagged(phase, flagged, w.grid.x)
    return PolarDecomposition(r_amp=r_amp, phase=phase, flagged=flagged)


def _filled(rho, u, eps, flagged, grid: Grid, time: float) -> AbsoluteProcess:
    """The process with u and eps at the flagged points filled from the rest."""
    u = _interpolate_flagged(u, flagged, grid.x)
    eps = _interpolate_flagged(eps, flagged, grid.x)
    return AbsoluteProcess(rho, u, eps, grid, time, flagged)


def series_grid(snapshots: list, least: int = 1) -> Grid:
    """The one grid of a series of snapshots (wave fields or processes),
    which must hold at least `least` of them."""
    if len(snapshots) < least:
        raise ContractViolationError(f"need at least {least} snapshots")
    g = snapshots[0].grid
    if any(s.grid != g for s in snapshots):
        raise GridMismatchError("a series' snapshots share one grid")
    return g


def extract_block(states: list, dpsi_dt) -> tuple[np.ndarray, list]:
    """Gauge-invariant fields of a block of wave functions on one grid, from
    their evolution right-hand sides `dpsi_dt` (in order, as a stack).

    u = Im(psi* dpsi/dx)/|psi|^2 - A1, eps = Im(psi* dpsi/dt)/|psi|^2 - A0,
    taken on the stack of the states in one pass; points with |psi|^2 below
    RHO_FLOOR times their row's peak are flagged and filled by
    interpolation, row by row.  eps is gauge invariant only if dpsi/dt and
    A0 come from the same potentials, so the states must share the first
    state's a0 and a1.  Returns psi' of each state (one `derivative` call
    on the stack) and each state's process.  Every step acts on each row
    alone, so a row equals its state's extraction alone bit for bit.
    """
    g = series_grid(states)
    w0 = states[0]
    if not all(np.array_equal(w.a0, w0.a0) and np.array_equal(w.a1, w0.a1)
               for w in states[1:]):
        raise ContractViolationError(
            "a block's states must share the first state's potentials a0, a1"
        )
    psi = np.array([w.psi for w in states])
    dpsi_dt = check_field(np.asarray(dpsi_dt, dtype=complex), g, stack=True)
    if dpsi_dt.shape != psi.shape:
        raise GridMismatchError(
            f"{len(states)} states with right-hand sides of shape {dpsi_dt.shape}"
        )
    dpsi_dx = derivative(psi, g, 1)
    rho, peak, flagged = _flag_below_floor(np.abs(psi))
    safe_rho = np.where(flagged, RHO_FLOOR * peak, rho)
    u = np.imag(np.conj(psi) * dpsi_dx) / safe_rho - w0.a1
    eps = np.imag(np.conj(psi) * dpsi_dt) / safe_rho - w0.a0
    return dpsi_dx, [_filled(*fields, g, w.time)
                     for w, *fields in zip(states, rho, u, eps, flagged)]


def raise_floor(p: AbsoluteProcess, floor: float) -> AbsoluteProcess:
    """A new process equal to extraction at the higher relative floor: above
    it p's u and eps are the unfilled values, and the points below it are
    filled from those alone."""
    if floor < RHO_FLOOR:
        raise ContractViolationError(f"floor {floor:g} is below RHO_FLOOR")
    flagged = p.rho < floor * p.rho.max()
    return _filled(p.rho, p.u, p.eps, flagged, p.grid, p.time)


def gauge_transform(
    w: WaveField, alpha: np.ndarray, dalpha_dt: np.ndarray | None = None
) -> WaveField:
    """Multiply psi by exp(i alpha) and shift the potentials accordingly."""
    alpha = check_field(np.asarray(alpha, dtype=float), w.grid)
    if dalpha_dt is None:
        dalpha_dt = np.zeros(w.grid.n)
    dalpha_dt = check_field(np.asarray(dalpha_dt, dtype=float), w.grid)
    return WaveField(
        psi=w.psi * np.exp(1j * alpha),
        grid=w.grid,
        time=w.time,
        a0=w.a0 + dalpha_dt,
        a1=w.a1 + derivative(alpha, w.grid, 1),
        frame_velocity=w.frame_velocity,
    )


def boost_transform(w: WaveField, v: float) -> WaveField:
    """Active boost: psi'(t, x) = psi(t, x + v t) exp(i(-v^2 t/2 - v x)), on
    a periodic grid; a box with fixed walls is not mapped onto itself."""
    if w.grid.boundary != PERIODIC:
        raise ContractViolationError(
            f"a boost needs a {PERIODIC} grid, not {w.grid.boundary}"
        )
    # periodic spectral interpolation f(x + v t)
    shift = np.exp(1j * w.grid.k * (v * w.time))
    psi_shifted = fourier_multiply(w.psi, shift)
    a0 = fourier_multiply(w.a0, shift)
    a1 = fourier_multiply(w.a1, shift)
    phase = -0.5 * v * v * w.time - v * w.grid.x
    return WaveField(
        psi=psi_shifted * np.exp(1j * phase),
        grid=w.grid,
        time=w.time,
        a0=a0,
        a1=a1,
        frame_velocity=w.frame_velocity + v,
    )


def _pair_stacks(block1: list, block2: list):
    """The psi stacks of two equally long lists of states, paired row by
    row; refused unless all share one grid, each pair one time, and every
    state is normalized."""
    if len(block1) != len(block2):
        raise ContractViolationError("states are compared in pairs")
    g = series_grid(block1 + block2)
    if any(abs(w1.time - w2.time) > 1e-12 for w1, w2 in zip(block1, block2)):
        raise ContractViolationError("states must be compared at equal times")
    stacks = np.array([w.psi for w in block1]), np.array([w.psi for w in block2])
    for psi in stacks:
        n2 = g.dx * np.sum(np.abs(psi) ** 2, axis=-1)
        off = np.abs(n2 - 1.0) > 1e-6
        if off.any():
            raise ContractViolationError(
                f"state not normalized: |psi|^2 integrates to {n2[off][0]:.6f}"
            )
    return stacks


def _overlaps(block1: list, block2: list) -> np.ndarray:
    """s_a of each pair of rows, capped at 1.  The modulus is np.hypot, which
    rounds as Python's abs(complex) does; np.abs of a complex array differs
    from it in the last bit for about a third of all values."""
    psi1, psi2 = _pair_stacks(block1, block2)
    ip = block1[0].grid.dx * np.sum(np.conj(psi1) * psi2, axis=-1)
    return np.minimum(np.hypot(ip.real, ip.imag), 1.0)


def process_distances(block1: list, block2: list) -> np.ndarray:
    """The process-space metric l = arccos s_a, in [0, pi/2], of each pair
    (block1[i], block2[i]) of two lists of states, from row-wise overlaps
    s_a = |<psi1, psi2>| of their stacks; each row is computed alone, so it
    equals its pair's block of one bit for bit."""
    return np.arccos(np.clip(_overlaps(block1, block2), 0.0, 1.0))


def chart_coordinate(psi0: WaveField, psi: WaveField) -> np.ndarray:
    """Chart vector phi = (|c|/c)(psi - c psi0), c = <psi0, psi>.

    Orthogonal to psi0 and invariant under psi -> exp(i theta) psi.
    """
    _pair_stacks([psi0], [psi])
    c = complex(integrate(np.conj(psi0.psi) * psi.psi, psi0.grid))
    if abs(c) < 1e-12:
        raise ChartDomainError("chart undefined for (near-)orthogonal states")
    return (abs(c) / c) * (psi.psi - c * psi0.psi)


def geodesic_length(psi0: WaveField, psi: WaveField, n_steps: int = 512) -> float:
    """Length of the straight chart curve phi(t) = t phi(1), trapezoid rule.

    Converges (2nd order in 1/n_steps) to arccos s_a.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    phi1 = chart_coordinate(psi0, psi)
    g = psi0.grid
    dnrm2 = float(integrate(np.abs(phi1) ** 2, g))  # |phi'|^2, the same at every t

    def integrand(t: float) -> float:
        phi = t * phi1
        nrm2 = float(integrate(np.abs(phi) ** 2, g))
        ip = complex(integrate(np.conj(phi) * phi1, g))
        val = dnrm2 + ip.real**2 / max(1.0 - nrm2, 1e-300) - ip.imag**2
        return float(np.sqrt(max(val, 0.0)))

    ts = np.linspace(0.0, 1.0, n_steps + 1)
    vals = np.array([integrand(t) for t in ts])
    return float(np.trapezoid(vals, ts))


def cotensor_boost_check(p: AbsoluteProcess, v: float) -> float:
    """Max deviation of the (eps, u) shifts the two-cotensor boost rule gives
    from the boost covariance of the fields.

    The two-cotensor of (eps, u) has z_00 = eps, z_10 = z_01 = u/2 and
    z_11 = -1/2.  Algebraic identity; deviations are pure round-off.
    """
    c00 = p.eps
    c10 = c01 = 0.5 * p.u
    c11 = np.full(p.eps.shape[0], -0.5)
    c00p = c00 + v * (c01 + c10) + v * v * c11
    c10p = c10 + v * c11
    eps_expected = p.eps + v * p.u - 0.5 * v * v
    u_expected = p.u - v
    dev_eps = float(np.max(np.abs(c00p - eps_expected)))
    dev_u = float(np.max(np.abs(2.0 * c10p - u_expected)))
    return max(dev_eps, dev_u)
