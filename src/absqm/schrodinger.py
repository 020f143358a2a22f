"""Reference wave-function evolution with minimal coupling.

Dimensionless units hbar = m = e = 1 throughout.  Periodic grids use Strang
splitting with the kinetic step in Fourier space (a spatially varying vector
potential is folded in by a Peierls-type phase ramp); dirichlet grids use the
implicit midpoint rule with a direct linear solve and fixed-point iteration
on the nonlinear term.  The potentials A0, A1 are those of the state, so the
right-hand side and `extract_absolute` always subtract the same A0.
Process-dependent nonlinear terms (NLS or logarithmic) enter as a pointwise
real potential K0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import (
    ContractViolationError,
    ConvergenceError,
    GridMismatchError,
    StabilityError,
)
from .numerics import (
    BLOCK_ROWS,
    D1_WEIGHTS,
    D2_WEIGHTS,
    DIRICHLET,
    Grid,
    antiderivative_periodic,
    derivative,
    derivatives,
    whole_steps,
)
from .wavefield import RHO_FLOOR, WaveField, extract_absolute

FIXED_POINT_MAX_ITER = 100
FIXED_POINT_TOL = 1e-13


@dataclass(frozen=True)
class Nonlinearity:
    """Pointwise real process-dependent term K0 added to the potential."""

    kind: str = "none"  # none | nls | log_bbm
    k: float = 0.0
    k1: float = 0.0
    k2: float = 1.0

    def __post_init__(self):
        if self.kind not in ("none", "nls", "log_bbm"):
            raise ValueError(f"unknown nonlinearity {self.kind!r}")


NONE = Nonlinearity()


def nonlinear_potential(nl: Nonlinearity, psi: np.ndarray) -> np.ndarray:
    """Evaluate K0 for a wave function, or for each row of a stack of them;
    |psi| = 0 points are floored (relative to each row's peak) and harmless."""
    if nl.kind == "none":
        return np.zeros(psi.shape)
    rho = np.abs(psi) ** 2
    if nl.kind == "nls":
        return nl.k * rho
    floor = RHO_FLOOR * np.maximum(rho.max(axis=-1, keepdims=True), 1e-300)
    r = np.sqrt(np.maximum(rho, floor))
    return nl.k1 * np.log(nl.k2 * r)


@dataclass
class EvolutionSpec:
    """Stepping parameters and nonlinear term for one run; the potentials
    are those of the initial state."""

    dt: float
    t_final: float
    nonlinear: Nonlinearity = NONE

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_final < 0:
            raise ValueError("t_final must be nonnegative")


def rhs(
    w: WaveField, nonlinear: Nonlinearity = NONE, psi: np.ndarray | None = None
) -> np.ndarray:
    """d psi/dt = i[ (1/2) D^2 psi + A0 psi - K0 psi ], D = d/dx - i A1.

    A0 enters with the covariant-component sign (potential energy -A0), so
    eps = Im(psi* dpsi/dt)/rho - A0 is gauge invariant; K0 is an ordinary
    potential-energy term.  With the default `nonlinear` this is the free
    right-hand side of the state's own potentials.  Given `psi`, a stack
    (m, n) of wave functions on w's grid and potentials, it returns the
    right-hand side of each row, equal bit for bit to that row's own."""
    if psi is None:
        psi = w.psi
    dpsi = derivative(psi, w.grid, 1) - 1j * w.a1 * psi
    ddpsi = derivative(dpsi, w.grid, 1) - 1j * w.a1 * dpsi
    k0 = nonlinear_potential(nonlinear, psi)
    return 1j * (0.5 * ddpsi + (w.a0 - k0) * psi)


@dataclass
class Trajectory:
    """Time-ordered snapshots with the stored evolution right-hand side."""

    states: list = field(default_factory=list)
    rhs_values: list = field(default_factory=list)
    _processes: list | None = field(default=None, init=False, repr=False)

    @property
    def times(self) -> np.ndarray:
        return np.array([w.time for w in self.states])

    def __len__(self) -> int:
        return len(self.states)

    def append(self, w: WaveField, dpsi_dt: np.ndarray):
        if self.states and w.grid != self.states[0].grid:
            raise GridMismatchError("a trajectory's snapshots share one grid")
        self.states.append(w)
        self.rhs_values.append(dpsi_dt)
        self._processes = None

    def processes(self) -> list:
        """Each snapshot's process, extracted once (the list is shared and
        kept until the next `append`); psi' is taken in blocks of snapshots."""
        if self._processes is None:
            psis = (w.psi for w in self.states)
            dpsi_dx = derivatives(psis, self.states[0].grid) if self.states else ()
            self._processes = [
                extract_absolute(w, dw, dpsi_dx=d)
                for w, dw, d in zip(self.states, self.rhs_values, dpsi_dx)
            ]
        return self._processes


def _strang_stepper(w0: WaveField, spec: EvolutionSpec):
    g, a0, a1 = w0.grid, w0.a0, w0.a1
    abar = float(a1.mean())
    ramp = antiderivative_periodic(a1 - abar, g) if np.any(a1 != abar) else None
    kin = np.exp(-0.5j * spec.dt * (g.k - abar) ** 2)
    # a linear run's potential half step is the same every step
    fixed_half = (
        np.exp(0.5j * spec.dt * a0) if spec.nonlinear.kind == "none" else None
    )

    def half(psi: np.ndarray) -> np.ndarray:
        if fixed_half is not None:
            return fixed_half
        k0 = nonlinear_potential(spec.nonlinear, psi)
        return np.exp(0.5j * spec.dt * (a0 - k0))

    def step(psi: np.ndarray, t: float) -> np.ndarray:
        psi = psi * half(psi)
        if ramp is not None:
            psi = psi * np.exp(-1j * ramp)
        psi = np.fft.ifft(kin * np.fft.fft(psi))
        if ramp is not None:
            psi = psi * np.exp(1j * ramp)
        return psi * half(psi)

    return step


def _dirichlet_matrices(g: Grid, a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """Hermitian Hamiltonian matrix with 4th-order interior stencils and
    zero ghost values outside the domain."""

    def stencil(weights: np.ndarray, order: int) -> np.ndarray:
        coeffs = weights / (12.0 * g.dx**order)
        return sum(c * np.eye(g.n, k=off) for off, c in zip(range(-2, 3), coeffs))

    h = (-0.5 * stencil(D2_WEIGHTS, 2)).astype(complex)
    if np.any(a1 != 0.0):
        p_op = -1j * stencil(D1_WEIGHTS, 1)
        da1 = np.diag(a1)
        h = h - 0.5 * (da1 @ p_op + p_op @ da1)
    h = h + np.diag(0.5 * a1**2 - a0)
    return h


def _implicit_midpoint_stepper(w0: WaveField, spec: EvolutionSpec):
    g, a0, a1 = w0.grid, w0.a0, w0.a1
    h = _dirichlet_matrices(g, a0, a1)
    ident = np.eye(g.n, dtype=complex)
    lhs = lu_factor(ident + 0.5j * spec.dt * h)
    rhs_m = ident - 0.5j * spec.dt * h
    linear = spec.nonlinear.kind == "none"

    def step(psi: np.ndarray, t: float) -> np.ndarray:
        base = rhs_m @ psi
        new = lu_solve(lhs, base)
        if linear:
            return new
        for _ in range(FIXED_POINT_MAX_ITER):
            mid = 0.5 * (psi + new)
            k0 = nonlinear_potential(spec.nonlinear, mid)
            candidate = lu_solve(
                lhs, base - 1j * spec.dt * k0 * mid, check_finite=False
            )
            if not np.all(np.isfinite(candidate)):
                raise ConvergenceError(
                    f"implicit midpoint fixed point diverged at t={t:.6g}"
                )
            update = float(np.max(np.abs(candidate - new)))
            if update < FIXED_POINT_TOL:
                return candidate
            new = candidate
        raise ConvergenceError(
            f"implicit midpoint fixed point did not converge at t={t:.6g}: "
            f"last update {update:.2e} after {FIXED_POINT_MAX_ITER} iterations"
        )

    return step


def evolve(
    w0: WaveField, spec: EvolutionSpec, snapshot_every: int = 1
) -> Trajectory:
    """Evolve a normalized state to t_final, storing snapshots with rhs."""
    if abs(w0.norm_sq() - 1.0) > 1e-6:
        raise ContractViolationError("initial state must be normalized")
    if snapshot_every < 1:
        raise ValueError("snapshot_every must be >= 1")
    g = w0.grid
    if g.boundary == DIRICHLET:
        bound = g.dx**2 / np.pi
        if spec.dt > bound * (1.0 + 1e-12):
            raise StabilityError(
                f"dt={spec.dt:.3e} exceeds the dirichlet bound {bound:.3e}; "
                f"use dt <= {bound:.3e}"
            )
        stepper = _implicit_midpoint_stepper(w0, spec)
    else:
        stepper = _strang_stepper(w0, spec)

    n_steps = whole_steps(spec.t_final, spec.dt)
    psi = w0.psi.copy()
    t = w0.time
    traj = Trajectory()

    pending = []  # (psi, t) of the snapshots whose rhs is still to take

    def flush():
        rows = np.array([psi for psi, _ in pending])
        dpsi_dt = rhs(w0, spec.nonlinear, psi=rows)
        for (_, t), row, dw in zip(pending, rows, dpsi_dt):
            traj.append(replace(w0, psi=row, time=t), dw)
        pending.clear()

    def snapshot(psi, t):
        pending.append((psi, t))
        if len(pending) == BLOCK_ROWS:
            flush()

    snapshot(psi, t)
    for i in range(n_steps):
        psi = stepper(psi, t)
        t = w0.time + (i + 1) * spec.dt
        if (i + 1) % snapshot_every == 0 or i == n_steps - 1:
            snapshot(psi, t)
    if pending:
        flush()
    return traj
