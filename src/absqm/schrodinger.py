"""Reference wave-function evolution with minimal coupling.

Dimensionless units hbar = m = e = 1 throughout.  Periodic grids use Strang
splitting with the kinetic step in Fourier space (a spatially varying vector
potential is folded in by a Peierls-type phase ramp); dirichlet grids use the
implicit midpoint rule with a direct linear solve.  The potentials A0, A1 are
those of the state, so the right-hand side and `extract_absolute` always
subtract the same A0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ContractViolationError, GridMismatchError, StabilityError
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
from .wavefield import WaveField, extract_absolute


@dataclass
class EvolutionSpec:
    """Stepping parameters for one run; the potentials are those of the
    initial state."""

    dt: float
    t_final: float

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt={self.dt!r} must be positive and finite")
        if not 0 <= self.t_final < np.inf:
            raise ValueError(f"t_final={self.t_final!r} must be nonnegative and finite")


def rhs(w: WaveField, psi: np.ndarray | None = None) -> np.ndarray:
    """d psi/dt = i[ (1/2) D^2 psi + A0 psi ], D = d/dx - i A1.

    A0 enters with the covariant-component sign (potential energy -A0), so
    eps = Im(psi* dpsi/dt)/rho - A0 is gauge invariant.  This is the free
    right-hand side of the state's own potentials.  Given `psi`, a stack
    (m, n) of wave functions on w's grid and potentials, it returns the
    right-hand side of each row, equal bit for bit to that row's own."""
    if psi is None:
        psi = w.psi
    dpsi = derivative(psi, w.grid, 1) - 1j * w.a1 * psi
    ddpsi = derivative(dpsi, w.grid, 1) - 1j * w.a1 * dpsi
    return 1j * (0.5 * ddpsi + w.a0 * psi)


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
    half = np.exp(0.5j * spec.dt * a0)

    def step(psi: np.ndarray) -> np.ndarray:
        psi = psi * half
        if ramp is not None:
            psi = psi * np.exp(-1j * ramp)
        psi = np.fft.ifft(kin * np.fft.fft(psi))
        if ramp is not None:
            psi = psi * np.exp(1j * ramp)
        return psi * half

    return step


def _dirichlet_bands(g: Grid, a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """The five diagonals of the Hermitian Hamiltonian with 4th-order
    interior stencils and zero ghost values outside the domain: row off + 2
    holds H[i, i + off] at index i (entries whose column falls off the grid
    are unused).  Each entry is computed as the dense products would."""
    bands = np.empty((5, g.n), dtype=complex)
    bands[:] = (-0.5 * (D2_WEIGHTS / (12.0 * g.dx**2)))[:, None]
    if np.any(a1 != 0.0):
        # -(a1 p + p a1)/2 with p = -i D1: a1 at the row, then at the column
        p_op = -1j * (D1_WEIGHTS / (12.0 * g.dx))
        for band, off, p in zip(bands, range(-2, 3), p_op):
            band -= 0.5 * (a1 * p + p * np.roll(a1, -off))
    bands[2] += 0.5 * a1**2 - a0
    return bands


def _dense(half: np.ndarray, combine, order: str) -> np.ndarray:
    """combine(I, H') as one dense array, H' given by its five bands."""
    n = half.shape[1]
    out = np.eye(n, dtype=complex, order=order)
    i = np.arange(n)
    for off, band in zip(range(-2, 3), half):
        rows = i[max(0, -off) : n - max(0, off)]
        out[rows, rows + off] = combine(out[rows, rows + off], band[rows])
    return out


def _implicit_midpoint_stepper(w0: WaveField, spec: EvolutionSpec):
    # only this stepper needs scipy.linalg; the other commands never load it
    from scipy.linalg import lu_factor, lu_solve

    half = 0.5j * spec.dt * _dirichlet_bands(w0.grid, w0.a0, w0.a1)
    # getrf factors a Fortran-ordered array in place; the C-ordered
    # right-hand operator keeps `rhs_m @ psi` on zgemv
    lhs = lu_factor(_dense(half, np.add, "F"), overwrite_a=True)
    rhs_m = _dense(half, np.subtract, "C")

    def step(psi: np.ndarray) -> np.ndarray:
        return lu_solve(lhs, rhs_m @ psi)

    return step


def check_step(g: Grid, dt: float) -> None:
    """Refuse a dt above the dirichlet_zero bound dx^2/pi; the Strang step
    of a periodic grid has no bound."""
    bound = g.dx**2 / np.pi
    if g.boundary == DIRICHLET and dt > bound * (1.0 + 1e-12):
        raise StabilityError(
            f"dt={dt:.3e} exceeds the dirichlet bound {bound:.3e}; "
            f"use dt <= {bound:.3e}"
        )


def snapshot_steps(n_steps: int, snapshot_every: int) -> list[int]:
    """The step counts at which a run of n_steps stores a snapshot: the
    initial state, every snapshot_every-th step and the last one."""
    return [*range(0, n_steps, snapshot_every), n_steps]


def snapshot_blocks(w0: WaveField, spec: EvolutionSpec, snapshot_every: int = 1):
    """Evolve a normalized state to t_final, yielding the snapshots in blocks
    of BLOCK_ROWS: each block is (states, their stored rhs as one (m, n)
    array).  The inputs are checked and the stepper built on the call."""
    if abs(w0.norm_sq() - 1.0) > 1e-6:
        raise ContractViolationError("initial state must be normalized")
    if snapshot_every < 1:
        raise ValueError("snapshot_every must be >= 1")
    check_step(w0.grid, spec.dt)
    if w0.grid.boundary == DIRICHLET:
        stepper = _implicit_midpoint_stepper(w0, spec)
    else:
        stepper = _strang_stepper(w0, spec)
    steps = snapshot_steps(whole_steps(spec.t_final, spec.dt), snapshot_every)
    return _blocks(w0, spec, stepper, steps)


def _blocks(w0: WaveField, spec: EvolutionSpec, stepper, steps: list[int]):
    psi, done = w0.psi.copy(), 0
    for first in range(0, len(steps), BLOCK_ROWS):
        # rebound before the steps, so the previous block's rows are not
        # kept while the next one is stepped to
        block, rows = steps[first : first + BLOCK_ROWS], []
        for k in block:
            for _ in range(done, k):
                psi = stepper(psi)
            rows.append(psi)
            done = k
        rows = np.array(rows)
        yield (
            [replace(w0, psi=row, time=w0.time + k * spec.dt)
             for row, k in zip(rows, block)],
            rhs(w0, psi=rows),
        )


def evolve(
    w0: WaveField, spec: EvolutionSpec, snapshot_every: int = 1
) -> Trajectory:
    """Evolve a normalized state to t_final, storing snapshots with rhs."""
    traj = Trajectory()
    for states, dpsi_dt in snapshot_blocks(w0, spec, snapshot_every):
        for w, dw in zip(states, dpsi_dt):
            traj.append(w, dw)
    return traj
