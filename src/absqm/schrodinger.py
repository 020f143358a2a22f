"""Reference wave-function evolution with minimal coupling.

Dimensionless units hbar = m = e = 1 throughout.  Periodic grids use Strang
splitting with the kinetic step in Fourier space (a spatially varying vector
potential is folded in by a Peierls-type phase ramp); dirichlet grids use the
implicit midpoint rule, dt <= dx^2/pi, with a direct linear solve.  The
potentials A0, A1 are those of the state, which every row of a block
shares, so the right-hand side and `extract_block` always subtract the same A0.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import DegenerateInputError
from .numerics import (
    BLOCK_ROWS,
    D1_WEIGHTS,
    D2_WEIGHTS,
    DIRICHLET,
    Grid,
    _scipy_extension,
    antiderivative_periodic,
    check_dt,
    derivative,
    fourier_multiply,
    whole_steps,
)
from .wavefield import AbsoluteProcess, WaveField, extract_block


def rhs(w: WaveField) -> np.ndarray:
    """d psi/dt = i[ (1/2) D^2 psi + A0 psi ], D = d/dx - i A1, of a wave
    field or of each row of a block, equal bit for bit to that row's own.

    A0 enters with the covariant-component sign (potential energy -A0), so
    eps = Im(psi* dpsi/dt)/rho - A0 is gauge invariant.  This is the free
    right-hand side of the state's own potentials; a zero one adds no term."""
    gauged, dpsi = np.any(w.a1 != 0.0), w.psi
    for _ in range(2):  # D psi, then D D psi
        f, dpsi = dpsi, derivative(dpsi, w.grid, 1)
        if gauged:
            dpsi -= 1j * w.a1 * f
    return 1j * (0.5 * dpsi + w.a0 * w.psi if np.any(w.a0 != 0.0) else 0.5 * dpsi)


def free_processes(w: WaveField) -> AbsoluteProcess:
    """The absolute process of a wave field or block under its own free
    right-hand side, as one `rhs` and one `extract_block` of the stack."""
    return extract_block(w, rhs(w))[1]


def _strang_stepper(w0: WaveField, dt: float):
    g, a0, a1 = w0.grid, w0.a0, w0.a1
    abar = float(a1.mean())
    kin = np.exp(-0.5j * dt * (g.k - abar) ** 2)
    half = np.exp(0.5j * dt * a0) if np.any(a0 != 0.0) else None  # e^0 = 1
    # the gauge ramp's phases e^{-i ramp} and e^{i ramp}, none for a uniform A1
    unramp = reramp = None
    if np.any(a1 != abar):
        ramp = antiderivative_periodic(a1 - abar, g)
        unramp, reramp = np.exp(-1j * ramp), np.exp(1j * ramp)

    def step(psi: np.ndarray) -> np.ndarray:
        if half is not None:
            psi = psi * half
        if unramp is not None:
            psi = psi * unramp
        psi = fourier_multiply(psi, kin)
        if reramp is not None:
            psi = psi * reramp
        return psi if half is None else psi * half

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


def _implicit_midpoint_stepper(w0: WaveField, dt: float):
    # LAPACK's zgetrf and zgetrs, the calls of `scipy.linalg.lu_factor` and
    # `lu_solve`, taken from scipy's compiled module without `scipy.linalg`
    lapack = _scipy_extension("linalg", "_flapack")
    half = 0.5j * dt * _dirichlet_bands(w0.grid, w0.a0, w0.a1)
    # getrf factors a Fortran-ordered array in place, after `lu_factor`'s
    # finiteness check; the C-ordered right-hand operator keeps
    # `rhs_m @ psi` on zgemv
    left = np.asarray_chkfinite(_dense(half, np.add, "F"))
    lu, piv, info = lapack.zgetrf(left, overwrite_a=True)
    if info != 0:
        raise DegenerateInputError(f"LU of the implicit-midpoint operator "
                                   f"failed: zgetrf info = {info}")
    rhs_m = _dense(half, np.subtract, "C")
    # `lu_solve`'s getrs without its scan per step; the block's check stays
    getrs = lapack.zgetrs

    def step(psi: np.ndarray) -> np.ndarray:
        return getrs(lu, piv, rhs_m @ psi, overwrite_b=True)[0]

    return step


def check_step(g: Grid, dt: float) -> None:
    """Refuse a dt above the dirichlet_zero bound dx^2/pi; the Strang step
    of a periodic grid has no bound."""
    check_dt(dt, g.dx**2 / np.pi if g.boundary == DIRICHLET else np.inf, "dx^2/pi")


def snapshot_steps(n_steps: int, snapshot_every: int) -> list[int]:
    """The step counts at which a run of n_steps stores a snapshot: the
    initial state, every snapshot_every-th (>= 1) step and the last one."""
    if snapshot_every < 1:
        raise ValueError("snapshot_every must be >= 1")
    return [*range(0, n_steps, snapshot_every), n_steps]


def _setup(w0: WaveField, dt: float, t_final: float, snapshot_every: int):
    """The stepper of a run and its snapshot steps, its inputs checked."""
    w0.need_one("a run")
    w0.need_normalized()
    steps = snapshot_steps(whole_steps(t_final - w0.time, dt), snapshot_every)
    check_step(w0.grid, dt)
    if w0.grid.boundary == DIRICHLET:
        return _implicit_midpoint_stepper(w0, dt), steps
    return _strang_stepper(w0, dt), steps


def _blocks(w0: WaveField, dt: float, stepper, steps: list[int], rows):
    psi, done, rows = w0.psi, 0, rows or len(steps)
    for first in range(0, len(steps), rows):
        # rebound before the steps, so the previous block is not kept while
        # the next one is stepped to
        ks = steps[first : first + rows]
        block = np.empty((len(ks), w0.grid.n), dtype=complex)
        for row, k in zip(block, ks):
            for _ in range(done, k):
                psi = stepper(psi)
            row[:] = psi
            done = k
        # one check of the block's rows, which catches a step that blew up
        yield replace(w0, psi=block, time=w0.time + np.array(ks) * dt)


def snapshot_blocks(w0: WaveField, dt: float, t_final: float, snapshot_every: int = 1):
    """Evolve a normalized state from its time to t_final, yielding the
    snapshots, at the steps of `snapshot_steps`, as blocks of BLOCK_ROWS
    rows, the last one possibly shorter.  Nothing else is yielded: the
    Schrodinger right-hand side of a block is `rhs` of it, and
    `free_processes` gives its processes.  The inputs are checked and the
    stepper built on the call."""
    return _blocks(w0, dt, *_setup(w0, dt, t_final, snapshot_every), BLOCK_ROWS)


def evolve(
    w0: WaveField, dt: float, t_final: float, snapshot_every: int = 1
) -> WaveField:
    """Evolve a normalized state from its time to t_final: the one block of
    its snapshots, at the steps of `snapshot_steps`."""
    return next(_blocks(w0, dt, *_setup(w0, dt, t_final, snapshot_every), None))
