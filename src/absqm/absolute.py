"""Residual evaluators for the absolute equation system.

These are diagnostics per snapshot and over trajectories: the mass-shell
relation s R + (1/2) R'' = 0, the continuity equation d rho/dt + d j/dx = 0,
and the force balance d u/dt + u u' + s' = E.  The per-snapshot norms
`continuity_norm` and `force_norm` take time derivatives from the stored
evolution right-hand side (exact in time); the series over a `Trajectory`
take them as centered differences over snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .numerics import _fd_derivative, check_field, derivative, derivatives, l2_norm
from .schrodinger import Trajectory
from .wavefield import AbsoluteProcess, raise_floor

# u and s divide by rho: below this floor they are round-off amplified by 1/rho,
# so the force residual fills them there and leaves those points out of its norm.
FORCE_RHO_FLOOR = 1e-6


def residual_mass_shell(
    p: AbsoluteProcess, d2r_amp: np.ndarray | None = None
) -> np.ndarray:
    """Pointwise s R + (1/2) R''; `d2r_amp` is R'' when the caller already
    has it."""
    if d2r_amp is None:
        d2r_amp = derivative(p.r_amp, p.grid, 2)
    return p.s * p.r_amp + 0.5 * d2r_amp


def mass_shell_norm(p: AbsoluteProcess, d2r_amp: np.ndarray | None = None) -> float:
    return l2_norm(residual_mass_shell(p, d2r_amp), p.grid, ~p.flagged)


@dataclass(frozen=True)
class ResidualSeries:
    times: np.ndarray
    values: np.ndarray


def _widen(mask: np.ndarray) -> np.ndarray:
    """mask grown by 3 points on each side; outside the grid counts as False."""
    return np.convolve(mask, np.ones(7), mode="same") > 0


def continuity_norm(p: AbsoluteProcess, psi, dpsi_dt, dj_dx) -> float:
    """|| d rho/dt + d j/dx ||_2 at one snapshot, d rho/dt from the stored
    right-hand side; `dj_dx` is the derivative of p.j."""
    drho_dt = 2.0 * np.real(np.conj(psi) * dpsi_dt)
    return l2_norm(drho_dt + dj_dx, p.grid, ~p.flagged)


def residual_continuity(traj: Trajectory) -> ResidualSeries:
    """|| d rho/dt + d j/dx ||_2 per interior snapshot, d rho/dt a centered
    difference over snapshots; d j/dx is taken in blocks of snapshots."""
    if len(traj) < 3:
        raise ContractViolationError("need at least 3 snapshots")
    procs = traj.processes()
    times = traj.times
    g = procs[0].grid
    interior = range(1, len(procs) - 1)
    dj_dx = derivatives((procs[i].j for i in interior), g)
    vals = []
    for i, dj in zip(interior, dj_dx):
        span = times[i + 1] - times[i - 1]
        drho_dt = (procs[i + 1].rho - procs[i - 1].rho) / span
        vals.append(l2_norm(drho_dt + dj, g, ~procs[i].flagged))
    return ResidualSeries(times=times[1:-1], values=np.array(vals))


def _force_norm(p: AbsoluteProcess, du_dt, e_field, mask) -> float:
    # local 4th-order stencils rather than spectral derivatives: u and s
    # continue as linear extrapolations through the tails, and a global
    # (Fourier) derivative of those unbounded tails rings into the
    # resolved interior
    du_dx = _fd_derivative(p.u, p.grid.dx, 1)
    ds_dx = _fd_derivative(p.s, p.grid.dx, 1)
    res = du_dt + p.u * du_dx + ds_dx - e_field
    return l2_norm(res, p.grid, mask)


def force_norm(p: AbsoluteProcess, psi, dpsi_dt, dpsi_dx, ddw_dx, e_field) -> float:
    """|| d u/dt + u u' + s' - E ||_2 at one snapshot (1+1D), on p raised to
    FORCE_RHO_FLOOR, d u/dt from the stored right-hand side; `dpsi_dx` and
    `ddw_dx` are the derivatives of psi and dpsi_dt."""
    p = raise_floor(p, FORCE_RHO_FLOOR)
    safe = np.maximum(p.rho, 1e-150)  # safe**2 must not underflow
    wcur = np.imag(np.conj(psi) * dpsi_dx)
    wdot = np.imag(np.conj(dpsi_dt) * dpsi_dx + np.conj(psi) * ddw_dx)
    drho_dt = 2.0 * np.real(np.conj(psi) * dpsi_dt)
    du_dt = np.where(p.flagged, 0.0, (wdot * safe - wcur * drho_dt) / (safe**2))
    # drop points whose stencil reaches into the interpolated region: the
    # interpolant is only C^0 there, so derivatives across the seam carry
    # O(1) kink errors
    return _force_norm(p, du_dt, e_field, ~_widen(p.flagged))


def residual_force(traj: Trajectory, e_field: np.ndarray) -> ResidualSeries:
    """|| d u/dt + u u' + s' - E ||_2 per interior snapshot, on the processes
    raised to FORCE_RHO_FLOOR, three at a time; d u/dt is a centered
    difference over snapshots."""
    if len(traj) < 3:
        raise ContractViolationError("need at least 3 snapshots")
    procs = traj.processes()
    times = traj.times
    e_field = check_field(np.asarray(e_field, dtype=float), procs[0].grid)
    prev, p = (raise_floor(procs[i], FORCE_RHO_FLOOR) for i in (0, 1))
    vals = []
    for i in range(1, len(procs) - 1):
        nxt = raise_floor(procs[i + 1], FORCE_RHO_FLOOR)
        du_dt = (nxt.u - prev.u) / (times[i + 1] - times[i - 1])
        # neighbor snapshots contribute interpolated values where they are
        # flagged; exclude those points from the norm
        mask = ~(_widen(p.flagged) | prev.flagged | nxt.flagged)
        vals.append(_force_norm(p, du_dt, e_field, mask))
        prev, p = p, nxt
    return ResidualSeries(times=times[1:-1], values=np.array(vals))
