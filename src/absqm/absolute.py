"""Residual evaluators for the absolute equation system.

These are diagnostics over trajectories: the mass-shell relation
s R + (1/2) R'' = 0, the continuity equation d rho/dt + d j/dx = 0, and the
force balance d u/dt + u u' + s' = E.  Time derivatives come either from the
stored evolution right-hand side (exact in time) or from centered differences
over snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .numerics import _fd_derivative, check_field, derivative, derivatives, l2_norm
from .schrodinger import Trajectory
from .wavefield import AbsoluteProcess, CotensorW, raise_floor

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


def residual_continuity(
    traj: Trajectory, use_stored_rhs: bool = True
) -> ResidualSeries:
    """|| d rho/dt + d j/dx ||_2 per interior snapshot; d j/dx is taken in
    blocks of snapshots."""
    if len(traj) < 3:
        raise ContractViolationError("need at least 3 snapshots")
    procs = traj.processes()
    times = traj.times
    g = procs[0].grid
    interior = range(1, len(procs) - 1)
    dj_dx = derivatives((procs[i].j for i in interior), g)
    vals, ts = [], []
    for i, dj in zip(interior, dj_dx):
        p = procs[i]
        if use_stored_rhs:
            w, dw = traj.states[i], traj.rhs_values[i]
            drho_dt = 2.0 * np.real(np.conj(w.psi) * dw)
        else:
            span = times[i + 1] - times[i - 1]
            drho_dt = (procs[i + 1].rho - procs[i - 1].rho) / span
        res = drho_dt + dj
        vals.append(l2_norm(res, g, ~p.flagged))
        ts.append(times[i])
    return ResidualSeries(times=np.array(ts), values=np.array(vals))


def residual_force(
    traj: Trajectory, e_field: np.ndarray, use_stored_rhs: bool = True
) -> ResidualSeries:
    """|| d u/dt + u u' + s' - E ||_2 per interior snapshot (1+1D), on the
    processes raised to FORCE_RHO_FLOOR, three at a time.  With the stored
    right-hand side, psi' and d psi'/dt are taken in blocks of snapshots."""
    if len(traj) < 3:
        raise ContractViolationError("need at least 3 snapshots")
    procs = traj.processes()
    times = traj.times
    g = procs[0].grid
    e_field = check_field(np.asarray(e_field, dtype=float), g)

    def raised(i: int) -> AbsoluteProcess | None:
        # the stored right-hand side stands in for the end snapshots
        if use_stored_rhs and i in (0, len(procs) - 1):
            return None
        return raise_floor(procs[i], FORCE_RHO_FLOOR)

    interior = range(1, len(procs) - 1)
    if use_stored_rhs:
        dpsi_dx_of = derivatives((traj.states[i].psi for i in interior), g)
        ddw_dx_of = derivatives((traj.rhs_values[i] for i in interior), g)
    prev, p = raised(0), raised(1)
    vals, ts = [], []
    for i in interior:
        nxt = raised(i + 1)
        # local 4th-order stencils rather than spectral derivatives: u and s
        # continue as linear extrapolations through the tails, and a global
        # (Fourier) derivative of those unbounded tails rings into the
        # resolved interior
        du_dx = _fd_derivative(p.u, g.dx, 1)
        ds_dx = _fd_derivative(p.s, g.dx, 1)
        # drop points whose stencil reaches into the interpolated region:
        # the interpolant is only C^0 there, so derivatives across the seam
        # carry O(1) kink errors
        mask = ~_widen(p.flagged)
        if use_stored_rhs:
            w, dw = traj.states[i], traj.rhs_values[i]
            safe = np.maximum(p.rho, 1e-150)  # safe**2 must not underflow
            dpsi_dx = next(dpsi_dx_of)
            wcur = np.imag(np.conj(w.psi) * dpsi_dx)
            wdot = np.imag(
                np.conj(dw) * dpsi_dx + np.conj(w.psi) * next(ddw_dx_of)
            )
            drho_dt = 2.0 * np.real(np.conj(w.psi) * dw)
            du_dt = np.where(
                p.flagged, 0.0, (wdot * safe - wcur * drho_dt) / (safe**2)
            )
        else:
            du_dt = (nxt.u - prev.u) / (times[i + 1] - times[i - 1])
            # neighbor snapshots contribute interpolated values where they
            # are flagged; exclude those points from the norm
            mask &= ~(prev.flagged | nxt.flagged)
        res = du_dt + p.u * du_dx + ds_dx - e_field
        vals.append(l2_norm(res, g, mask))
        ts.append(times[i])
        prev, p = p, nxt
    return ResidualSeries(times=np.array(ts), values=np.array(vals))


def build_cotensor(p: AbsoluteProcess, density_weighted: bool = False) -> CotensorW:
    """Fill the three-cotensor component table from (eps, u)."""
    return CotensorW(
        eps=p.eps.copy(), u=p.u.copy(), rho=p.rho.copy() if density_weighted else None
    )


def recover_fields(ct: CotensorW) -> tuple[np.ndarray, np.ndarray]:
    """Invert build_cotensor: (eps, u) from the component table."""
    eps = ct.component(0, 0, 0)
    u = ct.component(1, 0, 0)
    if ct.rho is not None:
        safe = np.where(ct.rho > 0, ct.rho, 1.0)
        eps = np.where(ct.rho > 0, eps / safe, 0.0)
        u = np.where(ct.rho > 0, u / safe, 0.0)
    return eps, u
