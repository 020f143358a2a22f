"""Residual evaluators for the absolute equation system.

These are diagnostics per snapshot and over trajectories: the mass-shell
relation s R + (1/2) R'' = 0, the continuity equation d rho/dt + d j/dx = 0,
and the force balance d u/dt + u u' + s' = E.  The per-snapshot norms take a
process or a block, take its spatial derivatives themselves and give one
norm per row; `continuity_norm` and `force_norm` take time derivatives from
the Schrodinger right-hand side of the snapshots (exact in time), while the
series over a block take them as centered differences between its rows, at
each row's own time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import _fd_derivative, check_field, derivative, l2_norm
from .wavefield import AbsoluteProcess, need_rows, raise_floor

# u and s divide by rho: below this floor they are round-off amplified by 1/rho,
# so the force residual fills them there and leaves those points out of its norm.
FORCE_RHO_FLOOR = 1e-6


def residual_mass_shell(p: AbsoluteProcess) -> np.ndarray:
    """Pointwise s R + (1/2) R''."""
    d2r_amp = derivative(p.r_amp, p.grid, 2)
    return p.s * p.r_amp + 0.5 * d2r_amp


def mass_shell_norm(p: AbsoluteProcess):
    return l2_norm(residual_mass_shell(p), p.grid, ~p.flagged)


@dataclass(frozen=True)
class ResidualSeries:
    times: np.ndarray
    values: np.ndarray


def _widen(mask: np.ndarray) -> np.ndarray:
    """mask grown by 3 points on each side along its last axis; outside the
    grid counts as False."""
    out = mask.copy()
    for shift in (1, 2, 3):
        out[..., shift:] |= mask[..., :-shift]
        out[..., :-shift] |= mask[..., shift:]
    return out


def continuity_norm(p: AbsoluteProcess, psi, dpsi_dt):
    """|| d rho/dt + d j/dx ||_2 of each row, d rho/dt from the Schrodinger
    right-hand side `dpsi_dt` of the wave functions `psi`."""
    dj_dx = derivative(p.j, p.grid, 1)
    drho_dt = 2.0 * np.real(np.conj(psi) * dpsi_dt)
    return l2_norm(drho_dt + dj_dx, p.grid, ~p.flagged)


def residual_continuity(p: AbsoluteProcess) -> ResidualSeries:
    """|| d rho/dt + d j/dx ||_2 per interior row of a block of snapshots,
    d rho/dt a centered difference over the rows; d j/dx is one
    `derivative` call on the stack of interior j."""
    need_rows(p, 3)
    dj_dx = derivative(p.j[1:-1], p.grid, 1)
    drho_dt = (p.rho[2:] - p.rho[:-2]) / (p.time[2:] - p.time[:-2])[:, None]
    return ResidualSeries(p.time[1:-1],
                          l2_norm(drho_dt + dj_dx, p.grid, ~p.flagged[1:-1]))


def _force_norm(p: AbsoluteProcess, du_dt, e_field, mask):
    # local 4th-order stencils rather than spectral derivatives: u and s
    # continue as linear extrapolations through the tails, and a global
    # (Fourier) derivative of those unbounded tails rings into the
    # resolved interior
    du_dx = _fd_derivative(p.u, p.grid.dx, 1)
    ds_dx = _fd_derivative(p.s, p.grid.dx, 1)
    res = du_dt + p.u * du_dx + ds_dx - e_field
    return l2_norm(res, p.grid, mask)


def force_norm(p: AbsoluteProcess, psi, dpsi_dt, dpsi_dx, e_field):
    """|| d u/dt + u u' + s' - E ||_2 of each row (1+1D), on p raised to
    FORCE_RHO_FLOOR, d u/dt from the Schrodinger right-hand side `dpsi_dt`
    of the wave functions `psi`; `dpsi_dx` is psi' (extraction returns it)."""
    ddw_dx = derivative(dpsi_dt, p.grid, 1)
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


def residual_force(p: AbsoluteProcess, e_field: np.ndarray) -> ResidualSeries:
    """|| d u/dt + u u' + s' - E ||_2 per interior row of a block of
    snapshots, on its rows raised to FORCE_RHO_FLOOR three at a time (never
    the whole block); d u/dt is a centered difference over the rows."""
    need_rows(p, 3)
    e_field = check_field(np.asarray(e_field, dtype=float), p.grid)
    prev, cur = (raise_floor(p[i], FORCE_RHO_FLOOR) for i in (0, 1))
    vals = []
    for i in range(2, len(p)):
        nxt = raise_floor(p[i], FORCE_RHO_FLOOR)
        du_dt = (nxt.u - prev.u) / (nxt.time - prev.time)
        # neighbor snapshots contribute interpolated values where they are
        # flagged; exclude those points from the norm
        mask = ~(_widen(cur.flagged) | prev.flagged | nxt.flagged)
        vals.append(_force_norm(cur, du_dt, e_field, mask))
        prev, cur = cur, nxt
    return ResidualSeries(p.time[1:-1], np.array(vals))
