"""Expectation values, sharpened uncertainty inequalities and Ehrenfest checks.

Conventions (dimensionless, hbar = m = 1): Q = int rho x, V = int j,
K = -int rho eps = int rho (u^2/2 + s), varV = T + P with
T = int rho (u - V)^2 and P = int (R')^2, Y = int rho (x-Q)(u-V).
Surface terms in the underlying identities require states that decay at the
domain edges; a boundary-mass check enforces this before reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .numerics import centered, check_field, derivative, integrate, uniform_spacing
from .wavefield import AbsoluteProcess, series_grid

BOUNDARY_MASS_TOL = 1e-10


@dataclass(frozen=True)
class MomentReport:
    Q: float
    V: float
    K: float
    varQ: float
    varV: float
    T: float
    P: float
    Y: float
    time: float


def raw_moments(
    x: np.ndarray, dx: float, rho: np.ndarray, u: np.ndarray, dr_amp: np.ndarray
) -> dict:
    """Position/velocity moments shared by the wave and dissipative pictures,
    of one state or of each row of stacks (reduced along the last axis).

    dr_amp is the spatial derivative of R = sqrt(rho).
    """
    Q = dx * np.sum(rho * x, axis=-1)
    V = dx * np.sum(rho * u, axis=-1)
    xq, uv = x - Q[..., None], u - V[..., None]
    varQ = dx * np.sum(rho * xq**2, axis=-1)
    T = dx * np.sum(rho * uv**2, axis=-1)
    P = dx * np.sum(dr_amp**2, axis=-1)
    Y = dx * np.sum(rho * xq * uv, axis=-1)
    return {"Q": Q, "V": V, "varQ": varQ, "T": T, "P": P, "Y": Y}


def check_boundary_mass(rho: np.ndarray):
    """Refuse a density, or a stack of densities, with mass at the domain
    edges above BOUNDARY_MASS_TOL times its peak."""
    peak = rho.max(axis=-1)
    edge = np.maximum(rho[..., 0], rho[..., -1])
    bad = (peak > 0) & (edge > BOUNDARY_MASS_TOL * peak)
    if np.any(bad):
        ratio = (edge[bad] / peak[bad])[0]
        raise ContractViolationError(
            f"state does not decay at the domain edges (edge/peak = {ratio:.2e}); "
            "surface terms in the moment identities would not vanish"
        )


def moments(
    procs: AbsoluteProcess | list[AbsoluteProcess],
    check_boundary: bool = True,
    dr_amp: np.ndarray | None = None,
) -> MomentReport | list[MomentReport]:
    """Moments of a normalized process, or the list of moments of a block of
    them (a list of processes on one grid).

    A block is reduced along the last axis of its stacks, so each report
    equals its process's own bit for bit.  `dr_amp` is R' (of each process
    of a block, as a stack) when the caller already has it.
    """
    if isinstance(procs, AbsoluteProcess):
        dr_amp = None if dr_amp is None else dr_amp[None]
        return moments([procs], check_boundary, dr_amp)[0]
    g = series_grid(procs)
    rho = np.array([p.rho for p in procs])
    norm = g.dx * np.sum(rho, axis=-1)
    off = np.abs(norm - 1.0) > 1e-6
    if off.any():
        raise ContractViolationError(
            f"process not normalized: int rho = {norm[off][0]:.6f}"
        )
    if check_boundary:
        check_boundary_mass(rho)
    if dr_amp is None:
        dr_amp = derivative(np.sqrt(rho), g, 1)
    u = np.array([p.u for p in procs])
    m = raw_moments(g.x, g.dx, rho, u, dr_amp)
    K = -(g.dx * np.sum(rho * np.array([p.eps for p in procs]), axis=-1))
    # as Python floats: uncertainty_report squares them with `**`, which
    # rounds differently from numpy's square
    rows = zip(*(a.tolist() for a in (m["Q"], m["V"], K, m["varQ"],
                                     m["T"] + m["P"], m["T"], m["P"], m["Y"])))
    return [MomentReport(*row, time=p.time) for p, row in zip(procs, rows)]


@dataclass(frozen=True)
class UncertaintyReport:
    """lhs - rhs margins; all must be >= -1e-9 for a valid quantum state."""

    margin_hat1: float
    margin_hat2: float
    margin_hat3: float
    margin_classical: float

    def all_margins(self) -> tuple[float, float, float]:
        return (self.margin_hat1, self.margin_hat2, self.margin_hat3)


def uncertainty_report(m: MomentReport) -> UncertaintyReport:
    lhs = m.varQ * m.varV
    return UncertaintyReport(
        margin_hat1=lhs - (0.25 + m.varQ * m.T),
        margin_hat2=lhs - (m.Y**2 + m.varQ * m.P),
        margin_hat3=lhs - (0.25 + m.Y**2),
        margin_classical=lhs - 0.25,
    )


@dataclass(frozen=True)
class EhrenfestReport:
    max_rel_dev_velocity: float  # dQ/dt vs V
    max_rel_dev_force: float  # d^2Q/dt^2 vs <F>


def ehrenfest_check(procs: list[AbsoluteProcess], force) -> EhrenfestReport:
    """Compare dQ/dt with V and d^2Q/dt^2 with int rho F.

    force may be a field on the grid or a callable force(x, u) evaluated per
    snapshot (covering velocity-dependent generalized forces).  The
    snapshots must be evenly spaced in time.
    """
    g = series_grid(procs, 5)
    dt = uniform_spacing(np.array([p.time for p in procs]))
    qs = np.array([float(integrate(p.rho * g.x, g)) for p in procs])
    vs = np.array([float(integrate(p.j, g)) for p in procs])
    if callable(force):
        f_exp = np.array(
            [float(integrate(p.rho * np.asarray(force(g.x, p.u)), g)) for p in procs]
        )
    else:
        f_arr = check_field(np.asarray(force, dtype=float), g)
        f_exp = np.array([float(integrate(p.rho * f_arr, g)) for p in procs])
    dq, d2q = centered(qs, dt)
    v_scale = max(np.max(np.abs(vs)), 1e-12)
    f_scale = max(np.max(np.abs(f_exp)), 1e-12)
    dev_v = np.max(np.abs(dq - vs[1:-1])) / v_scale
    dev_f = np.max(np.abs(d2q - f_exp[1:-1])) / f_scale
    return EhrenfestReport(
        max_rel_dev_velocity=float(dev_v), max_rel_dev_force=float(dev_f)
    )
