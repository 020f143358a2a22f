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
from .numerics import centered, derivative, integrate, uniform_spacing
from .schrodinger import Trajectory
from .wavefield import AbsoluteProcess

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
    """Position/velocity moments shared by the wave and dissipative pictures.

    dr_amp is the spatial derivative of R = sqrt(rho).
    """
    Q = dx * np.sum(rho * x)
    V = dx * np.sum(rho * u)
    varQ = dx * np.sum(rho * (x - Q) ** 2)
    T = dx * np.sum(rho * (u - V) ** 2)
    P = dx * np.sum(dr_amp**2)
    Y = dx * np.sum(rho * (x - Q) * (u - V))
    return {"Q": Q, "V": V, "varQ": varQ, "T": T, "P": P, "Y": Y}


def check_boundary_mass(rho: np.ndarray):
    peak = float(rho.max())
    edge = float(max(rho[0], rho[-1]))
    if peak > 0 and edge > BOUNDARY_MASS_TOL * peak:
        raise ContractViolationError(
            f"state does not decay at the domain edges (edge/peak = {edge / peak:.2e}); "
            "surface terms in the moment identities would not vanish"
        )


def moments(
    p: AbsoluteProcess, check_boundary: bool = True, dr_amp: np.ndarray | None = None
) -> MomentReport:
    """Moments of a normalized process; `dr_amp` is R' when the caller
    already has it."""
    norm = float(integrate(p.rho, p.grid))
    if abs(norm - 1.0) > 1e-6:
        raise ContractViolationError(f"process not normalized: int rho = {norm:.6f}")
    if check_boundary:
        check_boundary_mass(p.rho)
    if dr_amp is None:
        dr_amp = derivative(p.r_amp, p.grid, 1)
    m = raw_moments(p.grid.x, p.grid.dx, p.rho, p.u, dr_amp)
    K = float(-integrate(p.rho * p.eps, p.grid))
    return MomentReport(
        Q=float(m["Q"]),
        V=float(m["V"]),
        K=K,
        varQ=float(m["varQ"]),
        varV=float(m["T"] + m["P"]),
        T=float(m["T"]),
        P=float(m["P"]),
        Y=float(m["Y"]),
        time=p.time,
    )


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


def ehrenfest_check(traj: Trajectory, force) -> EhrenfestReport:
    """Compare dQ/dt with V and d^2Q/dt^2 with int rho F.

    force may be a field on the grid or a callable force(x, u) evaluated per
    snapshot (covering velocity-dependent generalized forces).  The
    snapshots must be evenly spaced in time.
    """
    if len(traj) < 5:
        raise ContractViolationError("need at least 5 snapshots")
    dt = uniform_spacing(traj.times)
    procs = traj.processes()
    g = procs[0].grid
    qs = np.array([float(integrate(p.rho * g.x, g)) for p in procs])
    vs = np.array([float(integrate(p.j, g)) for p in procs])
    if callable(force):
        f_exp = np.array(
            [float(integrate(p.rho * np.asarray(force(g.x, p.u)), g)) for p in procs]
        )
    else:
        f_arr = np.asarray(force, dtype=float)
        f_exp = np.array([float(integrate(p.rho * f_arr, g)) for p in procs])
    dq, d2q = centered(qs, dt)
    v_scale = max(np.max(np.abs(vs)), 1e-12)
    f_scale = max(np.max(np.abs(f_exp)), 1e-12)
    dev_v = np.max(np.abs(dq - vs[1:-1])) / v_scale
    dev_f = np.max(np.abs(d2q - f_exp[1:-1])) / f_scale
    return EhrenfestReport(
        max_rel_dev_velocity=float(dev_v), max_rel_dev_force=float(dev_f)
    )
