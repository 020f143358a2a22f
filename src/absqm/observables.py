"""Expectation values, sharpened uncertainty inequalities and Ehrenfest checks.

Conventions (dimensionless, hbar = m = 1): Q = int rho x, V = int j,
K = -int rho eps = int rho (u^2/2 + s), varV = T + P with
T = int rho (u - V)^2 and P = int (R')^2, Y = int rho (x-Q)(u-V).
Surface terms in the underlying identities require states that decay at the
domain edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .numerics import centered, check_field, derivative, integrate, uniform_spacing
from .wavefield import AbsoluteProcess, need_rows


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


def moments(p: AbsoluteProcess) -> list[MomentReport]:
    """The moments of each row of a normalized process or block, one report
    per row.

    The block is reduced along the last axis of its stacks, with R' of all
    its rows from one stacked derivative, so each report equals its row's
    block of one bit for bit.
    """
    g = p.grid
    rho, u, eps = (np.atleast_2d(f) for f in (p.rho, p.u, p.eps))
    norm = g.dx * np.sum(rho, axis=-1)
    off = np.abs(norm - 1.0) > 1e-6
    if off.any():
        raise ContractViolationError(
            f"process not normalized: int rho = {norm[off][0]:.6f}"
        )
    m = raw_moments(g.x, g.dx, rho, u, derivative(np.sqrt(rho), g, 1))
    K = -(g.dx * np.sum(rho * eps, axis=-1))
    # as Python floats: uncertainty_report squares them with `**`, which
    # rounds differently from numpy's square
    rows = zip(*(a.tolist() for a in (m["Q"], m["V"], K, m["varQ"],
                                     m["T"] + m["P"], m["T"], m["P"], m["Y"])))
    return [MomentReport(*row, time=t)
            for row, t in zip(rows, np.atleast_1d(p.time).tolist())]


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


def ehrenfest_check(p: AbsoluteProcess, force) -> EhrenfestReport:
    """Compare dQ/dt with V and d^2Q/dt^2 with int rho F over the rows of a
    block of snapshots.

    force may be a field on the grid or a callable force(x, u) evaluated on
    the stack of u (covering velocity-dependent generalized forces).  The
    snapshots must be evenly spaced in time.
    """
    need_rows(p, 5)
    g = p.grid
    dt = uniform_spacing(p.time)
    qs = integrate(p.rho * g.x, g)
    vs = integrate(p.j, g)
    if callable(force):
        force = np.asarray(force(g.x, p.u))
    else:
        force = check_field(np.asarray(force, dtype=float), g)
    f_exp = integrate(p.rho * force, g)
    dq, d2q = centered(qs, dt)
    v_scale = max(np.max(np.abs(vs)), 1e-12)
    f_scale = max(np.max(np.abs(f_exp)), 1e-12)
    dev_v = np.max(np.abs(dq - vs[1:-1])) / v_scale
    dev_f = np.max(np.abs(d2q - f_exp[1:-1])) / f_scale
    return EhrenfestReport(
        max_rel_dev_velocity=float(dev_v), max_rel_dev_force=float(dev_f)
    )
