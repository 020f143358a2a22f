"""1+1D Klein-Gordon evolution and its nonrelativistic limit.

Dimensionless hbar = m = e = 1 with the limit parameter c explicit; metric
g^kl = diag(1, -c^2) on (t, x) indices, so the equation reads
D_t^2 psi = c^2 D_x^2 psi - c^4 psi with D = d - iA and constant A.  In
phi = e^{-i a0 t} psi each Fourier mode is a harmonic oscillator with
omega^2 = c^2 (k - a1)^2 + c^4, propagated by the exact rotation, so
dispersion and charge conservation hold to round-off at any step size; the
CFL-style bound dt <= dx/c is still enforced as an interface contract.
Extraction is `extract_block` of one row with A0 lowered by the rest energy
c^2, so u = u_1 and eps = u_0 + c^2, which tends to the Schrodinger-side
local energy as c -> infinity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import ContractViolationError, GridMismatchError, StabilityError
from .numerics import (
    PERIODIC,
    Grid,
    centered,
    check_field,
    derivative,
    fourier_multiply,
    l2_norm,
    uniform_spacing,
    whole_steps,
)
from .schrodinger import free_processes, snapshot_steps
from .wavefield import AbsoluteProcess, WaveField, extract_block, need_rows


@dataclass(frozen=True)
class KGField:
    """State of the second-order equation: amplitude and its time derivative.

    a0, a1 are constant gauge potentials (spatially varying potentials are
    outside this solver's scope)."""

    psi: np.ndarray
    dpsi_dt: np.ndarray
    grid: Grid
    c: float
    time: float = 0.0
    a0: float = 0.0
    a1: float = 0.0

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.grid.boundary != PERIODIC:
            raise ContractViolationError("KG evolution requires a periodic grid")
        object.__setattr__(
            self, "psi", check_field(np.asarray(self.psi, dtype=complex), self.grid)
        )
        object.__setattr__(
            self,
            "dpsi_dt",
            check_field(np.asarray(self.dpsi_dt, dtype=complex), self.grid),
        )


def from_envelope(w: WaveField, c: float) -> KGField:
    """Positive-frequency initial data from a Schrodinger envelope:
    psi_KG(0) = psi(0), dpsi_KG/dt(0) = -i c^2 psi(0) + i/2 psi''(0)."""
    ddpsi = derivative(w.psi, w.grid, 2)
    return KGField(
        psi=w.psi.copy(),
        dpsi_dt=-1j * c**2 * w.psi + 0.5j * ddpsi,
        grid=w.grid,
        c=c,
        time=w.time,
    )


@lru_cache(maxsize=8)
def _rotation(grid: Grid, c: float, a1: float, dt: float):
    """The per-mode rotation by dt as (cos(w dt), sin(w dt)/w, -w sin(w dt)),
    w = sqrt(c^2 (k - a1)^2 + c^4); cached, since a run steps with one or
    two dt."""
    omega = np.sqrt(c**2 * (grid.k - a1) ** 2 + c**4)
    cos_w, sin_w = np.cos(omega * dt), np.sin(omega * dt)
    return cos_w, sin_w / omega, -omega * sin_w


def kg_step(f: KGField, dt: float) -> KGField:
    """Propagate by dt with the exact per-mode rotation.

    phi = e^{-i a0 t} psi has D_t phi = d_t phi, and its Fourier mode e^{ikx}
    rotates at omega = sqrt(c^2 (k - a1)^2 + c^4); no x-dependent phase is
    applied, so the step is exact for any constant a1 on the periodic grid."""
    if not 0 < dt < np.inf:
        raise ValueError(f"dt={dt!r} must be positive and finite")
    if dt > f.grid.dx / f.c * (1.0 + 1e-12):
        raise StabilityError(
            f"dt={dt:.3e} exceeds the bound dx/c = {f.grid.dx / f.c:.3e}"
        )
    t_new = f.time + dt
    ramp = np.exp(-1j * f.a0 * f.time)
    # (phi, d_t phi) transform as one stack; each row equals its own
    # transform bit for bit
    phi_k, dphi_k = np.fft.fft(
        ramp * np.stack([f.psi, f.dpsi_dt - 1j * f.a0 * f.psi])
    )
    cos_w, sin_by_w, minus_w_sin = _rotation(f.grid, f.c, f.a1, dt)
    phi, dphi = np.fft.ifft(
        np.stack([
            cos_w * phi_k + sin_by_w * dphi_k,
            minus_w_sin * phi_k + cos_w * dphi_k,
        ])
    )
    unramp = np.exp(1j * f.a0 * t_new)
    psi = unramp * phi
    dpsi = unramp * (dphi + 1j * f.a0 * phi)
    return replace(f, psi=psi, dpsi_dt=dpsi, time=t_new)


def kg_evolve(f: KGField, dt: float, t_final: float, snapshot_every: int = 1):
    """Time-ordered snapshots up to t_final, at the steps of
    `snapshot_steps`."""
    if snapshot_every < 1:
        raise ValueError("snapshot_every must be >= 1")
    steps = snapshot_steps(whole_steps(t_final - f.time, dt), snapshot_every)
    out, done = [f], 0
    for k in steps[1:]:
        for _ in range(done, k):
            f = kg_step(f, dt)
        out.append(f)
        done = k
    return out


def _as_wave(f: KGField, psi, time) -> WaveField:
    """psi on f's grid with f's potentials, A0 lowered by the rest energy."""
    a0, a1 = np.full(f.grid.n, f.a0 - f.c**2), np.full(f.grid.n, f.a1)
    return WaveField(psi, f.grid, time=time, a0=a0, a1=a1)


def kg_extract(f: KGField) -> AbsoluteProcess:
    """The absolute process of a KG state: `extract_block` of one row with A0
    lowered by the rest energy, so u is u_1 and eps = u_0 + c^2."""
    return extract_block(_as_wave(f, f.psi, f.time), f.dpsi_dt)[1]


@dataclass(frozen=True)
class KGResidualReport:
    times: np.ndarray
    mass_shell: np.ndarray  # L2 of c^4 R - (u0^2 - c^2 u1^2) R + (R_tt - c^2 R_xx)
    continuity: np.ndarray  # L2 of (R^2 u0)_t - c^2 (R^2 u1)_x


def kg_residuals(traj: list[KGField]) -> KGResidualReport:
    """The mass-shell and continuity residuals of each interior snapshot of
    three or more evenly spaced snapshots on one grid, at one c and one pair
    of potentials, extracted as one block."""
    need_rows(traj, 3)
    f0 = traj[0]
    g, c = f0.grid, f0.c
    if any(f.grid != g for f in traj):
        raise GridMismatchError("a series' snapshots share one grid")
    if any((f.c, f.a0, f.a1) != (c, f0.a0, f0.a1) for f in traj):
        raise ContractViolationError("a series' snapshots share one c and a0, a1")
    times = np.array([f.time for f in traj])
    dt = uniform_spacing(times)
    w = _as_wave(f0, np.array([f.psi for f in traj]), times)
    ex = extract_block(w, np.array([f.dpsi_dt for f in traj]))[1]
    _, r_tt = centered(ex.r_amp, dt)
    dj0, _ = centered(ex.rho * (ex.eps - c**2), dt)
    ok = ~(ex.flagged[:-2] | ex.flagged[1:-1] | ex.flagged[2:])
    b = ex[1:-1]
    r, u0 = b.r_amp, b.eps - c**2
    rel2 = c**4 * r - (u0**2 - c**2 * b.u**2) * r + (r_tt - c**2 * derivative(r, g, 2))
    rel3 = dj0 - c**2 * derivative(b.j, g, 1)
    return KGResidualReport(times=times[1:-1], mass_shell=l2_norm(rel2, g, ok),
                            continuity=l2_norm(rel3, g, ok))


@dataclass(frozen=True)
class NRLimitReport:
    c_values: np.ndarray
    distances: np.ndarray
    exponent: float  # fitted decay order of D(c); expect ~2


def _bandwidth(w: WaveField) -> float:
    spec = np.abs(np.fft.fft(w.psi))
    mask = spec > 1e-6 * spec.max()
    return float(np.max(np.abs(w.grid.k[mask])))


def nr_limit_compare(
    w0: WaveField, c_values, t_final: float = 0.5
) -> NRLimitReport:
    """Distance between KG and Schrodinger absolute fields at t_final.

    D(c) sums density-weighted L2 distances of (rho, u, eps); the rest
    oscillation is factored by the eps = u0 + c^2 convention."""
    if not 0 < t_final < np.inf:
        raise ValueError(f"t_final={t_final!r} must be positive and finite")
    cs = np.array(sorted(float(c) for c in c_values))
    if cs.size < 2 or cs[0] <= 0.0:
        raise ValueError(f"c_values {list(c_values)}: need two or more, all > 0")
    kbw = _bandwidth(w0)
    if kbw > 0.6 * cs[0]:
        raise ContractViolationError(
            f"envelope bandwidth {kbw:.2f} is not small against c = {cs[0]}"
        )
    g = w0.grid
    w0 = w0.normalized()

    dists = []
    for c in cs:
        dt = 0.5 * g.dx / c
        n_steps = max(int(np.ceil(t_final / dt)), 1)
        dt = t_final / n_steps
        f = from_envelope(w0, c)
        for _ in range(n_steps):
            f = kg_step(f, dt)
        # the residual negative-frequency admixture beats at 2 c^2; average
        # the distance over one rest-oscillation period so the sampled phase
        # does not alias the 1/c^2 envelope
        period = np.pi / c**2
        n_avg = max(8, int(np.ceil(period / (g.dx / c))) + 1)
        dt_micro = period / n_avg
        psi, dpsi_dt = np.empty((2, n_avg, g.n), dtype=complex)
        ts = np.empty(n_avg)
        for i in range(n_avg):
            if i:
                f = kg_step(f, dt_micro)
            psi[i], dpsi_dt[i], ts[i] = f.psi, f.dpsi_dt, f.time
        kg = extract_block(_as_wave(f, psi, ts), dpsi_dt)[1]
        # exact free-envelope oracle: one Fourier multiplier per time
        nr = fourier_multiply(w0.psi, np.exp(-0.5j * g.k**2 * ts[:, None]))
        p = free_processes(WaveField(nr, g, time=ts))
        ok = ~(kg.flagged | p.flagged)
        w = np.sqrt(np.where(ok, p.rho, 0.0))
        samples = (l2_norm(kg.rho - p.rho, g, ok) + l2_norm(w * (kg.u - p.u), g)
                   + l2_norm(w * (kg.eps - p.eps), g))
        dists.append(float(np.mean(samples)))
    dists = np.array(dists)
    exponent = float(-np.polyfit(np.log(cs), np.log(dists), 1)[0])
    return NRLimitReport(c_values=cs, distances=dists, exponent=exponent)
