"""1+1D Klein-Gordon evolution and its nonrelativistic limit.

Dimensionless hbar = m = e = 1 with the limit parameter c explicit; metric
g^kl = diag(1, -c^2) on (t, x) indices, so the equation reads
d^2 psi/dt^2 = c^2 d^2 psi/dx^2 - c^4 psi (minimal coupling with constant
gauge potentials folded in by a phase substitution).  Each Fourier mode is a
harmonic oscillator with omega^2 = c^2 k^2 + c^4 and is propagated by the
exact rotation, so dispersion and charge conservation hold to round-off at
any step size; the CFL-style bound dt <= dx/c is still enforced as an
interface contract.  Extraction defines u_k = Im(psi* d_k psi)/|psi|^2 - A_k
and eps = u_t + c^2, which tends to the Schrodinger-side local energy as
c -> infinity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolationError, StabilityError
from .numerics import PERIODIC, Grid, check_field, derivative, integrate, whole_steps
from .schrodinger import rhs
from .wavefield import RHO_FLOOR, WaveField, _flag_below_floor, extract_absolute


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

    def charge(self) -> float:
        """Conserved charge int R^2 u_t = int [Im(psi* dpsi/dt) - a0 |psi|^2]."""
        dens = np.imag(np.conj(self.psi) * self.dpsi_dt) - self.a0 * np.abs(
            self.psi
        ) ** 2
        return float(integrate(dens, self.grid))


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


def kg_step(f: KGField, dt: float) -> KGField:
    """Propagate by dt with the exact per-mode rotation.

    Constant gauge potentials are removed by psi = e^{i(a0 t + a1 x)} phi,
    which turns covariant derivatives into plain ones."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if dt > f.grid.dx / f.c * (1.0 + 1e-12):
        raise StabilityError(
            f"dt={dt:.3e} exceeds the bound dx/c = {f.grid.dx / f.c:.3e}"
        )
    g = f.grid
    x = g.x
    t = f.time
    ramp = np.exp(-1j * (f.a0 * t + f.a1 * x))
    phi = ramp * f.psi
    dphi = ramp * (f.dpsi_dt - 1j * f.a0 * f.psi)
    phi_k = np.fft.fft(phi)
    dphi_k = np.fft.fft(dphi)
    omega = np.sqrt(f.c**2 * g.k**2 + f.c**4)
    cos_w, sin_w = np.cos(omega * dt), np.sin(omega * dt)
    phi_k, dphi_k = (
        cos_w * phi_k + (sin_w / omega) * dphi_k,
        -omega * sin_w * phi_k + cos_w * dphi_k,
    )
    phi = np.fft.ifft(phi_k)
    dphi = np.fft.ifft(dphi_k)
    t_new = t + dt
    unramp = np.exp(1j * (f.a0 * t_new + f.a1 * x))
    psi = unramp * phi
    dpsi = unramp * (dphi + 1j * f.a0 * phi)
    return replace(f, psi=psi, dpsi_dt=dpsi, time=t_new)


def kg_evolve(f: KGField, dt: float, t_final: float, snapshot_every: int = 1):
    """Time-ordered snapshots up to t_final."""
    if snapshot_every < 1:
        raise ValueError("snapshot_every must be >= 1")
    n_steps = whole_steps(t_final - f.time, dt)
    out = [f]
    for i in range(n_steps):
        f = kg_step(f, dt)
        if (i + 1) % snapshot_every == 0 or i == n_steps - 1:
            out.append(f)
    return out


@dataclass(frozen=True)
class KGAbsolute:
    r_amp: np.ndarray
    u0: np.ndarray  # time component of u
    u1: np.ndarray  # space component of u
    eps: np.ndarray  # u0 + c^2
    flagged: np.ndarray
    grid: Grid
    time: float


def kg_extract(f: KGField) -> KGAbsolute:
    """Absolute fields of a KG state, with the density floor of
    `extract_absolute` (an identically zero field raises)."""
    rho, peak, flagged = _flag_below_floor(np.abs(f.psi))
    safe = np.maximum(rho, RHO_FLOOR * peak)
    u0 = np.where(flagged, 0.0, np.imag(np.conj(f.psi) * f.dpsi_dt) / safe - f.a0)
    dpsi_dx = derivative(f.psi, f.grid, 1)
    u1 = np.where(flagged, 0.0, np.imag(np.conj(f.psi) * dpsi_dx) / safe - f.a1)
    return KGAbsolute(
        r_amp=np.sqrt(rho),
        u0=u0,
        u1=u1,
        eps=u0 + f.c**2,
        flagged=flagged,
        grid=f.grid,
        time=f.time,
    )


@dataclass(frozen=True)
class KGResidualReport:
    times: np.ndarray
    mass_shell: np.ndarray  # L2 of c^4 R - (u0^2 - c^2 u1^2) R + (R_tt - c^2 R_xx)
    continuity: np.ndarray  # L2 of (R^2 u0)_t - c^2 (R^2 u1)_x


def kg_residuals(traj: list[KGField]) -> KGResidualReport:
    if len(traj) < 3:
        raise ContractViolationError("need at least 3 snapshots")
    times = np.array([f.time for f in traj])
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=1e-12):
        raise ContractViolationError("snapshots must be uniformly spaced in time")
    dt = float(dts[0])
    c = traj[0].c
    g = traj[0].grid
    ex = [kg_extract(f) for f in traj]
    ms, ct, ts = [], [], []
    for i in range(1, len(traj) - 1):
        a, b, d = ex[i - 1], ex[i], ex[i + 1]
        ok = ~(a.flagged | b.flagged | d.flagged)
        r_tt = (d.r_amp - 2.0 * b.r_amp + a.r_amp) / dt**2
        r_xx = derivative(b.r_amp, g, 2)
        rel2 = (
            c**4 * b.r_amp
            - (b.u0**2 - c**2 * b.u1**2) * b.r_amp
            + (r_tt - c**2 * r_xx)
        )
        j0 = [e.r_amp**2 * e.u0 for e in (a, b, d)]
        dj0 = (j0[2] - j0[0]) / (2.0 * dt)
        dj1 = derivative(b.r_amp**2 * b.u1, g, 1)
        rel3 = dj0 - c**2 * dj1
        ms.append(float(np.sqrt(g.dx * np.sum(rel2[ok] ** 2))))
        ct.append(float(np.sqrt(g.dx * np.sum(rel3[ok] ** 2))))
        ts.append(times[i])
    return KGResidualReport(
        times=np.array(ts), mass_shell=np.array(ms), continuity=np.array(ct)
    )


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
    cs = np.array(sorted(float(c) for c in c_values))
    kbw = _bandwidth(w0)
    if kbw > 0.6 * cs[0]:
        raise ContractViolationError(
            f"envelope bandwidth {kbw:.2f} is not small against c = {cs[0]}"
        )
    g = w0.grid
    w0 = w0.normalized()

    def nr_process(t: float):
        # exact free-envelope oracle: one Fourier multiplier per time
        psi = np.fft.ifft(np.exp(-0.5j * g.k**2 * t) * np.fft.fft(w0.psi))
        w = WaveField(psi, g, time=t)
        return extract_absolute(w, rhs(w))

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
        samples = []
        for _ in range(n_avg):
            kg = kg_extract(f)
            p = nr_process(f.time)
            ok = ~(kg.flagged | p.flagged)
            w = np.sqrt(np.where(ok, p.rho, 0.0))
            d_rho = np.sqrt(g.dx * np.sum((kg.r_amp**2 - p.rho)[ok] ** 2))
            d_u = np.sqrt(g.dx * np.sum((w * (kg.u1 - p.u)) ** 2))
            d_eps = np.sqrt(g.dx * np.sum((w * (kg.eps - p.eps)) ** 2))
            samples.append(d_rho + d_u + d_eps)
            f = kg_step(f, dt_micro)
        dists.append(float(np.mean(samples)))
    dists = np.array(dists)
    exponent = float(-np.polyfit(np.log(cs), np.log(dists), 1)[0])
    return NRLimitReport(c_values=cs, distances=dists, exponent=exponent)
