"""1+1D Klein-Gordon evolution and its nonrelativistic limit.

Dimensionless hbar = m = e = 1 with the limit parameter c explicit; metric
g^kl = diag(1, -c^2) on (t, x) indices, so the equation reads
D_t^2 psi = c^2 D_x^2 psi - c^4 psi with D = d - iA and constant A.  In
phi = e^{-i a0 t} psi each Fourier mode is a harmonic oscillator with
omega^2 = c^2 (k - a1)^2 + c^4, rotated in closed form by omega tau straight
to each snapshot, a span tau on, between one transform of a state and one
inverse transform of its snapshots, so dispersion and charge conservation
hold to round-off at any step size and step count; the bound dt <= dx/c is
kept as an interface contract (`check_dt`).  A `KGField` is one state or a
block, as a `WaveField` is.  Extraction is `extract_block` with
A0 lowered by the rest energy c^2, so u = u_1 and eps = u_0 + c^2, which
tends to the Schrodinger-side local energy as c -> infinity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolationError
from .numerics import (
    Grid,
    centered,
    cfft,
    check_dt,
    derivative,
    fourier_multiply,
    icfft,
    l2_norm,
    uniform_spacing,
    whole_steps,
)
from .schrodinger import free_processes, snapshot_steps
from .wavefield import AbsoluteProcess, WaveField, _Rows, extract_block, need_rows


@dataclass
class KGField(_Rows):
    """State of the second-order equation, amplitude and its time derivative,
    or an (m, n) stack of them with one time per row.

    a0, a1 are constant gauge potentials (spatially varying potentials are
    outside this solver's scope)."""

    psi: np.ndarray
    dpsi_dt: np.ndarray
    grid: Grid
    c: float
    time: float | np.ndarray = 0.0
    a0: float = 0.0
    a1: float = 0.0

    ROW_FIELDS = ("psi", "dpsi_dt")
    ROW_DTYPE = complex

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.c < np.inf:
            raise ValueError(f"c={self.c!r} must be positive and finite")
        for name, value in (("a0", self.a0), ("a1", self.a1)):
            if np.ndim(value) != 0 or np.iscomplexobj(value) or not np.isfinite(value):
                raise ValueError(f"{name}={value!r} must be a finite real constant")
        self.grid.need_periodic("KG evolution")


def from_envelope(w: WaveField, c: float) -> KGField:
    """Positive-frequency initial data from a Schrodinger envelope:
    psi_KG(0) = psi(0), dpsi_KG/dt(0) = -i c^2 psi(0) + i/2 psi''(0)."""
    dpsi_dt = -1j * c**2 * w.psi + 0.5j * derivative(w.psi, w.grid, 2)
    return KGField(psi=w.psi.copy(), dpsi_dt=dpsi_dt, grid=w.grid, c=c, time=w.time)


def _propagate(f: KGField, spans: np.ndarray) -> KGField:
    """The block of the state f after each of the ascending elapsed spans
    tau in `spans` (span 0 is f itself), its inputs checked by the caller:
    (phi, d_t phi) transformed once as one stack, each mode rotated by
    omega tau straight to its snapshot, the snapshots inverted in one
    transform and checked once, which catches a blown-up spectrum.  The
    phases come from the spans, not from the snapshot times less f.time,
    which differ from them in the last bits.  Complex products are not
    commutative to the bit, so each keeps its operand order."""
    omega = np.sqrt(f.c**2 * (f.grid.k - f.a1) ** 2 + f.c**4)
    ramp = np.exp(-1j * f.a0 * f.time)
    phi_k, dphi_k = cfft(ramp * np.stack([f.psi, f.dpsi_dt - 1j * f.a0 * f.psi]))
    w_tau = omega * spans[:, None]
    cos_w, sin_w = np.cos(w_tau), np.sin(w_tau)
    fields = np.stack([cos_w * phi_k + sin_w / omega * dphi_k,
                       -omega * sin_w * phi_k + cos_w * dphi_k])
    phi, dphi = icfft(fields, out=fields)
    times = f.time + spans
    unramp = np.exp(1j * f.a0 * times)[:, None]
    np.multiply(unramp, dphi + 1j * f.a0 * phi, out=dphi)
    np.multiply(unramp, phi, out=phi)
    if spans[0] == 0:
        fields[0, 0], fields[1, 0] = f.psi, f.dpsi_dt
    return replace(f, psi=fields[0], dpsi_dt=fields[1], time=times)


def kg_step(f: KGField, dt: float) -> KGField:
    """Propagate one state by dt with the exact rotation of `_propagate`."""
    f.need_one("kg_step")
    check_dt(dt, f.grid.dx / f.c, "dx/c")
    return _propagate(f, np.array([dt]))[0]


def kg_evolve(f: KGField, dt: float, t_final: float, snapshot_every: int = 1):
    """The block of time-ordered snapshots of one state up to t_final, at the
    steps of `snapshot_steps`, from one `_propagate` and checked once."""
    f.need_one("kg_evolve")
    steps = snapshot_steps(whole_steps(t_final - f.time, dt), snapshot_every)
    check_dt(dt, f.grid.dx / f.c, "dx/c")
    return _propagate(f, dt * np.array(steps))


def kg_extract(f: KGField) -> AbsoluteProcess:
    """The absolute process of a KG state or block: `extract_block` with A0
    lowered by the rest energy, so u is u_1 and eps = u_0 + c^2."""
    a0, a1 = np.full(f.grid.n, f.a0 - f.c**2), np.full(f.grid.n, f.a1)
    w = WaveField(f.psi, f.grid, time=f.time, a0=a0, a1=a1)
    return extract_block(w, f.dpsi_dt)[1]


@dataclass(frozen=True)
class KGResidualReport:
    times: np.ndarray
    mass_shell: np.ndarray  # L2 of c^4 R - (u0^2 - c^2 u1^2) R + (R_tt - c^2 R_xx)
    continuity: np.ndarray  # L2 of (R^2 u0)_t - c^2 (R^2 u1)_x


def kg_residuals(f: KGField) -> KGResidualReport:
    """The mass-shell and continuity residuals of each interior row of a
    block of three or more evenly spaced snapshots."""
    need_rows(f, 3)
    g, c = f.grid, f.c
    dt = uniform_spacing(f.time)
    ex = kg_extract(f)
    _, r_tt = centered(ex.r_amp, dt)
    dj0, _ = centered(ex.rho * (ex.eps - c**2), dt)
    ok = ~(ex.flagged[:-2] | ex.flagged[1:-1] | ex.flagged[2:])
    b = ex[1:-1]
    r, u0 = b.r_amp, b.eps - c**2
    rel2 = c**4 * r - (u0**2 - c**2 * b.u**2) * r + (r_tt - c**2 * derivative(r, g, 2))
    rel3 = dj0 - c**2 * derivative(b.j, g, 1)
    return KGResidualReport(times=f.time[1:-1], mass_shell=l2_norm(rel2, g, ok),
                            continuity=l2_norm(rel3, g, ok))


@dataclass(frozen=True)
class NRLimitReport:
    c_values: np.ndarray
    distances: np.ndarray
    exponent: float  # fitted decay order of D(c); expect ~2


def _bandwidth(w: WaveField) -> float:
    spec = np.abs(cfft(w.psi))
    mask = spec > 1e-6 * spec.max()
    return float(np.max(np.abs(w.grid.k[mask])))


def nr_limit_compare(w0: WaveField, c_values, t_final: float = 0.5) -> NRLimitReport:
    """Distance between KG and Schrodinger absolute fields at t_final.

    D(c) sums density-weighted L2 distances of (rho, u, eps); the rest
    oscillation is factored by the eps = u0 + c^2 convention."""
    w0.need_one("nr_limit_compare")
    if not 0 < t_final - w0.time < np.inf:
        raise ValueError(f"t_final={t_final!r} must be finite and after the "
                         f"envelope's time {w0.time!r}")
    cs = sorted(float(c) for c in c_values)
    if len(cs) < 2 or not all(0.0 < c < np.inf for c in cs):
        raise ValueError(f"c_values {list(c_values)}: need two or more, finite, > 0")
    # a set, not np.unique, which imports numpy.ma for an input check
    repeated = sorted({a for a, b in zip(cs, cs[1:]) if a == b})
    if repeated:
        raise ValueError(f"c_values {list(c_values)}: {repeated} "
                         "repeated; the values must be distinct")
    cs = np.array(cs)
    kbw = _bandwidth(w0)
    if kbw > 0.6 * cs[0]:
        raise ContractViolationError(
            f"envelope bandwidth {kbw:.2f} is not small against c = {cs[0]}")
    g = w0.grid
    w0 = w0.normalized()

    dists = []
    for c in cs:
        # the residual negative-frequency admixture beats at 2 c^2; average
        # the distance over one rest-oscillation period so the sampled phase
        # does not alias the 1/c^2 envelope
        period = np.pi / c**2
        n_avg = max(8, int(np.ceil(period / (g.dx / c))) + 1)
        spans = (t_final - w0.time) + period / n_avg * np.arange(n_avg)
        block = _propagate(from_envelope(w0, c), spans)
        kg, ts = kg_extract(block), block.time
        # exact free-envelope oracle: one Fourier multiplier per span
        nr = fourier_multiply(w0.psi, np.exp(-0.5j * g.k**2 * spans[:, None]))
        p = free_processes(WaveField(nr, g, time=ts))
        ok = ~(kg.flagged | p.flagged)
        w = np.sqrt(np.where(ok, p.rho, 0.0))
        samples = (l2_norm(kg.rho - p.rho, g, ok) + l2_norm(w * (kg.u - p.u), g)
                   + l2_norm(w * (kg.eps - p.eps), g))
        dists.append(float(np.mean(samples)))
    dists = np.array(dists)
    exponent = float(-np.polyfit(np.log(cs), np.log(dists), 1)[0])
    return NRLimitReport(c_values=cs, distances=dists, exponent=exponent)
