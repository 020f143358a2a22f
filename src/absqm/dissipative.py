"""Linearly damped quantum system integrated directly in absolute variables.

Dimensionless units (characteristic scales sqrt(hbar/k), m/k, m).  The system
is d rho/dt = -dj/dx, dj/dt = -j + (1/2) d/dx { R R'' - R'^2 - 2 rho u^2 }
with R = sqrt(rho), u = j/rho.  A quasi-wave cross-check solver evolves
i dPsi/dt = -(1/2) Psi'' + S Psi with S the unwrapped phase.  Diagnostics
track Q, V, X=varQ, Y, T, P, the auxiliary Z = (X^2)'' + (X^2)' - 3 X'^2 and
K = (V^2+T+P)/2; asymptotically X^2/t -> Z* >= 1 and K ~ (sqrt(Z*)/8) t^(-1/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ContractViolationError,
    DegenerateInputError,
    DomainError,
    GridMismatchError,
    StabilityError,
    UnwrapError,
)
from .numerics import (
    BLOCK_ROWS,
    PERIODIC,
    Grid,
    centered,
    check_field,
    derivative,
    fourier_multiply,
    integrate,
    uniform_spacing,
    whole_steps,
)
from .observables import raw_moments
from .wavefield import WaveField, _row_times, _Rows, need_rows, polar_decompose

RHO_FLOOR_FRAC = 1e-14
STABILITY_COEFF = 0.1
BOUNDARY_DENSITY_TOL = 1e-10
MAX_STEP_HALVINGS = 8
STATIONARY_DOUBLINGS = 5
LAW_SPAN = 5.0  # time units the expectation laws are checked over


@dataclass
class DissipativeState(_Rows):
    """Density and current on a grid at one instant, or an (m, n) stack of
    them with one time per row."""

    rho: np.ndarray
    j: np.ndarray
    grid: Grid
    time: float | np.ndarray = 0.0

    ROW_FIELDS = ("rho", "j")

    def __post_init__(self):
        for name in self.ROW_FIELDS:
            setattr(self, name, check_field(getattr(self, name), self.grid, stack=True))
        if self.rho.shape != self.j.shape:
            raise GridMismatchError("rho and j must have one shape")
        self.time = _row_times(self.time, self.rho)

    def velocity(self) -> np.ndarray:
        """u = j/rho of each row, rho floored at RHO_FLOOR_FRAC of its peak."""
        floor = RHO_FLOOR_FRAC * self.rho.max(axis=-1, keepdims=True)
        return self.j / np.maximum(self.rho, floor)


PEDESTAL_FRAC = 1e-8


def gaussian_state(
    grid: Grid,
    sigma: float = 1.0,
    center: float = 0.0,
    velocity: float = 0.0,
) -> DissipativeState:
    """Normalized Gaussian density with variance sigma^2 and uniform u.

    A small constant pedestal, PEDESTAL_FRAC of the peak, keeps the density
    bounded away from zero: the exact equations are then well posed everywhere
    and need no vacuum regularization, at the cost of an O(pedestal)
    perturbation of the moments.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    rho = np.exp(-((grid.x - center) ** 2) / (2.0 * sigma**2))
    rho += PEDESTAL_FRAC * rho.max()
    rho /= integrate(rho, grid)
    return DissipativeState(rho=rho, j=velocity * rho, grid=grid)


class _DampedOperator:
    """Real-FFT spectral operator of one grid for the damped RK4 step.

    The stages live in the half spectrum u = (rho^, j^): d rho^/dt = -ik j^,
    d j^/dt = -j^ - (ik/4) (k^2 rho^ + F[(rho'^2 + 4 j^2)/rho]).  The linear
    terms are diagonal multipliers (ik zeroed at Nyquist for even n, as in
    `Grid.ik`); only the flux is transformed.  `rk4` maps the pair (u, x),
    x = (rho, j, rho') on the grid, to the next pair, so a step from the
    last one's pair makes 8 transform calls on 16 rows; `carry` adds 2 calls
    on 3 rows where a step starts from rho and j alone: every call of
    `step_absolute`, and a step of `run` after a clip.  Nothing is validated
    here: `step_absolute` checks the state it returns, and `run` each
    snapshot it stores.

    The stages run in one workspace that the operator allocates once, and
    `_operator` shares the operator per grid.  So `slope` and `rk4` are
    neither re-entrant nor thread-safe, and the array `slope` returns is
    overwritten by the next call.  The pair (u, x) that `carry` and `rk4`
    return is freshly allocated and owned by the caller."""

    def __init__(self, g: Grid):
        self.n = n = g.n
        m = n // 2 + 1
        # |k| and ik on the half spectrum
        k, self.ik = np.abs(g.k[:m]), g.ik[:m]
        self.neg_quarter_ik = -0.25 * self.ik
        # the linear terms of (rho^, j^)' as multipliers of the swapped pair
        # (j^, rho^): -ik j^ and -(ik/4) k^2 rho^
        self.linear = np.stack((-self.ik, self.neg_quarter_ik * k**2))
        # exponential high-order filter: ~e^-36 at the grid scale, < 1e-8 per
        # step below a quarter of the Nyquist wavenumber; suppresses the
        # sawtooth noise that the vacuum-tail divisions otherwise amplify
        self.filt = np.exp(-36.0 * (k / k.max()) ** 16)
        # workspace: a stage spectrum (u, ik rho^) and its rows (rho, j, rho'),
        # the slope, the RK4 sum, the flux, the floored density and the flux
        # spectrum
        self._stage = np.empty((3, m), dtype=complex)
        self._rows = np.empty((3, n))
        # views taken once: each costs about as much as a small ufunc call
        self._stage_u, self._stage_rows = self._stage[:2], tuple(self._rows)
        self._slope = np.empty((2, m), dtype=complex)
        self._sum = np.empty((2, m), dtype=complex)
        self._flux = np.empty(n)
        self._safe = np.empty(n)
        self._flux_k = np.empty(m, dtype=complex)

    def carry(self, rho: np.ndarray, j: np.ndarray):
        """The pair (u, x) of rho and j on the grid."""
        u = np.fft.rfft(np.stack((rho, j)))
        return u, (rho, j, np.fft.irfft(self.ik * u[0], self.n))

    def slope(self, u, rho, j, drho):
        """d u/dt at the half spectrum u, given rho, j and rho' on the grid,
        in the operator's slope buffer."""
        # R R'' - R'^2 rewritten as rho''/2 - rho'^2/(2 rho): differentiating
        # sqrt(rho) is ill-conditioned near vacuum (the cusp turns roundoff
        # noise into O(1/sqrt(noise)) curvature), while rho itself stays
        # smooth.  The divisions by rho are masked where the density is
        # unresolved; spectral noise in j divided by a floored rho would
        # otherwise feed back quadratically and blow up within a few steps.
        flux, safe, flux_k, out = self._flux, self._safe, self._flux_k, self._slope
        # twice the nonlinear flux (rho'^2/2 + 2 j^2)/rho
        np.square(j, out=flux)
        flux *= 4.0
        np.square(drho, out=safe)
        flux += safe
        floor = RHO_FLOOR_FRAC * max(float(rho.max()), 1e-300)
        flux /= np.maximum(rho, floor, out=safe)
        np.fft.rfft(flux, out=flux_k)
        np.multiply(self.linear, u[::-1], out=out)
        flux_k *= self.neg_quarter_ik
        out[1] += flux_k
        out[1] -= u[1]
        return out

    def rk4(self, u0: np.ndarray, x, dt: float):
        stage, stage_u, total = self._stage, self._stage_u, self._sum
        k = self.slope(u0, *x)
        np.copyto(total, k)
        for h, weight in ((0.5 * dt, 2.0), (0.5 * dt, 2.0), (dt, 1.0)):
            # u0 + h k with ik rho^ below it: one irfft gives rho, j and rho'
            np.multiply(k, h, out=stage_u)
            stage_u += u0
            np.multiply(self.ik, stage[0], out=stage[2])
            np.fft.irfft(stage, self.n, out=self._rows)
            self.slope(stage_u, *self._stage_rows)
            if weight == 1.0:
                total += k
            else:
                # the stage is spent: it holds weight * k for the sum
                np.multiply(k, weight, out=stage_u)
                total += stage_u
        # the filtered update, laid out the same way in fresh arrays: its irfft
        # is the next step's rho, j and rho'
        new = np.empty_like(stage)
        new_u = new[:2]
        np.multiply(total, dt / 6.0, out=new_u)
        new_u += u0
        new_u *= self.filt
        np.multiply(self.ik, new[0], out=new[2])
        return new_u, np.fft.irfft(new, self.n)


# one operator per grid
_operator = lru_cache(maxsize=8)(_DampedOperator)


def _advance(op: _DampedOperator, u, x, dt: float):
    """(u, x) one RK4 step of dt on, halving dt on negative density; u is None
    where x is only (rho, j), and returned None when the clip to rho >= 0
    changed rho.  Nothing is checked: a NaN reaches the caller's next state."""
    start = op.carry(*x[:2]) if u is None else (u, x)
    sub_dt, n_sub = dt, 1
    for _ in range(MAX_STEP_HALVINGS + 1):
        u, x = start
        for _ in range(n_sub):
            u, x = op.rk4(u, x, sub_dt)
            low = float(x[0].min())
            if low < -1e-12:
                break
        else:
            if low < 0.0:  # a clipped rho is no longer the one u describes
                np.maximum(x[0], 0.0, out=x[0])
            return (u if low >= 0.0 else None), x
        sub_dt *= 0.5
        n_sub *= 2
    raise StabilityError(
        f"density stays negative beyond tolerance after {MAX_STEP_HALVINGS} "
        "step halvings"
    )


def step_absolute(s: DissipativeState, dt: float) -> DissipativeState:
    """One RK4 method-of-lines step of one state; rejects and halves on
    negative density."""
    if s.rho.ndim != 1:
        raise ContractViolationError("step_absolute steps one state, not a block")
    if not 0 < dt < np.inf:
        raise ValueError(f"dt={dt!r} must be positive and finite")
    if s.grid.boundary != PERIODIC:
        raise ContractViolationError("absolute stepping requires a periodic grid")
    bound = STABILITY_COEFF * s.grid.dx**2
    if dt > bound * (1.0 + 1e-12):
        raise StabilityError(f"dt={dt:.3e} exceeds the stability bound {bound:.3e}")
    x = _advance(_operator(s.grid), None, (s.rho, s.j), dt)[1]
    return DissipativeState(rho=x[0], j=x[1], grid=s.grid, time=s.time + dt)


def step_quasiwave(w: WaveField, dt: float) -> WaveField:
    """One Strang step of i dPsi/dt = -(1/2) Psi'' + S Psi, S = unwrapped phase.

    Each potential half step multiplies by exp(-i dt S/2) with S frozen at
    its start; that half step's own flow contracts S, so freezing it makes
    the split first order in dt.  The equation has no gauge potentials, and
    those of `w` are not used."""
    g = w.grid
    if g.boundary != PERIODIC:
        raise ContractViolationError("quasi-wave stepping requires a periodic grid")
    p = polar_decompose(w)
    frac = float(p.flagged.mean())
    if frac > 0.10:
        raise UnwrapError(
            f"flagged fraction {frac:.2f} exceeds 10%; phase unwrapping is "
            "unreliable on this state"
        )
    psi = w.psi * np.exp(-0.5j * dt * p.phase)
    psi = fourier_multiply(psi, np.exp(-0.5j * dt * g.k**2))
    phase = polar_decompose(WaveField(psi, g)).phase
    return WaveField(psi * np.exp(-0.5j * dt * phase), g, time=w.time + dt)


@dataclass
class DissipativeRunConfig:
    sigma: float = 1.0
    q0: float = 0.0
    v0: float = 1.0
    x_min: float = -40.0
    x_max: float = 40.0
    n: int = 1024
    t_final: float = 60.0
    snapshot_dt: float = 0.1


def run(cfg: DissipativeRunConfig) -> DissipativeState:
    """The block of snapshots, every snapshot_dt (t_final must be a whole
    multiple of it), of the damped system from the Gaussian of `cfg`, stepped
    at the stability bound, each step from the last one's pair (u, x).

    Each snapshot is checked as it is stored, so a NaN made between two
    snapshots is refused at the next one.  Raises
    DomainError at the first snapshot whose edge density exceeds
    BOUNDARY_DENSITY_TOL of its peak and ten times the ambient pedestal: the
    packet has reached the domain edge, and the periodic grid would wrap it.
    """
    g = Grid(cfg.x_min, cfg.x_max, cfg.n)
    s = gaussian_state(g, sigma=cfg.sigma, center=cfg.q0, velocity=cfg.v0)
    n_snaps = whole_steps(cfg.t_final, cfg.snapshot_dt)
    dt = STABILITY_COEFF * g.dx**2
    # ceil: rounding down would push the adjusted dt above the stability bound
    per_snap = max(int(np.ceil(cfg.snapshot_dt / dt - 1e-9)), 1)
    dt = cfg.snapshot_dt / per_snap
    rho, j = np.empty((2, n_snaps + 1, g.n))
    times = np.empty(n_snaps + 1)
    rho[0], j[0], times[0] = s.rho, s.j, s.time
    # ambient pedestal level: the packet has reached the boundary only when
    # the edge density rises clearly above it
    ambient = max(float(s.rho[0]), float(s.rho[-1]))
    op, u, x, t = _operator(g), None, (s.rho, s.j), s.time
    for i in range(1, n_snaps + 1):
        for _ in range(per_snap):
            u, x = _advance(op, u, x, dt)
            t += dt
        rho[i], j[i], times[i] = check_field(x[0], g), check_field(x[1], g), t
        edge, peak = max(float(rho[i, 0]), float(rho[i, -1])), float(rho[i].max())
        if edge > max(BOUNDARY_DENSITY_TOL * peak, 10.0 * ambient):
            raise DomainError(
                f"the packet reached the domain edge at t={t:.6g} "
                f"(edge/peak density {edge / peak:.2e}); "
                "widen [x_min, x_max]"
            )
    return DissipativeState(rho=rho, j=j, grid=g, time=times)


@dataclass
class DissipativeDiagnostics:
    """Moment time series plus centered-difference checks of the moment ODEs
    X' = 2Y, Y' = -Y + T + P, (T+P)' = -2T.

    Z is stored in its algebraic form 4X(T+P) - 4Y^2, obtained by expanding
    (X^2)'' + (X^2)' - 3X'^2 with the moment ODEs; z_fd_residual reports the
    agreement with the direct centered-difference evaluation.  Z' has the
    exact form 8(Y^2 - XT)."""

    times: np.ndarray
    Q: np.ndarray
    V: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    T: np.ndarray
    P: np.ndarray
    Z: np.ndarray
    Zdot: np.ndarray
    K: np.ndarray
    ode_residual_x: float
    ode_residual_y: float
    ode_residual_tp: float
    z_fd_residual: float


def diagnostics(block: DissipativeState) -> DissipativeDiagnostics:
    """The moment series of a block of evenly spaced snapshots, reduced
    BLOCK_ROWS rows at a time, so no temporary spans the whole block; each
    row's moments are those of its state alone, bit for bit."""
    need_rows(block, 5)
    g, times = block.grid, block.time
    dt = uniform_spacing(times)
    series = np.empty((6, len(block)))
    for start in range(0, len(block), BLOCK_ROWS):
        rows = block[start:start + BLOCK_ROWS]
        dr = derivative(np.sqrt(np.maximum(rows.rho, 0.0)), g, 1)
        m = raw_moments(g.x, g.dx, rows.rho, rows.velocity(), dr)
        series[:, start:start + BLOCK_ROWS] = [
            m[key] for key in ("Q", "V", "varQ", "Y", "T", "P")]
    Q, V, X, Y, T, P = series
    K = 0.5 * (V**2 + T + P)
    Z = 4.0 * X * (T + P) - 4.0 * Y**2
    Zdot = 8.0 * (Y**2 - X * T)
    x2d1, x2d2 = centered(X**2, dt)
    xd1, _ = centered(X, dt)
    z_fd = x2d2 + x2d1 - 3.0 * xd1**2
    yd1, _ = centered(Y, dt)
    tpd1, _ = centered(T + P, dt)
    res_x = float(np.max(np.abs(xd1 - 2.0 * Y[1:-1])))
    res_y = float(np.max(np.abs(yd1 - (-Y + T + P)[1:-1])))
    res_tp = float(np.max(np.abs(tpd1 + 2.0 * T[1:-1])))
    return DissipativeDiagnostics(
        times=times, Q=Q, V=V, X=X, Y=Y, T=T, P=P, Z=Z, Zdot=Zdot, K=K,
        ode_residual_x=res_x, ode_residual_y=res_y, ode_residual_tp=res_tp,
        z_fd_residual=float(np.max(np.abs(z_fd - Z[1:-1]))),
    )


@dataclass(frozen=True)
class ExpectationLawReport:
    """Deviation from Q(t) = Q(0) + V(0)(1 - e^-t), V(t) = V(0) e^-t."""

    max_rel_dev_q: float
    max_rel_dev_v: float


def expectation_laws(diag: DissipativeDiagnostics) -> ExpectationLawReport:
    if diag.times[-1] - diag.times[0] < LAW_SPAN:
        raise ContractViolationError(f"run must cover at least {LAW_SPAN:g} time units")
    t = diag.times - diag.times[0]
    q0, v0 = diag.Q[0], diag.V[0]
    q_law = q0 + v0 * (1.0 - np.exp(-t))
    v_law = v0 * np.exp(-t)
    q_scale = max(np.max(np.abs(q_law - q0)), abs(v0), 1e-12)
    v_scale = max(abs(v0), 1e-12)
    return ExpectationLawReport(
        max_rel_dev_q=float(np.max(np.abs(diag.Q - q_law)) / q_scale),
        max_rel_dev_v=float(np.max(np.abs(diag.V - v_law)) / v_scale),
    )


@dataclass(frozen=True)
class AsymptoticsReport:
    z_star: float
    z_drift: float  # relative change of Z over the final 10 time units
    slope_x2: float  # fitted d(X^2)/dt on t >= t_min
    slope_ratio: float  # slope_x2 / z_star (expect ~1)
    k_prefactor: float  # plateau of K sqrt(t)
    k_ratio: float  # k_prefactor / (sqrt(z_star)/8) (expect ~1)
    exponent_x2: float  # log-log slope of X^2 (expect ~1)
    exponent_k: float  # log-log slope of K (expect ~ -1/2)
    inconclusive: bool


def asymptotics(diag: DissipativeDiagnostics, t_min: float = 20.0) -> AsymptoticsReport:
    if t_min < 20.0:
        raise ContractViolationError("t_min must be at least 20")
    t_end = float(diag.times[-1])
    if t_end < t_min + 1.0:
        raise ContractViolationError("diagnostics do not cover t >= t_min")
    window = diag.times >= t_end - 10.0
    z_win, t_win = diag.Z[window], diag.times[window]
    z_star = float(np.mean(z_win))
    drift_slope = np.polyfit(t_win, z_win, 1)[0]
    z_drift = float(abs(drift_slope) * 10.0 / max(abs(z_star), 1e-12))
    fit = diag.times >= t_min
    tf, xf, kf = diag.times[fit], diag.X[fit], diag.K[fit]
    slope_x2 = float(np.polyfit(tf, xf**2, 1)[0])
    k_pref = float(np.mean(kf[tf >= t_end - 10.0] * np.sqrt(tf[tf >= t_end - 10.0])))
    exp_x2 = float(np.polyfit(np.log(tf), np.log(xf**2), 1)[0])
    exp_k = float(np.polyfit(np.log(tf), np.log(kf), 1)[0])
    return AsymptoticsReport(
        z_star=z_star,
        z_drift=z_drift,
        slope_x2=slope_x2,
        slope_ratio=slope_x2 / z_star,
        k_prefactor=k_pref,
        k_ratio=k_pref / (np.sqrt(z_star) / 8.0),
        exponent_x2=exp_x2,
        exponent_k=exp_k,
        inconclusive=z_drift > 0.05,
    )


@dataclass(frozen=True)
class StationaryReport:
    """Norm growth of R(x) = c1 e^(c0 x) + c2 e^(-c0 x) over a length ladder."""

    lengths: np.ndarray
    norms: np.ndarray
    divergence_class: str  # "exponential" | "linear"


def stationary_analysis(
    c0: complex, c1: complex, c2: complex, L: float
) -> StationaryReport:
    """Evaluate N(L) = int_{-L}^{L} R^2 for L and STATIONARY_DOUBLINGS
    doublings of it.

    Exponential divergence when Re c0 != 0; linear otherwise (bounded
    oscillatory or constant R).  No parameter
    choice yields a normalizable density.
    """
    c0, c1, c2 = complex(c0), complex(c1), complex(c2)
    if c1 == 0 and c2 == 0:
        raise DegenerateInputError("R is identically zero")
    if not 0 < L < np.inf:
        raise DomainError(f"L={L!r} must be positive and finite")
    lengths = L * 2.0 ** np.arange(STATIONARY_DOUBLINGS + 1)
    norms = []
    for ell in lengths:
        x = np.linspace(-ell, ell, 8193)
        r = c1 * np.exp(c0 * x) + c2 * np.exp(-c0 * x)
        if np.max(np.abs(r.imag)) > 1e-9 * max(np.max(np.abs(r.real)), 1e-300):
            raise DomainError("parameters give a complex-valued R")
        norms.append(np.trapezoid(r.real**2, x))
    # the interval is symmetric, so either exponential mode diverges at one
    # end or the other whenever Re c0 != 0
    growing = abs(c0.real) > 1e-12
    return StationaryReport(
        lengths=lengths,
        norms=np.array(norms),
        divergence_class="exponential" if growing else "linear",
    )
