"""Wave fields, polar decomposition, gauge/boost transforms and process geometry.

The absolute (frame- and gauge-free) description of a state is the density
rho, the velocity u and the energy eps; R = sqrt(rho), s = -eps - u^2/2 and
j = rho u follow from them.  A `WaveField` or `AbsoluteProcess` holds one
field or an (m, n) stack with one time per row, which share one grid (and,
for wave fields, one pair of potentials); `extract_block` produces the
process block of a wave block from its evolution right-hand side in one
stacked pass, and one state is a block of one row; `_Rows` holds the block contract.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ChartDomainError,
    ContractViolationError,
    DegenerateInputError,
    GridMismatchError,
)
from .numerics import (
    Grid,
    check_field,
    derivative,
    fourier_multiply,
    integrate,
)

RHO_FLOOR = 1e-12


class _Rows:
    """A field, or an (m, n) stack of fields (ROW_FIELDS), with one time per
    row: a float, or an (m,) array.  A field is a block of one: `len` counts
    the rows, and `block[i]` (an index or a slice) is a view of those rows,
    built without checking them again.  Construction checks every block's
    fields (as ROW_DTYPE on the grid and finite, or bool for ROW_MASKS), that
    they share one shape, and one finite time per row."""

    ROW_DTYPE, ROW_MASKS = float, ()

    def __post_init__(self):
        for name in self.ROW_FIELDS:
            mask = name in self.ROW_MASKS
            value = np.asarray(getattr(self, name), None if mask else self.ROW_DTYPE)
            if mask and value.dtype != bool:
                raise ContractViolationError(f"{name} is {value.dtype}, not bool")
            if not mask:
                value = check_field(value, self.grid, stack=True)
            setattr(self, name, value)
        shapes = {name: getattr(self, name).shape for name in self.ROW_FIELDS}
        if len(set(shapes.values())) > 1:
            raise GridMismatchError(f"a block's fields have one shape, not {shapes}")
        time, rows = np.asarray(self.time, dtype=float), value.shape[:-1]
        if time.shape not in ((), rows) or not np.isfinite(time).all():
            raise ContractViolationError(
                f"time {self.time!r} is not one finite time per row of {rows}")
        self.time = _row_times(time, value)

    def __len__(self) -> int:
        return len(np.atleast_2d(getattr(self, self.ROW_FIELDS[0])))

    def __getitem__(self, i):
        out = copy(self)
        for name in self.ROW_FIELDS:
            setattr(out, name, np.atleast_2d(getattr(self, name))[i])
        out.time = _row_times(np.atleast_1d(self.time)[i],
                              getattr(out, self.ROW_FIELDS[0]))
        return out

    def need_one(self, who: str) -> None:
        """Refuse a block where `who` takes one state."""
        if getattr(self, self.ROW_FIELDS[0]).ndim != 1:
            raise ContractViolationError(f"{who} takes one state, not a block")

    def need_normalized(self) -> None:
        """Refuse unless each row's `norm_sq` is 1 within 1e-6, by row."""
        n2 = np.reshape(self.norm_sq(), -1)
        off = np.flatnonzero(np.abs(n2 - 1.0) > 1e-6)
        if off.size:
            raise ContractViolationError(f"row {off[0]} not normalized: its "
                                         f"density integrates to {n2[off[0]]:.6f}")


def _row_times(time, field: np.ndarray):
    """time as a float for a field, or one float per row of a stack."""
    if field.ndim == 1:
        return float(time)
    return np.broadcast_to(np.asarray(time, dtype=float), field.shape[:1])


@dataclass
class WaveField(_Rows):
    """Complex wave function, or a stack of them, on a grid, plus the gauge
    potentials and frame tag the rows share."""

    psi: np.ndarray
    grid: Grid
    time: float | np.ndarray = 0.0
    a0: np.ndarray | None = None
    a1: np.ndarray | None = None
    frame_velocity: float = 0.0

    ROW_FIELDS = ("psi",)
    ROW_DTYPE = complex

    def __post_init__(self):
        super().__post_init__()
        for name in ("a0", "a1"):
            value = getattr(self, name)
            setattr(self, name, np.zeros(self.grid.n) if value is None else
                    check_field(np.asarray(value, dtype=float), self.grid))

    def norm_sq(self):
        """|psi|^2 integrated over the grid, of each row of a stack."""
        return self.grid.dx * np.sum(np.abs(self.psi) ** 2, axis=-1)

    def normalized(self) -> "WaveField":
        """The field, or each row, scaled to unit norm, built without
        checking it again: psi/sqrt(|psi|^2) of a checked field with
        |psi|^2 > 0 is finite, since |psi|^2 >= dx max|psi|^2, and a0, a1 are
        the same arrays."""
        n2 = self.norm_sq()
        if np.any(n2 <= 0):
            raise DegenerateInputError("cannot normalize a zero field")
        out = copy(self)
        out.psi = self.psi / np.expand_dims(np.sqrt(n2), -1)
        return out


@dataclass
class AbsoluteProcess(_Rows):
    """The fields (rho, u, eps) on a grid, of one instant or as stacks with
    one time per row; R = sqrt(rho), s = -eps - u^2/2 and j = rho u are
    computed from them when read."""

    rho: np.ndarray
    u: np.ndarray
    eps: np.ndarray
    grid: Grid
    time: float | np.ndarray = 0.0
    flagged: np.ndarray = None  # points where rho is below the floor

    ROW_FIELDS = ("rho", "u", "eps", "flagged")
    ROW_MASKS = ("flagged",)

    def __post_init__(self):
        if self.flagged is None:
            self.flagged = np.zeros(np.shape(self.rho), dtype=bool)
        super().__post_init__()
        if np.any(self.rho < -1e-12):
            raise ContractViolationError("rho must be nonnegative")

    def norm_sq(self):
        return self.grid.dx * np.sum(self.rho, axis=-1)

    @property
    def r_amp(self) -> np.ndarray:
        return np.sqrt(self.rho)

    @property
    def s(self) -> np.ndarray:
        return -self.eps - 0.5 * self.u**2

    @property
    def j(self) -> np.ndarray:
        return self.rho * self.u


@dataclass
class PolarDecomposition:
    r_amp: np.ndarray
    phase: np.ndarray
    flagged: np.ndarray


TAIL_POINTS = 8  # the outermost valid points a tail line is fitted to


def _tree_sum(a: np.ndarray) -> np.ndarray:
    """Sum over a last axis whose width is a power of two (TAIL_POINTS) in
    one fixed pairwise order, so that a row's sum does not depend on the
    rows stacked with it."""
    while a.shape[-1] > 1:
        a = a[..., 0::2] + a[..., 1::2]
    return a[..., 0]


def _fill_flagged(fields, flagged: np.ndarray, x: np.ndarray):
    """The stack `fields`, each field shaped like `flagged` (one row or a
    stack of rows), with the flagged points of each row filled from
    that row's valid points: inside the valid range by the line between the
    two neighbouring valid points, in np.interp's arithmetic, and in each
    tail by the least-squares line through the min(TAIL_POINTS, valid)
    outermost valid points, so smooth fields continue without kinks.  A row
    with one valid point takes its value at every flagged point; a row with
    none is left as it is.  Only the flagged points and the fit windows are
    indexed, no flagged value is read, and each row is filled from its own
    points in a fixed order, so it equals its fill alone bit for bit.  The
    fill is a copy; with nothing to fill, `fields` is returned as given."""
    n = x.size
    mask = flagged.reshape(-1, n)
    bad = mask.ravel().nonzero()[0]
    if bad.size in (0, mask.size):
        return fields
    out = np.array(fields, dtype=float)
    ys = out.reshape(len(out), -1)  # each field's rows end to end
    good = (~mask).ravel().nonzero()[0]
    # row r's valid points are good[bounds[r]:bounds[r + 1]]
    bounds = good.searchsorted(np.arange(0, mask.size + 1, n))
    nxt = good.searchsorted(bad)  # each flagged point's next valid point
    # nxt is a bound of the point's row exactly when the point is in a tail
    inner = bounds.take(bounds.searchsorted(nxt)) != nxt
    if inner.any():
        at, hi = bad[inner], nxt[inner]
        lo, hi = good.take(hi - 1), good.take(hi)
        x0, y0 = x.take(lo % n), ys.take(lo, axis=1)
        ys[:, at] = ((ys.take(hi, axis=1) - y0) / (x.take(hi % n) - x0)
                     * (x.take(at % n) - x0) + y0)
    if not inner.all():
        row = bad // n
        first, end = bounds.take(row), bounds[1:].take(row)
        tail = ~inner & (first < end)
        # the windows: each row's first valid points, then its last ones
        width = np.minimum(np.diff(bounds), TAIL_POINTS)
        start = np.concatenate([bounds[:-1], bounds[1:] - width])
        width = np.concatenate([width, width])
        k = np.arange(TAIL_POINTS)
        used = k < width[:, None]
        win = good.take(np.minimum(start[:, None] + k, good.size - 1))
        xw = np.where(used, x.take(win % n), 0.0)
        yw = np.where(used, ys.take(win, axis=1), 0.0)
        means = _tree_sum(np.concatenate([xw[None], yw])) / np.maximum(width, 1)
        xm, ym = means[0], means[1:]
        dx = np.where(used, xw - xm[:, None], 0.0)
        sums = _tree_sum(dx * np.concatenate([dx[None], yw - ym[..., None]]))
        slope = sums[1:] / np.where(width > 1, sums[0], 1.0)
        at, w = bad[tail], np.where(nxt == end, row + len(mask), row)[tail]
        ys[:, at] = (ym.take(w, axis=1) + slope.take(w, axis=1)
                     * (x.take(at % n) - xm.take(w)))
    return out


def _flag_below_floor(r_amp: np.ndarray):
    """rho = R^2, its peak and the points below RHO_FLOOR times the peak, of
    a field or of each row of a stack (the peak kept as a column)."""
    rho = r_amp**2
    peak = rho.max(axis=-1, keepdims=True)
    if np.any(peak == 0.0):
        raise DegenerateInputError("wave function is identically zero")
    return rho, peak, rho < RHO_FLOOR * peak


def polar_decompose(w: WaveField) -> PolarDecomposition:
    """Split psi = R exp(iS) with S unwrapped from the index of max |psi|."""
    w.need_one("polar_decompose")
    r_amp = np.abs(w.psi)
    flagged = _flag_below_floor(r_amp)[2]
    angle = np.angle(w.psi)
    phase = np.unwrap(angle)
    i0 = int(np.argmax(r_amp))
    phase = phase - phase[i0] + angle[i0]
    phase, = _fill_flagged([phase], flagged, w.grid.x)
    return PolarDecomposition(r_amp=r_amp, phase=phase, flagged=flagged)


def need_rows(block, least: int) -> None:
    """Refuse a block (a series of snapshots) of fewer than `least` rows."""
    if len(block) < least:
        raise ContractViolationError(f"need at least {least} snapshots")


def extract_block(w: WaveField, dpsi_dt) -> tuple[np.ndarray, AbsoluteProcess]:
    """psi' and the process block of a wave field or block, from its
    evolution right-hand side `dpsi_dt` (of its shape).

    u = Im(psi* dpsi/dx)/|psi|^2 - A1, eps = Im(psi* dpsi/dt)/|psi|^2 - A0,
    in one pass over the stack; points with |psi|^2 below RHO_FLOOR times
    their row's peak are flagged, and u and eps there are filled for the
    whole block at once (`_fill_flagged`).  Every step acts on each row
    alone, so a row equals its state's extraction alone bit for bit.
    """
    g, psi = w.grid, w.psi
    dpsi_dt = check_field(np.asarray(dpsi_dt, dtype=complex), g, stack=True)
    if dpsi_dt.shape != psi.shape:
        raise GridMismatchError(
            f"states of shape {psi.shape} with right-hand sides {dpsi_dt.shape}")
    dpsi_dx = derivative(psi, g, 1)
    rho, peak, flagged = _flag_below_floor(np.abs(psi))
    safe_rho = np.where(flagged, RHO_FLOOR * peak, rho)
    u = np.imag(np.conj(psi) * dpsi_dx) / safe_rho - w.a1
    eps = np.imag(np.conj(psi) * dpsi_dt) / safe_rho - w.a0
    u, eps = _fill_flagged([u, eps], flagged, g.x)
    return dpsi_dx, AbsoluteProcess(rho, u, eps, g, w.time, flagged)


def raise_floor(p: AbsoluteProcess, floor: float) -> AbsoluteProcess:
    """A new process (block) equal to extraction at the higher relative
    floor: above it p's u and eps are the unfilled values, and the points
    below it are filled from those alone."""
    if floor < RHO_FLOOR:
        raise ContractViolationError(f"floor {floor:g} is below RHO_FLOOR")
    flagged = p.rho < floor * p.rho.max(axis=-1, keepdims=True)
    u, eps = _fill_flagged([p.u, p.eps], flagged, p.grid.x)
    return AbsoluteProcess(p.rho, u, eps, p.grid, p.time, flagged)


def gauge_transform(
    w: WaveField, alpha: np.ndarray, dalpha_dt: np.ndarray | None = None
) -> WaveField:
    """Multiply psi (each row of a block) by exp(i alpha) and shift the
    potentials accordingly."""
    alpha = check_field(np.asarray(alpha, dtype=float), w.grid)
    if dalpha_dt is None:
        dalpha_dt = np.zeros(w.grid.n)
    dalpha_dt = check_field(np.asarray(dalpha_dt, dtype=float), w.grid)
    return replace(w, psi=w.psi * np.exp(1j * alpha), a0=w.a0 + dalpha_dt,
                   a1=w.a1 + derivative(alpha, w.grid, 1))


def boost_transform(w: WaveField, v: float) -> WaveField:
    """Active boost of one wave field: psi'(t, x) = psi(t, x + v t)
    exp(i(-v^2 t/2 - v x)), on a periodic grid; a box with fixed walls is
    not mapped onto itself."""
    w.need_one("a boost")
    w.grid.need_periodic("a boost")
    # periodic spectral interpolation f(x + v t)
    shift = np.exp(1j * w.grid.k * (v * w.time))
    psi_shifted = fourier_multiply(w.psi, shift)
    a0 = fourier_multiply(w.a0, shift)
    a1 = fourier_multiply(w.a1, shift)
    phase = -0.5 * v * v * w.time - v * w.grid.x
    return replace(w, psi=psi_shifted * np.exp(1j * phase), a0=a0, a1=a1,
                   frame_velocity=w.frame_velocity + v)


def _pair_stacks(block1: WaveField, block2: WaveField):
    """The psi of two equally long blocks, paired row by row; refused unless
    both share one grid, each pair one time, and every state is
    normalized."""
    if block1.grid != block2.grid:
        raise GridMismatchError("paired states share one grid")
    if len(block1) != len(block2):
        raise ContractViolationError("states are compared in pairs")
    if np.any(np.abs(block1.time - block2.time) > 1e-12):
        raise ContractViolationError("states must be compared at equal times")
    block1.need_normalized()
    block2.need_normalized()
    return block1.psi, block2.psi


def _overlaps(block1: WaveField, block2: WaveField):
    """s_a of each pair of rows, capped at 1.  The modulus is np.hypot, which
    rounds as Python's abs(complex) does; np.abs of a complex array differs
    from it in the last bit for about a third of all values."""
    psi1, psi2 = _pair_stacks(block1, block2)
    ip = block1.grid.dx * np.sum(np.conj(psi1) * psi2, axis=-1)
    return np.minimum(np.hypot(ip.real, ip.imag), 1.0)


def process_distances(block1: WaveField, block2: WaveField):
    """The process-space metric l = arccos s_a, in [0, pi/2], of each pair
    (block1[i], block2[i]) of rows of two blocks (reduced along the last
    axis), from row-wise overlaps s_a = |<psi1, psi2>|; each row is computed
    alone, so it equals its pair's blocks of one bit for bit."""
    return np.arccos(np.clip(_overlaps(block1, block2), 0.0, 1.0))


def chart_coordinate(psi0: WaveField, psi: WaveField) -> np.ndarray:
    """Chart vector phi = (|c|/c)(psi - c psi0), c = <psi0, psi>.

    Orthogonal to psi0 and invariant under psi -> exp(i theta) psi.
    """
    psi0.need_one("a chart")
    psi.need_one("a chart")
    _pair_stacks(psi0, psi)
    c = complex(integrate(np.conj(psi0.psi) * psi.psi, psi0.grid))
    if abs(c) < 1e-12:
        raise ChartDomainError("chart undefined for (near-)orthogonal states")
    return (abs(c) / c) * (psi.psi - c * psi0.psi)


def geodesic_length(psi0: WaveField, psi: WaveField, n_steps: int = 512) -> float:
    """Length of the straight chart curve phi(t) = t phi(1), trapezoid rule.

    With d = |phi'|^2, the curve has |phi|^2 = t^2 d and <phi, phi'> = t d,
    so the chart metric gives the integrand d + (t d)^2 / (1 - t^2 d) at
    every node from one integral.  Converges (2nd order in 1/n_steps) to
    arccos s_a.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    d = float(integrate(np.abs(chart_coordinate(psi0, psi)) ** 2, psi0.grid))
    ts = np.linspace(0.0, 1.0, n_steps + 1)
    vals = np.sqrt(d + (ts * d) ** 2 / np.maximum(1.0 - ts**2 * d, 1e-300))
    return float(np.trapezoid(vals, ts))


def cotensor_boost_check(p: AbsoluteProcess, v: float) -> float:
    """Max deviation of the (eps, u) shifts the two-cotensor boost rule gives
    from the boost covariance of the fields.

    The two-cotensor of (eps, u) has z_00 = eps, z_10 = z_01 = u/2 and
    z_11 = -1/2.  Algebraic identity; deviations are pure round-off.
    """
    c00 = p.eps
    c10 = c01 = 0.5 * p.u
    c11 = -0.5
    c00p = c00 + v * (c01 + c10) + v * v * c11
    c10p = c10 + v * c11
    eps_expected = p.eps + v * p.u - 0.5 * v * v
    u_expected = p.u - v
    dev_eps = float(np.max(np.abs(c00p - eps_expected)))
    dev_u = float(np.max(np.abs(2.0 * c10p - u_expected)))
    return max(dev_eps, dev_u)
