"""Damped system: moment laws, monotone invariants, dual-solver agreement."""

from dataclasses import replace

import numpy as np
import pytest

from absqm import dissipative
from absqm.dissipative import (
    MAX_STEP_HALVINGS,
    STABILITY_COEFF,
    DissipativeRunConfig,
    DissipativeState,
    _advance,
    _DampedOperator,
    _operator,
    asymptotics,
    diagnostics,
    expectation_laws,
    gaussian_state,
    run,
    stationary_analysis,
    step_absolute,
    step_quasiwave,
)
from absqm.errors import (
    ContractViolationError,
    DegenerateInputError,
    DomainError,
    GridMismatchError,
    StabilityError,
    UnwrapError,
)
from absqm.numerics import DIRICHLET, Grid, derivative, integrate
from absqm.observables import raw_moments
from absqm.states import gaussian_packet
from absqm.wavefield import WaveField, polar_decompose


@pytest.fixture(scope="module")
def short_run():
    cfg = DissipativeRunConfig(
        x_min=-40.0, x_max=40.0, n=1024, t_final=6.0, snapshot_dt=0.05
    )
    return run(cfg)


@pytest.fixture(scope="module")
def short_diag(short_run):
    return diagnostics(short_run)


def test_gaussian_state_construction():
    g = Grid(-40.0, 40.0, 512)
    s = gaussian_state(g, sigma=1.5, center=0.5, velocity=0.8)
    assert integrate(s.rho, g) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(s.velocity(), 0.8)
    assert s.rho.min() > 0.0


def test_norm_conserved(short_run):
    s = short_run[-1]
    assert integrate(s.rho, s.grid) == pytest.approx(1.0, abs=1e-8)


def test_expectation_laws(short_diag):
    rep = expectation_laws(short_diag)
    assert rep.max_rel_dev_q < 0.01
    assert rep.max_rel_dev_v < 0.01


def test_moment_ode_residuals(short_diag):
    d = short_diag
    assert d.ode_residual_x < 1e-3
    assert d.ode_residual_y < 1e-3
    assert d.ode_residual_tp < 1e-3
    assert d.z_fd_residual < 1e-3


def test_monotone_and_positive_invariants(short_diag):
    d = short_diag
    # H1 = PX - 1/4 and H2 = TX - Y^2 are Cauchy-Schwarz margins
    assert np.min(d.P * d.X - 0.25) >= -1e-9
    assert np.min(d.T * d.X - d.Y**2) >= -1e-9
    assert np.max(d.Zdot) <= 1e-6
    # Z starts at 1 for the uniform-velocity Gaussian (up to the O(pedestal)
    # variance carried by the vacuum floor) and decays toward Z*
    assert d.Z[0] == pytest.approx(1.0, abs=1e-3)
    assert np.min(d.Zdot + 2.0 * d.Z - 2.0) >= -1e-6


def test_dissipative_ehrenfest(short_diag):
    """d^2 Q/dt^2 = -dQ/dt: the friction force is the only force."""
    d = short_diag
    dt = d.times[1] - d.times[0]
    dq = (d.Q[2:] - d.Q[:-2]) / (2.0 * dt)
    d2q = (d.Q[2:] - 2.0 * d.Q[1:-1] + d.Q[:-2]) / dt**2
    dev = np.max(np.abs(d2q + dq)) / max(np.max(np.abs(dq)), 1e-12)
    assert dev < 0.01


def test_dual_solver_density_agreement():
    """The absolute-variable integrator and the quasi-wave solver agree on a
    winding-free state (sinusoidal phase, zero net circulation)."""
    g = Grid(-5.0, 5.0, 256)
    s0 = gaussian_state(g, sigma=1.0)
    phase = 0.3 * np.sin(2.0 * np.pi * g.x / g.length)
    u = derivative(phase, g, 1)
    s = DissipativeState(rho=s0.rho, j=s0.rho * u, grid=g)
    w = WaveField(np.sqrt(s0.rho) * np.exp(1j * phase), g)

    t_final = 1.0
    dt_abs = 0.1 * g.dx**2
    n_abs = int(round(t_final / dt_abs))
    dt_abs = t_final / n_abs
    for _ in range(n_abs):
        s = step_absolute(s, dt_abs)

    dt_qw = 2e-4
    n_qw = int(round(t_final / dt_qw))
    for _ in range(n_qw):
        w = step_quasiwave(w, dt_qw)

    diff = np.sqrt(integrate((s.rho - np.abs(w.psi) ** 2) ** 2, g))
    assert diff < 1e-4


def _routed_quasiwave_step(w, dt):
    """The quasi-wave step as it was once routed: S as a custom potential
    through the Strang half steps of the Schrodinger stepper."""
    g = w.grid
    kin = np.exp(-0.5j * dt * (g.k - float(w.a1.mean())) ** 2)

    def half(psi):
        phase = polar_decompose(WaveField(psi, g, a0=w.a0, a1=w.a1)).phase
        return np.exp(0.5j * dt * (w.a0 - np.asarray(phase, dtype=float)))

    psi = w.psi * half(w.psi)
    psi = np.fft.ifft(kin * np.fft.fft(psi))
    return WaveField(psi * half(psi), g, time=w.time + dt)


def test_quasiwave_step_equals_routed_strang_step():
    g = Grid(-5.0, 5.0, 256)
    rho = gaussian_state(g, sigma=1.0).rho
    phase = 0.3 * np.sin(2.0 * np.pi * g.x / g.length) + 0.4 * g.x
    w = ref = WaveField(np.sqrt(rho) * np.exp(1j * phase), g)
    for _ in range(50):
        w = step_quasiwave(w, 2e-3)
        ref = _routed_quasiwave_step(ref, 2e-3)
    assert np.array_equal(w.psi, ref.psi)
    assert w.time == ref.time


def test_run_rejects_t_final_off_the_snapshot_grid():
    cfg = DissipativeRunConfig(
        x_min=-5.0, x_max=5.0, n=64, t_final=0.25, snapshot_dt=0.1
    )
    with pytest.raises(ContractViolationError):
        run(cfg)


def test_quasiwave_rejects_wide_vacuum():
    g = Grid(-40.0, 40.0, 512)
    w = gaussian_packet(g, sigma=1.0)
    with pytest.raises(UnwrapError):
        step_quasiwave(w, 1e-3)


def test_step_absolute_dt_bound():
    g = Grid(-10.0, 10.0, 128)
    s = gaussian_state(g)
    with pytest.raises(StabilityError):
        step_absolute(s, g.dx**2)


def test_run_refuses_a_packet_at_the_domain_edge():
    """A packet whose density rises at the edge of its periodic grid stops
    the run, which does not carry on with a wrapped state."""
    cfg = DissipativeRunConfig(
        x_min=-5.0, x_max=5.0, n=256, t_final=2.0, snapshot_dt=0.25
    )
    with pytest.raises(DomainError, match="domain edge"):
        run(cfg)


def _still_block(times):
    """The Gaussian of a small grid repeated once per time."""
    s = gaussian_state(Grid(-10.0, 10.0, 128))
    m = len(times)
    return DissipativeState(rho=np.tile(s.rho, (m, 1)), j=np.tile(s.j, (m, 1)),
                            grid=s.grid, time=times)


def test_diagnostics_validation():
    with pytest.raises(ContractViolationError):
        diagnostics(_still_block([0.0, 0.1, 0.2]))
    with pytest.raises(ContractViolationError):
        diagnostics(_still_block([0.0, 0.1, 0.2, 0.25, 0.4]))


def test_expectation_laws_need_duration():
    with pytest.raises(ContractViolationError):
        expectation_laws(diagnostics(_still_block(0.1 * np.arange(6))))


def test_block_refuses_rows_of_two_shapes():
    g = Grid(-10.0, 10.0, 128)
    with pytest.raises(GridMismatchError):
        DissipativeState(rho=np.ones((3, g.n)), j=np.ones((2, g.n)), grid=g)


def test_diagnostics_of_a_block_equal_the_moments_of_each_row(short_run):
    """`diagnostics` reduces its block a few rows at a time; each moment
    equals that of its row's state alone, bit for bit."""
    d = diagnostics(short_run)
    assert len(short_run) > dissipative.BLOCK_ROWS
    for i in range(len(short_run)):
        s = short_run[i]
        g = s.grid
        dr = derivative(np.sqrt(np.maximum(s.rho, 0.0)), g, 1)
        m = raw_moments(g.x, g.dx, s.rho, s.velocity(), dr)
        got = (d.times[i], d.Q[i], d.V[i], d.X[i], d.Y[i], d.T[i], d.P[i])
        want = (s.time, m["Q"], m["V"], m["varQ"], m["Y"], m["T"], m["P"])
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_asymptotics_validation(short_diag):
    with pytest.raises(ContractViolationError):
        asymptotics(short_diag, t_min=20.0)  # run too short
    with pytest.raises(ContractViolationError):
        asymptotics(short_diag, t_min=5.0)  # t_min below the allowed window


@pytest.mark.parametrize(
    "c0,c1,c2",
    [(0.7, 1.0, 0.0), (0.7, 0.0, 1.0), (-0.3, 0.5, 0.5)],
)
def test_stationary_exponential_divergence(c0, c1, c2):
    rep = stationary_analysis(c0, c1, c2, L=2.0)
    assert rep.divergence_class == "exponential"
    # doubling L at least squares the norm once the growing tail dominates
    assert rep.norms[-1] / rep.norms[-2] > (rep.norms[-2] / rep.norms[-3]) ** 1.5


def test_stationary_linear_divergence():
    # R = cos(2x): bounded amplitude, norm grows linearly with L
    rep = stationary_analysis(2.0j, 0.5, 0.5, L=2.0)
    assert rep.divergence_class == "linear"
    # N(L) = L + sin(4L)/4; the oscillatory part dies off relative to L
    ratios = rep.norms[1:] / rep.norms[:-1]
    assert np.allclose(ratios[-3:], 2.0, rtol=0.05)
    # constant R is linear too
    rep2 = stationary_analysis(0.0, 0.5, 0.5, L=2.0)
    assert rep2.divergence_class == "linear"


def test_stationary_validation():
    with pytest.raises(DegenerateInputError):
        stationary_analysis(1.0, 0.0, 0.0, L=1.0)
    with pytest.raises(DomainError):
        stationary_analysis(1.0, 1.0, 0.0, L=-1.0)
    with pytest.raises(DomainError):
        stationary_analysis(1.0j, 1.0, 0.0, L=1.0)  # complex-valued R


@pytest.mark.parametrize("L", [np.nan, np.inf])
def test_stationary_refuses_a_non_finite_length(L):
    with pytest.raises(DomainError, match=f"L={L!r}"):
        stationary_analysis(1.0, 1.0, 0.0, L=L)


def _reference_rhs(rho, j, g):
    """The damped right-hand side written with `numerics.derivative`."""
    safe = np.maximum(rho, 1e-14 * max(float(rho.max()), 1e-300))
    drho = derivative(rho, g, 1)
    flux = 0.5 * derivative(rho, g, 2) - drho**2 / (2.0 * safe) - 2.0 * j**2 / safe
    return -derivative(j, g, 1), -j + 0.5 * derivative(flux, g, 1)


def _reference_step(rho, j, g, dt):
    """RK4 on `_reference_rhs`, then the exponential filter on full FFTs."""
    k1r, k1j = _reference_rhs(rho, j, g)
    k2r, k2j = _reference_rhs(rho + 0.5 * dt * k1r, j + 0.5 * dt * k1j, g)
    k3r, k3j = _reference_rhs(rho + 0.5 * dt * k2r, j + 0.5 * dt * k2j, g)
    k4r, k4j = _reference_rhs(rho + dt * k3r, j + dt * k3j, g)
    rho = rho + (dt / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
    j = j + (dt / 6.0) * (k1j + 2.0 * k2j + 2.0 * k3j + k4j)
    filt = np.exp(-36.0 * (np.abs(g.k) / np.max(np.abs(g.k))) ** 16)
    return (
        np.real(np.fft.ifft(filt * np.fft.fft(rho))),
        np.real(np.fft.ifft(filt * np.fft.fft(j))),
    )


@pytest.mark.parametrize("n", [1024, 1023])
def test_operator_matches_derivative_formula(n):
    cfg = DissipativeRunConfig()
    g = Grid(cfg.x_min, cfg.x_max, n)
    s = gaussian_state(g, sigma=cfg.sigma, center=cfg.q0, velocity=cfg.v0)
    # j' carries rho''' (flux'), so FFT round-off reaches it amplified by
    # about k_max^3; it agrees to 6e-13 relative, rho' to 5e-15
    op = _operator(g)
    u = np.fft.rfft(np.stack((s.rho, s.j)))
    slope = op.slope(u, s.rho, s.j, np.fft.irfft(op.ik * u[0], n))
    for got, want in zip(np.fft.irfft(slope, n), _reference_rhs(s.rho, s.j, g)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    dt = STABILITY_COEFF * g.dx**2
    rho_ref, j_ref = _reference_step(s.rho, s.j, g, dt)
    s1 = step_absolute(s, dt)
    assert np.max(np.abs(s1.rho - np.maximum(rho_ref, 0.0))) <= 1e-15
    assert np.max(np.abs(s1.j - j_ref)) <= 1e-15


def test_step_absolute_fourth_order():
    g = Grid(-20.0, 20.0, 64)
    wave = 2.0 * np.pi * g.x / g.length
    rho = 1.0 + 0.3 * np.cos(wave)
    rho /= integrate(rho, g)
    s0 = DissipativeState(rho=rho, j=0.2 * rho * np.sin(wave), grid=g)

    def evolve_to_one(n_steps):
        s = s0
        for _ in range(n_steps):
            s = step_absolute(s, 1.0 / n_steps)
        return s

    # 26 steps is the coarsest dt under the stability bound; from 208 steps
    # on the error reaches its round-off floor (~1e-14)
    ref = evolve_to_one(32 * 104)
    errors = []
    for n_steps in (26, 52, 104):
        s = evolve_to_one(n_steps)
        errors.append(
            np.sqrt(integrate((s.rho - ref.rho) ** 2, g))
            + np.sqrt(integrate((s.j - ref.j) ** 2, g))
        )
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders >= 3.8), orders


def _gaussian_solution(g, sigma, velocity, t, n_steps=2000):
    """rho and j at t of the damped system's exact solution from the Gaussian
    rho = N(0, sigma^2) with uniform u = velocity: rho = N(Q, X) and
    u = V + (Y/X)(x - Q), where X = var Q and Y = integral rho (x - Q)(u - V)
    close the moment ODEs Q' = V, V' = -V, X' = 2Y, Y' = -Y + Y^2/X + 1/(4X).
    A fine RK4 integrates them to round-off."""

    def slope(y):
        q, v, x2, c = y
        return np.array([v, -v, 2.0 * c, -c + c * c / x2 + 0.25 / x2])

    y, h = np.array([0.0, velocity, sigma**2, 0.0]), t / n_steps
    for _ in range(n_steps):
        k1 = slope(y)
        k2 = slope(y + 0.5 * h * k1)
        k3 = slope(y + 0.5 * h * k2)
        k4 = slope(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    q, v, x2, c = y
    rho = np.exp(-((g.x - q) ** 2) / (2.0 * x2)) / np.sqrt(2.0 * np.pi * x2)
    return rho, rho * (v + (c / x2) * (g.x - q))


@pytest.mark.parametrize("pedestal", [1e-10, 1e-8])
def test_step_absolute_follows_the_exact_gaussian_solution(monkeypatch, pedestal):
    """`step_absolute` against the exact Gaussian solution of its own PDE.
    The distance is the initial state's pedestal carried forward, not the
    scheme's error: max |drho| = 2.96 and max |dj| = 1.09 PEDESTAL_FRAC at
    1e-10, 1e-8 and 1e-6, the same at n = 1024.  Without the friction term
    the same run misses by 2.2e-2 in rho and 1.3e-1 in j."""
    monkeypatch.setattr(dissipative, "PEDESTAL_FRAC", pedestal)
    g = Grid(-40.0, 40.0, 512)
    s = gaussian_state(g, sigma=2.0, velocity=1.0)
    n_steps = int(np.ceil(1.0 / (STABILITY_COEFF * g.dx**2)))
    for _ in range(n_steps):
        s = step_absolute(s, 1.0 / n_steps)
    rho, j = _gaussian_solution(g, sigma=2.0, velocity=1.0, t=1.0)
    assert np.max(np.abs(s.rho - rho)) < 4.0 * pedestal
    assert np.max(np.abs(s.j - j)) < 4.0 * pedestal


def test_step_absolute_non_finite_raises():
    g = Grid(-10.0, 10.0, 128)
    s0 = gaussian_state(g)
    s = DissipativeState(rho=s0.rho, j=np.full(g.n, 1e200), grid=g)
    with np.errstate(all="ignore"), pytest.raises(GridMismatchError):
        step_absolute(s, STABILITY_COEFF * g.dx**2)


def test_step_absolute_rejects_dirichlet_grid():
    g = Grid(-10.0, 10.0, 128, DIRICHLET)
    with pytest.raises(ContractViolationError):
        step_absolute(gaussian_state(g), STABILITY_COEFF * g.dx**2)


def _count_rk4_calls(monkeypatch):
    calls = []
    rk4 = _DampedOperator.rk4

    def counting(self, rho, j, dt):
        calls.append(dt)
        return rk4(self, rho, j, dt)

    monkeypatch.setattr(_DampedOperator, "rk4", counting)
    return calls


def _normalized_state(g, rho):
    return DissipativeState(rho=rho / integrate(rho, g), j=np.zeros(g.n), grid=g)


def test_step_absolute_exhausts_its_halvings(monkeypatch):
    """A box density undershoots at every dt: each halving fails on its first
    substep, and the step raises after 1 + MAX_STEP_HALVINGS attempts."""
    g = Grid(-10.0, 10.0, 128)
    s = _normalized_state(g, (np.abs(g.x) < 2.0).astype(float))
    calls = _count_rk4_calls(monkeypatch)
    dt = STABILITY_COEFF * g.dx**2
    with pytest.raises(StabilityError):
        step_absolute(s, dt)
    assert len(calls) == MAX_STEP_HALVINGS + 1 == 9
    assert calls == [dt / 2**m for m in range(MAX_STEP_HALVINGS + 1)]


def test_step_absolute_halving_rescues_a_step(monkeypatch):
    """Smoothed box edges (tanh width 0.8) undershoot at the full dt but not
    at a fraction of it; the halved substeps still land on t + dt."""
    g = Grid(-10.0, 10.0, 128)
    s = _normalized_state(g, 1.0 - np.tanh((np.abs(g.x) - 2.0) / 0.8))
    calls = _count_rk4_calls(monkeypatch)
    dt = STABILITY_COEFF * g.dx**2
    s1 = step_absolute(s, dt)
    assert len(calls) > 1 and calls[0] == dt
    assert set(calls) <= {dt / 2**m for m in range(MAX_STEP_HALVINGS + 1)}
    assert s1.time == dt
    assert s1.rho.min() >= 0.0


def _rough_state(n):
    """A periodic state with content up to the grid scale: a sawtooth and
    white noise on a smooth profile, so the filter and the Nyquist entry of
    ik both act on it."""
    g = Grid(-10.0, 10.0, n)
    wave = 2.0 * np.pi * g.x / g.length
    saw = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    noise = np.random.default_rng(1).standard_normal((2, n))
    rho = 1.0 + 0.3 * np.cos(wave) + 0.01 * (saw + noise[0])
    j = 0.2 * np.sin(wave) + 0.01 * (saw + noise[1])
    return DissipativeState(rho=rho, j=j, grid=g)


@pytest.mark.parametrize("n", [128, 127])
def test_step_absolute_filters_grid_scale_content(n):
    """Four steps follow `_reference_step` on a rough state.  Without the
    filter they miss by 2e-2, and with a nonzero Nyquist entry of ik
    (n = 128) by 2e-5; round-off is 4e-15."""
    s = _rough_state(n)
    g, dt = s.grid, STABILITY_COEFF * s.grid.dx**2
    rho, j = s.rho, s.j
    for _ in range(4):
        s = step_absolute(s, dt)
        rho, j = _reference_step(rho, j, g, dt)
    assert np.max(np.abs(s.rho - rho)) <= 1e-13 * np.max(np.abs(rho))
    assert np.max(np.abs(s.j - j)) <= 1e-13 * np.max(np.abs(j))


def test_clipped_step_drops_the_carry():
    """Without the pedestal the Gaussian's tails are ~1e-22, and a step
    leaves round-off below zero there: the clip changes rho, so `run`'s next
    step must not start from the unclipped spectrum.  `_advance` then hands
    on no spectrum, and the next step rebuilds it from the clipped rows."""
    g = Grid(-10.0, 10.0, 128)
    op, dt = _operator(g), STABILITY_COEFF * g.dx**2
    s = gaussian_state(g)
    assert _advance(op, None, (s.rho, s.j), dt)[0] is not None
    rho = np.exp(-(g.x**2) / 2.0)
    rho /= integrate(rho, g)
    u, x = _advance(op, None, (rho, np.zeros(g.n)), dt)
    assert u is None
    assert x[0].min() == 0.0
    s1 = DissipativeState(rho=x[0], j=x[1], grid=g, time=dt)
    x2, want = _advance(op, u, x, dt)[1], step_absolute(s1, dt)
    assert np.array_equal(x2[0], want.rho) and np.array_equal(x2[1], want.j)


def test_run_returns_one_block():
    """`run` returns its snapshots as the rows of one block, with one time
    per row, which holds no array of the operator's steps."""
    cfg = DissipativeRunConfig(
        x_min=-10.0, x_max=10.0, n=128, t_final=0.2, snapshot_dt=0.05
    )
    block = run(cfg)
    assert len(block) == 5
    assert block.rho.shape == block.j.shape == (5, cfg.n)
    assert block.time.shape == (5,) and block.time[0] == 0.0
    first = gaussian_state(block.grid, sigma=cfg.sigma, center=cfg.q0,
                           velocity=cfg.v0)
    assert np.array_equal(block[0].rho, first.rho)
    assert np.array_equal(block[0].j, first.j)
    buffers = [v for v in vars(_operator(block.grid)).values()
               if isinstance(v, np.ndarray)]
    for a in (block.rho, block.j):
        assert not any(np.shares_memory(a, b) for b in buffers)


def test_run_steps_like_step_absolute():
    """`run` carries the operator's pair from step to step, and
    `step_absolute` rebuilds it from rho and j: the first step is equal bit
    for bit, and later snapshots agree within 1e-12 of the largest value
    (the two drift apart by 6e-15 in rho and 6e-14 in j over 200 steps of
    a rough state)."""
    cfg = DissipativeRunConfig(
        x_min=-10.0, x_max=10.0, n=128, t_final=0.2, snapshot_dt=0.05
    )
    dt = STABILITY_COEFF * Grid(cfg.x_min, cfg.x_max, cfg.n).dx ** 2
    per_snap = int(np.ceil(cfg.snapshot_dt / dt - 1e-9))
    dt = cfg.snapshot_dt / per_snap
    one = run(replace(cfg, snapshot_dt=dt, t_final=dt))
    block = run(cfg)
    s = block[0]
    first = step_absolute(s, dt)
    assert first.time == one.time[1]
    assert first.rho.tobytes() == one.rho[1].tobytes()
    assert first.j.tobytes() == one.j[1].tobytes()
    for i in range(1, len(block)):
        for _ in range(per_snap):
            s = step_absolute(s, dt)
        want = block[i]
        assert s.time == want.time
        for got, ref in ((s.rho, want.rho), (s.j, want.j)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_run_catches_a_nan_between_snapshots_at_the_next_snapshot(monkeypatch):
    """A NaN made by a step between two snapshots is not checked at that
    step; it is refused at the next snapshot, after that snapshot's steps."""
    cfg = DissipativeRunConfig(
        x_min=-10.0, x_max=10.0, n=128, t_final=0.2, snapshot_dt=0.05
    )
    dt = STABILITY_COEFF * Grid(cfg.x_min, cfg.x_max, cfg.n).dx ** 2
    per_snap = int(np.ceil(cfg.snapshot_dt / dt - 1e-9))
    assert per_snap > 2
    calls = _count_rk4_calls(monkeypatch)
    rk4 = _DampedOperator.rk4

    def poisoned(self, u0, x, dt):
        u, x = rk4(self, u0, x, dt)
        if len(calls) == per_snap + 2:  # the second step after snapshot 1
            x[1][5] = np.nan
        return u, x

    monkeypatch.setattr(_DampedOperator, "rk4", poisoned)
    with pytest.raises(GridMismatchError, match="non-finite"):
        run(cfg)
    assert len(calls) == 2 * per_snap


def test_step_leaves_its_input_untouched():
    """The operator's workspace never reaches a state: a further step from s1
    leaves s1's rho and j as they were, and no array of either state shares
    memory with an array of the operator."""
    g = Grid(-10.0, 10.0, 128)
    dt = STABILITY_COEFF * g.dx**2
    s1 = step_absolute(gaussian_state(g, velocity=1.0), dt)
    before = [s1.rho.copy(), s1.j.copy()]
    s2 = step_absolute(s1, dt)
    assert np.array_equal(s1.rho, before[0]) and np.array_equal(s1.j, before[1])
    buffers = [v for v in vars(_operator(g)).values() if isinstance(v, np.ndarray)]
    for a in (s1.rho, s1.j, s2.rho, s2.j):
        assert not any(np.shares_memory(a, b) for b in buffers)


def test_step_absolute_refuses_a_block(short_run):
    with pytest.raises(ContractViolationError, match="not a block"):
        step_absolute(short_run[:2], STABILITY_COEFF * short_run.grid.dx**2)


def test_alternating_states_step_as_alone():
    """Two states on one grid share its operator; stepping them in turn gives
    the same bits as stepping each one alone."""
    first = gaussian_state(Grid(-10.0, 10.0, 128), velocity=1.0)
    second = _rough_state(128)
    assert _operator(first.grid) is _operator(second.grid)
    dt = STABILITY_COEFF * first.grid.dx**2

    def alone(s):
        for _ in range(5):
            s = step_absolute(s, dt)
        return s

    a, b = first, second
    for _ in range(5):
        a, b = step_absolute(a, dt), step_absolute(b, dt)
    for got, want in ((a, alone(first)), (b, alone(second))):
        assert np.array_equal(got.rho, want.rho) and np.array_equal(got.j, want.j)


def test_transform_calls_per_step(monkeypatch):
    """`run` steps from the last step's pair: 8 transform calls on 16 rows
    per step, after 2 calls on 3 rows for its first state.  `step_absolute`
    starts from rho and j: 10 calls on 19 rows."""
    calls = []

    def counting(fft):
        def wrapped(a, *args, **kwargs):
            calls.append(1 if np.ndim(a) == 1 else len(a))
            return fft(a, *args, **kwargs)

        return wrapped

    monkeypatch.setattr(np.fft, "rfft", counting(np.fft.rfft))
    monkeypatch.setattr(np.fft, "irfft", counting(np.fft.irfft))
    g = Grid(-10.0, 10.0, 128)
    dt = STABILITY_COEFF * g.dx**2
    s = step_absolute(gaussian_state(g), dt)
    assert (len(calls), sum(calls)) == (10, 19)
    calls.clear()
    step_absolute(s, dt)
    assert (len(calls), sum(calls)) == (10, 19)
    calls.clear()
    cfg = DissipativeRunConfig(
        x_min=-10.0, x_max=10.0, n=128, t_final=0.2, snapshot_dt=0.05
    )
    run(cfg)
    steps = 4 * int(np.ceil(cfg.snapshot_dt / dt - 1e-9))
    assert (len(calls), sum(calls)) == (2 + 8 * steps, 3 + 16 * steps)
