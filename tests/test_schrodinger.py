"""Evolution oracles: exact free/plane-wave/soliton solutions, unitarity."""

from dataclasses import replace

import numpy as np
import pytest

import absqm.schrodinger
from absqm.absolute import residual_continuity, residual_force
from absqm.errors import (
    ContractViolationError,
    ConvergenceError,
    GridMismatchError,
    StabilityError,
)
from absqm.numerics import DIRICHLET, Grid, derivative, integrate
from absqm.schrodinger import (
    EvolutionSpec,
    Nonlinearity,
    Trajectory,
    _dirichlet_matrices,
    _strang_stepper,
    evolve,
    rhs,
)
from absqm.states import gaussian_packet, plane_wave, random_mixture
from absqm.wavefield import WaveField


def test_free_gaussian_spreading(grid):
    """Strang splitting is exact for free evolution; compare with the
    closed-form spreading Gaussian."""
    sigma, t = 1.5, 2.0
    w0 = gaussian_packet(grid, sigma=sigma)
    traj = evolve(w0, EvolutionSpec(dt=0.1, t_final=t), snapshot_every=20)
    w = traj.states[-1]
    var_t = sigma**2 + t**2 / (4.0 * sigma**2)
    rho_exact = np.exp(-grid.x**2 / (2.0 * var_t)) / np.sqrt(2.0 * np.pi * var_t)
    assert np.max(np.abs(np.abs(w.psi) ** 2 - rho_exact)) < 1e-12
    assert w.time == pytest.approx(t)


def test_free_gaussian_moving_packet(grid):
    w0 = gaussian_packet(grid, sigma=1.0, momentum=1.2)
    traj = evolve(w0, EvolutionSpec(dt=0.05, t_final=1.0))
    rho = np.abs(traj.states[-1].psi) ** 2
    q = integrate(grid.x * rho, grid)
    assert q == pytest.approx(1.2, abs=1e-10)


def test_plane_wave_dispersion_with_scalar_potential(grid):
    k = 2.0 * np.pi * 4 / grid.length
    a0 = 0.7 * np.ones(grid.n)
    w0 = plane_wave(grid, k)
    t = 1.5
    traj = evolve(replace(w0, a0=a0), EvolutionSpec(dt=0.05, t_final=t))
    omega = 0.5 * k * k - 0.7
    assert np.max(np.abs(traj.states[-1].psi - w0.psi * np.exp(-1j * omega * t))) < 1e-10


def test_nls_soliton():
    """psi = (1/2) sech(x/2) exp(i t/8) is an exact normalized solution of
    the focusing cubic equation (K0 = -rho)."""
    g = Grid(-40.0, 40.0, 1024)
    psi0 = 0.5 / np.cosh(0.5 * g.x) + 0.0j
    w0 = WaveField(psi0, g)
    t = 0.5
    spec = EvolutionSpec(dt=1e-3, t_final=t, nonlinear=Nonlinearity("nls", k=-1.0))
    traj = evolve(w0, EvolutionSpec(dt=1e-3, t_final=t, nonlinear=spec.nonlinear),
                  snapshot_every=100)
    exact = psi0 * np.exp(1j * t / 8.0)
    assert np.max(np.abs(traj.states[-1].psi - exact)) < 1e-6


@pytest.mark.parametrize(
    "nl",
    [
        Nonlinearity(),
        Nonlinearity("nls", k=1.0),
        Nonlinearity("log_bbm", k1=0.4, k2=2.0),
    ],
    ids=["linear", "nls", "log_bbm"],
)
def test_norm_conserved(grid, rng, nl):
    w0 = random_mixture(rng, grid, center_scale=4.0)
    traj = evolve(w0, EvolutionSpec(dt=0.01, t_final=1.0, nonlinear=nl),
                  snapshot_every=100)
    assert abs(traj.states[-1].norm_sq() - 1.0) < 1e-8


def _final_psi(w0, dt, t_final, nl):
    spec = EvolutionSpec(dt=dt, t_final=t_final, nonlinear=nl)
    return evolve(w0, spec, snapshot_every=10**9).states[-1].psi


@pytest.mark.parametrize(
    "boundary, nl",
    [
        ("periodic", Nonlinearity()),
        ("periodic", Nonlinearity("nls", k=-1.0)),
        ("periodic", Nonlinearity("log_bbm", k1=0.4, k2=2.0)),
        (DIRICHLET, Nonlinearity()),
        (DIRICHLET, Nonlinearity("nls", k=-1.0)),
    ],
    ids=["strang", "strang-nls", "strang-log_bbm", "midpoint", "midpoint-nls"],
)
def test_steppers_are_second_order_in_time(boundary, nl):
    """Strang splitting (periodic, A0 = 0.5 cos(2 pi x/L)) and the implicit
    midpoint rule (dirichlet_zero, uniform force 0.05) at dt, dt/2 and dt/4
    against a dt/64 run on the same grid: the error falls by 4 per halving."""
    if boundary == DIRICHLET:
        g = Grid(-12.8, 12.8, 256, DIRICHLET)
        a0, dt, t_final = 0.05 * g.x, 0.003, 0.12
        assert dt <= g.dx**2 / np.pi
    else:
        g = Grid(-20.0, 20.0, 256)
        a0, dt, t_final = 0.5 * np.cos(2.0 * np.pi * g.x / g.length), 0.04, 0.4
    w0 = replace(gaussian_packet(g, sigma=1.5, momentum=0.6, chirp=0.1), a0=a0)
    ref = _final_psi(w0, dt / 64, t_final, nl)
    errs = []
    for i in range(3):
        diff = _final_psi(w0, dt / 2**i, t_final, nl) - ref
        errs.append(np.sqrt(integrate(np.abs(diff) ** 2, g)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.9), orders


@pytest.mark.parametrize(
    "nl",
    [
        Nonlinearity(),
        Nonlinearity("nls", k=1.0),
        Nonlinearity("log_bbm", k1=0.4, k2=2.0),
    ],
    ids=["linear", "nls", "log_bbm"],
)
def test_rhs_of_stack_equals_rows_bit_for_bit(grid, rng, nl):
    """Rows of different peak density: log_bbm floors each row at its own
    peak, as a single-state call does."""
    a0 = 0.3 * np.cos(2.0 * np.pi * grid.x / grid.length)
    a1 = 0.2 * np.sin(2.0 * np.pi * grid.x / grid.length)
    states = [
        WaveField(scale * random_mixture(rng, grid).psi, grid, a0=a0, a1=a1)
        for scale in (1.0, 1e-3, 30.0)
    ]
    rows = rhs(states[0], nl, psi=np.array([w.psi for w in states]))
    assert np.array_equal(rows, np.array([rhs(w, nl) for w in states]))


def test_dirichlet_eigenstate_is_stationary(dirichlet_grid):
    g = dirichlet_grid
    h = _dirichlet_matrices(g, np.zeros(g.n), np.zeros(g.n))
    evals, evecs = np.linalg.eigh(h)
    psi0 = evecs[:, 0].astype(complex)
    psi0 /= np.sqrt(integrate(np.abs(psi0) ** 2, g))
    w0 = WaveField(psi0, g)
    dt = 0.9 * g.dx**2 / np.pi
    n_steps = 200
    traj = evolve(w0, EvolutionSpec(dt=dt, t_final=n_steps * dt),
                  snapshot_every=n_steps)
    w = traj.states[-1]
    # the Cayley propagator acts on an eigenvector as a pure phase
    assert np.max(np.abs(np.abs(w.psi) ** 2 - np.abs(psi0) ** 2)) < 1e-12
    expected_phase = -2.0 * n_steps * np.arctan(0.5 * dt * evals[0])
    ratio = w.psi / psi0
    assert np.angle(ratio[g.n // 2] * np.exp(-1j * expected_phase)) == pytest.approx(
        0.0, abs=1e-10
    )


def test_dense_hamiltonian_applies_the_derivative_stencils(dirichlet_grid, rng):
    """Interior rows of the dense Hamiltonian apply the 4th-order stencils of
    `derivative`: H(a1=0) = -D2/2 and H(a1=c) - H(0) = i c D1 + c^2/2."""
    g = dirichlet_grid
    f = rng.standard_normal(g.n)
    c = 0.3
    h0 = _dirichlet_matrices(g, np.zeros(g.n), np.zeros(g.n))
    hc = _dirichlet_matrices(g, np.zeros(g.n), np.full(g.n, c))
    d2 = -2.0 * (h0 @ f)
    d1 = ((hc - h0) @ f - 0.5 * c**2 * f) / (1j * c)
    inner = slice(2, g.n - 2)
    for got, order in ((d2, 2), (d1, 1)):
        want = derivative(f, g, order)[inner]
        assert np.max(np.abs(got[inner] - want)) <= 1e-12 * np.max(np.abs(want))


def test_dirichlet_dt_bound(dirichlet_grid):
    g = dirichlet_grid
    w0 = gaussian_packet(g, sigma=1.5)
    with pytest.raises(StabilityError):
        evolve(w0, EvolutionSpec(dt=10.0 * g.dx**2, t_final=1.0))


def test_dirichlet_norm_conserved(dirichlet_grid):
    g = dirichlet_grid
    w0 = gaussian_packet(g, sigma=1.5)
    dt = 0.9 * g.dx**2 / np.pi
    traj = evolve(w0, EvolutionSpec(dt=dt, t_final=100 * dt), snapshot_every=100)
    assert abs(traj.states[-1].norm_sq() - 1.0) < 1e-12


def test_evolution_validation(grid):
    w = gaussian_packet(grid)
    with pytest.raises(ContractViolationError):
        evolve(WaveField(2.0 * w.psi, grid), EvolutionSpec(dt=0.01, t_final=0.1))
    with pytest.raises(ValueError):
        EvolutionSpec(dt=-0.01, t_final=1.0)
    with pytest.raises(ValueError):
        EvolutionSpec(dt=0.01, t_final=-1.0)
    with pytest.raises(ValueError):
        Nonlinearity("quartic")
    with pytest.raises(ValueError):
        Nonlinearity("custom")
    with pytest.raises(ValueError):
        evolve(w, EvolutionSpec(dt=0.01, t_final=0.1), snapshot_every=0)


def test_trajectory_bookkeeping(grid):
    w = gaussian_packet(grid)
    spec = EvolutionSpec(dt=0.01, t_final=0.1)
    traj = evolve(w, spec, snapshot_every=2)
    assert isinstance(traj, Trajectory)
    assert len(traj) == 6
    assert np.allclose(np.diff(traj.times), 0.02)
    # stored rhs matches a fresh evaluation on the stored state
    i = 3
    assert np.max(
        np.abs(traj.rhs_values[i] - rhs(traj.states[i], spec.nonlinear))
    ) < 1e-14


def test_processes_extracted_once_per_snapshot(grid, monkeypatch):
    """processes() extracts each snapshot once and hands every caller (the
    residuals included) the same list; append starts a new one."""
    calls = []
    extract = absqm.schrodinger.extract_absolute

    def counting(w, dw, **kwargs):
        calls.append(w.time)
        return extract(w, dw, **kwargs)

    monkeypatch.setattr(absqm.schrodinger, "extract_absolute", counting)
    traj = evolve(gaussian_packet(grid), EvolutionSpec(dt=0.01, t_final=0.1))
    procs = traj.processes()
    assert traj.processes() is procs
    residual_continuity(traj)
    residual_force(traj, np.zeros(grid.n))
    assert traj.processes() is procs
    assert len(calls) == len(traj) == 11

    last = procs[-1]
    before = (last.u.copy(), last.flagged.copy())
    residual_force(traj, np.zeros(grid.n))  # raises the floor on copies
    assert np.array_equal(last.u, before[0])
    assert np.array_equal(last.flagged, before[1])

    traj.append(traj.states[-1], traj.rhs_values[-1])
    fresh = traj.processes()
    assert fresh is not procs
    assert len(fresh) == 12
    assert len(calls) == 11 + 12


def test_trajectory_refuses_a_snapshot_on_another_grid(grid):
    """processes() and the residuals differentiate a block of snapshots on
    one grid, so every snapshot must share the first one's (here: the same
    n on another interval)."""
    traj = evolve(gaussian_packet(grid), EvolutionSpec(dt=0.01, t_final=0.02))
    w = gaussian_packet(Grid(-10.0, 10.0, grid.n))
    with pytest.raises(GridMismatchError):
        traj.append(w, rhs(w))
    assert len(traj) == 3


@pytest.mark.parametrize("dt, t_final", [(0.003, 0.01), (0.04, 0.1)])
def test_evolve_rejects_t_final_off_the_step_grid(grid, dt, t_final):
    """round(t_final/dt) steps would end at 0.009 (0.08) instead of 0.01
    (0.1); a run must not end silently off its final time."""
    with pytest.raises(ContractViolationError):
        evolve(gaussian_packet(grid), EvolutionSpec(dt=dt, t_final=t_final))


def test_evolve_accepts_float_multiples(grid):
    """0.3/0.1 is 2.9999999999999996 in floating point: still three steps."""
    traj = evolve(gaussian_packet(grid), EvolutionSpec(dt=0.1, t_final=0.3))
    assert len(traj) == 4
    assert traj.times[-1] == pytest.approx(0.3)


def test_zero_duration_returns_initial_snapshot(grid):
    w = gaussian_packet(grid)
    traj = evolve(w, EvolutionSpec(dt=0.01, t_final=0.0))
    assert len(traj) == 1
    assert np.array_equal(traj.states[0].psi, w.psi)


def test_linear_strang_fast_path_is_bit_identical(grid, rng):
    """The precomputed linear half step equals the general path with a zero
    nonlinear term bit for bit (a0 - 0 is a0 exactly)."""
    w0 = random_mixture(rng, grid)
    a0 = 0.1 * np.cos(2.0 * np.pi * grid.x / grid.length)
    zero = Nonlinearity("nls", k=0.0)
    w0 = replace(w0, a0=a0)
    linear = _strang_stepper(w0, EvolutionSpec(dt=0.01, t_final=0.5))
    general = _strang_stepper(
        w0, EvolutionSpec(dt=0.01, t_final=0.5, nonlinear=zero)
    )
    psi_lin = psi_gen = w0.psi
    for i in range(50):
        psi_lin = linear(psi_lin, 0.01 * i)
        psi_gen = general(psi_gen, 0.01 * i)
    assert np.array_equal(psi_lin, psi_gen)


@pytest.mark.parametrize("k", [250.0, 300.0])
def test_implicit_midpoint_fixed_point_failure_raises(k):
    """k=250 stalls at an O(1) fixed-point residual and k=300 overflows; both
    must raise instead of returning the last iterate."""
    g = Grid(-5.0, 5.0, 64, DIRICHLET)
    psi = np.exp(-(g.x**2)).astype(complex)
    w0 = WaveField(psi / np.sqrt(integrate(np.abs(psi) ** 2, g)), g)
    dt = g.dx**2 / np.pi
    spec = EvolutionSpec(dt=dt, t_final=dt, nonlinear=Nonlinearity(kind="nls", k=k))
    with np.errstate(all="ignore"), pytest.raises(ConvergenceError):
        evolve(w0, spec)

