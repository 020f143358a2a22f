"""Evolution oracles: exact free and plane-wave solutions, unitarity."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

import absqm.schrodinger
from absqm.absolute import residual_continuity, residual_force
from absqm.errors import ContractViolationError, GridMismatchError, StabilityError
from absqm.kleingordon import from_envelope, kg_evolve
from absqm.numerics import (
    D1_WEIGHTS,
    D2_WEIGHTS,
    DIRICHLET,
    Grid,
    derivative,
    integrate,
)
from absqm.schrodinger import (
    EvolutionSpec,
    Trajectory,
    _dirichlet_bands,
    _implicit_midpoint_stepper,
    evolve,
    rhs,
    snapshot_blocks,
    snapshot_steps,
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


def test_norm_conserved(grid, rng):
    w0 = random_mixture(rng, grid, center_scale=4.0)
    traj = evolve(w0, EvolutionSpec(dt=0.01, t_final=1.0), snapshot_every=100)
    assert abs(traj.states[-1].norm_sq() - 1.0) < 1e-8


def _final_psi(w0, dt, t_final):
    spec = EvolutionSpec(dt=dt, t_final=t_final)
    return evolve(w0, spec, snapshot_every=10**9).states[-1].psi


@pytest.mark.parametrize("boundary", ["periodic", DIRICHLET],
                         ids=["strang", "midpoint"])
def test_steppers_are_second_order_in_time(boundary):
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
    ref = _final_psi(w0, dt / 64, t_final)
    errs = []
    for i in range(3):
        diff = _final_psi(w0, dt / 2**i, t_final) - ref
        errs.append(np.sqrt(integrate(np.abs(diff) ** 2, g)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.9), orders


def test_rhs_of_stack_equals_rows_bit_for_bit(grid, rng):
    a0 = 0.3 * np.cos(2.0 * np.pi * grid.x / grid.length)
    a1 = 0.2 * np.sin(2.0 * np.pi * grid.x / grid.length)
    states = [
        WaveField(scale * random_mixture(rng, grid).psi, grid, a0=a0, a1=a1)
        for scale in (1.0, 1e-3, 30.0)
    ]
    rows = rhs(states[0], psi=np.array([w.psi for w in states]))
    assert np.array_equal(rows, np.array([rhs(w) for w in states]))


def _dense_hamiltonian(g, a0, a1):
    """The dense Hamiltonian whose five diagonals `_dirichlet_bands` holds."""
    bands = _dirichlet_bands(g, a0, a1)
    return sum(
        np.diag(band[max(0, -off) : g.n - max(0, off)], off)
        for off, band in zip(range(-2, 3), bands)
    )


def test_dirichlet_eigenstate_is_stationary(dirichlet_grid):
    g = dirichlet_grid
    h = _dense_hamiltonian(g, np.zeros(g.n), np.zeros(g.n))
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
    h0 = _dense_hamiltonian(g, np.zeros(g.n), np.zeros(g.n))
    hc = _dense_hamiltonian(g, np.zeros(g.n), np.full(g.n, c))
    d2 = -2.0 * (h0 @ f)
    d1 = ((hc - h0) @ f - 0.5 * c**2 * f) / (1j * c)
    inner = slice(2, g.n - 2)
    for got, order in ((d2, 2), (d1, 1)):
        want = derivative(f, g, order)[inner]
        assert np.max(np.abs(got[inner] - want)) <= 1e-12 * np.max(np.abs(want))


def _dense_midpoint_states(w0, spec, n_steps):
    """The implicit midpoint steps with the operators built densely, as
    before the banded construction: stencil sums of `np.eye`, dense a1
    products, `ident +- 0.5j*dt*h` and `lu_factor` of a copy."""
    g, a0, a1 = w0.grid, w0.a0, w0.a1

    def stencil(weights, order):
        coeffs = weights / (12.0 * g.dx**order)
        return sum(c * np.eye(g.n, k=off) for off, c in zip(range(-2, 3), coeffs))

    h = (-0.5 * stencil(D2_WEIGHTS, 2)).astype(complex)
    if np.any(a1 != 0.0):
        p_op = -1j * stencil(D1_WEIGHTS, 1)
        da1 = np.diag(a1)
        h = h - 0.5 * (da1 @ p_op + p_op @ da1)
    h = h + np.diag(0.5 * a1**2 - a0)
    ident = np.eye(g.n, dtype=complex)
    lhs = lu_factor(ident + 0.5j * spec.dt * h)
    rhs_m = ident - 0.5j * spec.dt * h
    psi, states = w0.psi, []
    for _ in range(n_steps):
        psi = lu_solve(lhs, rhs_m @ psi)
        states.append(psi)
    return states


@pytest.mark.parametrize("n", [64, 97])
@pytest.mark.parametrize("with_a1", [False, True], ids=["a1_zero", "a1"])
def test_banded_construction_steps_bit_for_bit(n, with_a1):
    """The stepper built from five bands takes the same steps to the last
    bit as the dense construction it replaced."""
    g = Grid(-5.0, 5.0, n, DIRICHLET)
    a1 = 0.3 + 0.2 * np.sin(g.x) if with_a1 else np.zeros(n)
    w0 = replace(gaussian_packet(g, sigma=1.0, momentum=0.5), a0=0.05 * g.x, a1=a1)
    spec = EvolutionSpec(dt=0.9 * g.dx**2 / np.pi, t_final=1.0)
    step = _implicit_midpoint_stepper(w0, spec)
    psi = w0.psi
    for i, want in enumerate(_dense_midpoint_states(w0, spec, 50)):
        psi = step(psi)
        assert np.array_equal(psi, want), i


@pytest.mark.parametrize("a1", [0.0, 0.3])
def test_dirichlet_stepper_keeps_two_dense_arrays(a1):
    """Building the stepper keeps its two n x n complex operators and peaks
    within a quarter of one more (the dense construction peaked at 5 of
    them, 5.5 with a1); a tracemalloc count, not a host-dependent RSS."""
    small = Grid(-6.0, 6.0, 16, DIRICHLET)
    _implicit_midpoint_stepper(  # imports scipy.linalg outside the count
        gaussian_packet(small, sigma=1.0), EvolutionSpec(dt=1e-3, t_final=1.0)
    )
    g = Grid(-12.0, 12.0, 512, DIRICHLET)
    w0 = replace(gaussian_packet(g, sigma=1.5), a0=0.05 * g.x,
                 a1=a1 * (1.0 + 0.1 * np.sin(g.x)))
    spec = EvolutionSpec(dt=0.9 * g.dx**2 / np.pi, t_final=1.0)
    operator = 16.0 * g.n**2
    tracemalloc.start()
    try:
        step = _implicit_midpoint_stepper(w0, spec)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert callable(step)
    assert kept >= 2.0 * operator
    assert peak <= 2.25 * operator, peak / operator


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
    for dt in (-0.01, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="dt="):
            EvolutionSpec(dt=dt, t_final=1.0)
    for t_final in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="t_final="):
            EvolutionSpec(dt=0.01, t_final=t_final)
    with pytest.raises(ValueError):
        evolve(w, EvolutionSpec(dt=0.01, t_final=0.1), snapshot_every=0)


def test_snapshot_blocks_check_their_inputs_when_called(grid, dirichlet_grid):
    """The block generator refuses its inputs on the call, before the first
    next(), so a caller learns of a bad run before it steps or writes."""
    w = gaussian_packet(grid)
    spec = EvolutionSpec(dt=0.01, t_final=0.1)
    with pytest.raises(ContractViolationError):
        snapshot_blocks(WaveField(2.0 * w.psi, grid), spec)
    with pytest.raises(ValueError):
        snapshot_blocks(w, spec, snapshot_every=0)
    g = dirichlet_grid
    with pytest.raises(StabilityError):
        snapshot_blocks(gaussian_packet(g, sigma=1.5),
                        EvolutionSpec(dt=10.0 * g.dx**2, t_final=1.0))


@pytest.mark.parametrize("snapshot_every", [1, 3, 7, 50])
def test_snapshot_steps_count_the_snapshots_of_evolve(grid, snapshot_every):
    """snapshot_steps is the rule evolve and kg_evolve store by: the initial
    state, every snapshot_every-th step and the last step, at those steps'
    times."""
    w = gaussian_packet(grid)
    f = from_envelope(w, c=0.5)  # dt = 0.25 <= dx/c
    dt = 0.25  # exact in binary, so every t_final is a whole number of steps
    for n_steps in (0, 1, 5, 49, 50, 51):
        steps = snapshot_steps(n_steps, snapshot_every)
        assert steps == [0] + [
            i + 1 for i in range(n_steps)
            if (i + 1) % snapshot_every == 0 or i == n_steps - 1
        ]
        traj = evolve(w, EvolutionSpec(dt=dt, t_final=dt * n_steps),
                      snapshot_every=snapshot_every)
        assert len(traj) == len(steps)
        assert np.array_equal(traj.times, dt * np.array(steps))
        kg = kg_evolve(f, dt, dt * n_steps, snapshot_every=snapshot_every)
        assert len(kg) == len(steps)
        assert np.array_equal([s.time for s in kg], dt * np.array(steps))


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
        np.abs(traj.rhs_values[i] - rhs(traj.states[i]))
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
