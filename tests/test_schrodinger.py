"""Evolution oracles: exact free and plane-wave solutions, unitarity."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from absqm.errors import ContractViolationError, StabilityError
from absqm.kleingordon import from_envelope, kg_evolve
from absqm.numerics import (
    D1_WEIGHTS,
    D2_WEIGHTS,
    DIRICHLET,
    PERIODIC,
    Grid,
    derivative,
    integrate,
)
from absqm.schrodinger import (
    _dirichlet_bands,
    _implicit_midpoint_stepper,
    _strang_stepper,
    evolve,
    free_processes,
    rhs,
    snapshot_blocks,
    snapshot_steps,
)
from absqm.states import gaussian_packet, random_mixtures
from absqm.wavefield import WaveField, gauge_transform


def test_free_gaussian_spreading(grid):
    """Strang splitting is exact for free evolution; compare with the
    closed-form spreading Gaussian."""
    sigma, t = 1.5, 2.0
    w0 = gaussian_packet(grid, sigma=sigma)
    w = evolve(w0, 0.1, t, snapshot_every=20)[-1]
    var_t = sigma**2 + t**2 / (4.0 * sigma**2)
    rho_exact = np.exp(-grid.x**2 / (2.0 * var_t)) / np.sqrt(2.0 * np.pi * var_t)
    assert np.max(np.abs(np.abs(w.psi) ** 2 - rho_exact)) < 1e-12
    assert w.time == pytest.approx(t)


def test_free_gaussian_moving_packet(grid):
    w0 = gaussian_packet(grid, sigma=1.0, momentum=1.2)
    w = evolve(w0, 0.05, 1.0)[-1]
    rho = np.abs(w.psi) ** 2
    q = integrate(grid.x * rho, grid)
    assert q == pytest.approx(1.2, abs=1e-10)


def test_plane_wave_dispersion_with_scalar_potential(grid):
    k = 2.0 * np.pi * 4 / grid.length
    a0 = 0.7 * np.ones(grid.n)
    w0 = WaveField(np.exp(1j * k * grid.x), grid).normalized()
    t = 1.5
    w = evolve(replace(w0, a0=a0), 0.05, t)[-1]
    omega = 0.5 * k * k - 0.7
    assert np.max(np.abs(w.psi - w0.psi * np.exp(-1j * omega * t))) < 1e-10


def test_norm_conserved(grid, rng):
    w0 = random_mixtures(rng, grid, 1, center_scale=4.0)[0]
    w = evolve(w0, 0.01, 1.0, snapshot_every=100)[-1]
    assert abs(w.norm_sq() - 1.0) < 1e-8


def _final_psi(w0, dt, t_final):
    return evolve(w0, dt, t_final, snapshot_every=10**9)[-1].psi


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
    scale = np.array([1.0, 1e-3, 30.0])[:, None]
    block = WaveField(scale * random_mixtures(rng, grid, 3).psi, grid, a0=a0, a1=a1)
    assert np.array_equal(rhs(block), np.array([rhs(w) for w in block]))


def _full_rhs(w):
    """`rhs` as it was written before zero potentials were skipped."""
    dpsi = derivative(w.psi, w.grid, 1) - 1j * w.a1 * w.psi
    ddpsi = derivative(dpsi, w.grid, 1) - 1j * w.a1 * dpsi
    return 1j * (0.5 * ddpsi + w.a0 * w.psi)


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
@pytest.mark.parametrize("a0_on", [False, True], ids=["a0_zero", "a0"])
@pytest.mark.parametrize("a1_on", [False, True], ids=["a1_zero", "a1"])
def test_rhs_skips_zero_potentials_bit_for_bit(rng, boundary, a0_on, a1_on):
    """A potential that is zero everywhere adds no term to `rhs`, and the
    right-hand side keeps the bits of the full expression, on one state and
    on a block."""
    g = Grid(-20.0, 20.0, 256, boundary)
    wave = 2.0 * np.pi * g.x / g.length
    block = WaveField(random_mixtures(rng, g, 3).psi, g,
                      a0=0.3 * np.cos(wave) if a0_on else np.zeros(g.n),
                      a1=0.2 * np.sin(wave) if a1_on else np.zeros(g.n))
    for w in (block, block[1]):
        assert rhs(w).tobytes() == _full_rhs(w).tobytes()


@pytest.mark.parametrize("a0_on", [False, True], ids=["a0_zero", "a0"])
def test_strang_step_skips_a_zero_a0_bit_for_bit(grid, rng, a0_on):
    """With a0 zero the Strang step skips both e^0 half steps; each step
    keeps the bits of the step that multiplies by them around a fresh
    transform round trip."""
    a0 = 0.3 * np.cos(2.0 * np.pi * grid.x / grid.length) if a0_on else 0.0 * grid.x
    w0 = replace(random_mixtures(rng, grid, 1)[0], a0=a0)
    dt = 1e-2
    half = np.exp(0.5j * dt * a0)
    kin = np.exp(-0.5j * dt * grid.k**2)
    step = _strang_stepper(w0, dt)
    psi = want = w0.psi
    for _ in range(20):
        psi, want = step(psi), np.fft.ifft(kin * np.fft.fft(want * half)) * half
        assert psi.tobytes() == want.tobytes()


def test_free_processes_refuse_states_with_other_potentials(grid, rng):
    """eps = Im(psi* dpsi/dt)/rho - A0 is gauge invariant only if dpsi/dt
    and A0 come from the same potentials.  A block holds one pair of
    potentials, which `rhs` and `extract_block` both read, so states with
    other potentials cannot share a block.  Why it matters: on a state and
    its gauge transform, the second state's rho*eps taken on the first
    state's potentials (by hand: Im(psi* rhs) - rho A0, unfilled) is off by
    far more than the gauge bound 1e-9."""
    w = random_mixtures(rng, grid, 1, center_scale=4.0)
    wave = 2.0 * np.pi * grid.x / grid.length
    wg = gauge_transform(w, 0.7 * np.sin(wave) + 0.3 * np.cos(2.0 * wave),
                         0.5 * np.cos(wave))
    assert wg.a0 is not w.a0 and wg.a1 is not w.a1
    wrong = (np.imag(np.conj(wg.psi) * rhs(replace(w, psi=wg.psi)))
             - np.abs(wg.psi) ** 2 * w.a0)
    want = free_processes(wg)
    assert np.max(np.abs(wrong - want.rho * want.eps)) > 1e-2


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
    w = evolve(w0, dt, n_steps * dt, snapshot_every=n_steps)[-1]
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


def _dense_midpoint_states(w0, dt, n_steps):
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
    lhs = lu_factor(ident + 0.5j * dt * h)
    rhs_m = ident - 0.5j * dt * h
    psi, states = w0.psi, []
    for _ in range(n_steps):
        psi = lu_solve(lhs, rhs_m @ psi)
        states.append(psi)
    return states


@pytest.mark.parametrize("n", [64, 97])
@pytest.mark.parametrize("with_a1", [False, True], ids=["a1_zero", "a1"])
def test_banded_construction_steps_bit_for_bit(n, with_a1):
    """The stepper built from five bands, which calls LAPACK's getrs on its
    factor, takes the same steps to the last bit as the dense construction
    it replaced, solved by `lu_solve`."""
    g = Grid(-5.0, 5.0, n, DIRICHLET)
    a1 = 0.3 + 0.2 * np.sin(g.x) if with_a1 else np.zeros(n)
    w0 = replace(gaussian_packet(g, sigma=1.0, momentum=0.5), a0=0.05 * g.x, a1=a1)
    dt = 0.9 * g.dx**2 / np.pi
    step = _implicit_midpoint_stepper(w0, dt)
    psi = w0.psi
    for i, want in enumerate(_dense_midpoint_states(w0, dt, 50)):
        psi = step(psi)
        assert np.array_equal(psi, want), i


@pytest.mark.parametrize("a1", [0.0, 0.3])
def test_dirichlet_stepper_keeps_two_dense_arrays(a1):
    """Building the stepper keeps its two n x n complex operators and peaks
    within a quarter of one more (the dense construction peaked at 5 of
    them, 5.5 with a1); a tracemalloc count, not a host-dependent RSS."""
    small = Grid(-6.0, 6.0, 16, DIRICHLET)
    # imports scipy.linalg outside the count
    _implicit_midpoint_stepper(gaussian_packet(small, sigma=1.0), 1e-3)
    g = Grid(-12.0, 12.0, 512, DIRICHLET)
    w0 = replace(gaussian_packet(g, sigma=1.5), a0=0.05 * g.x,
                 a1=a1 * (1.0 + 0.1 * np.sin(g.x)))
    dt = 0.9 * g.dx**2 / np.pi
    operator = 16.0 * g.n**2
    tracemalloc.start()
    try:
        step = _implicit_midpoint_stepper(w0, dt)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert callable(step)
    assert kept >= 2.0 * operator
    assert peak <= 2.25 * operator, peak / operator


def test_dirichlet_dt_bound(dirichlet_grid):
    g = dirichlet_grid
    w0 = gaussian_packet(g, sigma=1.5)
    dt = 10.0 * g.dx**2
    with pytest.raises(StabilityError):
        evolve(w0, dt, 10 * dt)


def test_dirichlet_norm_conserved(dirichlet_grid):
    g = dirichlet_grid
    w0 = gaussian_packet(g, sigma=1.5)
    dt = 0.9 * g.dx**2 / np.pi
    w = evolve(w0, dt, 100 * dt, snapshot_every=100)[-1]
    assert abs(w.norm_sq() - 1.0) < 1e-12


def test_evolution_validation(grid):
    w = gaussian_packet(grid)
    with pytest.raises(ContractViolationError):
        evolve(WaveField(2.0 * w.psi, grid), 0.01, 0.1)
    with pytest.raises(ValueError):
        evolve(w, 0.01, 0.1, snapshot_every=0)


def test_snapshot_blocks_check_their_inputs_when_called(grid, dirichlet_grid):
    """The block generator refuses its inputs on the call, before the first
    next(), so a caller learns of a bad run before it steps or writes."""
    w = gaussian_packet(grid)
    with pytest.raises(ContractViolationError):
        snapshot_blocks(WaveField(2.0 * w.psi, grid), 0.01, 0.1)
    with pytest.raises(ValueError):
        snapshot_blocks(w, 0.01, 0.1, snapshot_every=0)
    g = dirichlet_grid
    dt = 10.0 * g.dx**2
    with pytest.raises(StabilityError):
        snapshot_blocks(gaussian_packet(g, sigma=1.5), dt, 10 * dt)


@pytest.mark.parametrize("run", [evolve, snapshot_blocks], ids=["evolve", "blocks"])
def test_runs_refuse_a_block(grid, run):
    """A run evolves one state: a block of two normalized rows is refused by
    name, not by numpy's ambiguous truth value of the norm check."""
    w = gaussian_packet(grid)
    with pytest.raises(ContractViolationError, match="block"):
        run(WaveField(np.stack([w.psi, w.psi]), grid), 0.01, 0.1)


@pytest.mark.parametrize("snapshot_every", [1, 3, 7, 50])
def test_snapshot_steps_count_the_snapshots_of_evolve(grid, snapshot_every):
    """snapshot_steps is the rule evolve and kg_evolve store by: the initial
    state, every snapshot_every-th step and the last step, at those steps'
    times.  Both run from the state's own time t0 to t_final."""
    dt = 0.25  # exact in binary, so every t_final is a whole number of steps
    for t0 in (0.0, 1.0):
        w = replace(gaussian_packet(grid), time=t0)
        f = from_envelope(w, c=0.5)  # dt = 0.25 <= dx/c
        for n_steps in (0, 1, 5, 49, 50, 51):
            steps = snapshot_steps(n_steps, snapshot_every)
            assert steps == [0] + [
                i + 1 for i in range(n_steps)
                if (i + 1) % snapshot_every == 0 or i == n_steps - 1
            ]
            times = t0 + dt * np.array(steps)
            states = evolve(w, dt, t0 + dt * n_steps, snapshot_every)
            assert np.array_equal(states.time, times)
            kg = kg_evolve(f, dt, t0 + dt * n_steps, snapshot_every)
            assert np.array_equal(kg.time, times)


def test_trajectory_bookkeeping(grid):
    w = gaussian_packet(grid)
    states = evolve(w, 0.01, 0.1, snapshot_every=2)
    assert isinstance(states, WaveField)
    assert len(states) == 6 and states.psi.shape == (6, grid.n)
    assert np.allclose(np.diff(states.time), 0.02)
    assert states.a0 is w.a0 and states.a1 is w.a1


@pytest.mark.parametrize("dt, t_final", [(0.003, 0.01), (0.04, 0.1)])
def test_evolve_rejects_t_final_off_the_step_grid(grid, dt, t_final):
    """round(t_final/dt) steps would end at 0.009 (0.08) instead of 0.01
    (0.1); a run must not end silently off its final time."""
    with pytest.raises(ContractViolationError):
        evolve(gaussian_packet(grid), dt, t_final)


def test_evolve_accepts_float_multiples(grid):
    """0.3/0.1 is 2.9999999999999996 in floating point: still three steps."""
    states = evolve(gaussian_packet(grid), 0.1, 0.3)
    assert len(states) == 4
    assert states[-1].time == pytest.approx(0.3)


def test_zero_duration_returns_initial_snapshot(grid):
    w = gaussian_packet(grid)
    states = evolve(w, 0.01, 0.0)
    assert len(states) == 1
    assert np.array_equal(states[0].psi, w.psi)
