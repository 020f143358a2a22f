"""Moments, sharpened uncertainty relations, Ehrenfest theorem."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absqm.errors import ContractViolationError, DegenerateInputError, GridMismatchError
from absqm.numerics import Grid, derivative
from absqm.observables import (
    check_boundary_mass,
    ehrenfest_check,
    moments,
    uncertainty_report,
)
from absqm.schrodinger import EvolutionSpec, evolve, rhs
from absqm.states import flat_force_potential, gaussian_packet, random_mixture
from absqm.wavefield import WaveField, extract_absolute, extract_block


def free_process(w):
    return extract_absolute(w, rhs(w))


def run_processes(w0, dt, t_final, snapshot_every=1):
    traj = evolve(w0, EvolutionSpec(dt=dt, t_final=t_final),
                  snapshot_every=snapshot_every)
    return extract_block(traj.states, traj.rhs_values)[1]


def test_chirped_gaussian_moments_closed_form(grid):
    sigma, c, p0, a = 1.4, 0.8, 0.6, 0.15
    w = gaussian_packet(grid, sigma=sigma, center=c, momentum=p0, chirp=a)
    m = moments(free_process(w))
    assert m.Q == pytest.approx(c, abs=1e-10)
    assert m.V == pytest.approx(p0, abs=1e-10)
    assert m.varQ == pytest.approx(sigma**2, rel=1e-10)
    assert m.T == pytest.approx(4.0 * a**2 * sigma**2, rel=1e-8)
    assert m.P == pytest.approx(1.0 / (4.0 * sigma**2), rel=1e-8)
    assert m.Y == pytest.approx(2.0 * a * sigma**2, rel=1e-8)
    assert m.varV == pytest.approx(m.T + m.P, rel=1e-12)
    # kinetic energy of the packet
    assert m.K == pytest.approx(
        0.5 * p0**2 + 2.0 * a**2 * sigma**2 + 1.0 / (8.0 * sigma**2), rel=1e-8
    )


def test_gaussian_saturates_all_sharpened_inequalities(grid):
    """Every chirped Gaussian saturates hat1, hat2 and hat3 exactly."""
    w = gaussian_packet(grid, sigma=1.2, momentum=0.8, chirp=0.2)
    rep = uncertainty_report(moments(free_process(w)))
    for margin in rep.all_margins():
        assert abs(margin) < 1e-8
    assert rep.margin_classical == pytest.approx(
        4.0 * 0.2**2 * 1.2**4, rel=1e-6
    )


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_uncertainty_margins_nonnegative(seed):
    g = Grid(-20.0, 20.0, 256)
    w = random_mixture(np.random.default_rng(seed), g, center_scale=4.0)
    rep = uncertainty_report(moments(free_process(w), check_boundary=False))
    for margin in rep.all_margins():
        assert margin >= -1e-9
    # the sharpened bounds imply the classical one and are at least as strong
    assert rep.margin_hat3 <= rep.margin_classical + 1e-12
    assert rep.margin_classical >= -1e-9


def test_boundary_mass_guard():
    rho = np.full(64, 1.0 / 64)
    with pytest.raises(ContractViolationError):
        check_boundary_mass(rho)
    g = Grid(-20.0, 20.0, 256)
    w = gaussian_packet(g, sigma=8.0)  # visible mass at the edges
    with pytest.raises(ContractViolationError):
        moments(free_process(w))
    # and the escape hatch
    moments(free_process(w), check_boundary=False)


def test_moments_require_normalization(grid):
    w = gaussian_packet(grid)
    p = free_process(w)
    bad = type(p)(
        rho=2.0 * p.rho, u=p.u, eps=p.eps, grid=grid, flagged=p.flagged
    )
    with pytest.raises(ContractViolationError):
        moments(bad)


def test_block_paths_refuse_a_bad_row(grid, rng):
    """One bad row fails the whole block, as it fails alone: a zero state or
    right-hand sides that do not match the states in `extract_block`, an
    unnormalized process or edge mass in block `moments`."""
    states = [random_mixture(rng, grid, center_scale=4.0) for _ in range(3)]
    dpsi_dt = np.array([rhs(w) for w in states])
    zero = WaveField(np.zeros(grid.n, dtype=complex), grid)
    with pytest.raises(DegenerateInputError):
        extract_block(states[:2] + [zero], dpsi_dt)
    with pytest.raises(GridMismatchError):
        extract_block(states, dpsi_dt[:2])
    procs = extract_block(states, dpsi_dt)[1]
    bad = replace(procs[1], rho=2.0 * procs[1].rho)
    with pytest.raises(ContractViolationError, match="not normalized"):
        moments([procs[0], bad, procs[2]], check_boundary=False)
    wide = free_process(gaussian_packet(grid, sigma=8.0))
    with pytest.raises(ContractViolationError, match="domain edges"):
        moments(procs + [wide])
    moments(procs + [wide], check_boundary=False)


def test_ehrenfest_constant_force(grid):
    a0, e_eff = flat_force_potential(grid, 0.1)
    w0 = replace(gaussian_packet(grid, sigma=1.0), a0=a0)
    procs = run_processes(w0, 0.002, 0.6, snapshot_every=25)
    rep = ehrenfest_check(procs, derivative(a0, grid, 1))
    assert rep.max_rel_dev_velocity < 1e-6
    assert rep.max_rel_dev_force < 1e-4
    # the packet stays inside the flat-force window, so d^2Q/dt^2 = e_eff
    rep = ehrenfest_check(procs, np.full(grid.n, e_eff))
    assert rep.max_rel_dev_force < 1e-4


def test_ehrenfest_refuses_a_force_off_the_grid(grid):
    """A force array that is not one field on the grid is refused by name,
    not met as a broadcast error inside the quadrature."""
    procs = run_processes(gaussian_packet(grid), 0.01, 0.05)
    with pytest.raises(GridMismatchError, match=r"shape \(255,\) on grid with n=256"):
        ehrenfest_check(procs, np.zeros(grid.n - 1))


def test_ehrenfest_refuses_uneven_snapshots(grid):
    """A run whose t_final is not a whole number of snapshot intervals ends
    on a short one; a centered second difference across it is wrong (a
    force deviation of 17.55 on this run), so the check refuses it."""
    a0, _ = flat_force_potential(grid, 0.1)
    w0 = replace(gaussian_packet(grid, sigma=1.0), a0=a0)
    procs = run_processes(w0, 0.002, 0.62, snapshot_every=25)
    dts = np.diff([p.time for p in procs])
    assert np.allclose(dts[:-1], 0.05) and np.isclose(dts[-1], 0.02)
    with pytest.raises(ContractViolationError, match="uniformly spaced"):
        ehrenfest_check(procs, derivative(a0, grid, 1))


def test_ehrenfest_needs_enough_snapshots(grid):
    procs = run_processes(gaussian_packet(grid), 0.01, 0.03)
    assert len(procs) == 4
    with pytest.raises(ContractViolationError):
        ehrenfest_check(procs, np.zeros(grid.n))


def test_ehrenfest_callable_force(grid):
    w0 = gaussian_packet(grid, sigma=1.0, momentum=0.5)
    procs = run_processes(w0, 0.002, 0.2, snapshot_every=10)
    rep = ehrenfest_check(procs, lambda x, u: np.zeros_like(x))
    assert rep.max_rel_dev_velocity < 1e-8
