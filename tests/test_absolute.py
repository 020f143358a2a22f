"""Residual diagnostics for the absolute equation system."""

import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.ndimage import binary_dilation

import absqm.absolute
import absqm.schrodinger
from absqm.absolute import (
    FORCE_RHO_FLOOR,
    _widen,
    mass_shell_norm,
    residual_continuity,
    residual_force,
    residual_mass_shell,
)
from absqm.errors import ContractViolationError
from absqm.numerics import (
    BLOCK_ROWS,
    DIRICHLET,
    Grid,
    _fd_derivative,
    derivative,
    derivatives,
)
from absqm.observables import moments
from absqm.schrodinger import EvolutionSpec, evolve, rhs
from absqm.states import gaussian_packet, random_mixture
from absqm.wavefield import extract_absolute, raise_floor


def run(grid, dt=0.01, t_final=0.2, e0=0.0, snapshot_every=1):
    a0 = None
    if e0 != 0.0:
        # smooth periodic potential: force is only approximately constant,
        # tests that need an exact force use e0 = 0
        a0 = e0 * np.sin(2.0 * np.pi * grid.x / grid.length) * grid.length / (
            2.0 * np.pi
        )
    w0 = replace(gaussian_packet(grid, sigma=1.5, momentum=0.6, chirp=0.1), a0=a0)
    spec = EvolutionSpec(dt=dt, t_final=t_final)
    return evolve(w0, spec, snapshot_every=snapshot_every)


def test_mass_shell_residual_of_extracted_state(grid):
    w = gaussian_packet(grid, sigma=1.5, momentum=0.6, chirp=0.1)
    p = extract_absolute(w, rhs(w))
    # s is defined through eps and u of the same field, so the relation
    # s R + R''/2 = 0 holds to spectral accuracy on the resolved support
    assert mass_shell_norm(p) < 1e-7
    assert residual_mass_shell(p).shape == (grid.n,)


def test_continuity_residual_with_stored_rhs(grid):
    traj = run(grid)
    series = residual_continuity(traj, use_stored_rhs=True)
    # stored rhs makes the time derivative exact for the semidiscrete flow;
    # what remains is spatial truncation of the tails
    assert np.max(series.values) < 1e-8
    assert series.times.shape == series.values.shape


def test_force_residual_with_stored_rhs(grid):
    e0 = 0.05
    traj = run(grid, e0=e0)
    e_field = derivative(traj.states[0].a0, grid, 1)
    series = residual_force(traj, e_field, use_stored_rhs=True)
    assert np.max(series.values) < 1e-6


def force_residual_all_raised(traj, e_field, use_stored_rhs, procs=None):
    """The force residual as it was computed with every snapshot raised to
    FORCE_RHO_FLOOR before the loop, one derivative call per snapshot; on
    the trajectory's processes unless `procs` are given."""
    if procs is None:
        procs = traj.processes()
    procs = [raise_floor(p, FORCE_RHO_FLOOR) for p in procs]
    times, g = traj.times, procs[0].grid
    us = [p.u for p in procs]
    vals = []
    for i in range(1, len(procs) - 1):
        p = procs[i]
        du_dx = _fd_derivative(p.u, g.dx, 1)
        ds_dx = _fd_derivative(p.s, g.dx, 1)
        mask = ~_widen(p.flagged)
        if use_stored_rhs:
            w, dw = traj.states[i], traj.rhs_values[i]
            safe = np.maximum(p.rho, 1e-150)
            dpsi_dx = derivative(w.psi, g, 1)
            wcur = np.imag(np.conj(w.psi) * dpsi_dx)
            wdot = np.imag(
                np.conj(dw) * dpsi_dx + np.conj(w.psi) * derivative(dw, g, 1)
            )
            drho_dt = 2.0 * np.real(np.conj(w.psi) * dw)
            du_dt = np.where(
                p.flagged, 0.0, (wdot * safe - wcur * drho_dt) / (safe**2)
            )
        else:
            du_dt = (us[i + 1] - us[i - 1]) / (times[i + 1] - times[i - 1])
            mask &= ~(procs[i - 1].flagged | procs[i + 1].flagged)
        res = du_dt + p.u * du_dx + ds_dx - e_field
        vals.append(float(np.sqrt(g.dx * np.sum(res[mask] ** 2))))
    return np.array(vals)


@pytest.mark.parametrize("use_stored_rhs", [True, False])
def test_force_residual_equals_raising_the_whole_trajectory(grid, use_stored_rhs):
    """Raising each snapshot inside the loop gives the residual of raising
    them all first, bit for bit, on a run whose tails are flagged at
    FORCE_RHO_FLOOR but not at RHO_FLOOR."""
    traj = run(grid, e0=0.05)
    procs = traj.processes()
    assert all(
        (raise_floor(p, FORCE_RHO_FLOOR).flagged & ~p.flagged).any() for p in procs
    )
    e_field = derivative(traj.states[0].a0, grid, 1)
    series = residual_force(traj, e_field, use_stored_rhs=use_stored_rhs)
    want = force_residual_all_raised(traj, e_field, use_stored_rhs)
    assert np.array_equal(series.values, want)
    assert np.array_equal(series.times, traj.times[1:-1])


@pytest.mark.parametrize("use_stored_rhs", [True, False])
def test_force_residual_holds_three_raised_processes(
    grid, monkeypatch, use_stored_rhs
):
    """residual_force raises each snapshot it reads exactly once (the stored
    right-hand side reads no end snapshot), and at most three raised
    processes are alive at any time."""
    traj = run(grid)
    alive, live_before = [], []

    def counting_raise(p, floor):
        live_before.append(sum(ref() is not None for ref in alive))
        q = raise_floor(p, floor)
        alive.append(weakref.ref(q))
        return q

    monkeypatch.setattr(absqm.absolute, "raise_floor", counting_raise)
    residual_force(traj, np.zeros(grid.n), use_stored_rhs=use_stored_rhs)
    assert len(live_before) == len(traj) - (2 if use_stored_rhs else 0)
    assert max(live_before) <= 2


def continuity_one_by_one(traj, procs, use_stored_rhs):
    """The continuity residual with one derivative call per snapshot."""
    times, g = traj.times, procs[0].grid
    vals = []
    for i in range(1, len(procs) - 1):
        p = procs[i]
        if use_stored_rhs:
            w, dw = traj.states[i], traj.rhs_values[i]
            drho_dt = 2.0 * np.real(np.conj(w.psi) * dw)
        else:
            span = times[i + 1] - times[i - 1]
            drho_dt = (procs[i + 1].rho - procs[i - 1].rho) / span
        res = drho_dt + derivative(p.j, g, 1)
        vals.append(float(np.sqrt(g.dx * np.sum(res[~p.flagged] ** 2))))
    return np.array(vals)


@pytest.mark.parametrize("boundary", ["periodic", DIRICHLET])
def test_block_pipeline_equals_single_state_calls(monkeypatch, rng, boundary):
    """The stored rhs, processes(), both residuals, and the mass shell and
    moments fed from `derivatives` take their derivatives a block of
    snapshots at a time; on a run of 41 snapshots (whole blocks and a part)
    with flagged tails they equal single-state calls bit for bit.  Each
    snapshot is still extracted once, the list is shared until `append`,
    each snapshot the force residual reads is raised once, and at most three
    raised processes are alive."""
    if boundary == DIRICHLET:
        g = Grid(-12.0, 12.0, 192, DIRICHLET)
        w0 = replace(gaussian_packet(g, momentum=0.6), a0=0.05 * g.x)
        spec = EvolutionSpec(dt=0.004, t_final=0.16)
    else:
        g = Grid(-30.0, 30.0, 256)
        w0 = random_mixture(rng, g, center_scale=5.0)
        spec = EvolutionSpec(dt=0.01, t_final=0.4)
    e_field = derivative(w0.a0, g, 1)
    extracted, alive, live_before = [], [], []
    extract = absqm.schrodinger.extract_absolute

    def counting_extract(w, dw, **kwargs):
        extracted.append(w.time)
        return extract(w, dw, **kwargs)

    def counting_raise(p, floor):
        live_before.append(sum(ref() is not None for ref in alive))
        q = raise_floor(p, floor)
        alive.append(weakref.ref(q))
        return q

    monkeypatch.setattr(absqm.schrodinger, "extract_absolute", counting_extract)
    monkeypatch.setattr(absqm.absolute, "raise_floor", counting_raise)
    traj = evolve(w0, spec)
    assert len(traj) == 41 and len(traj) % BLOCK_ROWS != 0
    for w, dw in zip(traj.states, traj.rhs_values):
        assert np.array_equal(dw, rhs(w))

    procs = traj.processes()
    want = [extract_absolute(w, rhs(w)) for w in traj.states]
    assert all(q.flagged.any() for q in want)
    for p, q in zip(procs, want):
        for name in ("rho", "u", "eps", "flagged"):
            assert np.array_equal(getattr(p, name), getattr(q, name))
    dr_amp = derivatives((p.r_amp for p in procs), g, 1)
    d2r_amp = derivatives((p.r_amp for p in procs), g, 2)
    for p, q, d1, d2 in zip(procs, want, dr_amp, d2r_amp):
        assert mass_shell_norm(p, d2) == mass_shell_norm(q)
        assert moments(p, check_boundary=False, dr_amp=d1) == moments(
            q, check_boundary=False
        )

    for use_stored_rhs in (True, False):
        cont = residual_continuity(traj, use_stored_rhs=use_stored_rhs)
        assert np.array_equal(
            cont.values, continuity_one_by_one(traj, want, use_stored_rhs)
        )
        live_before.clear()
        force = residual_force(traj, e_field, use_stored_rhs=use_stored_rhs)
        assert np.array_equal(
            force.values,
            force_residual_all_raised(traj, e_field, use_stored_rhs, want),
        )
        assert len(live_before) == len(traj) - (2 if use_stored_rhs else 0)
        assert max(live_before) <= 2

    assert traj.processes() is procs
    assert len(extracted) == len(traj)
    traj.append(traj.states[-1], traj.rhs_values[-1])
    assert traj.processes() is not procs
    assert len(extracted) == 2 * len(traj) - 1


def test_fd_residuals_converge_second_order():
    g1 = Grid(-20.0, 20.0, 256)
    g2 = Grid(-20.0, 20.0, 512)
    orders = {}
    for name, fn in (
        ("continuity", lambda t: residual_continuity(t, use_stored_rhs=False)),
        ("force", lambda t: residual_force(t, np.zeros(t.states[0].grid.n),
                                           use_stored_rhs=False)),
    ):
        traj1 = run(g1, dt=0.02, t_final=0.4, snapshot_every=5)
        traj2 = run(g2, dt=0.005, t_final=0.4, snapshot_every=5)
        r1 = np.median(fn(traj1).values)
        r2 = np.median(fn(traj2).values)
        orders[name] = np.log(r1 / r2) / np.log(4.0)
    assert orders["continuity"] > 1.8
    assert orders["force"] > 1.8


def test_residuals_need_three_snapshots(grid):
    traj = run(grid, t_final=0.01)
    assert len(traj) == 2
    with pytest.raises(ContractViolationError):
        residual_continuity(traj)
    with pytest.raises(ContractViolationError):
        residual_force(traj, np.zeros(grid.n))


def test_widen_matches_binary_dilation():
    """The force residual's mask widening equals scipy's three-step binary
    dilation, including flagged points at and next to both grid edges."""
    rng = np.random.default_rng(7)
    masks = [rng.random(n) < frac for n in (8, 9, 64) for frac in (0.02, 0.1, 0.5)
             for _ in range(50)]
    for n in (8, 64):
        for idx in (0, 1, 2, 3, n - 4, n - 3, n - 2, n - 1):
            m = np.zeros(n, dtype=bool)
            m[idx] = True
            masks.append(m)
        masks += [np.zeros(n, dtype=bool), np.ones(n, dtype=bool)]
    for m in masks:
        assert np.array_equal(_widen(m), binary_dilation(m, iterations=3))
