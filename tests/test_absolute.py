"""Residual diagnostics for the absolute equation system."""

import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.ndimage import binary_dilation

import absqm.absolute
import absqm.numerics
import absqm.schrodinger
import absqm.wavefield
from absqm.absolute import (
    FORCE_RHO_FLOOR,
    _widen,
    continuity_norm,
    force_norm,
    mass_shell_norm,
    residual_continuity,
    residual_force,
    residual_mass_shell,
)
from absqm.errors import ContractViolationError, GridMismatchError
from absqm.numerics import (
    BLOCK_ROWS,
    DIRICHLET,
    Grid,
    _fd_derivative,
    derivative,
)
from absqm.observables import MomentReport, moments
from absqm.schrodinger import evolve, free_processes, rhs, snapshot_blocks
from absqm.states import gaussian_packet, random_mixtures
from absqm.wavefield import extract_block, raise_floor


def run(grid, dt=0.01, t_final=0.2, e0=0.0, snapshot_every=1):
    a0 = None
    if e0 != 0.0:
        # smooth periodic potential: force is only approximately constant,
        # tests that need an exact force use e0 = 0
        a0 = e0 * np.sin(2.0 * np.pi * grid.x / grid.length) * grid.length / (
            2.0 * np.pi
        )
    w0 = replace(gaussian_packet(grid, sigma=1.5, momentum=0.6, chirp=0.1), a0=a0)
    return evolve(w0, dt, t_final, snapshot_every=snapshot_every)


def test_mass_shell_residual_of_extracted_state(grid):
    w = gaussian_packet(grid, sigma=1.5, momentum=0.6, chirp=0.1)
    p = extract_block(w, rhs(w))[1]
    # s is defined through eps and u of the same field, so the relation
    # s R + R''/2 = 0 holds to spectral accuracy on the resolved support
    assert mass_shell_norm(p) < 1e-7
    assert residual_mass_shell(p).shape == (grid.n,)


def times(states):
    return np.array([w.time for w in states])


def rhs_norms(states, e_field, procs, rows=None):
    """`continuity_norm` and `force_norm` of each interior snapshot, d/dt
    from its Schrodinger right-hand side, called on one state at a time or,
    with `rows`, on blocks of that many interior snapshots."""
    interior = range(1, len(states) - 1)
    if rows is not None:
        interior = [slice(k, min(k + rows, interior.stop)) for k in interior[::rows]]
    cont, force = [], []
    for i in interior:
        w, p = states[i], procs[i]
        dw = rhs(w)
        cont.append(continuity_norm(p, w.psi, dw))
        force.append(force_norm(p, w.psi, dw, derivative(w.psi, w.grid, 1), e_field))
    return np.hstack(cont), np.hstack(force)


def test_continuity_residual_with_stored_rhs(grid):
    states = run(grid)
    cont, _ = rhs_norms(states, np.zeros(grid.n), free_processes(states))
    # the right-hand side makes the time derivative exact for the
    # semidiscrete flow; what remains is spatial truncation of the tails
    assert np.max(cont) < 1e-8
    assert cont.shape == (len(states) - 2,)


def test_force_residual_with_stored_rhs(grid):
    e0 = 0.05
    states = run(grid, e0=e0)
    e_field = derivative(states[0].a0, grid, 1)
    _, force = rhs_norms(states, e_field, free_processes(states))
    assert np.max(force) < 1e-6


def force_residual_all_raised(states, e_field, from_rhs, procs):
    """The force residual as it was computed with every snapshot raised to
    FORCE_RHO_FLOOR before the loop, one derivative call per snapshot, d u/dt
    from the Schrodinger right-hand side or a centered difference."""
    procs = [raise_floor(p, FORCE_RHO_FLOOR) for p in procs]
    ts, g = times(states), procs[0].grid
    us = [p.u for p in procs]
    vals = []
    for i in range(1, len(procs) - 1):
        p = procs[i]
        du_dx = _fd_derivative(p.u, g.dx, 1)
        ds_dx = _fd_derivative(p.s, g.dx, 1)
        mask = ~_widen(p.flagged)
        if from_rhs:
            w = states[i]
            dw = rhs(w)
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
            du_dt = (us[i + 1] - us[i - 1]) / (ts[i + 1] - ts[i - 1])
            mask &= ~(procs[i - 1].flagged | procs[i + 1].flagged)
        res = du_dt + p.u * du_dx + ds_dx - e_field
        vals.append(float(np.sqrt(g.dx * np.sum(res[mask] ** 2))))
    return np.array(vals)


@pytest.mark.parametrize("from_rhs", [True, False])
def test_force_residual_equals_raising_the_whole_trajectory(grid, from_rhs):
    """Raising each snapshot inside `force_norm` or the loop of
    `residual_force` gives the residual of raising them all first, bit for
    bit, on a run whose tails are flagged at FORCE_RHO_FLOOR but not at
    RHO_FLOOR."""
    states = run(grid, e0=0.05)
    procs = free_processes(states)
    assert all(
        (raise_floor(p, FORCE_RHO_FLOOR).flagged & ~p.flagged).any() for p in procs
    )
    e_field = derivative(states[0].a0, grid, 1)
    if from_rhs:
        _, got = rhs_norms(states, e_field, procs)
    else:
        series = residual_force(procs, e_field)
        assert np.array_equal(series.times, times(states)[1:-1])
        got = series.values
    assert np.array_equal(
        got, force_residual_all_raised(states, e_field, from_rhs, procs)
    )


def test_force_residual_holds_three_raised_processes(grid, monkeypatch):
    """residual_force raises each snapshot exactly once, on copies that
    leave the caller's processes untouched, and at most three raised
    processes are alive at any time."""
    procs = free_processes(run(grid))
    before = [(p.u.copy(), p.flagged.copy()) for p in procs]
    alive, live_before = [], []

    def counting_raise(p, floor):
        live_before.append(sum(ref() is not None for ref in alive))
        q = raise_floor(p, floor)
        alive.append(weakref.ref(q))
        return q

    monkeypatch.setattr(absqm.absolute, "raise_floor", counting_raise)
    residual_force(procs, np.zeros(grid.n))
    assert len(live_before) == len(procs)
    assert max(live_before) <= 2
    for p, (u, flagged) in zip(procs, before):
        assert np.array_equal(p.u, u) and np.array_equal(p.flagged, flagged)


def continuity_one_by_one(states, procs, from_rhs):
    """The continuity residual with one derivative call per snapshot, d rho/dt
    from the Schrodinger right-hand side or a centered difference."""
    ts, g = times(states), procs[0].grid
    vals = []
    for i in range(1, len(procs) - 1):
        p = procs[i]
        if from_rhs:
            w = states[i]
            drho_dt = 2.0 * np.real(np.conj(w.psi) * rhs(w))
        else:
            span = ts[i + 1] - ts[i - 1]
            drho_dt = (procs[i + 1].rho - procs[i - 1].rho) / span
        res = drho_dt + derivative(p.j, g, 1)
        vals.append(float(np.sqrt(g.dx * np.sum(res[~p.flagged] ** 2))))
    return np.array(vals)


def moments_one(p):
    """The moments of one process from sums over its own 1-D fields, as they
    were computed before `moments` took blocks."""
    g, rho, u = p.grid, p.rho, p.u
    Q = g.dx * np.sum(rho * g.x)
    V = g.dx * np.sum(rho * u)
    T = g.dx * np.sum(rho * (u - V) ** 2)
    P = g.dx * np.sum(derivative(p.r_amp, g, 1) ** 2)
    return MomentReport(
        Q=float(Q), V=float(V), K=float(-(g.dx * np.sum(rho * p.eps))),
        varQ=float(g.dx * np.sum(rho * (g.x - Q) ** 2)), varV=float(T + P),
        T=float(T), P=float(P), Y=float(g.dx * np.sum(rho * (g.x - Q) * (u - V))),
        time=p.time,
    )


def pipeline_run(rng, boundary, potentials=False):
    """The 41-snapshot run of the block pipeline tests, with flagged tails:
    its grid, initial state (with nonzero a0 and a1 if `potentials`), dt
    and t_final."""
    if boundary == DIRICHLET:
        g = Grid(-12.0, 12.0, 192, DIRICHLET)
        w0 = replace(gaussian_packet(g, momentum=0.6), a0=0.05 * g.x)
        dt, t_final = 0.004, 0.16
        more = {"a1": 0.2 * np.sin(g.x)}
    else:
        g = Grid(-30.0, 30.0, 256)
        w0 = random_mixtures(rng, g, 1, center_scale=5.0)[0]
        dt, t_final = 0.01, 0.4
        wave = 2.0 * np.pi * g.x / g.length
        more = {"a0": 0.3 * np.cos(wave), "a1": 0.2 * np.sin(wave)}
    if potentials:
        w0 = replace(w0, **more)
    return g, w0, dt, t_final


@pytest.mark.parametrize(
    "boundary, by",
    [("periodic", "rhs"), (DIRICHLET, "rhs"),
     ("periodic", "free_processes"), (DIRICHLET, "free_processes")],
    ids=["periodic", "dirichlet_zero",
         "periodic-free_processes", "dirichlet_zero-free_processes"],
)
def test_block_pipeline_equals_single_state_calls(monkeypatch, rng, boundary, by):
    """The right-hand sides of the blocks of `snapshot_blocks` (by "rhs", as
    `simulate` takes them) or `free_processes` of the run, `extract_block`,
    both residual series, the continuity and force norms with d/dt from the
    right-hand side, and the mass shell and moments fed from stacks of
    snapshots take their derivatives a block at a time; on a run of 41
    snapshots (whole blocks and a part) with flagged tails they equal
    blocks of one state bit for bit (`free_processes` of each state alone,
    by "free_processes", with nonzero potentials a0 and a1).  `extract_block`
    fills each snapshot once, `moments` of a block equals each process's
    moments from its own sums, each snapshot a force residual reads is
    raised once, from a one-row view of the block, and at most three raised
    processes are alive."""
    g, w0, dt, t_final = pipeline_run(rng, boundary, by == "free_processes")
    e_field = derivative(w0.a0, g, 1)
    extracted, alive, live_before, raised = [], [], [], []
    fill = absqm.wavefield._fill_flagged

    def counting_fill(fields, flagged, x):
        extracted.extend(flagged)
        return fill(fields, flagged, x)

    def counting_raise(p, floor):
        live_before.append(sum(ref() is not None for ref in alive))
        raised.append(p)
        q = raise_floor(p, floor)
        alive.append(weakref.ref(q))
        return q

    monkeypatch.setattr(absqm.absolute, "raise_floor", counting_raise)
    blocks = list(snapshot_blocks(w0, dt, t_final))
    states = evolve(w0, dt, t_final)
    assert [len(b) for b in blocks] == [BLOCK_ROWS] * 5 + [1]
    assert np.array_equal(np.concatenate([b.psi for b in blocks]), states.psi)
    assert np.array_equal(np.concatenate([b.time for b in blocks]), states.time)
    if by == "rhs":
        dpsi_dt = np.concatenate([rhs(b) for b in blocks])
        for w, dw in zip(states, dpsi_dt):
            assert np.array_equal(dw, rhs(w))

    with monkeypatch.context() as m:
        m.setattr(absqm.wavefield, "_fill_flagged", counting_fill)
        if by == "rhs":
            dpsi_dx, procs = extract_block(states, dpsi_dt)
        else:
            procs = free_processes(states)
    if by == "rhs":
        want = [extract_block(w, rhs(w))[1] for w in states]
        for w, d in zip(states, dpsi_dx):
            assert np.array_equal(d, derivative(w.psi, g, 1))
    else:
        want = [free_processes(w) for w in states]
    assert len(procs) == len(want) == 41
    assert all(q.flagged.any() for q in want)
    assert np.array_equal(extracted, [q.flagged for q in want])
    for p, q in zip(procs, want):
        for name in ("rho", "u", "eps", "flagged", "time"):
            assert np.array_equal(getattr(p, name), getattr(q, name))
    assert np.array_equal(mass_shell_norm(procs),
                          [mass_shell_norm(q) for q in want])
    reports = [r for k in range(0, len(procs), BLOCK_ROWS)
               for r in moments(procs[k : k + BLOCK_ROWS])]
    assert reports == moments(procs)
    assert reports == [r for q in want for r in moments(q)]
    assert reports == [moments_one(q) for q in want]

    cont, force = rhs_norms(states, e_field, procs, BLOCK_ROWS)
    assert np.array_equal(cont, continuity_one_by_one(states, want, True))
    assert np.array_equal(force, force_residual_all_raised(states, e_field, True, want))
    # one raised block per call
    assert len(live_before) == len(range(1, len(states) - 1, BLOCK_ROWS))
    assert max(live_before) <= 2

    live_before.clear()
    raised.clear()
    cont = residual_continuity(procs)
    assert np.array_equal(cont.values, continuity_one_by_one(states, want, False))
    force = residual_force(procs, e_field)
    assert np.array_equal(
        force.values, force_residual_all_raised(states, e_field, False, want)
    )
    assert len(live_before) == len(states)
    assert max(live_before) <= 2
    # each raised process is one row, a view of the caller's block
    assert all(q.rho.shape == (g.n,) and np.shares_memory(q.rho, procs.rho)
               for q in raised)


@pytest.mark.parametrize("boundary", ["periodic", DIRICHLET])
def test_snapshot_blocks_check_each_block_once(monkeypatch, rng, boundary):
    """On the 41-snapshot run, `snapshot_blocks` checks each block once (its
    psi stack and the potentials it shares with w0), not each snapshot, and
    every block holds w0's own a0 and a1 arrays."""
    g, w0, dt, t_final = pipeline_run(rng, boundary, potentials=True)
    calls = []
    check = absqm.numerics.check_field

    def counting_check(f, grid, stack=False):
        calls.append(np.shape(f))
        return check(f, grid, stack)

    for module in (absqm.numerics, absqm.wavefield):
        monkeypatch.setattr(module, "check_field", counting_check)
    steps = snapshot_blocks(w0, dt, t_final)
    calls.clear()  # those of building the stepper
    blocks = list(steps)
    assert len(blocks) == 6 and sum(map(len, blocks)) == 41
    assert len(calls) == 3 * len(blocks)
    assert calls[::3] == [(BLOCK_ROWS, g.n)] * 5 + [(1, g.n)]
    for b in blocks:
        assert b.a0 is w0.a0 and b.a1 is w0.a1


def test_snapshot_blocks_catch_a_step_that_blew_up(monkeypatch, rng):
    """The block check is how a blown-up step is caught: a Strang step that
    returns NaN at step 13 makes the second block of the 41-snapshot run
    raise, after the first one was yielded."""
    g, w0, dt, t_final = pipeline_run(rng, "periodic")
    strang = absqm.schrodinger._strang_stepper

    def blowing_up(w, dt):
        step, count = strang(w, dt), iter(range(1, 10**6))
        return lambda psi: step(psi) * (np.nan if next(count) == 13 else 1.0)

    monkeypatch.setattr(absqm.schrodinger, "_strang_stepper", blowing_up)
    blocks = snapshot_blocks(w0, dt, t_final)
    assert len(next(blocks)) == BLOCK_ROWS
    with pytest.raises(GridMismatchError, match="non-finite"):
        next(blocks)


def test_fd_residuals_converge_second_order():
    g1 = Grid(-20.0, 20.0, 256)
    g2 = Grid(-20.0, 20.0, 512)
    orders = {}
    for name, fn in (
        ("continuity", residual_continuity),
        ("force", lambda procs: residual_force(procs, np.zeros(procs[0].grid.n))),
    ):
        procs1 = free_processes(run(g1, dt=0.02, t_final=0.4, snapshot_every=5))
        procs2 = free_processes(run(g2, dt=0.005, t_final=0.4, snapshot_every=5))
        r1 = np.median(fn(procs1).values)
        r2 = np.median(fn(procs2).values)
        orders[name] = np.log(r1 / r2) / np.log(4.0)
    assert orders["continuity"] > 1.8
    assert orders["force"] > 1.8


def test_residuals_need_three_snapshots(grid):
    procs = free_processes(run(grid, t_final=0.01))
    assert len(procs) == 2
    with pytest.raises(ContractViolationError):
        residual_continuity(procs)
    with pytest.raises(ContractViolationError):
        residual_force(procs, np.zeros(grid.n))


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
