"""Klein-Gordon propagation, covariant residuals, nonrelativistic limit."""

import re
from dataclasses import replace

import numpy as np
import pytest

import absqm.kleingordon
from absqm.errors import (
    ContractViolationError,
    DegenerateInputError,
    GridMismatchError,
    StabilityError,
)
from absqm.kleingordon import (
    KGField,
    from_envelope,
    kg_evolve,
    kg_extract,
    kg_residuals,
    kg_step,
    nr_limit_compare,
)
from absqm.numerics import DIRICHLET, Grid, derivative, integrate
from absqm.schrodinger import snapshot_steps
from absqm.states import gaussian_packet
from absqm.wavefield import RHO_FLOOR


@pytest.mark.parametrize(
    "a0, a1", [(0.0, 0.0), (0.7, 0.2)], ids=["free", "constant_potentials"]
)
def test_plane_wave_dispersion_exact(a0, a1):
    """Each mode rotates at omega = -a0 + sqrt(c^2 (k - a1)^2 + c^4) to machine
    precision regardless of step size (up to the interface bound).  With
    a1 = 0.2, a1 L is not a multiple of 2 pi: a real-space phase ramp
    e^{-i a1 x} would break the periodicity at the seam."""
    g = Grid(-20.0, 20.0, 256)
    c = 3.0
    k = 2.0 * np.pi * 5 / g.length
    psi0 = np.exp(1j * k * g.x)
    omega = -a0 + np.sqrt(c**2 * (k - a1) ** 2 + c**4)
    f = KGField(psi=psi0, dpsi_dt=-1j * omega * psi0, grid=g, c=c, a0=a0, a1=a1)
    dt = 0.5 * g.dx / c
    n = 64
    for _ in range(n):
        f = kg_step(f, dt)
    exact = psi0 * np.exp(-1j * omega * n * dt)
    assert np.max(np.abs(f.psi - exact)) < 1e-6 * omega * n * dt / 100
    assert np.max(np.abs(f.psi - exact)) < 1e-10


def _charge(f: KGField) -> float:
    """Conserved charge int R^2 u_t = int [Im(psi* dpsi/dt) - a0 |psi|^2]."""
    dens = np.imag(np.conj(f.psi) * f.dpsi_dt) - f.a0 * np.abs(f.psi) ** 2
    return float(integrate(dens, f.grid))


def test_charge_conserved():
    g = Grid(-20.0, 20.0, 256)
    f = from_envelope(gaussian_packet(g, sigma=2.0, momentum=0.3), c=5.0)
    q0 = _charge(f)
    for state in kg_evolve(f, dt=0.5 * g.dx / 5.0, t_final=0.5, snapshot_every=16):
        assert _charge(state) == pytest.approx(q0, rel=1e-12)


def test_charge_with_constant_gauge_potential():
    g = Grid(-20.0, 20.0, 256)
    w = gaussian_packet(g, sigma=2.0)
    base = from_envelope(w, c=5.0)
    f = KGField(psi=base.psi, dpsi_dt=base.dpsi_dt, grid=g, c=5.0, a0=0.7, a1=0.2)
    q0 = _charge(f)
    for _ in range(50):
        f = kg_step(f, 0.5 * g.dx / 5.0)
    assert _charge(f) == pytest.approx(q0, rel=1e-10)


def test_cfl_contract():
    g = Grid(-20.0, 20.0, 256)
    f = from_envelope(gaussian_packet(g, sigma=2.0), c=5.0)
    with pytest.raises(StabilityError):
        kg_step(f, 2.0 * g.dx / 5.0)
    with pytest.raises(ValueError):
        kg_step(f, -0.1)


def test_field_validation():
    g = Grid(-20.0, 20.0, 256)
    with pytest.raises(ValueError):
        KGField(psi=np.zeros(g.n), dpsi_dt=np.zeros(g.n), grid=g, c=-1.0)
    gd = Grid(-20.0, 20.0, 256, DIRICHLET)
    with pytest.raises(ContractViolationError):
        KGField(psi=np.zeros(gd.n), dpsi_dt=np.zeros(gd.n), grid=gd, c=1.0)
    with pytest.raises(GridMismatchError, match="one shape"):
        KGField(psi=np.zeros((2, g.n)), dpsi_dt=np.zeros(g.n), grid=g, c=1.0)


@pytest.mark.parametrize("c", [np.inf, np.nan])
def test_non_finite_c_is_refused(c):
    """A non-finite c is refused by name before any step, by the field and
    by the limit ladder."""
    g = Grid(-20.0, 20.0, 64)
    with pytest.raises(ValueError, match="c="):
        KGField(psi=np.zeros(g.n), dpsi_dt=np.zeros(g.n), grid=g, c=c)
    with pytest.raises(ValueError, match="c_values"):
        nr_limit_compare(gaussian_packet(g, sigma=2.0), [5.0, c])


@pytest.mark.parametrize("name, value", [
    ("a0", np.nan), ("a0", np.inf), ("a0", 0.5j), ("a1", np.zeros(64)),
], ids=["nan", "inf", "complex", "array"])
def test_potentials_must_be_finite_real_constants(name, value):
    """The solver treats a0 and a1 as constants: a non-finite, complex or
    array potential is refused by name when the field is built, not at the
    first step."""
    g = Grid(-20.0, 20.0, 64)
    with pytest.raises(ValueError, match=f"{name}="):
        KGField(psi=np.zeros(g.n), dpsi_dt=np.zeros(g.n), grid=g, c=5.0,
                **{name: value})


def test_kg_evolve_rows_agree_with_a_chain_of_steps():
    """kg_evolve's block holds, row for row, the states of a chain of kg_step
    calls: row 0 and the times bit for bit, the other rows to round-off,
    since the chain goes through the grid at every step and the block does
    not.  Measured, as a fraction of max|psi| or max|dpsi_dt|: 9e-16 after 7
    steps, 3.5e-14 after 512 steps at c = 40 and 3.8e-14 after 2,000 steps.
    kg_step and kg_evolve refuse a block."""
    for n, c, n_steps, every, bound in ((256, 5.0, 7, 3, 1e-14),
                                        (512, 40.0, 512, 128, 2e-13),
                                        (256, 5.0, 2000, 500, 2e-13)):
        g = Grid(-20.0, 20.0, n)
        f = replace(from_envelope(gaussian_packet(g, sigma=2.0, momentum=0.3), c=c),
                    a0=0.7, a1=0.2, time=0.1)
        dt = 0.5 * g.dx / c
        block = kg_evolve(f, dt, f.time + n_steps * dt, snapshot_every=every)
        chain = [f]
        for _ in range(n_steps):
            chain.append(kg_step(chain[-1], dt))
        rows = [chain[k] for k in snapshot_steps(n_steps, every)]
        assert len(block) == len(rows)
        assert block.psi.shape == block.dpsi_dt.shape == (len(rows), g.n)
        assert np.array_equal(block.time, [state.time for state in rows])
        assert np.array_equal(block.psi[0], f.psi)
        assert np.array_equal(block.dpsi_dt[0], f.dpsi_dt)
        for name in ("psi", "dpsi_dt"):
            scale = np.max(np.abs(getattr(f, name)))
            dev = max(np.max(np.abs(getattr(row, name) - getattr(state, name)))
                      for row, state in zip(block, rows))
            assert dev <= bound * scale
    with pytest.raises(ContractViolationError, match="block"):
        kg_step(block, dt)
    with pytest.raises(ContractViolationError, match="block"):
        kg_evolve(block, dt, block.time[-1] + dt)


def test_single_mode_stays_exact_over_many_steps():
    """A mode e^{ikx} with dpsi/dt = -i omega psi stays psi0 e^{-i omega t}
    after 10^4 steps of one kg_evolve (3.9e-13 measured)."""
    g = Grid(-20.0, 20.0, 512)
    c = 5.0
    k = 2.0 * np.pi * 5 / g.length
    psi0 = np.exp(1j * k * g.x)
    omega = np.sqrt(c**2 * k**2 + c**4)
    f = KGField(psi=psi0, dpsi_dt=-1j * omega * psi0, grid=g, c=c)
    dt = 0.5 * g.dx / c
    block = kg_evolve(f, dt, 10_000 * dt, snapshot_every=10_000)
    assert len(block) == 2
    exact = psi0 * np.exp(-1j * omega * block.time[-1])
    assert np.max(np.abs(block.psi[-1] - exact)) < 1e-12


def test_blown_up_spectrum_is_refused_by_the_block_check():
    """A state near the largest double is finite, but its spectrum is not:
    the one check of the block refuses what the steps made of it."""
    g = Grid(-20.0, 20.0, 512)
    f = KGField(psi=1e306 * gaussian_packet(g, sigma=2.0).psi,
                dpsi_dt=np.zeros(g.n), grid=g, c=5.0)
    dt = 0.5 * g.dx / f.c
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(GridMismatchError, match="non-finite"):
            kg_evolve(f, dt, 5 * dt)
        with pytest.raises(GridMismatchError, match="non-finite"):
            kg_step(f, dt)


def count_transforms(monkeypatch) -> dict:
    """Counts of np.fft.fft and np.fft.ifft calls from here on."""
    calls = {"fft": 0, "ifft": 0}
    for name in calls:
        original = getattr(np.fft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def test_nr_limit_transforms_do_not_grow_with_t_final(monkeypatch):
    """nr_limit_compare runs each c's leg to t_final as one kg_evolve, so it
    makes no kg_step call, and its transforms do not grow with t_final."""
    steps = []
    monkeypatch.setattr(absqm.kleingordon, "kg_step",
                        lambda f, dt: steps.append(dt) or kg_step(f, dt))
    g = Grid(-20.0, 20.0, 512)
    w0 = gaussian_packet(g, sigma=2.0, momentum=0.3)
    counts = []
    for t_final in (0.05, 0.5):
        calls = count_transforms(monkeypatch)
        nr_limit_compare(w0, [5.0, 10.0, 20.0, 40.0], t_final)
        counts.append(dict(calls))
    assert steps == []
    assert counts[0] == counts[1]


def test_extraction_positive_frequency_envelope():
    """For positive-frequency data, eps = u0 + c^2 reduces to the local
    Schrodinger energy (here ~ kinetic, O(1)) instead of O(c^2)."""
    g = Grid(-20.0, 20.0, 512)
    c = 10.0
    f = from_envelope(gaussian_packet(g, sigma=2.0, momentum=0.3), c=c)
    kg = kg_extract(f)
    # the division by rho makes eps and u noisy just above the flag threshold;
    # judge the physics where the density is resolved
    ok = kg.rho > 1e-6 * np.max(kg.rho)
    assert np.max(np.abs(kg.eps[ok])) < 1.0  # not O(c^2) = 100
    assert np.max(np.abs(kg.u[ok] - 0.3)) < 1e-6


def test_extraction_matches_the_kg_quotients():
    """At a0 = a1 = 0, extraction with A0 = -c^2 gives on the unflagged points
    the bits of u_1 = Im(psi* psi_x)/rho and u_0 + c^2 with
    u_0 = Im(psi* psi_t)/rho, computed here the direct way."""
    g = Grid(-20.0, 20.0, 512)
    c = 5.0
    f = from_envelope(gaussian_packet(g, sigma=2.0, momentum=0.3), c=c)
    for _ in range(20):
        f = kg_step(f, 0.5 * g.dx / c)
    rho = np.abs(f.psi) ** 2
    flagged = rho < RHO_FLOOR * rho.max()
    safe = np.maximum(rho, RHO_FLOOR * rho.max())
    u0 = np.imag(np.conj(f.psi) * f.dpsi_dt) / safe - f.a0
    u1 = np.imag(np.conj(f.psi) * derivative(f.psi, g, 1)) / safe - f.a1
    kg = kg_extract(f)
    ok = ~flagged
    assert flagged.any() and ok.any()
    assert np.array_equal(kg.flagged, flagged)
    assert np.array_equal(kg.rho, rho)
    assert np.array_equal(kg.u[ok], u1[ok])
    assert np.array_equal(kg.eps[ok], (u0 + c**2)[ok])


def test_process_is_gauge_invariant():
    """psi and e^{i a1 x} psi under A1 = a1 (a1 L = 2 pi) are one process:
    after 50 steps their rho, rho u and rho eps agree to round-off."""
    g = Grid(-20.0, 20.0, 256)
    c = 5.0
    a1 = 2.0 * np.pi / g.length
    f = from_envelope(gaussian_packet(g, sigma=2.0, momentum=0.3), c=c)
    phase = np.exp(1j * a1 * g.x)
    f_g = KGField(psi=phase * f.psi, dpsi_dt=phase * f.dpsi_dt, grid=g, c=c,
                  a1=a1)
    for _ in range(50):
        f = kg_step(f, 0.5 * g.dx / c)
        f_g = kg_step(f_g, 0.5 * g.dx / c)
    p, p_g = kg_extract(f), kg_extract(f_g)
    assert np.max(np.abs(p.rho - p_g.rho)) <= 1e-10
    assert np.max(np.abs(p.rho * p.u - p_g.rho * p_g.u)) <= 1e-10
    assert np.max(np.abs(p.rho * p.eps - p_g.rho * p_g.eps)) <= 1e-10


def test_extraction_of_zero_field_raises():
    """kg_extract shares the density floor of extract_block, which has no
    peak to scale from on an identically zero field."""
    g = Grid(-20.0, 20.0, 64)
    zero = np.zeros(g.n, dtype=complex)
    with pytest.raises(DegenerateInputError):
        kg_extract(KGField(psi=zero, dpsi_dt=zero, grid=g, c=5.0))


def test_covariant_residuals_second_order():
    """rel2/rel3 residuals are dominated by the centered time differences of
    the snapshot spacing and drop by ~16 when the spacing is quartered."""
    g = Grid(-20.0, 20.0, 512)
    c = 5.0
    f = from_envelope(gaussian_packet(g, sigma=2.0, momentum=0.3), c=c)
    dt = 0.25 * g.dx / c
    t_final = 128 * dt  # multiple of both snapshot spacings: uniform snapshots

    def median_residuals(snapshot_every):
        traj = kg_evolve(f, dt=dt, t_final=t_final, snapshot_every=snapshot_every)
        rep = kg_residuals(traj)
        return np.median(rep.mass_shell), np.median(rep.continuity)

    # spacings small against the rest period 2 pi / c^2, so the centered
    # differences are in their asymptotic regime
    coarse = median_residuals(8)
    fine = median_residuals(2)
    for rc, rf in zip(coarse, fine):
        order = np.log(rc / rf) / np.log(4.0)
        assert order > 1.8


def test_residuals_validation():
    """A block of two rows, or of three rows unevenly spaced in time, is
    refused."""
    g = Grid(-20.0, 20.0, 256)
    f = from_envelope(gaussian_packet(g, sigma=2.0), c=5.0)
    with pytest.raises(ContractViolationError, match="at least 3"):
        kg_residuals(kg_evolve(f, dt=1e-3, t_final=1e-3))
    uneven = replace(kg_evolve(f, dt=1e-3, t_final=2e-3), time=[0.0, 1e-3, 3e-3])
    with pytest.raises(ContractViolationError, match="uniformly"):
        kg_residuals(uneven)


@pytest.fixture(scope="module")
def nr_report():
    g = Grid(-20.0, 20.0, 512)
    w0 = gaussian_packet(g, sigma=2.0, momentum=0.3)
    return nr_limit_compare(w0, [5.0, 10.0, 20.0, 40.0], t_final=0.5)


def test_nr_limit_quadratic_convergence(nr_report):
    assert np.all(np.diff(nr_report.distances) < 0.0)
    assert 1.7 <= nr_report.exponent <= 2.3


def test_nr_limit_eps_agreement_at_c20(nr_report):
    # the combined density-weighted distance already bounds the eps part
    i = int(np.argmin(np.abs(nr_report.c_values - 20.0)))
    assert nr_report.distances[i] < 1e-2


def test_nr_limit_bandwidth_contract():
    g = Grid(-20.0, 20.0, 512)
    w0 = gaussian_packet(g, sigma=0.3, momentum=3.0)  # broadband envelope
    with pytest.raises(ContractViolationError):
        nr_limit_compare(w0, [2.0, 4.0])


def test_from_envelope_matches_schrodinger_rate():
    """d psi/dt at t=0 equals -i c^2 psi + (i/2) psi'': removing the rest
    rotation leaves the free Schrodinger right-hand side."""
    g = Grid(-20.0, 20.0, 256)
    w = gaussian_packet(g, sigma=1.5, momentum=0.4)
    c = 7.0
    f = from_envelope(w, c)
    expected = -1j * c**2 * w.psi + 0.5j * derivative(derivative(w.psi, g, 1), g, 1)
    assert np.max(np.abs(f.dpsi_dt - expected)) < 1e-12


def test_kg_evolve_rejects_t_final_off_the_step_grid():
    """round(t_final/dt) steps would end at 0.009 instead of 0.01."""
    g = Grid(-20.0, 20.0, 256)
    f = from_envelope(gaussian_packet(g, sigma=2.0), c=5.0)
    with pytest.raises(ContractViolationError):
        kg_evolve(f, dt=0.003, t_final=0.01)
    assert kg_evolve(f, dt=0.01, t_final=0.03)[-1].time == pytest.approx(0.03)


def test_kg_evolve_transforms_the_stacked_pair_once(monkeypatch):
    """One forward transform of the stack (phi, d_t phi) and one inverse
    transform of the snapshots per kg_evolve, however many steps it takes."""
    g = Grid(-20.0, 20.0, 256)
    f = from_envelope(gaussian_packet(g, sigma=2.0), c=5.0)
    for t_final in (0.05, 5.0):
        calls = count_transforms(monkeypatch)
        block = kg_evolve(f, dt=0.01, t_final=t_final, snapshot_every=50)
        assert calls == {"fft": 1, "ifft": 1}
    assert len(block) == 11


def test_kg_step_of_stack_equals_separate_transforms():
    """The stacked transform gives the per-field transforms bit for bit."""
    g = Grid(-20.0, 20.0, 256)
    f = replace(from_envelope(gaussian_packet(g, sigma=2.0, momentum=0.3), c=5.0),
                a0=0.7, a1=0.2, time=0.1)
    dt = 0.01
    ramp = np.exp(-1j * f.a0 * f.time)
    phi_k = np.fft.fft(ramp * f.psi)
    dphi_k = np.fft.fft(ramp * (f.dpsi_dt - 1j * f.a0 * f.psi))
    omega = np.sqrt(f.c**2 * (g.k - f.a1) ** 2 + f.c**4)
    cos_w, sin_w = np.cos(omega * dt), np.sin(omega * dt)
    phi = np.fft.ifft(cos_w * phi_k + (sin_w / omega) * dphi_k)
    dphi = np.fft.ifft(-omega * sin_w * phi_k + cos_w * dphi_k)
    unramp = np.exp(1j * f.a0 * (f.time + dt))
    stepped = kg_step(f, dt)
    assert np.array_equal(stepped.psi, unramp * phi)
    assert np.array_equal(stepped.dpsi_dt, unramp * (dphi + 1j * f.a0 * phi))


@pytest.mark.parametrize("c_values, repeated", [
    ([5.0, 5.0], "[5.0]"), ([5, 5, 10], "[5.0]"), ([20, 5, 10, 5, 20], "[5.0, 20.0]"),
])
def test_nr_limit_refuses_repeated_c_values(c_values, repeated):
    """A fit through repeated points is no fit: the ladder names them."""
    w0 = gaussian_packet(Grid(-20.0, 20.0, 64), sigma=2.0)
    with pytest.raises(ValueError, match=rf"{re.escape(repeated)} repeated"):
        nr_limit_compare(w0, c_values)


@pytest.mark.parametrize("t_final", [np.inf, np.nan, 0.0, -0.5])
def test_nr_limit_refuses_bad_t_final(t_final):
    g = Grid(-20.0, 20.0, 64)
    w0 = gaussian_packet(g, sigma=2.0)
    with pytest.raises(ValueError, match="t_final"):
        nr_limit_compare(w0, [5.0, 10.0], t_final=t_final)
