"""Klein-Gordon propagation, covariant residuals, nonrelativistic limit."""

from dataclasses import replace

import numpy as np
import pytest

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
    g = Grid(-20.0, 20.0, 256)
    f = from_envelope(gaussian_packet(g, sigma=2.0), c=5.0)
    with pytest.raises(ContractViolationError):
        kg_residuals([f, kg_step(f, 1e-3)])
    f1 = kg_step(f, 1e-3)
    f2 = kg_step(f1, 2e-3)
    with pytest.raises(ContractViolationError):
        kg_residuals([f, f1, f2])


def test_residuals_refuse_a_mixed_series():
    """Snapshots on two grids (the same n on another interval), at two c or
    with two potentials are refused: the residuals extract the series as one
    block on the first one's grid, c and potentials, and read 6.9e3 here
    when they did not check the grid."""

    def run(x_max, c=1.0):
        g = Grid(-x_max, x_max, 256)
        f = from_envelope(gaussian_packet(g, sigma=2.0), c=c)
        return kg_evolve(f, dt=0.01, t_final=0.04)

    with pytest.raises(GridMismatchError):
        kg_residuals(run(20.0)[:3] + run(10.0)[3:])
    with pytest.raises(ContractViolationError):
        kg_residuals(run(20.0)[:3] + run(20.0, c=2.0)[3:])
    with pytest.raises(ContractViolationError, match="a0, a1"):
        kg_residuals(run(20.0)[:3] + [replace(f, a0=0.5) for f in run(20.0)[3:]])


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


def test_kg_step_transforms_the_stacked_pair_once(monkeypatch):
    """One forward and one inverse transform per step, on the stack
    (phi, d_t phi), not one pair per field."""
    g = Grid(-20.0, 20.0, 256)
    f = from_envelope(gaussian_packet(g, sigma=2.0), c=5.0)
    calls = {"fft": 0, "ifft": 0}
    for name in calls:
        original = getattr(np.fft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    kg_evolve(f, dt=0.01, t_final=0.05)
    assert calls == {"fft": 5, "ifft": 5}


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


@pytest.mark.parametrize("t_final", [np.inf, np.nan, 0.0, -0.5])
def test_nr_limit_refuses_bad_t_final(t_final):
    g = Grid(-20.0, 20.0, 64)
    w0 = gaussian_packet(g, sigma=2.0)
    with pytest.raises(ValueError, match="t_final"):
        nr_limit_compare(w0, [5.0, 10.0], t_final=t_final)
