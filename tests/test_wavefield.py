"""Polar decomposition, extraction, transforms, geometry."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absqm.errors import (
    ChartDomainError,
    ContractViolationError,
    DegenerateInputError,
    GridMismatchError,
)
from absqm.numerics import DIRICHLET, Grid, derivative, integrate
from absqm.schrodinger import rhs
from absqm.states import gaussian_packet, plane_wave, random_mixture
from absqm.wavefield import (
    RHO_FLOOR,
    AbsoluteProcess,
    WaveField,
    _interpolate_flagged,
    boost_transform,
    chart_coordinate,
    cotensor_boost_check,
    extract_absolute,
    gauge_transform,
    geodesic_length,
    overlap_magnitude,
    polar_decompose,
    process_distance,
    raise_floor,
)


def free_process(w: WaveField) -> AbsoluteProcess:
    return extract_absolute(w, rhs(w))


# ------------------------------------------------------------------ polar ---


def test_polar_decompose_recomposes(grid):
    w = gaussian_packet(grid, sigma=1.5, momentum=0.8, chirp=0.2)
    p = polar_decompose(w)
    psi = p.r_amp * np.exp(1j * p.phase)
    ok = ~p.flagged
    assert np.max(np.abs((psi - w.psi)[ok])) < 1e-12


def test_polar_decompose_zero_field(grid):
    with pytest.raises(DegenerateInputError):
        polar_decompose(WaveField(np.zeros(grid.n, dtype=complex), grid))


# ---------------------------------------------------------------- extract ---


def test_extraction_gaussian_closed_form(grid):
    sigma, k0, a = 1.3, 0.9, 0.15
    w = gaussian_packet(grid, sigma=sigma, momentum=k0, chirp=a)
    p = free_process(w)
    ok = p.rho > 1e-6 * p.rho.max()
    assert np.max(np.abs((p.u - (k0 + 2.0 * a * grid.x))[ok])) < 1e-8
    assert np.allclose(p.j, p.rho * p.u)
    assert np.allclose(p.s, -p.eps - 0.5 * p.u**2)


def extract_at_floor(w: WaveField, dpsi_dt: np.ndarray, floor: float):
    """Extraction with the relative floor as a parameter, as extract_absolute
    computed it before the floor became the constant RHO_FLOOR."""
    rho = np.abs(w.psi) ** 2
    peak = rho.max()
    flagged = rho < floor * peak
    safe_rho = np.where(flagged, floor * peak, rho)
    dpsi_dx = derivative(w.psi, w.grid, 1)
    u = np.imag(np.conj(w.psi) * dpsi_dx) / safe_rho - w.a1
    eps = np.imag(np.conj(w.psi) * dpsi_dt) / safe_rho - w.a0
    u = _interpolate_flagged(u, flagged, w.grid.x)
    eps = _interpolate_flagged(eps, flagged, w.grid.x)
    return AbsoluteProcess(
        rho=rho, u=u, eps=eps, grid=w.grid, time=w.time, flagged=flagged
    )


FIELDS = ("rho", "r_amp", "u", "eps", "s", "j", "flagged")
BOTH_GRIDS = pytest.mark.parametrize(
    "g", [Grid(-20.0, 20.0, 256), Grid(-12.0, 12.0, 192, DIRICHLET)],
    ids=["periodic", "dirichlet_zero"],
)


def node_state(g: Grid) -> WaveField:
    """A packet with a cubic interior node (points near it are flagged at
    1e-6 but not at RHO_FLOOR) and tails flagged at both floors."""
    x0 = g.x[g.n // 2 + 5]
    phase = 0.7 * g.x + 0.1 * g.x**2
    psi = (g.x - x0) ** 3 * np.exp(-((g.x - 1.0) ** 2) / 4.0 + 1j * phase)
    return WaveField(psi, g, time=0.3, a0=0.05 * g.x)


@BOTH_GRIDS
def test_raise_floor_equals_extraction_at_that_floor(g):
    """Raising the floor of an extracted process gives, bit for bit, the
    extraction at the higher floor, and leaves the process unchanged."""
    w = node_state(g)
    dpsi_dt = rhs(w)
    base = extract_absolute(w, dpsi_dt)
    at_base = extract_at_floor(w, dpsi_dt, RHO_FLOOR)
    for name in FIELDS:
        assert np.array_equal(getattr(base, name), getattr(at_base, name)), name
    before = {name: getattr(base, name).copy() for name in FIELDS}
    high = 1e-6 * base.rho.max()
    newly = (base.rho < high) & ~base.flagged
    assert newly[g.n // 4 : 3 * g.n // 4].any()  # around the node
    assert base.flagged[0] and base.flagged[-1]

    raised = raise_floor(base, 1e-6)
    ref = extract_at_floor(w, dpsi_dt, 1e-6)
    for name in FIELDS:
        assert np.array_equal(getattr(raised, name), getattr(ref, name)), name
        assert np.array_equal(getattr(base, name), before[name]), name
    assert raised.time == ref.time
    same = raise_floor(base, RHO_FLOOR)
    for name in FIELDS:
        assert np.array_equal(getattr(same, name), getattr(base, name)), name
    with pytest.raises(ContractViolationError):
        raise_floor(base, 0.5 * RHO_FLOOR)


@BOTH_GRIDS
def test_process_stores_rho_u_eps_and_derives_the_rest(g):
    """An extracted or raised process stores rho, u, eps and flagged, and no
    other array; R, s and j are the expressions extraction used to store,
    bit for bit."""
    w = node_state(g)
    base = extract_absolute(w, rhs(w))
    for p in (base, raise_floor(base, 1e-6)):
        assert set(vars(p)) == {"rho", "u", "eps", "grid", "time", "flagged"}
        arrays = {k for k, v in vars(p).items() if isinstance(v, np.ndarray)}
        assert arrays == {"rho", "u", "eps", "flagged"}
        assert np.array_equal(p.r_amp, np.sqrt(p.rho))
        assert np.array_equal(p.s, -p.eps - 0.5 * p.u**2)
        assert np.array_equal(p.j, p.rho * p.u)


# ------------------------------------------------------------- transforms ---


def weighted_dev(p1, p2) -> float:
    return max(
        float(np.max(np.abs(p1.rho - p2.rho))),
        float(np.max(np.abs(p1.rho * p1.u - p2.rho * p2.u))),
        float(np.max(np.abs(p1.rho * p1.s - p2.rho * p2.s))),
    )


def test_gauge_invariance(grid, rng):
    for _ in range(5):
        w = random_mixture(rng, grid, center_scale=4.0)
        alpha = rng.normal() * np.sin(2.0 * np.pi * grid.x / grid.length)
        dalpha = rng.normal() * np.cos(2.0 * np.pi * grid.x / grid.length)
        assert weighted_dev(
            free_process(gauge_transform(w, alpha, dalpha)), free_process(w)
        ) < 1e-9


def test_potential_on_the_state_pairs_rhs_and_extraction(grid, rng):
    """rhs and extract_absolute read A0 from the same state, so a constant
    A0 on it leaves rho, rho u and rho eps unchanged."""
    w = random_mixture(rng, grid, center_scale=4.0)
    wa = replace(w, a0=np.full(grid.n, 0.7))
    p, pa = free_process(w), free_process(wa)
    assert np.array_equal(pa.rho, p.rho)
    assert np.array_equal(pa.rho * pa.u, p.rho * p.u)
    assert np.max(np.abs(pa.rho * pa.eps - p.rho * p.eps)) < 1e-12


def test_ray_phase_invariance(grid, rng):
    w = random_mixture(rng, grid, center_scale=4.0)
    wr = WaveField(np.exp(1.23j) * w.psi, grid)
    assert weighted_dev(free_process(wr), free_process(w)) < 1e-12


def test_boost_covariance(grid, rng):
    v = 0.7
    w = random_mixture(rng, grid, center_scale=4.0)
    p = free_process(w)
    pb = free_process(boost_transform(w, v))
    assert np.max(np.abs(pb.rho - p.rho)) < 1e-9
    assert np.max(np.abs(pb.rho * pb.u - p.rho * (p.u - v))) < 1e-6
    expected_eps = p.eps + v * p.u - 0.5 * v * v
    assert np.max(np.abs(pb.rho * pb.eps - p.rho * expected_eps)) < 1e-6


def test_boost_adds_frame_velocity(grid):
    w = gaussian_packet(grid)
    assert boost_transform(w, 0.4).frame_velocity == pytest.approx(0.4)


def test_gauge_then_extract_equals_plain_extract_tags(grid):
    w = gaussian_packet(grid)
    alpha = np.cos(2.0 * np.pi * grid.x / grid.length)
    wg = gauge_transform(w, alpha)
    assert np.allclose(wg.a1, derivative(alpha, grid, 1))


# ---------------------------------------------------------------- cotensor ---


def test_cotensor_boost_identity(grid, rng):
    for v in (-1.3, 0.2, 2.0):
        p = free_process(random_mixture(rng, grid, center_scale=4.0))
        assert cotensor_boost_check(p, v) < 1e-12


# ----------------------------------------------------------- geometry ------


def test_overlap_properties(grid, rng):
    w1 = random_mixture(rng, grid, center_scale=4.0)
    w2 = random_mixture(rng, grid, center_scale=4.0)
    s = overlap_magnitude(w1, w2)
    assert 0.0 <= s <= 1.0
    assert overlap_magnitude(w2, w1) == pytest.approx(s, abs=1e-13)
    # invariant under global phase and gauge of either argument
    w1p = WaveField(np.exp(0.7j) * w1.psi, grid)
    assert overlap_magnitude(w1p, w2) == pytest.approx(s, abs=1e-12)
    assert overlap_magnitude(w1, w1) == pytest.approx(1.0, abs=1e-12)


def test_process_distance_range_and_identity(grid, rng):
    w1 = random_mixture(rng, grid, center_scale=4.0)
    w2 = random_mixture(rng, grid, center_scale=4.0)
    d = process_distance(w1, w2)
    assert 0.0 <= d <= 0.5 * np.pi
    assert process_distance(w1, w1) == pytest.approx(0.0, abs=1e-6)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_triangle_inequality(seed):
    g = Grid(-20.0, 20.0, 128)
    r = np.random.default_rng(seed)
    wa = random_mixture(r, g, center_scale=4.0)
    wb = random_mixture(r, g, center_scale=4.0)
    wc = random_mixture(r, g, center_scale=4.0)
    assert (
        process_distance(wa, wb) + process_distance(wb, wc)
        - process_distance(wa, wc) >= -1e-12
    )


def test_geodesic_length_matches_arccos_overlap(grid, rng):
    w1 = random_mixture(rng, grid, center_scale=4.0)
    w2 = WaveField(w1.psi + 0.4 * random_mixture(rng, grid, center_scale=4.0).psi,
                   grid).normalized()
    l_geo = geodesic_length(w1, w2, n_steps=512)
    assert abs(l_geo - np.arccos(overlap_magnitude(w1, w2))) < 1e-4


def test_chart_coordinate_orthogonal_and_phase_free(grid, rng):
    w1 = random_mixture(rng, grid, center_scale=4.0)
    w2 = WaveField(w1.psi + 0.4 * random_mixture(rng, grid, center_scale=4.0).psi,
                   grid).normalized()
    phi = chart_coordinate(w1, w2)
    assert abs(integrate(np.conj(w1.psi) * phi, grid)) < 1e-10
    phi2 = chart_coordinate(w1, WaveField(np.exp(0.9j) * w2.psi, grid))
    assert np.max(np.abs(phi2 - phi)) < 1e-10


def test_chart_undefined_for_orthogonal_states():
    g = Grid(-np.pi, np.pi, 128)
    with pytest.raises(ChartDomainError):
        chart_coordinate(plane_wave(g, 1.0), plane_wave(g, 2.0))


def test_pair_checks():
    g1 = Grid(-10.0, 10.0, 128)
    g2 = Grid(-10.0, 10.0, 256)
    with pytest.raises(GridMismatchError):
        overlap_magnitude(gaussian_packet(g1), gaussian_packet(g2))
    w = gaussian_packet(g1)
    with pytest.raises(ContractViolationError):
        overlap_magnitude(w, WaveField(2.0 * w.psi, g1))
    with pytest.raises(ContractViolationError):
        overlap_magnitude(w, gaussian_packet(g1, time=1.0))
