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
from absqm.schrodinger import free_processes, rhs
from absqm.states import gaussian_packet, plane_wave, random_mixtures
from absqm.wavefield import (
    RHO_FLOOR,
    AbsoluteProcess,
    WaveField,
    _interpolate_flagged,
    _overlaps,
    boost_transform,
    chart_coordinate,
    cotensor_boost_check,
    extract_block,
    gauge_transform,
    geodesic_length,
    polar_decompose,
    process_distances,
    raise_floor,
)


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
    p = free_processes([w])[0]
    ok = p.rho > 1e-6 * p.rho.max()
    assert np.max(np.abs((p.u - (k0 + 2.0 * a * grid.x))[ok])) < 1e-8
    assert np.allclose(p.j, p.rho * p.u)
    assert np.allclose(p.s, -p.eps - 0.5 * p.u**2)


def extract_at_floor(w: WaveField, dpsi_dt: np.ndarray, floor: float):
    """Extraction of one state with the relative floor as a parameter, as it
    was computed before the floor became the constant RHO_FLOOR."""
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
    base = extract_block([w], [dpsi_dt])[1][0]
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
    base = free_processes([w])[0]
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
        w = random_mixtures(rng, grid, 1, center_scale=4.0)[0]
        alpha = rng.normal() * np.sin(2.0 * np.pi * grid.x / grid.length)
        dalpha = rng.normal() * np.cos(2.0 * np.pi * grid.x / grid.length)
        pg, = free_processes([gauge_transform(w, alpha, dalpha)])
        assert weighted_dev(pg, free_processes([w])[0]) < 1e-9


def test_potential_on_the_state_pairs_rhs_and_extraction(grid, rng):
    """rhs and extract_block read A0 from the same state, so a constant A0
    on it leaves rho, rho u and rho eps unchanged."""
    w, = random_mixtures(rng, grid, 1, center_scale=4.0)
    wa = replace(w, a0=np.full(grid.n, 0.7))
    p, pa = free_processes([w])[0], free_processes([wa])[0]
    assert np.array_equal(pa.rho, p.rho)
    assert np.array_equal(pa.rho * pa.u, p.rho * p.u)
    assert np.max(np.abs(pa.rho * pa.eps - p.rho * p.eps)) < 1e-12


def test_ray_phase_invariance(grid, rng):
    w, = random_mixtures(rng, grid, 1, center_scale=4.0)
    wr = WaveField(np.exp(1.23j) * w.psi, grid)
    p, pr = free_processes([w, wr])
    assert weighted_dev(pr, p) < 1e-12


def test_boost_covariance(grid, rng):
    v = 0.7
    w, = random_mixtures(rng, grid, 1, center_scale=4.0)
    p, = free_processes([w])
    pb, = free_processes([boost_transform(w, v)])
    assert np.max(np.abs(pb.rho - p.rho)) < 1e-9
    assert np.max(np.abs(pb.rho * pb.u - p.rho * (p.u - v))) < 1e-6
    expected_eps = p.eps + v * p.u - 0.5 * v * v
    assert np.max(np.abs(pb.rho * pb.eps - p.rho * expected_eps)) < 1e-6


def test_boost_adds_frame_velocity(grid):
    w = gaussian_packet(grid)
    assert boost_transform(w, 0.4).frame_velocity == pytest.approx(0.4)


def test_boost_refuses_a_grid_with_walls(dirichlet_grid):
    """A boost shifts the state by v t, which does not map a box with fixed
    walls onto itself: refused, even at t = 0."""
    for time in (0.0, 1.0):
        w = gaussian_packet(dirichlet_grid, time=time)
        with pytest.raises(ContractViolationError, match="periodic"):
            boost_transform(w, 0.4)


def test_gauge_then_extract_equals_plain_extract_tags(grid):
    w = gaussian_packet(grid)
    alpha = np.cos(2.0 * np.pi * grid.x / grid.length)
    wg = gauge_transform(w, alpha)
    assert np.allclose(wg.a1, derivative(alpha, grid, 1))


# ---------------------------------------------------------------- cotensor ---


def test_cotensor_boost_identity(grid, rng):
    for v in (-1.3, 0.2, 2.0):
        p, = free_processes(random_mixtures(rng, grid, 1, center_scale=4.0))
        assert cotensor_boost_check(p, v) < 1e-12


# ----------------------------------------------------------- geometry ------


def test_overlap_properties(grid, rng):
    """s_a = |<psi1, psi2>| of the pairs (w1, w2), (w2, w1), (e^{0.7i} w1, w2)
    and (w1, w1), as the rows of one block."""
    w1, w2 = random_mixtures(rng, grid, 2, center_scale=4.0)
    w1p = WaveField(np.exp(0.7j) * w1.psi, grid)
    s, s21, s1p2, s11 = _overlaps([w1, w2, w1p, w1], [w2, w1, w2, w1])
    assert 0.0 <= s <= 1.0
    assert s21 == pytest.approx(s, abs=1e-13)
    # invariant under global phase and gauge of either argument
    assert s1p2 == pytest.approx(s, abs=1e-12)
    assert s11 == pytest.approx(1.0, abs=1e-12)


def test_process_distance_range_and_identity(grid, rng):
    w1, w2 = random_mixtures(rng, grid, 2, center_scale=4.0)
    d, d11 = process_distances([w1, w1], [w2, w1])
    assert 0.0 <= d <= 0.5 * np.pi
    assert d11 == pytest.approx(0.0, abs=1e-6)


def test_process_distances_equal_single_pairs(rng):
    """Row-wise distances of a block of m pairs equal those of the m blocks
    of one pair and the arccos of Python's abs of the pair's inner product,
    bit for bit, and keep the pair checks."""
    for g in (Grid(-20.0, 20.0, 256), Grid(-20.0, 20.0, 97, DIRICHLET)):
        b1 = random_mixtures(rng, g, 9, center_scale=4.0)
        b2 = random_mixtures(rng, g, 9, center_scale=4.0)
        got = process_distances(b1, b2)
        assert got.shape == (9,)
        for d, w1, w2 in zip(got, b1, b2):
            assert d == process_distances([w1], [w2])[0]
            s = min(abs(complex(integrate(np.conj(w1.psi) * w2.psi, g))), 1.0)
            assert d == float(np.arccos(np.clip(s, 0.0, 1.0)))
    with pytest.raises(ContractViolationError):
        process_distances(b1, b2[:-1])
    with pytest.raises(ContractViolationError):
        process_distances(b1, b2[:-1] + [WaveField(2.0 * b2[-1].psi, g)])
    with pytest.raises(ContractViolationError):
        process_distances(b1, b2[:-1] + [replace(b2[-1], time=1.0)])
    with pytest.raises(GridMismatchError):
        process_distances(b1, b2[:-1] + [gaussian_packet(Grid(-20.0, 20.0, 97))])


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_triangle_inequality(seed):
    g = Grid(-20.0, 20.0, 128)
    wa, wb, wc = random_mixtures(np.random.default_rng(seed), g, 3,
                                 center_scale=4.0)
    ab, bc, ac = process_distances([wa, wb, wa], [wb, wc, wc])
    assert ab + bc - ac >= -1e-12


def test_geodesic_length_matches_arccos_overlap(grid, rng):
    w1, w2 = random_mixtures(rng, grid, 2, center_scale=4.0)
    w2 = WaveField(w1.psi + 0.4 * w2.psi, grid).normalized()
    l_geo = geodesic_length(w1, w2, n_steps=512)
    assert abs(l_geo - process_distances([w1], [w2])[0]) < 1e-4


def test_chart_coordinate_orthogonal_and_phase_free(grid, rng):
    w1, w2 = random_mixtures(rng, grid, 2, center_scale=4.0)
    w2 = WaveField(w1.psi + 0.4 * w2.psi, grid).normalized()
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
        process_distances([gaussian_packet(g1)], [gaussian_packet(g2)])
    w = gaussian_packet(g1)
    with pytest.raises(ContractViolationError):
        process_distances([w], [WaveField(2.0 * w.psi, g1)])
    with pytest.raises(ContractViolationError):
        process_distances([w], [gaussian_packet(g1, time=1.0)])


def _scalar_draw_mixture(rng, grid, n_components, center_scale):
    """One state of `random_mixtures` drawing its six numbers per component
    one by one."""
    mid = 0.5 * (grid.x_min + grid.x_max)
    psi = np.zeros(grid.n, dtype=complex)
    for _ in range(n_components):
        c = mid + rng.uniform(-center_scale, center_scale)
        sigma = rng.uniform(0.5, 2.0)
        k = rng.uniform(-2.0, 2.0)
        chirp = rng.uniform(-0.3, 0.3)
        amp = rng.normal() + 1j * rng.normal()
        x = grid.x - c
        psi += amp * np.exp(-(x**2) / (4.0 * sigma**2) + 1j * (k * x + chirp * x**2))
    return WaveField(psi, grid).normalized()


@pytest.mark.parametrize("center_scale", [None, 4.0])
def test_random_mixture_equals_scalar_draws(center_scale):
    """The array draws give the scalar draws' values bit for bit and leave
    the generator in the same state, for blocks of m states, which equal m
    blocks of one row for row (also on a grid whose rows do not fill whole
    vector registers)."""
    for g in (Grid(-15.0, 25.0, 256), Grid(-15.0, 25.0, 97)):
        scale = 0.25 * g.length if center_scale is None else center_scale
        for seed in range(20):
            for n_components in (1, 3):
                for m in (1, 3, 8):
                    rng = np.random.default_rng(seed)
                    ref_rng = np.random.default_rng(seed)
                    one_rng = np.random.default_rng(seed)
                    block = random_mixtures(rng, g, m, n_components, center_scale)
                    assert len(block) == m
                    for w in block:
                        ref = _scalar_draw_mixture(ref_rng, g, n_components, scale)
                        one, = random_mixtures(one_rng, g, 1, n_components,
                                               center_scale)
                        assert np.array_equal(w.psi, ref.psi)
                        assert np.array_equal(w.psi, one.psi)
                    assert rng.random() == ref_rng.random() == one_rng.random()


@pytest.mark.parametrize("center_scale", [-4.0, np.inf, np.nan])
def test_random_mixture_refuses_bad_center_scale(center_scale):
    with pytest.raises(ValueError, match="center_scale"):
        random_mixtures(np.random.default_rng(0), Grid(-20.0, 20.0, 64), 1,
                        center_scale=center_scale)


def test_tails_are_filled_by_polyfit_lines(rng):
    """Extraction fills each flagged tail of u and eps with
    `np.polyfit`'s line through the 8 outermost valid points, bit for bit,
    on the tails of random states."""
    g = Grid(-20.0, 20.0, 256)
    tails = 0
    for p in free_processes(random_mixtures(rng, g, 6, center_scale=4.0)):
        xv = g.x[~p.flagged]
        m = min(8, xv.size)
        for values in (p.u, p.eps):
            yv = values[~p.flagged]
            tails_of = ((slice(0, m), g.x < xv[0]), (slice(-m, None), g.x > xv[-1]))
            for fit, at in tails_of:
                if at.any():
                    tails += 1
                    assert np.array_equal(
                        values[at],
                        np.polyval(np.polyfit(xv[fit], yv[fit], 1), g.x[at]))
    assert tails >= 12
