"""Polar decomposition, extraction, transforms, geometry."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import absqm.wavefield
from absqm.dissipative import DissipativeState, step_absolute, step_quasiwave
from absqm.errors import (
    ChartDomainError,
    ContractViolationError,
    DegenerateInputError,
    GridMismatchError,
)
from absqm.kleingordon import from_envelope, kg_evolve, kg_step, nr_limit_compare
from absqm.numerics import DIRICHLET, Grid, derivative, integrate
from absqm.schrodinger import evolve, free_processes, rhs
from absqm.states import gaussian_packet, random_mixtures
from absqm.wavefield import (
    RHO_FLOOR,
    AbsoluteProcess,
    WaveField,
    _fill_flagged,
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


# ------------------------------------------------------------------ field ---


def test_normalized_scales_psi_only(grid):
    """`normalized` gives a new field whose psi is psi/sqrt(|psi|^2) bit for
    bit, with the original's a0, a1 (the same arrays), time and frame
    velocity; the original is unchanged, and a zero field is refused."""
    w = WaveField(3.0 * gaussian_packet(grid).psi, grid, time=0.5,
                  a0=0.1 * grid.x, frame_velocity=0.2)
    psi = w.psi.copy()
    v = w.normalized()
    assert np.array_equal(v.psi, psi / np.sqrt(w.norm_sq()))
    assert abs(v.norm_sq() - 1.0) < 1e-14
    assert v.a0 is w.a0 and v.a1 is w.a1 and v.grid is w.grid
    assert (v.time, v.frame_velocity) == (0.5, 0.2)
    assert np.array_equal(w.psi, psi)
    with pytest.raises(DegenerateInputError, match="zero field"):
        WaveField(np.zeros(grid.n, dtype=complex), grid).normalized()


def test_block_rows_are_views_built_without_checks(grid, rng, monkeypatch):
    """A stack holds one time per row, and a field is a block of one:
    `block[i]` is row i as a view with its time as a float, a slice is a
    block, and neither runs a check again; a process block whose fields
    differ in shape is refused."""
    w = replace(random_mixtures(rng, grid, 3), time=[0.0, 0.5, 1.0])
    assert np.array_equal(w.norm_sq(), [w[i].norm_sq() for i in range(3)])
    calls = []
    monkeypatch.setattr(absqm.wavefield, "check_field",
                        lambda *args, **kwargs: calls.append(args))
    row, tail = w[1], w[1:]
    assert row.psi.shape == (grid.n,) and np.shares_memory(row.psi, w.psi)
    assert type(row.time) is float and row.time == 0.5
    assert row.a0 is w.a0 and row.a1 is w.a1
    assert len(row) == 1 and np.array_equal(row[0].psi, row.psi)
    assert len(tail) == 2 and np.array_equal(tail.time, [0.5, 1.0])
    assert [v.time for v in w] == [0.0, 0.5, 1.0]
    with pytest.raises(IndexError):
        w[3]
    assert calls == []
    monkeypatch.undo()
    p = free_processes(w)
    assert p.rho.shape == (3, grid.n) and np.array_equal(p.time, w.time)
    assert np.shares_memory(p[2].flagged, p.flagged)
    with pytest.raises(GridMismatchError):
        AbsoluteProcess(p.rho, p.u[:2], p.eps, grid)


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
    p = free_processes(w)
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
    u, eps = _fill_flagged([u, eps], flagged, w.grid.x)
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
    base = extract_block(w, dpsi_dt)[1]
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
    base = free_processes(w)
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
        pg = free_processes(gauge_transform(w, alpha, dalpha))
        assert weighted_dev(pg, free_processes(w)) < 1e-9


def test_potential_on_the_state_pairs_rhs_and_extraction(grid, rng):
    """rhs and extract_block read A0 from the same state, so a constant A0
    on it leaves rho, rho u and rho eps unchanged."""
    w, = random_mixtures(rng, grid, 1, center_scale=4.0)
    wa = replace(w, a0=np.full(grid.n, 0.7))
    p, pa = free_processes(w), free_processes(wa)
    assert np.array_equal(pa.rho, p.rho)
    assert np.array_equal(pa.rho * pa.u, p.rho * p.u)
    assert np.max(np.abs(pa.rho * pa.eps - p.rho * p.eps)) < 1e-12


def test_ray_phase_invariance(grid, rng):
    w = random_mixtures(rng, grid, 1, center_scale=4.0)
    p, pr = free_processes(WaveField(np.exp([[0.0], [1.23j]]) * w.psi, grid))
    assert weighted_dev(pr, p) < 1e-12


def test_boost_covariance(grid, rng):
    v = 0.7
    w, = random_mixtures(rng, grid, 1, center_scale=4.0)
    p = free_processes(w)
    pb = free_processes(boost_transform(w, v))
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
        w = replace(gaussian_packet(dirichlet_grid), time=time)
        with pytest.raises(ContractViolationError,
                           match="^a boost needs a periodic grid, not dirichlet_zero$"):
            boost_transform(w, 0.4)


def _damped(b):
    return DissipativeState(np.abs(b.psi) ** 2, b.psi.real, b.grid, b.time)


def _kg(b):
    return from_envelope(b, 1.0)


# each block class, built from a wave block
_MAKERS = {"wave": lambda b: b, "process": free_processes, "damped": _damped,
           "kg": _kg}


def _edited(make, **edits):
    """A call that rebuilds the block make(b) with each field of `edits`
    replaced by that edit of the block."""
    def call(b):
        block = make(b)
        return replace(block, **{name: edit(block) for name, edit in edits.items()})
    return call


_ONE = (ContractViolationError, "one state, not a block")


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda b: boost_transform(b, 0.4), *_ONE, id="boost"),
    pytest.param(polar_decompose, *_ONE, id="polar"),
    pytest.param(lambda b: step_quasiwave(b, 0.01), *_ONE, id="quasiwave"),
    pytest.param(lambda b: chart_coordinate(b[0], b), *_ONE, id="chart-of-block"),
    pytest.param(lambda b: chart_coordinate(b, b), *_ONE, id="chart-from-block"),
    pytest.param(lambda b: geodesic_length(b[0], b), *_ONE, id="geodesic"),
    pytest.param(lambda b: evolve(b, 0.01, 0.1), *_ONE, id="evolve"),
    pytest.param(lambda b: step_absolute(_damped(b), 1e-4), *_ONE, id="step_absolute"),
    pytest.param(lambda b: kg_step(_kg(b), 1e-3), *_ONE, id="kg_step"),
    pytest.param(lambda b: kg_evolve(_kg(b), 1e-3, 1e-2), *_ONE, id="kg_evolve"),
    pytest.param(lambda b: nr_limit_compare(b, [5.0, 10.0]), *_ONE, id="nr_limit"),
    pytest.param(_edited(lambda b: b, a0=lambda w: w.psi.real), GridMismatchError,
                 "field of shape", id="wave-a0-shape"),
    pytest.param(_edited(free_processes, u=lambda p: p.u[0]), GridMismatchError,
                 "one shape", id="process-u-shape"),
    pytest.param(_edited(_damped, j=lambda s: s.j[0]), GridMismatchError,
                 "one shape", id="damped-j-shape"),
    pytest.param(_edited(_kg, dpsi_dt=lambda f: f.dpsi_dt[0]), GridMismatchError,
                 "one shape", id="kg-dpsi_dt-shape"),
    pytest.param(_edited(free_processes, flagged=lambda p: np.ones(3, bool)),
                 GridMismatchError, "one shape", id="process-flagged-3"),
    pytest.param(_edited(free_processes, flagged=lambda p: p.flagged[0]),
                 GridMismatchError, "one shape", id="process-flagged-row"),
    pytest.param(_edited(free_processes, flagged=lambda p: p.flagged * 1.0),
                 ContractViolationError, "float64, not bool", id="process-flagged-float"),
    pytest.param(_edited(free_processes, rho=lambda p: p.rho - 1e-9),
                 ContractViolationError, "rho must be nonnegative",
                 id="process-negative-rho"),
    *(pytest.param(_edited(make, time=lambda x: np.zeros(len(x) + 1)),
                   ContractViolationError, "one finite time per row",
                   id=f"{kind}-time-length")
      for kind, make in _MAKERS.items()),
    *(pytest.param(_edited(make, time=lambda x, t=t: t), ContractViolationError,
                   f"time {t} is not one finite time", id=f"{kind}-time-{t}")
      for kind, make in _MAKERS.items() for t in (np.nan, np.inf)),
])
@pytest.mark.parametrize("rows", [1, 3, 256])
def test_one_state_functions_refuse_a_block(grid, rng, call, error, message, rows):
    """A block is refused by name where one state is taken, not broadcast
    into a wrong answer (a boost of 256 rows on n = 256), an IndexError (the
    unwrap anchor of polar_decompose) or a TypeError from complex().  And
    every block class refuses, by name, the fields, `flagged` mask and times
    that break the block contract: met later, a mask of another shape is an
    IndexError and a float one a TypeError, a time per row of the wrong
    length numpy's unnamed broadcast error, and a non-finite time is kept."""
    block = random_mixtures(rng, grid, rows)
    with pytest.raises(error, match=message):
        call(block)


def test_gauge_then_extract_equals_plain_extract_tags(grid):
    w = gaussian_packet(grid)
    alpha = np.cos(2.0 * np.pi * grid.x / grid.length)
    wg = gauge_transform(w, alpha)
    assert np.allclose(wg.a1, derivative(alpha, grid, 1))


# ---------------------------------------------------------------- cotensor ---


def test_cotensor_boost_identity(grid, rng):
    for v in (-1.3, 0.2, 2.0):
        p = free_processes(random_mixtures(rng, grid, 1, center_scale=4.0)[0])
        assert cotensor_boost_check(p, v) < 1e-12


# ----------------------------------------------------------- geometry ------


def test_overlap_properties(grid, rng):
    """s_a = |<psi1, psi2>| of the pairs (w1, w2), (w2, w1), (e^{0.7i} w1, w2)
    and (w1, w1), as the rows of one block."""
    w1, w2 = random_mixtures(rng, grid, 2, center_scale=4.0)
    w1p = np.exp(0.7j) * w1.psi
    s, s21, s1p2, s11 = _overlaps(
        WaveField(np.array([w1.psi, w2.psi, w1p, w1.psi]), grid),
        WaveField(np.array([w2.psi, w1.psi, w2.psi, w1.psi]), grid))
    assert 0.0 <= s <= 1.0
    assert s21 == pytest.approx(s, abs=1e-13)
    # invariant under global phase and gauge of either argument
    assert s1p2 == pytest.approx(s, abs=1e-12)
    assert s11 == pytest.approx(1.0, abs=1e-12)


def test_process_distance_range_and_identity(grid, rng):
    ws = random_mixtures(rng, grid, 2, center_scale=4.0)
    d, d11 = process_distances(ws[[0, 0]], ws[[1, 0]])
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
            assert d == process_distances(w1, w2)
            s = min(abs(complex(integrate(np.conj(w1.psi) * w2.psi, g))), 1.0)
            assert d == float(np.arccos(np.clip(s, 0.0, 1.0)))
    last = np.arange(9) == 8
    with pytest.raises(ContractViolationError):
        process_distances(b1, b2[:-1])
    with pytest.raises(ContractViolationError):
        process_distances(b1, replace(b2, psi=np.where(last[:, None], 2.0, 1.0) * b2.psi))
    with pytest.raises(ContractViolationError):
        process_distances(b1, replace(b2, time=np.where(last, 1.0, 0.0)))
    with pytest.raises(GridMismatchError):
        process_distances(b1, replace(b2, grid=Grid(-20.0, 20.0, 97)))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_triangle_inequality(seed):
    g = Grid(-20.0, 20.0, 128)
    ws = random_mixtures(np.random.default_rng(seed), g, 3, center_scale=4.0)
    ab, bc, ac = process_distances(ws[[0, 1, 0]], ws[[1, 2, 2]])
    assert ab + bc - ac >= -1e-12


def test_geodesic_length_matches_arccos_overlap(grid, rng):
    w1, w2 = random_mixtures(rng, grid, 2, center_scale=4.0)
    w2 = WaveField(w1.psi + 0.4 * w2.psi, grid).normalized()
    l_geo = geodesic_length(w1, w2, n_steps=512)
    assert abs(l_geo - process_distances(w1, w2)) < 1e-4
    with pytest.raises(ValueError, match="n_steps must be positive"):
        geodesic_length(w1, w2, n_steps=0)


def test_geodesic_length_checks_do_not_grow_with_its_steps(grid, rng, monkeypatch):
    """The integrand is a closed form of t on the straight chart curve: the
    trapezoid nodes run no integral and no field check of their own."""
    w1, w2 = random_mixtures(rng, grid, 2, center_scale=4.0)
    w2 = WaveField(w1.psi + 0.4 * w2.psi, grid).normalized()
    check = absqm.numerics.check_field
    calls = []

    def counting_check(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    for module in (absqm.numerics, absqm.wavefield):
        monkeypatch.setattr(module, "check_field", counting_check)
    counts = []
    for n_steps in (8, 512):
        calls.clear()
        geodesic_length(w1, w2, n_steps=n_steps)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_chart_coordinate_orthogonal_and_phase_free(grid, rng):
    w1, w2 = random_mixtures(rng, grid, 2, center_scale=4.0)
    w2 = WaveField(w1.psi + 0.4 * w2.psi, grid).normalized()
    phi = chart_coordinate(w1, w2)
    assert abs(integrate(np.conj(w1.psi) * phi, grid)) < 1e-10
    phi2 = chart_coordinate(w1, WaveField(np.exp(0.9j) * w2.psi, grid))
    assert np.max(np.abs(phi2 - phi)) < 1e-10


def test_chart_undefined_for_orthogonal_states():
    g = Grid(-np.pi, np.pi, 128)
    w1, w2 = (WaveField(np.exp(1j * k * g.x), g).normalized() for k in (1.0, 2.0))
    with pytest.raises(ChartDomainError):
        chart_coordinate(w1, w2)


def test_pair_checks():
    g1 = Grid(-10.0, 10.0, 128)
    g2 = Grid(-10.0, 10.0, 256)
    with pytest.raises(GridMismatchError):
        process_distances(gaussian_packet(g1), gaussian_packet(g2))
    w = gaussian_packet(g1)
    with pytest.raises(ContractViolationError):
        process_distances(w, WaveField(2.0 * w.psi, g1))
    with pytest.raises(ContractViolationError):
        process_distances(w, replace(w, time=1.0))


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


def tail_line(xv, yv, at):
    """The least-squares line through the points (xv, yv), at the points
    `at`, from its mean-centred closed form with each sum over a window of
    8 (zero-padded) taken pairwise: the fill's arithmetic, one float at a
    time."""
    def tree_sum(v):
        a = list(v) + [0.0] * (8 - len(v))
        return ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]))

    xm, ym = tree_sum(xv) / len(xv), tree_sum(yv) / len(yv)
    dx = [xi - xm for xi in xv]
    sxx = tree_sum([d * d for d in dx])
    slope = tree_sum([d * (yi - ym) for d, yi in zip(dx, yv)]) / (sxx or 1.0)
    return np.array([ym + slope * (xi - xm) for xi in at])


def tails_of(flagged, x):
    """Each tail of a row: (the window of its fit, the points it fills)."""
    xv = x[~flagged]
    m = min(8, xv.size)
    return (slice(0, m), x < xv[0]), (slice(xv.size - m, None), x > xv[-1])


def test_tails_are_filled_by_closed_form_lines(rng):
    """Extraction fills each flagged tail of u and eps with the closed-form
    least-squares line through the 8 outermost valid points, bit for bit,
    on the tails of random states; it agrees with `np.polyfit`'s line to
    1e-12 of the field's largest magnitude."""
    g = Grid(-20.0, 20.0, 256)
    tails = 0
    for p in free_processes(random_mixtures(rng, g, 6, center_scale=4.0)):
        xv = g.x[~p.flagged]
        for values in (p.u, p.eps):
            yv = values[~p.flagged]
            for fit, at in tails_of(p.flagged, g.x):
                if at.any():
                    tails += 1
                    line = tail_line(xv[fit], yv[fit], g.x[at])
                    assert np.array_equal(values[at], line)
                    polyfit = np.polyval(np.polyfit(xv[fit], yv[fit], 1), g.x[at])
                    scale = np.max(np.abs(values))
                    assert np.max(np.abs(line - polyfit)) <= 1e-12 * scale
    assert tails >= 12


def random_masks(rng, n: int) -> np.ndarray:
    """One row of each kind of mask the fill meets: no flagged point, no
    valid point, one valid point, 2-7 valid points, flagged tails with
    holes inside the 8 outermost valid points, and random scatter."""
    idx = np.arange(n)
    rows = [np.zeros(n, bool), np.ones(n, bool), idx != rng.integers(n)]
    for k in range(2, 8):
        row = np.ones(n, bool)
        row[rng.choice(n, k, replace=False)] = False
        rows.append(row)
    lo, hi = sorted(rng.choice(np.arange(20, n - 20), 2, replace=False))
    holes = (idx < lo) | (idx > hi)
    holes[rng.choice(np.r_[lo:lo + 12, hi - 12:hi], 6)] = True
    rows.append(holes)
    rows.append(rng.random(n) < rng.uniform(0.1, 0.9))
    return np.array(rows)


def test_fill_of_random_masks(rng):
    """On random masks of every kind, each row of the fill of a block of
    two fields: leaves its valid points as they are (a row with no valid
    point too), equals np.interp bit for bit at the flagged points between
    valid ones and in the tails of a row with one valid point, takes the
    tail line of its 8 outermost valid points (fewer when it has fewer)
    elsewhere, and equals that row filled alone.  No flagged value is read:
    NaN there leaves the fill finite, and other garbage leaves it equal.
    With nothing to fill, the fields come back as given."""
    x = Grid(-20.0, 20.0, 96).x
    fields = rng.normal(size=(2, 3, x.size))
    for nothing in (np.zeros(fields.shape[1:], bool), np.ones(fields.shape[1:], bool)):
        assert _fill_flagged(fields, nothing, x) is fields
    for _ in range(30):
        flagged = rng.permutation(random_masks(rng, x.size))
        fields = rng.normal(size=(2, *flagged.shape)) * 10.0 ** rng.uniform(-3, 3)
        fields[:, flagged] = np.nan
        filled = _fill_flagged(fields, flagged, x)
        garbage = np.where(flagged, rng.normal(size=flagged.shape) * 1e300, fields)
        some = ~flagged.all(axis=1)
        assert np.array_equal(_fill_flagged(garbage, flagged, x)[:, some],
                              filled[:, some])
        for r, bad in enumerate(flagged):
            alone = _fill_flagged(fields[:, r], bad, x)
            assert np.array_equal(alone, filled[:, r], equal_nan=True)
            if bad.all():
                assert np.isnan(filled[:, r]).all()
                continue
            assert np.isfinite(filled[:, r]).all()
            xv = x[~bad]
            inside = bad & (x > xv[0]) & (x < xv[-1])
            for values, row in zip(filled[:, r], fields[:, r]):
                yv = row[~bad]
                assert np.array_equal(values[~bad], yv)
                assert np.array_equal(values[inside],
                                      np.interp(x[inside], xv, yv))
                for fit, at in tails_of(bad, x):
                    if xv.size == 1:
                        assert np.array_equal(values[at], np.interp(x[at], xv, yv))
                    elif at.any():
                        assert np.array_equal(values[at],
                                              tail_line(xv[fit], yv[fit], x[at]))
