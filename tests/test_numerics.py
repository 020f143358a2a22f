"""Grids, derivatives, quadrature, antiderivative; the library Bessel
functions against oracles of their own."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from absqm.aharonov_bohm import _window_order
from absqm.dissipative import DissipativeRunConfig, gaussian_state, run, step_absolute
from absqm.errors import ContractViolationError, GridMismatchError
from absqm.kleingordon import from_envelope, kg_evolve, kg_step
from absqm.numerics import (
    DIRICHLET,
    Grid,
    _pocketfft,
    _scipy_extension,
    antiderivative_periodic,
    centered,
    cfft,
    check_field,
    derivative,
    fourier_multiply,
    icfft,
    integrate,
    irfft,
    rfft,
    uniform_spacing,
    whole_steps,
)
from absqm.schrodinger import evolve
from absqm.states import gaussian_packet


# ------------------------------------------------------------------ grids ---


def test_grid_midpoint_sampling_is_symmetric():
    g = Grid(-5.0, 5.0, 64)
    assert np.allclose(g.x, -g.x[::-1], atol=0.0)
    assert g.dx == pytest.approx(10.0 / 64)
    assert g.length == pytest.approx(10.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1.0, 0.0, 64)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 64, boundary="reflecting")
    assert Grid(0.0, 1.0, np.int64(64)).x.shape == (64,)


def _damped_state():
    return gaussian_state(Grid(-20.0, 20.0, 256))


def _packet():
    return gaussian_packet(Grid(-20.0, 20.0, 256))


def _kg_field():
    return from_envelope(_packet(), c=1.0)


_BAD_DT = "must be positive and finite"


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: whole_steps(1.0, np.inf), ContractViolationError,
                 f"dt=inf {_BAD_DT}", id="whole_steps-dt-inf"),
    pytest.param(lambda: whole_steps(np.inf, 0.1), ContractViolationError,
                 "span inf must be finite", id="whole_steps-span-inf"),
    pytest.param(lambda: whole_steps(np.nan, 0.1), ContractViolationError,
                 "span nan must be finite", id="whole_steps-span-nan"),
    pytest.param(lambda: kg_evolve(_kg_field(), dt=np.inf, t_final=1.0),
                 ContractViolationError, f"dt=inf {_BAD_DT}", id="kg_evolve-dt-inf"),
    pytest.param(lambda: kg_evolve(_kg_field(), dt=0.01, t_final=-0.5),
                 ContractViolationError, "span -0.5 must be nonnegative",
                 id="kg_evolve-t_final-negative"),
    pytest.param(lambda: evolve(_packet(), dt=np.inf, t_final=1.0),
                 ContractViolationError, f"dt=inf {_BAD_DT}", id="evolve-dt-inf"),
    pytest.param(lambda: evolve(_packet(), dt=0.01, t_final=np.inf),
                 ContractViolationError, "span inf must be finite",
                 id="evolve-t_final-inf"),
    pytest.param(lambda: evolve(_packet(), dt=0.01, t_final=-0.5),
                 ContractViolationError, "span -0.5 must be nonnegative",
                 id="evolve-t_final-negative"),
    pytest.param(lambda: run(DissipativeRunConfig(t_final=np.inf)),
                 ContractViolationError, "span inf must be finite",
                 id="dissipative_run-t_final-inf"),
    *(pytest.param(lambda dt=dt: step_absolute(_damped_state(), dt),
                   ContractViolationError,
                   f"dt={dt!r} {_BAD_DT}", id=f"step_absolute-dt-{dt}")
      for dt in (-1e-4, 0.0, np.nan, np.inf)),
    *(pytest.param(lambda dt=dt: kg_step(_kg_field(), dt),
                   ContractViolationError,
                   f"dt={dt!r} {_BAD_DT}", id=f"kg_step-dt-{dt}")
      for dt in (-1e-3, 0.0, np.nan, np.inf)),
    *(pytest.param(lambda b=bounds: Grid(*b, 64), ValueError,
                   f"{name}={value!r} must be finite", id=f"grid-{name}-{value}")
      for bounds, name, value in (((-20.0, np.nan), "x_max", np.nan),
                                  ((-20.0, np.inf), "x_max", np.inf),
                                  ((np.nan, 20.0), "x_min", np.nan),
                                  ((-np.inf, 20.0), "x_min", -np.inf))),
    pytest.param(lambda: Grid(-10.0, 10.0, 100.5), ValueError,
                 "n=100.5 must be an integer", id="grid-n-100.5"),
])
def test_non_finite_steps_spans_and_bounds_are_refused(call, error, message):
    """A step that is not positive and finite, a non-finite or negative span,
    a non-finite grid bound and a point count that is not an integer are
    refused by name where they enter, not run, returned as zero steps, met
    later as a non-finite field or misreported as an off-grid span."""
    with pytest.raises(error, match=message):
        call()


def test_check_field_shape_and_finiteness():
    g = Grid(0.0, 1.0, 16)
    with pytest.raises(GridMismatchError):
        check_field(np.zeros(8), g)
    bad = np.zeros(16)
    bad[3] = np.nan
    with pytest.raises(GridMismatchError):
        check_field(bad, g)


# ------------------------------------------------------- differentiation ---


def test_spectral_derivative_exact_on_resolved_modes():
    g = Grid(-np.pi, np.pi, 128)
    for m in (1, 3, 10):
        f = np.sin(m * g.x)
        assert np.max(np.abs(derivative(f, g, 1) - m * np.cos(m * g.x))) < 1e-11
        assert np.max(np.abs(derivative(f, g, 2) + m * m * f)) < 1e-9


@given(coeffs=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=5))
@settings(max_examples=30, deadline=None)
def test_fd_derivative_exact_on_cubics(coeffs):
    g = Grid(-2.0, 2.0, 64, DIRICHLET)
    p = np.polynomial.Polynomial(coeffs)
    f = p(g.x)
    scale = max(np.max(np.abs(f)), 1.0)
    assert np.max(np.abs(derivative(f, g, 1) - p.deriv(1)(g.x))) < 1e-10 * scale
    assert np.max(np.abs(derivative(f, g, 2) - p.deriv(2)(g.x))) < 1e-8 * scale


def test_fd_derivative_of_integer_field():
    """An integer field is differentiated as floats, not truncated to ints."""
    g = Grid(0.0, 16.0, 16, DIRICHLET)
    f = np.arange(16) ** 2
    got = derivative(f, g, 1)
    assert got.dtype == np.float64
    assert np.allclose(got[:6], [0.0, 2.0, 4.0, 6.0, 8.0, 10.0], rtol=0, atol=1e-12)
    assert np.array_equal(got, derivative(f.astype(float), g, 1))


def test_derivative_of_complex_field():
    g = Grid(-np.pi, np.pi, 128)
    f = np.exp(2j * g.x)
    assert np.max(np.abs(derivative(f, g, 1) - 2j * f)) < 1e-11


def test_derivative_order_validation(grid):
    with pytest.raises(ValueError):
        derivative(np.zeros(grid.n), grid, 3)


@pytest.mark.parametrize("n", [128, 127])
def test_nyquist_mode_of_the_first_derivative_is_zeroed(n):
    """An even grid's unpaired Nyquist mode (-1)^j has first derivative 0
    and second derivative -k_N^2 (-1)^j; an odd grid has no such mode, and
    its ik is 1j * k everywhere."""
    g = Grid(-10.0, 10.0, n)
    want = 1j * g.k
    if n % 2 == 0:
        want[n // 2] = 0.0
        mode = (-1.0) ** np.arange(n)
        assert np.array_equal(derivative(mode, g, 1), np.zeros(n))
        np.testing.assert_allclose(
            derivative(mode, g, 2), -(g.k[n // 2] ** 2) * mode, rtol=1e-13
        )
    assert np.array_equal(g.ik, want)
    assert np.count_nonzero(g.ik == 0.0) == 2 - n % 2
    assert not g.ik.flags.writeable


@pytest.mark.parametrize("boundary", ["periodic", DIRICHLET])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("order", [1, 2])
# the n = 128 cases keep the bare row-count ids that test histories know
@pytest.mark.parametrize("m, n", [
    pytest.param(m, n, id=str(m) if n == 128 else f"{m}-n{n}")
    for n in (128, 127) for m in (1, 3, 17)
])
def test_derivative_of_stack_equals_rows_bit_for_bit(boundary, dtype, order, m, n):
    g = Grid(-10.0, 10.0, n, boundary)
    rng = np.random.default_rng(m)
    f = rng.standard_normal((m, g.n))
    if dtype is complex:
        f = f + 1j * rng.standard_normal((m, g.n))
    got = derivative(f, g, order)
    want = np.array([derivative(row, g, order) for row in f])
    assert got.shape == f.shape
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_check_field_stack():
    g = Grid(0.0, 1.0, 16)
    assert check_field(np.zeros((3, 16)), g, stack=True).shape == (3, 16)
    with pytest.raises(GridMismatchError):
        check_field(np.zeros((3, 16)), g)  # a stack only where one is asked for
    with pytest.raises(GridMismatchError):
        check_field(np.zeros((3, 15)), g, stack=True)
    with pytest.raises(GridMismatchError):
        check_field(np.zeros((16, 3)), g, stack=True)
    with pytest.raises(GridMismatchError):
        check_field(np.zeros((2, 3, 16)), g, stack=True)
    for value in (np.nan, np.inf):
        bad = np.zeros((3, 16), dtype=complex)
        bad[2, 5] = value
        with pytest.raises(GridMismatchError):
            check_field(bad, g, stack=True)
        with pytest.raises(GridMismatchError):
            derivative(bad, g)


def test_centered_differences_in_time():
    """The stencil is exact on quadratics at the interior samples, row by
    row along the first axis, and refuses uneven snapshot times."""
    times = 0.3 + 0.05 * np.arange(7)
    dt = uniform_spacing(times)
    assert np.isclose(dt, 0.05)
    series = np.array([[2.0 * t**2 - t, t] for t in times])
    d1, d2 = centered(series, dt)
    assert np.allclose(d1, np.array([[4.0 * t - 1.0, 1.0] for t in times[1:-1]]))
    assert np.allclose(d2, [[4.0, 0.0]] * 5, atol=1e-9)
    with pytest.raises(ContractViolationError, match="uniformly spaced"):
        uniform_spacing(np.append(times, times[-1] + 0.02))


# -------------------------------------------------------------- integrals ---


def test_integrate_gaussian():
    g = Grid(-20.0, 20.0, 512)
    f = np.exp(-(g.x**2) / 2.0)
    assert integrate(f, g) == pytest.approx(np.sqrt(2.0 * np.pi), rel=1e-12)


def test_antiderivative_inverts_derivative():
    g = Grid(-np.pi, np.pi, 128)
    f = np.cos(3.0 * g.x)
    F = antiderivative_periodic(f, g)
    assert np.max(np.abs(derivative(F, g, 1) - f)) < 1e-11
    # a nonzero mean is carried as a linear (non-periodic) ramp
    F2 = antiderivative_periodic(f + 0.7, g)
    assert np.allclose(F2 - F, 0.7 * g.x, atol=1e-11)


def test_antiderivative_divides_only_off_the_mean_mode():
    """The k = 0 mode is never divided (no warning, which the test settings
    turn into an error), and the others keep the bits of the division
    everywhere, masked afterwards."""
    g = Grid(-np.pi, np.pi, 64)
    f = 0.7 + np.sin(g.x) + 0.3 * np.cos(5.0 * g.x)
    fk = np.fft.fft(f - f.mean())
    with np.errstate(divide="ignore", invalid="ignore"):
        want = np.fft.ifft(np.where(g.k != 0.0, fk / (1j * g.k), 0.0)).real
    want = want + f.mean() * g.x
    assert antiderivative_periodic(f, g).tobytes() == want.tobytes()


def _multiplied(f, multiplier):
    """The round trip as `fourier_multiply` once wrote it, with fresh arrays."""
    out = np.fft.ifft(multiplier * np.fft.fft(f))
    return out.real.copy() if np.isrealobj(f) else out


@pytest.mark.parametrize("shape", [(2048,), (8, 2048), (3, 97)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_fourier_multiply_equals_the_round_trip_bit_for_bit(shape, dtype):
    """The in-place spectrum, multiplier first, gives the bits of the fresh
    product and inverse for the derivative multipliers and a Strang kinetic
    factor, on real and complex fields and stacks."""
    g = Grid(-20.0, 20.0, shape[-1])
    rng = np.random.default_rng(3)
    f = rng.standard_normal(shape)
    if dtype is complex:
        f = f + 1j * rng.standard_normal(shape)
    for multiplier in (g.ik, -(g.k**2), np.exp(-0.5j * 1e-3 * g.k**2)):
        got, want = fourier_multiply(f, multiplier), _multiplied(f, multiplier)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_fourier_multiply_of_one_field_by_a_stack_of_multipliers():
    """An (m, n) multiplier of one state makes an (m, n) stack, as
    `kleingordon.nr_limit_compare` uses it: its spectrum has no room for the
    product, and the bits are those of the fresh round trip."""
    g = Grid(-20.0, 20.0, 256)
    psi = np.exp(-(g.x**2) + 0.5j * g.x)
    multiplier = np.exp(-0.5j * g.k**2 * np.linspace(0.0, 1.0, 5)[:, None])
    got = fourier_multiply(psi, multiplier)
    assert got.shape == (5, g.n)
    assert got.tobytes() == _multiplied(psi, multiplier).tobytes()


# ------------------------------------------------------------ transforms ---


def _same(got, want):
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@given(n=st.integers(8, 4096), rows=st.integers(0, 16), complex_input=st.booleans(),
       in_place=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_transforms_equal_numpy_fft_bit_for_bit(n, rows, complex_input, in_place, seed):
    """Each transform of `numerics` gives numpy.fft's bits, for one field
    (rows = 0) or a stack of up to 16, real or complex (rfft takes real
    input only), into a fresh array or through out=: the input itself for
    the complex pair, an array of the result's shape for the real pair."""
    rng = np.random.default_rng(seed)
    shape = (rows, n) if rows else (n,)
    half = (*shape[:-1], n // 2 + 1)
    f, g = rng.standard_normal(shape), rng.standard_normal(half)
    if complex_input:
        f, g = f + 1j * rng.standard_normal(shape), g + 1j * rng.standard_normal(half)
    for ours, theirs in ((cfft, np.fft.fft), (icfft, np.fft.ifft)):
        if in_place:
            got = np.array(f, dtype=complex)
            assert ours(got, out=got) is got
        else:
            got = ours(f)
        assert _same(got, theirs(f))
    out = np.empty(half, dtype=complex) if in_place else None
    assert _same(rfft(f.real, out=out), np.fft.rfft(f.real))
    out = np.empty(shape) if in_place else None
    assert _same(irfft(g, n, out=out), np.fft.irfft(g, n))


def test_complex_transform_casts_a_real_field_first():
    """On a real array the compiled kernel's complex transform takes its
    real-input path, whose bits differ from numpy.fft.fft's; `cfft` casts to
    complex first and gives numpy's bits."""
    f = np.random.default_rng(5).standard_normal(1024)
    raw = _pocketfft().c2c(f, (-1,), True, 0, None, 1)
    assert raw.tobytes() != np.fft.fft(f).tobytes()
    assert cfft(f).tobytes() == np.fft.fft(f).tobytes()


# ---------------------------------------------------------------- bessel ---
# `aharonov_bohm` evaluates J, Y and the scaled I with the ufuncs that
# `scipy.special` exports, and J', Y' to the bits of its jvp and yvp
# (`test_bessel_kernels_equal_scipy_special_bit_for_bit`).  Its tests and
# criterion 8 take their oracle values from these eight functions by name;
# here they meet oracles that do not use the library: ascending series,
# Wronskians, Bessel's equation and tabulated values.

BESSEL = {  # (value, derivative) per kind
    "J": (special.jv, special.jvp),
    "Y": (special.yv, special.yvp),
    "I": (special.iv, special.ivp),
    "K": (special.kv, special.kvp),
}


def _order(nu: float) -> float:
    """nu as `solve_radial` passes it to the library: a subnormal order, for
    which Y and K are wrong below x ~ 2, flushed to 0 by `_window_order`."""
    return _window_order(nu, np.zeros(1))


def _series_j(nu: float, x: float, terms: int = 60) -> float:
    """Independent ascending-series oracle for J_nu at moderate x."""
    total = 0.0
    for m in range(terms):
        total += (-1.0) ** m * (x / 2.0) ** (nu + 2 * m) / (
            math.factorial(m) * math.gamma(nu + m + 1)
        )
    return total


def _series_i(nu: float, x: float, terms: int = 60) -> float:
    total = 0.0
    for m in range(terms):
        total += (x / 2.0) ** (nu + 2 * m) / (
            math.factorial(m) * math.gamma(nu + m + 1)
        )
    return total


@given(nu=st.floats(0.0, 5.0), x=st.floats(0.05, 10.0))
@settings(max_examples=60, deadline=None)
def test_bessel_j_matches_series_oracle(nu, x):
    assert special.jv(_order(nu), x) == pytest.approx(_series_j(nu, x), abs=1e-10)


@given(nu=st.floats(0.0, 5.0), x=st.floats(0.05, 8.0))
@settings(max_examples=60, deadline=None)
def test_bessel_i_matches_series_oracle(nu, x):
    assert special.iv(_order(nu), x) == pytest.approx(
        _series_i(nu, x), rel=1e-12, abs=1e-12
    )


@given(nu=st.floats(0.0, 20.0), x=st.floats(0.1, 50.0))
@settings(max_examples=100, deadline=None)
def test_wronskian_j_y(nu, x):
    nu = _order(nu)
    w = special.jv(nu, x) * special.yvp(nu, x) - special.jvp(nu, x) * special.yv(nu, x)
    assert w == pytest.approx(2.0 / (np.pi * x), rel=1e-8)


@given(nu=st.floats(0.0, 20.0), x=st.floats(0.1, 50.0))
@settings(max_examples=100, deadline=None)
def test_wronskian_i_k(nu, x):
    nu = _order(nu)
    w = special.iv(nu, x) * special.kvp(nu, x) - special.ivp(nu, x) * special.kv(nu, x)
    assert w == pytest.approx(-1.0 / x, rel=1e-8)


@pytest.mark.parametrize("kind,sign", [("J", 1.0), ("Y", 1.0), ("I", -1.0), ("K", -1.0)])
@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.7])
def test_bessel_ode_residual(kind, sign, nu):
    # x^2 f'' + x f' + (x^2 - nu^2) f = 0 for J/Y; -(x^2 + nu^2)... for I/K
    # the sign flips the x^2 term: x^2 f'' + x f' - (x^2 + nu^2) f = 0
    # f'' from a central difference of the recurrence-exact first
    # derivative: second differences of f itself amplify the library's
    # ~1e-12 relative error by 1/h^2 and cannot reach the tolerance
    value, deriv = BESSEL[kind]
    h = 1e-5
    for x in (0.8, 2.5, 7.0):
        f = value(nu, x)
        fp = deriv(nu, x)
        fpp = (deriv(nu, x + h) - deriv(nu, x - h)) / (2.0 * h)
        res = x * x * fpp + x * fp + (sign * x * x - nu * nu) * f
        scale = max(abs(x * x * fpp), abs(f), 1.0)
        assert abs(res) <= 1e-7 * scale


def test_bessel_reference_values():
    assert special.jv(0.0, 1.0) == pytest.approx(0.7651976865579666, rel=1e-12)
    assert special.yv(0.0, 1.0) == pytest.approx(0.0882569642156769, rel=1e-10)
    assert special.iv(0.0, 1.0) == pytest.approx(1.2660658777520084, rel=1e-12)
    assert special.kv(0.0, 1.0) == pytest.approx(0.4210244382407083, rel=1e-10)


@pytest.mark.parametrize("derivative", [False, True], ids=["bessel", "bessel_derivative"])
@pytest.mark.parametrize("kind", ["J", "Y", "I", "K"])
def test_bessel_arrays_match_scalar_calls(derivative, kind):
    """A window of x evaluated as one array gives each point's scalar bits:
    the scan of `solve_radial` evaluates arrays, Brent's steps scalars."""
    fn = BESSEL[kind][derivative]
    x = np.linspace(0.05, 40.0, 97)
    for order in (0.0, 0.3, 2.0):
        arr = fn(order, x)
        assert isinstance(fn(order, 1.5), float)
        assert arr.shape == x.shape
        scalar = np.array([fn(order, float(xi)) for xi in x])
        assert arr.tobytes() == scalar.tobytes()


def test_pocketfft_module_is_the_one_scipy_fft_holds():
    """The compiled pocketfft module is found in its nested package and held
    under its full name, so a later `import scipy.fft` takes it rather than
    loading a second copy."""
    module = _scipy_extension("fft._pocketfft", "pypocketfft")
    assert module is _pocketfft()
    assert sys.modules["scipy.fft._pocketfft.pypocketfft"] is module
    import scipy.fft

    assert sys.modules["scipy.fft._pocketfft.basic"].pfft is module
    x = np.linspace(0.0, 1.0, 64) ** 2
    assert scipy.fft.fft(x + 0j).tobytes() == cfft(x).tobytes()


def test_missing_scipy_extension_is_named():
    """A compiled module that scipy does not ship is refused by its full
    name; there is no fallback to the package import."""
    with pytest.raises(ModuleNotFoundError,
                       match=r"has no compiled module scipy\.special\._no_such$"):
        _scipy_extension("special", "_no_such")
