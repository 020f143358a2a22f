"""Initial-state constructors: analytic packets and seeded random mixtures."""

from __future__ import annotations

import numpy as np

from .numerics import Grid, antiderivative_periodic
from .wavefield import WaveField


def gaussian_packet(
    grid: Grid,
    sigma: float = 1.0,
    center: float = 0.0,
    momentum: float = 0.0,
    chirp: float = 0.0,
) -> WaveField:
    """Normalized Gaussian R ~ exp(-(x-c)^2/(4 sigma^2)) with phase
    momentum*(x-c) + chirp*(x-c)^2 (so var(Q) = sigma^2 at t=0)."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    x = grid.x - center
    psi = np.exp(-(x**2) / (4.0 * sigma**2) + 1j * (momentum * x + chirp * x**2))
    return WaveField(psi, grid).normalized()


def flat_force_potential(grid: Grid, e0: float) -> tuple[np.ndarray, float]:
    """Smooth periodic A0 whose force is constant on |x| <= 10 and ramps to
    zero over 10 < |x| < 14.

    Returns (a0, e_eff).  The force profile e0*bump loses its mean so that
    a0 is periodic, which lowers the force inside the window to
    e_eff = e0*(1 - mean(bump)), not e0.
    """
    t = np.clip((np.abs(grid.x) - 10.0) / 4.0, 0.0, 1.0)
    bump = 1.0 - t * t * (3.0 - 2.0 * t)
    return antiderivative_periodic(e0 * (bump - bump.mean()), grid), e0 * (
        1.0 - bump.mean()
    )


def random_mixtures(
    rng: np.random.Generator,
    grid: Grid,
    m: int,
    n_components: int = 3,
    center_scale: float | None = None,
) -> WaveField:
    """A block of m random normalized superpositions of chirped Gaussians,
    built and normalized as one (m, n) stack.

    Centers, widths, momenta, chirps and complex weights are drawn from the
    given generator, so sequences are reproducible from the seed.  The
    block takes the draws of its states one state after another, so its
    rows equal m blocks of one bit for bit, and it leaves the generator
    where they would.
    """
    if center_scale is None:
        center_scale = 0.25 * grid.length
    if not 0.0 <= center_scale < np.inf:
        raise ValueError(
            f"center_scale={center_scale!r} must be nonnegative and finite"
        )
    mid = 0.5 * (grid.x_min + grid.x_max)
    # per state and component: (center offset, sigma, k, chirp) uniform on
    # [low, high) and a complex weight.  `uniform` computes
    # low + (high - low) * random(), so these are the values of six scalar
    # `uniform`/`normal` draws per component, bit for bit, in the same order
    low = np.array([-center_scale, 0.5, -2.0, -0.3])
    high = np.array([center_scale, 2.0, 2.0, 0.3])
    unit = np.empty((n_components, m, 4))
    weight = np.empty((n_components, m, 2))
    for i in range(m):
        for c in range(n_components):
            unit[c, i] = rng.random(4)
            weight[c, i] = rng.standard_normal(2)
    offset, sigma, k, chirp = np.moveaxis(low + (high - low) * unit, -1, 0)[..., None]
    re, im = np.moveaxis(weight, -1, 0)[..., None]
    psi = np.zeros((m, grid.n), dtype=complex)
    for c in range(n_components):  # summed in component order, as the draws were
        x = grid.x - (mid + offset[c])
        psi += (re[c] + 1j * im[c]) * np.exp(
            -(x**2) / (4.0 * sigma[c] ** 2) + 1j * (k[c] * x + chirp[c] * x**2)
        )
    return WaveField(psi, grid).normalized()

