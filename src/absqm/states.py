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
    time: float = 0.0,
) -> WaveField:
    """Normalized Gaussian R ~ exp(-(x-c)^2/(4 sigma^2)) with phase
    momentum*(x-c) + chirp*(x-c)^2 (so var(Q) = sigma^2 at t=0)."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    x = grid.x - center
    psi = np.exp(-(x**2) / (4.0 * sigma**2) + 1j * (momentum * x + chirp * x**2))
    w = WaveField(psi, grid, time=time)
    return w.normalized()


def plane_wave(grid: Grid, k: float, time: float = 0.0) -> WaveField:
    """Normalized plane wave; k should be a resolved mode of a periodic grid."""
    psi = np.exp(1j * k * grid.x)
    return WaveField(psi, grid, time=time).normalized()


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


def random_mixture(
    rng: np.random.Generator,
    grid: Grid,
    n_components: int = 3,
    center_scale: float | None = None,
    time: float = 0.0,
) -> WaveField:
    """Random normalized superposition of chirped Gaussians.

    Centers, widths, momenta, chirps and complex weights are drawn from the
    given generator, so sequences are reproducible from the seed.
    """
    if center_scale is None:
        center_scale = 0.25 * grid.length
    mid = 0.5 * (grid.x_min + grid.x_max)
    psi = np.zeros(grid.n, dtype=complex)
    for _ in range(n_components):
        c = mid + rng.uniform(-center_scale, center_scale)
        sigma = rng.uniform(0.5, 2.0)
        k = rng.uniform(-2.0, 2.0)
        chirp = rng.uniform(-0.3, 0.3)
        amp = rng.normal() + 1j * rng.normal()
        x = grid.x - c
        psi += amp * np.exp(
            -(x**2) / (4.0 * sigma**2) + 1j * (k * x + chirp * x**2)
        )
    w = WaveField(psi, grid, time=time)
    return w.normalized()
