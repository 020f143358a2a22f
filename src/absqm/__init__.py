"""Numerical laboratory for the frame- and gauge-free (Madelung) formulation
of quantum mechanics: wave-field evolution, absolute-field extraction and
residuals, process-space geometry, sharpened uncertainty relations, a damped
system integrated directly in absolute variables, a cylindrically symmetric
bound-state model, and the Klein-Gordon nonrelativistic limit."""

__version__ = "0.1.0"

from .errors import AbsqmError
from .numerics import DIRICHLET, PERIODIC, Grid, derivative, integrate
from .wavefield import (
    AbsoluteProcess,
    WaveField,
    boost_transform,
    extract_absolute,
    gauge_transform,
    geodesic_length,
    overlap_magnitude,
    polar_decompose,
    process_distance,
)
from .schrodinger import EvolutionSpec, Trajectory, evolve
from .states import gaussian_packet, plane_wave, random_mixture

__all__ = [
    "AbsoluteProcess",
    "AbsqmError",
    "DIRICHLET",
    "EvolutionSpec",
    "Grid",
    "PERIODIC",
    "Trajectory",
    "WaveField",
    "boost_transform",
    "derivative",
    "evolve",
    "extract_absolute",
    "gauge_transform",
    "gaussian_packet",
    "geodesic_length",
    "integrate",
    "overlap_magnitude",
    "plane_wave",
    "polar_decompose",
    "process_distance",
    "random_mixture",
]
