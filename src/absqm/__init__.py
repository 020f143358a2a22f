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
    extract_block,
    gauge_transform,
    geodesic_length,
    polar_decompose,
    process_distances,
)
from .schrodinger import evolve
from .states import gaussian_packet, random_mixtures

__all__ = [
    "AbsoluteProcess",
    "AbsqmError",
    "DIRICHLET",
    "Grid",
    "PERIODIC",
    "WaveField",
    "boost_transform",
    "derivative",
    "evolve",
    "extract_block",
    "gauge_transform",
    "gaussian_packet",
    "geodesic_length",
    "integrate",
    "polar_decompose",
    "process_distances",
    "random_mixtures",
]
