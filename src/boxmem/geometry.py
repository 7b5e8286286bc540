"""Trap geometry and the phenomenological hollow-beam potential.

The trap is a cylinder (axis = z, gravity along -y).  Walls are hard
(specular), or soft where the trap carries a ring: an annular Gaussian
flank of peak depth ``peak_depth`` clamped at the peak outside the ring
radius, so atoms cannot leak out through the model's tail.  The end caps
are hard.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS


@dataclass(frozen=True)
class RingPotential:
    """Annular optical potential of the hollow trapping beam.

    ``potential_at`` gives, for transverse radius rho <= ring_radius,

        U(rho) = peak_depth * exp(-2 (rho - ring_radius)^2 / wall_width^2)

    and peak_depth outside.  Depths are in kelvin (divide-by-k_B convention).
    """

    ring_radius: float = 95e-6    # m
    wall_width: float = 20e-6     # m, 1/e^2 half-width of the annular intensity
    peak_depth: float = 45e-6     # K

    def __post_init__(self):
        if not (0 < self.ring_radius < math.inf
                and 0 < self.wall_width < math.inf):
            raise ValueError(
                "ring_radius and wall_width must be finite and positive")
        if not 0 <= self.peak_depth < math.inf:
            raise ValueError("peak_depth must be finite and non-negative")


@dataclass(frozen=True)
class TrapGeometry:
    """Cylindrical box trap.  Defaults: 190 um inner diameter, 3 mm length."""

    radius: float = 95e-6         # m
    length: float = 3e-3          # m
    ring: RingPotential | None = None   # a ring's flank makes the wall soft

    def __post_init__(self):
        if not (0 < self.radius < math.inf and 0 < self.length < math.inf):
            raise ValueError("radius and length must be finite and positive")


def potential_at(radius, ring: RingPotential):
    """Trap potential (K) at transverse radius (m).  Vectorized.

    Inner Gaussian flank only; clamped at peak_depth outside the ring.
    """
    rho = np.abs(np.asarray(radius, dtype=float))
    u = ring.peak_depth * np.exp(-2.0 * (rho - ring.ring_radius) ** 2
                                 / ring.wall_width**2)
    return np.where(rho >= ring.ring_radius, ring.peak_depth, u)


def _flank_gradient(s, edge, ring: RingPotential):
    """dU/ds (K/m) at s >= 0 of a flank peaking at ``edge``: P exp(-2 d^2 /
    w^2) (-4 d / w^2) with d = s - edge, 0 where s is not below ``edge``.
    In place, in that order, so the bits match the allocating expression."""
    d = np.subtract(s, edge, out=np.empty(np.shape(s)))
    grad = np.square(d, out=np.empty_like(d))
    grad *= -2.0
    grad /= ring.wall_width**2
    np.exp(grad, out=grad)
    grad *= ring.peak_depth
    d *= -4.0
    d /= ring.wall_width**2
    grad *= d
    np.putmask(grad, ~(s < edge), 0.0)      # also where s is NaN
    return grad


def transverse_force(xy, ring: RingPotential):
    """Force (N) per transverse axis from the ring potential, shape (..., 2),
    and an exact 0 on the axis.  The result has the memory layout of ``xy``,
    so the transpose of a contiguous (2, n) array gives one back."""
    xy = np.asarray(xy, dtype=float)
    rho = np.hypot(xy[..., 0], xy[..., 1], out=np.empty(xy.shape[:-1]))
    grad = _flank_gradient(rho, ring.ring_radius, ring)
    grad *= -CONSTANTS.k_B          # J/m; -(g k_B), as rounding is symmetric
    np.maximum(rho, 1e-300, out=rho)
    force = np.divide(xy, rho[..., None], out=np.empty_like(xy))
    force *= grad[..., None]
    return force


def axial_force(z, ring: RingPotential, half_length: float):
    """Force (N) along z from soft end-cap sheets (same flank width as the
    ring).  No trap reads it, as the end caps are hard; the benchmark's
    tracer (``bench/tracer.py``) still patches it by name in ``ensemble``."""
    z = np.asarray(z, dtype=float)
    grad = _flank_gradient(np.abs(z), half_length, ring)
    grad *= -CONSTANTS.k_B
    grad *= np.sign(z)
    return grad
