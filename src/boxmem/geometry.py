"""Trap geometry and the phenomenological hollow-beam potential.

The trap is a cylinder (axis = z, gravity along -y).  Walls are either
hard (specular) or soft: an annular Gaussian flank of peak depth
``peak_depth`` that is clamped at the peak outside the ring radius so
atoms cannot leak out through the model's tail.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RingPotential:
    """Annular optical potential of the hollow trapping beam.

    ``potential_at`` gives, for transverse radius rho <= ring_radius,

        U(rho) = peak_depth * exp(-2 (rho - ring_radius)^2 / wall_width^2)

    and peak_depth outside.  Depths are in kelvin (divide-by-k_B convention).
    """

    ring_radius: float = 95e-6    # m
    wall_width: float = 20e-6     # m, 1/e^2 half-width of the annular intensity
    peak_depth: float = 45e-6     # K, also the soft end caps' depth

    def __post_init__(self):
        if self.ring_radius <= 0 or self.wall_width <= 0:
            raise ValueError("ring_radius and wall_width must be positive")
        if self.peak_depth < 0:
            raise ValueError("peak_depth must be non-negative")


@dataclass(frozen=True)
class TrapGeometry:
    """Cylindrical box trap.  Defaults: 190 um inner diameter, 3 mm length."""

    radius: float = 95e-6         # m
    length: float = 3e-3          # m
    wall_model: str = "hard"      # "hard" | "soft"
    endcap_model: str = "hard"    # "hard" | "soft"
    ring: RingPotential | None = None

    def __post_init__(self):
        if self.radius <= 0 or self.length <= 0:
            raise ValueError("radius and length must be positive")
        if self.wall_model not in ("hard", "soft"):
            raise ValueError("wall_model must be 'hard' or 'soft'")
        if self.endcap_model not in ("hard", "soft"):
            raise ValueError("endcap_model must be 'hard' or 'soft'")
        if (self.wall_model == "soft" or self.endcap_model == "soft") and self.ring is None:
            object.__setattr__(self, "ring", RingPotential(ring_radius=self.radius))


def potential_at(radius, ring: RingPotential):
    """Trap potential (K) at transverse radius (m).  Vectorized.

    Inner Gaussian flank only; clamped at peak_depth outside the ring.
    """
    rho = np.abs(np.asarray(radius, dtype=float))
    u = ring.peak_depth * np.exp(-2.0 * (rho - ring.ring_radius) ** 2
                                 / ring.wall_width**2)
    return np.where(rho >= ring.ring_radius, ring.peak_depth, u)


def potential_gradient(radius, ring: RingPotential):
    """dU/drho (K/m) at transverse radius.  Zero in the clamped region."""
    rho = np.abs(np.asarray(radius, dtype=float))
    inner = rho < ring.ring_radius
    d = rho - ring.ring_radius
    grad = np.where(
        inner,
        ring.peak_depth * np.exp(-2.0 * d**2 / ring.wall_width**2)
        * (-4.0 * d / ring.wall_width**2),
        0.0,
    )
    return grad


def transverse_force(xy, ring: RingPotential, k_B: float):
    """Force (N) per transverse axis from the ring potential, shape (n, 2)."""
    xy = np.asarray(xy, dtype=float)
    rho = np.hypot(xy[..., 0], xy[..., 1])
    grad = potential_gradient(rho, ring) * k_B           # J/m
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(rho[..., None] > 0, xy / np.maximum(rho, 1e-300)[..., None], 0.0)
    return -grad[..., None] * unit


def axial_force(z, ring: RingPotential, half_length: float, k_B: float):
    """Force (N) along z from soft end-cap sheets (same flank width as the ring)."""
    z = np.asarray(z, dtype=float)
    s = np.abs(z)
    inner = s < half_length
    d = s - half_length
    grad = np.where(
        inner,
        ring.peak_depth * np.exp(-2.0 * d**2 / ring.wall_width**2)
        * (-4.0 * d / ring.wall_width**2),
        0.0,
    ) * k_B
    return -grad * np.sign(z)
