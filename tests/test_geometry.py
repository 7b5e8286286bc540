import numpy as np
import pytest

from boxmem.constants import CONSTANTS
from boxmem.geometry import (RingPotential, TrapGeometry, _flank_gradient,
                             potential_at, transverse_force)


def test_dark_center():
    ring = RingPotential()
    # exp(-2 (95/20)^2) suppresses the flank to far below 1e-3 of the peak
    assert potential_at(0.0, ring) < 1e-3 * ring.peak_depth
    assert potential_at(0.0, ring) < 45e-9  # < 45 nK


def test_peak_at_ring_radius():
    ring = RingPotential()
    assert potential_at(ring.ring_radius, ring) == pytest.approx(45e-6)


def test_one_wall_width_inside():
    ring = RingPotential()
    u = potential_at(ring.ring_radius - ring.wall_width, ring)
    assert u == pytest.approx(45e-6 * np.exp(-2.0), rel=1e-12)
    assert u == pytest.approx(6.09e-6, rel=1e-3)


def test_clamped_outside():
    ring = RingPotential()
    rho = np.array([95e-6, 120e-6, 1.0])
    assert np.all(potential_at(rho, ring) == ring.peak_depth)


def test_continuous_and_nonnegative():
    ring = RingPotential()
    rho = np.linspace(0.0, 200e-6, 5001)
    u = potential_at(rho, ring)
    assert np.all(u >= 0.0)
    assert np.max(u) == pytest.approx(ring.peak_depth)
    # no jump anywhere near the grid spacing scale
    assert np.max(np.abs(np.diff(u))) < ring.peak_depth * 0.01


def test_gradient_matches_finite_difference():
    ring = RingPotential()
    rho = np.linspace(1e-6, 94e-6, 200)
    h = 1e-10
    num = (potential_at(rho + h, ring) - potential_at(rho - h, ring)) / (2 * h)
    ana = _flank_gradient(rho, ring.ring_radius, ring)
    assert np.allclose(ana, num, rtol=1e-4, atol=1e-3)


def test_gradient_zero_in_clamped_region():
    ring = RingPotential()
    assert _flank_gradient(np.float64(100e-6), ring.ring_radius, ring) == 0.0


def test_transverse_force_points_inward():
    ring = RingPotential()
    f = transverse_force(np.array([[90e-6, 0.0]]), ring, CONSTANTS.k_B)
    assert f[0, 0] < 0.0          # pushes toward the axis
    assert f[0, 1] == pytest.approx(0.0)


def test_force_is_central():
    ring = RingPotential()
    xy = np.array([[60e-6, 45e-6]])     # rho = 75 um
    f = transverse_force(xy, ring, CONSTANTS.k_B)
    # force parallel (anti-parallel) to the position vector
    cross = f[0, 0] * xy[0, 1] - f[0, 1] * xy[0, 0]
    assert abs(cross) < 1e-30


def test_invalid_ring_rejected():
    with pytest.raises(ValueError):
        RingPotential(wall_width=0.0)
    with pytest.raises(ValueError):
        RingPotential(peak_depth=-1e-6)


def test_trap_geometry_validation():
    with pytest.raises(ValueError):
        TrapGeometry(radius=0.0)
    with pytest.raises(ValueError):
        TrapGeometry(length=-1e-3)
