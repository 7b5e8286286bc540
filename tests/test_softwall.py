"""The soft-wall path against its allocating forms, bit for bit.

``transverse_force``, ``axial_force`` and the velocity-Verlet integrator
update their buffers in place.  The references below are the np.where
forces and the Verlet that builds new arrays every step; the in-place
forms keep every element's operation order, so they must agree exactly.
The end caps are hard, so propagate folds z exactly and calls no axial
force.  The last tests pin the calls that the benchmark's tracer counts.
"""

import inspect
from dataclasses import replace

import numpy as np
import pytest

from boxmem import ensemble, lightshift
from boxmem.constants import CONSTANTS
from boxmem.ensemble import (AtomEnsemble, _fold_axial, propagate,
                             sample_thermal_ensemble)
from boxmem.geometry import (RingPotential, TrapGeometry, _flank_gradient,
                             axial_force, transverse_force)
from boxmem.lightshift import ShiftField, simulate_coherence, soft_wall_dt

RING = RingPotential()
HALF = TrapGeometry().length / 2.0
K_B = CONSTANTS.k_B


def _flank_where(s, edge, ring):
    d = s - edge
    return np.where(s < edge,
                    ring.peak_depth * np.exp(-2.0 * d**2 / ring.wall_width**2)
                    * (-4.0 * d / ring.wall_width**2), 0.0)


def _transverse_force_where(xy, ring, k_B):
    """Reference for transverse_force: the allocating np.where form."""
    xy = np.asarray(xy, dtype=float)
    rho = np.hypot(xy[..., 0], xy[..., 1])
    grad = _flank_where(rho, ring.ring_radius, ring) * k_B
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(rho[..., None] > 0,
                        xy / np.maximum(rho, 1e-300)[..., None], 0.0)
    return -grad[..., None] * unit


def _axial_force_where(z, ring, half_length, k_B):
    """Reference for axial_force: the allocating np.where form."""
    z = np.asarray(z, dtype=float)
    return -(_flank_where(np.abs(z), half_length, ring) * k_B) * np.sign(z)


def _verlet_allocating(pos, vel, accel, interval, dt):
    """Reference for ensemble._verlet: new arrays every sub-step."""
    acc = accel(pos)
    remaining = interval
    while remaining > 1e-18:
        step = min(dt, remaining)
        remaining -= step
        half_vel = vel + 0.5 * step * acc
        pos = pos + step * half_vel
        acc = accel(pos)
        vel = half_vel + 0.5 * step * acc
    return pos, vel


def _propagate_soft_reference(ensemble, t_start, t_end, dt, trap, gravity):
    """Reference for soft-wall propagate, built from the forms above."""
    pos, vel = ensemble.positions.copy(), ensemble.velocities.copy()
    interval = t_end - t_start
    half, m = trap.length / 2.0, CONSTANTS.m_atom

    def transverse(xy):
        acc = _transverse_force_where(xy, trap.ring, K_B) / m
        acc[:, 1] -= gravity
        return acc

    pos[:, :2], vel[:, :2] = _verlet_allocating(pos[:, :2], vel[:, :2],
                                                transverse, interval, dt)
    pos[:, 2], vel[:, 2] = _fold_axial(pos[:, 2] + vel[:, 2] * interval,
                                       vel[:, 2], half)
    return AtomEnsemble(pos, vel)


def _soft_trap(width):
    ring = replace(RING, wall_width=width)
    return TrapGeometry(radius=ring.ring_radius, ring=ring)


def test_forces_match_where_forms():
    r = RING.ring_radius
    rng = np.random.default_rng(3)
    xy = rng.uniform(-1.3 * r, 1.3 * r, size=(4000, 2))
    xy[:6] = [[0.0, 0.0], [r, 0.0], [0.0, -r], [-r, 0.0],
              [2.0 * r, 0.0], [1.0, -1.0]]
    for pts in (xy, xy[:1], xy[0], np.ascontiguousarray(xy.T).T):
        got = transverse_force(pts, RING, K_B)
        assert got.shape == pts.shape
        assert np.array_equal(got, _transverse_force_where(pts, RING, K_B))
    assert np.all(transverse_force(xy[:1], RING, K_B) == 0.0)   # the axis

    z = rng.uniform(-1.2 * HALF, 1.2 * HALF, size=4000)
    z[:5] = [0.0, HALF, -HALF, 2.0 * HALF, -1.0]
    assert np.array_equal(axial_force(z, RING, HALF, K_B),
                          _axial_force_where(z, RING, HALF, K_B))

    rho = np.abs(xy[:, 0])
    assert np.array_equal(_flank_gradient(rho, r, RING),
                          _flank_where(rho, r, RING))
    for s in map(np.float64, (0.0, 50e-6, r, 100e-6)):
        assert _flank_gradient(s, r, RING) == _flank_where(s, r, RING)


@pytest.mark.parametrize("width", [5e-6, 20e-6, 60e-6])
def test_soft_wall_propagate_matches_allocating_verlet(width):
    trap = _soft_trap(width)
    ens = sample_thermal_ensemble(300, trap, 15e-6, seed=21)
    dt = soft_wall_dt(width)
    got = propagate(ens, 0.0, 3e-3, dt=dt, trap=trap)
    want = _propagate_soft_reference(ens, 0.0, 3e-3, dt=dt, trap=trap,
                                     gravity=CONSTANTS.g_earth)
    assert np.array_equal(got.positions, want.positions)
    assert np.array_equal(got.velocities, want.velocities)


def test_coherence_matches_allocating_verlet(monkeypatch):
    width = 20e-6
    trap = _soft_trap(width)
    ens = sample_thermal_ensemble(500, trap, 15e-6, seed=22)

    def run():
        return simulate_coherence(ShiftField(trap.ring), trap, ens,
                                  t_max=1e-3, dt=soft_wall_dt(width))

    got = run()[1]
    monkeypatch.setattr(lightshift, "propagate", _propagate_soft_reference)
    assert np.array_equal(run()[1], got)


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's bound
    arguments, the way the benchmark's tracer binds them."""
    real = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(inspect.signature(real).bind(*args, **kwargs).arguments)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_coherence_propagates_every_atom_once_per_interval(monkeypatch):
    trap = _soft_trap(20e-6)
    ens = sample_thermal_ensemble(200, trap, 15e-6, seed=23)
    calls = _counting(monkeypatch, lightshift, "propagate")
    times, _ = simulate_coherence(ShiftField(trap.ring), trap, ens,
                                  t_max=2e-4, dt=soft_wall_dt(20e-6))
    assert len(calls) == len(times) - 1
    assert [len(c["ensemble"]) for c in calls] == [len(ens)] * len(calls)
    assert [(c["t_start"], c["t_end"]) for c in calls] \
        == list(zip(times[:-1], times[1:]))


def test_soft_wall_force_calls_per_substep(monkeypatch):
    trap = _soft_trap(20e-6)
    ens = sample_thermal_ensemble(200, trap, 15e-6, seed=24)
    radial = _counting(monkeypatch, ensemble, "transverse_force")
    axial = _counting(monkeypatch, ensemble, "axial_force")
    steps = 16                    # powers of two: no rounding in the count
    propagate(ens, 0.0, 2.0**-13, dt=2.0**-17, trap=trap)
    assert len(radial) == steps + 1
    assert len(axial) == 0
    assert all(len(c["xy"]) == len(ens) for c in radial)
