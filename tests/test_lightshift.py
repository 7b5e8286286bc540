import math

import numpy as np
import pytest

from boxmem import lightshift
from boxmem.constants import CONSTANTS
from boxmem.ensemble import AtomEnsemble, sample_thermal_ensemble
from boxmem.errors import CalibrationError, NearResonanceError
from boxmem.lightshift import (calibrate_wall_width, differential_shift,
                               one_over_e_time, optimal_compensation_power,
                               residual_lifetime, simulate_coherence,
                               trap_detuning)
from boxmem.geometry import RingPotential, TrapGeometry, potential_at


def test_trap_detuning_775nm():
    d = trap_detuning(775e-9)
    assert d / (2 * math.pi) == pytest.approx(2.598e12, rel=1e-3)
    assert d > 0                           # blue of the D2 line


def test_shift_linear_in_potential():
    rng = np.random.default_rng(0)
    for U in rng.uniform(1e-30, 1e-27, size=10):
        assert differential_shift(2.0 * U) == pytest.approx(
            2.0 * differential_shift(U), rel=1e-12)
    assert differential_shift(0.0) == 0.0


def test_shift_magnitude_at_ring_peak():
    U = CONSTANTS.k_B * 45e-6
    dw = differential_shift(U)
    assert dw / (2 * math.pi) == pytest.approx(2.466e3, rel=1e-3)
    assert dw > 0


def test_compensation_power_default_beam():
    p = optimal_compensation_power()
    assert p == pytest.approx(3.286e-6, rel=1e-3)
    assert p == optimal_compensation_power(1.9, 775e-9)


def test_compensation_power_scales_with_trap_power():
    p1 = optimal_compensation_power(trap_power=1.0)
    p2 = optimal_compensation_power(trap_power=2.0)
    assert p2 == pytest.approx(2.0 * p1, rel=1e-12)


def test_compensation_power_grows_near_resonance():
    # smaller detuning -> larger relative shift -> more comp power
    p_far = optimal_compensation_power(trap_wavelength=760e-9)
    p_near = optimal_compensation_power(trap_wavelength=778e-9)
    assert p_near > p_far


def test_compensation_rejects_red_and_near_resonant():
    with pytest.raises(ValueError):
        optimal_compensation_power(trap_wavelength=790e-9)
    with pytest.raises(NearResonanceError):
        optimal_compensation_power(trap_wavelength=780.2411e-9)


@pytest.mark.parametrize("beam, match", [
    ({"trap_power": math.nan}, "trap_power must be finite and non-negative"),
    ({"trap_power": math.inf}, "trap_power"),
    ({"trap_power": -1.0}, "trap_power"),
    ({"trap_wavelength": math.nan},
     "trap_wavelength must be finite and positive"),
    ({"trap_wavelength": math.inf}, "trap_wavelength"),
    ({"trap_wavelength": 0.0}, "trap_wavelength"),
    ({"trap_wavelength": -775e-9}, "trap_wavelength")])
def test_compensation_rejects_bad_beam(beam, match):
    with pytest.raises(ValueError, match=match):
        optimal_compensation_power(**beam)


def test_residual_lifetime_examples():
    tau0 = 0.67e-3
    assert residual_lifetime(tau0, 0.01) == pytest.approx(67e-3)
    assert residual_lifetime(tau0, 0.024) == pytest.approx(27.9e-3, rel=2e-3)
    assert residual_lifetime(tau0, 0.1) == pytest.approx(6.7e-3)
    assert residual_lifetime(tau0, 0.0) == math.inf
    with pytest.raises(ValueError):
        residual_lifetime(tau0, 1.5)
    with pytest.raises(ValueError):
        residual_lifetime(-1.0, 0.01)


def test_coherence_starts_at_one_and_bounded():
    ring = RingPotential()
    trap = TrapGeometry(radius=ring.ring_radius, ring=ring)
    ens = sample_thermal_ensemble(500, trap, 15e-6, seed=1)
    times, c = simulate_coherence(ring, ens, t_max=1.5e-3)
    assert c[0] == 1.0
    assert np.all((c >= 0.0) & (c <= 1.0 + 1e-12))
    assert one_over_e_time(times, c) < 1.5e-3   # dephases within the window


def test_one_over_e_time_linear_interpolation():
    times = np.array([0.0, 1.0, 2.0])
    values = np.array([1.0, 0.5, 0.2])
    t = one_over_e_time(times, values)
    # crossing of 1/e = 0.3679 between t=1 (0.5) and t=2 (0.2)
    assert t == pytest.approx(1.0 + (0.5 - 1 / math.e) / 0.3, rel=1e-9)
    assert one_over_e_time(times, np.array([1.0, 0.9, 0.8])) == math.inf


@pytest.mark.parametrize("times, values", [
    ([0.0, 1.0, 2.0], [1.0, math.nan, 0.2]),     # would read nan
    ([0.0, 1.0, 2.0], [1.0, 0.5, math.inf]),
    ([0.0, math.nan, 2.0], [1.0, 0.5, 0.2]),
    ([0.0, 1.0, math.inf], [1.0, 0.5, 0.2]),
    ([0.0, 1.0, 2.0], [1.0, 0.5]),               # would index past values
    ([0.0, 1.0], [1.0, 0.5, 0.2]),
    ([[0.0, 1.0, 2.0]], [[1.0, 0.5, 0.2]]),
    (0.0, 1.0)])
def test_one_over_e_time_rejects_bad_curves(times, values):
    with pytest.raises(ValueError, match="finite 1-d arrays of equal length"):
        one_over_e_time(times, values)


def test_calibration_rejects_bad_target(monkeypatch):
    def no_cloud(*args, **kwargs):
        raise AssertionError("bad input must be refused before sampling")

    monkeypatch.setattr(lightshift, "sample_thermal_ensemble", no_cloud)
    for target in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="target_tau"):
            calibrate_wall_width(target, RingPotential())
    for tol in (math.nan, -0.05, 0.0, math.inf):
        with pytest.raises(ValueError, match="tol must be finite"):
            calibrate_wall_width(0.67e-3, RingPotential(), tol=tol)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, "0"])
def test_calibration_rejects_bad_seed(seed):
    # a negative seed would overflow the Philox key's uint64
    with pytest.raises(ValueError, match="seed must be an integer"):
        calibrate_wall_width(0.67e-3, RingPotential(), n_atoms=50, seed=seed)


def _stepped_coherence(tau_thin, tau_thick):
    """A stand-in for simulate_coherence whose 1/e time is ``tau_thin``
    below a 20 um wall width and ``tau_thick`` from there on."""
    def fake(ring, ensemble, **kwargs):
        tau = tau_thin if ring.wall_width < 20e-6 else tau_thick
        return np.array([0.0, tau, 2.0 * tau]), \
            np.array([1.0, lightshift.ONE_OVER_E, 0.0])
    return fake


def test_calibration_fallbacks(monkeypatch):
    # No width meets tol on a step, so bisection closes in on the step
    # until the bracket is under 0.2 um.  The lower end, 0.05 ms off the
    # target, is the best, and within 2 tol it is returned.
    monkeypatch.setattr(lightshift, "simulate_coherence",
                        _stepped_coherence(0.72e-3, 0.50e-3))
    assert calibrate_wall_width(0.67e-3, RingPotential(), n_atoms=50) == 5e-6
    # a best width 0.17 ms off is outside 2 tol
    monkeypatch.setattr(lightshift, "simulate_coherence",
                        _stepped_coherence(1.0e-3, 0.5e-3))
    with pytest.raises(CalibrationError, match="within 10%"):
        calibrate_wall_width(0.67e-3, RingPotential(), n_atoms=50)
    monkeypatch.setattr(lightshift, "simulate_coherence",
                        _stepped_coherence(0.5e-3, 1.0e-3))
    with pytest.raises(CalibrationError, match="not decreasing"):
        calibrate_wall_width(0.67e-3, RingPotential(), n_atoms=50)


def test_calibration_unreachable_target_reported(monkeypatch):
    # every candidate trap has the same radius, so one cloud serves them all
    draws = []

    def counted(*args, **kwargs):
        draws.append(args)
        return sample_thermal_ensemble(*args, **kwargs)

    monkeypatch.setattr(lightshift, "sample_thermal_ensemble", counted)
    # every width of the bracket dephases faster than the 10 ms target
    monkeypatch.setattr(lightshift, "simulate_coherence",
                        _stepped_coherence(1.0e-3, 0.9e-3))
    with pytest.raises(CalibrationError, match="outside the reachable range"):
        calibrate_wall_width(10e-3, RingPotential(), n_atoms=200)
    assert len(draws) == 1


def _ring_and_cloud(n_atoms, seed):
    ring = RingPotential()
    trap = TrapGeometry(radius=ring.ring_radius, ring=ring)
    return ring, sample_thermal_ensemble(n_atoms, trap, 15e-6, seed=seed)


@pytest.mark.parametrize("t_max, sample_dt", [
    (-1e-3, 2e-5), (math.nan, 2e-5), (math.inf, 2e-5),
    (1e-3, -2e-5), (1e-3, 0.0), (1e-3, math.nan), (1e-3, math.inf)])
def test_coherence_rejects_bad_times(t_max, sample_dt):
    ring, ens = _ring_and_cloud(10, 1)
    with pytest.raises(ValueError, match="t_max|sample_dt"):
        simulate_coherence(ring, ens, t_max=t_max, sample_dt=sample_dt)


def test_coherence_rejects_nonfinite_gravity():
    # no NaN C(t) whose 1/e time reads inf
    ring, ens = _ring_and_cloud(10, 1)
    for g in (math.nan, math.inf):
        with pytest.raises(ValueError, match="gravity must be finite"):
            simulate_coherence(ring, ens, t_max=1e-4, gravity=g)


def test_coherence_rejects_empty_ensemble():
    ring, ens = _ring_and_cloud(10, 1)
    empty = AtomEnsemble(ens.positions[:0], ens.velocities[:0])
    with pytest.raises(ValueError, match="at least one atom"):
        simulate_coherence(ring, empty, t_max=1e-4)


def _full_coherence(ring, ensemble, t_max, sample_dt=2e-5,
                    gravity=CONSTANTS.g_earth):
    """simulate_coherence's C(t) in the ring's trap, every sample up to
    t_max."""
    def shift(positions):
        rho = np.hypot(positions[:, 0], positions[:, 1])
        return differential_shift(potential_at(rho, ring) * CONSTANTS.k_B)

    trap = TrapGeometry(radius=ring.ring_radius, ring=ring)
    dt = lightshift.soft_wall_dt(ring.wall_width)
    times = np.arange(0.0, t_max + 0.5 * sample_dt, sample_dt)
    phi = np.zeros(len(ensemble))
    omega_prev = shift(ensemble.positions)
    coherence = [1.0]
    current = ensemble
    for t0, t1 in zip(times[:-1], times[1:]):
        current = lightshift.propagate(current, t0, t1, dt=dt, trap=trap,
                                       gravity=gravity)
        omega = shift(current.positions)
        phi += 0.5 * (omega + omega_prev) * (t1 - t0)
        omega_prev = omega
        coherence.append(np.abs(np.exp(1j * phi).mean()))
    return times, np.array(coherence)


def test_coherence_ends_at_its_first_sample_below_1e():
    ring, ens = _ring_and_cloud(500, 1)
    times, c = _full_coherence(ring, ens, t_max=1.5e-3)
    i = int(np.flatnonzero(c < 1.0 / math.e)[0])
    assert i < len(times) - 1            # the curve goes on past sample i
    t_cut, c_cut = simulate_coherence(ring, ens, t_max=1.5e-3)
    assert np.array_equal(t_cut, times[:i + 1])
    assert np.array_equal(c_cut, c[:i + 1])
    assert one_over_e_time(t_cut, c_cut) == one_over_e_time(times, c)


def test_coherence_above_1e_runs_to_t_max():
    ring, ens = _ring_and_cloud(500, 1)
    times, c = _full_coherence(ring, ens, t_max=0.2e-3)
    assert c.min() >= 1.0 / math.e
    t_cut, c_cut = simulate_coherence(ring, ens, t_max=0.2e-3)
    assert np.array_equal(t_cut, times)
    assert np.array_equal(c_cut, c)
    assert one_over_e_time(t_cut, c_cut) == math.inf


def test_calibration_stops_each_candidate_at_its_first_sample_below_1e(
        monkeypatch):
    # One coherence run per candidate, one propagate of the whole cloud
    # per returned interval, and the same candidates, taus and width as
    # a search that folds every candidate's full curve up to t_max.
    n_atoms = 400
    simulate, propagate = lightshift.simulate_coherence, lightshift.propagate

    def search(full_curve):
        runs = []      # per candidate: width, tau, samples, propagated sizes

        def counted_propagate(ensemble, *args, **kwargs):
            runs[-1]["sizes"].append(len(ensemble))
            return propagate(ensemble, *args, **kwargs)

        def counted_simulate(ring, ensemble, *args, **kwargs):
            runs.append({"width": ring.wall_width, "sizes": []})
            times, c = (_full_coherence if full_curve else simulate)(
                ring, ensemble, *args, **kwargs)
            runs[-1].update(tau=one_over_e_time(times, c), samples=len(times))
            return times, c

        monkeypatch.setattr(lightshift, "propagate", counted_propagate)
        monkeypatch.setattr(lightshift, "simulate_coherence", counted_simulate)
        width = calibrate_wall_width(0.67e-3, RingPotential(), n_atoms=n_atoms)
        return width, runs

    width, runs = search(full_curve=False)
    full_width, full_runs = search(full_curve=True)
    assert width == full_width
    assert [(r["width"], r["tau"]) for r in runs] == \
        [(r["width"], r["tau"]) for r in full_runs]
    for run in runs:
        assert run["sizes"] == [n_atoms] * (run["samples"] - 1)
    stopped = sum(r["samples"] for r in runs)
    assert stopped < sum(r["samples"] for r in full_runs)
