import math

import numpy as np
import pytest

from boxmem import lightshift
from boxmem.constants import CONSTANTS
from boxmem.ensemble import sample_thermal_ensemble
from boxmem.errors import CalibrationError, NearResonanceError
from boxmem.lightshift import (CompensationSpec, ShiftField,
                               calibrate_wall_width, differential_shift,
                               one_over_e_time,
                               optimal_compensation_power, residual_lifetime,
                               simulate_coherence, trap_detuning)
from boxmem.geometry import RingPotential, TrapGeometry


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


def test_shift_requires_nonzero_detuning():
    with pytest.raises(ValueError):
        differential_shift(1e-28, detuning=0.0)


def test_compensation_power_default_beam():
    p = optimal_compensation_power(CompensationSpec())
    assert p == pytest.approx(3.286e-6, rel=1e-3)


def test_compensation_power_scales_with_trap_power():
    p1 = optimal_compensation_power(CompensationSpec(trap_power=1.0))
    p2 = optimal_compensation_power(CompensationSpec(trap_power=2.0))
    assert p2 == pytest.approx(2.0 * p1, rel=1e-12)


def test_compensation_power_grows_near_resonance():
    # smaller detuning -> larger relative shift -> more comp power
    p_far = optimal_compensation_power(CompensationSpec(trap_wavelength=760e-9))
    p_near = optimal_compensation_power(CompensationSpec(trap_wavelength=778e-9))
    assert p_near > p_far


def test_compensation_rejects_red_and_near_resonant():
    with pytest.raises(ValueError):
        optimal_compensation_power(CompensationSpec(trap_wavelength=790e-9))
    with pytest.raises(NearResonanceError):
        optimal_compensation_power(
            CompensationSpec(trap_wavelength=780.2411e-9))


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


def test_shift_field_epsilon_scaling():
    field = ShiftField(RingPotential())
    rho = np.linspace(0.0, 120e-6, 50)
    full = field.at_radius(rho)
    tenth = ShiftField(RingPotential(), epsilon=0.1).at_radius(rho)
    assert np.allclose(tenth, 0.1 * full, rtol=1e-12)


def test_coherence_starts_at_one_and_bounded():
    ring = RingPotential()
    trap = TrapGeometry(radius=ring.ring_radius, ring=ring)
    field = ShiftField(ring)
    ens = sample_thermal_ensemble(500, trap, 15e-6, seed=1)
    times, c = simulate_coherence(field, trap, ens, t_max=1.5e-3)
    assert c[0] == 1.0
    assert np.all((c >= 0.0) & (c <= 1.0 + 1e-12))
    assert one_over_e_time(times, c) < 1.5e-3   # dephases within the window


def test_frozen_ensemble_lifetime_scales_inversely_with_epsilon():
    # atoms at rest in a hard-walled trap without gravity stay put: phases
    # are exactly epsilon * omega(r) * t, so the 1/e time must scale as
    # 1/epsilon
    ring = RingPotential()
    trap = TrapGeometry(radius=ring.ring_radius)
    field = ShiftField(ring)
    ens = sample_thermal_ensemble(4000, trap, 0.0, gravity=0.0, seed=2)
    omega = field.at(ens.positions[:, :2])
    taus = {}
    for eps in (1.0, 0.1, 0.01):
        t_max = 3e-3 / eps
        times, c = simulate_coherence(
            ShiftField(ring, epsilon=eps), trap, ens, t_max=t_max,
            sample_dt=t_max / 399, gravity=0.0)
        for i in (1, 150, 399):
            expected = np.abs(np.exp(1j * eps * omega * times[i]).mean())
            assert c[i] == pytest.approx(expected, abs=1e-9)
        taus[eps] = one_over_e_time(times, c)
    assert taus[0.1] == pytest.approx(10.0 * taus[1.0], rel=0.10)
    assert taus[0.01] == pytest.approx(100.0 * taus[1.0], rel=0.10)


def test_one_over_e_time_linear_interpolation():
    times = np.array([0.0, 1.0, 2.0])
    values = np.array([1.0, 0.5, 0.2])
    t = one_over_e_time(times, values)
    # crossing of 1/e = 0.3679 between t=1 (0.5) and t=2 (0.2)
    assert t == pytest.approx(1.0 + (0.5 - 1 / math.e) / 0.3, rel=1e-9)
    assert one_over_e_time(times, np.array([1.0, 0.9, 0.8])) == math.inf


def test_calibration_rejects_bad_target():
    with pytest.raises(ValueError):
        calibrate_wall_width(-1.0, RingPotential())


def test_calibration_unreachable_target_reported(monkeypatch):
    # every candidate trap has the same radius, so one cloud serves them all
    draws = []

    def counted(*args, **kwargs):
        draws.append(args)
        return sample_thermal_ensemble(*args, **kwargs)

    monkeypatch.setattr(lightshift, "sample_thermal_ensemble", counted)
    with pytest.raises(CalibrationError):
        calibrate_wall_width(10e-3, RingPotential(), n_atoms=200,
                             bracket=(30e-6, 50e-6))
    assert len(draws) == 1


def _soft_trap_and_cloud(n_atoms, seed):
    ring = RingPotential()
    trap = TrapGeometry(radius=ring.ring_radius, ring=ring)
    return ShiftField(ring), trap, sample_thermal_ensemble(n_atoms, trap,
                                                           15e-6, seed=seed)


def test_coherence_stop_below_returns_the_full_run_prefix():
    field, trap, ens = _soft_trap_and_cloud(500, 1)
    times, c = simulate_coherence(field, trap, ens, t_max=1.5e-3)
    k = int(np.flatnonzero(c < 1.0 / math.e)[0])
    assert k < len(times) - 1            # the stop saves samples
    t_cut, c_cut = simulate_coherence(field, trap, ens, t_max=1.5e-3,
                                      stop_below=1.0 / math.e)
    assert len(t_cut) == k + 1
    assert np.array_equal(t_cut, times[:k + 1])
    assert np.array_equal(c_cut, c[:k + 1])
    assert one_over_e_time(t_cut, c_cut) == one_over_e_time(times, c)


def test_coherence_stop_below_never_reached_runs_to_t_max():
    field, trap, ens = _soft_trap_and_cloud(500, 1)
    times, c = simulate_coherence(field, trap, ens, t_max=0.2e-3)
    assert c.min() >= 1.0 / math.e
    t_cut, c_cut = simulate_coherence(field, trap, ens, t_max=0.2e-3,
                                      stop_below=1.0 / math.e)
    assert np.array_equal(t_cut, times)
    assert np.array_equal(c_cut, c)
    assert one_over_e_time(t_cut, c_cut) == math.inf


def test_calibration_stops_each_candidate_at_its_first_sample_below_1e(
        monkeypatch):
    # One coherence run per candidate, one propagate of the whole cloud
    # per returned interval, and the same candidates, taus and width as
    # a search that folds every candidate's full curve.
    n_atoms = 400
    simulate, propagate = lightshift.simulate_coherence, lightshift.propagate

    def search(full_curve):
        runs = []      # per candidate: width, tau, samples, propagated sizes

        def counted_propagate(ensemble, *args, **kwargs):
            runs[-1]["sizes"].append(len(ensemble))
            return propagate(ensemble, *args, **kwargs)

        def counted_simulate(field, trap, ensemble, *args, **kwargs):
            if full_curve:
                kwargs.pop("stop_below", None)
            runs.append({"width": trap.ring.wall_width, "sizes": []})
            times, c = simulate(field, trap, ensemble, *args, **kwargs)
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
