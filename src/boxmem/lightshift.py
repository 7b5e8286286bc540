"""Differential light shift of the clock transition, compensation-beam
optimization, and the microscopic dephasing of a given atom ensemble, from
which the soft-wall width is calibrated.  Atomic data: ``CONSTANTS``.

The trap light is treated in the far-detuned two-level (D2-only) limit, so
the differential shift of the hyperfine clock transition is

    delta_omega = (U / hbar) * (omega_hf / Delta)

with U the local optical potential and Delta the trap detuning from the D2
line.  A compensation beam parked midway between the two ground hyperfine
components (detunings +/- omega_hf/2) produces an opposite-signed shift;
with identical spatial modes the cancellation condition gives

    P_comp = P_trap * (omega_hf / (2 Delta))^2.

The D1 contribution at 775 nm is ~7% in 1/Delta^2 and is dropped.
"""

import math
from dataclasses import replace

import numpy as np

from .constants import CONSTANTS
from .ensemble import DEFAULT_DT, AtomEnsemble, propagate, sample_thermal_ensemble
from .errors import CalibrationError, NearResonanceError
from .geometry import RingPotential, TrapGeometry, potential_at

GAMMA_D2 = 2.0 * math.pi * 6.0666e6  # rad/s, 87Rb D2 natural linewidth
CALIBRATION_TEMPERATURE = 15e-6  # K, the paper's cloud
CALIBRATION_BRACKET = (5e-6, 60e-6)  # m, the wall widths searched
ONE_OVER_E = 1.0 / math.e  # the coherence that defines the dephasing time


def trap_detuning(wavelength: float) -> float:
    """Angular detuning (rad/s) of the trap light from the D2 line."""
    return 2.0 * math.pi * (CONSTANTS.c / wavelength
                            - CONSTANTS.c / CONSTANTS.lambda_D2)


RING_DETUNING = trap_detuning(775e-9)  # rad/s, the ring's trap light


def differential_shift(U: float):
    """Differential clock-transition shift (rad/s) for potential energy U (J)
    of the 775 nm trap light.

    Linear in U; positive (|F=2> raised relative to |F=1>) inside
    blue-detuned light.  Vectorized over U.
    """
    return (np.asarray(U, dtype=float) / CONSTANTS.hbar) \
        * (CONSTANTS.omega_hf / RING_DETUNING)


def optimal_compensation_power(trap_power: float = 1.9,
                               trap_wavelength: float = 775e-9) -> float:
    """Power (W) of a compensation beam, tuned midway between the ground
    hyperfine components of the D2 line, that cancels the differential
    shift of a trap beam of ``trap_power`` (W) at ``trap_wavelength`` (m),
    assuming identical spatial modes."""
    if not (math.isfinite(trap_power) and trap_power >= 0):
        raise ValueError("trap_power must be finite and non-negative")
    if not (math.isfinite(trap_wavelength) and trap_wavelength > 0):
        raise ValueError("trap_wavelength must be finite and positive")
    delta = trap_detuning(trap_wavelength)
    if delta <= 0:
        raise ValueError("trap wavelength must be blue of the D2 line")
    if trap_wavelength > CONSTANTS.lambda_D2 * 0.99 \
            and abs(delta) < 10.0 * GAMMA_D2:
        raise NearResonanceError(
            "trap within 10 linewidths of the D2 line; far-detuned model invalid")
    return trap_power * (CONSTANTS.omega_hf / (2.0 * delta)) ** 2


def residual_lifetime(tau_uncompensated: float, epsilon: float) -> float:
    """Dephasing time with a residual shift fraction epsilon: tau0 / epsilon.

    epsilon = 0 (perfect compensation) returns math.inf.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    if not (math.isfinite(tau_uncompensated) and tau_uncompensated > 0):
        raise ValueError("tau_uncompensated must be finite and positive")
    if epsilon == 0.0:
        return math.inf
    return tau_uncompensated / epsilon


def soft_wall_dt(wall_width: float) -> float:
    """Verlet sub-step (s), at most DEFAULT_DT, that resolves a soft flank of
    ``wall_width`` in >= ~12 steps at 5 sigma of CALIBRATION_TEMPERATURE."""
    sigma_v = math.sqrt(CONSTANTS.k_B * CALIBRATION_TEMPERATURE
                        / CONSTANTS.m_atom)
    return min(DEFAULT_DT, 0.08 * wall_width / (5.0 * sigma_v))


def one_over_e_time(times: np.ndarray, values: np.ndarray) -> float:
    """First crossing of 1/e, linearly interpolated; inf if never crossed.
    ``times`` and ``values`` must be finite 1-d arrays of equal length."""
    times, values = (np.asarray(a, dtype=float) for a in (times, values))
    if not (times.ndim == 1 and values.shape == times.shape
            and np.isfinite(times).all() and np.isfinite(values).all()):
        raise ValueError("times and values must be finite 1-d arrays of "
                         "equal length")
    below = np.flatnonzero(values < ONE_OVER_E)
    if below.size == 0:
        return math.inf
    i = below[0]
    if i == 0:
        return float(times[0])
    t0, t1 = times[i - 1], times[i]
    v0, v1 = values[i - 1], values[i]
    return float(t0 + (v0 - ONE_OVER_E) / (v0 - v1) * (t1 - t0))


def _ring_shift(positions, ring: RingPotential):
    """Differential shift (rad/s) of the ring's light at each row's (x, y)."""
    rho = np.hypot(positions[:, 0], positions[:, 1])
    return differential_shift(potential_at(rho, ring) * CONSTANTS.k_B)


def simulate_coherence(
    ring: RingPotential,
    ensemble: AtomEnsemble,
    t_max: float = 3e-3,
    sample_dt: float = 2e-5,
    gravity: float = CONSTANTS.g_earth,
):
    """Dephasing curve C(t) = |mean exp(i phi_1)| of the given ``ensemble``
    in the soft-walled trap of ``ring``, whose light also shifts the clock
    transition, sampled every ``sample_dt``; returns (times, C).

    The run ends at its first sample i with C[i] < 1/e, the last sample
    ``one_over_e_time`` reads, and returns the samples 0..i; a curve that
    never falls that low runs to ``t_max``.  Accumulates the light-shift
    phase phi_1 with the trapezoidal rule one sample interval at a time as
    the atoms are propagated (memory O(n_atoms)); the ensemble is left
    alone.  The Verlet sub-step is ``soft_wall_dt`` of the ring's wall
    width.
    """
    if not 0 <= t_max < math.inf:
        raise ValueError("t_max must be finite and non-negative")
    if not 0 < sample_dt < math.inf:
        raise ValueError("sample_dt must be finite and positive")
    if len(ensemble) == 0:
        raise ValueError("the ensemble must hold at least one atom")
    trap = TrapGeometry(radius=ring.ring_radius, ring=ring)
    dt = soft_wall_dt(ring.wall_width)
    times = np.arange(0.0, t_max + 0.5 * sample_dt, sample_dt)
    phi = np.zeros(len(ensemble))
    omega_prev = _ring_shift(ensemble.positions, ring)
    coherence = np.empty(len(times))
    coherence[0] = 1.0
    current = ensemble
    for i in range(1, len(times)):
        current = propagate(current, times[i - 1], times[i], dt=dt, trap=trap,
                            gravity=gravity)
        omega = _ring_shift(current.positions, ring)
        phi += 0.5 * (omega + omega_prev) * (times[i] - times[i - 1])
        omega_prev = omega
        coherence[i] = np.abs(np.exp(1j * phi).mean())
        if coherence[i] < ONE_OVER_E:
            return times[:i + 1], coherence[:i + 1]
    return times, coherence


def calibrate_wall_width(
    target_tau: float,
    ring: RingPotential,
    n_atoms: int = 10_000,
    seed: int = 0,
    tol: float = 0.05,
) -> float:
    """Wall width whose microscopic dephasing 1/e time equals ``target_tau``.

    Bisection over CALIBRATION_BRACKET, down to an interval under 0.2 um,
    on the soft-walled trap built from the ring (default length, gravity
    on).  One thermal cloud of ``n_atoms`` at CALIBRATION_TEMPERATURE is
    drawn from ``seed`` per call; the trajectories themselves depend on the
    candidate width, so each candidate folds that same cloud through its
    own trap, and the search is deterministic.  ``simulate_coherence`` ends
    each candidate's C(t) at its first sample below 1/e; a candidate that
    never goes below runs to ``4 * target_tau`` and has tau = inf.
    Monotonicity (thicker wall -> longer light exposure per bounce ->
    shorter tau) is verified at the bracket ends before bisecting, not
    assumed.

    The attainable 1/e times form a staircase: coherent revival dips of
    C(t) make its 1/e crossing hop between dips as the width grows.  When
    no width meets ``tol``, the candidate closest to the target, the first
    evaluated of equals, is returned if it lies within ``2 * tol``;
    otherwise a CalibrationError reports the best achieved value.
    """
    if not 0 < target_tau < math.inf:
        raise ValueError("target_tau must be finite and positive")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")

    trap = TrapGeometry(radius=ring.ring_radius, ring=ring)
    # the candidates change only the wall width, which sampling ignores
    cloud = sample_thermal_ensemble(n_atoms, trap, CALIBRATION_TEMPERATURE,
                                    seed=seed)

    def tau_of(width: float) -> float:
        times, c = simulate_coherence(
            replace(ring, wall_width=width), cloud,
            t_max=4.0 * target_tau, sample_dt=min(2e-5, target_tau / 30.0))
        return one_over_e_time(times, c)

    lo, hi = CALIBRATION_BRACKET
    taus = {w: tau_of(w) for w in (hi, lo)}  # min takes the first of ties
    tau_lo, tau_hi = taus[lo], taus[hi]
    if not tau_lo > tau_hi:
        raise CalibrationError(
            f"tau is not decreasing in wall width over the bracket: "
            f"tau({lo:g}) = {tau_lo:g} s, tau({hi:g}) = {tau_hi:g} s")
    if not tau_hi <= target_tau <= tau_lo:
        raise CalibrationError(
            f"target {target_tau:g} s outside the reachable range "
            f"[{tau_hi:g}, {tau_lo:g}] s for widths [{lo:g}, {hi:g}] m")

    while hi - lo >= 0.2e-6:
        mid = 0.5 * (lo + hi)
        taus[mid] = tau_of(mid)
        if abs(taus[mid] - target_tau) <= tol * target_tau:
            return mid
        if taus[mid] > target_tau:
            lo = mid         # need a thicker wall for a shorter tau
        else:
            hi = mid
    best_width = min(taus, key=lambda w: abs(taus[w] - target_tau))
    best_err = abs(taus[best_width] - target_tau)
    if best_err <= 2.0 * tol * target_tau:
        return best_width
    raise CalibrationError(
        f"no wall width reaches the target within {2 * tol:.0%}: best "
        f"|tau - target| = {best_err:g} s at width {best_width:g} m")
