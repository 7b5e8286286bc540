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
from dataclasses import dataclass, replace

import numpy as np

from .constants import CONSTANTS
from .ensemble import DEFAULT_DT, AtomEnsemble, propagate, sample_thermal_ensemble
from .errors import CalibrationError, NearResonanceError
from .geometry import RingPotential, TrapGeometry, potential_at

GAMMA_D2 = 2.0 * math.pi * 6.0666e6  # rad/s, 87Rb D2 natural linewidth
CALIBRATION_TEMPERATURE = 15e-6  # K, the paper's cloud
CALIBRATION_MAX_ITER = 40  # bisections; the stop for an infinite bracket end
ONE_OVER_E = 1.0 / math.e  # the coherence that defines the dephasing time


@dataclass(frozen=True)
class CompensationSpec:
    """Trap beam plus a weak compensation beam tuned midway between the
    ground hyperfine components of the D2 line."""

    trap_power: float = 1.9            # W
    trap_wavelength: float = 775e-9    # m

    def __post_init__(self):
        if not (math.isfinite(self.trap_power) and self.trap_power >= 0):
            raise ValueError("trap_power must be finite and non-negative")
        if not (math.isfinite(self.trap_wavelength)
                and self.trap_wavelength > 0):
            raise ValueError("trap_wavelength must be finite and positive")


def trap_detuning(wavelength: float) -> float:
    """Angular detuning (rad/s) of the trap light from the D2 line."""
    return 2.0 * math.pi * (CONSTANTS.c / wavelength
                            - CONSTANTS.c / CONSTANTS.lambda_D2)


def differential_shift(U: float, detuning: float = trap_detuning(775e-9)):
    """Differential clock-transition shift (rad/s) for potential energy U (J).

    Linear in U; positive (|F=2> raised relative to |F=1>) inside
    blue-detuned light.  Vectorized over U.
    """
    if detuning == 0:
        raise ValueError("detuning must be non-zero")
    return (np.asarray(U, dtype=float) / CONSTANTS.hbar) \
        * (CONSTANTS.omega_hf / detuning)


def optimal_compensation_power(spec: CompensationSpec) -> float:
    """Compensation-beam power (W) that cancels the trap's differential shift,
    assuming identical spatial modes."""
    delta = trap_detuning(spec.trap_wavelength)
    if delta <= 0:
        raise ValueError("trap wavelength must be blue of the D2 line")
    if spec.trap_wavelength > CONSTANTS.lambda_D2 * 0.99 \
            and abs(delta) < 10.0 * GAMMA_D2:
        raise NearResonanceError(
            "trap within 10 linewidths of the D2 line; far-detuned model invalid")
    return spec.trap_power * (CONSTANTS.omega_hf / (2.0 * delta)) ** 2


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


@dataclass(frozen=True)
class ShiftField:
    """Transverse map r -> delta_omega(r) (rad/s) of the 775 nm ring light;
    ``epsilon`` scales it for compensated operation."""

    ring: RingPotential
    epsilon: float = 1.0

    def at_radius(self, rho):
        U = potential_at(rho, self.ring) * CONSTANTS.k_B
        return self.epsilon * differential_shift(U)

    def at(self, xy):
        """Shift at each row's (x, y); columns past y, such as z, are unread."""
        xy = np.asarray(xy, dtype=float)
        return self.at_radius(np.hypot(xy[..., 0], xy[..., 1]))


def soft_wall_dt(wall_width: float) -> float:
    """Verlet sub-step (s), at most DEFAULT_DT, that resolves a soft flank of
    ``wall_width`` in >= ~12 steps at 5 sigma of CALIBRATION_TEMPERATURE."""
    sigma_v = math.sqrt(CONSTANTS.k_B * CALIBRATION_TEMPERATURE
                        / CONSTANTS.m_atom)
    return min(DEFAULT_DT, 0.08 * wall_width / (5.0 * sigma_v))


def one_over_e_time(times: np.ndarray, values: np.ndarray) -> float:
    """First crossing of 1/e, linearly interpolated; inf if never crossed."""
    target = ONE_OVER_E
    below = np.flatnonzero(values < target)
    if below.size == 0:
        return math.inf
    i = below[0]
    if i == 0:
        return float(times[0])
    t0, t1 = times[i - 1], times[i]
    v0, v1 = values[i - 1], values[i]
    return float(t0 + (v0 - target) / (v0 - v1) * (t1 - t0))


def simulate_coherence(
    field: ShiftField,
    trap: TrapGeometry,
    ensemble: AtomEnsemble,
    t_max: float = 3e-3,
    sample_dt: float = 2e-5,
    dt: float = DEFAULT_DT,
    gravity: float = CONSTANTS.g_earth,
    *,
    stop_below: float | None = None,
):
    """Dephasing curve C(t) = |mean exp(i phi_1)| of the given ``ensemble``
    in the trap, every ``sample_dt`` up to ``t_max``; returns (times, C).

    Accumulates the light-shift phase phi_1 with the trapezoidal rule one
    sample interval at a time as the atoms are propagated (memory
    O(n_atoms)), so long storage times are cheap; the ensemble is left alone.
    With ``stop_below`` set, the run stops at the first sample i with
    C[i] < stop_below and returns the samples 0..i; each of them has the
    bits of the full run's, so ``stop_below=1/e`` leaves
    ``one_over_e_time`` unchanged.
    """
    times = np.arange(0.0, t_max + 0.5 * sample_dt, sample_dt)
    phi = np.zeros(len(ensemble))
    omega_prev = field.at(ensemble.positions)
    coherence = np.empty(len(times))
    coherence[0] = 1.0
    current = ensemble
    for i in range(1, len(times)):
        current = propagate(current, times[i - 1], times[i], dt=dt, trap=trap,
                            gravity=gravity)
        omega = field.at(current.positions)
        phi += 0.5 * (omega + omega_prev) * (times[i] - times[i - 1])
        omega_prev = omega
        coherence[i] = np.abs(np.exp(1j * phi).mean())
        if stop_below is not None and coherence[i] < stop_below:
            return times[:i + 1], coherence[:i + 1]
    return times, coherence


def calibrate_wall_width(
    target_tau: float,
    ring: RingPotential,
    n_atoms: int = 10_000,
    seed: int = 0,
    bracket: tuple[float, float] = (5e-6, 60e-6),
    tol: float = 0.05,
) -> float:
    """Wall width whose microscopic dephasing 1/e time equals ``target_tau``.

    Bisection over ``bracket`` on the soft-walled trap built from the ring
    (default length, gravity on).  One thermal cloud of ``n_atoms`` at
    CALIBRATION_TEMPERATURE is drawn from ``seed`` per call; the
    trajectories themselves depend on the candidate width, so each
    candidate folds that same cloud through its own trap, and the search is
    deterministic.  Each candidate's C(t) runs only up to its first sample
    below 1/e, the last one its 1/e time reads; a candidate that never
    goes below runs to ``4 * target_tau`` and has tau = inf.  Monotonicity
    (thicker wall -> longer light exposure per bounce -> shorter tau) is
    verified at the bracket endpoints before bisecting, not assumed.

    The attainable 1/e times form a staircase: coherent revival dips of
    C(t) make its 1/e crossing hop between dips as the width grows.  When
    no width meets ``tol``, the candidate closest to the target is
    returned as long as it lies within ``2 * tol``; otherwise a
    CalibrationError reports the best achieved value.
    """
    if target_tau <= 0:
        raise ValueError("target_tau must be positive")

    trap = TrapGeometry(radius=ring.ring_radius, ring=ring)
    # the candidates change only the wall width, which sampling ignores
    cloud = sample_thermal_ensemble(n_atoms, trap, CALIBRATION_TEMPERATURE,
                                    seed=seed)

    def tau_of(width: float) -> float:
        cand_ring = replace(ring, wall_width=width)
        times, c = simulate_coherence(
            ShiftField(cand_ring), replace(trap, ring=cand_ring), cloud,
            t_max=4.0 * target_tau, sample_dt=min(2e-5, target_tau / 30.0),
            dt=soft_wall_dt(width), stop_below=ONE_OVER_E)
        return one_over_e_time(times, c)

    lo, hi = bracket
    tau_lo, tau_hi = tau_of(lo), tau_of(hi)
    if not tau_lo > tau_hi:
        raise CalibrationError(
            f"tau is not decreasing in wall width over the bracket: "
            f"tau({lo:g}) = {tau_lo:g} s, tau({hi:g}) = {tau_hi:g} s")
    if not tau_hi <= target_tau <= tau_lo:
        raise CalibrationError(
            f"target {target_tau:g} s outside the reachable range "
            f"[{tau_hi:g}, {tau_lo:g}] s for widths [{lo:g}, {hi:g}] m")

    best_width, best_err = hi, abs(tau_hi - target_tau)
    if abs(tau_lo - target_tau) < best_err:
        best_width, best_err = lo, abs(tau_lo - target_tau)
    for _ in range(CALIBRATION_MAX_ITER):
        if hi - lo < 0.2e-6:
            break
        mid = 0.5 * (lo + hi)
        tau_mid = tau_of(mid)
        if abs(tau_mid - target_tau) <= tol * target_tau:
            return mid
        if abs(tau_mid - target_tau) < best_err:
            best_width, best_err = mid, abs(tau_mid - target_tau)
        if tau_mid > target_tau:
            lo = mid         # need a thicker wall for a shorter tau
        else:
            hi = mid
    if best_err <= 2.0 * tol * target_tau:
        return best_width
    raise CalibrationError(
        f"no wall width reaches the target within {2 * tol:.0%}: best "
        f"|tau - target| = {best_err:g} s at width {best_width:g} m")
