"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line for its criterion (bypassing pytest
capture) and then asserts it.  Heavy Monte-Carlo runs are shared through
module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest

from boxmem.analysis import find_extrema, fit_double_exponential, fit_exponential
from boxmem.constants import CONSTANTS
from boxmem.ensemble import mechanical_energy, propagate, sample_thermal_ensemble
from boxmem.geometry import RingPotential, TrapGeometry, potential_at
from boxmem.lightshift import (calibrate_wall_width, one_over_e_time,
                               optimal_compensation_power, residual_lifetime,
                               simulate_coherence)
from boxmem.pipeline import curve_to_csv, preset, run_scenario
from boxmem.render import render_svg
from boxmem.spinwave import collinear_delta_k, density_estimate, mode_overlap

WINDOW = 5            # smoothing for revival-extrema detection
NOISE_FLOOR = 0.004   # Monte-Carlo wiggle scale of R_overlap at 1e5 atoms


def report(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {number:02d}] {name}: "
              f"{'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def smoothed(y, window):
    pad = window // 2
    yp = np.concatenate([np.full(pad, y[0]), y, np.full(pad, y[-1])])
    return np.convolve(yp, np.ones(window) / window, mode="valid")


@pytest.fixture(scope="module")
def centered_timed():
    cfg = preset("centered")           # default 0-20 ms grid, 1e5 atoms
    t0 = time.perf_counter()
    res = run_scenario(cfg)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def centered_30ms():
    cfg = preset("centered", times=np.arange(0.0, 30.0001e-3, 0.4e-3))
    return run_scenario(cfg)


@pytest.fixture(scope="module")
def offset60_run():
    return run_scenario(preset("offset60"))


def first_dip_depth(curve):
    rep = find_extrema(curve.times, curve.overlap, window=WINDOW,
                       noise_floor=NOISE_FLOOR)
    mins = [(t, v) for t, v, k in rep.extrema if k == "min"]
    assert mins, "no dip found"
    return 1.0 - mins[0][1]


def test_criterion_01_overlap_oracle(capsys):
    # displaced equal-width 2-D Gaussians vs the closed form exp(-d^2/4s^2);
    # a narrow 3 um kernel keeps the estimator's bandwidth bias inside the
    # 1% budget, and displacing one common sample removes sampling noise
    sigma = 32.5e-6
    h = 3e-6
    extent, resolution = 150e-6, 128    # the scenario's default grid
    cell_area = (2.0 * extent / resolution) ** 2
    n = 100_000
    rng = np.random.default_rng(0)
    base = rng.normal(scale=sigma, size=(n, 2))
    w = np.full(n, n**-0.5)
    worst = 0.0
    slow = 0.0
    for d in (0.0, sigma / 2, sigma, 2 * sigma):
        t0 = time.perf_counter()
        [a] = density_estimate(w**2, base, extent, resolution, h)
        [b] = density_estimate(w**2, base + np.array([0.0, d]), extent,
                               resolution, h)
        r = mode_overlap(np.sqrt(a), np.sqrt(b), cell_area)
        slow = max(slow, time.perf_counter() - t0)
        expected = math.exp(-d**2 / (4 * (sigma**2 + h**2)))
        worst = max(worst, abs(r - expected) / expected)
    ok = worst < 0.01 and slow < 10.0
    report(capsys, 1, "transverse-overlap oracle", ok,
           f"worst relative error {worst:.2%} (budget 1%), "
           f"slowest case {slow:.2f} s (budget 10 s)")


def test_criterion_02_breathing_revivals(capsys, centered_30ms,
                                         centered_timed):
    curve = centered_30ms.curve
    rep = find_extrema(curve.times, curve.overlap, window=WINDOW,
                       noise_floor=NOISE_FLOOR)
    got = [(t * 1e3, k) for t, _, k in rep.extrema[:4]]
    targets = [(2.0, "min"), (3.2, "max"), (5.0, "min"), (8.2, "max")]
    pattern_ok = len(got) == 4 and all(
        k == tk and abs(t - tt) <= 0.6
        for (t, k), (tt, tk) in zip(got, targets))

    depth = first_dip_depth(curve)
    ys = smoothed(curve.overlap, WINDOW)
    late = ys[curve.times > 20e-3]
    amp_ratio = 0.5 * (late.max() - late.min()) / depth
    amp_ok = amp_ratio < 0.05

    _, elapsed = centered_timed
    runtime_ok = elapsed < 60.0
    ok = pattern_ok and amp_ok and runtime_ok
    report(capsys, 2, "breathing-revival pattern", ok,
           f"extrema {[(round(t, 2), k) for t, k in got]} vs "
           f"{targets} +-0.6 ms; late amplitude {amp_ratio:.1%} of first dip "
           f"(budget 5%); default run {elapsed:.1f} s (budget 60 s)")


def test_criterion_03_offset_enhancement(capsys, centered_timed, offset60_run):
    centered, _ = centered_timed
    d_center = first_dip_depth(centered.curve)
    d_offset = first_dip_depth(offset60_run.curve)
    ok = d_offset > d_center
    report(capsys, 3, "offset-mode dip enhancement", ok,
           f"first-dip depth {d_offset:.3f} (offset 60 um) vs "
           f"{d_center:.3f} (centered), same seed")


def test_criterion_04_gravity_ablation(capsys):
    # without gravity the curve must show no revival: no local maximum may
    # exceed the preceding local minimum by more than twice the bootstrap
    # noise floor.  (A single non-reviving dip from the initial ballistic
    # expansion of the tagged mode is expected and is not an oscillation.)
    cfg = preset("centered")
    cfg.gravity_on = False
    res = run_scenario(cfg, n_bootstrap=16)
    floor = 2.0 * float(np.max(res.bootstrap_se))
    rep = find_extrema(res.curve.times, res.curve.overlap, window=WINDOW,
                       noise_floor=floor)
    rises = []
    for prev, cur in zip(rep.extrema, rep.extrema[1:]):
        if cur[2] == "max" and prev[2] == "min":
            rises.append(cur[1] - prev[1])
    n_revive = sum(r > floor for r in rises)
    ok = n_revive == 0
    report(capsys, 4, "gravity ablation kills revivals", ok,
           f"{n_revive} reviving maxima above 2x bootstrap floor ({floor:.4f}); "
           f"surviving extrema {[(round(t * 1e3, 2), k) for t, _, k in rep.extrema]}")


def test_criterion_05_compensation_power(capsys):
    p = optimal_compensation_power(trap_power=1.9, trap_wavelength=775e-9)
    ok = 2.5e-6 <= p <= 4.6e-6
    report(capsys, 5, "compensation-beam power", ok,
           f"{p * 1e6:.3f} uW in [2.5, 4.6] uW")


def test_criterion_06_spinwave_wavelength(capsys):
    lam = 2.0 * math.pi / float(np.linalg.norm(collinear_delta_k()))
    lam_ok = abs(lam - 4.39e-2) <= 0.02 * 4.39e-2

    cfg = preset("longdecay", atoms=10_000)
    res = run_scenario(cfg)
    tau_phi2 = one_over_e_time(res.curve.times, res.phi2_coherence)
    phi2_ok = tau_phi2 >= 100e-3
    ok = lam_ok and phi2_ok
    report(capsys, 6, "spin-wave wavelength and axial coherence", ok,
           f"wavelength {lam * 100:.3f} cm (target 4.39 +- 2%); "
           f"phi2 1/e time {'inf' if math.isinf(tau_phi2) else f'{tau_phi2 * 1e3:.0f} ms'}"
           " (budget >= 100 ms)")


def _soft_tau(width, n_atoms=10_000, seed=0):
    ring = RingPotential(wall_width=width)
    trap = TrapGeometry(radius=ring.ring_radius, ring=ring)
    ens = sample_thermal_ensemble(n_atoms, trap, 15e-6, seed=seed)
    times, c = simulate_coherence(ring, ens, t_max=3e-3, sample_dt=2e-5)
    return one_over_e_time(times, c)


def test_criterion_07_dephasing_calibration(capsys):
    target = 0.67e-3
    width = calibrate_wall_width(target, RingPotential())
    tau_cal = _soft_tau(width)
    cal_ok = abs(tau_cal - target) <= 0.10 * target

    tau_pre = _soft_tau(20e-6)       # default wall width, no calibration
    pre_ok = 0.85e-3 / 3.0 <= tau_pre <= 0.85e-3 * 3.0

    r67 = residual_lifetime(target, 0.01)
    r28 = residual_lifetime(target, 0.024)
    res_ok = (abs(r67 - 67e-3) <= 0.01 * 67e-3
              and abs(r28 - 28e-3) <= 0.01 * 28e-3)
    ok = cal_ok and pre_ok and res_ok
    report(capsys, 7, "light-shift dephasing calibration", ok,
           f"calibrated width {width * 1e6:.2f} um -> tau "
           f"{tau_cal * 1e3:.3f} ms (target 0.67 +- 10%); uncalibrated "
           f"20 um wall -> {tau_pre * 1e3:.2f} ms (within 3x of 0.85); "
           f"residuals {r67 * 1e3:.1f} / {r28 * 1e3:.1f} ms")


def test_criterion_08_fit_recovery(capsys):
    rng = np.random.default_rng(0)
    worst_exp = 0.0
    for tau in (0.67e-3, 1.44e-3, 28e-3):
        recovered = []
        for _ in range(100):
            t = np.linspace(0.0, 4.0 * tau, 60)
            y = np.clip(np.exp(-t / tau)
                        + rng.normal(scale=0.02, size=len(t)), 1e-6, None)
            recovered.append(fit_exponential(t, y).params["tau"])
        worst_exp = max(worst_exp, abs(np.median(recovered) - tau) / tau)
    exp_ok = worst_exp <= 0.05

    t = np.linspace(0.0, 1.5, 150)
    clean = 0.5 * np.exp(-t / 0.16) + 0.5 * np.exp(-t / 0.58)
    t1s, t2s = [], []
    for _ in range(100):
        y = np.clip(clean + rng.normal(scale=0.05, size=len(t)), 1e-6, None)
        res = fit_double_exponential(t, y)
        t1s.append(res.params["tau1"])
        t2s.append(res.params["tau2"])
    err1 = abs(np.median(t1s) - 0.16) / 0.16
    err2 = abs(np.median(t2s) - 0.58) / 0.58
    dexp_ok = err1 <= 0.10 and err2 <= 0.10
    ok = exp_ok and dexp_ok
    report(capsys, 8, "decay-fit recovery", ok,
           f"exp worst median error {worst_exp:.2%} (budget 5%); dexp "
           f"median errors {err1:.2%} / {err2:.2%} (budget 10%)")


def test_criterion_09_determinism(capsys):
    cfg = preset("shortdecay", atoms=5000)
    a = run_scenario(cfg)
    b = run_scenario(preset("shortdecay", atoms=5000))
    c = run_scenario(preset("shortdecay", atoms=5000, workers=4))
    csv_ok = curve_to_csv(a.curve) == curve_to_csv(b.curve) \
        == curve_to_csv(c.curve)
    svg_ok = render_svg(a.curve) == render_svg(b.curve) == render_svg(c.curve)
    ok = csv_ok and svg_ok
    report(capsys, 9, "byte-identical determinism", ok,
           f"CSV identical={csv_ok}, SVG identical={svg_ok} across rerun "
           "and 4-worker run")


def test_criterion_10_invariant_suite(capsys):
    checks = {}

    # spin-wave weight normalization (taken from a real pipeline run)
    cfg = preset("shortdecay", atoms=2000)
    from boxmem.spinwave import assign_excitation
    trap = cfg.trap()
    ens = sample_thermal_ensemble(cfg.atoms, trap, cfg.temperature, seed=0)
    w = assign_excitation(ens.positions)
    checks["weight-norm"] = math.isclose(float(np.sum(w**2)), 1.0,
                                         rel_tol=1e-9)

    # overlap bounds and symmetry, unit-integral density
    rng = np.random.default_rng(1)
    w = np.full(5000, 5000**-0.5)
    grid = (150e-6, 128, 10e-6)         # extent, resolution, bandwidth
    cell_area = (300e-6 / 128) ** 2
    [a] = density_estimate(w**2, rng.normal(scale=30e-6, size=(5000, 2)),
                           *grid)
    [b] = density_estimate(w**2, rng.normal(scale=50e-6, size=(5000, 2)),
                           *grid)
    ra, rb = np.sqrt(a), np.sqrt(b)
    r_ab = mode_overlap(ra, rb, cell_area)
    r_ba = mode_overlap(rb, ra, cell_area)
    checks["overlap-bounds-symmetry"] = (
        0.0 <= r_ab <= 1.0 and math.isclose(r_ab, r_ba, rel_tol=1e-12)
        and mode_overlap(ra, ra, cell_area) == pytest.approx(1.0, rel=1e-9))
    checks["unit-integral-density"] = math.isclose(
        float(a.sum()) * cell_area, 1.0, rel_tol=1e-9)

    # soft-wall total-energy drift over 100 ms
    ring = RingPotential()
    soft = TrapGeometry(radius=ring.ring_radius, ring=ring)
    ens_s = sample_thermal_ensemble(200, soft, 15e-6, seed=2)

    def energy(e):
        rho = np.hypot(e.positions[:, 0], e.positions[:, 1])
        return (mechanical_energy(e, CONSTANTS.g_earth)
                + potential_at(rho, ring) * CONSTANTS.k_B
                + CONSTANTS.m_atom * CONSTANTS.g_earth * soft.radius)

    e0 = energy(ens_s)
    e1 = energy(propagate(ens_s, 0.0, 100e-3, dt=5e-6, trap=soft))
    drift = float(np.max(np.abs(e1 - e0)) / np.mean(e0))
    checks["soft-wall-energy-drift"] = drift < 1e-3

    # barometric density ratio over a 100 um drop
    big = sample_thermal_ensemble(300_000, trap, 15e-6, seed=3)
    y = big.positions[:, 1]
    n_lo = np.count_nonzero(np.abs(y + 50e-6) < 10e-6)
    n_hi = np.count_nonzero(np.abs(y - 50e-6) < 10e-6)
    scale = CONSTANTS.k_B * 15e-6 / (CONSTANTS.m_atom * CONSTANTS.g_earth)
    checks["barometric-ratio"] = (
        n_lo / n_hi == pytest.approx(math.exp(100e-6 / scale), rel=0.05))

    # dephasing coherence: C(0) = 1 and 0 <= C <= 1
    _, c = simulate_coherence(
        ring, sample_thermal_ensemble(500, soft, 15e-6, seed=4), t_max=1e-3)
    checks["coherence-bounds"] = (c[0] == 1.0
                                  and bool(np.all((c >= 0) & (c <= 1 + 1e-12))))

    failed = [k for k, v in checks.items() if not v]
    ok = not failed
    report(capsys, 10, "module invariant suite", ok,
           f"{len(checks) - len(failed)}/{len(checks)} invariants hold"
           + (f"; failed: {failed}" if failed else "")
           + f"; energy drift {drift:.1e}")
