import math
import tracemalloc

import numpy as np
import pytest

from boxmem.errors import ConfigurationError
from boxmem.config import parse_scenario_file
from boxmem.ensemble import propagate, sample_thermal_ensemble
from boxmem.pipeline import (CSV_HEADER, MAX_WORKERS, PRESETS, ScenarioConfig,
                             curve_to_csv, preset, read_curve_csv,
                             run_scenario, write_curve_csv)
from boxmem.spinwave import (assign_excitation, collinear_delta_k,
                             density_estimate, mode_overlap)

SMALL = dict(atoms=2000, times=np.arange(0.0, 4.0001e-3, 1e-3))


def small_config(**overrides):
    return ScenarioConfig(**{**SMALL, **overrides})


def test_presets_exist_and_validate():
    for name in ("centered", "offset60", "shortdecay", "longdecay"):
        PRESETS[name].validate()
    assert preset("offset60").mode_offset_y == pytest.approx(60e-6)
    assert preset("centered", atoms=7).atoms == 7
    with pytest.raises(ConfigurationError):
        preset("nope")


def test_config_validation_messages():
    bad = [small_config(atoms=0), small_config(gravity=-9.81),
           small_config(spatial="gauss"), small_config(workers=0),
           small_config(workers=MAX_WORKERS + 1),
           small_config(times=np.array([2e-3, 1e-3])),
           small_config(times=np.array([0.0, math.inf])),
           small_config(grid_resolution=4), small_config(tau_dephase=0.0),
           small_config(trap_radius=math.inf),
           small_config(mode_offset_y=math.nan)]
    for cfg in bad:
        with pytest.raises(ConfigurationError):
            cfg.validate()


@pytest.mark.parametrize("name", ["atoms", "seed", "grid_resolution",
                                  "workers"])
@pytest.mark.parametrize("value", [True, 1.5, 64.0, np.float64(8), "8"])
def test_config_integer_fields_refuse_other_types(name, value):
    # a float or bool seed would run as its integer part, and a float grid
    # resolution would fail only after sampling and propagation
    small_config(**{name: np.int64(8)}).validate()
    with pytest.raises(ConfigurationError, match=f"{name}: must be an integer"):
        small_config(**{name: value}).validate()


def test_curve_first_row_normalized():
    res = run_scenario(small_config())
    c = res.curve
    assert c.overlap[0] == 1.0
    assert c.dephasing[0] == 1.0
    assert c.loss[0] == 1.0
    assert c.total[0] == 1.0
    assert np.allclose(c.total, c.overlap * c.dephasing * c.loss, rtol=1e-9)


def test_phi2_coherence_stays_high():
    # the collinear spin wave (4.4 cm wavelength) barely dephases over
    # micron-scale motion: phi_2 coherence should remain essentially 1
    res = run_scenario(small_config())
    assert res.phi2_coherence[0] == pytest.approx(1.0)
    assert np.all(res.phi2_coherence > 0.999)


def test_phi2_coherence_matches_propagated_positions():
    cfg = small_config()
    res = run_scenario(cfg)
    trap = cfg.trap()
    g = cfg.effective_gravity()
    ens = sample_thermal_ensemble(cfg.atoms, trap, cfg.temperature, gravity=g,
                                  seed=cfg.seed, spatial=cfg.spatial)
    w = assign_excitation(ens.positions,
                          (cfg.mode_offset_x, cfg.mode_offset_y),
                          cfg.mode_waist)
    expected, current, t = [], ens, 0.0
    for ti in cfg.times:
        if ti > t:
            current = propagate(current, t, ti, trap=trap, gravity=g)
            t = ti
        phase = (current.positions - ens.positions) @ collinear_delta_k()
        expected.append(np.abs(np.exp(1j * phase) @ w**2))
    # the general phase delta_k . (r - r0) has the bits of run_scenario's
    # k_z (z - z0), as delta_k's transverse components are exactly zero
    assert np.array_equal(res.phi2_coherence, expected)
    assert np.all(1.0 - res.phi2_coherence[1:] > 1e-9)    # it does dephase


def test_peak_memory_independent_of_sample_count():
    # the trajectory is folded per sample time, never stored: 41 sample
    # times need no more memory than 11 (a stored (n_times, n_atoms, 3)
    # trajectory would add 2 x 30 x 20000 x 3 x 8 B = 29 MB)
    peaks = []
    for n_times in (11, 41):
        cfg = small_config(atoms=20_000, times=np.arange(n_times) * 1e-4)
        tracemalloc.start()
        try:
            run_scenario(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 1e6


def test_byte_identical_reruns():
    a = curve_to_csv(run_scenario(small_config()).curve)
    b = curve_to_csv(run_scenario(small_config()).curve)
    assert a == b
    c = curve_to_csv(run_scenario(small_config(seed=1)).curve)
    assert a != c


def test_bootstrap_leaves_the_base_curve_alone():
    a = curve_to_csv(run_scenario(small_config(), n_bootstrap=0).curve)
    b = curve_to_csv(run_scenario(small_config(), n_bootstrap=3).curve)
    assert a == b


@pytest.mark.parametrize("n_bootstrap", [1, -1, True, False, 2.0, "2", None])
def test_bad_bootstrap_count_rejected(n_bootstrap):
    with pytest.raises(ValueError, match="n_bootstrap must be an int"):
        run_scenario(small_config(), n_bootstrap=n_bootstrap)


def _overlaps_with_fresh_grids(cfg, n_bootstrap):
    """Reference for run_scenario's overlaps, (1 + n_bootstrap, n_times):
    every sample time's grids come from a density_estimate call of their
    own, without ``out``."""
    trap, g = cfg.trap(), cfg.effective_gravity()
    ens = sample_thermal_ensemble(cfg.atoms, trap, cfg.temperature, gravity=g,
                                  seed=cfg.seed, spatial=cfg.spatial)
    w = assign_excitation(ens.positions,
                          (cfg.mode_offset_x, cfg.mode_offset_y),
                          cfg.mode_waist)
    rng = np.random.Generator(np.random.Philox(
        key=np.uint64(cfg.seed) ^ np.uint64(0x626F6F74)))
    counts = np.array([
        np.bincount(rng.integers(0, cfg.atoms, size=cfg.atoms),
                    minlength=cfg.atoms) for _ in range(n_bootstrap)],
        dtype=float).reshape(n_bootstrap, cfg.atoms)
    overlaps, current, t = [], ens, 0.0
    for ti in cfg.times:
        if ti > t:
            current = propagate(current, t, ti, trap=trap, gravity=g)
            t = ti
        grids = density_estimate(w, current.positions[:, :2], counts=counts)
        if not overlaps:
            first = grids
        overlaps.append([mode_overlap(u0, u) for u0, u in zip(first, grids)])
    return np.array(overlaps).T


@pytest.mark.parametrize("n_bootstrap", [0, 4])
def test_reused_grid_stack_keeps_every_overlap(n_bootstrap):
    # run_scenario writes every grid after the first sample's into one
    # stack, so each sample's overlaps must be taken before the next sample
    # overwrites it: overlaps read later would all be the last sample's
    cfg = small_config(atoms=3000)
    res = run_scenario(cfg, n_bootstrap=n_bootstrap)
    want = _overlaps_with_fresh_grids(cfg, n_bootstrap)
    assert len(cfg.times) >= 3 and np.all(want[:, 1:] < 1.0 - 1e-6)
    assert res.curve.overlap.tobytes() == (want[0] / want[0, 0]).tobytes()
    if n_bootstrap:
        se = (want[1:] / want[1:, :1]).std(axis=0, ddof=1)
        assert res.bootstrap_se.tobytes() == se.tobytes()


def test_worker_count_does_not_change_output():
    a = curve_to_csv(run_scenario(small_config(workers=1)).curve)
    b = curve_to_csv(run_scenario(small_config(workers=4)).curve)
    assert a == b


def test_csv_round_trip(tmp_path):
    res = run_scenario(small_config())
    path = tmp_path / "curve.csv"
    write_curve_csv(res.curve, str(path))
    text = path.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert "\r" not in text
    back = read_curve_csv(str(path))
    for name in ("times", "overlap", "dephasing", "loss", "total"):
        assert np.allclose(getattr(back, name), getattr(res.curve, name),
                           rtol=1e-8)


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_curve_csv(str(path))


def test_bootstrap_noise_floor():
    res = run_scenario(small_config(), n_bootstrap=8)
    assert res.bootstrap_se is not None
    assert res.bootstrap_se.shape == res.curve.times.shape
    assert np.all(res.bootstrap_se >= 0.0)
    assert np.all(res.bootstrap_se < 0.1)


def test_config_file_parsing(tmp_path):
    p = tmp_path / "scen.cfg"
    p.write_text("""[scenario]
preset = centered
atoms = 500            # comment
temperature_uK = 10
mode_offset_y_um = 25
spatial = thermal
gravity = off
t_start_ms = 0
t_stop_ms = 2
t_step_ms = 0.5
""")
    cfg = parse_scenario_file(str(p))
    assert cfg.atoms == 500
    assert cfg.temperature == pytest.approx(10e-6)
    assert cfg.mode_offset_y == pytest.approx(25e-6)
    assert cfg.spatial == "thermal"
    assert not cfg.gravity_on
    assert cfg.effective_gravity() == 0.0
    assert np.allclose(cfg.times, [0.0, 0.5e-3, 1.0e-3, 1.5e-3, 2.0e-3])

    # every key, and the field and SI value it sets
    every = [
        ("atoms", "300", "atoms", 300),
        ("temperature_uK", "12", "temperature", 12e-6),
        ("trap_radius_um", "90", "trap_radius", 90e-6),
        ("trap_length_mm", "2.5", "trap_length", 2.5e-3),
        ("gravity", "on", "gravity_on", True),
        ("gravity_m_s2", "9.5", "gravity", 9.5),
        ("mode_offset_x_um", "-5", "mode_offset_x", -5e-6),
        ("mode_offset_y_um", "7", "mode_offset_y", 7e-6),
        ("mode_waist_um", "60", "mode_waist", 60e-6),
        ("spatial", "uniform", "spatial", "uniform"),
        ("tau_dephase_ms", "30", "tau_dephase", 30e-3),
        ("loss_fast_fraction", "0.4", "loss_fast_fraction", 0.4),
        ("loss_tau_fast_ms", "150", "loss_tau_fast", 0.15),
        ("loss_tau_slow_ms", "600", "loss_tau_slow", 0.6),
        ("grid_extent_um", "140", "grid_extent", 140e-6),
        ("grid_resolution", "64", "grid_resolution", 64),
        ("kde_bandwidth_um", "9", "kde_bandwidth", 9e-6),
        ("seed", "11", "seed", 11),
        ("workers", "2", "workers", 2),
    ]
    p.write_text("[scenario]\n" + "".join(f"{key} = {raw}\n"
                                          for key, raw, _, _ in every))
    cfg = parse_scenario_file(str(p))
    for key, _, name, value in every:
        assert getattr(cfg, name) == pytest.approx(value, rel=1e-15), key


def test_config_file_errors(tmp_path):
    cases = [
        "[scenario]\nunknown_key = 1\n",
        "[scenario]\natoms = many\n",
        "[scenario]\ngravity = sideways\n",
        "[scenario]\nt_start_ms = 0\n",      # incomplete time triple
        "[other]\natoms = 5\n",              # missing section
        "[scenario]\npreset = nope\n",
    ]
    for i, text in enumerate(cases):
        p = tmp_path / f"bad{i}.cfg"
        p.write_text(text)
        with pytest.raises(ConfigurationError):
            parse_scenario_file(str(p))
    with pytest.raises(ConfigurationError):
        parse_scenario_file(str(tmp_path / "missing.cfg"))
    for old in ("wall_model = soft", "dt_us = 5"):   # soft-wall keys, removed
        p.write_text(f"[scenario]\n{old}\n")
        with pytest.raises(ConfigurationError, match="unknown key"):
            parse_scenario_file(str(p))
