import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import boxmem
from boxmem.cli import main
from boxmem.pipeline import read_curve_csv, write_curve_csv
from boxmem.render import _axis_mapping
from boxmem.spinwave import EfficiencyCurve


def make_curve_csv(path, tau=0.025, n=40, t_max=0.08):
    t = np.linspace(0.0, t_max, n)
    y = np.exp(-t / tau)
    curve = EfficiencyCurve(t, y, np.ones_like(t), np.ones_like(t), y)
    write_curve_csv(curve, str(path))
    return t, y


def test_simulate_preset(tmp_path, capsys):
    out = tmp_path / "c.csv"
    rc = main(["simulate", "--preset", "shortdecay", "--atoms", "500",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    curve = read_curve_csv(str(out))
    assert curve.total[0] == 1.0
    assert len(curve.times) == 51


def test_simulate_seed_changes_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["simulate", "--preset", "shortdecay", "--atoms", "300",
          "--seed", "0", "--out", str(a)])
    main(["simulate", "--preset", "shortdecay", "--atoms", "300",
          "--seed", "1", "--out", str(b)])
    assert a.read_text() != b.read_text()


def test_simulate_config_file(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[scenario]\natoms = 200\nt_start_ms = 0\n"
                   "t_stop_ms = 1\nt_step_ms = 0.5\n")
    out = tmp_path / "c.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(read_curve_csv(str(out)).times) == 3


def _src_env(**extra):
    """The environment of a child process that imports this checkout."""
    src = str(Path(boxmem.__file__).resolve().parents[1])
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_import_leaves_scipy_optimize_out():
    # every run, and the benchmark's set-up probe, pays for what the
    # package imports: scipy.optimize alone adds about 22 MB of RSS, and
    # the package needs no scipy module at all
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, boxmem; print(sorted(m for m in sys.modules"
         " if m.split('.')[0] == 'scipy'))"],
        env=_src_env(), capture_output=True, text=True, check=True,
        timeout=60)
    assert out.stdout.strip() == "[]"


def test_simulate_csv_same_under_blas_thread_counts(tmp_path):
    # the KDE blur is a BLAS product: its thread count must not move a byte
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / f"c{threads}.csv"
        subprocess.run(
            [sys.executable, "-m", "boxmem.cli", "simulate", "--preset",
             "centered", "--atoms", "2000", "--seed", "3", "--out", str(out)],
            env=_src_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads),
            capture_output=True, check=True, timeout=120)
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


def test_bootstrap_se_same_under_blas_thread_counts():
    # the replica grids' BLAS blur must not move a byte of the SE either
    code = ("import sys; from boxmem.pipeline import preset, run_scenario; "
            "r = run_scenario(preset('centered', atoms=2000, seed=3), "
            "n_bootstrap=4); "
            "sys.stdout.write(r.bootstrap_se.tobytes().hex())")
    se = [subprocess.run(
        [sys.executable, "-c", code],
        env=_src_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads),
        capture_output=True, text=True, check=True, timeout=120).stdout
        for threads in ("1", "2")]
    assert se[0] and se[0] == se[1]


def test_simulate_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[scenario]\natoms = 0\n")
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "c.csv")]) == 2
    assert "error" in capsys.readouterr().err


# the time rows' messages name the bad value
_TIME_ERRORS = {
    "t_start_ms = 0\nt_stop_ms = inf\nt_step_ms = 0.5":
        "times: t_stop_ms must be finite",
    "t_start_ms = 0\nt_stop_ms = 1\nt_step_ms = nan":
        "times: t_step_ms must be finite",
    "t_start_ms = nan\nt_stop_ms = 1\nt_step_ms = 0.5":
        "times: t_start_ms must be finite",
    "t_start_ms = 0\nt_stop_ms = 1e9\nt_step_ms = 1e-3":
        "times: more than 100000 sample times",
}


@pytest.mark.parametrize("line", [
    "mode_offset_y_um = nan", "mode_offset_x_um = inf",
    "trap_radius_um = inf", "temperature_uK = nan", "mode_waist_um = nan",
    "kde_bandwidth_um = inf", "tau_dephase_ms = nan", "trap_length_mm = inf",
    "loss_fast_fraction = nan", "workers = 0", "workers = 100000",
    "t_start_ms = 0\nt_stop_ms = inf\nt_step_ms = 0.5",
    "t_start_ms = 0\nt_stop_ms = 1\nt_step_ms = nan",
    "t_start_ms = nan\nt_stop_ms = 1\nt_step_ms = 0.5",
    "t_start_ms = 0\nt_stop_ms = 1e9\nt_step_ms = 1e-3",
    "grid_resolution = 1000000", "kde_bandwidth_um = 1e9",
])
def test_simulate_bad_config_key_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"[scenario]\natoms = 200\n{line}\n")
    out = tmp_path / "c.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert _TIME_ERRORS.get(line, "") in err
    assert not out.exists()


def test_simulate_too_many_atoms_exits_2(tmp_path, capsys):
    # a bound, not a multi-TiB allocation that fails with a traceback
    out = tmp_path / "c.csv"
    assert main(["simulate", "--preset", "centered", "--atoms",
                 "1000000000000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: atoms:") and "Traceback" not in err
    assert not out.exists()


def test_simulate_too_cold_exits_3(tmp_path, capsys):
    # at 1e-15 K the barometric rejection sampler would never accept a
    # position; the default 10^5 atoms must not make it slow to say so
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[scenario]\ntemperature_uK = 1e-9\n")
    out = tmp_path / "c.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "too cold" in err
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_simulate_seed_out_of_range_exits_2(tmp_path, capsys, seed):
    assert main(["simulate", "--preset", "centered", "--seed", str(seed),
                 "--out", str(tmp_path / "c.csv")]) == 2
    assert "seed:" in capsys.readouterr().err


def test_simulate_nonfinite_gravity_exits_2(tmp_path, capsys):
    # the barometric rejection sampler never accepts at NaN gravity, and
    # gravity acts along -y, so a negative one is refused too
    cfg = tmp_path / "s.cfg"
    for g in ("nan", "-9.81"):
        cfg.write_text(f"[scenario]\natoms = 100\ngravity_m_s2 = {g}\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "c.csv")]) == 2
        err = capsys.readouterr().err
        assert "gravity:" in err and "Traceback" not in err


def test_fit_exp(tmp_path, capsys):
    path = tmp_path / "c.csv"
    make_curve_csv(path, tau=0.025)
    assert main(["fit", "--input", str(path), "--model", "exp"]) == 0
    out = capsys.readouterr().out
    tau_ms = float(re.search(r"tau_ms=([0-9.eE+-]+)", out).group(1))
    assert tau_ms == pytest.approx(25.0, rel=1e-3)
    assert "converged=true" in out


def test_fit_dexp(tmp_path, capsys):
    path = tmp_path / "c.csv"
    t = np.linspace(0.0, 1.0, 120)
    y = 0.5 * np.exp(-t / 0.16) + 0.5 * np.exp(-t / 0.58)
    curve = EfficiencyCurve(t, y, np.ones_like(t), np.ones_like(t), y)
    write_curve_csv(curve, str(path))
    assert main(["fit", "--input", str(path), "--model", "dexp"]) == 0
    out = capsys.readouterr().out
    tau1 = float(re.search(r"tau1_ms=([0-9.eE+-]+)", out).group(1))
    tau2 = float(re.search(r"tau2_ms=([0-9.eE+-]+)", out).group(1))
    assert tau1 == pytest.approx(160.0, rel=0.02)
    assert tau2 == pytest.approx(580.0, rel=0.02)


def test_fit_too_few_rows_exits_2(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("t_ms,R_overlap,dephasing_factor,loss_factor,R_total\n"
                    "0,1,1,1,1\n")
    assert main(["fit", "--input", str(path)]) == 2


@pytest.mark.parametrize("command", ["exp", "dexp", "extrema", "render"])
def test_fit_nonfinite_csv_exits_2(tmp_path, capsys, command):
    path = tmp_path / "c.csv"
    make_curve_csv(path)
    lines = path.read_text().splitlines()
    lines[5] = "0.01,nan,1,1,nan"
    path.write_text("\n".join(lines) + "\n")
    svg = tmp_path / "c.svg"
    argv = {"exp": ["fit", "--model", "exp"],
            "dexp": ["fit", "--model", "dexp"], "extrema": ["extrema"],
            "render": ["render", "--out", str(svg)]}
    assert main(argv[command] + ["--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert "must be finite" in captured.err
    assert captured.out == ""
    assert not svg.exists()


def test_fit_missing_file_exits_2(tmp_path):
    assert main(["fit", "--input", str(tmp_path / "no.csv")]) == 2


def test_fit_amplitude_overflow_exits_2(tmp_path, capsys):
    # the log-linear intercept at t = 0 is about 2993, past exp's float range
    path = tmp_path / "c.csv"
    path.write_text("t_ms,R_overlap,dephasing_factor,loss_factor,R_total\n"
                    "10,1,1,1,1e300\n11,1,1,1,1e200\n12,1,1,1,1e100\n")
    assert main(["fit", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_fit_squared_residual_overflow_exits_3(tmp_path, capsys):
    # every value is finite, but the squared residuals overflow, so the
    # standard errors and the rss would print as nan and inf
    path = tmp_path / "c.csv"
    path.write_text("t_ms,R_overlap,dephasing_factor,loss_factor,R_total\n"
                    "0,1,1,1,1e300\n1,1,1,1,1e299\n2,1,1,1,1e298\n")
    assert main(["fit", "--input", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "numerical failure: non-finite fit: amplitude=1e+300 amplitude_err=nan;"
        " tau_ms=0.434294 tau_ms_err=nan; rss=inf\n")


@pytest.mark.parametrize("exc", [OverflowError, ZeroDivisionError,
                                 FloatingPointError])
def test_arithmetic_error_exits_3(tmp_path, capsys, monkeypatch, exc):
    def failing(*args, **kwargs):
        raise exc("boom")

    monkeypatch.setattr("boxmem.cli.fit_exponential", failing)
    path = tmp_path / "c.csv"
    make_curve_csv(path)
    assert main(["fit", "--input", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: boom\n"


def test_extrema_cli(tmp_path, capsys):
    path = tmp_path / "osc.csv"
    t = np.linspace(0.0, 10e-3, 400)
    y = 0.6 + 0.3 * np.cos(2 * math.pi * t / 4e-3)
    curve = EfficiencyCurve(t, y, np.ones_like(t), np.ones_like(t), y)
    write_curve_csv(curve, str(path))
    assert main(["extrema", "--input", str(path), "--column", "R_overlap",
                 "--noise-floor", "0.05"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith("kind=")]
    kinds = [ln.split()[0] for ln in lines]
    assert kinds == ["kind=min", "kind=max", "kind=min", "kind=max"]
    t_first = float(re.search(r"t_ms=([0-9.eE+-]+)", lines[0]).group(1))
    assert t_first == pytest.approx(2.0, abs=0.1)


def test_extrema_none_found(tmp_path, capsys):
    path = tmp_path / "mono.csv"
    make_curve_csv(path)
    assert main(["extrema", "--input", str(path)]) == 0
    assert "no extrema" in capsys.readouterr().out


def test_compensation_cli(capsys):
    assert main(["compensation", "--power", "1.9", "--trap-nm", "775"]) == 0
    out = capsys.readouterr().out
    p = float(re.search(r"optimal_comp_power_uW=([0-9.eE+-]+)", out).group(1))
    assert p == pytest.approx(3.286, rel=1e-3)
    assert "epsilon=0.01 residual_tau_ms=67" in out


def test_compensation_red_detuned_exits_2(capsys):
    assert main(["compensation", "--power", "1.9", "--trap-nm", "790"]) == 2


def test_compensation_near_resonance_exits_2(capsys):
    assert main(["compensation", "--power", "1.9",
                 "--trap-nm", "780.2411"]) == 2


_SHORT_RUN = "atoms = 300\nt_start_ms = 0\nt_stop_ms = 1\nt_step_ms = 0.5\n"


# a 7-row curve at the times of its name, in ms
_TIMES_MS = {"unsorted": [0, 0.4, 0.2, 1.2, 0.8, 1.6, 1.4], "equal": [0.5] * 7}


# argv (with {csv}, a decaying curve, {unsorted} and {equal}, curves at
# _TIMES_MS, {cfg}, a scenario file of the row's lines after _SHORT_RUN, and
# {out}, an output path), those lines, exit code
@pytest.mark.parametrize("argv, lines, code", [
    ("compensation --power 1.9 --trap-nm 0", "", 2),
    ("compensation --power nan --trap-nm 775", "", 2),
    ("compensation --power 1.9 --trap-nm nan", "", 2),
    ("compensation --power 1.9 --trap-nm 775 --tau0-ms nan", "", 2),
    ("compensation --power 1.9 --trap-nm 775 --tau0-ms inf", "", 2),
    ("compensation --power 1.9 --trap-nm 775 --tau0-ms 0", "", 2),
    # finite inputs whose scaled results overflow print no inf
    ("compensation --power 1.7e308 --trap-nm 775", "", 3),
    ("compensation --power 1.9 --trap-nm 775 --tau0-ms 1e308", "", 3),
    ("extrema --input {csv} --noise-floor nan", "", 2),
    ("extrema --input {csv} --noise-floor -0.1", "", 2),
    ("extrema --input {csv} --window 41", "", 2),    # the CSV has 40 rows
    ("fit --input {csv} --model dexp --offset", "", 2),     # exp only
    # times that do not strictly increase: no extremum, no polyfit warning
    ("extrema --input {unsorted}", "", 2),
    ("extrema --input {equal}", "", 2),
    ("fit --input {equal}", "", 2),
    ("fit --input {equal} --model dexp", "", 2),
    # scenarios run in the hard box: the soft-wall keys are unknown
    ("simulate --config {cfg} --out {out}", "dt_us = 0", 2),
    ("simulate --config {cfg} --out {out}",
     "preset = centered\nwall_model = soft", 2),
])
def test_cli_input_table(tmp_path, capsys, argv, lines, code):
    csv, cfg, out = tmp_path / "c.csv", tmp_path / "s.cfg", tmp_path / "o.csv"
    make_curve_csv(csv)
    cfg.write_text(f"[scenario]\n{_SHORT_RUN}{lines}\n")
    paths = dict(csv=csv, cfg=cfg, out=out)
    for name, t_ms in _TIMES_MS.items():
        t = np.array(t_ms) * 1e-3
        y = np.array([1.0, 0.5, 0.9, 0.2, 0.8, 0.1, 0.7])
        paths[name] = tmp_path / f"{name}.csv"
        write_curve_csv(EfficiencyCurve(t, y, np.ones(7), np.ones(7), y),
                        str(paths[name]))
    rc = main([a.format(**paths) for a in argv.split()])
    captured = capsys.readouterr()
    assert rc == code, captured.err
    assert "Traceback" not in captured.err
    if code:
        assert captured.out == "" and captured.err
    else:
        assert captured.out.startswith("wrote ")


def test_render_round_trip(tmp_path):
    path = tmp_path / "c.csv"
    t, y = make_curve_csv(path)
    svg = tmp_path / "c.svg"
    assert main(["render", "--input", str(path), "--out", str(svg)]) == 0
    text = svg.read_text()
    m = re.search(r'data-column="R_total" points="([^"]+)"', text)
    pts = np.array([[float(v) for v in p.split(",")]
                    for p in m.group(1).split()])
    x0, sx, y0, sy = _axis_mapping(t * 1e3, y, log_y=False)
    t_back = (pts[:, 0] - x0) / sx
    y_back = (pts[:, 1] - y0) / sy
    assert np.allclose(t_back, t * 1e3, atol=0.01)
    assert np.allclose(y_back, y, atol=1e-3)


def test_render_deterministic(tmp_path):
    path = tmp_path / "c.csv"
    make_curve_csv(path)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    main(["render", "--input", str(path), "--out", str(a)])
    main(["render", "--input", str(path), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_render_log_y(tmp_path):
    path = tmp_path / "c.csv"
    make_curve_csv(path)
    svg = tmp_path / "log.svg"
    assert main(["render", "--input", str(path), "--out", str(svg),
                 "--log-y"]) == 0
    assert "(log)" in svg.read_text()
