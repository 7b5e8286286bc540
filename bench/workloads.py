"""The benchmark's workloads.

Each workload builds its inputs from a seed, runs one closed-loop
iteration through the public ``boxmem`` modules, and checks the output.
Calls go through module attributes (``pipeline.run_scenario``, ...) so the
tracer's wrappers see them.
"""

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from boxmem import analysis, lightshift, pipeline, render
from boxmem.geometry import RingPotential

# Sizes are below the presets' 10^5 atoms so that a 20 s run holds several
# iterations and a full set of runs fits in about an hour.  Each keeps its
# layer mix; traced at these sizes on a 2-vCPU VM, propagate was 91 % of
# breathing, KDE 47-54 % of bootstrap against 38-45 % for propagate, and
# the soft-wall force 52 % of calibration with propagate at 40 %.
BREATHING_ATOMS = 30_000
BOOTSTRAP_ATOMS = 10_000
BOOTSTRAP_REPS = 16
CALIBRATION_ATOMS = 4_000
# The bisection path of calibrate_wall_width depends on the ensemble sample:
# over seeds 0-7 at 3000 atoms it took 5 to 9 coherence evaluations (2.0 to
# 5.6 s), which would make wall_s track the seed rather than the code.  The
# search therefore keeps criterion 07's seed, and --seed does not change it.
CALIBRATION_SEED = 0
TARGET_TAU = 0.67e-3          # s, the paper's uncompensated 1/e time
CALIBRATION_TOL = 0.05        # calibrate_wall_width's default
CALIBRATION_BRACKET = (5e-6, 60e-6)   # calibrate_wall_width's default

# criterion 02's extrema settings
WINDOW = 5
NOISE_FLOOR = 0.004
REVIVAL_PATTERN = [(2.0, "min"), (3.2, "max"), (5.0, "min"), (8.2, "max")]
PATTERN_TOL_MS = 0.6
# a breathing or bootstrap curve may depart from its reference by at most
# this many standard errors at any time point
REFERENCE_Z = 5.0

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass
class Output:
    data: dict          # what the check reads
    payload: bytes      # what a user would keep: CSV, SVG, printed results


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is recorded in BENCHMARK.json."""

    name: str
    make_inputs: Callable      # (seed, tiny) -> inputs
    run: Callable              # inputs -> Output
    check: Callable            # (Output, reference) -> list of problems
    describe: Callable         # inputs -> JSON-ready settings


def _config_record(cfg) -> dict:
    out = dataclasses.asdict(cfg)
    out["times"] = [float(t) for t in cfg.times]
    return out


# --- breathing -------------------------------------------------------------

def breathing_inputs(seed: int, tiny: bool = False):
    cfg = pipeline.preset("centered", atoms=BREATHING_ATOMS, seed=seed,
                          workers=1)
    if tiny:
        cfg = dataclasses.replace(cfg, atoms=1500,
                                  times=np.arange(0.0, 4.0001e-3, 0.4e-3))
    cfg.validate()
    return cfg


def run_breathing(cfg) -> Output:
    """``boxmem simulate`` followed by the CLI's extrema, fit and render."""
    result = pipeline.run_scenario(cfg)
    curve = result.curve
    csv = pipeline.curve_to_csv(curve)
    extrema = analysis.find_extrema(curve.times, curve.overlap, window=WINDOW,
                                    noise_floor=NOISE_FLOOR)
    fit = analysis.fit_exponential(curve.times, curve.total)
    svg = render.render_svg(curve, columns=("R_total", "R_overlap"))
    report = f"{extrema.extrema!r}\n{fit.params!r}\n{fit.errors!r}\n"
    return Output({"curve": curve, "fit": fit},
                  (csv + svg + report).encode())


def revival_pattern_problems(times, overlap) -> list[str]:
    """Criterion 02: the first four extrema of R_overlap."""
    rep = analysis.find_extrema(times, overlap, window=WINDOW,
                                noise_floor=NOISE_FLOOR)
    got = [(t * 1e3, k) for t, _, k in rep.extrema[:4]]
    ok = len(got) == 4 and all(
        k == tk and abs(t - tt) <= PATTERN_TOL_MS
        for (t, k), (tt, tk) in zip(got, REVIVAL_PATTERN))
    if ok:
        return []
    return [f"extrema {[(round(t, 2), k) for t, k in got]} are not "
            f"{REVIVAL_PATTERN} +-{PATTERN_TOL_MS} ms"]


def reference_problems(curve, ref: dict) -> list[str]:
    """R_overlap agrees with a stored reference curve (a mean over seeds)
    within REFERENCE_Z of one run's bootstrap standard error at every time
    point after t = 0."""
    overlap = np.asarray(curve.overlap)
    if len(overlap) != len(ref["r_overlap"]):
        return [f"{len(overlap)} rows, reference has "
                f"{len(ref['r_overlap'])}"]
    if not np.all(np.isfinite(overlap)):
        return ["R_overlap is not finite"]
    # the reference is a mean over its seeds, so its own error adds in
    se = np.asarray(ref["se"]) * math.sqrt(1.0 + 1.0 / len(ref["seeds"]))
    late = se > 0                        # R_overlap(0) = 1 by construction
    z = np.abs(overlap[late] - np.asarray(ref["r_overlap"])[late]) / se[late]
    if z.max() <= REFERENCE_Z:
        return []
    i = int(np.argmax(z))
    return [f"R_overlap departs from the reference by {z[i]:.1f} SE at "
            f"t = {np.asarray(curve.times)[late][i] * 1e3:.2f} ms "
            f"(limit {REFERENCE_Z} SE)"]


def check_breathing(out: Output, reference: dict) -> list[str]:
    """The curve agrees with a stored reference that shows criterion 02's
    revival pattern, and the fit of R_total converges.

    The pattern itself is not looked for in one run: at this size its first
    min/max pair is below the Monte-Carlo noise, and even at 10^5 atoms
    seeds 3 and 4 miss it.  make_reference.py and selftest.py check that the
    stored reference shows it.
    """
    problems = reference_problems(out.data["curve"], reference["breathing"])
    fit = out.data["fit"]
    if not (fit.converged and math.isfinite(fit.params["tau"])
            and fit.params["tau"] > 0):
        problems.append("exponential fit of R_total did not converge")
    return problems


def describe_breathing(cfg) -> dict:
    return {"preset": "centered", "config": _config_record(cfg),
            "post_processing": ["curve_to_csv", "find_extrema",
                                "fit_exponential", "render_svg"]}


# --- bootstrap -------------------------------------------------------------

def bootstrap_inputs(seed: int, tiny: bool = False):
    cfg = pipeline.preset("centered", atoms=BOOTSTRAP_ATOMS, seed=seed,
                          gravity_on=False, workers=1)
    reps = BOOTSTRAP_REPS
    if tiny:
        cfg = dataclasses.replace(cfg, atoms=1500,
                                  times=np.arange(0.0, 4.0001e-3, 0.4e-3))
        reps = 2
    cfg.validate()
    return cfg, reps


def run_bootstrap(inputs) -> Output:
    cfg, reps = inputs
    result = pipeline.run_scenario(cfg, n_bootstrap=reps)
    csv = pipeline.curve_to_csv(result.curve)
    se = result.bootstrap_se
    return Output({"curve": result.curve, "se": se},
                  csv.encode() + np.asarray(se).tobytes())


def check_bootstrap(out: Output, reference: dict) -> list[str]:
    """Criterion 04: a finite positive noise floor and no revivals above it.

    Criterion 04 counts every maximum more than the floor above the minimum
    before it, and says the initial ballistic dip is expected and is not an
    oscillation.  The check exempts the rise out of that first minimum:
    counting it failed correct runs at this size, on 5 of 400 random seeds
    and on seed 218775703, where a plateau maximum survived the pruning
    against the curve's last point alone.  Without it, none of the 400
    fails, and the floor would have to shrink to 0.92 of itself before one
    did.

    At this size a true revival is of the order of the floor, so a run with
    gravity left on passes that test (8 of 8 seeds); the curve must also
    agree with a stored gravity-off reference, which such a run fails by
    more than 12 SE and a run with half of gravity by more than 7 SE.
    """
    curve, se = out.data["curve"], np.asarray(out.data["se"])
    if not (np.all(np.isfinite(se)) and np.all(se[1:] > 0)):
        return ["bootstrap SE is not finite and positive after t = 0"]
    problems = reference_problems(curve, reference["bootstrap"])
    if problems:
        return problems
    floor = 2.0 * float(np.max(se))
    rep = analysis.find_extrema(curve.times, curve.overlap, window=WINDOW,
                                noise_floor=floor)
    kinds = [kind for _, _, kind in rep.extrema]
    after_dip = rep.extrema[kinds.index("min") + 1:] if "min" in kinds else []
    rises = [cur[1] - prev[1] for prev, cur in zip(after_dip, after_dip[1:])
             if prev[2] == "min" and cur[2] == "max"]
    n_revive = sum(r > floor for r in rises)
    if n_revive:
        return [f"{n_revive} reviving maxima above 2x the bootstrap floor "
                f"({floor:.4f}) with gravity off"]
    return []


def describe_bootstrap(inputs) -> dict:
    cfg, reps = inputs
    return {"preset": "centered", "gravity_on": False, "n_bootstrap": reps,
            "config": _config_record(cfg)}


# --- calibration -----------------------------------------------------------

def calibration_inputs(seed: int, tiny: bool = False) -> dict:
    del seed     # see CALIBRATION_SEED
    return {"target_tau": TARGET_TAU, "ring": RingPotential(),
            "n_atoms": 400 if tiny else CALIBRATION_ATOMS,
            "seed": CALIBRATION_SEED, "tol": CALIBRATION_TOL}


def run_calibration(inputs) -> Output:
    width = lightshift.calibrate_wall_width(
        inputs["target_tau"], inputs["ring"], n_atoms=inputs["n_atoms"],
        seed=inputs["seed"], tol=inputs["tol"])
    return Output({"width": width, "tol": inputs["tol"]},
                  repr(width).encode())


def check_calibration(out: Output, reference: dict) -> list[str]:
    width, tol = out.data["width"], out.data["tol"]
    lo, hi = CALIBRATION_BRACKET
    if not (math.isfinite(width) and lo <= width <= hi):
        return [f"width {width!r} is not finite inside [{lo:g}, {hi:g}] m"]
    ref = reference["calibration"]["width_m"]
    if abs(width - ref) > 2.0 * tol * ref:
        return [f"width {width * 1e6:.3f} um is not within {2 * tol:.0%} of "
                f"the reference {ref * 1e6:.3f} um"]
    return []


def describe_calibration(inputs) -> dict:
    return {"call": "calibrate_wall_width", "target_tau_s": inputs["target_tau"],
            "ring": dataclasses.asdict(inputs["ring"]),
            "n_atoms": inputs["n_atoms"], "seed": inputs["seed"],
            "tol": inputs["tol"], "wall_model": "soft"}


WORKLOADS = {w.name: w for w in [
    Workload("breathing", breathing_inputs, run_breathing, check_breathing,
             describe_breathing),
    Workload("bootstrap", bootstrap_inputs, run_bootstrap, check_bootstrap,
             describe_bootstrap),
    Workload("calibration", calibration_inputs, run_calibration,
             check_calibration, describe_calibration),
]}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
