"""Regenerate ``bench/reference.json``, the stored answers the benchmark
checks its outputs against.

- breathing: the mean R_overlap curve over REFERENCE_SEEDS at the
  workload's size, with the per-time bootstrap standard error of one run
  (root mean square over the seeds).  The mean curve must show criterion
  02's revival pattern.
- bootstrap: the same for the gravity-off workload.
- calibration: the width calibrate_wall_width returns for the workload.

Run from the repository root:  python3 bench/make_reference.py
(about six minutes on 2 cores).  Regenerate only when a change is meant to
move the curve, and say so in the change.
"""

import json
import os
import sys
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from boxmem import pipeline  # noqa: E402

# disjoint from the development seeds (1-10) and the held-out seeds of sweep.py
REFERENCE_SEEDS = list(range(10_001, 10_017))


def curve_reference(name: str, make_config) -> dict:
    curves, ses = [], []
    for seed in REFERENCE_SEEDS:
        cfg = make_config(seed)
        result = pipeline.run_scenario(cfg, n_bootstrap=workloads.BOOTSTRAP_REPS)
        curves.append(result.curve.overlap)
        ses.append(result.bootstrap_se)
        print(f"{name} seed {seed} done", file=sys.stderr, flush=True)
    curves, ses = np.array(curves), np.array(ses)
    mean = curves.mean(axis=0)
    se = np.sqrt((ses**2).mean(axis=0))
    # leave-one-out: how far each seed's curve sits from the others' mean
    loo_z = []
    for i in range(len(curves)):
        others = np.delete(curves, i, axis=0).mean(axis=0)
        scale = se[1:] * np.sqrt(1.0 + 1.0 / (len(curves) - 1))
        loo_z.append(float(np.max(np.abs(curves[i, 1:] - others[1:]) / scale)))
    times = np.asarray(cfg.times)
    return {"atoms": cfg.atoms, "gravity_on": cfg.gravity_on,
            "seeds": REFERENCE_SEEDS, "n_bootstrap": workloads.BOOTSTRAP_REPS,
            "times_ms": [float(t * 1e3) for t in times],
            "r_overlap": [float(v) for v in mean],
            "se": [float(v) for v in se],
            "seed_sd": [float(v) for v in curves.std(axis=0, ddof=1)],
            "leave_one_out_max_z": loo_z}


def main():
    breathing = curve_reference("breathing", workloads.breathing_inputs)
    problems = workloads.revival_pattern_problems(
        np.array(breathing["times_ms"]) * 1e-3, breathing["r_overlap"])
    if problems:
        sys.exit(f"reference curve fails criterion 02: {problems}")
    bootstrap = curve_reference(
        "bootstrap", lambda seed: workloads.bootstrap_inputs(seed)[0])
    inputs = workloads.calibration_inputs(0)
    width = workloads.run_calibration(inputs).data["width"]
    reference = {"breathing": breathing, "bootstrap": bootstrap,
                 "calibration": {"n_atoms": inputs["n_atoms"],
                                 "seed": inputs["seed"],
                                 "target_tau_s": inputs["target_tau"],
                                 "width_m": width}}
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    loo = max(breathing["leave_one_out_max_z"] + bootstrap["leave_one_out_max_z"])
    print(f"wrote {workloads.REFERENCE_PATH}; leave-one-out max z "
          f"{loo:.2f}; width {width * 1e6:.4f} um")


if __name__ == "__main__":
    main()
