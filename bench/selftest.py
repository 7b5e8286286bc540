"""Quick self-test of the benchmark:  python3 bench/run.py --selftest

1. Each workload runs at a tiny size: a warm-up, one untraced, one traced
   and one memory-traced iteration.  The metrics a run would report must be exactly the names and
   units in BENCHMARK.json, the traced output bytes must equal the untraced
   ones, and the self times plus unattributed_s must add up to the traced
   wall time.  The size-specific output checks are skipped at this size.
2. Each output check must pass good outputs and fire on corrupted ones.
"""

import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np

import run
import tracer as tracing
import workloads
from boxmem.analysis import FitResult


def tiny_metrics(workload) -> tuple[dict, dict, list[str]]:
    """End-to-end and per-layer units of a tiny run, and its problems."""
    unchecked = dataclasses.replace(workload, check=lambda out, ref: [])
    runner = run.Runner(unchecked, workload.make_inputs(1, tiny=True), {})
    counter = tracing.Tracer()
    runner.iterate(counter)
    plain = runner.iterate()
    traced = runner.iterate(tracing.Tracer())
    memory = runner.iterate(tracing.Tracer(track_memory=True))
    problems = list(runner.problems)
    if plain is None or traced is None or memory is None:
        return {}, {}, problems
    layers = tracing.layer_metrics(traced[2], traced[0])
    peaks = tracing.layer_metrics(memory[2], memory[0])
    if not peaks["ensemble.propagate_peak_mb"] > 0:
        problems.append("tracemalloc saw no allocation inside propagate")
    if tracing.attribution_gap(layers) > 1e-6:
        problems.append("self times + unattributed_s do not add up to wall_s")
    e2e = run.end_to_end_samples([plain[0]], counter.atom_ms(), [0.5])
    per_layer = run.layer_samples([layers], [traced[0]], [plain[0]], peaks)
    for key, values in {**e2e, **per_layer}.items():
        if not all(isinstance(v, (int, float)) and math.isfinite(v)
                   for v in values):
            problems.append(f"{key} is not a finite number: {values}")
    return ({k: run.END_TO_END[k] for k in e2e},
            {k: tracing.LAYER_METRICS[k] for k in per_layer}, problems)


def declared(section: str) -> dict:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def corrupted_breathing(reference):
    ref = reference["breathing"]
    times = np.array(ref["times_ms"]) * 1e-3
    good_fit = FitResult("exp", {"amplitude": 1.0, "tau": 0.1},
                         {"amplitude": 0.0, "tau": 0.0}, 0.0, True)

    def output(overlap, fit=good_fit):
        curve = SimpleNamespace(times=times, overlap=np.asarray(overlap))
        return workloads.Output({"curve": curve, "fit": fit}, b"")

    good = np.array(ref["r_overlap"])
    shifted = good.copy()
    shifted[25] += 10.0 * ref["se"][25]
    holed = good.copy()
    holed[10] = np.nan
    stalled = dataclasses.replace(good_fit, converged=False)
    return {"reference": output(good)}, {"shifted by 10 SE": output(shifted),
                          "NaN point": output(holed),
                          "fit not converged": output(good, stalled),
                          "rows missing": output(good[:-1])}


def corrupted_bootstrap(reference):
    ref = reference["bootstrap"]
    times = np.array(ref["times_ms"]) * 1e-3
    good, se = np.array(ref["r_overlap"]), np.array(ref["se"])

    def output(overlap, se):
        curve = SimpleNamespace(times=times, overlap=overlap)
        return workloads.Output({"curve": curve, "se": se}, b"")

    # revivals small enough to stay within the reference's 5 SE, so that
    # the floor test is what must catch them
    revive = good + np.where(times >= 4e-3, 2.5 * se.max() * np.sin(
        2 * np.pi * (times - 4e-3) / 8e-3), 0.0)
    shifted = good.copy()
    shifted[25] += 10.0 * se[25]
    nan_se, zero_se = se.copy(), se.copy()
    nan_se[7] = np.nan
    zero_se[7] = 0.0
    # criterion 04 expects the dip and the plateau; a plateau maximum that
    # stands more than the floor above the curve's last point survives the
    # pruning and must not count as a revival
    late_max = good + 1.3 * 2 * se.max() * np.exp(-((times - 16e-3) / 2e-3) ** 2)
    return ({"reference": output(good, se),
             "plateau maximum above the last point": output(late_max, se)},
            {"revivals with gravity off": output(revive, se),
             "shifted by 10 SE": output(shifted, se),
             "NaN SE": output(good, nan_se),
             "zero SE": output(good, zero_se)})


def corrupted_calibration(reference):
    width = reference["calibration"]["width_m"]

    def output(w):
        return workloads.Output({"width": w, "tol": workloads.CALIBRATION_TOL}, b"")

    return {"reference": output(width)}, {"NaN width": output(math.nan),
                           "1.5x the reference": output(1.5 * width),
                           "outside the bracket": output(1e-6)}


CORRUPTIONS = {"breathing": corrupted_breathing, "bootstrap": corrupted_bootstrap,
               "calibration": corrupted_calibration}


def main() -> int:
    reference = workloads.load_reference()
    failures = []
    e2e_declared, layer_declared = declared("end_to_end"), declared("per_layer")
    with open(run.ROOT / "BENCHMARK.json") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    if names != list(workloads.WORKLOADS):
        failures.append(f"BENCHMARK.json workloads {names} != "
                        f"{list(workloads.WORKLOADS)}")

    for name, workload in workloads.WORKLOADS.items():
        e2e, layers, problems = tiny_metrics(workload)
        failures += [f"{name}: {p}" for p in problems]
        if e2e != e2e_declared:
            failures.append(f"{name}: end-to-end metrics {e2e} != {e2e_declared}")
        if layers != layer_declared:
            failures.append(f"{name}: per-layer metrics differ from BENCHMARK.json: "
                            f"{sorted(set(layers) ^ set(layer_declared))}")
        goods, bad = CORRUPTIONS[name](reference)
        for label, out in goods.items():
            if workload.check(out, reference):
                failures.append(f"{name}: check rejects a good output ({label}): "
                                f"{workload.check(out, reference)}")
        for label, out in bad.items():
            if not workload.check(out, reference):
                failures.append(f"{name}: check misses a corrupted output ({label})")
        print(f"selftest {name}: {len(bad)} corruptions, tiny run done")

    ref = reference["breathing"]
    times = np.array(ref["times_ms"]) * 1e-3
    if workloads.revival_pattern_problems(times, ref["r_overlap"]):
        failures.append("the reference curve lacks criterion 02's pattern")
    if not workloads.revival_pattern_problems(times, 1.0 - 0.1 * times / times[-1]):
        failures.append("the revival-pattern check passes a monotone curve")

    for f in failures:
        print(f"selftest FAILED {f}")
    print("selftest ok" if not failures else f"selftest: {len(failures)} failures")
    return 0 if not failures else 1
