"""boxmem benchmark.

    python3 bench/run.py --workload breathing --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                  # every workload, one process each
    python3 bench/run.py --selftest       # tiny sizes; checks names and checks

Run from the repository root.  One process serves one workload as a closed
loop with one client: a warm-up iteration, then iterations back to back
until ``--seconds`` have passed (at least MIN_ITERATIONS).  Every iteration
uses the same inputs, built from ``--seed``, and its output is checked.

``--trace 0`` reports the end-to-end metrics: the median per iteration of
wall_ref_s and atom_ms_per_ref_s, the process's peak_rss_mb, and setup_s,
the median time of fresh processes that import boxmem and build and
validate the workload's config (SETUP_PROBES of them after each iteration;
their time does not count towards ``--seconds``).  ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics of the
traced ones (medians), then runs one more iteration under tracemalloc for
the peak memory of each layer; its spans are written to .bench_out/.  The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 whenever that line is printed, also when
``correct`` is false.

The end-to-end times are scaled to a reference host speed.  The machine
this was written on shares its cores, and its speed drifts by up to 1.7x
over tens of seconds, which no run length that fits the time budget
averages out.  A fixed numpy kernel (``host_probe``) is timed before and
after each iteration and each batch of set-up probes, and each time is
multiplied by PROBE_REF_S / (mean of the two kernel times).  The kernel is
the benchmark's own code, so a change to boxmem moves the scaled times
fully.  The unscaled wall_s, cpu_s and set-up times, and the kernel times,
are printed and written to .bench_out/ as well.
"""

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"       # before numpy is imported

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_ITERATIONS = 3
SETUP_PROBES = 2

END_TO_END = {"wall_ref_s": "s", "atom_ms_per_ref_s": "atom-ms/s",
              "peak_rss_mb": "MB", "setup_s": "s"}

# host_probe's time at the reference speed, about its median on a 2-vCPU VM
# (Python 3.11, numpy 2.4)
PROBE_REF_S = 0.3

SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.WORKLOADS[{name!r}].make_inputs({seed!r})
print(time.perf_counter() - t0)
"""


def summary(values):
    """(n, median, q1, q3) of a sample."""
    if len(values) == 1:
        return 1, values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return len(values), statistics.median(values), q1, q3


def environment(seed: int) -> dict:
    import boxmem
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "boxmem": boxmem.__version__,
            "platform": platform.platform(),
            "thread_pins": {v: os.environ[v] for v in THREAD_VARS},
            "seed": seed}


def measure_setup(name: str, seed: int) -> list[float]:
    times = []
    code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH), name=name,
                              seed=seed)
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=60)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class Runner:
    """Runs one workload's iterations and keeps count of failures."""

    def __init__(self, workload, inputs, reference):
        self.workload, self.inputs, self.reference = workload, inputs, reference
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.expected = None          # payload of the warm-up iteration
        self.span_log: list[dict] = []  # spans of traced iterations, as records

    def iterate(self, tracer=None):
        """One iteration, traced if a fresh ``tracer`` is given.

        Returns (wall, cpu, spans), or None if it raised or its output
        failed the check.
        """
        self.attempted += 1
        gc.collect()       # so that no iteration pays for its predecessor's garbage
        try:
            with tracer or contextlib.nullcontext():
                t0, c0 = time.perf_counter(), time.process_time()
                out = self.workload.run(self.inputs)
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        except Exception as exc:       # a raising iteration counts as failed
            return self._fail(f"iteration {self.attempted} raised "
                              f"{type(exc).__name__}: {exc}")
        problems = self.workload.check(out, self.reference)
        if self.expected is None:
            self.expected = out.payload
        elif out.payload != self.expected:
            problems.append("output bytes differ from the warm-up iteration")
        if problems:
            return self._fail(f"iteration {self.attempted}: {'; '.join(problems)}")
        if tracer is None:
            return wall, cpu, None
        self.span_log.extend(tracer.records(t0, self.attempted))
        return wall, cpu, tracer.spans

    def _fail(self, message):
        self.failed += 1
        self.problems.append(message)
        print(f"FAILED {message}", file=sys.stderr)
        return None


def host_probe() -> float:
    """Seconds for a fixed numpy kernel that mixes large-array work (as in
    hard-wall propagation and the KDE) and many calls on small arrays (as
    in the soft-wall integrator)."""
    import numpy as np
    rng = np.random.default_rng(0)
    work = [(rng.random((3, 30_000)), 900), (rng.random((3, 4_000)), 5_400)]
    t0 = time.perf_counter()
    for a, rounds in work:
        for _ in range(rounds):
            x = np.sqrt(a[0] * a[1] + a[2])
            float(np.sum(x * a[0]))
            np.clip(x, 0.2, 0.8)
    return time.perf_counter() - t0


def end_to_end_samples(walls, atom_ms, setup) -> dict:
    """End-to-end samples from iteration and set-up times already scaled
    to the reference host speed."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return {"wall_ref_s": walls,
            "atom_ms_per_ref_s": [atom_ms / w for w in walls],
            "peak_rss_mb": [rss_mb], "setup_s": setup}


def layer_samples(layers, traced_walls, walls, peaks) -> dict:
    """Per-layer samples: one per timing-traced iteration, except the peak
    memory (one memory-traced iteration) and the tracing overhead."""
    import tracer as tracing
    out = {k: [m[k] for m in layers] for k in layers[0]}
    out.update({k: [peaks[k]] for k in tracing.PEAK_METRICS})
    out["trace.overhead_s"] = [statistics.median(traced_walls)
                               - statistics.median(walls)]
    return {k: out[k] for k in tracing.LAYER_METRICS}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    reference = workloads.load_reference()
    inputs = workload.make_inputs(seed)
    runner = Runner(workload, inputs, reference)

    # warm-up: fills caches, fixes the expected output bytes, and counts the
    # simulated atom-milliseconds (identical in every iteration)
    counter = tracing.Tracer()
    warm = runner.iterate(counter)
    atom_ms = counter.atom_ms()

    # unscaled samples, and each one's reference-speed factor
    walls, cpus, setup, layers, traced_walls = [], [], [], [], []
    wall_scale, setup_scale = [], []
    t_begin, t_probes = time.perf_counter(), 0.0
    before = host_probe() if not trace else None
    kernel = [before]
    while warm is not None and (
            len(walls) < MIN_ITERATIONS
            or time.perf_counter() - t_begin - t_probes < seconds):
        got = runner.iterate()
        if got is not None:
            walls.append(got[0])
            cpus.append(got[1])
        if not trace:
            t_probe = time.perf_counter()
            after = host_probe()
            if got is not None:
                wall_scale.append(2 * PROBE_REF_S / (before + after))
            batch = measure_setup(name, seed)
            before = host_probe()
            setup += batch
            setup_scale += [2 * PROBE_REF_S / (after + before)] * len(batch)
            kernel += [after, before]
            t_probes += time.perf_counter() - t_probe
        else:
            got = runner.iterate(tracing.Tracer())
            if got is not None:
                traced_walls.append(got[0])
                layers.append(tracing.layer_metrics(got[2], got[0]))
    # tracemalloc slows every allocation, so the peak-memory metrics come
    # from one iteration of their own and the self times stay undistorted
    memory = runner.iterate(tracing.Tracer(track_memory=True)) \
        if trace and warm is not None else None

    problems = list(runner.problems)
    if trace:
        gaps = [tracing.attribution_gap(m) for m in layers]
        if gaps and max(gaps) > 1e-6:
            problems.append(f"self times + unattributed_s miss wall_s by "
                            f"{max(gaps):.3g} s")

    metrics, units, raw = {}, {}, {}
    if walls and not trace:
        metrics = end_to_end_samples(
            [w * k for w, k in zip(walls, wall_scale)], atom_ms,
            [t * k for t, k in zip(setup, setup_scale)])
        units = END_TO_END
        raw = {"wall_s": walls, "cpu_s": cpus, "setup_s": setup,
               "host_probe_s": kernel}
    elif layers and memory is not None:
        peaks = tracing.layer_metrics(memory[2], memory[0])
        metrics = layer_samples(layers, traced_walls, walls, peaks)
        units = tracing.LAYER_METRICS

    print(f"workload {name}  seed {seed}  trace {int(trace)}  closed loop, "
          f"1 client, {seconds:g} s")
    for key, values in metrics.items():
        n, med, q1, q3 = summary(values)
        print(f"  {key:28s} n={n:<3d} median={med:<14.6g} q1={q1:<14.6g} "
              f"q3={q3:<14.6g} {units[key]}")
    for key, values in raw.items():
        n, med, q1, q3 = summary(values)
        print(f"  unscaled {key:19s} n={n:<3d} median={med:<14.6g} "
              f"q1={q1:<14.6g} q3={q3:<14.6g} s")
    print(f"  {'error_rate':28s} {runner.failed}/{runner.attempted} = "
          f"{runner.failed / max(runner.attempted, 1):.3g}")
    for p in problems:
        print(f"  problem: {p}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    with open(ROOT / "BENCHMARK.json") as fh:
        why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}[name]
    record = {"environment": environment(seed), "workload": name,
              "why": why, "settings": workload.describe(inputs),
              "seconds": seconds, "trace": trace, "samples": metrics,
              "unscaled": raw, "probe_ref_s": PROBE_REF_S,
              "attempted": runner.attempted, "failed": runner.failed,
              "problems": problems}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        Path(f"{stem}-spans.json").write_text(json.dumps(runner.span_log) + "\n")

    result = {"correct": not problems and bool(metrics),
              "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {k: {"value": summary(v)[1], "unit": units[k]}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is its own."""
    import workloads
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
        sys.stderr.write(done.stderr)
        try:
            res = json.loads(done.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name} printed no result (exit {done.returncode})",
                  file=sys.stderr)
            return 2
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "boxmem" / "__init__.py").is_file():
        print(f"error: no boxmem sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import boxmem
    if Path(boxmem.__file__).resolve().parent != SRC / "boxmem":
        print(f"error: imported boxmem from {boxmem.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.selftest:
        import selftest
        return selftest.main()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)} "
                     "or all")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
