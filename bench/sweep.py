"""Run the benchmark over several seeds and report each end-to-end metric's
median, quartiles and spread (interquartile range / median) against the
bound in BENCHMARK.json.

    python3 bench/sweep.py                          # seeds 1-10, every workload
    python3 bench/sweep.py --workload calibration --runs 5
    python3 bench/sweep.py --held-out               # confirm a claimed gain

Development uses seeds 1, 2, ...  The held-out seeds are reserved: do not
run them while writing a change, only to confirm a gain afterwards on
inputs the change was not tuned on.  Run from the repository root; results
go to .bench_out/.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HELD_OUT_SEEDS = list(range(90_001, 90_011))


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--held-out", action="store_true")
    args = parser.parse_args(argv)

    names = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = (HELD_OUT_SEEDS[:args.runs] if args.held_out
             else list(range(1, args.runs + 1)))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report, ok = {}, True
    for name in names:
        values, failed, attempted = {}, 0, 0
        for seed in seeds:
            cmd = [sys.executable, *bench["command"][1:], "--workload", name,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            t0 = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if not done.stdout.strip():
                sys.exit(f"{name} seed {seed} printed no result "
                         f"(exit {done.returncode}):\n{done.stderr}")
            res = json.loads(done.stdout.splitlines()[-1])
            ok &= res["correct"] and done.returncode == 0
            failed += res["failed"]
            attempted += res["attempted"]
            for key, m in res["metrics"].items():
                values.setdefault(key, []).append(m["value"])
            print(f"{name} seed {seed}: correct={res['correct']} "
                  f"{time.perf_counter() - t0:.0f} s "
                  + " ".join(f"{k}={m['value']:.4g}"
                             for k, m in res["metrics"].items()
                             if k in bounds), flush=True)
        rows = {}
        for key, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            rows[key] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                         "spread": spread, "bound": bounds.get(key),
                         "values": vals}
        report[name] = {"seeds": seeds, "attempted": attempted,
                        "failed": failed, "metrics": rows}
        print(f"== {name}: {failed}/{attempted} failed")
        for key, r in rows.items():
            flag = ""
            if r["bound"] is not None:
                flag = ("ok" if r["spread"] < r["bound"] / 3 else
                        "within bound" if r["spread"] <= r["bound"] else
                        "OVER BOUND")
            print(f"  {key:28s} median={r['median']:<12.5g} q1={r['q1']:<12.5g} "
                  f"q3={r['q3']:<12.5g} spread={r['spread']:.2%} {flag}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    (out / f"sweep-{stamp}.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
