"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/steadiness.py [--out perfbench/BASELINE.json]

Runs ``run.py`` once per seed 1..10 and workload of BENCHMARK.json, seed by
seed, one process at a time.  For every end-to-end metric it prints the
median of the runs and the spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound from BENCHMARK.json; a spread of a third of the
bound or more is marked WIDE, setup_s included.  One traced run per
workload, with seed 1, follows.  ``--out`` writes all of it, with the
machine's facts, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    cmd[0] = sys.executable if cmd[0].startswith("python") else cmd[0]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def read_loadavg() -> str | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return handle.read().strip()
    except OSError:
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_at_start": read_loadavg(),
        "run_seconds": bench["run_seconds"],
    }
    seeds = list(range(1, SEEDS + 1))
    runs: dict[str, list[dict]] = {w: [] for w in names}
    for seed in seeds:
        for workload in names:
            result = run_once(bench, workload, seed, 0)
            runs[workload].append(result)
            print(f"{workload} seed {seed}: {result['elapsed_s']:.1f} s, "
                  f"correct={result['correct']}", file=sys.stderr)

    report = {"machine": facts, "seeds": seeds, "workloads": {}}
    steady = True
    for workload in names:
        entry = {"end_to_end": {}, "elapsed_s": summarize([r["elapsed_s"] for r in runs[workload]])}
        print(f"{workload}: {len(seeds)} runs, "
              f"median run {entry['elapsed_s']['median']:.1f} s")
        for metric, bound in bounds.items():
            stats = summarize([r["metrics"][metric]["value"] for r in runs[workload]])
            entry["end_to_end"][metric] = stats
            ok = stats["spread"] < bound / 3
            steady = steady and ok
            print(f"  {metric:12s} median {stats['median']:12.6f}  spread {stats['spread']:.4f}"
                  f"  bound {bound:.2f}  {'ok' if ok else 'WIDE'}  "
                  + " ".join(f"{v:.4g}" for v in stats["values"]))
        entry["correct"] = all(r["correct"] for r in runs[workload])
        traced = run_once(bench, workload, seeds[0], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    print("steady: spreads below a third of their bounds" if steady else "not steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
