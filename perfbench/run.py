"""Fresh-process benchmark of hcchar.

    python3 perfbench/run.py --workload table --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each repetition of a workload runs in a fresh interpreter (child.py) that
imports this checkout's ``src``, so the functools memos start empty every
time.  One process and one thread make all the load; the loop is closed.
Repetitions run one after another until ``--seconds`` have passed, with at
least three repetitions and 100 items.  Every output is checked against
references.json after its repetition, outside the timed phase.

--trace 0 prints the end-to-end metrics: medians over the repetitions (for
item latencies, of each repetition's percentiles).  Times are in reference
seconds (see calibration.py): measured seconds scaled by the host speed
that the repetition measured around its timed phase.  The measured values
and factors are printed too.
--trace 1 runs pairs of an untraced and a traced repetition until
``--seconds`` have passed and prints the per-layer metrics (medians over the
traced repetitions) plus trace.overhead_s (median over the pairs of traced
minus untraced wall_s).  The trace of the first traced repetition is
written to .perfbench-out/.

Every metric is printed by name and unit; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  The exit
code is 0 only when every output is correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
import tracer  # noqa: E402

MIN_REPS = 3
MIN_ITEMS = 100
TIME_LIMIT_S = 170.0
POLL_S = 0.02

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(workload: str, seed: int, rep: int, trace: bool, tmp: str, deadline: float) -> dict:
    """Run one repetition in a fresh interpreter and return its result,
    with the child's own resource usage from wait4."""
    workdir = tempfile.mkdtemp(prefix="rep-", dir=tmp)
    result_path = os.path.join(tmp, "result.json")
    cmd = [
        sys.executable, "-I", os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed), "--rep", str(rep), "--trace", str(int(trace)),
        "--workdir", workdir, "--result", result_path,
    ]
    if trace and rep == 0:
        cmd += ["--trace-out", os.path.join(OUT, f"trace-{workload}-seed{seed}.json.gz")]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=sys.stderr)
    status = None
    try:
        while status is None:
            pid, code, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                status = code
            elif time.monotonic() > deadline:
                raise BenchError(f"{workload}: repetition did not finish within the time limit")
            else:
                time.sleep(POLL_S)
    finally:
        if status is None:
            proc.kill()
            os.wait4(proc.pid, 0)
        shutil.rmtree(workdir, ignore_errors=True)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"{workload}: child exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    os.unlink(result_path)
    result["setup_s"] = result.pop("setup_done") - spawned
    result["cpu_s"] = usage.ru_utime + usage.ru_stime - result["calibration_cpu_s"]
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    # reference seconds per measured second on this repetition's host speed
    result["factor"] = calibration.REFERENCE_S / statistics.median(result["calibration_s"])
    return result


def load_program():
    """The measured package, imported by the parent for the output checks."""
    sys.path.insert(0, SRC)
    import hcchar
    import hcchar.cli

    return SimpleNamespace(
        characters=hcchar.characters, bitrace=hcchar.bitrace, cli=hcchar.cli, qpoly=hcchar.qpoly
    )


def check(hc, workload: str, refs: dict, inputs: dict, rep: dict) -> tuple[int, list[str]]:
    """(failed items, messages) of one repetition: items that raised plus
    items whose output failed a check."""
    failed, messages = checks.CHECKS[workload](hc, refs[workload], inputs, rep["outputs"])
    for index, message in rep["errors"]:
        failed.add(index)
        messages.append(message)
    return len(failed), messages


def latency_ms(rep: dict, percent: int) -> float:
    """A percentile of one repetition's item latencies, in reference ms."""
    cuts = statistics.quantiles(rep["latencies"], n=100, method="inclusive")
    return 1e3 * rep["factor"] * cuts[percent - 1]


def end_to_end(reps: list[dict]) -> dict[str, float]:
    """The end-to-end metrics of one run, every time in reference seconds:
    medians over the repetitions.  A latency percentile is taken in each
    repetition and then the median over the repetitions: on verify, whose
    35 items per repetition are a few kinds of check of very different
    cost, the p90 of all repetitions' items pooled spread 0.15 over six
    seeds against 0.06 for this median."""
    return {
        "setup_s": statistics.median(r["setup_s"] * r["factor"] for r in reps),
        "wall_s": statistics.median(r["wall_s"] * r["factor"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] * r["factor"] for r in reps),
        "items_per_s": statistics.median(len(r["latencies"]) / (r["wall_s"] * r["factor"]) for r in reps),
        "item_p50_ms": statistics.median(latency_ms(r, 50) for r in reps),
        "item_p90_ms": statistics.median(latency_ms(r, 90) for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def run_untraced(hc, workload, seed, seconds, refs, tmp, deadline) -> dict:
    reps, attempted, failed, messages = [], 0, 0, []
    start = time.monotonic()
    checked = None
    while True:
        rep_start = time.monotonic()
        rep = spawn(workload, seed, len(reps), False, tmp, deadline)
        if checked is not None and (rep["outputs"], rep["errors"]) == checked[0]:
            bad, notes = checked[1]  # same outputs as a checked repetition
        else:
            inputs = workloads.make_inputs(workload, seed, len(reps))
            bad, notes = check(hc, workload, refs, inputs, rep)
            checked = ((rep["outputs"], rep["errors"]), (bad, notes))
        rep["elapsed"] = time.monotonic() - rep_start
        reps.append(rep)
        attempted += len(rep["latencies"])
        failed += bad
        messages += notes
        items = sum(len(r["latencies"]) for r in reps)
        typical = statistics.median(r["elapsed"] for r in reps)
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and items >= MIN_ITEMS and elapsed + typical > seconds:
            break
    values = end_to_end(reps)
    items = sum(len(r["latencies"]) for r in reps)
    metrics = {}
    for name, unit in END_TO_END:
        metrics[name] = {"value": values[name], "unit": unit}
        samples = f"median of {len(reps)} reps" + (f", {items} items" if name.startswith("item_p") else "")
        print(f"  {workload:8s} {name:14s} {values[name]:14.6f} {unit:5s} ({samples})")
    for key in ("factor", "wall_s", "setup_s"):
        print(f"  {workload:8s} {'measured ' + key:18s} " + " ".join(f"{r[key]:.3f}" for r in reps))
    print(f"  {workload:8s} {'fail_ratio':14s} {failed / attempted:14.6f} {'':5s} ({failed}/{attempted} items)")
    return {"attempted": attempted, "failed": failed, "messages": messages, "metrics": metrics}


def layer_metrics(workload: str, traced: list[dict]) -> dict:
    """Print every per-layer metric but trace.overhead_s, the median over
    the traced repetitions with self times in reference seconds, or why it
    is absent; return those of BENCHMARK.json for the result line, where
    an absent count is 0."""
    on_line = {m["name"] for m in tracer.result_line_catalog()}
    metrics = {}
    for entry in tracer.metric_catalog():
        name, unit = entry["name"], entry["unit"]
        if name == "trace.overhead_s":
            continue
        samples = [
            t["layers"][name] * (t["factor"] if name.endswith("self_s") else 1)
            for t in traced if name in t["layers"]
        ]
        if samples:
            value = statistics.median(samples)
            print(f"  {workload:8s} {name:44s} {value:16.6f} {unit}")
        else:
            value = 0
            why = traced[0]["absent"].get(name, tracer.UNUSED)
            print(f"  {workload:8s} {name:44s} {'absent':>16s} ({why})")
        if name in on_line:
            metrics[name] = {"value": value, "unit": unit}
    return metrics


def run_traced(hc, workload, seed, seconds, refs, tmp, deadline) -> dict:
    """Pairs of one untraced and one traced repetition of the same inputs,
    the two in alternating order, until --seconds have passed (at least
    MIN_REPS pairs).  Each per-layer metric is the median over the traced
    repetitions; trace.overhead_s is the median of the pairs' differences."""
    pairs, attempted, failed, messages = [], 0, 0, []
    start = time.monotonic()
    while True:
        index = len(pairs)
        pair_start = time.monotonic()
        order = (False, True) if index % 2 == 0 else (True, False)
        reps = {trace: spawn(workload, seed, index, trace, tmp, deadline) for trace in order}
        plain, traced = reps[False], reps[True]
        inputs = workloads.make_inputs(workload, seed, index)
        bad, notes = check(hc, workload, refs, inputs, plain)
        traced_bad = bad
        if (traced["outputs"], traced["errors"]) != (plain["outputs"], plain["errors"]):
            traced_bad, more = check(hc, workload, refs, inputs, traced)
            traced_bad = max(traced_bad, 1)
            notes += more + ["traced and untraced outputs differ"]
        attempted += len(plain["latencies"]) + len(traced["latencies"])
        failed += bad + traced_bad
        messages += notes
        pairs.append((plain, traced, time.monotonic() - pair_start))
        typical = statistics.median(p[2] for p in pairs)
        if len(pairs) >= MIN_REPS and time.monotonic() - start + typical > seconds:
            break

    metrics = layer_metrics(workload, [t for _, t, _ in pairs])

    plain_s = [p["wall_s"] * p["factor"] for p, _, _ in pairs]
    diffs = [t["wall_s"] * t["factor"] - p["wall_s"] * p["factor"] for p, t, _ in pairs]
    q1, _, q3 = statistics.quantiles(diffs, n=4)
    overhead = statistics.median(diffs)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    verdict = "within the noise" if q1 <= 0 <= q3 else "resolved"
    print(f"  {workload:8s} {'trace.overhead_s':44s} {overhead:16.6f} s (median of {len(pairs)} pairs,"
          f" quartiles {q1:.4f}..{q3:.4f} s, {overhead / statistics.median(plain_s):.1%} of untraced"
          f" wall_s; {verdict})")
    return {"attempted": attempted, "failed": failed, "messages": messages, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Fresh-process benchmark of hcchar.")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its child and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "hcchar", "__init__.py")):
        print(f"error: no hcchar sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as handle:
        refs = json.load(handle)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        hc = load_program()
        results = {}
        for name in names:
            print(f"workload {name}, seed {args.seed}, trace {args.trace}: "
                  "closed loop, 1 process, 1 thread")
            if args.trace:
                results[name] = run_traced(hc, name, args.seed, args.seconds, refs, tmp, deadline)
            else:
                results[name] = run_untraced(hc, name, args.seed, args.seconds, refs, tmp, deadline)
            for message in results[name]["messages"][:20]:
                print(f"  FAILED {message}", file=sys.stderr)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
