"""One repetition of one workload, in a fresh interpreter.

run.py starts this file as ``python -I perfbench/child.py ...``.  Isolated
mode keeps PYTHONPATH and user site-packages out, and this file puts the
checkout's ``src`` first on sys.path, so the code measured is this tree's.
Nothing is printed; one JSON result file is written for the parent.  The
host-speed calibration samples bracket the timed phase and are part of
neither set-up nor the timed phase.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

import calibration  # noqa: E402
import workloads  # noqa: E402

# host-speed samples taken just before and just after the timed phase
CALIBRATION_SAMPLES = 2


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    import hcchar
    import hcchar.cli  # noqa: F401  (the CLI is part of every set-up)

    if not os.path.abspath(hcchar.__file__).startswith(SRC + os.sep):
        print(f"child: imported hcchar from {hcchar.__file__}, not {SRC}", file=sys.stderr)
        return 2
    modules = {"hcchar": hcchar}
    for name, mod in list(sys.modules.items()):
        if name.startswith("hcchar.") and mod is not None:
            modules[name.split(".", 1)[1]] = mod

    inputs = workloads.make_inputs(args.workload, args.seed, args.rep)
    setup_done = time.monotonic()

    cpu_start = time.process_time()
    samples = [calibration.sample() for _ in range(CALIBRATION_SAMPLES)]
    calibration_cpu = time.process_time() - cpu_start

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(modules)
        tracer.install()

    hc = SimpleNamespace(**modules)
    start = time.perf_counter()
    latencies, errors, outputs = workloads.RUNNERS[args.workload](hc, inputs, args.workdir)
    wall = time.perf_counter() - start

    cpu_start = time.process_time()
    samples += [calibration.sample() for _ in range(CALIBRATION_SAMPLES)]
    calibration_cpu += time.process_time() - cpu_start

    result = {
        "setup_done": setup_done,
        "calibration_s": samples,
        "calibration_cpu_s": calibration_cpu,
        "wall_s": wall,
        "latencies": latencies,
        "errors": errors,
        "outputs": outputs,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"], result["absent"] = tracer.metrics()
        if args.trace_out:
            record = tracer.trace_record()
            record.update(workload=args.workload, seed=args.seed, wall_s=wall)
            with gzip.open(args.trace_out, "wt", encoding="utf-8") as handle:
                json.dump(record, handle)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
