"""The four benchmark workloads: seeded inputs and their timed closed loops.

Each workload is one client calling the public API in a closed loop: the
next call starts when the previous one returns.  Inputs come from the
benchmark's own partition enumerations, so they do not depend on the code
being measured.  Nothing here imports hcchar; the child process passes the
imported modules in.

Why these four:
- table: char_value over every (strict lam, odd mu) cell of one weight, then
  render_table_json.  Exercises the combinatorial peel, gds_expansion,
  classify_skew and the QPoly kernel; never touches bitrace, gamma, vertex,
  pfaffian or the cache.
- bitrace: sbtr over every ordered pair of odd partitions of one weight.
  Exercises the _T peeling recursion, alpha_product, the (q-1)-division and
  high-degree QPoly products; never touches classify_skew or characters.
- verify: the four ``hcchar verify`` suites in-process, one after another in
  one interpreter as ``--suite all`` runs them.  The only workload that runs
  all five character routes, the closed forms, and sbtr_matrix.  Each suite
  gets its own ``--n-max`` so that no suite dominates: ``ortho`` at weight 7
  alone would take most of the time.
- cache: a fresh HCCHAR_CACHE directory; ``hcchar table`` writes (miss,
  compute, recursive cross-check, atomic store), then a stream of
  ``hcchar char`` queries, about three quarters hits that reload the cached
  file and one quarter non-odd mu that bypass the cache.  The only workload
  for cache I/O.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import time

TABLE_N = 15
BITRACE_N = 9
VERIFY_CALLS = (
    ("verify", "--suite", "tables", "--n-max", "7"),
    ("verify", "--suite", "cross", "--n-max", "8"),
    ("verify", "--suite", "symmetry", "--n-max", "8"),
    ("verify", "--suite", "ortho", "--n-max", "6"),
)
CACHE_WEIGHTS = (10, 11)
CACHE_QUERIES = 160
CACHE_HIT_SHARE = 0.75
CACHE_ENV = "HCCHAR_CACHE"

NAMES = ("table", "bitrace", "verify", "cache")

clock = time.perf_counter


# ---------------------------------------------------------------------------
# partition enumerations (reverse-lexicographic)

def partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def strict_partitions(n: int) -> list[tuple[int, ...]]:
    return [p for p in partitions(n) if all(a > b for a, b in zip(p, p[1:]))]


def odd_partitions(n: int) -> list[tuple[int, ...]]:
    return [p for p in partitions(n) if all(x % 2 for x in p)]


def fmt(parts) -> str:
    return ",".join(map(str, parts))


# ---------------------------------------------------------------------------
# seeded inputs

def make_inputs(name: str, seed: int, rep: int = 0) -> dict:
    """The inputs of one repetition of a workload; the same seed and
    repetition number give the same inputs.  Each repetition of a run draws
    its own order (and, for cache, its own queries), so a run's latencies
    average over many orders instead of hanging on one."""
    rng = random.Random(f"{name}:{seed}:{rep}")
    if name == "table":
        cells = [(lam, mu) for mu in odd_partitions(TABLE_N) for lam in strict_partitions(TABLE_N)]
        rng.shuffle(cells)
        return {"n": TABLE_N, "cells": cells}
    if name == "bitrace":
        odd = odd_partitions(BITRACE_N)
        pairs = [(mu, nu) for mu in odd for nu in odd]
        rng.shuffle(pairs)
        return {"n": BITRACE_N, "pairs": pairs}
    if name == "verify":
        return {"calls": [list(argv) for argv in VERIFY_CALLS]}
    if name == "cache":
        pools = {
            w: (strict_partitions(w), odd_partitions(w),
                [p for p in partitions(w) if any(x % 2 == 0 for x in p)])
            for w in CACHE_WEIGHTS
        }
        # every weight equally often and exactly the hit share of odd mu,
        # so that seeds differ only in which cells are asked and in what order
        per_weight = CACHE_QUERIES // len(CACHE_WEIGHTS)
        hits = round(per_weight * CACHE_HIT_SHARE)
        queries = []
        for w in CACHE_WEIGHTS:
            strict, odd, other = pools[w]
            queries += [(rng.choice(strict), rng.choice(odd)) for _ in range(hits)]
            queries += [(rng.choice(strict), rng.choice(other)) for _ in range(per_weight - hits)]
        rng.shuffle(queries)
        return {"weights": list(CACHE_WEIGHTS), "queries": queries}
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# timed loops
#
# Each returns (latencies in seconds, errors as [item index, message],
# outputs).  An item that raises is recorded and the loop goes on.

def _capture(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def run_table(hc, inputs: dict, workdir: str):
    char_value = hc.characters.char_value
    latencies, errors, table = [], [], {}
    for i, (lam, mu) in enumerate(inputs["cells"]):
        start = clock()
        try:
            table[(lam, mu)] = char_value(lam, mu)
        except Exception as exc:
            errors.append([i, f"{lam} {mu}: {exc!r}"])
        latencies.append(clock() - start)
    rendered = None
    if not errors:
        rendered = hc.cli.render_table_json(inputs["n"], table)
    return latencies, errors, {"rendered": rendered}


def run_bitrace(hc, inputs: dict, workdir: str):
    sbtr = hc.bitrace.sbtr
    latencies, errors, values = [], [], []
    for i, (mu, nu) in enumerate(inputs["pairs"]):
        start = clock()
        try:
            value = sbtr(mu, nu)
        except Exception as exc:
            errors.append([i, f"{mu} {nu}: {exc!r}"])
            value = None
        latencies.append(clock() - start)
        values.append(None if value is None else [mu, nu, value.to_json()["coeffs"]])
    return latencies, errors, {"values": values}


class _LineStamps(io.StringIO):
    """A text sink that notes the clock each time a line is completed."""

    def __init__(self) -> None:
        super().__init__()
        self.stamps: list[float] = []

    def write(self, s: str) -> int:
        written = super().write(s)
        self.stamps.extend(clock() for _ in range(s.count("\n")))
        return written


def run_verify(hc, inputs: dict, workdir: str):
    main = hc.cli.main
    sink = _LineStamps()
    latencies, errors, codes = [], [], []
    for argv in inputs["calls"]:
        first = len(sink.stamps)
        prev = clock()
        with contextlib.redirect_stdout(sink):
            codes.append(main(list(argv)))
        lines = sink.getvalue().splitlines()[first:]
        for line, stamp in zip(lines, sink.stamps[first:]):
            if line.startswith(("PASS", "FAIL")):
                latencies.append(stamp - prev)
                if not line.startswith("PASS"):
                    errors.append([len(latencies) - 1, line])
            prev = stamp
    return latencies, errors, {"rc": codes, "text": sink.getvalue()}


def run_cache(hc, inputs: dict, workdir: str):
    os.environ[CACHE_ENV] = workdir
    main = hc.cli.main
    latencies, errors, writes, answers = [], [], [], []
    calls = [["table", "--n", str(w)] for w in inputs["weights"]]
    calls += [["char", "--lambda", fmt(lam), "--mu", fmt(mu)] for lam, mu in inputs["queries"]]
    for i, argv in enumerate(calls):
        start = clock()
        try:
            rc, out, err = _capture(main, argv)
        except Exception as exc:
            rc, out, err = None, "", repr(exc)
        latencies.append(clock() - start)
        if rc != 0:
            errors.append([i, f"{' '.join(argv)}: exit {rc} {err.strip()}"])
        if argv[0] == "table":
            writes.append([int(argv[2]), out])
        else:
            answers.append(out)
    return latencies, errors, {"writes": writes, "answers": answers}


RUNNERS = {
    "table": run_table,
    "bitrace": run_bitrace,
    "verify": run_verify,
    "cache": run_cache,
}
