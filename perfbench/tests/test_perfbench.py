"""Tests of the benchmark itself, on small inputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import hcchar  # noqa: E402
import hcchar.cli  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SAFE_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def program_modules() -> dict:
    mods = {"hcchar": hcchar}
    for name, mod in list(sys.modules.items()):
        if name.startswith("hcchar.") and mod is not None:
            mods[name.split(".", 1)[1]] = mod
    return mods


def clear_memos(mods: dict) -> None:
    for fn in tracer.find_memos(mods).values():
        fn.cache_clear()


def snapshot(mods: dict) -> list[tuple]:
    """Every module attribute, module-level dict value and kernel method,
    as (where, object) pairs."""
    out = []
    for short, mod in sorted(mods.items()):
        for key, value in vars(mod).items():
            out.append(((short, key), value))
            if type(value) is dict:
                out.extend(((short, key, k), v) for k, v in value.items())
    for cls in (hcchar.qpoly.QPoly, hcchar.gamma.GammaElement):
        out.extend(((cls.__name__, k), v) for k, v in vars(cls).items())
    return out


def small_inputs() -> dict:
    return {
        "table": {"n": 7, "cells": checks.table_cells(7)},
        "bitrace": {"n": 6, "pairs": checks.bitrace_pairs(6)},
        "verify": {"calls": [["verify", "--suite", "all", "--n-max", "5"],
                             ["verify", "--suite", "cross", "--n-max", "3"]]},
        "cache": {
            "weights": [5, 6],
            "queries": [
                ((5,), (3, 1, 1)), ((4, 2), (2, 2, 1, 1)), ((3, 2, 1), (5, 1)),
                ((6,), (2, 2, 2)), ((4, 1), (1, 1, 1, 1, 1)), ((4, 2), (3, 3)),
            ],
        },
    }


def hc_namespace(mods: dict) -> SimpleNamespace:
    return SimpleNamespace(**mods)


def run_small(mods: dict, workdir) -> dict:
    outputs = {}
    for name, inputs in small_inputs().items():
        path = os.path.join(str(workdir), name)
        os.makedirs(path, exist_ok=True)
        _lat, errors, out = workloads.RUNNERS[name](hc_namespace(mods), inputs, path)
        assert errors == []
        outputs[name] = out
    return outputs


@pytest.fixture(autouse=True)
def _restore_cache_env(monkeypatch):
    monkeypatch.delenv(workloads.CACHE_ENV, raising=False)


def direct_calls(mods: dict) -> list:
    """Values of wrapped functions and methods, called the way the program
    calls them."""
    ch, bt, pt, vx, pf, gm = (mods[m] for m in ("characters", "bitrace", "partitions",
                                                 "vertex", "pfaffian", "gamma"))
    qp = mods["qpoly"].QPoly
    a, b = qp((1, 2, 3)), qp((0, -1, 1))
    lam, mu = (5, 2, 1), (3, 3, 1, 1)
    return [
        [ch.METHODS[m](lam, (5, 3)) for m in sorted(ch.METHODS)],
        ch.char_value(lam, mu), ch.char_two_row(5, (5, 3)), ch.char_column(lam),
        ch.gds_expansion(lam, 3), ch.pfaffian_expansion(lam, 3),
        bt.sbtr((5, 3), (3, 3, 1, 1)), bt.sbtr_matrix((3, 1), (1, 1, 1, 1)), bt.T_mu_nu((3,), (1, 1, 1)),
        bt.alpha_product((2, 1)),
        pt.classify_skew(lam, (3, 1)), list(pt.strict_subpartitions(lam, 4)),
        pt.bounded_compositions(4, (3, 2, 2)), pt.pieri_strips((3, 1), 2, mode="sub"),
        vx.straighten((2, -1, 3)), vx.g_star_vacuum_coeff((3, 1), (3, 1)),
        pf.pfaffian(pf.build_skew_matrix((4, 2, 1), (2,))),
        gm.inner_product(gm.g_product((3, 1)), vx.Q_lambda_vacuum((3, 1))).coeffs,
        (a * b, 3 * a, a + b, a - b, a.scale(2)),
        (gm.expand_g_n(3) * gm.expand_g_n(1)).terms,
        mods["qpoly"].exact_div_qminus1_pow(qp((1, -2, 1)), 2),
    ]


def test_wrappers_return_identical_values_and_restore_originals():
    mods = program_modules()
    before = snapshot(mods)
    original = hcchar.characters.classify_skew
    plain = direct_calls(mods)
    clear_memos(mods)
    t = tracer.Tracer(mods)
    t.install()
    try:
        assert hcchar.characters.classify_skew is not original
        traced = direct_calls(mods)
    finally:
        t.uninstall()
    assert traced == plain
    after = snapshot(mods)
    assert [k for k, _ in after] == [k for k, _ in before]
    changed = [k for (k, v), (_, w) in zip(after, before) if v is not w]
    assert changed == []
    values, absent = t.metrics()
    assert tracer.MISSING not in absent.values()
    assert values["qpoly.mul.calls"] > 0
    assert values["characters.char_pieri.calls"] >= 1
    assert values["bitrace.sbtr_matrix.calls"] == 1


def test_traced_and_untraced_runs_produce_identical_outputs(tmp_path):
    mods = program_modules()
    clear_memos(mods)
    plain = run_small(mods, tmp_path / "plain")
    clear_memos(mods)
    t = tracer.Tracer(mods)
    t.install()
    try:
        traced = run_small(mods, tmp_path / "traced")
    finally:
        t.uninstall()
    assert traced == plain
    values, absent = t.metrics()
    assert tracer.MISSING not in absent.values()
    assert values["cli.store_cached_table.calls"] == 2
    assert values["cli.load_cached_table.hits"] >= 4
    assert values["cli.store_cached_table.bytes_written"] > 0
    assert values["vertex.straighten.calls"] > 0
    assert values["partitions.strict_subpartitions.yielded"] > 0


def test_metric_names_use_only_safe_characters(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(SAFE_NAME.match(n) and len(n) <= 64 for n in names), names
    assert len(names) == len(set(names))
    assert bench["per_layer"] == tracer.result_line_catalog()

    mods = program_modules()
    t = tracer.Tracer(mods)
    t.install()
    try:
        run_small(mods, tmp_path)
    finally:
        t.uninstall()
    values, absent = t.metrics()
    catalog = {m["name"] for m in tracer.metric_catalog()}
    assert set(values) | set(absent) == catalog - {"trace.overhead_s"}
    assert not set(values) & set(absent)
    assert all(SAFE_NAME.match(n) for n in values)


def test_missing_target_is_reported_absent(monkeypatch, tmp_path):
    monkeypatch.setitem(tracer.FUNCTIONS, "bitrace.sbtr_matrix", ("bitrace", ("no_such_function",)))
    monkeypatch.setitem(tracer.MEMOS, "bitrace._T", ("bitrace", "_no_such_memo"))
    monkeypatch.setitem(tracer.METHODS, "gamma.GammaElement.mul", ("gamma", "NoSuchClass", ("__mul__",)))
    monkeypatch.setitem(tracer.FUNCTIONS, "qpoly.exact_div_qminus1_pow", ("qpoly", ("gone",)))
    mods = program_modules()
    t = tracer.Tracer(mods)
    t.install()
    try:
        run_small(mods, tmp_path)
    finally:
        t.uninstall()
    values, absent = t.metrics()
    for name in ("bitrace.sbtr_matrix.calls", "bitrace._T.misses", "bitrace._T.hit_ratio",
                 "gamma.GammaElement.mul.self_s", "characters.normalize.calls",
                 "bitrace.normalize.self_s", "qpoly.exact_div_qminus1_pow.passes"):
        assert absent[name] == tracer.MISSING
        assert name not in values
    assert values["bitrace.sbtr.calls"] > 0


def test_layers_a_run_never_enters_are_absent_not_zero(tmp_path):
    mods = program_modules()
    clear_memos(mods)
    small = small_inputs()["table"]
    t = tracer.Tracer(mods)
    t.install()
    try:
        workloads.RUNNERS["table"](hc_namespace(mods), small, str(tmp_path))
    finally:
        t.uninstall()
    values, absent = t.metrics()
    for name in ("bitrace.sbtr.calls", "bitrace.sbtr.self_s", "bitrace._T.hit_ratio",
                 "characters._g_pieri.hit_ratio", "characters.pfaffian_expansion.kept_ratio",
                 "cli.load_cached_table.rejected", "vertex.straighten.terms_out"):
        assert absent[name] == tracer.UNUSED
        assert name not in values
    assert values["characters.char_combinatorial.calls"] == len(small["cells"])
    assert 0 < values["partitions.classify_skew.gds_ratio"] <= 1

    # the result line holds every per-layer metric of BENCHMARK.json, an
    # absent count as 0, and no time or ratio of a layer the run never entered
    metrics = run.layer_metrics("table", [{"layers": values, "absent": absent, "factor": 1.0}])
    catalog = {m["name"]: m["unit"] for m in tracer.result_line_catalog()}
    del catalog["trace.overhead_s"]
    assert {k: v["unit"] for k, v in metrics.items()} == catalog
    assert all(metrics[name]["value"] == 0 for name in absent if name in metrics)
    assert all(metrics[name]["unit"] not in ("s", "ratio") for name in absent if name in metrics)
    assert metrics["qpoly.mul.calls"]["value"] == values["qpoly.mul.calls"]
    assert metrics["qpoly.mul.self_s"]["value"] > 0


def test_checks_pass_on_right_outputs_and_count_wrong_ones(tmp_path):
    mods = program_modules()
    hc = hc_namespace(mods)
    small = small_inputs()
    refs = {
        "table": checks.record_table(hc, small["table"]["n"]),
        "bitrace": checks.record_bitrace(hc, small["bitrace"]["n"]),
        "verify": checks.record_verify(hc, small["verify"]["calls"]),
        "cache": checks.record_cache(hc, small["cache"]["weights"]),
    }
    outputs = run_small(mods, tmp_path)
    for name, check in checks.CHECKS.items():
        assert check(hc, refs[name], small[name], outputs[name]) == (set(), [])

    bad = copy.deepcopy(outputs)
    payload = json.loads(bad["table"]["rendered"])
    payload["cells"][0]["poly"]["coeffs"][0][0] += 1
    bad["table"]["rendered"] = json.dumps(payload)
    bad["bitrace"]["values"][0][2][-1][0] += 1
    bad["verify"]["text"] = bad["verify"]["text"].replace("PASS", "FAIL", 1)
    bad["cache"]["answers"][0] = "2*q + 1\n"
    for name, check in checks.CHECKS.items():
        failed, messages = check(hc, refs[name], small[name], bad[name])
        assert len(failed) >= 1 and messages, name


def test_benchmark_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
