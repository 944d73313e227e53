"""Output checks against references recorded from a known-good commit.

Every check runs in the parent process, outside the timed phase.  A check
returns the set of failed item positions (positions in the workload's
seeded item order; -1 for a whole-output mismatch that names no item) and
one message per failure.

The references hold, per item, a short digest of the value's canonical text
(QPoly.to_text, which is also what ``hcchar char`` prints), in the
benchmark's own canonical enumeration order, plus a SHA-256 of each whole
output.  record_references.py writes them.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import factorial

import workloads

DIGEST_CHARS = 8


def short_digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=DIGEST_CHARS // 2).hexdigest()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def split_digests(joined: str) -> list[str]:
    return [joined[i:i + DIGEST_CHARS] for i in range(0, len(joined), DIGEST_CHARS)]


def z_value(parts) -> int:
    out = 1
    for part in set(parts):
        m = parts.count(part)
        out *= part**m * factorial(m)
    return out


def coeff_invariants(coeffs, bound: int) -> str | None:
    """Integer coefficients, palindromic between valuation and degree, and
    degree at most ``bound``; None when all hold."""
    if any(den != 1 for _num, den in coeffs):
        return "non-integer coefficient"
    values = [num for num, _den in coeffs]
    low = next((i for i, v in enumerate(values) if v), len(values))
    window = values[low:]
    if window != window[::-1]:
        return "not palindromic"
    if len(values) - 1 > bound:
        return f"degree {len(values) - 1} > {bound}"
    return None


# ---------------------------------------------------------------------------
# canonical item orders

def table_cells(n: int):
    return [(lam, mu) for mu in workloads.odd_partitions(n) for lam in workloads.strict_partitions(n)]


def bitrace_pairs(n: int):
    odd = workloads.odd_partitions(n)
    return [(mu, nu) for mu in odd for nu in odd]


def cache_cells(w: int):
    return [(lam, mu) for mu in workloads.partitions(w) for lam in workloads.strict_partitions(w)]


# ---------------------------------------------------------------------------
# recording

def record_table(hc, n: int) -> dict:
    table = hc.characters.char_table(n)
    rendered = hc.cli.render_table_json(n, table)
    cells = "".join(short_digest(table[key].to_text()) for key in table_cells(n))
    return {"n": n, "render_sha256": sha256(rendered), "cells": cells}


def record_bitrace(hc, n: int) -> dict:
    texts = [hc.bitrace.sbtr(mu, nu).to_text() for mu, nu in bitrace_pairs(n)]
    return {
        "n": n,
        "sha256": sha256("\n".join(texts)),
        "pairs": "".join(short_digest(t) for t in texts),
    }


def record_verify(hc, calls) -> dict:
    _lat, _err, outputs = workloads.run_verify(hc, {"calls": [list(a) for a in calls]}, "")
    return {"calls": [list(a) for a in calls], "rc": outputs["rc"], "sha256": sha256(outputs["text"])}


def record_cache(hc, weights) -> dict:
    out = {}
    for w in weights:
        rendered = hc.cli.render_table_json(w, hc.characters.char_table(w))
        cells = "".join(
            short_digest(hc.characters.char_value(lam, mu).to_text()) for lam, mu in cache_cells(w)
        )
        out[str(w)] = {"table_sha256": sha256(rendered), "cells": cells}
    return {"weights": out}


# ---------------------------------------------------------------------------
# checking

def check_table(hc, ref: dict, inputs: dict, outputs: dict):
    failed, messages = set(), []
    rendered = outputs["rendered"]
    if rendered is None:
        return failed, messages  # a cell raised; the child reported it
    n = ref["n"]
    position = {key: i for i, key in enumerate(inputs["cells"])}
    digests = split_digests(ref["cells"])
    cells = {}
    for cell in json.loads(rendered)["cells"]:
        cells[(tuple(cell["lambda"]), tuple(cell["mu"]))] = cell["poly"]["coeffs"]
    for idx, (lam, mu) in enumerate(table_cells(n)):
        coeffs = cells.get((lam, mu))
        problem = None
        if coeffs is None:
            problem = "missing from the rendered table"
        else:
            value = hc.qpoly.QPoly.from_json({"coeffs": coeffs})
            problem = coeff_invariants(coeffs, n - len(mu))
            if problem is None and short_digest(value.to_text()) != digests[idx]:
                problem = f"differs from the reference: {value.to_text()}"
            if problem is None and lam == (n,) and value != hc.characters.char_one_row(mu):
                problem = "differs from char_one_row"
            if problem is None and mu == (1,) * n and value != hc.characters.char_column(lam):
                problem = "differs from char_column"
        if problem:
            failed.add(position[(lam, mu)])
            messages.append(f"table cell {lam} {mu}: {problem}")
    if not failed and sha256(rendered) != ref["render_sha256"]:
        failed.add(-1)
        messages.append("rendered table JSON differs from the reference")
    return failed, messages


def check_bitrace(hc, ref: dict, inputs: dict, outputs: dict):
    failed, messages = set(), []
    n = ref["n"]
    position = {key: i for i, key in enumerate(inputs["pairs"])}
    values = {}
    for entry in outputs["values"]:
        if entry is not None:
            mu, nu, coeffs = entry
            values[(tuple(mu), tuple(nu))] = coeffs
    digests = split_digests(ref["pairs"])
    texts = []
    for idx, (mu, nu) in enumerate(bitrace_pairs(n)):
        coeffs = values.get((mu, nu))
        if coeffs is None:
            texts.append("")
            continue  # the call raised; the child reported it
        text = hc.qpoly.QPoly.from_json({"coeffs": coeffs}).to_text()
        texts.append(text)
        at_one = sum(Fraction(num, den) for num, den in coeffs)
        expected = 2 ** len(mu) * z_value(mu) if mu == nu else 0
        problem = None
        if short_digest(text) != digests[idx]:
            problem = f"differs from the reference: {text}"
        elif at_one != expected:
            problem = f"value at q=1 is {at_one}, expected {expected}"
        elif (nu, mu) in values and values[(nu, mu)] != coeffs:
            problem = "sbtr(mu, nu) != sbtr(nu, mu)"
        if problem:
            failed.add(position[(mu, nu)])
            messages.append(f"sbtr {mu} {nu}: {problem}")
    if not failed and len(values) == len(texts) and sha256("\n".join(texts)) != ref["sha256"]:
        failed.add(-1)
        messages.append("bitrace outputs differ from the reference")
    return failed, messages


def check_verify(hc, ref: dict, inputs: dict, outputs: dict):
    failed, messages = set(), []
    lines = [l for l in outputs["text"].splitlines() if l.startswith(("PASS", "FAIL"))]
    for i, line in enumerate(lines):
        if not line.startswith("PASS"):
            failed.add(i)
            messages.append(line)
    if outputs["rc"] != ref["rc"]:
        failed.add(-1)
        messages.append(f"verify exit codes {outputs['rc']}, expected {ref['rc']}")
    elif not failed and sha256(outputs["text"]) != ref["sha256"]:
        failed.add(-1)
        messages.append("verify output differs from the reference")
    return failed, messages


def check_cache(hc, ref: dict, inputs: dict, outputs: dict):
    failed, messages = set(), []
    refs = ref["weights"]
    cold = {}
    for i, (w, text) in enumerate(outputs["writes"]):
        if sha256(text) != refs[str(w)]["table_sha256"]:
            failed.add(i)
            messages.append(f"table --n {w} differs from the reference")
            continue
        for cell in json.loads(text)["cells"]:
            key = (tuple(cell["lambda"]), tuple(cell["mu"]))
            cold[key] = hc.qpoly.QPoly.from_json(cell["poly"]).to_text()
    offset = len(outputs["writes"])
    index = {}
    for w in {sum(lam) for lam, _mu in inputs["queries"]}:
        digests = split_digests(refs[str(w)]["cells"])
        index.update(zip(cache_cells(w), digests))
    for j, ((lam, mu), answer) in enumerate(zip(inputs["queries"], outputs["answers"])):
        text = answer.rstrip("\n")
        problem = None
        if short_digest(text) != index[(lam, mu)]:
            problem = f"differs from the reference: {text!r}"
        elif all(p % 2 for p in mu) and (lam, mu) in cold and text != cold[(lam, mu)]:
            problem = f"cached answer {text!r} != cold-computed {cold[(lam, mu)]!r}"
        if problem:
            failed.add(offset + j)
            messages.append(f"char {lam} {mu}: {problem}")
    return failed, messages


CHECKS = {
    "table": check_table,
    "bitrace": check_bitrace,
    "verify": check_verify,
    "cache": check_cache,
}
