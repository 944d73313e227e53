"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record_references.py

Computes each workload's outputs once with this checkout's ``src`` and
writes perfbench/references.json.  Run it only at a commit whose outputs are
known to be right; a later commit is checked against what it wrote.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from run import load_program  # noqa: E402


def main() -> int:
    hc = load_program()
    refs = {
        "table": checks.record_table(hc, workloads.TABLE_N),
        "bitrace": checks.record_bitrace(hc, workloads.BITRACE_N),
        "verify": checks.record_verify(hc, workloads.VERIFY_CALLS),
        "cache": checks.record_cache(hc, workloads.CACHE_WEIGHTS),
    }
    path = os.path.join(HERE, "references.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(refs, handle, indent=1)
        handle.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
