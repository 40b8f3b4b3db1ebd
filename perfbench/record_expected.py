"""Record the expected verdict tables of corpus_verify and killing_sweep.

Run from the root of a checkout::

    python3 perfbench/record_expected.py

For each invocation of one pass it stores the exit code and the verdict
of every reported check in ``perfbench/expected/<workload>.json``, at
seed ``SEED``.  The benchmark compares verdicts, not residuals, so a
last-ulp change in a residual does not need a new table; a changed
verdict does.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from workloads import (EXPECTED, invocations, parse_verdicts,  # noqa: E402
                       run_pass)

RECORDED = ("corpus_verify", "killing_sweep")
SEED = 24181


def record(workload: str) -> dict:
    invs = invocations(workload, SEED, {})
    result = run_pass(invs)
    entries = {}
    for inv, (rc, report) in zip(invs, result.outputs):
        if rc is None:
            raise SystemExit(f"{inv.key}: invocation raised")
        entries[inv.key] = {"exit": rc, "verdicts": parse_verdicts(report)}
    return {"workload": workload, "seed": SEED, "entries": entries}


def main() -> int:
    EXPECTED.mkdir(exist_ok=True)
    for workload in RECORDED:
        table = record(workload)
        path = EXPECTED / f"{workload}.json"
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        verdicts = [v for e in table["entries"].values() for v in e["verdicts"].values()]
        print(f"{path.name}: {len(table['entries'])} invocations, "
              f"{len(verdicts)} results, "
              + ", ".join(f"{verdicts.count(v)} {v}"
                          for v in ("pass", "fail", "inconclusive")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
