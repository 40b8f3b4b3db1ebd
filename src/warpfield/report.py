"""Deterministic report emission.

The machine-readable format is one JSON object per line with keys in
fixed alphabetical order, so two runs with identical inputs produce
byte-identical output; a float that is not finite is written as the
string the text report prints, ``"nan"``, ``"inf"`` or ``"-inf"``, so
every line is strict JSON.  The text format is a fixed-width table.
"""

from __future__ import annotations

import json
import math

from .suite import CheckResult

TOOL_NAME = "warpfield"


def _line(obj: dict) -> str:
    obj = {k: str(float(v)) if isinstance(v, float) and not math.isfinite(v) else v
           for k, v in obj.items()}
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def jsonl_report(manifest_name: str, version: str, seed: int, samples: int,
                 results: list[CheckResult]) -> str:
    lines = [_line({
        "kind": "header",
        "manifest": manifest_name,
        "samples": samples,
        "seed": seed,
        "tool": TOOL_NAME,
        "version": version,
    })]
    failed = 0
    for r in results:
        if r.failed:
            failed += 1
        lines.append(_line({
            "check": r.check,
            "kind": "check",
            "manifest": r.manifest,
            "max_abs": r.max_abs,
            "mean_abs": r.mean_abs,
            "note": r.note,
            "samples": r.samples,
            "tolerance": r.tolerance,
            "verdict": r.verdict,
        }))
    lines.append(_line({
        "checks": len(results),
        "failed": failed,
        "kind": "overall",
        "overall": "fail" if failed else "pass",
    }))
    return "\n".join(lines) + "\n"


def text_report(manifest_name: str, version: str, seed: int, samples: int,
                results: list[CheckResult]) -> str:
    lines = [f"{TOOL_NAME} {version}  manifest={manifest_name}  "
             f"seed={seed}  samples={samples}"]
    failed = 0
    for r in results:
        if r.failed:
            failed += 1
        mark = {"pass": "PASS", "fail": "FAIL", "inconclusive": "----"}[r.verdict]
        lines.append(f"{mark}  {r.check:<16} max={r.max_abs:<12.6g} "
                     f"tol={r.tolerance:<9.3g} n={r.samples:<5d} {r.note}")
    lines.append(f"{'FAIL' if failed else 'PASS'}  "
                 f"{len(results)} check(s), {failed} failed")
    return "\n".join(lines) + "\n"
