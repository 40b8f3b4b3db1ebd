"""The benchmark's workloads: the CLI invocations of one pass and the
check applied to each invocation's exit code and report.

Each workload is a closed loop with one caller: the next invocation of
``warpfield.cli.main`` starts only when the previous one has returned.
The workload seed is passed to every invocation as ``--seed``; for
``wide_chart`` it also seeds the manifest generator.

Import this module only after ``src`` of the checkout is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from warpfield import cli
from warpfield.manifest import load_manifest

from widechart import wide_manifest

BENCH = Path(__file__).resolve().parent
CORPUS = BENCH.parent / "src" / "warpfield" / "corpus"
EXPECTED = BENCH / "expected"
OUT = BENCH / "out"

# Sample counts per invocation.  A full-corpus verify at the CLI default
# of 64 samples takes about 44 s, too long for a run to median several
# passes, so corpus_verify runs at 16 samples: the same 682 results and
# the same verdict counts, in a quarter of the time.
CORPUS_SAMPLES = 16
KILLING_SAMPLES = 64
WIDE_SAMPLES = 16
WIDE_MANIFESTS = 2
KILLING_KINDS = ("killing", "ssm", "2killing")

_MARKS = {"PASS": "pass", "FAIL": "fail", "----": "inconclusive"}


def parse_verdicts(report: str) -> dict[str, str]:
    """Check id -> verdict from a text report (header and summary dropped)."""
    rows = (line.split() for line in report.splitlines()[1:-1])
    return {row[1]: _MARKS[row[0]] for row in rows}


@dataclass(frozen=True)
class Invocation:
    key: str                  # row of the expected table
    argv: tuple[str, ...]
    expected: dict | None     # {"exit": int, "verdicts": {...}}; None: exit 0, no fail

    def accepts(self, rc: int | None, report: str) -> bool:
        if rc is None:
            return False
        try:
            verdicts = parse_verdicts(report)
        except (KeyError, IndexError):
            return False
        if self.expected is None:
            return rc == 0 and "fail" not in verdicts.values()
        return {"exit": rc, "verdicts": verdicts} == self.expected


@dataclass
class PassResult:
    wall_s: float
    times: list[float]
    outputs: list[tuple[int | None, str]]   # (exit code or None if raised, stdout)


def load_table(workload: str) -> dict:
    """Expected results by invocation key; empty for ``wide_chart``."""
    if workload == "wide_chart":
        return {}
    path = EXPECTED / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))["entries"]


def corpus_paths() -> list[Path]:
    return sorted(CORPUS.glob("*.wm"))


def invocations(workload: str, seed: int, table: dict) -> list[Invocation]:
    """The invocations of one pass; ``table`` maps keys to expected results."""
    def expect(key):
        # A key missing from the table never matches, so it counts as failed.
        return table.get(key, {"exit": None})

    invs: list[Invocation] = []
    if workload == "corpus_verify":
        for path in corpus_paths():
            invs.append(Invocation(
                path.stem,
                ("verify", str(path), "--samples", str(CORPUS_SAMPLES),
                 "--seed", str(seed)),
                expect(path.stem)))
    elif workload == "killing_sweep":
        for path in corpus_paths():
            for field in sorted(load_manifest(path).fields):
                for kind in KILLING_KINDS:
                    key = f"{path.stem}:{field}:{kind}"
                    invs.append(Invocation(
                        key,
                        ("killing", str(path), "--field", field, "--kind", kind,
                         "--samples", str(KILLING_SAMPLES), "--seed", str(seed)),
                        expect(key)))
    elif workload == "wide_chart":
        out_dir = OUT / "wide_chart"
        out_dir.mkdir(parents=True, exist_ok=True)
        for i in range(WIDE_MANIFESTS):
            path = out_dir / f"wide{i}.wm"
            path.write_text(wide_manifest(seed, i), encoding="utf-8")
            invs.append(Invocation(
                path.stem,
                ("verify", str(path), "--samples", str(WIDE_SAMPLES),
                 "--seed", str(seed)),
                None))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return invs


def run_pass(invs: list[Invocation], clock=time.perf_counter) -> PassResult:
    """Run every invocation once in-process, capturing its stdout; times
    are read from ``clock``."""
    times: list[float] = []
    outputs: list[tuple[int | None, str]] = []
    start = clock()
    for inv in invs:
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(inv.argv))
        except Exception:
            # The benchmark keeps going; the invocation counts as failed.
            traceback.print_exc(file=sys.stderr)
            rc = None
        times.append(clock() - t0)
        outputs.append((rc, out.getvalue()))
    return PassResult(clock() - start, times, outputs)


def count_failures(invs: list[Invocation], passes: list[PassResult]) -> int:
    """Invocations that raised, missed the expected result, or whose report
    differs from the same invocation's report in the first pass."""
    first = passes[0].outputs
    failed = 0
    for p in passes:
        for inv, (rc, report), ref in zip(invs, p.outputs, first):
            if (rc, report) != ref or not inv.accepts(rc, report):
                failed += 1
    return failed


def results_per_pass(p: PassResult) -> int:
    """Check results reported in one pass (one per report line but the
    header and summary)."""
    return sum(max(len(report.splitlines()) - 2, 0) for _, report in p.outputs)
