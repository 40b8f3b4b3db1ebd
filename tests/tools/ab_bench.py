"""A/B benchmark of the working tree against a parent commit.

Builds two copies in a temporary directory: the parent from ``git archive
REV`` and the change from the working tree's files (tracked and untracked,
not ignored).  For each workload of ``BENCHMARK.json`` it runs
``perfbench/run.py`` for the file's ``run_seconds`` in both copies over N
seeds, one pair per seed, alternating which side runs first, and deletes
every ``__pycache__`` directory in both copies before each run, so that
neither side starts from cached bytecode.  ``perfbench/run.py`` runs
unchanged, as a child process.  It prints one JSON object, the ``series`` of a
``BENCH_<n>.json``: per workload and end-to-end metric both sides' runs
and medians, the parent's IQR, the change in percent and in how many
pairs the change was better; and ``src_warpfield_lines``, the lines of
``src/warpfield/**/*.py`` in each copy.

Usage, from the root of a checkout::

    python tests/tools/ab_bench.py --parent REV [--pairs N] [--seed S]
        [--out FILE]

Seeds are ``S + 100 * w + i`` for the i-th pair of the w-th workload in
``BENCHMARK.json``.  Quartiles are numpy's linear 25th and 75th
percentiles.  The copies are deleted at the end.  Pytest does not collect
this file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def make_copies(parent: str, workdir: Path) -> dict[str, Path]:
    """{"parent": git archive of ``parent``, "change": the working files}."""
    copies = {"parent": workdir / "parent", "change": workdir / "change"}
    for path in copies.values():
        path.mkdir()
    archive = subprocess.run(["git", "archive", parent], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(copies["parent"])], input=archive, check=True)
    files = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, files):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted from the tree is left out
            dst = copies["change"] / name
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst)
    return copies


def clear_bytecode(copy: Path) -> None:
    for cache in list(copy.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def run_once(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON line ``perfbench/run.py --trace 0`` prints last."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=copy, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_lines(copy: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (copy / "src" / "warpfield").rglob("*.py"))


def summarize(runs: dict[str, list[float]], better: str) -> dict:
    """Both sides' runs and medians, the parent's IQR, the change in
    percent of the parent's median and the pairs where the change was
    better (``better`` is "lower" or "higher")."""
    parent, change = (np.array(runs[side]) for side in ("parent", "change"))
    q1, q3 = np.percentile(parent, [25, 75])
    wins = change < parent if better == "lower" else change > parent
    med_p, med_c = float(np.median(parent)), float(np.median(change))
    return {"parent": {"runs": [round(v, 4) for v in parent.tolist()],
                       "median": round(med_p, 4)},
            "change": {"runs": [round(v, 4) for v in change.tolist()],
                       "median": round(med_c, 4)},
            "change_pct": round(100.0 * (med_c - med_p) / med_p, 2),
            "change_better_pairs": f"{int(wins.sum())} of {len(wins)}",
            "parent_iqr": round(float(q3 - q1), 4)}


def series(copies: dict[str, Path], workload: str, seeds: list[int], seconds: float,
           metrics: dict[str, str]) -> dict:
    out = {"seeds": seeds, "pairs": len(seeds), "order": [],
           "failed": {"parent": 0, "change": 0}, "attempted": {"parent": 0, "change": 0},
           "correct": {"parent": True, "change": True}}
    runs = {name: {"parent": [], "change": []} for name in metrics}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        out["order"].append(f"{order[0]} first")
        for side in order:
            for copy in copies.values():
                clear_bytecode(copy)
            got = run_once(copies[side], workload, seed, seconds)
            out["failed"][side] += got["failed"]
            out["attempted"][side] += got["attempted"]
            out["correct"][side] &= got["correct"]
            for name in metrics:
                runs[name][side].append(got["metrics"][name]["value"])
            print(f"{workload} seed {seed} {side}: "
                  + ", ".join(f"{n}={got['metrics'][n]['value']:.4f}" for n in metrics),
                  file=sys.stderr, flush=True)
    for name, better in metrics.items():
        out[name] = summarize(runs[name], better)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    parent = git("rev-parse", "--short", args.parent).strip()
    result = {
        "what": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                f"--trace 0; the parent from `git archive` of {parent}, "
                "the change from a copy of the working files, both copies cleared of "
                "__pycache__ before every run; alternating which side runs first in each "
                "pair; quartiles are numpy percentiles 25/75 (linear).",
        "src_warpfield_lines": None,
        "series": {},
    }
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as workdir:
        copies = make_copies(parent, Path(workdir))
        result["src_warpfield_lines"] = {side: source_lines(copy)
                                         for side, copy in copies.items()}
        for w, workload in enumerate(item["name"] for item in bench["workloads"]):
            seeds = [args.seed + 100 * w + i for i in range(args.pairs)]
            result["series"][workload] = series(copies, workload, seeds, seconds, metrics)
    text = json.dumps(result, indent=1)
    if args.out:
        args.out.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
