"""Digest of warpfield's reports over a fixed set of invocations.

Runs 516 CLI invocations in-process and prints their count and the
SHA-256 of their records (key, exit code, stdout, stderr), so two
checkouts can be compared for byte-identical reports:

- ``verify`` in text and jsonl on the 15 corpus manifests, at 16 and 64
  samples, seeds 24181 and 3 (120);
- ``killing`` on every declared field of the corpus, for each kind
  (killing, ssm, 2killing), at 64 samples, both seeds (384);
- ``verify`` in text and jsonl on the two ``wide_chart`` manifests of
  seeds 1, 24181 and 77, at 16 samples (12).

Usage, from the root of a checkout::

    python tests/tools/report_digest.py [--src DIR] [--verdicts] [--dump FILE]
                                        [--against FILE]

``--src`` is the ``src`` directory whose warpfield is run (default: this
checkout's); the corpus and the wide-chart generator are read from this
checkout.  ``--verdicts`` hashes only each invocation's key, exit code
and (check, verdict) pairs, so a change that moves residuals in their
last digits can still show that no verdict moved.  Pytest does not
collect this file.  ``--dump FILE`` also writes the hashed records to FILE,
one JSON object per line in invocation order, so the dumps of two
checkouts can be diffed row by row.  ``--against FILE`` reads such a dump
of another checkout (made with the same ``--verdicts`` setting) and
prints, before the digest, each invocation whose record differs from it:
its key, then only the changed lines, the dump's prefixed ``-`` and this
run's ``+``.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CORPUS = ROOT / "src" / "warpfield" / "corpus"
SEEDS = (24181, 3)
WIDE_SEEDS = (1, 24181, 77)
WIDE_MANIFESTS = 2
FORMATS = ("text", "jsonl")
KINDS = ("killing", "ssm", "2killing")


def invocations(wide_dir: Path):
    """(key, argv) of every invocation, in a fixed order."""
    from warpfield.manifest import load_manifest
    sys.path.insert(0, str(ROOT / "perfbench"))
    from widechart import wide_manifest

    paths = sorted(CORPUS.glob("*.wm"))
    for seed in SEEDS:
        for samples in (16, 64):
            for fmt in FORMATS:
                for path in paths:
                    yield (f"verify:{path.stem}:{samples}:{seed}:{fmt}",
                           ["verify", str(path), "--samples", str(samples),
                            "--seed", str(seed), "--format", fmt])
        for path in paths:
            for field in sorted(load_manifest(path).fields):
                for kind in KINDS:
                    yield (f"killing:{path.stem}:{field}:{kind}:{seed}",
                           ["killing", str(path), "--field", field, "--kind", kind,
                            "--samples", "64", "--seed", str(seed)])
    for seed in WIDE_SEEDS:
        for i in range(WIDE_MANIFESTS):
            path = wide_dir / f"wide{seed}_{i}.wm"
            path.write_text(wide_manifest(seed, i), encoding="utf-8")
            for fmt in FORMATS:
                yield (f"wide:{seed}:{i}:{fmt}",
                       ["verify", str(path), "--samples", "16", "--seed", str(seed),
                        "--format", fmt])


def run(key: str, argv: list[str]) -> dict:
    from warpfield import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return {"key": key, "exit": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


MARKS = {"PASS": "pass", "FAIL": "fail", "----": "inconclusive"}


def verdicts(record: dict) -> dict:
    """The key, exit code and (check, verdict) pairs of one record."""
    pairs = []
    for line in record["stdout"].splitlines():
        if line.startswith("{"):
            obj = json.loads(line)
            if obj["kind"] == "check":
                pairs.append([obj["check"], obj["verdict"]])
        elif " max=" in line:
            mark, check = line.split()[:2]
            pairs.append([check, MARKS[mark]])
    return {"key": record["key"], "exit": record["exit"], "verdicts": pairs}


def changed_lines(old: dict, new: dict) -> list[str]:
    """The lines of two records of one invocation that differ: of each
    text field only the changed lines, of any other field both values."""
    out = []
    for field in sorted(set(old) | set(new)):
        a, b = old.get(field), new.get(field)
        if a == b:
            continue
        if isinstance(a, str) and isinstance(b, str):
            out += [f"  {field}: {line}" for line in
                    difflib.ndiff(a.splitlines(), b.splitlines()) if line[:1] in "-+"]
        else:
            out += [f"  {field}: - {json.dumps(a)}", f"  {field}: + {json.dumps(b)}"]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--verdicts", action="store_true",
                        help="hash key, exit code and verdicts only")
    parser.add_argument("--dump", type=Path,
                        help="write the hashed records to this JSONL file")
    parser.add_argument("--against", type=Path,
                        help="print the records that differ from this --dump file")
    args = parser.parse_args()
    against = {}
    if args.against:
        with args.against.open(encoding="utf-8") as f:
            against = {rec["key"]: rec for rec in map(json.loads, f)}
    sys.path.insert(0, str(args.src.resolve()))
    digest = hashlib.sha256()
    count = moved = 0
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        dump = (stack.enter_context(args.dump.open("w", encoding="utf-8"))
                if args.dump else None)
        for key, argv in invocations(Path(tmp)):
            record = run(key, argv)
            if args.verdicts:
                record = verdicts(record)
            line = json.dumps(record, sort_keys=True) + "\n"
            digest.update(line.encode("utf-8"))
            if dump:
                dump.write(line)
            if args.against and against.get(key) != record:
                moved += 1
                if key in against:
                    print(key, *changed_lines(against[key], record), sep="\n")
                else:
                    print(f"{key}: not in {args.against}")
            count += 1
    if args.against:
        print(f"{moved} of {count} invocations differ from {args.against}")
    print(f"{count} invocations  sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
