"""Command-line interface.

``warpfield verify MANIFEST [--props IDS]`` runs registry checks against
one manifest; ``warpfield killing MANIFEST --field NAME`` runs a single
residual check for a named field.  Exit codes: 0 all selected checks
pass, 1 a check failed (or an explicitly selected check could not run),
2 usage or manifest errors, or a run too large for memory.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .connections import LEVI_CIVITA, SEMI_SYMMETRIC, Geometry
from .fields import ProductField
from .jets import DomainError
from .lie_killing import lie_lie_matrix, lie_matrix, point_max
from .manifest import Manifest, ManifestError, load_manifest
from .metric import GeometryError, sample_points
from .report import jsonl_report, text_report
from .sampling import DEFAULT_SAMPLES, DEFAULT_SEED, SplitMix, subseed
from .suite import (
    CheckResult,
    Tolerances,
    default_registry,
    residual_outcome,
    run_checks,
)

USAGE_ERROR = 2


def corpus_dir() -> Path:
    env = os.environ.get("WARPFIELD_CORPUS")
    if env:
        return Path(env)
    return Path(__file__).parent / "corpus"


def resolve_manifest(path_text: str) -> Path:
    """The path as given; a bare file name that names no file here is
    looked up in the corpus, and any other path only as given."""
    p = Path(path_text)
    if p.exists():
        return p
    candidate = corpus_dir() / p.name
    if path_text == p.name and candidate.exists():
        return candidate
    raise FileNotFoundError(f"manifest not found: {path_text}")


def _tolerances(args) -> Tolerances:
    return Tolerances(alg=args.tol_alg, two=args.tol_2k)


# The largest --samples: the smallest corpus chart already holds some 2 GB
# there (README, "Command line"), so a larger count is refused in one line.
MAX_SAMPLES = 10 ** 6


def _flag_error(args) -> str | None:
    """Why the run flags cannot drive a run, or None when they can."""
    if args.samples < 1:
        return f"--samples must be at least 1, got {args.samples}"
    if args.samples > MAX_SAMPLES:
        return f"--samples must be at most {MAX_SAMPLES}, got {args.samples}"
    for flag, value in (("--tol-alg", args.tol_alg), ("--tol-2k", args.tol_2k)):
        if not (math.isfinite(value) and value > 0):
            return f"{flag} must be finite and positive, got {value}"
    return None


# Flags that take a number.  argparse reads a value such as ``-1e-6``,
# ``-inf`` or ``-nan`` after them as an unknown option, so such a value is
# joined to its flag and reaches the bound check in _flag_error.
_NUMBER_FLAGS = ("--samples", "--seed", "--tol-alg", "--tol-2k")


def _join_negative_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _NUMBER_FLAGS and tok[:1] == "-" and tok[1:2] != "-":
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _common_flags(sub):
    sub.add_argument("manifest", help="manifest file (.wm)")
    sub.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--tol-alg", type=float, default=1e-8, dest="tol_alg")
    sub.add_argument("--tol-2k", type=float, default=1e-7, dest="tol_2k")
    sub.add_argument("--format", choices=("text", "jsonl"), default="text")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged, so every invocation shares it."""
    parser = argparse.ArgumentParser(
        prog="warpfield",
        description="residual checks for warped-product metric identities")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run registry checks on a manifest")
    _common_flags(verify)
    verify.add_argument("--props", default="all",
                        help="comma-separated check ids (or 'all')")

    killing = sub.add_parser("killing", help="run a field residual check")
    _common_flags(killing)
    killing.add_argument("--field", required=True,
                         help="field name, or names joined with '+'")
    killing.add_argument("--kind", choices=("killing", "ssm", "2killing"),
                         default="killing")
    return parser


def _usage_error(message) -> int:
    print(f"warpfield: {message}", file=sys.stderr)
    return USAGE_ERROR


def _emit(args, mf_name: str, results: list[CheckResult]) -> None:
    fn = jsonl_report if args.format == "jsonl" else text_report
    sys.stdout.write(fn(mf_name, __version__, args.seed, args.samples, results))


def _exit_code(results: list[CheckResult], explicit: bool) -> int:
    if any(r.failed for r in results):
        return 1
    if explicit and any(r.verdict == "inconclusive" for r in results):
        return 1
    return 0


def cmd_verify(args) -> int:
    mf = load_manifest(resolve_manifest(args.manifest))
    registry = default_registry()
    tokens = [t.strip() for t in args.props.split(",") if t.strip()]
    if not tokens:
        return _usage_error(f"--props {args.props!r} names no check")
    explicit = tokens != ["all"]
    try:
        specs = registry.select_many(tokens)
    except KeyError as err:
        return _usage_error(err.args[0])
    results = run_checks(mf, specs, samples=args.samples, seed=args.seed,
                         tol=_tolerances(args), explicit=explicit)
    _emit(args, mf.name, results)
    return _exit_code(results, explicit)


def _field_combo(mf: Manifest, spec: str) -> ProductField:
    parts = []
    for name in spec.split("+"):
        name = name.strip()
        if name not in mf.fields:
            raise KeyError(f"unknown field {name!r} "
                           f"(manifest declares {sorted(mf.fields)})")
        parts.append(mf.fields[name])
    return ProductField(tuple(parts))


def cmd_killing(args) -> int:
    mf = load_manifest(resolve_manifest(args.manifest))
    try:
        zeta = _field_combo(mf, args.field)
    except (KeyError, GeometryError) as err:
        return _usage_error(err.args[0])  # str() of a KeyError quotes it
    tol = _tolerances(args)
    rng = SplitMix(subseed(args.seed, mf.name, "cli-killing"))
    points = sample_points(mf.structure, args.samples, rng, mf.exclusions)
    geom = Geometry(mf.structure, mf.torsion, points)
    if args.kind == "2killing":
        name, bound = "two_killing", tol.two
        mats = lie_lie_matrix(geom, zeta)
    else:
        name, bound = ("ssm_killing" if args.kind == "ssm" else "killing"), tol.alg
        kind = SEMI_SYMMETRIC if args.kind == "ssm" else LEVI_CIVITA
        mats = lie_matrix(geom, zeta, kind)
    result = CheckResult.of(f"{name}:{args.field}", name, mf.name,
                            residual_outcome(point_max(mats), bound))
    _emit(args, mf.name, [result])
    return 0 if result.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_values(
            sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as err:
        return USAGE_ERROR if err.code not in (0,) else 0
    problem = _flag_error(args)
    if problem:
        return _usage_error(problem)
    try:
        # a non-finite residual fails its check through max_abs, so numpy's
        # floating-point warnings would only repeat the report on stderr
        with np.errstate(all="ignore"):
            if args.command == "verify":
                return cmd_verify(args)
            return cmd_killing(args)
    except (ManifestError, FileNotFoundError, GeometryError, DomainError) as err:
        return _usage_error(err)
    except MemoryError as err:
        return _usage_error(f"out of memory: {err}")


if __name__ == "__main__":
    sys.exit(main())
