"""warpfield benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload corpus_verify --seed 1 --seconds 40 --trace 0

``--trace 0`` measures set-up, then runs timed passes of the workload
until ``--seconds`` (set-up included) is used up, at least two, and
reports the end-to-end metrics.  Its times are corrected for the
machine's speed, sampled while they are measured (see speed.py).
``--trace 1`` runs one unmeasured warm-up pass, then untraced, traced,
traced and untraced passes, and reports the per-layer metrics of the
first traced pass and the tracing overhead.  Both modes check every
invocation against the expected result and require its report to be
byte-identical in every pass.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Single-threaded load: set before numpy is imported here or in a child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Per-layer metrics taken from the pass times of a --trace 1 run.
RUN_TIMES = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s")

# Only killing_sweep makes enough CLI invocations per pass (192) for
# per-invocation percentiles.  They are printed, not JSON metrics, because
# every JSON metric must be reported on every workload.
INVOCATION_WORKLOAD = "killing_sweep"

SETUP_REPEATS = 25
SETUP_SAMPLES = 2       # speed-probe kernel runs before and after each start
SETUP_CODE = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from warpfield.manifest import load_manifest
from warpfield.suite import default_registry
manifests = [load_manifest(p)
             for p in sorted(Path(sys.argv[1], "warpfield", "corpus").glob("*.wm"))]
sys.exit(0 if manifests and default_registry().specs else 1)
"""


def measure_setup(probe) -> float:
    """Median seconds for a fresh interpreter to import warpfield, parse the
    corpus manifests and build the default registry, each start corrected
    by the probe's slowdown just before and after it (sampling in the
    parent while the child runs measured the other core).  One unmeasured
    start first, so bytecode is cached."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        mark = probe.mark()
        for _ in range(SETUP_SAMPLES):
            probe.sample()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True)
        elapsed = time.perf_counter() - t0
        for _ in range(SETUP_SAMPLES):
            probe.sample()
        times.append(elapsed / probe.slowdown(mark))
    return statistics.median(times[1:])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count()}


def timed_run(invs, deadline: float, probe):
    """Passes until the next would end past ``deadline`` (a
    ``perf_counter`` time), at least two, and the probe's slowdown over
    each pass."""
    from workloads import run_pass

    passes, slowdowns = [], []
    with probe.sampling():
        while True:
            mark = probe.mark()
            passes.append(run_pass(invs, probe.clock))
            slowdowns.append(probe.slowdown(mark))
            typical = statistics.median(p.wall_s for p in passes)
            if len(passes) >= 2 and time.perf_counter() + typical > deadline:
                return passes, slowdowns


def end_to_end(passes, slowdowns, setup_s: float) -> tuple[dict, list[str]]:
    from workloads import results_per_pass

    walls = [p.wall_s / s for p, s in zip(passes, slowdowns)]
    wall_s = statistics.median(walls)
    q1, _, q3 = statistics.quantiles(walls, n=4)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "checks_per_s": (results_per_pass(passes[0]) / wall_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = [f"setup_s: median of {SETUP_REPEATS} fresh interpreters",
             f"wall_s: median of {len(walls)} passes, quartiles {q1:.4f} .. {q3:.4f} s; "
             f"uncorrected median {statistics.median(p.wall_s for p in passes):.4f} s",
             f"speed: slowdown {min(slowdowns):.3f} .. {max(slowdowns):.3f} over passes",
             f"checks_per_s: {results_per_pass(passes[0])} results per pass"]
    return metrics, notes


def invocation_percentiles(passes, slowdowns) -> dict:
    """p50 and p90 seconds per CLI invocation over every timed pass,
    corrected like ``wall_s``."""
    times = [t / s for p, s in zip(passes, slowdowns) for t in p.times]
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return {"invocation_s.p50": (deciles[4], "s"), "invocation_s.p90": (deciles[8], "s")}


def traced_run(invs, workload: str, seed: int, env: dict):
    from tracer import Tracer, per_layer_names
    from workloads import OUT, run_pass

    def traced_pass(tracer):
        with tracer.installed():
            return run_pass(invs)

    # One-time costs (lazy imports, first numpy calls) fall on the warm-up.
    # The untraced, traced, traced, untraced order cancels a steady drift
    # in machine speed from the overhead.
    warmup = run_pass(invs)
    tracer = Tracer()
    untraced = [run_pass(invs)]
    traced = [traced_pass(tracer), traced_pass(Tracer())]
    untraced.append(run_pass(invs))
    traced_s = statistics.mean(p.wall_s for p in traced)
    untraced_s = statistics.mean(p.wall_s for p in untraced)
    layer = tracer.per_layer()
    layer["trace.wall_s"] = traced_s
    layer["trace.untraced_wall_s"] = untraced_s
    layer["trace.overhead_s"] = traced_s - untraced_s
    units = dict(per_layer_names()) | dict.fromkeys(RUN_TIMES, "s")
    OUT.mkdir(parents=True, exist_ok=True)
    trace_file = OUT / f"trace-{workload}-{seed}.json"
    trace_file.write_text(json.dumps(
        {"workload": workload, "seed": seed, "environment": env,
         "wall_s": traced_s, "untraced_wall_s": untraced_s,
         **tracer.spans()}, indent=1) + "\n", encoding="utf-8")
    metrics = {name: (value, units[name]) for name, value in layer.items()}
    notes = ["trace: warm-up, then untraced, traced, traced, untraced passes; "
             f"wall times are means of two; spans in {trace_file.relative_to(ROOT)}"]
    return [warmup, *untraced, *traced], metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus_verify", "killing_sweep", "wide_chart"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    if not (SRC / "warpfield" / "__init__.py").is_file():
        print(f"warpfield sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import warpfield.checks  # noqa: F401  (loaded before timing, as set-up)
    from workloads import count_failures, invocations, load_table

    if not Path(warpfield.__file__).resolve().is_relative_to(SRC):
        print(f"imported warpfield from {warpfield.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment()
    invs = invocations(args.workload, args.seed, load_table(args.workload))
    printed = {}
    if args.trace:
        passes, metrics, notes = traced_run(invs, args.workload, args.seed, env)
    else:
        from speed import SpeedProbe

        probe = SpeedProbe()
        setup_s = measure_setup(probe)
        passes, slowdowns = timed_run(invs, start + args.seconds, probe)
        metrics, notes = end_to_end(passes, slowdowns, setup_s)
        if args.workload == INVOCATION_WORKLOAD:
            printed = invocation_percentiles(passes, slowdowns)
            notes.append(f"invocation_s: over {len(invs) * len(passes)} invocations; "
                         "printed only, not in the JSON metrics")

    attempted = len(invs) * len(passes)
    failed = count_failures(invs, passes)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']}")
    for name, (value, unit) in (metrics | printed).items():
        print(f"  {name:<40} {value:>16.6f} {unit}")
    print(f"  {'failed_ratio':<40} {failed / attempted:>16.6f} ({failed} of {attempted})")
    for note in notes:
        print(f"  # {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
