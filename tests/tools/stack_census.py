"""Memory census of the geometry stacks of one ``verify`` invocation.

Runs ``warpfield verify MANIFEST`` in-process under ``tracemalloc`` and
prints, once it has returned:

- the bytes each geometry's stacks hold: the chart's and each block's;
- within each geometry, the bytes and stack count per quantity (the
  function that computes the stack, e.g. ``_field_jets``);
- the peak of the traced allocations over the invocation.

An array shared by two geometries (a lifted part's jet, which a block
geometry reads from its chart's stack of the part) is counted once, at
the block; a view counts the array it views.  Usage, from the root of a checkout::

    python tests/tools/stack_census.py MANIFEST [--samples N] [--seed S] [--src DIR]

MANIFEST is a path, or ``wide:SEED:INDEX`` for the manifest that
``perfbench/widechart.py`` generates (``wide:1:0`` is the first
``wide_chart`` manifest of seed 1).  ``--src`` is the ``src`` directory
whose warpfield is run (default: this checkout's), so two checkouts can
be compared.  Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
MB = 1e6


def arrays_in(value):
    """Every array a stack's value holds: in tuples, in the values of a
    ``jet_env``, and in the attributes of dataclasses, jets and envs."""
    if isinstance(value, np.ndarray):
        yield value
        return
    if isinstance(value, (tuple, list, dict)):
        for v in (value.values() if isinstance(value, dict) else value):
            yield from arrays_in(v)
    if hasattr(value, "__dict__") or hasattr(value, "__slots__"):
        names = list(vars(value)) if hasattr(value, "__dict__") else value.__slots__
        for name in names:
            yield from arrays_in(getattr(value, name))


def owner(a: np.ndarray) -> np.ndarray:
    """The array whose memory ``a`` views (``a`` itself if it owns it)."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def census(geoms) -> list[tuple[str, dict]]:
    """(label, {quantity: [stacks, bytes]}) per geometry, blocks first,
    each array's memory counted once."""
    labels = {id(blk): f"block {key}" for g in geoms
              for key, blk in getattr(g, "_blocks", {}).items()}
    ordered = sorted(geoms, key=lambda g: id(g) not in labels)
    seen: set[int] = set()
    out = []
    for g in ordered:
        per = defaultdict(lambda: [0, 0])
        for (compute, _), value in g._stacks.items():
            row = per[getattr(compute, "__name__", repr(compute))]
            row[0] += 1
            for a in map(owner, arrays_in(value)):
                if id(a) not in seen:
                    seen.add(id(a))
                    row[1] += a.nbytes
        label = labels.get(id(g), "chart")
        out.append((f"{label} (n={g.ps.total_dim}, {len(g.points)} samples)", dict(per)))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("manifest")
    parser.add_argument("--samples", type=int, default=16)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from warpfield import cli
    from warpfield.connections import Geometry

    geoms = []
    real = Geometry.__init__

    def recorded(self, *a, **kw):
        real(self, *a, **kw)
        geoms.append(self)

    Geometry.__init__ = recorded
    with tempfile.TemporaryDirectory() as tmp:
        path = args.manifest
        if path.startswith("wide:"):
            sys.path.insert(0, str(ROOT / "perfbench"))
            from widechart import wide_manifest

            seed, index = (int(v) for v in path.split(":")[1:])
            path = str(Path(tmp) / f"wide{index}.wm")
            Path(path).write_text(wide_manifest(seed, index), encoding="utf-8")
        argv = ["verify", path, "--samples", str(args.samples), "--seed", str(args.seed)]
        tracemalloc.start()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    Geometry.__init__ = real

    print(f"verify {args.manifest} --samples {args.samples} --seed {args.seed}: "
          f"exit {rc}")
    total = 0
    for label, per in census(geoms):
        held = sum(b for _, b in per.values())
        total += held
        print(f"{label:<34} {held / MB:9.3f} MB")
        for name, (count, nbytes) in sorted(per.items(), key=lambda kv: -kv[1][1]):
            print(f"  {name:<24} {count:5d} stacks {nbytes / MB:9.3f} MB")
    print(f"{'all geometries':<34} {total / MB:9.3f} MB")
    print(f"{'tracemalloc peak':<34} {peak / MB:9.3f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
