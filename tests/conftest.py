"""Shared expression corpus and sampling helpers for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))  # the oracles module

from warpfield.sampling import SplitMix, subseed  # noqa: E402

# (source, variables, per-variable box, constants)
EXPR_CORPUS = [
    ("t^2", ("t",), {"t": (0.3, 2.0)}, {}),
    ("exp(t)", ("t",), {"t": (-1.0, 1.0)}, {}),
    ("cbrt(2*t - 1)", ("t",), {"t": (0.6, 2.0)}, {}),
    ("sin(x)*cos(y) + x*y", ("x", "y"), {"x": (-2.0, 2.0), "y": (-2.0, 2.0)}, {}),
    ("1/(1 + x^2)", ("x",), {"x": (-2.0, 2.0)}, {}),
    ("sqrt(1 + t^2)", ("t",), {"t": (-2.0, 2.0)}, {}),
    ("log(t + 2)", ("t",), {"t": (-1.0, 2.0)}, {}),
    ("tanh(x - y)", ("x", "y"), {"x": (-2.0, 2.0), "y": (-2.0, 2.0)}, {}),
    ("(x + y)^3 - 2*x*y", ("x", "y"), {"x": (-1.5, 1.5), "y": (-1.5, 1.5)}, {}),
    ("t^2.5", ("t",), {"t": (0.3, 2.0)}, {}),
    ("exp(-t)*sin(t)", ("t",), {"t": (-2.0, 2.0)}, {}),
    ("x^-2", ("x",), {"x": (0.4, 2.0)}, {}),
    ("phi^(2*p1)", ("phi",), {"phi": (0.5, 2.0)}, {"p1": 1.5}),
    ("1.2 + 0.3*sin(x)", ("x",), {"x": (-3.0, 3.0)}, {}),
    ("-x^2 + 3*x - 1", ("x",), {"x": (-2.0, 2.0)}, {}),
]


def corpus_points(box: dict, n: int, label: str):
    """Deterministic sample tuples inside the given per-variable box."""
    rng = SplitMix(subseed(24181, "expr-corpus", label))
    names = list(box)
    out = []
    for _ in range(n):
        out.append(tuple(rng.uniform(*box[name]) for name in names))
    return names, out
