"""Seeded generator of wide product charts for the ``wide_chart`` workload.

Every generated manifest has the same shape, so the work per manifest
does not depend on the seed: a 2-dimensional base (u, v) with a
non-flat metric and a base-located connection shift, four 2-dimensional
fibers with non-constant warps (total dimension 10), and nine declared
fields.  The seed only picks the numeric coefficients.  The expressions
stay inside the manifest grammar (sin, cos, exp, log, sqrt, tanh, cbrt),
and every warp and metric entry stays positive on the chart box.
"""

from __future__ import annotations

import random

FIBERS = (
    # coords, metric entries, box of the first coordinate
    (("x1", "y1"), ("1", "1"), "-1, 1"),
    (("x2", "y2"), ("1", "sin(x2)^2"), "0.4, 2.7"),
    (("x3", "y3"), ("1", "1"), "-1, 1"),
    (("x4", "y4"), ("1 + {c4}*y4^2", "1"), "-1, 1"),
)


def wide_manifest(seed: int, index: int) -> str:
    """Text of the ``index``-th generated manifest for ``seed``."""
    rng = random.Random(f"wide_chart:{seed}:{index}")

    def coef(lo: float, hi: float) -> str:
        return f"{rng.uniform(lo, hi):.4f}"

    lines = ["[base]", "dim = 2", "coords = u, v",
             f"g.u.u = 1 + {coef(0.1, 0.4)}*v^2", "g.v.v = 1",
             "box.u = 0.5, 1.5", "box.v = 0.5, 1.5", ""]
    warps = (
        f"exp({coef(0.2, 0.6)}*u)",
        f"2 + cos({coef(0.5, 1.5)}*v)",
        f"1 + {coef(0.2, 0.8)}*u^2 + {coef(0.1, 0.5)}*v^2",
        f"{coef(1.5, 2.5)} + tanh(u*v)",
    )
    for i, ((a, b), (ga, gb), box_a) in enumerate(FIBERS, start=1):
        lines += [f"[fiber.{i}]", "dim = 2", f"coords = {a}, {b}",
                  f"g.{a}.{a} = {ga.format(c4=coef(0.1, 0.3))}",
                  f"g.{b}.{b} = {gb}",
                  f"box.{a} = {box_a}", f"box.{b} = -1, 1",
                  f"warp = {warps[i - 1]}", ""]
    lines += ["[torsion]", "location = base",
              f"comp.u = {coef(0.5, 1.5)}", f"comp.v = {coef(0.1, 0.5)}*u", ""]
    fields = (
        ("zeta_bu", "base", (("u", "1"),)),
        ("zeta_bv", "base", (("u", f"{coef(0.5, 1.5)}*v"), ("v", "u"))),
        ("zeta_rot1", "fiber.1", (("x1", "-y1"), ("y1", "x1"))),
        ("zeta_dil1", "fiber.1", (("x1", "x1"), ("y1", "y1"))),
        ("zeta_phi2", "fiber.2", (("y2", "1"),)),
        ("zeta_rot3", "fiber.3", (("x3", "-y3"), ("y3", "x3"))),
        ("zeta_c3", "fiber.3", (("x3", coef(0.5, 1.5)),)),
        ("zeta_c4", "fiber.4", (("x4", "1"),)),
        ("zeta_cb4", "fiber.4", (("y4", "cbrt(y4 - 2)"),)),
    )
    for name, location, comps in fields:
        lines += [f"[field.{name}]", f"location = {location}"]
        lines += [f"comp.{c} = {e}" for c, e in comps]
        lines.append("")
    return "\n".join(lines)
