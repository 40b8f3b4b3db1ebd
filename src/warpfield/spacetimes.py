"""Builders for the named space-time families and common blocks.

These construct :class:`ProductStructure` values programmatically, which
gives the test suite a second, manifest-independent construction path
for the same geometries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fieldexpr import num, parse_expr
from .metric import BlockMetric, GeometryError, ProductStructure, diagonal_block

GRW = "grw"
STANDARD_STATIC = "standard_static"
KASNER = "kasner"


def interval_block(coord: str = "t", box=(0.0, 1.0), sign: float = 1.0,
                   label: str = "base") -> BlockMetric:
    return diagonal_block(label, (coord,), (num(sign),), (tuple(box),))


@dataclass(frozen=True)
class SpacetimeSpec:
    kind: str
    parameters: dict = field(default_factory=dict)


def build_spacetime(spec: SpacetimeSpec) -> ProductStructure:
    """Assemble one of the named families from its parameters.

    grw:             interval (t, sign -1) x_f fiber
                     params: interval, warp (expr text in t), fiber, constants
    standard_static: base x_f interval (sign -1)
                     params: base, warp (expr over base coords), interval,
                     time_coord, constants
    kasner:          interval (t, sign -1) x_{phi^p_i} fibers
                     params: interval, phi (expr text in t), exponents, fibers
    """
    params = spec.parameters
    constants = params.get("constants", {})
    if spec.kind == GRW:
        base = interval_block("t", params["interval"], sign=-1.0)
        warp = parse_expr(params["warp"], ("t",), constants)
        return ProductStructure(base=base, fibers=(params["fiber"],), warps=(warp,))
    if spec.kind == STANDARD_STATIC:
        base = params["base"]
        tname = params.get("time_coord", "s")
        fiber = interval_block(tname, params["interval"], sign=-1.0, label="fiber.1")
        warp = parse_expr(params["warp"], base.coords, constants)
        return ProductStructure(base=base, fibers=(fiber,), warps=(warp,))
    if spec.kind == KASNER:
        base = interval_block("t", params["interval"], sign=-1.0)
        fibers = tuple(params["fibers"])
        exponents = tuple(params["exponents"])
        if len(exponents) != len(fibers):
            raise GeometryError("one exponent per fiber required")
        phi_src = params["phi"]
        warps = []
        for p in exponents:
            warps.append(parse_expr(f"({phi_src})^{p!r}", ("t",), constants))
        return ProductStructure(base=base, fibers=fibers, warps=tuple(warps))
    raise GeometryError(f"unknown space-time kind {spec.kind!r}")
