"""Shared helpers for the registered checks."""

from __future__ import annotations

import numpy as np

from ..connections import Geometry
from ..fields import ProductField, VectorFieldDef, lift
from ..jets import Jet2, Point
from ..lie_killing import max_abs
from ..metric import ProductStructure


def embed(ps: ProductStructure, block, vec: np.ndarray) -> np.ndarray:
    out = np.zeros(ps.total_dim)
    out[ps.block_slice(block)] = vec
    return out


def rehome(vfd: VectorFieldDef) -> ProductField:
    """View a lifted field as a field on its own block's structure."""
    return lift(VectorFieldDef("base", vfd.components))


def second_directional(fj, jet: Jet2) -> tuple[float, float]:
    """(zeta(h), zeta(zeta(h))) for a field with jet data fj."""
    first = float(fj.val @ jet.grad)
    dfirst = fj.d @ jet.grad + jet.hess @ fj.val
    return first, float(fj.val @ dfirst)


def project_out(ps: ProductStructure, geom_block: Geometry, p_block: Point,
                vec_block: np.ndarray, against_block: np.ndarray) -> np.ndarray | None:
    """Component of vec g-orthogonal to ``against`` inside one block.

    Returns None when ``against`` is null there (cannot project).
    """
    g = geom_block.metric(p_block).g
    denom = float(against_block @ g @ against_block)
    if abs(denom) < 1e-12:
        return None
    coef = float(vec_block @ g @ against_block) / denom
    return vec_block - coef * against_block


def over_samples(ctx, fn, zeta, block=None, **kw) -> list:
    """fn(geom, zeta, p, **kw) at each sample point of the product geometry.

    With ``block``, ``zeta`` is a lifted field on that block, evaluated on
    the block's own geometry at each point's block coordinates.
    """
    if block is None:
        return [fn(ctx.geom, zeta, p, **kw) for p in ctx.points()]
    geom = ctx.block_geom(block)
    zeta = rehome(zeta)
    return [fn(geom, zeta, p, **kw) for p in ctx.block_points(ctx.points(), block)]


def sample_max(ctx, fn, zeta, block=None, **kw) -> float:
    """Max over the sample points of |fn(geom, zeta, p)| (see over_samples)."""
    return max_abs(over_samples(ctx, fn, zeta, block, **kw))
