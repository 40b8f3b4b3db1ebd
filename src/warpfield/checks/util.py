"""Shared helpers for the registered checks: the shift predicates, the
factor-field classifier, the (base part, fiber part) enumeration and the
contractions that stacks over the sample set are combined with."""

from __future__ import annotations

import numpy as np

from ..connections import Geometry, dot, matvec
from ..fields import FieldJet, ProductField, VectorFieldDef, lift
from ..jets import Jet2, Point
from ..lie_killing import max_abs
from ..metric import ProductStructure


def shift_on_base(mf) -> bool:
    return mf.torsion.location == "base"


def shift_on_fiber(mf) -> bool:
    return isinstance(mf.torsion.location, int)


def embed(ps: ProductStructure, block, vec: np.ndarray) -> np.ndarray:
    """A block's vector (or a stack of them) in the product's coordinates."""
    out = np.zeros(vec.shape[:-1] + (ps.total_dim,))
    out[..., ps.block_slice(block)] = vec
    return out


def pair(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """x . v for stacks of vectors x (..., draws, n) and one v (..., n) each."""
    return np.einsum("...dn,...n->...d", x, v)


def second_directional(fj: FieldJet, jet: Jet2):
    """(zeta(h), zeta(zeta(h))) for a field with jet data fj, at each
    sample point of stacked jets."""
    first = dot(fj.val, jet.grad)
    dfirst = matvec(fj.d, jet.grad) + matvec(jet.hess, fj.val)
    return first, dot(fj.val, dfirst)


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


def factor_fields(ctx, block, fn, tol: float, **kw) -> list[tuple[str, VectorFieldDef]]:
    """Declared fields of a block, by name, whose residual ``fn`` (e.g.
    ``lie_matrix`` with its ``kind``) on the block itself is within tol."""
    return [(name, vfd) for name, vfd in sorted(ctx.fields_on(block).items())
            if ctx.sample_max(fn, vfd, block, **kw) <= tol]


def warp_dir_max(ctx, zb: VectorFieldDef, fibers) -> float:
    """Max over the sample points and the given fibers of |zb(f_i)| for
    a base field zb."""
    geom = ctx.geom
    zv = geom.field_values(lift(zb))
    return max_abs([dot(zv, geom.warp_jet(i).grad) for i in fibers])


def part_sums(ctx):
    """(base part, fiber index, fiber part, their sum) over every declared
    base field or none, times every declared fiber field or none (both
    none skipped): base fields outer, fibers in index order, names sorted."""
    fiber_opts = [(i, zi) for i in range(ctx.mf.fiber_count)
                  for _, zi in sorted(ctx.fields_on(i).items())]
    fiber_opts.append((None, None))
    for zb in [zb for _, zb in sorted(ctx.fields_on("base").items())] + [None]:
        for i, zi in fiber_opts:
            parts = tuple(f for f in (zb, zi) if f is not None)
            if parts:
                yield zb, i, zi, ProductField(parts)
