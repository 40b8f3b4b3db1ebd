"""Shared helpers for the registered checks: the shift, manifest-shape
and timelike-line predicates, the factor-field classifier, the (base part, fiber part)
enumeration and the contractions that stacks over the sample set are
combined with."""

from __future__ import annotations

import numpy as np

from ..connections import bilinear, dot, matvec
from ..fieldexpr import eval_expr
from ..fields import FieldJet, ProductField, VectorFieldDef, lift
from ..jets import Jet2
from ..lie_killing import max_abs
from ..metric import ProductStructure


def shift_on_base(mf) -> bool:
    return mf.torsion.location == "base"


def shift_on_fiber(mf) -> bool:
    return isinstance(mf.torsion.location, int)


def any_mf(mf) -> bool:
    return True


def has_fibers(mf) -> bool:
    return mf.fiber_count >= 1


def multi_fiber(mf) -> bool:
    return mf.fiber_count >= 2


def base_shift(mf) -> bool:
    return has_fibers(mf) and shift_on_base(mf)


def fiber_shift(mf) -> bool:
    return has_fibers(mf) and shift_on_fiber(mf)


def base_shift_multi(mf) -> bool:
    return multi_fiber(mf) and shift_on_base(mf)


def fiber_shift_multi(mf) -> bool:
    return multi_fiber(mf) and shift_on_fiber(mf)


def warped1_base(mf) -> bool:
    return mf.fiber_count == 1 and shift_on_base(mf)


def warped1_fiber(mf) -> bool:
    return mf.fiber_count == 1 and shift_on_fiber(mf)


def timelike_line(block, at: float = 0.123) -> bool:
    """A one-dimensional block whose metric entry, probed at coordinate
    value ``at``, is -1."""
    if block.dim != 1:
        return False
    try:
        return float(eval_expr(block.entries[0][0], {block.coords[0]: at})) == -1.0
    except Exception:
        return False


def embed(ps: ProductStructure, block, vec: np.ndarray) -> np.ndarray:
    """A block's vector (or a stack of them) in the product's coordinates."""
    out = np.zeros(vec.shape[:-1] + (ps.total_dim,))
    out[..., ps.block_slice(block)] = vec
    return out


def second_directional(fj: FieldJet, jet: Jet2):
    """(zeta(h), zeta(zeta(h))) for a field with jet data fj, at each
    sample point of stacked jets."""
    first = dot(fj.val, jet.grad)
    dfirst = matvec(fj.d, jet.grad) + matvec(jet.hess, fj.val)
    return first, dot(fj.val, dfirst)


def project_out(g: np.ndarray, vec: np.ndarray,
                against: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(component of each vec g-orthogonal to ``against``, null) row by
    row over stacks of one block's metric and vectors (leading axes
    broadcast); ``null`` marks the rows where ``against`` is null, which
    cannot be projected on."""
    denom = bilinear(g, against, against)
    null = np.abs(denom) < 1e-12
    coef = bilinear(g, vec, against) / np.where(null, 1.0, denom)
    return vec - coef[..., None] * against, np.broadcast_to(null, coef.shape)


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
