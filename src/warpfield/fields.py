"""Vector fields on product charts.

A :class:`VectorFieldDef` is a lifted field: it lives on one block and
its components reference only that block's coordinates, so it is the
canonical lift of a factor field to the product.  A :class:`ProductField`
is a sum of lifted fields, at most one per block, which is the shape all
the decomposition statements quantify over.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import fieldexpr
from .fieldexpr import Expr
from .metric import GeometryError, ProductStructure
from .sampling import SplitMix


@dataclass(frozen=True)
class VectorFieldDef:
    """Lifted field: block id ('base' or 0-based fiber index) + components."""

    block: object
    components: tuple[Expr, ...]

    def __post_init__(self):
        # hashed once: fields are cache keys, and checks lift the same
        # definition into a new ProductField at every point
        object.__setattr__(self, "_hash", hash((self.block, self.components)))

    def __hash__(self):
        return self._hash

    def validate(self, ps: ProductStructure) -> None:
        bm = ps.block_metric(self.block)
        if len(self.components) != bm.dim:
            raise GeometryError(
                f"field on {bm.label} needs {bm.dim} components, got {len(self.components)}"
            )
        allowed = set(bm.coords)
        for c in self.components:
            extra = fieldexpr.variables_of(c) - allowed
            if extra:
                raise GeometryError(
                    f"lifted field on {bm.label} references {sorted(extra)}"
                )

    def scaled(self, c: float) -> "VectorFieldDef":
        factor = fieldexpr.num(c)
        return VectorFieldDef(
            self.block,
            tuple(fieldexpr.mul(factor, comp) for comp in self.components),
        )


@dataclass(frozen=True)
class FieldJet:
    """Component values with first and second partials on the product
    chart, at a point or with a leading sample axis on every array."""

    val: np.ndarray  # (n,)
    d: np.ndarray    # (n, n): d[d, k] = d_d V^k
    d2: np.ndarray   # (n, n, n): d2[d, e, k]


@dataclass(frozen=True)
class ProductField:
    parts: tuple[VectorFieldDef, ...]

    def __post_init__(self):
        blocks = [p.block for p in self.parts]
        if len(set(blocks)) != len(blocks):
            raise GeometryError("at most one lifted part per block")
        # Geometry caches look fields up on every call: hash once, not
        # per lookup
        object.__setattr__(self, "_hash", hash(self.parts))

    def __hash__(self):
        return self._hash

    def scaled(self, c: float) -> "ProductField":
        return ProductField(tuple(p.scaled(c) for p in self.parts))

    def jet(self, ps: ProductStructure, points: np.ndarray) -> FieldJet:
        """Component jets at the rows of ``points``, stacked on a leading
        sample axis.  Each part is walked once over all of them, in its own
        block's ``jet_env``; its partials in other blocks stay zero."""
        s, n = len(points), ps.total_dim
        envs = [ps.jet_env(points, part.block) for part in self.parts]

        def assemble(jet):
            val = np.zeros((s, n))
            d = np.zeros((s, n, n))
            d2 = np.zeros((s, n, n, n))
            for part, env in zip(self.parts, envs):
                sl = ps.block_slice(part.block)
                for k, comp in enumerate(part.components):
                    j = jet(comp, env)
                    col = sl.start + k
                    val[:, col] = j.value
                    d[:, sl, col] = j.grad
                    d2[:, sl, sl, col] = j.hess
            return val, d, d2

        return FieldJet(*ps.walk(assemble, points))


def lift(vfd: VectorFieldDef) -> ProductField:
    return ProductField((vfd,))


def rehome(vfd: VectorFieldDef) -> ProductField:
    """View a lifted field as a field on its own block's structure."""
    return lift(VectorFieldDef("base", vfd.components))


def synth_field(ps: ProductStructure, block, rng: SplitMix) -> VectorFieldDef:
    """Deterministic random quadratic polynomial field on one block
    (generic test data): per component a constant, the linear and then
    the quadratic coefficients, from one block of draws read as Python
    floats, so ``round`` rounds them as it would the scalar draws."""
    bm = ps.block_metric(block)
    names = list(bm.coords)
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i:]]
    draws = iter(rng.block(bm.dim * (1 + len(names) + len(pairs))).tolist())
    comps = []
    for _ in range(bm.dim):
        terms = [fieldexpr.num(round(next(draws), 3))]
        terms += [fieldexpr.mul(fieldexpr.num(round(next(draws), 3)), fieldexpr.var(a))
                  for a in names]
        terms += [fieldexpr.mul(fieldexpr.num(round(0.5 * next(draws), 3)),
                                fieldexpr.mul(fieldexpr.var(a), fieldexpr.var(b)))
                  for a, b in pairs]
        comps.append(functools.reduce(fieldexpr.add, terms))
    return VectorFieldDef(block, tuple(comps))
