"""Vector fields on product charts.

A :class:`VectorFieldDef` is a lifted field: it lives on one block and
its components reference only that block's coordinates, so it is the
canonical lift of a factor field to the product.  A :class:`ProductField`
is a sum of lifted fields, at most one per block, which is the shape all
the decomposition statements quantify over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fieldexpr
from .fieldexpr import Expr
from .metric import GeometryError, ProductStructure, jet_of
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
    chart, at a point or with a leading sample axis on every array.

    A lifted part's components depend on its own block's coordinates only,
    so its second partials are kept at the block's width: ``d2`` holds one
    (block slice, h) pair per part, ``h[d, e, k] = d_d d_e V^k`` over the
    block's coordinates, and every other second partial is zero."""

    val: np.ndarray  # (n,)
    d: np.ndarray    # (n, n): d[d, k] = d_d V^k
    d2: tuple        # per part: (sl, h), h (b, b, b) for a block of width b

    def chart_d2(self) -> np.ndarray:
        """The second partials at chart width, d2[..., d, e, k], zero off
        the parts' blocks: a short-lived array, never a stack."""
        n = self.d.shape[-1]
        out = np.zeros(self.d.shape[:-2] + (n, n, n))
        for sl, h in self.d2:
            out[..., sl, sl, sl] = h
        return out


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

    def jet(self, ps: ProductStructure, points: np.ndarray, env) -> FieldJet:
        """The jet of a one-part field at the rows of ``points``, in its
        block's coordinates, stacked on a leading sample axis: one walk of
        its part over all of them in ``env``, its block's ``jet_env``, read
        as a field on the block alone (the value (S, b), first partials
        (S, b, b), second partials on the whole block).  A part of
        ``Quadratic`` components is one fold over the env's monomial table,
        except on the walk's retry, which walks each component so that an
        error names it and the chart point."""
        (part,) = self.parts
        s, b = len(points), len(part.components)

        def assemble(jet):
            val = np.zeros((s, b))
            d = np.zeros((s, b, b))
            folded = jet is jet_of and fieldexpr.fold_quadratics(part.components, env)
            if folded:
                val[:], d[:], h = folded
                return val, d, h
            h = np.zeros((s, b, b, b))
            for k, comp in enumerate(part.components):
                j = jet(comp, env)
                val[:, k], d[:, :, k], h[..., k] = j.value, j.grad, j.hess
            return val, d, h

        val, d, h = ps.walk(assemble, points)
        return FieldJet(val, d, ((slice(0, b), h),))


def lift(vfd: VectorFieldDef) -> ProductField:
    return ProductField((vfd,))


def synth_field(ps: ProductStructure, block, rng: SplitMix) -> VectorFieldDef:
    """Deterministic random quadratic polynomial field on one block
    (generic test data): per component one ``Quadratic`` node, its
    constant, linear and then quadratic coefficients from one block of
    draws read as Python floats, so ``round`` rounds them as it would the
    scalar draws."""
    bm = ps.block_metric(block)
    monos = fieldexpr.monomials(bm.coords)
    draws = iter(rng.block(bm.dim * (1 + len(monos))).tolist())
    comps = []
    for _ in range(bm.dim):
        const = round(next(draws), 3)
        terms = tuple((round((0.5 if len(m) == 2 else 1.0) * next(draws), 3), m)
                      for m in monos)
        comps.append(fieldexpr.Quadratic(const, terms))
    return VectorFieldDef(block, tuple(comps))
