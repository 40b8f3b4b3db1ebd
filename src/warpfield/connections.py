"""Connections on a product chart.

The Levi-Civita symbols come from the coordinate formula applied to the
metric jets; one extra differentiation level of the same jets yields
their first partials, which is all the curvature layer needs.  The
torsion-carrying metric connection is the Levi-Civita connection shifted
by a fixed vector field P:

    shifted(X, Y) = lc(X, Y) + pi(Y) X - g(X, Y) P,   pi(.) = g(., P)

which in index form adds ``delta^k_i pi_j - g_ij P^k`` to the symbols.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .fields import FieldJet, ProductField, VectorFieldDef, lift
from .fieldexpr import JetEnv
from .jets import Jet2
from .metric import DimensionMismatch, GeometryError, MetricJet, ProductStructure

LEVI_CIVITA = "levi_civita"
SEMI_SYMMETRIC = "semi_symmetric"


@dataclass(frozen=True)
class TorsionSpec:
    """Location and components of the connection-shift field P."""

    location: object  # 'zero' | 'base' | 0-based fiber index
    field: VectorFieldDef | None = None

    def __post_init__(self):
        if self.location == "zero":
            if self.field is not None:
                raise ValueError("zero torsion carries no field")
        else:
            if self.field is None:
                raise ValueError("non-zero torsion needs a field")
            if self.field.block != self.location:
                raise ValueError("torsion field must live on its declared block")

    @staticmethod
    def zero() -> "TorsionSpec":
        return TorsionSpec("zero", None)

    @property
    def is_zero(self) -> bool:
        return self.location == "zero"

    def validate(self, ps: ProductStructure) -> None:
        if self.is_zero:
            return
        if self.location != "base":
            idx = int(self.location)
            if not 0 <= idx < len(ps.fibers):
                raise DimensionMismatch(f"torsion fiber index {idx} out of range")
        self.field.validate(ps)


def _bracket(dg: np.ndarray) -> np.ndarray:
    """t[..., l, i, j] = d_i g_jl + d_j g_il - d_l g_ij over the last three
    axes of ``dg[..., d, i, j]``; gamma = g^-1 t / 2."""
    t = np.moveaxis(dg, -1, -3)
    return t + t.swapaxes(-1, -2) - dg


class Geometry:
    """Metric, connection and field data of one structure over a sample set.

    ``points`` is the sample set, a read-only (S, n) array with one point
    per row; its width is checked here, once.  Each quantity is computed
    once for all of them, as a stack whose leading axis runs over the
    points (``stack``), from the stacked metric and field jets; every
    accessor returns that stack.  Only a chart walks: the metric once and
    each lifted part of a field once, in its block's ``jet_env``, which is
    a stack too; its blocks' geometries (``block``) read their metric and
    field jets from this one's.  Any other point is the sample set of a
    geometry of its own, ``Geometry(ps, torsion, [p])``.
    """

    def __init__(self, ps: ProductStructure, torsion: TorsionSpec | None, points):
        self.ps = ps
        self.torsion = torsion if torsion is not None else TorsionSpec.zero()
        self.torsion.validate(ps)
        self.points = ps.sample_set(points).view()
        self.points.flags.writeable = False  # every stack is computed over it once
        self._p_field = None if self.torsion.is_zero else lift(self.torsion.field)
        self._stacks: dict = {}
        self._blocks: dict = {}
        self._chart = None  # a block's: (its chart's geometry, weakly; block id)

    def stack(self, compute, *args):
        """compute(self, *args): a quantity at every sample point, sample
        axis first, computed once per (compute, args)."""
        key = (compute, args)
        got = self._stacks.get(key)
        if got is None:
            got = self._stacks[key] = compute(self, *args)
        return got

    def metric_jet(self) -> MetricJet:
        """The metric (``g``, ``ginv``) and its first two partials."""
        return self.stack(_metric_jets)

    def christoffel(self) -> np.ndarray:
        """Levi-Civita symbols gamma[s, k, i, j]."""
        return self.stack(_christoffel)

    def christoffel_jet(self) -> tuple[np.ndarray, np.ndarray]:
        """(gamma[s, k, i, j], dgamma[s, d, k, i, j])."""
        return self.stack(_christoffel_jet)

    # ---- torsion field data ----

    def p_vector(self) -> np.ndarray:
        return self.stack(_p_vector)

    def pi_covector(self) -> np.ndarray:
        return self.stack(_pi_covector)

    def pi_of(self, x: np.ndarray):
        """pi(x) = g(x, P), row by row over the sample set."""
        return dot(np.asarray(x, dtype=float), self.pi_covector())

    def ssm_gamma(self) -> np.ndarray:
        """Symbols of the shifted metric connection."""
        return self.stack(_ssm_gamma)

    def gamma_of(self, kind: str) -> np.ndarray:
        if kind == LEVI_CIVITA:
            return self.christoffel()
        if kind == SEMI_SYMMETRIC:
            return self.ssm_gamma()
        raise ValueError(f"unknown connection kind {kind!r}")

    def field_jet(self, field: ProductField) -> FieldJet:
        return self.stack(_field_jets, field)

    def block(self, b) -> "Geometry":
        """Block b ('base' or a fiber index) as a standalone manifold over
        its columns of the sample set, built once; a one-block chart's base
        is this geometry.  The base carries the shift only when P lives on
        the base; a fiber carries none.  A block reads its metric jet and
        its lifted parts' jets from this geometry's walks, which it must
        not outlive."""
        key = "base" if b == "base" else int(b)
        if key == "base" and not self.ps.fibers:
            return self
        if key not in self._blocks:
            shift = self.torsion if key == self.torsion.location == "base" else None
            blk = Geometry(self.ps.block_structure(key), shift,
                           self.points[:, self.ps.block_slice(key)])
            blk._chart = weakref.proxy(self), key  # a strong one would be a cycle
            self._blocks[key] = blk
        return self._blocks[key]

    def jet_env(self, block) -> JetEnv:
        """The coordinate jets of block ``block`` over the sample set, which
        a chart's walks read, built once."""
        return self.stack(_jet_envs, block)

    def warp_jet(self, i: int) -> Jet2:
        """Jet of the i-th warping function."""
        return self.stack(_warp_jets, i)

    def field_values(self, field) -> np.ndarray:
        if isinstance(field, ProductField):
            return self.field_jet(field).val
        return np.asarray(field, dtype=float)


# ---- stacks over a geometry's sample points (Geometry.stack) ----


def _jet_envs(geom: Geometry, block) -> JetEnv:
    return geom.ps.jet_env(geom.points, block)


def _metric_jets(geom: Geometry) -> MetricJet:
    """A chart's walk, or a block's entries read from its chart's."""
    if geom._chart is None:
        return geom.ps.metric_jet(geom.points, geom.jet_env)
    chart, b = geom._chart
    return chart.ps.block_jet(chart.metric_jet(), b, geom.points)


def _part_jets(geom: Geometry, part: VectorFieldDef) -> FieldJet:
    return lift(part).jet(geom.ps, geom.points, geom.jet_env(part.block))


def _field_jets(geom: Geometry, field: ProductField) -> FieldJet:
    """A chart walks each lifted part once, in its block's coordinates
    (``_part_jets``), and copies each part's value and first partials from
    that stack into its block's rows; every entry off the parts' blocks is
    +0, and its second partials are the stack's own array.  A block
    geometry's field is one lifted part on that block, its chart's stack
    of the part; any other field raises."""
    if geom._chart is not None:
        chart, b = geom._chart
        blocks = [part.block for part in field.parts]
        if blocks != [b]:
            raise GeometryError(f"the geometry of block {b} reads one lifted part "
                                f"on it, not parts on {blocks}")
        return chart.stack(_part_jets, field.parts[0])
    s, n = len(geom.points), geom.ps.total_dim
    val = np.zeros((s, n))
    d = np.zeros((s, n, n))
    d2 = []
    for part in field.parts:
        sl = geom.ps.block_slice(part.block)
        pj = geom.stack(_part_jets, part)
        val[:, sl], d[:, sl, sl] = pj.val, pj.d
        (_, h), = pj.d2
        d2.append((sl, h))
    return FieldJet(val=val, d=d, d2=tuple(d2))


def _warp_jets(geom: Geometry, i: int) -> Jet2:
    """The i-th warp's jet at chart width, embedded from the one the
    metric walk took in the base's coordinates; a constant warp's value,
    which has no sample axis, is broadcast along one."""
    j = geom.metric_jet().warps[i]
    s, n, bs = len(geom.points), geom.ps.total_dim, geom.ps.block_slice("base")
    grad, hess = np.zeros((s, n)), np.zeros((s, n, n))
    grad[:, bs], hess[:, bs, bs] = j.grad, j.hess
    return Jet2(np.broadcast_to(j.value, (s,)), grad, hess)


def _christoffel(geom: Geometry) -> np.ndarray:
    mj = geom.metric_jet()
    return 0.5 * contract_first(mj.ginv, _bracket(mj.dg))


def _christoffel_jet(geom: Geometry) -> tuple[np.ndarray, np.ndarray]:
    mj = geom.metric_jet()
    dgamma = 0.5 * (contract_first(mj.dginv, _bracket(mj.dg)[:, None])
                    + contract_first(mj.ginv[:, None], _bracket(mj.d2g)))
    return geom.christoffel(), dgamma


def _p_vector(geom: Geometry) -> np.ndarray:
    if geom._p_field is None:
        return np.zeros((len(geom.points), geom.ps.total_dim))
    return geom.field_jet(geom._p_field).val


def _pi_covector(geom: Geometry) -> np.ndarray:
    return (geom.metric_jet().g @ geom.p_vector()[:, :, None])[:, :, 0]


def _ssm_gamma(geom: Geometry) -> np.ndarray:
    gamma = geom.christoffel()
    if geom.torsion.is_zero:
        return gamma
    n = geom.ps.total_dim
    return (gamma
            + np.eye(n)[:, :, None] * geom.pi_covector()[:, None, None, :]
            - geom.metric_jet().g[:, None] * geom.p_vector()[:, :, None, None])


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over the last axis, row by row for stacks (leading axes
    broadcast).  The matmul form sums in the order ``a @ b`` does on a
    single pair of vectors, so a row of the stack is that value bit for
    bit; an einsum or ``np.sum(a * b)`` is not."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def contract_first(m: np.ndarray, t: np.ndarray) -> np.ndarray:
    """out[..., k, i, j] = m[..., k, l] t[..., l, i, j]: one ``m @ t`` per
    row with t's last two axes flattened (leading axes broadcast)."""
    out = m @ t.reshape(t.shape[:-2] + (-1,))
    return out.reshape(out.shape[:-1] + t.shape[-2:])


def bilinear(m: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x m y, row by row as ``x @ m @ y``."""
    return ((x[..., None, :] @ m) @ y[..., :, None])[..., 0, 0]


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m v for stacks of matrices and vectors, row by row as ``m @ v``."""
    return (m @ v[..., None])[..., 0]


def as_field_jet(geom: Geometry, field) -> FieldJet:
    """A field's jet stacked over the sample set; a constant vector is the
    coordinate extension with zero partials."""
    if isinstance(field, ProductField):
        return geom.field_jet(field)
    vec = np.asarray(field, dtype=float)
    n = geom.ps.total_dim
    if vec.shape[-1:] != (n,):
        raise DimensionMismatch(f"vector must have {n} components")
    return FieldJet(val=vec, d=np.zeros((n, n)), d2=())


def nabla_grid(gamma: np.ndarray, val: np.ndarray, d: np.ndarray) -> np.ndarray:
    """w[a, k] = (nabla_{e_a} Z)^k = d_a Z^k + gamma^k_aj Z^j.

    ``val`` and ``d[a, k] = d_a Z^k`` are the value and first partials of
    Z; a contraction x @ w is nabla_x Z for any vector x.  Leading axes
    of ``gamma``, ``val`` and ``d`` broadcast (stacks of points or vectors).
    """
    kw = gamma.reshape(gamma.shape[:-3] + (-1, gamma.shape[-1])) @ val[..., None]
    return d + kw.reshape(kw.shape[:-2] + gamma.shape[-3:-1]).swapaxes(-1, -2)


def nabla(geom: Geometry, z, kind: str = LEVI_CIVITA) -> np.ndarray:
    """w[s, a, k] = (nabla_{e_a} z)^k over the sample set, for the chosen
    connection; a contraction x @ w is nabla_x z for any vector x.

    Stacked once per (geometry, field, kind).  A constant chart vector z,
    the coordinate extension with zero derivatives, is not a stack key
    and is contracted on each call.
    """
    if isinstance(z, ProductField):
        return geom.stack(_nablas, z, kind)
    return _nablas(geom, z, kind)


def _nablas(geom: Geometry, z, kind: str) -> np.ndarray:
    zj = as_field_jet(geom, z)
    return nabla_grid(geom.gamma_of(kind), zj.val, zj.d)


def covariant_derivative(geom: Geometry, x, z, kind: str = LEVI_CIVITA) -> np.ndarray:
    """(nabla_x z)^k = x^i d_i z^k + gamma^k_ij x^i z^j over the sample set.

    ``x`` and ``z`` are product fields or constant chart vectors; a
    constant vector is the coordinate extension with zero derivatives.
    """
    xv = geom.field_values(x)
    return (xv[..., None, :] @ nabla(geom, z, kind))[..., 0, :]


def divergence(geom: Geometry, field: ProductField) -> np.ndarray:
    """div V = d_k V^k + gamma^k_km V^m, the Levi-Civita trace of nabla V,
    at each sample point."""
    return np.trace(nabla(geom, field), axis1=-2, axis2=-1)
