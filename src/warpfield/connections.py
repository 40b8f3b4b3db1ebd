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

from dataclasses import dataclass

import numpy as np

from .fields import FieldJet, ProductField, VectorFieldDef, lift
from .jets import Jet2, Point
from .metric import DimensionMismatch, MetricAt, MetricJet, ProductStructure

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

    def restrict_to_block(self) -> "TorsionSpec":
        """The same P viewed on its own block as a standalone manifold."""
        if self.is_zero:
            return self
        return TorsionSpec("base", VectorFieldDef("base", self.field.components))


def _bracket(dg: np.ndarray) -> np.ndarray:
    """t[..., l, i, j] = d_i g_jl + d_j g_il - d_l g_ij over the last three
    axes of ``dg[..., d, i, j]``; gamma = g^-1 t / 2."""
    return (np.einsum("...ijl->...lij", dg)
            + np.einsum("...jil->...lij", dg)
            - dg)


class Geometry:
    """Per-structure cache of pointwise metric/connection/field data.

    ``points`` is the sample set the geometry is evaluated on.  The first
    cache miss at one of them fills the metric, metric-jet or field-jet
    cache for all of them with one batched walk of the expressions; any
    other point is evaluated the same way, as a batch of one.
    """

    def __init__(self, ps: ProductStructure, torsion: TorsionSpec | None = None,
                 points: list[Point] = ()):
        self.ps = ps
        self.torsion = torsion if torsion is not None else TorsionSpec.zero()
        self.torsion.validate(ps)
        self.points = list(points)
        self._sampled = frozenset(p.coords for p in self.points)
        self._p_field = None if self.torsion.is_zero else lift(self.torsion.field)
        self._metric: dict = {}
        self._metric_jet: dict = {}
        self._gamma: dict = {}
        self._gamma_jet: dict = {}
        self._ssm: dict = {}
        self._field_jets: dict = {}
        self._warp_jets: dict = {}
        self._per_point: dict = {}

    def _batch(self, p: Point) -> list[Point]:
        """The points one evaluation at p covers."""
        return self.points if p.coords in self._sampled else [p]

    def metric(self, p: Point) -> MetricAt:
        """The value part of the metric jet at p."""
        got = self._metric.get(p.coords)
        if got is None:
            self.metric_jet(p)
            got = self._metric[p.coords]
        return got

    def metric_jet(self, p: Point) -> MetricJet:
        got = self._metric_jet.get(p.coords)
        if got is None:
            batch = self._batch(p)
            for q, mj in zip(batch, self.ps.metric_jet(batch)):
                self._metric_jet[q.coords] = mj
                self._metric[q.coords] = MetricAt(g=mj.g, ginv=mj.ginv, point=q)
            got = self._metric_jet[p.coords]
        return got

    def christoffel(self, p: Point) -> np.ndarray:
        """Levi-Civita symbols gamma[k, i, j] at p."""
        got = self._gamma.get(p.coords)
        if got is None:
            mj = self.metric_jet(p)
            got = 0.5 * np.einsum("kl,lij->kij", mj.ginv, _bracket(mj.dg))
            self._gamma[p.coords] = got
        return got

    def christoffel_jet(self, p: Point) -> tuple[np.ndarray, np.ndarray]:
        """(gamma[k,i,j], dgamma[d,k,i,j]) at p."""
        got = self._gamma_jet.get(p.coords)
        if got is None:
            mj = self.metric_jet(p)
            dgamma = 0.5 * (np.einsum("dkl,lij->dkij", mj.dginv, _bracket(mj.dg))
                            + np.einsum("kl,dlij->dkij", mj.ginv, _bracket(mj.d2g)))
            got = (self.christoffel(p), dgamma)
            self._gamma_jet[p.coords] = got
        return got

    # ---- torsion field data ----

    def p_vector(self, p: Point) -> np.ndarray:
        if self._p_field is None:
            return np.zeros(self.ps.total_dim)
        return self.field_jet(self._p_field, p).val

    def pi_covector(self, p: Point) -> np.ndarray:
        return self.metric(p).g @ self.p_vector(p)

    def pi_of(self, p: Point, x: np.ndarray) -> float:
        return float(np.asarray(x, dtype=float) @ self.pi_covector(p))

    def ssm_gamma(self, p: Point) -> np.ndarray:
        """Symbols of the shifted metric connection at p."""
        got = self._ssm.get(p.coords)
        if got is None:
            gamma = self.christoffel(p).copy()
            if not self.torsion.is_zero:
                n = self.ps.total_dim
                pv = self.p_vector(p)
                piv = self.pi_covector(p)
                gm = self.metric(p)
                gamma = (gamma
                         + np.einsum("ki,j->kij", np.eye(n), piv)
                         - np.einsum("ij,k->kij", gm.g, pv))
            self._ssm[p.coords] = gamma
            got = gamma
        return got

    def gamma_of(self, p: Point, kind: str) -> np.ndarray:
        if kind == LEVI_CIVITA:
            return self.christoffel(p)
        if kind == SEMI_SYMMETRIC:
            return self.ssm_gamma(p)
        raise ValueError(f"unknown connection kind {kind!r}")

    def field_jet(self, field: ProductField, p: Point) -> FieldJet:
        key = (field, p.coords)
        got = self._field_jets.get(key)
        if got is None:
            batch = self._batch(p)
            for q, fj in zip(batch, field.jet(self.ps, batch)):
                self._field_jets[(field, q.coords)] = fj
            got = self._field_jets[key]
        return got

    def warp_jet(self, i: int, p: Point) -> Jet2:
        """Jet of the i-th warping function at p."""
        key = (i, p.coords)
        got = self._warp_jets.get(key)
        if got is None:
            batch = self._batch(p)
            jet = self.ps.expr_jet(self.ps.warps[i], self.ps.jet_env(batch), batch)
            for k, q in enumerate(batch):
                self._warp_jets[(i, q.coords)] = jet[k]
            got = self._warp_jets[key]
        return got

    def per_point(self, compute, p: Point):
        """compute(self, p), evaluated once per point and then looked up."""
        key = (compute, p.coords)
        got = self._per_point.get(key)
        if got is None:
            got = self._per_point[key] = compute(self, p)
        return got

    def field_values(self, field, p: Point) -> np.ndarray:
        if isinstance(field, ProductField):
            return self.field_jet(field, p).val
        return np.asarray(field, dtype=float)


def as_field_jet(geom: Geometry, field, p: Point) -> FieldJet:
    if isinstance(field, ProductField):
        return geom.field_jet(field, p)
    vec = np.asarray(field, dtype=float)
    n = geom.ps.total_dim
    if vec.shape != (n,):
        raise DimensionMismatch(f"vector must have {n} components")
    return FieldJet(val=vec, d=np.zeros((n, n)), d2=np.zeros((n, n, n)))


def nabla_grid(gamma: np.ndarray, val: np.ndarray, d: np.ndarray) -> np.ndarray:
    """w[a, k] = (nabla_{e_a} Z)^k = d_a Z^k + gamma^k_aj Z^j.

    ``val`` and ``d[a, k] = d_a Z^k`` are the value and first partials of
    Z; a contraction x @ w is nabla_x Z for any vector x.  Leading axes
    of ``gamma``, ``val`` and ``d`` broadcast (stacks of points or vectors).
    """
    return d + np.einsum("...kaj,...j->...ak", gamma, val)


def covariant_derivative(
    geom: Geometry, x, z, p: Point, kind: str = LEVI_CIVITA
) -> np.ndarray:
    """(nabla_x z)^k = x^i d_i z^k + gamma^k_ij x^i z^j at p.

    ``x`` and ``z`` are product fields or constant chart vectors; a
    constant vector is the coordinate extension with zero derivatives.
    """
    zj = as_field_jet(geom, z, p)
    return geom.field_values(x, p) @ nabla_grid(geom.gamma_of(p, kind), zj.val, zj.d)


def lie_bracket(geom: Geometry, x, y, p: Point) -> np.ndarray:
    """[x, y]^k = x^i d_i y^k - y^i d_i x^k at p."""
    xj = as_field_jet(geom, x, p)
    yj = as_field_jet(geom, y, p)
    return xj.val @ yj.d - yj.val @ xj.d


def torsion_of(geom: Geometry, x, y, p: Point, kind: str = SEMI_SYMMETRIC) -> np.ndarray:
    """nabla_x y - nabla_y x - [x, y] at p."""
    return (covariant_derivative(geom, x, y, p, kind)
            - covariant_derivative(geom, y, x, p, kind)
            - lie_bracket(geom, x, y, p))


def divergence(geom: Geometry, field: ProductField, p: Point) -> float:
    """div V = d_k V^k + gamma^k_km V^m (Levi-Civita trace of nabla V)."""
    fj = as_field_jet(geom, field, p)
    gamma = geom.christoffel(p)
    return float(np.trace(fj.d) + np.einsum("kkm,m->", gamma, fj.val))
