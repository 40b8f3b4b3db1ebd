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
from .metric import DimensionMismatch, MetricJet, ProductStructure

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
    """Metric, connection and field data of one structure over a sample set.

    ``points`` is the sample set.  Each quantity is computed once for all
    of them, as a stack whose leading axis runs over the points
    (``stack``), from the stacked metric and field jets; the accessors
    take a point and return its row of the stack, or the whole stack when
    the point is None (``at``).  Any other point is the sample set of a
    geometry of its own, so it is evaluated by the same code as a batch of
    one.
    """

    def __init__(self, ps: ProductStructure, torsion: TorsionSpec | None = None,
                 points: list[Point] = ()):
        self.ps = ps
        self.torsion = torsion if torsion is not None else TorsionSpec.zero()
        self.torsion.validate(ps)
        self.points = list(points)
        self._rows_of: dict = {}
        for k, p in enumerate(self.points):
            self._rows_of.setdefault(p.coords, k)
        self._p_field = None if self.torsion.is_zero else lift(self.torsion.field)
        self._stacks: dict = {}
        self._alone: dict = {}

    def stack(self, compute, *args):
        """compute(self, *args): a quantity at every sample point, sample
        axis first, computed once per (compute, args)."""
        key = (compute, args)
        got = self._stacks.get(key)
        if got is None:
            got = self._stacks[key] = compute(self, *args)
        return got

    def at(self, compute, p: Point | None, *args):
        """p's row of ``stack(compute, *args)``, or the whole stack when p
        is None; a point outside the sample set is the one point of its
        own geometry."""
        if p is None:
            return self.stack(compute, *args)
        k = self._rows_of.get(p.coords)
        geom = self if k is not None else self._geometry_at(p)
        return _row(geom.stack(compute, *args), k or 0)

    def _geometry_at(self, p: Point) -> "Geometry":
        got = self._alone.get(p.coords)
        if got is None:
            got = self._alone[p.coords] = Geometry(self.ps, self.torsion, [p])
        return got

    def metric_jet(self, p: Point | None = None) -> MetricJet:
        return self.at(_metric_jets, p)

    def metric(self, p: Point | None = None) -> MetricJet:
        """The metric at p: the metric jet, read for its ``g`` and ``ginv``."""
        return self.at(_metric_jets, p)

    def christoffel(self, p: Point | None = None) -> np.ndarray:
        """Levi-Civita symbols gamma[k, i, j] at p."""
        return self.at(_christoffel, p)

    def christoffel_jet(self, p: Point | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(gamma[k,i,j], dgamma[d,k,i,j]) at p."""
        return self.at(_christoffel_jet, p)

    # ---- torsion field data ----

    def p_vector(self, p: Point | None = None) -> np.ndarray:
        return self.at(_p_vector, p)

    def pi_covector(self, p: Point | None = None) -> np.ndarray:
        return self.at(_pi_covector, p)

    def pi_of(self, p: Point | None, x: np.ndarray):
        """pi(x) = g(x, P) at p, or row by row over the sample set."""
        return dot(np.asarray(x, dtype=float), self.pi_covector(p))

    def ssm_gamma(self, p: Point | None = None) -> np.ndarray:
        """Symbols of the shifted metric connection at p."""
        return self.at(_ssm_gamma, p)

    def gamma_of(self, p: Point | None, kind: str) -> np.ndarray:
        if kind == LEVI_CIVITA:
            return self.christoffel(p)
        if kind == SEMI_SYMMETRIC:
            return self.ssm_gamma(p)
        raise ValueError(f"unknown connection kind {kind!r}")

    def field_jet(self, field: ProductField, p: Point | None = None) -> FieldJet:
        return self.at(_field_jets, p, field)

    def warp_jet(self, i: int, p: Point | None = None) -> Jet2:
        """Jet of the i-th warping function at p."""
        return self.at(_warp_jets, p, i)

    def field_values(self, field, p: Point | None = None) -> np.ndarray:
        if isinstance(field, ProductField):
            return self.field_jet(field, p).val
        return np.asarray(field, dtype=float)


def _row(stacked, k: int):
    if isinstance(stacked, tuple):
        return tuple(a[k] for a in stacked)
    return stacked[k]


# ---- stacks over a geometry's sample points (Geometry.stack) ----


def _metric_jets(geom: Geometry) -> MetricJet:
    return geom.ps.metric_jet(geom.points)


def _field_jets(geom: Geometry, field: ProductField) -> FieldJet:
    return field.jet(geom.ps, geom.points)


def _warp_jets(geom: Geometry, i: int) -> Jet2:
    """The i-th warp's jet; a constant warp's jet, which has no sample
    axis, is broadcast along one."""
    ps = geom.ps
    j = ps.expr_jet(ps.warps[i], ps.jet_env(geom.points), geom.points)
    s, n = len(geom.points), ps.total_dim
    return Jet2(np.broadcast_to(j.value, (s,)), np.broadcast_to(j.grad, (s, n)),
                np.broadcast_to(j.hess, (s, n, n)))


def _christoffel(geom: Geometry) -> np.ndarray:
    mj = geom.metric_jet()
    return 0.5 * np.einsum("skl,slij->skij", mj.ginv, _bracket(mj.dg))


def _christoffel_jet(geom: Geometry) -> tuple[np.ndarray, np.ndarray]:
    mj = geom.metric_jet()
    dgamma = 0.5 * (np.einsum("sdkl,slij->sdkij", mj.dginv, _bracket(mj.dg))
                    + np.einsum("skl,sdlij->sdkij", mj.ginv, _bracket(mj.d2g)))
    return geom.christoffel(), dgamma


def _p_vector(geom: Geometry) -> np.ndarray:
    if geom._p_field is None:
        return np.zeros((len(geom.points), geom.ps.total_dim))
    return geom.field_jet(geom._p_field).val


def _pi_covector(geom: Geometry) -> np.ndarray:
    return (geom.metric().g @ geom.p_vector()[:, :, None])[:, :, 0]


def _ssm_gamma(geom: Geometry) -> np.ndarray:
    gamma = geom.christoffel()
    if geom.torsion.is_zero:
        return gamma
    n = geom.ps.total_dim
    return (gamma
            + np.einsum("ki,sj->skij", np.eye(n), geom.pi_covector())
            - np.einsum("sij,sk->skij", geom.metric().g, geom.p_vector()))


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over the last axis, row by row for stacks (leading axes
    broadcast).  The matmul form sums in the order ``a @ b`` does on a
    single pair of vectors, so a row of the stack is that value bit for
    bit; an einsum or ``np.sum(a * b)`` is not."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def bilinear(m: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x m y, row by row as ``x @ m @ y``."""
    return ((x[..., None, :] @ m) @ y[..., :, None])[..., 0, 0]


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m v for stacks of matrices and vectors, row by row as ``m @ v``."""
    return (m @ v[..., None])[..., 0]


def as_field_jet(geom: Geometry, field, p: Point | None = None) -> FieldJet:
    """A field's jet at p, or stacked over the sample set when p is None;
    a constant vector is the coordinate extension with zero partials."""
    if isinstance(field, ProductField):
        return geom.field_jet(field, p)
    vec = np.asarray(field, dtype=float)
    n = geom.ps.total_dim
    if vec.shape[-1:] != (n,):
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
    geom: Geometry, x, z, p: Point | None = None, kind: str = LEVI_CIVITA
) -> np.ndarray:
    """(nabla_x z)^k = x^i d_i z^k + gamma^k_ij x^i z^j at p, or stacked
    over the sample set when p is None.

    ``x`` and ``z`` are product fields or constant chart vectors; a
    constant vector is the coordinate extension with zero derivatives.
    """
    zj = as_field_jet(geom, z, p)
    xv = geom.field_values(x, p)
    return (xv[..., None, :] @ nabla_grid(geom.gamma_of(p, kind), zj.val, zj.d))[..., 0, :]


def divergence(geom: Geometry, field: ProductField, p: Point | None = None):
    """div V = d_k V^k + gamma^k_km V^m (Levi-Civita trace of nabla V) at p,
    or at each sample point when p is None; computed once per (geometry,
    field)."""
    return geom.at(_divergences, p, field)


def _divergences(geom: Geometry, field: ProductField) -> np.ndarray:
    fj = as_field_jet(geom, field)
    return (np.trace(fj.d, axis1=-2, axis2=-1)
            + np.einsum("skkm,sm->s", geom.christoffel(), fj.val))
