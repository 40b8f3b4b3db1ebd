"""Reference computations that only the tests use: central-difference
jets, the index-raised gradient, the metric pairing, block signatures,
metricity on constant vectors and the sectional curvature of one plane.
Each is written for a single point and a single vector, independent of
the batched paths the checks take."""

import numpy as np

from warpfield import fieldexpr
from warpfield.connections import SEMI_SYMMETRIC, Geometry, covariant_derivative
from warpfield.curvature import CurvatureAt, riemann
from warpfield.jets import Jet2, Point
from warpfield.metric import (
    DET_FLOOR,
    DimensionMismatch,
    GeometryError,
    MetricAt,
    ProductStructure,
    SingularMetric,
)


class DegeneratePlane(GeometryError):
    pass


def fd_jet(f, p: Point, step: float = 1e-4) -> Jet2:
    """Central-difference jet of a scalar point-function at p.

    Independent of the jet arithmetic; second-order accurate.  Used
    as the cross-check for everything the jets produce.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    n = p.dim
    x = np.array(p.coords)

    def ev(delta):
        return float(f(Point(tuple(x + delta))))

    f0 = ev(np.zeros(n))
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    for k in range(n):
        dk = np.zeros(n)
        dk[k] = step
        fp = ev(dk)
        fm = ev(-dk)
        grad[k] = (fp - fm) / (2.0 * step)
        hess[k, k] = (fp - 2.0 * f0 + fm) / (step * step)
    for k in range(n):
        for l in range(k + 1, n):
            dk = np.zeros(n)
            dk[k] = step
            dl = np.zeros(n)
            dl[l] = step
            val = (ev(dk + dl) - ev(dk - dl) - ev(-dk + dl) + ev(-dk - dl)) / (
                4.0 * step * step
            )
            hess[k, l] = val
            hess[l, k] = val
    return Jet2(f0, grad, hess)


def grad_scalar(ps: ProductStructure, p: Point, h) -> np.ndarray:
    """Index-raised gradient: (grad h)^k = g^{kl} d_l h on ps's chart."""
    extra = fieldexpr.variables_of(h) - set(ps.coord_names)
    if extra:
        raise GeometryError(f"scalar references unknown coordinates {sorted(extra)}")
    j = ps.expr_jet(h, ps.jet_env([p]), [p])[0]
    gm = ps.metric_at(p)
    return gm.ginv @ j.grad


def inner(gm: MetricAt, x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = gm.g.shape[0]
    if x.shape != (n,) or y.shape != (n,):
        raise DimensionMismatch(f"vectors must have {n} components")
    return float(x @ gm.g @ y)


def signature(ps: ProductStructure, p: Point) -> tuple[int, ...]:
    """Signs of the metric eigenvalues, block by block (+1/-1)."""
    m = ps.metric_at(p)
    signs: list[int] = []
    for sl in ps.slices:
        vals = np.linalg.eigvalsh(m.g[sl, sl])
        if np.any(np.abs(vals) <= DET_FLOOR):
            raise SingularMetric(f"near-zero metric eigenvalue at {p.coords}")
        signs.extend(1 if v > 0 else -1 for v in vals)
    return tuple(signs)


def compat_residual(geom: Geometry, p: Point, x, y, z,
                    kind: str = SEMI_SYMMETRIC) -> float:
    """|x(g(y,z)) - g(nabla_x y, z) - g(y, nabla_x z)| for constant y, z."""
    mj = geom.metric_jet(p)
    xv = geom.field_values(x, p)
    yv = geom.field_values(y, p)
    zv = geom.field_values(z, p)
    lead = np.einsum("d,dij,i,j->", xv, mj.dg, yv, zv)
    dy = covariant_derivative(geom, xv, yv, p, kind)
    dz = covariant_derivative(geom, xv, zv, p, kind)
    return abs(float(lead - dy @ mj.g @ zv - yv @ mj.g @ dz))


def plane_area_sq(geom: Geometry, p: Point, zeta: np.ndarray, x: np.ndarray) -> float:
    g = geom.metric(p).g
    return float((zeta @ g @ zeta) * (x @ g @ x) - (zeta @ g @ x) ** 2)


def sectional(geom: Geometry, p: Point, zeta: np.ndarray, x: np.ndarray,
              curv: CurvatureAt | None = None) -> float:
    """K = -R(zeta, x, zeta, x) / area^2 of the spanned plane."""
    a2 = plane_area_sq(geom, p, zeta, x)
    if abs(a2) <= 1e-10:
        raise DegeneratePlane(f"plane area^2 = {a2} at {p.coords}")
    if curv is None:
        curv = riemann(geom, p)
    r = float(np.einsum("ijkl,i,j,k,l->", curv.r_low, zeta, x, zeta, x))
    return -r / a2


def results_covered(registry) -> set[str]:
    return {s.result for s in registry.specs}
