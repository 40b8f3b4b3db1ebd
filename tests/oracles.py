"""Reference computations that only the tests use: central-difference
jets, coordinate jets at one point, rows of a stacked metric jet, metric
and field jets walked in the whole chart's coordinates, the index-raised
gradient, the metric pairing, block signatures,
metricity on constant vectors, the sectional curvature of one plane,
one-draw-at-a-time point sampling, and the connection-layer formulas
(Christoffel symbols and their partials, the shifted symbols, the
covariant derivative, the Lie bracket, torsion, L_zeta g, L_zeta
L_zeta g, nabla_zeta zeta and the curvature), the coordinate routes of
L_zeta g and L_zeta L_zeta g, the quadratic form g(nabla_x zeta, x), the
pseudo-orthonormal frame, the frame trace and the divergence at a single
point.  Each is written for a single point and a single vector,
independent of the batched paths the checks take; it reads the metric
and field jets at p as the one row of p's own geometry, ``one_point``.
The connection-layer formulas sum as matrix products of that point's
arrays, in the order a row of the geometry's stacks sums, so they equal
the rows bit for bit; ``test_contractions`` checks each product against
the index formula it states.

The warp jets walked in the whole chart's coordinates, the
second-order stacks (L_zeta L_zeta g by both routes and nabla_zeta zeta)
read from a field's second partials at chart width, the test
vectors of the orthogonal cone, of the witnesses Prop3.20 and Prop3.24
and of ``synth_field`` drawn one scalar draw per Python call, and the
power-law fits of Prop6.15, Def6.16 and Prop6.17 taken one sample row
at a time, are the earlier code of the package, kept as the references
its array forms are compared with.  ``wide_manifests`` gives the two
generated charts of the ``wide_chart`` benchmark workload."""

import importlib.util
import math
import weakref
from pathlib import Path

import numpy as np

from warpfield import fieldexpr
from warpfield.checks.killing import _fiber_rows
from warpfield.checks.util import embed, factor_fields
from warpfield.connections import (
    LEVI_CIVITA,
    SEMI_SYMMETRIC,
    Geometry,
    as_field_jet,
    bilinear,
    contract_first,
    covariant_derivative,
    dot,
    nabla,
    nabla_grid,
)
from warpfield.curvature import Curvature, FrameConstructionFailure, riemann
from warpfield.fieldexpr import num
from warpfield.fields import FieldJet, ProductField, VectorFieldDef, lift
from warpfield.jets import Jet2
from warpfield.lie_killing import (
    _along,
    _lie_of_tensor,
    _swap,
    lie_matrix,
    lie_matrix_direct,
    max_abs,
    nabla_quads,
)
from warpfield.manifest import parse_manifest
from warpfield.metric import (
    DET_FLOOR,
    DimensionMismatch,
    GeometryError,
    MetricJet,
    NonPositiveWarping,
    ProductStructure,
    SingularMetric,
)
from warpfield.sampling import SplitMix
from warpfield.suite import inconclusive, residual_outcome


def wide_manifests():
    """The first two ``perfbench/widechart.py`` manifests of seed 1."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "widechart.py"
    spec = importlib.util.spec_from_file_location("widechart", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [parse_manifest(module.wide_manifest(1, i), f"wide{i}") for i in range(2)]


class DegeneratePlane(GeometryError):
    pass


def fd_jet(f, p, step: float = 1e-4) -> Jet2:
    """Central-difference jet at the point p of a scalar function of a
    coordinate row.

    Independent of the jet arithmetic; second-order accurate.  Used
    as the cross-check for everything the jets produce.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    x = np.asarray(p, dtype=float)
    n = len(x)

    def ev(delta):
        return float(f(x + delta))

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


def seed(p, k: int) -> Jet2:
    """Jet of the k-th coordinate function at the point p alone: value x_k,
    grad e_k."""
    n = len(p)
    if not 0 <= k < n:
        raise IndexError(f"coordinate index {k} out of range for dim {n}")
    grad = np.zeros(n)
    grad[k] = 1.0
    return Jet2(p[k], grad, np.zeros((n, n)))


def metric_row(mj: MetricJet, k: int) -> MetricJet:
    """The jet at sample k of a stacked metric jet."""
    return MetricJet(mj.g[k], mj.dg[k], mj.d2g[k], mj.ginv[k])


def grad_scalar(ps: ProductStructure, p: np.ndarray, h) -> np.ndarray:
    """Index-raised gradient: (grad h)^k = g^{kl} d_l h on ps's chart."""
    extra = fieldexpr.variables_of(h) - set(ps.coord_names)
    if extra:
        raise GeometryError(f"scalar references unknown coordinates {sorted(extra)}")
    j = ps.expr_jet(h, ps.jet_env(p[None]), p[None])[0]
    gm = ps.metric_at(p)
    return gm.ginv @ j.grad


def inner(gm: MetricJet, x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = gm.g.shape[0]
    if x.shape != (n,) or y.shape != (n,):
        raise DimensionMismatch(f"vectors must have {n} components")
    return float(x @ gm.g @ y)


def signature(ps: ProductStructure, p: np.ndarray) -> tuple[int, ...]:
    """Signs of the metric eigenvalues, block by block (+1/-1)."""
    m = ps.metric_at(p)
    signs: list[int] = []
    for sl in ps.slices:
        vals = np.linalg.eigvalsh(m.g[sl, sl])
        if np.any(np.abs(vals) <= DET_FLOOR):
            raise SingularMetric(f"near-zero metric eigenvalue at {p.tolist()}")
        signs.extend(1 if v > 0 else -1 for v in vals)
    return tuple(signs)


_POINT_GEOMETRIES: "weakref.WeakKeyDictionary[Geometry, dict]" = weakref.WeakKeyDictionary()


def one_point(geom: Geometry, p) -> Geometry:
    """The geometry of the single point p: geom's structure and shift over
    the sample set [p], so each of its stacks has one row.  Built once per
    (geom, p), so the formulas below share its jets."""
    alone = _POINT_GEOMETRIES.setdefault(geom, {})
    key = tuple(np.asarray(p, dtype=float).tolist())
    if key not in alone:
        alone[key] = Geometry(geom.ps, geom.torsion, [p])
    return alone[key]


def metric_jet_at(geom: Geometry, p: np.ndarray) -> MetricJet:
    return metric_row(one_point(geom, p).metric_jet(), 0)


def chart_d2(fj: FieldJet) -> np.ndarray:
    """A field jet's second partials at chart width, d2[..., d, e, k], zero
    off its parts' blocks: the array each field jet held before a part's
    second partials were kept at its block's width."""
    n = fj.d.shape[-1]
    d2 = np.zeros(fj.d.shape[:-2] + (n, n, n))
    for sl, h in fj.d2:
        d2[..., sl, sl, sl] = h
    return d2


def jet_arrays(fj: FieldJet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(val, d, d2) of a field jet, its second partials at chart width."""
    return fj.val, fj.d, chart_d2(fj)


def field_walk_full(ps: ProductStructure, field: ProductField, points):
    """(val, d, d2) of a field at ``points``, all at chart width, from one
    walk of every component in the whole chart's ``jet_env``, each tested
    by ``expr_jet``: the walk before parts were walked in their own block's
    coordinates."""
    env = ps.jet_env(points)
    s, n = len(points), ps.total_dim
    val = np.zeros((s, n))
    d = np.zeros((s, n, n))
    d2 = np.zeros((s, n, n, n))
    for part in field.parts:
        sl = ps.block_slice(part.block)
        for k, comp in enumerate(part.components):
            j = ps.expr_jet(comp, env, points)
            col = sl.start + k
            val[:, col] = j.value
            d[:, :, col] = j.grad
            d2[:, :, :, col] = j.hess
    return val, d, d2


def metric_jet_full(ps: ProductStructure, points) -> MetricJet:
    """Metric jets at ``points`` from one walk of every entry and warp
    expression in the whole chart's ``jet_env``, a fiber entry scaled by
    its squared warp as a product of chart jets: the walk before each
    block was walked in its own coordinates."""
    points = ps.sample_set(points)
    env = ps.jet_env(points)
    s, n = len(points), ps.total_dim

    def assemble(jet):
        g = np.zeros((s, n, n))
        dg = np.zeros((s, n, n, n))
        d2g = np.zeros((s, n, n, n, n))

        def put(sl, block, w2=None):
            for a in range(block.dim):
                for b in range(a, block.dim):
                    j = jet(block.entries[a][b], env)
                    j = j if w2 is None else w2 * j
                    ia, ib = sl.start + a, sl.start + b
                    g[:, ia, ib] = g[:, ib, ia] = j.value
                    dg[:, :, ia, ib] = dg[:, :, ib, ia] = j.grad
                    d2g[:, :, :, ia, ib] = d2g[:, :, :, ib, ia] = j.hess

        put(ps.slices[0], ps.base)
        for i, f in enumerate(ps.fibers):
            w = jet(ps.warps[i], env)
            vals = np.atleast_1d(w.value)
            bad = np.flatnonzero(vals <= 0.0)
            if bad.size:
                k = bad[0]
                raise NonPositiveWarping(ps._warp_message(f, ps.warps[i],
                                                          float(vals[k]), points[k]))
            put(ps.slices[i + 1], f, w * w)
        return g, dg, d2g

    g, dg, d2g = ps.walk(assemble, points, ps._require_finite)
    ginv = np.zeros((s, n, n))
    for sl, block in zip(ps.slices, ps.blocks):
        ginv[:, sl, sl] = ps._block_inverse(g[:, sl, sl], block.label, points)
    return MetricJet(g=g, dg=dg, d2g=d2g, ginv=ginv)


def field_jet_at(geom: Geometry, field, p: np.ndarray) -> FieldJet:
    """A field's jet at p; a constant vector is the coordinate extension
    with zero partials."""
    fj = as_field_jet(one_point(geom, p), field)
    if not isinstance(field, ProductField):
        return fj
    return FieldJet(fj.val[0], fj.d[0], tuple((sl, h[0]) for sl, h in fj.d2))


def compat_residual(geom: Geometry, x, y, z, kind: str = SEMI_SYMMETRIC) -> float:
    """|x(g(y,z)) - g(nabla_x y, z) - g(y, nabla_x z)| for constant x, y, z
    at the one point of geom."""
    mj = metric_row(geom.metric_jet(), 0)
    xv, yv, zv = (np.asarray(v, dtype=float) for v in (x, y, z))
    lead = np.einsum("d,dij,i,j->", xv, mj.dg, yv, zv)
    dy = covariant_derivative(geom, xv, yv, kind)[0]
    dz = covariant_derivative(geom, xv, zv, kind)[0]
    return abs(float(lead - dy @ mj.g @ zv - yv @ mj.g @ dz))


def plane_area_sq(geom: Geometry, p: np.ndarray, zeta: np.ndarray, x: np.ndarray) -> float:
    g = metric_jet_at(geom, p).g
    return float((zeta @ g @ zeta) * (x @ g @ x) - (zeta @ g @ x) ** 2)


def sectional(geom: Geometry, p: np.ndarray, zeta: np.ndarray, x: np.ndarray) -> float:
    """K = -R(zeta, x, zeta, x) / area^2 of the spanned plane."""
    a2 = plane_area_sq(geom, p, zeta, x)
    if abs(a2) <= 1e-10:
        raise DegeneratePlane(f"plane area^2 = {a2} at {tuple(p)}")
    r_low = riemann(one_point(geom, p)).r_low[0]
    r = float(np.einsum("ijkl,i,j,k,l->", r_low, zeta, x, zeta, x))
    return -r / a2


def results_covered(registry) -> set[str]:
    return {s.result for s in registry.specs}


def sample_points_scalar(ps: ProductStructure, count: int, rng: SplitMix,
                         exclusions=None) -> np.ndarray:
    """``metric.sample_points`` drawing one uniform at a time."""
    exclusions = exclusions or {}
    out: list[list[float]] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 200 * count + 1000:
            raise GeometryError("sampling rejected too many points; check exclusions")
        coords = []
        ok = True
        for name, (lo, hi) in zip(ps.coord_names, ps.box):
            v = lo + (0.1 + 0.8 * rng.uniform()) * (hi - lo)
            for (xlo, xhi) in exclusions.get(name, ()):
                if xlo <= v <= xhi:
                    ok = False
            coords.append(v)
        if ok:
            out.append(coords)
    return np.array(out)


# ---- the connection layer at one point ----


def _bracket(dg: np.ndarray) -> np.ndarray:
    """t[..., l, i, j] = d_i g_jl + d_j g_il - d_l g_ij over the last three
    axes (leading axes: further partials)."""
    return np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg) - dg


def christoffel_at(geom: Geometry, p: np.ndarray) -> np.ndarray:
    """gamma[k, i, j] = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2."""
    mj = metric_jet_at(geom, p)
    n = len(mj.g)
    return 0.5 * (mj.ginv @ _bracket(mj.dg).reshape(n, n * n)).reshape(n, n, n)


def dchristoffel_at(geom: Geometry, p: np.ndarray) -> np.ndarray:
    """dgamma[d, k, i, j] = d_d gamma[k, i, j], with d_d g^kl = -g^ka d_d g_ab g^bl."""
    mj = metric_jet_at(geom, p)
    n = len(mj.g)
    dginv = -(mj.ginv @ mj.dg @ mj.ginv)
    return 0.5 * (dginv @ _bracket(mj.dg).reshape(n, n * n)
                  + mj.ginv @ _bracket(mj.d2g).reshape(n, n, n * n)).reshape((n,) * 4)


def ssm_gamma_at(geom: Geometry, p: np.ndarray) -> np.ndarray:
    """gamma + delta^k_i pi_j - g_ij P^k."""
    gamma = christoffel_at(geom, p)
    if geom.torsion.is_zero:
        return gamma
    n = geom.ps.total_dim
    g = metric_jet_at(geom, p).g
    pv = field_jet_at(geom, lift(geom.torsion.field), p).val
    return gamma + np.eye(n)[:, :, None] * (g @ pv) - g * pv[:, None, None]


def _gamma_at(geom: Geometry, p: np.ndarray, kind: str) -> np.ndarray:
    return christoffel_at(geom, p) if kind == LEVI_CIVITA else ssm_gamma_at(geom, p)


def lie_matrix_at(geom: Geometry, zeta, p: np.ndarray, kind: str = LEVI_CIVITA) -> np.ndarray:
    """(L_zeta g)_ab = g(nabla_a zeta, e_b) + g(nabla_b zeta, e_a)."""
    zj = field_jet_at(geom, zeta, p)
    wg = nabla_grid(_gamma_at(geom, p, kind), zj.val, zj.d) @ metric_jet_at(geom, p).g
    return wg + wg.T


def _grid_jet_at(geom: Geometry, zj: FieldJet, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w[a, k] = (nabla_{e_a} zeta)^k and its partials dw[m, a, k] =
    d_m d_a zeta^k + d_m gamma^k_aj zeta^j + gamma^k_aj d_m zeta^j."""
    gamma, dgamma = christoffel_at(geom, p), dchristoffel_at(geom, p)
    return (nabla_grid(gamma, zj.val, zj.d),
            nabla_grid(dgamma, zj.val, chart_d2(zj)) + nabla_grid(gamma, zj.d, 0.0))


def lie_lie_matrix_at(geom: Geometry, zeta, p: np.ndarray) -> np.ndarray:
    """(L L g)(x, y) from nested Levi-Civita covariant derivatives:
    nabla_zeta w_a = zeta(w_a) + w_a gz with gz[j, k] = zeta^m gamma^k_mj,
    and nabla_{[zeta, e_a]} zeta = -d_a zeta^i w[i, k]."""
    zj = field_jet_at(geom, zeta, p)
    n = len(zj.val)
    w, dw = _grid_jet_at(geom, zj, p)
    gz = (zj.val[None, None] @ christoffel_at(geom, p))[:, 0].T
    nzw = (zj.val[None] @ dw.reshape(n, n * n)).reshape(n, n) + w @ gz
    g = metric_jet_at(geom, p).g
    first = (nzw + zj.d @ w) @ g
    return first + first.T + 2.0 * (w @ g @ w.T)


def nabla_zeta_zeta_at(geom: Geometry, zeta, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(nabla_zeta zeta)^k = zeta^a w[a, k] and its partials dw[m, k]."""
    zj = field_jet_at(geom, zeta, p)
    w, dw = _grid_jet_at(geom, zj, p)
    return (zj.val[None] @ w)[0], zj.d @ w + (zj.val[None, None] @ dw)[:, 0]


def covariant_derivative_at(geom: Geometry, x, z, p: np.ndarray,
                            kind: str = LEVI_CIVITA) -> np.ndarray:
    """(nabla_x z)^k = x^i d_i z^k + gamma^k_ij x^i z^j as one vector-matrix
    product at p."""
    zj = field_jet_at(geom, z, p)
    return field_jet_at(geom, x, p).val @ nabla_grid(_gamma_at(geom, p, kind), zj.val, zj.d)


def lie_bracket(geom: Geometry, x, y, p: np.ndarray) -> np.ndarray:
    """[x, y]^k = x^i d_i y^k - y^i d_i x^k at p."""
    xj = field_jet_at(geom, x, p)
    yj = field_jet_at(geom, y, p)
    return xj.val @ yj.d - yj.val @ xj.d


def torsion_of(geom: Geometry, x, y, p: np.ndarray, kind: str = SEMI_SYMMETRIC) -> np.ndarray:
    """nabla_x y - nabla_y x - [x, y] at p."""
    return (covariant_derivative_at(geom, x, y, p, kind)
            - covariant_derivative_at(geom, y, x, p, kind)
            - lie_bracket(geom, x, y, p))


def curvature_at(geom: Geometry, p: np.ndarray) -> Curvature:
    """Riemann and Ricci tensors at p from the Christoffel jet:
    q[l, i, j, k] = r_up[l, k, i, j] is a - (i <-> j) with a[l, i, j, k] =
    d_i gamma[l, j, k] + gamma[l, i, m] gamma[m, j, k]."""
    gamma, dgamma = christoffel_at(geom, p), dchristoffel_at(geom, p)
    n = len(gamma)
    a = np.swapaxes(dgamma, 0, 1) + (gamma.reshape(n * n, n)
                                     @ gamma.reshape(n, n * n)).reshape((n,) * 4)
    q = a - np.swapaxes(a, 1, 2)
    g = metric_jet_at(geom, p).g
    r_low = (np.moveaxis(q, 0, -1).reshape(-1, n) @ g.T).reshape((n,) * 4)
    return Curvature(r_low=r_low, ricci=np.trace(q).T)


def riemann_quad(r_low: np.ndarray, zeta: np.ndarray, x: np.ndarray) -> float:
    """R(zeta, x, x, zeta) from the lowered tensor."""
    return float(np.einsum("ijkl,i,j,k,l->", r_low, zeta, x, x, zeta))


def nabla_quad_at(geom: Geometry, zeta, x, p: np.ndarray, kind: str = LEVI_CIVITA) -> float:
    """g(nabla_x zeta, x), half the Lie derivative's quadratic form."""
    g = metric_jet_at(geom, p).g
    return float(covariant_derivative_at(geom, x, zeta, p, kind) @ g @ x)


# ---- the coordinate routes at one point ----


def lie_matrix_direct_at(geom: Geometry, zeta, p: np.ndarray) -> np.ndarray:
    """(L_zeta g)_ab = zeta^c d_c g_ab + d_a zeta^c g_cb + d_b zeta^c g_ac."""
    mj = metric_jet_at(geom, p)
    zj = field_jet_at(geom, zeta, p)
    n = len(mj.g)
    return ((zj.val[None] @ mj.dg.reshape(n, n * n)).reshape(n, n)
            + zj.d @ mj.g
            + (zj.d @ mj.g).T)


def lie_lie_matrix_nested_at(geom: Geometry, zeta, p: np.ndarray) -> np.ndarray:
    """(L_zeta L_zeta g)_ab by applying the coordinate formula twice."""
    mj = metric_jet_at(geom, p)
    zj = field_jet_at(geom, zeta, p)
    n = len(mj.g)
    h = lie_matrix_direct_at(geom, zeta, p)
    d2 = chart_d2(zj)
    dh = ((zj.d @ mj.dg.reshape(n, n * n)).reshape(n, n, n)
          + (zj.val[None, None] @ mj.d2g.reshape(n, n, n * n)).reshape(n, n, n)
          + d2 @ mj.g
          + zj.d @ mj.dg
          + mj.g @ np.swapaxes(d2, 1, 2)
          + mj.dg @ zj.d.T)
    return ((zj.val[None] @ dh.reshape(n, n * n)).reshape(n, n)
            + zj.d @ h
            + h @ zj.d.T)


# ---- the second-order stacks from chart-width Hessians (the code
# before a field's second partials were kept per part) ----


def _grid_jets_chart(geom: Geometry, zeta: ProductField) -> tuple[np.ndarray, np.ndarray]:
    zj = geom.field_jet(zeta)
    gamma, dgamma = geom.christoffel_jet()
    dw = (nabla_grid(dgamma, zj.val[:, None], chart_d2(zj))
          + nabla_grid(gamma[:, None], zj.d, 0.0))
    return nabla(geom, zeta), dw


def lie_lie_matrix_chart(geom: Geometry, zeta: ProductField) -> np.ndarray:
    """``lie_killing.lie_lie_matrix`` over the sample set, its grid jet
    read from a chart-width Hessian."""
    zj = geom.field_jet(zeta)
    w, dw = _grid_jets_chart(geom, zeta)
    gz = _swap((zj.val[:, None, None, :] @ geom.christoffel())[:, :, 0])
    nzw = _along(zj.val, dw) + w @ gz
    g = geom.metric_jet().g
    first = (nzw + zj.d @ w) @ g
    return first + _swap(first) + 2.0 * (w @ g @ _swap(w))


def nabla_zeta_zeta_chart(geom: Geometry, zeta: ProductField) -> tuple[np.ndarray, np.ndarray]:
    """``lie_killing.nabla_zeta_zeta`` over the sample set, from a
    chart-width Hessian."""
    zj = geom.field_jet(zeta)
    w, dw = _grid_jets_chart(geom, zeta)
    val = zj.val[:, None, :]
    return (val @ w)[:, 0], zj.d @ w + (val[:, None] @ dw)[:, :, 0]


def lie_lie_matrix_nested_chart(geom: Geometry, zeta) -> np.ndarray:
    """``lie_killing.lie_lie_matrix_nested`` over the sample set, from a
    chart-width Hessian."""
    mj = geom.metric_jet()
    zj = as_field_jet(geom, zeta)
    h = lie_matrix_direct(geom, zeta)
    g = mj.g[..., None, :, :]
    d2 = chart_d2(zj)
    dh = (contract_first(zj.d, mj.dg)
          + _along(zj.val[..., None, :], mj.d2g)
          + d2 @ g
          + zj.d[..., None, :, :] @ mj.dg
          + g @ _swap(d2)
          + mj.dg @ _swap(zj.d)[..., None, :, :])
    return _lie_of_tensor(h, dh, zj)


# ---- frames and traces at one point ----


def frame_of_matrix_at(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-orthonormal frame rows E_a with signs eps_a = g(E_a, E_a)."""
    d = g.shape[0]
    frame = np.zeros((d, d))
    eps = np.zeros(d)
    for a in range(d):
        v = np.zeros(d)
        v[a] = 1.0
        for b in range(a):
            v = v - eps[b] * float(v @ g @ frame[b]) * frame[b]
        n2 = float(v @ g @ v)
        if abs(n2) < 1e-12:
            raise FrameConstructionFailure("null direction met during frame build")
        frame[a] = v / math.sqrt(abs(n2))
        eps[a] = 1.0 if n2 > 0 else -1.0
    return frame, eps


def trace_nabla_at(geom: Geometry, zeta, p: np.ndarray) -> float:
    """Sum over the per-block frame of eps_a g(nabla_{E_a} zeta, nabla_{E_a} zeta)."""
    g = metric_jet_at(geom, p).g
    n = g.shape[0]
    frame = np.zeros((n, n))
    eps = np.zeros(n)
    for sl in geom.ps.slices:
        frame[sl, sl], eps[sl] = frame_of_matrix_at(g[sl, sl])
    w = np.array([covariant_derivative_at(geom, e, zeta, p) for e in frame])
    return float(sum(eps * bilinear(g, w, w)))


def divergence_at(geom: Geometry, field, p: np.ndarray) -> float:
    """div V = d_k V^k + gamma^k_km V^m (Levi-Civita trace of nabla V)."""
    fj = field_jet_at(geom, field, p)
    return float(np.trace(nabla_grid(christoffel_at(geom, p), fj.val, fj.d)))


# ---- test vectors drawn one at a time (the sequential draws before
# every cone and witness took a fixed count of draws as one block) ----


def project_out_at(g: np.ndarray, vec: np.ndarray, against: np.ndarray) -> np.ndarray | None:
    """Component of vec g-orthogonal to ``against`` (one block's metric and
    vectors at one point); None when ``against`` is null there (cannot
    project)."""
    denom = float(against @ g @ against)
    if abs(denom) < 1e-12:
        return None
    coef = float(vec @ g @ against) / denom
    return vec - coef * against


def quads(ctx, zeta: ProductField, drawn, kind) -> np.ndarray:
    """|g(nabla_x zeta, x)| for the drawn (sample row, vector) pairs, in
    draw order, from one gathered contraction."""
    if not drawn:
        return np.zeros(0)
    ks, xs = zip(*drawn)
    return np.abs(nabla_quads(ctx.geom, zeta, np.array(ks), np.array(xs), kind))


def cone_draws(ctx, cone):
    """A per-row cone ``cone(k, rng)`` as a cone of the checks, rng ->
    (sample rows, vectors): 6 draws per sample point, in row order."""
    def draws(rng):
        drawn = []
        for k in range(len(ctx.points())):
            for _ in range(6):
                x = cone(k, rng)
                if x is not None:
                    drawn.append((k, x))
        ks = np.array([k for k, _ in drawn], dtype=int)
        return ks, np.array([x for _, x in drawn]).reshape(len(ks), ctx.ps.total_dim)
    return draws


def orth_cone(ctx, against: dict, zero_blocks=()):
    """Random full vectors with fiber parts projected orthogonal to fields."""
    rows = {i: _fiber_rows(ctx, i, z) for i, z in against.items()}

    def cone(k, rng):
        x = np.zeros(ctx.ps.total_dim)
        for block in ["base"] + list(range(ctx.mf.fiber_count)):
            if block in zero_blocks:
                continue
            sl = ctx.ps.block_slice(block)
            v = np.array(rng.vector(sl.stop - sl.start))
            if block in rows:
                g, z = rows[block]
                v = project_out_at(g[k], v, z[k])
                if v is None:
                    return None
            x[sl] = v
        return x

    return cone


def witness_grw(ctx):
    """Designated configuration: constant timelike field plus a fiber
    isometry, tested along shift-compensated directions."""
    ps = ctx.ps
    rng = ctx.rng("prop320")
    base_unit = VectorFieldDef("base", (num(1.0),))
    fiber_killing = factor_fields(ctx, 0, lie_matrix, ctx.tol.alg,
                                  kind=LEVI_CIVITA)
    wj = ctx.geom.warp_jet(0)
    hyp = max_abs(wj.grad[:, 0] - wj.value)
    vals = []
    for a in (1.0, -1.0, 2.0, -2.0):
        for zname, z2 in [(None, None)] + fiber_killing:
            parts = (base_unit.scaled(a),) + ((z2,) if z2 is not None else ())
            rows = _fiber_rows(ctx, 0, z2) if z2 is not None else None
            drawn = []
            for k in range(len(ctx.points())):
                for u in (1.0, -1.0, 2.0, -2.0):
                    x2 = np.array(rng.vector(ps.fibers[0].dim))
                    if float(x2 @ x2) < 0.25:
                        x2 = x2 + 0.6 * np.sign(x2 + 1e-9)
                    if rows is not None:
                        x2 = project_out_at(rows[0][k], x2, rows[1][k])
                        if x2 is None:
                            continue
                    drawn.append((k, embed(ps, "base", np.array([u])) + embed(ps, 0, x2)))
            vals.append(quads(ctx, ProductField(parts), drawn, SEMI_SYMMETRIC))
    note = f"warp-compensation gap {hyp:.3g}"
    return residual_outcome(vals, ctx.tol.alg, note=note)


def witness_static(ctx):
    """Designated configuration: base isometry plus constant timelike
    fiber field, tested along roots of the printed vector condition."""
    ps = ctx.ps
    rng = ctx.rng("prop324")
    s_unit = VectorFieldDef(0, (num(1.0),))
    base_killing = factor_fields(ctx, "base", lie_matrix, ctx.tol.alg,
                                 kind=LEVI_CIVITA)
    if not base_killing:
        return inconclusive("no base isometry declared")
    vals = []
    gb = ctx.block_geom("base").metric_jet().g
    wj = ctx.geom.warp_jet(0)
    for a in (1.0, -1.0, 2.0):
        for bname, z1 in base_killing:
            z1v = ctx.geom.field_values(lift(z1))
            z1f = dot(z1v, wj.grad)
            z1v = z1v[:, ps.block_slice("base")]
            drawn = []
            for k in range(len(ctx.points())):
                for _ in range(6):
                    x1 = np.array(rng.vector(ps.base.dim))
                    gx1z1 = float(x1 @ gb[k] @ z1v[k])
                    nx1 = float(x1 @ gb[k] @ x1)
                    # u f g1(X1,z1) - u^2 z1(f) - a f |X1|^2 = 0
                    cc = wj.value[k] * gx1z1
                    bb = -z1f[k]
                    dd = -a * wj.value[k] * nx1
                    roots = np.roots([bb, cc, dd]) if abs(bb) > 1e-14 else (
                        [-dd / cc] if abs(cc) > 1e-12 else [])
                    for u in np.atleast_1d(roots):
                        if abs(np.imag(u)) > 1e-12:
                            continue
                        u = float(np.real(u))
                        if not 0.05 <= abs(u) <= 50.0:
                            continue
                        drawn.append((k, embed(ps, "base", x1)
                                      + embed(ps, 0, np.array([u]))))
            vals.extend(quads(ctx, ProductField((z1, s_unit.scaled(a))), drawn,
                              SEMI_SYMMETRIC))
    if not vals:
        return inconclusive("condition has no usable roots")
    return residual_outcome(vals, ctx.tol.alg,
                            note=f"{len(vals)} root-solved test vectors")


def synth_field_scalar(ps: ProductStructure, block, rng: SplitMix) -> VectorFieldDef:
    """Deterministic random quadratic polynomial field on one block
    (generic test data), one scalar draw per coefficient, each component a
    left-to-right sum of ``Bin`` nodes: the tree that ``synth_field``'s
    ``Quadratic`` nodes print and evaluate as."""
    bm = ps.block_metric(block)
    comps = []
    for _ in range(bm.dim):
        terms = [fieldexpr.num(round(rng.symmetric(), 3))]
        for name in bm.coords:
            terms.append(fieldexpr.mul(fieldexpr.num(round(rng.symmetric(), 3)),
                                       fieldexpr.Var(name)))
        names = list(bm.coords)
        for i in range(len(names)):
            for j in range(i, len(names)):
                coeff = fieldexpr.num(round(0.5 * rng.symmetric(), 3))
                terms.append(fieldexpr.mul(
                    coeff,
                    fieldexpr.mul(fieldexpr.Var(names[i]), fieldexpr.Var(names[j])),
                ))
        expr = terms[0]
        for t in terms[1:]:
            expr = fieldexpr.Bin("+", expr, t)
        comps.append(expr)
    return VectorFieldDef(block, tuple(comps))


def warp_jet_full(geom: Geometry, i: int) -> Jet2:
    """The i-th warp's jet walked in the whole chart's ``jet_env``; a
    constant warp's jet, which has no sample axis, is broadcast along one."""
    ps = geom.ps
    j = ps.expr_jet(ps.warps[i], ps.jet_env(geom.points), geom.points)
    s, n = len(geom.points), ps.total_dim
    return Jet2(np.broadcast_to(j.value, (s,)), np.broadcast_to(j.grad, (s, n)),
                np.broadcast_to(j.hess, (s, n, n)))


# ---- the power-law fits, one sample row at a time ----


def cbrt_base_field_rows(ctx):
    """The declared base field matching cbrt(a t - b), with (a, b)."""
    a = ctx.mf.constants.get("a")
    b = ctx.mf.constants.get("b")
    if a is None or b is None or ctx.ps.base.dim != 1:
        return None
    tname = ctx.ps.base.coords[0]
    times = ctx.points()[:, ctx.ps.block_slice("base").start].tolist()
    for name, vfd in sorted(ctx.fields_on("base").items()):
        ok = True
        for t in times:
            want = math.copysign(abs(a * t - b) ** (1.0 / 3.0), a * t - b)
            got = float(fieldexpr.eval_expr(vfd.components[0], {tname: t}))
            if abs(got - want) > 1e-10:
                ok = False
                break
        if ok:
            return name, vfd, float(a), float(b)
    return None


def eq28_residual_max_rows(ctx, i: int, c_i: float, a: float, b: float) -> float:
    gaps = []
    slb = ctx.ps.block_slice("base").start
    wj = ctx.geom.warp_jet(i)
    for k, t in enumerate(ctx.points()[:, slb].tolist()):
        f = float(wj.value[k])
        fdot = float(wj.grad[k, slb])
        fddot = float(wj.hess[k, slb, slb])
        s = a * t - b
        s23 = math.copysign(abs(s) ** (2.0 / 3.0), 1.0)
        gaps.append((a / 3.0) * f * fdot
                    + (f * fddot + fdot * fdot) * s
                    + 2.0 * c_i * f * fdot * s23)
    return max_abs(gaps)


def recover_exponent_rows(ctx, i: int, a: float, b: float):
    """Fit p with warp = ((a t - b)/a)^p; None when unstable."""
    slb = ctx.ps.block_slice("base").start
    warp = ctx.geom.warp_jet(i).value
    vals = []
    for k, t in enumerate(ctx.points()[:, slb].tolist()):
        phi = (a * t - b) / a
        if phi <= 0 or abs(math.log(phi)) < 1e-3:
            continue
        vals.append(math.log(warp[k]) / math.log(phi))
    if len(vals) < 8:
        return None, math.inf
    arr = np.asarray(vals)
    if float(arr.std()) > 1e-9:
        return None, float(arr.std())
    return float(arr.mean()), float(arr.std())


def eq29_residual_max_rows(ctx, i: int, p_i: float, c_i: float,
                           a: float, b: float) -> float:
    gaps = []
    slb = ctx.ps.block_slice("base").start
    for t in ctx.points()[:, slb].tolist():
        s = a * t - b
        phi = s / a
        s23 = abs(s) ** (2.0 / 3.0)
        gaps.append(a / 3.0 + (2.0 * p_i - 1.0) / phi * s + 2.0 * c_i * s23)
    return max_abs(gaps)
