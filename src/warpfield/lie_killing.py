"""Lie derivatives of the metric and the Killing-type residual checks.

Two independent evaluation routes are kept side by side everywhere:

* the connection route, ``g(nabla_X zeta, Y) + g(nabla_Y zeta, X)``, and
  its second-order analogue built from nested covariant derivatives;
* the coordinate route, ``zeta^c d_c g_ab + d_a zeta^c g_cb +
  d_b zeta^c g_ac``, applied once or twice.

The residual checks aggregate over coordinate-basis pairs, which is
complete for a symmetric bilinear form; random test vectors are kept for
the quadratic-form reformulations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .connections import (
    LEVI_CIVITA,
    SEMI_SYMMETRIC,
    Geometry,
    as_field_jet,
    bilinear,
    contract_first,
    matvec,
    nabla,
    nabla_grid,
)
from .curvature import zeta_curvature
# not called here: perfbench/test_perfbench.py checks that its tracer
# patches riemann at this import site too
from .curvature import riemann  # noqa: F401
from .fields import ProductField


def max_abs(values) -> float:
    """Largest |v| over an array, or over an iterable of numbers or
    same-shape arrays.

    NaN anywhere gives NaN, and so does an empty input, so a gate
    ``max_abs(...) <= tol`` never passes on a non-finite or missing
    residual.
    """
    if not isinstance(values, np.ndarray):
        values = list(values)
    arr = np.abs(np.asarray(values, dtype=float))
    return float(arr.max()) if arr.size else math.nan


def point_max(stack: np.ndarray) -> np.ndarray:
    """Per sample point, the largest |entry| of a stack whose leading axis
    runs over the points; NaN propagates as in ``max_abs``."""
    return np.abs(stack).reshape(len(stack), -1).max(axis=1)


def form(m: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """m(x, y) = x_a m_ab y_b for stacks of vectors x, y (..., draws, n)
    against one matrix m (..., n, n) per stack."""
    return ((x @ m) * y).sum(axis=-1)


def lie_matrix(geom: Geometry, zeta: ProductField, kind: str = LEVI_CIVITA) -> np.ndarray:
    """(L_zeta g)(e_a, e_b) = g(nabla_a zeta, e_b) + g(nabla_b zeta, e_a)
    for the chosen connection at every sample point (S, n, n); computed
    once per (geometry, field, kind)."""
    return geom.stack(_lie_matrices, zeta, kind)


def _lie_matrices(geom: Geometry, zeta: ProductField, kind: str) -> np.ndarray:
    wg = nabla(geom, zeta, kind) @ geom.metric_jet().g
    return wg + _swap(wg)


def _swap(m: np.ndarray) -> np.ndarray:
    """The transpose of each matrix of a stack."""
    return m.swapaxes(-1, -2)


def _along(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """out[..., i, j] = v[..., l] t[..., l, i, j]."""
    return contract_first(v[..., None, :], t)[..., 0, :, :]


def ssm_lie_matrix(geom: Geometry, zeta) -> np.ndarray:
    """Shifted-connection Lie derivative of g on the coordinate basis."""
    return lie_matrix(geom, zeta, SEMI_SYMMETRIC)


def nabla_quads(geom: Geometry, zeta: ProductField, ks: np.ndarray, xs: np.ndarray,
                kind: str = LEVI_CIVITA) -> np.ndarray:
    """g(nabla_x zeta, x), half the Lie derivative's quadratic form, for
    each test vector ``xs[m]`` at sample point ``ks[m]``: one gathered
    contraction with the stacked grid of nabla zeta."""
    w = nabla(geom, zeta, kind)[ks]
    return bilinear(geom.metric_jet().g[ks], (xs[:, None, :] @ w)[:, 0], xs)


def lie_matrix_direct(geom: Geometry, zeta) -> np.ndarray:
    """Coordinate-route (L_zeta g)_ab at every sample point; independent of
    the connection code."""
    mj = geom.metric_jet()
    zj = as_field_jet(geom, zeta)
    dzg = zj.d @ mj.g
    return _along(zj.val, mj.dg) + dzg + _swap(dzg)


def _lie_of_tensor(h: np.ndarray, dh: np.ndarray, zj) -> np.ndarray:
    """One coordinate-route Lie step applied to a 2-tensor with jets."""
    return _along(zj.val, dh) + zj.d @ h + h @ _swap(zj.d)


def lie_lie_matrix_nested(geom: Geometry, zeta) -> np.ndarray:
    """(L_zeta L_zeta g)_ab by applying the coordinate formula twice, at
    every sample point."""
    mj = geom.metric_jet()
    zj = as_field_jet(geom, zeta)
    h = lie_matrix_direct(geom, zeta)
    g = mj.g[..., None, :, :]
    d2 = zj.chart_d2()
    dh = (contract_first(zj.d, mj.dg)
          + _along(zj.val[..., None, :], mj.d2g)
          + d2 @ g
          + zj.d[..., None, :, :] @ mj.dg
          + g @ _swap(d2)
          + mj.dg @ _swap(zj.d)[..., None, :, :])
    return _lie_of_tensor(h, dh, zj)


def lie_lie_matrix(geom: Geometry, zeta: ProductField) -> np.ndarray:
    """Second Lie derivative of g from nested covariant derivatives at
    every sample point (S, n, n); computed once per (geometry, field).

    With x, y extended as coordinate fields:
      (L L g)(x, y) = g(nabla_zeta nabla_x zeta - nabla_[zeta,x] zeta, y)
                      + (x <-> y) + 2 g(nabla_x zeta, nabla_y zeta).
    """
    return geom.stack(_lie_lie_matrices, zeta)


@functools.cache
def dgamma_rows(dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The rows (m, a, k) of dgamma[s, m, k, a, :] that a multiply warped
    product with block dims ``dims`` (base first) can make nonzero: those
    whose fiber indices all lie in one fiber, since each fiber's entries
    and symbols depend on that fiber's and the base's coordinates only.
    Returns their flat indices in dgamma's (m, k, a) layout and in the
    (m, a, k) layout of a grid jet, both in (m, a, k) order."""
    n = sum(dims)
    block = np.repeat(np.arange(len(dims)), dims)  # 0 is the base

    def apart(i, j):
        return (i > 0) & (j > 0) & (i != j)

    m, a, k = np.ix_(block, block, block)
    m, a, k = np.nonzero(~(apart(m, a) | apart(m, k) | apart(a, k)))
    rows = (m * n + k) * n + a, (m * n + a) * n + k
    for r in rows:
        r.flags.writeable = False  # shared by every structure of these dims
    return rows


def _dgamma_kept(geom: Geometry) -> np.ndarray:
    """dgamma's rows of ``dgamma_rows``, gathered once per geometry as an
    (S, r, n) stack in (m, a, k) order."""
    _, dgamma = geom.christoffel_jet()
    s, n = len(geom.points), geom.ps.total_dim
    rows, _ = dgamma_rows(geom.ps.dims)
    return dgamma.reshape(s, n ** 3, n)[:, rows]


def _gamma_rows(geom: Geometry) -> np.ndarray:
    """gamma in (j, a, k) layout, gr[s, j, a n + k] = gamma^k_aj, built once
    per geometry as an (S, n, n^2) stack: row j is what d_m zeta^j meets."""
    gamma = geom.christoffel()
    s, n = len(geom.points), geom.ps.total_dim
    return np.ascontiguousarray(gamma.transpose(0, 3, 2, 1)).reshape(s, n, n * n)


def _nabla_grid_jets(geom: Geometry, zeta: ProductField) -> tuple[np.ndarray, np.ndarray]:
    """w[s, a, k] = (nabla_{e_a} zeta)^k (Levi-Civita) and its partials
    dw[s, m, a, k] = d_m d_a zeta^k + d_m gamma^k_aj zeta^j + gamma^k_aj
    d_m zeta^j.  The d gamma term is one matmul over the rows a product
    can make nonzero (``dgamma_rows``); every other row is +0.  A lifted
    part depends on its own block's coordinates only, so d_m zeta^j is +0
    unless m and j both lie in its block: each part adds its second
    partials to its diagonal block and the gamma term to its rows m, one
    matmul of its block of d zeta against its rows j of ``_gamma_rows``.
    No two parts share a row m, so no term is summed across parts.  Not a
    stack, as dw holds S n^3 floats per field, so a field read by both
    ``lie_lie_matrix`` and ``nabla_zeta_zeta`` builds it twice.  It is
    C-ordered, as the products that read it sum in that layout."""
    zj = geom.field_jet(zeta)
    s, n = len(geom.points), geom.ps.total_dim
    _, rows = dgamma_rows(geom.ps.dims)
    dw = np.zeros((s, n ** 3))
    dw[:, rows] = (geom.stack(_dgamma_kept) @ zj.val[:, :, None])[:, :, 0]
    dw = dw.reshape(s, n, n, n)
    gr = geom.stack(_gamma_rows)
    for sl, h in zj.d2:
        dw[:, sl, sl, sl] += h
        dw[:, sl] += (zj.d[:, sl, sl] @ gr[:, sl]).reshape(s, -1, n, n)
    return nabla(geom, zeta), dw


def _lie_lie_matrices(geom: Geometry, zeta: ProductField) -> np.ndarray:
    zj = geom.field_jet(zeta)
    w, dw = _nabla_grid_jets(geom, zeta)
    # nabla_zeta w_a = zeta(w_a) + w_a gz, gz[j, k] = zeta^m gamma^k_mj
    gz = _swap((zj.val[:, None, None, :] @ geom.christoffel())[:, :, 0])
    nzw = _along(zj.val, dw) + w @ gz
    # v_a = [zeta, e_a] = -d_a zeta, so nabla_{v_a} zeta = -(d zeta) w
    g = geom.metric_jet().g
    first = (nzw + zj.d @ w) @ g
    return first + _swap(first) + 2.0 * (w @ g @ _swap(w))


# ---- residual checks ----


@dataclass(frozen=True)
class HomothetyResult:
    homothetic: bool
    factor: float


def homothety_check(geom: Geometry, mats, tol: float = 1e-8) -> HomothetyResult:
    """Least-squares fit of (L_zeta g) against g, given the Levi-Civita
    matrices ``mats`` of L_zeta g at the geometry's sample points (S, n, n);
    accept when the fit is tight at every point and the fitted factor is
    stable across points."""
    g = geom.metric_jet().g
    factors = np.sum(mats * g, axis=(-2, -1)) / np.sum(g * g, axis=(-2, -1))
    max_res = max_abs(mats - factors[:, None, None] * g)
    ok = max_res <= tol and float(factors.std()) <= 1e-6
    return HomothetyResult(ok, float(factors.mean()))


def nabla_zeta_zeta(geom: Geometry, zeta: ProductField) -> tuple[np.ndarray, np.ndarray]:
    """The field w = nabla_zeta zeta: (values, partials dw[s, m, k]), both
    stacked over the sample points; computed once per (geometry, field)."""
    return geom.stack(_nabla_zeta_zetas, zeta)


def _nabla_zeta_zetas(geom: Geometry, zeta: ProductField) -> tuple[np.ndarray, np.ndarray]:
    """zeta^a w[a, k] and its partials, from the grid jet of nabla zeta."""
    zj = geom.field_jet(zeta)
    w, dw = _nabla_grid_jets(geom, zeta)
    val = zj.val[:, None, :]
    return (val @ w)[:, 0], zj.d @ w + (val[:, None] @ dw)[:, :, 0]


def eq22_residual(geom: Geometry, zeta, xs) -> np.ndarray:
    """Gap in R(z, x, x, z) = g(nabla_x z, nabla_x z) + g(nabla_x nabla_z z, x)
    for each sample point's rows x of ``xs`` (S, m, n); the curvature
    contracted with z, nabla_z z and the covariant-derivative grids are
    computed once for all rows."""
    xs = np.asarray(xs, dtype=float)
    g = geom.metric_jet().g
    nxz = xs @ nabla(geom, zeta)
    nw = nabla_grid(geom.christoffel(), *nabla_zeta_zeta(geom, zeta))
    return np.abs(form(zeta_curvature(geom, zeta, "il"), xs, xs)
                  - form(g, nxz, nxz) - form(nw @ g, xs, xs))


def length_gradient(geom: Geometry, zeta) -> np.ndarray:
    """d_a g(zeta, zeta) = zeta^i zeta^j d_a g_ij + 2 g_ij zeta^i d_a zeta^j
    at every sample point (S, n): zero wherever zeta has constant length."""
    mj = geom.metric_jet()
    zj = as_field_jet(geom, zeta)
    zv = zj.val[..., None, :]
    return bilinear(mj.dg, zv, zv) + 2.0 * matvec(zj.d @ mj.g, zj.val)
