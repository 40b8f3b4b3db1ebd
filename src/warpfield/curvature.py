"""Riemann and Ricci tensors, frames and traces.

Index conventions, with ``gamma[k, i, j]`` the Levi-Civita symbols:

    r_up[l, k, i, j]  = d_i gamma[l, j, k] - d_j gamma[l, i, k]
                        + gamma[l, i, m] gamma[m, j, k]
                        - gamma[l, j, m] gamma[m, i, k]

so ``r_up[:, k, i, j]`` is the curvature operator of the (i, j) pair
applied to e_k, and the lowered tensor is ``r_low[i, j, k, l] =
g_lm r_up[m, k, i, j]`` (pair first, argument, then the metric slot).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connections import Geometry, bilinear, matvec, nabla
from .metric import GeometryError


class FrameConstructionFailure(GeometryError):
    pass


@dataclass(frozen=True)
class Curvature:
    """Riemann and Ricci tensors, with a leading sample axis on every
    array."""

    r_low: np.ndarray   # (s, n, n, n, n) [s, i, j, k, l]
    ricci: np.ndarray   # (s, n, n)


def riemann(geom: Geometry) -> Curvature:
    """The curvature stacked over the sample set; computed once per
    geometry."""
    return geom.stack(_curvatures)


def _curvatures(geom: Geometry) -> Curvature:
    """Riemann and Ricci tensors at every sample point from the
    Christoffel jet."""
    gamma, dgamma = geom.christoffel_jet()
    s, n = gamma.shape[:2]
    # a[l, i, j, k] = d_i gamma[l, j, k] + gamma[l, i, m] gamma[m, j, k], and
    # q[l, i, j, k] = a - (i <-> j) = r_up[l, k, i, j]
    a = np.swapaxes(dgamma, 1, 2) + (gamma.reshape(s, n * n, n)
                                     @ gamma.reshape(s, n, n * n)).reshape(dgamma.shape)
    q = a - np.swapaxes(a, 2, 3)
    r_low = np.moveaxis(q, 1, -1).reshape(s, -1, n) @ np.swapaxes(geom.metric_jet().g, 1, 2)
    ricci = np.swapaxes(np.trace(q, axis1=1, axis2=2), 1, 2)
    return Curvature(r_low=r_low.reshape(dgamma.shape), ricci=ricci)


def riemann_along(r_low: np.ndarray, z: np.ndarray) -> np.ndarray:
    """z^i r_low[i, j, k, l] at every sample point (S, n, n, n), for a stack
    of vectors z (S, n) or one vector (n,)."""
    rz = z[..., None, :] @ r_low.reshape(r_low.shape[:2] + (-1,))
    return rz.reshape(r_low.shape[:1] + r_low.shape[2:])


def zeta_curvature(geom: Geometry, zeta, slots: str) -> np.ndarray:
    """The lowered curvature r_low[i, j, k, l] with zeta in the two index
    ``slots`` at each sample point, the other two free: "il" gives
    R(z, ., ., z) and "ik" gives R(z, ., z, .); (S, n, n)."""
    zv = geom.field_values(zeta)
    rz = riemann_along(riemann(geom).r_low, zv)
    if slots == "il":
        return matvec(rz, zv[..., None, :])
    return (zv[..., None, None, :] @ rz)[..., 0, :]


def frame_of_matrix(g: np.ndarray, where=None) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-orthonormal frame rows E_a with signs eps_a = g(E_a, E_a), of
    one matrix or row by row of a stack (S, d, d): every row goes through
    the same Gram-Schmidt steps.  A null direction raises, with
    ``where(k)`` naming the first row k where it was met."""
    if g.ndim == 2:
        frame, eps = frame_of_matrix(g[None], where)
        return frame[0], eps[0]
    frame, eps = np.zeros(g.shape), np.zeros(g.shape[:2])
    for a in range(g.shape[-1]):
        v = np.zeros(g.shape[:2])
        v[:, a] = 1.0
        for b in range(a):
            v = v - (eps[:, b] * bilinear(g, v, frame[:, b]))[:, None] * frame[:, b]
        n2 = bilinear(g, v, v)
        null = np.flatnonzero(np.abs(n2) < 1e-12)
        if null.size:
            raise FrameConstructionFailure("null direction met during frame build"
                                           + (where(null[0]) if where else ""))
        frame[:, a] = v / np.sqrt(np.abs(n2))[:, None]
        eps[:, a] = np.where(n2 > 0, 1.0, -1.0)
    return frame, eps


def product_frame(geom: Geometry) -> tuple[np.ndarray, np.ndarray]:
    """Per-block frame of the assembled metric at every sample point (fiber
    legs carry 1/warp); a null direction names its block and point.
    Computed once per geometry."""
    return geom.stack(_product_frames)


def _product_frames(geom: Geometry) -> tuple[np.ndarray, np.ndarray]:
    g = geom.metric_jet().g
    frame, eps = np.zeros(g.shape), np.zeros(g.shape[:2])
    for block, sl in zip(geom.ps.blocks, geom.ps.slices):
        frame[:, sl, sl], eps[:, sl] = frame_of_matrix(
            g[:, sl, sl], lambda k: f" of block {block.label} at "
                                    f"({geom.ps.where(geom.points[k])})")
    return frame, eps


def parallel_residual(geom: Geometry, zeta) -> np.ndarray:
    """max |(nabla_{e_a} zeta)^k| over the coordinate basis at each sample
    point."""
    return np.abs(nabla(geom, zeta)).max(axis=(-2, -1))


def trace_nabla(geom: Geometry, zeta) -> np.ndarray:
    """Sum over a frame of eps_a g(nabla_{E_a} zeta, nabla_{E_a} zeta) at
    each sample point; computed once per (geometry, field)."""
    return geom.stack(_trace_nablas, zeta)


def _trace_nablas(geom: Geometry, zeta) -> np.ndarray:
    frame, eps = product_frame(geom)
    # row a: nabla_{E_a} zeta
    w = (frame[..., None, :] @ nabla(geom, zeta)[:, None])[..., 0, :]
    # Python's sum adds the frame terms in frame order (np.sum would add
    # them pairwise for n >= 8)
    return sum((eps * bilinear(geom.metric_jet().g[:, None], w, w)).T)


def ricci_quadratic(geom: Geometry, zeta) -> np.ndarray:
    """Ric(zeta, zeta) at each sample point."""
    zv = geom.field_values(zeta)
    return bilinear(riemann(geom).ricci, zv, zv)
