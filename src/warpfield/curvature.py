"""Riemann and Ricci tensors, sectional curvature, frames and traces.

Index conventions, with ``gamma[k, i, j]`` the Levi-Civita symbols:

    r_up[l, k, i, j]  = d_i gamma[l, j, k] - d_j gamma[l, i, k]
                        + gamma[l, i, m] gamma[m, j, k]
                        - gamma[l, j, m] gamma[m, i, k]

so ``r_up[:, k, i, j]`` is the curvature operator of the (i, j) pair
applied to e_k, and the lowered tensor is ``r_low[i, j, k, l] =
g_lm r_up[m, k, i, j]`` (pair first, argument, then the metric slot).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .connections import Geometry, as_field_jet, covariant_derivative, nabla_grid
from .jets import Point
from .metric import GeometryError


class FrameConstructionFailure(GeometryError):
    pass


@dataclass(frozen=True)
class CurvatureAt:
    r_up: np.ndarray    # (n, n, n, n) [l, k, i, j]
    r_low: np.ndarray   # (n, n, n, n) [i, j, k, l]
    ricci: np.ndarray   # (n, n)
    point: Point


def riemann(geom: Geometry, p: Point) -> CurvatureAt:
    """The curvature at p, computed once per (geometry, point)."""
    return geom.per_point(curvature_at, p)


def curvature_at(geom: Geometry, p: Point) -> CurvatureAt:
    """Riemann and Ricci tensors at p from the Christoffel jet."""
    gamma, dgamma = geom.christoffel_jet(p)
    r_up = (np.einsum("iljk->lkij", dgamma)
            - np.einsum("jlik->lkij", dgamma)
            + np.einsum("lim,mjk->lkij", gamma, gamma)
            - np.einsum("ljm,mik->lkij", gamma, gamma))
    g = geom.metric(p).g
    r_low = np.einsum("lm,mkij->ijkl", g, r_up)
    ricci = np.einsum("aiaj->ij", r_up)
    return CurvatureAt(r_up=r_up, r_low=r_low, ricci=ricci, point=p)


def riemann_quad(curv: CurvatureAt, zeta: np.ndarray, x: np.ndarray) -> float:
    """R(zeta, x, x, zeta) from the lowered tensor."""
    return float(np.einsum("ijkl,i,j,k,l->", curv.r_low, zeta, x, x, zeta))


def frame_of_matrix(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def product_frame(geom: Geometry, p: Point) -> tuple[np.ndarray, np.ndarray]:
    """Per-block frame of the assembled metric (fiber legs carry 1/warp)."""
    g = geom.metric(p).g
    n = g.shape[0]
    frame = np.zeros((n, n))
    eps = np.zeros(n)
    for sl in geom.ps.slices:
        bf, be = frame_of_matrix(g[sl, sl])
        frame[sl, sl] = bf
        eps[sl] = be
    return frame, eps


def parallel_residual_at(geom: Geometry, zeta, p: Point) -> float:
    """max |(nabla_{e_a} zeta)^k| over the coordinate basis."""
    zj = as_field_jet(geom, zeta, p)
    return float(np.max(np.abs(nabla_grid(geom.christoffel(p), zj.val, zj.d))))


def trace_nabla(geom: Geometry, zeta, p: Point) -> float:
    """Sum over a frame of eps_a g(nabla_{E_a} zeta, nabla_{E_a} zeta)."""
    frame, eps = product_frame(geom, p)
    g = geom.metric(p).g
    total = 0.0
    for a in range(frame.shape[0]):
        w = covariant_derivative(geom, frame[a], zeta, p)
        total += eps[a] * float(w @ g @ w)
    return total


def ricci_quadratic(geom: Geometry, zeta, p: Point,
                    curv: CurvatureAt | None = None) -> float:
    if curv is None:
        curv = riemann(geom, p)
    zv = geom.field_values(zeta, p)
    return float(zv @ curv.ricci @ zv)
