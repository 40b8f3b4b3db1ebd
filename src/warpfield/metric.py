"""Block metrics and multiply warped product assembly.

A product structure is a base block plus zero or more fiber blocks, each
fiber scaled by the square of a positive warping function of the base
coordinates.  The assembled metric is exactly block-diagonal: off-block
entries are never computed, and the inverse is taken block by block, so
both stay identically zero off the blocks.

Charts are open coordinate boxes.  Sampling draws from a 10%-inset
sub-box, which keeps evaluation away from chart boundaries (sphere-chart
poles, cube-root singularities pushed to the edge, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import fieldexpr
from .fieldexpr import Bin, Expr, JetEnv, Num, eval_expr
from .jets import DomainError, Jet2, require
from .sampling import SplitMix


class GeometryError(ValueError):
    pass


class SingularMetric(GeometryError):
    pass


class NonPositiveWarping(GeometryError):
    pass


class DimensionMismatch(GeometryError):
    pass


DET_FLOOR = 1e-10
ZERO = Num(0.0)


@dataclass(frozen=True)
class BlockMetric:
    """One factor: named coordinates, symmetric metric entries, chart box."""

    label: str
    coords: tuple[str, ...]
    entries: tuple[tuple[Expr, ...], ...]
    box: tuple[tuple[float, float], ...]

    def __post_init__(self):
        d = len(self.coords)
        if len(self.entries) != d or any(len(row) != d for row in self.entries):
            raise DimensionMismatch(f"block {self.label}: entries must be {d}x{d}")
        if len(self.box) != d:
            raise DimensionMismatch(f"block {self.label}: box must cover {d} coordinates")
        for i in range(d):
            for j in range(d):
                if self.entries[i][j] != self.entries[j][i]:
                    raise GeometryError(
                        f"block {self.label}: entries not symmetric at ({i},{j})"
                    )
        for name, (lo, hi) in zip(self.coords, self.box):
            if not lo < hi:
                raise GeometryError(f"block {self.label}: empty box for {name}")
        for row in self.entries:
            for e in row:
                extra = fieldexpr.variables_of(e) - set(self.coords)
                if extra:
                    raise GeometryError(
                        f"block {self.label}: metric entry references {sorted(extra)}"
                    )

    @property
    def dim(self) -> int:
        return len(self.coords)


def diagonal_block(label: str, coords, diag_exprs, box) -> BlockMetric:
    d = len(coords)
    zero = fieldexpr.num(0.0)
    entries = tuple(
        tuple(diag_exprs[i] if i == j else zero for j in range(d)) for i in range(d)
    )
    return BlockMetric(label, tuple(coords), entries, tuple(box))


@dataclass(frozen=True)
class ProductStructure:
    """Base x fiber_1 x ... x fiber_m with fiber metrics scaled by warp^2."""

    base: BlockMetric
    fibers: tuple[BlockMetric, ...] = ()
    warps: tuple[Expr, ...] = ()
    coord_names: tuple[str, ...] = field(init=False)
    slices: tuple[slice, ...] = field(init=False)  # base first, then fibers

    def __post_init__(self):
        if len(self.warps) != len(self.fibers):
            raise GeometryError("need exactly one warping per fiber")
        names: list[str] = list(self.base.coords)
        slices = [slice(0, self.base.dim)]
        offset = self.base.dim
        for f in self.fibers:
            slices.append(slice(offset, offset + f.dim))
            names.extend(f.coords)
            offset += f.dim
        if len(set(names)) != len(names):
            raise GeometryError("coordinate names must be unique across blocks")
        for w in self.warps:
            extra = fieldexpr.variables_of(w) - set(self.base.coords)
            if extra:
                raise GeometryError(f"warping references non-base coordinates {sorted(extra)}")
        object.__setattr__(self, "coord_names", tuple(names))
        object.__setattr__(self, "slices", tuple(slices))

    @property
    def total_dim(self) -> int:
        return len(self.coord_names)

    @property
    def blocks(self) -> tuple[BlockMetric, ...]:
        return (self.base,) + self.fibers

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(b.dim for b in self.blocks)

    @property
    def box(self) -> tuple[tuple[float, float], ...]:
        out: list[tuple[float, float]] = []
        for b in self.blocks:
            out.extend(b.box)
        return tuple(out)

    def block_structure(self, block) -> "ProductStructure":
        return ProductStructure(base=self.block_metric(block))

    # block ids: 'base' or 0-based fiber index
    def block_slice(self, block) -> slice:
        if block == "base":
            return self.slices[0]
        return self.slices[int(block) + 1]

    def block_metric(self, block) -> BlockMetric:
        if block == "base":
            return self.base
        return self.fibers[int(block)]

    def sample_set(self, points) -> np.ndarray:
        """``points`` as an (S, n) float array, one point of the chart per
        row; S may be 0.  Such an array is returned as it is."""
        points = np.asarray(points, dtype=float)
        if points.shape[1:] == (self.total_dim,):
            return points
        if points.size:
            raise DimensionMismatch(f"points must be rows of {self.total_dim} "
                                    f"coordinates, got shape {points.shape}")
        return points.reshape(-1, self.total_dim)

    def jet_env(self, points: np.ndarray, block=None) -> JetEnv:
        """Coordinate jets over the rows of ``points``, one sample per row,
        with partials in ``block``'s coordinates or, by default, the chart's.
        A geometry keeps each of its blocks' envs, and with it the monomial
        table (``JetEnv``), as a stack."""
        sl = slice(None) if block is None else self.block_slice(block)
        coords = points[:, sl].T.copy()  # one contiguous row per coordinate
        n, s = coords.shape
        grads = np.repeat(np.eye(n)[:, None, :], s, axis=1)  # grads[k] = e_k
        hess = np.zeros((s, n, n))
        return JetEnv((name, Jet2(coords[k], grads[k], hess))
                      for k, name in enumerate(self.coord_names[sl]))

    def expr_jet(self, expr: Expr, env: dict, points: np.ndarray) -> Jet2:
        """``expr`` over the ``jet_env`` of ``points``; a constant becomes a
        constant jet.  A DomainError names the first point where the
        expression leaves its real domain or overflows, and the expression."""
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                j = jet_of(expr, env)
                require(j.finite(), j.value, "overflow")
        except DomainError as err:
            i = err.index or 0
            raise DomainError(f"{err} at ({self.where(points[i])}) in "
                              f"{fieldexpr.pretty(expr)}", index=i) from None
        return j

    def walk(self, assemble, points: np.ndarray, overflow=None) -> tuple:
        """``assemble(jet)``: arrays, sample axis first, from the jets
        ``jet(expr, env)`` of expressions over ``jet_env``s of ``points``.
        Only the arrays are tested: if one is not finite, or an error is
        raised, they are assembled again from ``expr_jet``, which raises the
        first error in walk order; arrays still not finite go to ``overflow``."""
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                arrays = assemble(jet_of)
                # the sum is finite unless an entry is inf or NaN (or it overflows)
                if np.isfinite(sum(a.sum() for a in arrays)):
                    return arrays
            except (DomainError, NonPositiveWarping):
                pass
            arrays = assemble(lambda expr, env: self.expr_jet(expr, env, points))
        if overflow is not None:
            overflow(points, *arrays)
        return arrays

    def where(self, p: np.ndarray) -> str:
        """The row p's coordinates by name, as error messages print them."""
        return ", ".join(f"{c}={v!r}" for c, v in zip(self.coord_names, p.tolist()))

    def _require_finite(self, points: np.ndarray, *arrays) -> None:
        """DomainError at the first point where a metric array (sample axis
        first, entry axes last) is not finite, naming that entry: a base
        entry, or a fiber entry times its squared warp."""
        for k, p in enumerate(points):
            for a in arrays:
                bad = np.argwhere(~np.isfinite(a[k]))
                if bad.size:
                    i, j = bad[0][-2:]
                    b = next(b for b, sl in enumerate(self.slices) if i < sl.stop)
                    start = self.slices[b].start
                    e = self.blocks[b].entries[i - start][j - start]
                    e = Bin("*", Bin("^", self.warps[b - 1], Num(2.0)), e) if b else e
                    raise DomainError(f"overflow at ({self.where(p)}) in "
                                      f"{fieldexpr.pretty(e)}", index=k)

    def _block_inverse(self, m: np.ndarray, label: str, points: np.ndarray) -> np.ndarray:
        """Inverse of a stack of blocks (S, d, d) at ``points``; a singular
        block is named with its point."""
        det = np.linalg.det(m)
        bad = np.flatnonzero(np.abs(det) <= DET_FLOOR)
        if bad.size:
            k = bad[0]
            raise SingularMetric(f"singular metric block {label} (det={float(det[k])}) "
                                 f"at ({self.where(points[k])})")
        return np.linalg.inv(m)

    def metric_at(self, p: np.ndarray) -> "MetricJet":
        """The metric jet at the one point p: the row of ``metric_jet([p])``,
        without the sample axis (and without the warps' jets)."""
        mj = self.metric_jet([p])
        return MetricJet(mj.g[0], mj.dg[0], mj.d2g[0], mj.ginv[0])

    def metric_jet(self, points, envs=None) -> "MetricJet":
        """Metric jets at the rows of ``points``, stacked on a leading sample
        axis, from one walk of every entry and warp expression over them all
        in its block's ``jet_env``, ``envs(block)`` when given (a geometry
        passes its own); a fiber entry times w^2 is put together
        block by block, each partial from the same operands as in the chart.
        The warps' jets, in the base's coordinates, are kept as ``warps``,
        and each fiber's own metric jet, from before the w^2 product, as
        ``fibers``."""
        points = self.sample_set(points)
        envs = [envs(b) if envs else self.jet_env(points, b)
                for b in ("base", *range(len(self.fibers)))]
        s, n = len(points), self.total_dim
        bs = self.slices[0]
        warps, fibers = {}, {}

        def assemble(jet):
            g = np.zeros((s, n, n))
            dg = np.zeros((s, n, n, n))
            d2g = np.zeros((s, n, n, n, n))

            def put(sl, block, env, w2=None, own=None):
                for a, b in ((a, b) for a in range(block.dim) for b in range(a, block.dim)
                             if block.entries[a][b] != ZERO):
                    j = jet(block.entries[a][b], env)
                    ia, ib = sl.start + a, sl.start + b
                    if w2 is not None:  # w2 * j: its base partials here, j's scaled below
                        for arr, v in zip(own, (j.value, j.grad, j.hess)):  # j alone
                            arr[..., a, b] = arr[..., b, a] = v
                        wv, jv = np.asarray(w2.value)[..., None], np.asarray(j.value)[..., None]
                        cross = w2.grad[..., :, None] * j.grad[..., None, :]
                        dg[:, bs, ia, ib] = dg[:, bs, ib, ia] = jv * w2.grad
                        d2g[:, bs, bs, ia, ib] = d2g[:, bs, bs, ib, ia] = jv[..., None] * w2.hess
                        d2g[:, bs, sl, ia, ib] = d2g[:, bs, sl, ib, ia] = cross
                        d2g[:, sl, bs, ia, ib] = d2g[:, sl, bs, ib, ia] = cross.swapaxes(-1, -2)
                        j = Jet2(w2.value * j.value, wv * j.grad, wv[..., None] * j.hess)
                    g[:, ia, ib] = g[:, ib, ia] = j.value
                    dg[:, sl, ia, ib] = dg[:, sl, ib, ia] = j.grad
                    d2g[:, sl, sl, ia, ib] = d2g[:, sl, sl, ib, ia] = j.hess

            put(bs, self.base, envs[0])
            for i, f in enumerate(self.fibers):
                w = jet(self.warps[i], envs[0])
                warps[i] = w
                vals = np.atleast_1d(w.value)
                bad = np.flatnonzero(vals <= 0.0)
                if bad.size:
                    k = bad[0]
                    raise NonPositiveWarping(
                        f"warping for {f.label} evaluates to {float(vals[k])} at "
                        f"({self.where(points[k])}) in {fieldexpr.pretty(self.warps[i])}")
                d = f.dim
                own = fibers[i] = (np.zeros((s, d, d)), np.zeros((s, d, d, d)),
                                   np.zeros((s, d, d, d, d)))
                put(self.slices[i + 1], f, envs[i + 1], w * w, own)
            return g, dg, d2g

        g, dg, d2g = self.walk(assemble, points, self._require_finite)
        ginv = np.zeros((s, n, n))
        for sl, block in zip(self.slices, self.blocks):
            ginv[:, sl, sl] = self._block_inverse(g[:, sl, sl], block.label, points)
        return MetricJet(g=g, dg=dg, d2g=d2g, ginv=ginv, warps=tuple(warps.values()),
                         fibers=tuple(fibers.values()))

    def block_jet(self, mj: "MetricJet", block, points: np.ndarray) -> "MetricJet":
        """``block_structure(block).metric_jet(points)`` bit for bit, where
        ``points`` are the block's columns of the sample set ``mj`` was
        walked over, read from that walk: the base's entries are its block
        of ``mj``, a fiber's are its own from before the w^2 product.  The
        block's inverse is taken as its own walk takes it."""
        if block == "base":
            sl = self.slices[0]
            g, dg, d2g = (np.ascontiguousarray(a[(slice(None),) + (sl,) * (a.ndim - 1)])
                          for a in (mj.g, mj.dg, mj.d2g))
        else:
            g, dg, d2g = mj.fibers[int(block)]
        alone = self.block_structure(block)
        return MetricJet(g=g, dg=dg, d2g=d2g,
                         ginv=alone._block_inverse(g, alone.base.label, points))


@dataclass(frozen=True)
class MetricJet:
    """The metric and its first two partials at a point, or at a list of
    points with a leading sample axis on every array."""

    g: np.ndarray       # (n, n)
    dg: np.ndarray      # (n, n, n): dg[d, i, j] = d_d g_ij
    d2g: np.ndarray     # (n, n, n, n): d2g[d, e, i, j]
    ginv: np.ndarray
    warps: tuple = ()   # per fiber, the warp's Jet2 in the base's coordinates
    fibers: tuple = ()  # per fiber, its own (g, dg, d2g) in its coordinates

    @cached_property
    def dginv(self) -> np.ndarray:
        """(n, n, n): dginv[d, k, l] = d_d g^kl = -g^ka d_d g_ab g^bl,
        computed on first use: only the Christoffel jet needs it."""
        gi = self.ginv[..., None, :, :]
        return -(gi @ self.dg @ gi)


def jet_of(expr: Expr, env: dict) -> Jet2:
    """``expr`` over a ``jet_env``; a constant becomes a constant jet.  The
    first pass of ``ProductStructure.walk`` hands this to ``assemble``."""
    j = eval_expr(expr, env)
    return j if isinstance(j, Jet2) else Jet2.constant(j, len(env))


def sample_points(
    ps: ProductStructure,
    count: int,
    rng: SplitMix,
    exclusions: dict[str, list[tuple[float, float]]] | None = None,
) -> np.ndarray:
    """Deterministic points from the 10%-inset sub-box, avoiding exclusions:
    an (count, n) array, one point per row.

    Each candidate is one row of uniform draws, one per coordinate in
    chart order, and a row with a coordinate inside an exclusion is
    dropped.  Rows are drawn a block at a time, never more than are still
    needed, so the generator ends where one draw at a time would leave it.
    """
    exclusions = exclusions or {}
    lo, hi = np.array(ps.box).T
    limit = 200 * count + 1000
    out = np.empty((0, len(lo)))
    drawn = 0
    while len(out) < count:
        rows = min(count - len(out), limit - drawn)
        if rows == 0:
            raise GeometryError("sampling rejected too many points; check exclusions")
        drawn += rows
        v = lo + (0.1 + 0.8 * rng.uniforms((rows, len(lo)))) * (hi - lo)
        ok = np.ones(rows, dtype=bool)
        for k, name in enumerate(ps.coord_names):
            for (xlo, xhi) in exclusions.get(name, ()):
                ok &= ~((xlo <= v[:, k]) & (v[:, k] <= xhi))
        out = np.concatenate((out, v[ok]))
    return out
