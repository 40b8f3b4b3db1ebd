import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    fd_jet,
    grad_scalar,
    inner,
    metric_jet_full,
    metric_row,
    signature,
    warp_jet_full,
)
from warpfield import fieldexpr as fe
from warpfield.cli import corpus_dir
from warpfield.connections import Geometry, divergence
from warpfield.fields import VectorFieldDef, lift
from warpfield.jets import DomainError
from warpfield.manifest import load_manifest, parse_manifest
from warpfield.metric import (
    DimensionMismatch,
    NonPositiveWarping,
    ProductStructure,
    SingularMetric,
    diagonal_block,
    sample_points,
)
from warpfield.sampling import SplitMix
from warpfield.suite import RunContext

ONE = fe.num(1.0)
NEG = fe.num(-1.0)


def interval(sign=1.0, box=(0.25, 1.75)):
    return diagonal_block("base", ("t",), (fe.num(sign),), (box,))


def flat2(label="fiber.1", coords=("x", "y")):
    return diagonal_block(label, coords, (ONE, ONE), ((-1.0, 1.0), (-1.0, 1.0)))


def grw(warp_src="exp(t)", box=(-0.75, 0.75)):
    warp = fe.parse_expr(warp_src, ("t",))
    return ProductStructure(base=interval(-1.0, box), fibers=(flat2(),),
                            warps=(warp,))


class TestAssembly:
    def test_lorentzian_warped_metric_at_origin(self):
        ps = grw()
        m = ps.metric_at(np.array((0.0, 0.2, -0.1)))
        assert np.allclose(np.diag(m.g), [-1.0, 1.0, 1.0])
        assert np.allclose(m.g @ m.ginv, np.eye(3), atol=1e-12)

    def test_unit_warp_gives_direct_product(self):
        ps = ProductStructure(base=interval(), fibers=(flat2(),), warps=(ONE,))
        m = ps.metric_at(np.array((1.0, 0.3, 0.4)))
        assert np.array_equal(m.g, np.diag([1.0, 1.0, 1.0]))

    def test_power_law_scaling(self):
        # warp (t^2) -> fiber block scaled by t^4 = 81 at t = 3
        warp = fe.parse_expr("t^2", ("t",))
        ps = ProductStructure(base=interval(1.0, (0.5, 4.0)), fibers=(flat2(),),
                              warps=(warp,))
        m = ps.metric_at(np.array((3.0, 0.1, 0.2)))
        assert m.g[1, 1] == pytest.approx(81.0, abs=1e-12)

    def test_off_block_entries_exactly_zero(self):
        ps = grw()
        m = ps.metric_at(np.array((0.3, 0.2, -0.1)))
        assert m.g[0, 1] == 0.0 and m.g[0, 2] == 0.0
        assert m.ginv[0, 1] == 0.0 and m.ginv[0, 2] == 0.0

    def test_nonpositive_warping_rejected(self):
        warp = fe.parse_expr("t", ("t",))
        ps = ProductStructure(base=interval(1.0, (-1.0, 1.0)),
                              fibers=(flat2(),), warps=(warp,))
        with pytest.raises(NonPositiveWarping):
            ps.metric_at(np.array((-0.5, 0.0, 0.0)))

    def test_singular_metric_rejected(self):
        zero = fe.num(0.0)
        block = diagonal_block("base", ("x",), (zero,), ((-1.0, 1.0),))
        ps = ProductStructure(base=block)
        with pytest.raises(SingularMetric):
            ps.metric_at(np.array((0.2,)))

    def test_singular_block_names_block_and_point(self):
        # g.t.t = (t - 0.25)^2 is singular at t = 0.25 only
        block = diagonal_block("base", ("t",), (fe.parse_expr("(t - 0.25)^2", ("t",)),),
                               ((-1.0, 1.0),))
        ps = ProductStructure(base=block, fibers=(flat2(),), warps=(ONE,))
        with pytest.raises(SingularMetric, match=r"block base \(det=0\.0\) at \(t=0\.25, "):
            ps.metric_at(np.array((0.25, 0.0, 0.0)))
        with pytest.raises(SingularMetric, match=r"block base \(det=0\.0\) at \(t=0\.25, "):
            ps.metric_jet([np.array((0.5, 0.0, 0.0)), np.array((0.25, 0.1, 0.2))])

    @pytest.mark.parametrize("build", ["metric_at", "metric_jet"])
    def test_overflowing_warp_names_point_and_expression(self, build):
        # exp(t) is finite at t = 600, its square is not
        ps = grw("exp(t)", (0.0, 1000.0))
        pts = [np.array((1.0, 0.0, 0.0)), np.array((600.0, 0.5, 0.0))]
        with np.errstate(all="raise"):
            with pytest.raises(DomainError, match=r"^overflow at \(t=600\.0, x=0\.5, "
                                                  r"y=0\.0\) in exp\(t\)\^2\*1$"):
                if build == "metric_at":
                    ps.metric_at(pts[1])
                else:
                    ps.metric_jet(pts)

    @pytest.mark.parametrize("build", ["structure", "geometry"])
    def test_overflowing_fiber_entry_names_chart_point_and_entry(self, build):
        # exp(x) and exp(t)^2 are finite at the second point, their product
        # is not; the first point is the chart centre, where both are small
        fiber = diagonal_block("fiber.1", ("x", "y"), (fe.parse_expr("exp(x)", ("x", "y")), ONE),
                               ((-1000.0, 1000.0), (-1.0, 1.0)))
        ps = ProductStructure(base=interval(-1.0, (0.0, 200.0)), fibers=(fiber,),
                              warps=(fe.parse_expr("exp(t)", ("t",)),))
        pts = np.array([(100.0, 0.0, 0.0), (150.0, 600.0, 0.5)])
        with np.errstate(all="raise"):
            with pytest.raises(DomainError, match=r"^overflow at \(t=150\.0, x=600\.0, "
                                                  r"y=0\.5\) in exp\(t\)\^2\*exp\(x\)$"):
                if build == "structure":
                    ps.metric_jet(pts)
                else:
                    Geometry(ps, None, pts).metric_jet()

    def test_signature_of_product(self):
        ps = grw()
        assert signature(ps, np.array((0.1, 0.0, 0.0))) == (-1, 1, 1)

    def test_duplicate_coordinates_rejected(self):
        from warpfield.metric import GeometryError

        with pytest.raises(GeometryError):
            ProductStructure(base=interval(),
                             fibers=(diagonal_block("f", ("t",), (ONE,),
                                                    ((-1, 1),)),),
                             warps=(ONE,))

    @pytest.mark.parametrize("points", [np.zeros((4, 2)), np.zeros((4, 4)), np.zeros(3)],
                             ids=["narrow", "wide", "bare-row"])
    def test_sample_set_width_checked(self, points):
        # a sample set is an (S, 3) array on this chart, one point per row
        ps = grw()
        with pytest.raises(DimensionMismatch, match="rows of 3 coordinates"):
            Geometry(ps, None, points)
        with pytest.raises(DimensionMismatch, match="rows of 3 coordinates"):
            ps.metric_jet(points)


class TestMetricJet:
    def test_exponential_warp_derivative(self):
        # g_xx = e^{2t}: d_t g_xx = 2 at t = 0
        ps = grw()
        mj = metric_row(ps.metric_jet([np.array((0.0, 0.2, -0.1))]), 0)
        assert mj.dg[0, 1, 1] == pytest.approx(2.0, abs=1e-12)

    def test_constant_blocks_have_zero_derivatives(self):
        ps = ProductStructure(base=interval(), fibers=(flat2(),), warps=(ONE,))
        mj = metric_row(ps.metric_jet([np.array((1.0, 0.3, 0.4))]), 0)
        assert not mj.dg.any()
        assert not mj.d2g.any()

    def test_power_law_fiber_derivative(self):
        # f = phi^p with phi = t, p = 2: d_t g_xx = 2 p phi^{2p-1} phi'
        warp = fe.parse_expr("t^2", ("t",))
        ps = ProductStructure(base=interval(1.0, (0.5, 4.0)), fibers=(flat2(),),
                              warps=(warp,))
        t = 1.3
        mj = metric_row(ps.metric_jet([np.array((t, 0.1, 0.2))]), 0)
        assert mj.dg[0, 1, 1] == pytest.approx(4.0 * t ** 3, rel=1e-12)

    def test_jets_match_finite_differences(self):
        ps = grw()
        rng = SplitMix(11)
        for p in sample_points(ps, 8, rng):
            mj = metric_row(ps.metric_jet([p]), 0)
            for i in range(3):
                for j in range(3):
                    fd = fd_jet(lambda q, i=i, j=j: ps.metric_at(q).g[i, j], p)
                    gtol = 1e-6 * (1.0 + np.max(np.abs(mj.dg[:, i, j])))
                    htol = 1e-4 * (1.0 + np.max(np.abs(mj.d2g[:, :, i, j])))
                    assert np.max(np.abs(mj.dg[:, i, j] - fd.grad)) <= gtol
                    assert np.max(np.abs(mj.d2g[:, :, i, j] - fd.hess)) <= htol

    def test_inverse_derivative_identity(self):
        # d(g^{-1}) = -g^{-1} dg g^{-1}
        ps = grw()
        p = np.array((0.2, 0.1, -0.3))
        mj = metric_row(ps.metric_jet([p]), 0)
        for d in range(3):
            expected = -mj.ginv @ mj.dg[d] @ mj.ginv
            assert np.allclose(mj.dginv[d], expected, atol=1e-12)


def wide_manifests():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "widechart.py"
    spec = importlib.util.spec_from_file_location("widechart", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [parse_manifest(module.wide_manifest(1, i), f"wide{i}") for i in range(2)]


CHARTS = [load_manifest(p) for p in sorted(corpus_dir().glob("*.wm"))] + wide_manifests()


def entry_directions(ps: ProductStructure) -> np.ndarray:
    """inside[d, i, j]: entries i and j share a block, and d is one of its
    coordinates or, for a fiber, of the base's."""
    n = ps.total_dim
    inside = np.zeros((n, n, n), dtype=bool)
    for k, sl in enumerate(ps.slices):
        inside[sl, sl, sl] = True
        if k:
            inside[ps.slices[0], sl, sl] = True
    return inside


class TestBlockWalk:
    """Each block is walked in its own coordinates and w^2 g_F is put
    together block by block; the whole-chart walk of
    ``oracles.metric_jet_full`` is the reference.  The sign of an in-block
    zero is not pinned: the chart walk picks up -0 from a warp's partials
    in the fibers' directions."""

    @pytest.mark.parametrize("samples", [1, 16])
    @pytest.mark.parametrize("mf", CHARTS, ids=[mf.name for mf in CHARTS])
    def test_equals_the_whole_chart_walk(self, mf, samples):
        points = RunContext(mf, samples=samples).points()
        got = mf.structure.metric_jet(points)
        ref = metric_jet_full(mf.structure, points)
        for name in ("g", "dg", "d2g", "ginv"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name

    @pytest.mark.parametrize("samples", [1, 16])
    @pytest.mark.parametrize("mf", CHARTS, ids=[mf.name for mf in CHARTS])
    def test_entries_outside_the_blocks_are_plus_zero(self, mf, samples):
        ps = mf.structure
        mj = ps.metric_jet(RunContext(mf, samples=samples).points())
        inside = entry_directions(ps)
        same_block = inside.any(axis=0)
        outside = [(mj.g, ~same_block), (mj.ginv, ~same_block), (mj.dg, ~inside),
                   (mj.d2g, ~(inside[:, None] & inside[None, :]))]
        for a, off in outside:
            assert not a[:, off].any() and not np.signbit(a[:, off]).any()


class TestWarpJets:
    """``Geometry.warp_jet`` embeds the warp jets of the metric walk, taken
    in the base's coordinates, at chart width; the walk in the whole
    chart's ``jet_env`` (``oracles.warp_jet_full``) is the reference."""

    @pytest.mark.parametrize("samples", [1, 16])
    @pytest.mark.parametrize("mf", CHARTS, ids=[mf.name for mf in CHARTS])
    def test_equals_the_whole_chart_walk(self, mf, samples):
        geom = RunContext(mf, samples=samples).geom
        for i in range(mf.fiber_count):
            got, ref = geom.warp_jet(i), warp_jet_full(geom, i)
            for name in ("value", "grad", "hess"):
                assert np.array_equal(getattr(got, name), getattr(ref, name)), (i, name)


class TestInnerAndGrad:
    def test_lorentzian_inner(self):
        ps = grw()
        m = ps.metric_at(np.array((0.0, 0.0, 0.0)))
        dt = np.array([1.0, 0.0, 0.0])
        assert inner(m, dt, dt) == -1.0

    def test_inner_with_zero(self):
        ps = grw()
        m = ps.metric_at(np.array((0.0, 0.0, 0.0)))
        assert inner(m, np.array([0.3, -0.2, 0.5]), np.zeros(3)) == 0.0

    def test_warped_fiber_inner(self):
        ps = grw(box=(-0.5, 1.5))
        m = ps.metric_at(np.array((1.0, 0.0, 0.0)))
        dx = np.array([0.0, 1.0, 0.0])
        assert inner(m, dx, dx) == pytest.approx(math.e ** 2, rel=1e-12)

    def test_inner_symmetric_and_dim_checked(self):
        ps = grw()
        m = ps.metric_at(np.array((0.1, 0.2, 0.3)))
        rng = SplitMix(3)
        x = np.array(rng.vector(3))
        y = np.array(rng.vector(3))
        assert inner(m, x, y) == inner(m, y, x)
        with pytest.raises(DimensionMismatch):
            inner(m, np.zeros(2), np.zeros(3))

    def test_euclidean_gradient(self):
        ps = ProductStructure(base=interval(1.0))
        g = grad_scalar(ps, np.array((0.7,)), fe.parse_expr("t", ("t",)))
        assert np.allclose(g, [1.0])

    def test_lorentzian_gradient_sign(self):
        ps = ProductStructure(base=interval(-1.0))
        g = grad_scalar(ps, np.array((0.7,)), fe.parse_expr("t", ("t",)))
        assert np.allclose(g, [-1.0])

    def test_constant_gradient_vanishes(self):
        ps = ProductStructure(base=interval(1.0))
        g = grad_scalar(ps, np.array((0.7,)), fe.num(5.0))
        assert not g.any()


class TestDivergence:
    def setup_method(self):
        self.geom = Geometry(ProductStructure(base=flat2("base", ("x", "y"))), None,
                             [np.array((0.3, 0.4))])

    def test_coordinate_divergence(self):
        v = lift(VectorFieldDef("base", (fe.parse_expr("x", ("x", "y")),
                                         fe.num(0.0))))
        assert divergence(self.geom, v)[0] == pytest.approx(1.0)

    def test_rotation_is_divergence_free(self):
        v = lift(VectorFieldDef("base", (fe.parse_expr("-y", ("x", "y")),
                                         fe.parse_expr("x", ("x", "y")))))
        assert divergence(self.geom, v)[0] == pytest.approx(0.0)

    def test_dilation_divergence(self):
        v = lift(VectorFieldDef("base", (fe.parse_expr("x", ("x", "y")),
                                         fe.parse_expr("y", ("x", "y")))))
        p = self.geom.points[0]
        assert divergence(self.geom, v)[0] == pytest.approx(2.0)
        # cross-check against central differences of the component functions
        fd0 = fd_jet(lambda q: q[0], p)
        fd1 = fd_jet(lambda q: q[1], p)
        assert fd0.grad[0] + fd1.grad[1] == pytest.approx(2.0, abs=1e-9)


class TestSampling:
    def test_points_stay_in_inset_box(self):
        ps = grw()
        pts = sample_points(ps, 64, SplitMix(5))
        for p in pts:
            for v, (lo, hi) in zip(p, ps.box):
                width = hi - lo
                assert lo + 0.1 * width <= v <= lo + 0.9 * width

    def test_exclusions_respected(self):
        ps = ProductStructure(base=interval(1.0))
        pts = sample_points(ps, 200, SplitMix(5), {"t": [(0.4, 0.6)]})
        assert all(not (0.4 <= p[0] <= 0.6) for p in pts)

    def test_deterministic(self):
        ps = grw()
        a = sample_points(ps, 16, SplitMix(9))
        b = sample_points(ps, 16, SplitMix(9))
        assert np.array_equal(a, b)
