import math

import numpy as np
import pytest

from oracles import DegeneratePlane, sectional
from warpfield import fieldexpr as fe
from warpfield.connections import Geometry
from warpfield.curvature import (
    frame_of_matrix,
    parallel_residual,
    riemann,
    ricci_quadratic,
    trace_nabla,
)
from warpfield.fields import VectorFieldDef, lift
from warpfield.metric import BlockMetric, ProductStructure, diagonal_block, sample_points
from warpfield.sampling import SplitMix

ONE = fe.num(1.0)


def flat(coords=("x", "y")):
    box = tuple((-1.0, 1.0) for _ in coords)
    return diagonal_block("base", coords, tuple(ONE for _ in coords), box)


def sphere_structure():
    g_pp = fe.parse_expr("sin(theta)^2", ("theta",))
    block = BlockMetric("base", ("theta", "phi"),
                        ((ONE, fe.num(0.0)), (fe.num(0.0), g_pp)),
                        ((0.3, 2.8), (0.2, 6.0)))
    return ProductStructure(base=block)


class TestRiemann:
    def test_flat_space_is_flat(self):
        geom = Geometry(ProductStructure(base=flat(("x", "y", "z"))), None,
                        [(0.1, 0.2, 0.3)])
        curv = riemann(geom)
        assert np.max(np.abs(curv.r_low[0])) <= 1e-12
        assert np.max(np.abs(curv.ricci[0])) <= 1e-12

    def test_one_dimensional_chart_is_flat(self):
        base = diagonal_block("base", ("t",), (ONE,), ((0.25, 1.75),))
        geom = Geometry(ProductStructure(base=base), None, [(0.8,)])
        assert not riemann(geom).r_low[0].any()

    def test_sphere_components(self):
        thetas = np.linspace(0.5, 2.5, 16)
        geom = Geometry(sphere_structure(), None, [(theta, 1.3) for theta in thetas])
        for theta, r_low in zip(thetas, riemann(geom).r_low):
            assert r_low[0, 1, 1, 0] == pytest.approx(
                math.sin(theta) ** 2, abs=1e-9)

    def test_sphere_ricci(self):
        geom = Geometry(sphere_structure(), None, [(1.1, 2.0)])
        ricci = riemann(geom).ricci[0]
        assert ricci[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert ricci[1, 1] == pytest.approx(math.sin(1.1) ** 2, abs=1e-9)

    def test_symmetries_and_first_bianchi(self):
        base = diagonal_block("base", ("t",), (fe.num(-1.0),), ((-0.75, 0.75),))
        fib = sphere_structure().base
        fib2 = BlockMetric("fiber.1", fib.coords, fib.entries, fib.box)
        ps = ProductStructure(base=base, fibers=(fib2,),
                              warps=(fe.parse_expr("exp(t)", ("t",)),))
        geom = Geometry(ps, None, sample_points(ps, 8, SplitMix(13)))
        for r in riemann(geom).r_low:
            assert np.max(np.abs(r + np.einsum("jikl->ijkl", r))) <= 1e-8
            assert np.max(np.abs(r + np.einsum("ijlk->ijkl", r))) <= 1e-8
            assert np.max(np.abs(r - np.einsum("klij->ijkl", r))) <= 1e-8
            bianchi = r + np.einsum("jkil->ijkl", r) + np.einsum("kijl->ijkl", r)
            assert np.max(np.abs(bianchi)) <= 1e-8


class TestSectional:
    def test_unit_sphere(self):
        geom = Geometry(sphere_structure(), None, [])
        k = sectional(geom, (1.2, 0.8),
                      np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert k == pytest.approx(1.0, abs=1e-9)

    def test_flat_torus(self):
        geom = Geometry(ProductStructure(base=flat()), None, [])
        k = sectional(geom, (0.2, 0.4),
                      np.array([1.0, 0.3]), np.array([-0.2, 1.0]))
        assert k == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_plane_rejected(self):
        geom = Geometry(ProductStructure(base=flat()), None, [])
        v = np.array([1.0, 0.5])
        with pytest.raises(DegeneratePlane):
            sectional(geom, (0.2, 0.4), v, 2.0 * v)


class TestFrames:
    def test_euclidean_identity_frame(self):
        frame, eps = frame_of_matrix(np.eye(3))
        assert np.array_equal(frame, np.eye(3))
        assert np.array_equal(eps, np.ones(3))

    def test_lorentzian_signs(self):
        frame, eps = frame_of_matrix(np.diag([-1.0, 1.0]))
        assert list(eps) == [-1.0, 1.0]

    def test_frame_orthonormality(self):
        g = np.array([[2.0, 0.3], [0.3, 1.5]])
        frame, eps = frame_of_matrix(g)
        gram = frame @ g @ frame.T
        assert np.allclose(gram, np.diag(eps), atol=1e-12)

    def test_null_direction_rejected(self):
        from warpfield.curvature import FrameConstructionFailure

        with pytest.raises(FrameConstructionFailure):
            frame_of_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestParallelAndTrace:
    def test_constant_field_is_parallel(self):
        geom = Geometry(ProductStructure(base=flat()), None, [(0.2, 0.4)])
        zeta = lift(VectorFieldDef("base", (ONE, fe.num(0.0))))
        assert parallel_residual(geom, zeta)[0] == 0.0

    def test_constant_interval_field_is_parallel(self):
        base = diagonal_block("base", ("t",), (ONE,), ((0.25, 1.75),))
        geom = Geometry(ProductStructure(base=base), None, [(0.7,)])
        zeta = lift(VectorFieldDef("base", (fe.num(1.5),)))
        assert parallel_residual(geom, zeta)[0] == 0.0

    def test_rotation_is_not_parallel(self):
        geom = Geometry(ProductStructure(base=flat()), None, [(0.2, 0.4)])
        rot = lift(VectorFieldDef("base", (fe.parse_expr("-y", ("x", "y")),
                                           fe.parse_expr("x", ("x", "y")))))
        assert parallel_residual(geom, rot)[0] == pytest.approx(1.0)

    def test_trace_of_scaling_field(self):
        # nabla(t dt) = dt on the unit interval: trace 1
        base = diagonal_block("base", ("t",), (ONE,), ((0.25, 1.75),))
        geom = Geometry(ProductStructure(base=base), None, [(0.7,)])
        zeta = lift(VectorFieldDef("base", (fe.parse_expr("t", ("t",)),)))
        assert trace_nabla(geom, zeta)[0] == pytest.approx(1.0)

    def test_trace_of_parallel_field_vanishes(self):
        geom = Geometry(ProductStructure(base=flat()), None, [(0.2, 0.4)])
        zeta = lift(VectorFieldDef("base", (ONE, fe.num(0.0))))
        assert trace_nabla(geom, zeta)[0] == 0.0


class TestRicciQuadratic:
    def test_flat(self):
        geom = Geometry(ProductStructure(base=flat()), None, [(0.1, 0.2)])
        zeta = np.array([0.3, -0.7])
        assert ricci_quadratic(geom, zeta)[0] == pytest.approx(0.0)

    def test_sphere_polar_direction(self):
        geom = Geometry(sphere_structure(), None, [(1.1, 2.0)])
        assert ricci_quadratic(geom, np.array([1.0, 0.0]))[0] == \
            pytest.approx(1.0, abs=1e-9)

    def test_flat_product_with_constant_warp(self):
        base = flat(("x", "y"))
        fib = diagonal_block("fiber.1", ("u", "v"), (ONE, ONE),
                             ((-1.0, 1.0), (-1.0, 1.0)))
        ps = ProductStructure(base=base, fibers=(fib,), warps=(fe.num(2.0),))
        geom = Geometry(ps, None, [(0.1, 0.2, 0.3, 0.4)])
        rng = SplitMix(2)
        z = np.array(rng.vector(4))
        assert ricci_quadratic(geom, z)[0] == \
            pytest.approx(0.0, abs=1e-12)
