import math

import numpy as np
import pytest

from oracles import compat_residual, lie_bracket, one_point, torsion_of
from warpfield import fieldexpr as fe
from warpfield.connections import (
    LEVI_CIVITA,
    SEMI_SYMMETRIC,
    Geometry,
    TorsionSpec,
    covariant_derivative,
)
from warpfield.fields import VectorFieldDef, lift
from warpfield.metric import BlockMetric, ProductStructure, diagonal_block, sample_points
from warpfield.sampling import SplitMix

ONE = fe.num(1.0)
NEG = fe.num(-1.0)


def flat(coords=("x", "y")):
    d = len(coords)
    box = tuple((-1.0, 1.0) for _ in coords)
    return diagonal_block("base", coords, tuple(ONE for _ in coords), box)


def sphere():
    g_pp = fe.parse_expr("sin(theta)^2", ("theta",))
    return BlockMetric("base", ("theta", "phi"),
                       ((ONE, fe.num(0.0)), (fe.num(0.0), g_pp)),
                       ((0.3, 2.8), (0.2, 6.0)))


def grw(warp="exp(t)"):
    base = diagonal_block("base", ("t",), (NEG,), ((-0.75, 0.75),))
    fib = diagonal_block("fiber.1", ("x", "y"), (ONE, ONE),
                         ((-1.0, 1.0), (-1.0, 1.0)))
    return ProductStructure(base=base, fibers=(fib,),
                            warps=(fe.parse_expr(warp, ("t",)),))


def basis(n, k):
    e = np.zeros(n)
    e[k] = 1.0
    return e


class TestChristoffel:
    def test_flat_space_vanishes(self):
        geom = Geometry(ProductStructure(base=flat(("x", "y", "z"))), None,
                        [(0.1, 0.2, 0.3)])
        assert not geom.christoffel()[0].any()

    def test_warped_product_symbol(self):
        geom = Geometry(grw(), None, [(0.4, 0.1, -0.2)])
        gam = geom.christoffel()[0]
        # Gamma^x_{tx} = f'/f = 1 for f = e^t
        assert gam[1, 0, 1] == pytest.approx(1.0, abs=1e-12)
        assert gam[1, 1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_sphere_symbol(self):
        thetas = np.linspace(0.5, 2.5, 16)
        geom = Geometry(ProductStructure(base=sphere()), None,
                        [(theta, 1.0) for theta in thetas])
        for theta, gam in zip(thetas, geom.christoffel()):
            assert gam[0, 1, 1] == pytest.approx(-math.sin(theta) * math.cos(theta),
                                                 abs=1e-10)

    def test_levi_civita_symmetric(self):
        geom = Geometry(grw(), None, [(0.3, 0.5, -0.4)])
        gam = geom.christoffel()[0]
        assert np.allclose(gam, np.transpose(gam, (0, 2, 1)), atol=1e-14)


class TestShiftedConnection:
    def test_zero_shift_equals_levi_civita(self):
        geom = Geometry(grw(), TorsionSpec.zero(), [(0.2, 0.1, 0.3)])
        assert np.array_equal(geom.ssm_gamma(), geom.christoffel())

    def test_flat_plane_shift_symbols(self):
        ps = ProductStructure(base=flat())
        ts = TorsionSpec("base", VectorFieldDef("base", (ONE, fe.num(0.0))))
        geom = Geometry(ps, ts, [(0.2, -0.4)])
        sg = geom.ssm_gamma()[0]
        assert sg[1, 1, 0] == pytest.approx(1.0)   # shifted y-y-x symbol
        assert sg[0, 1, 1] == pytest.approx(-1.0)  # shifted x-y-y symbol

    def test_timelike_shift_offsets_symbol(self):
        ps = grw()
        ts = TorsionSpec("base", VectorFieldDef("base", (ONE,)))
        geom = Geometry(ps, ts, [(0.2, 0.1, 0.3)])
        delta = geom.ssm_gamma()[0, 1, 1, 0] - geom.christoffel()[0, 1, 1, 0]
        # the offset is the covector value g(dt, P) = -1
        assert delta == pytest.approx(-1.0, abs=1e-12)

    def test_torsion_field_on_wrong_block_rejected(self):
        with pytest.raises(ValueError):
            TorsionSpec("base", VectorFieldDef(0, (ONE,)))

    def test_fiber_index_validated(self):
        ps = grw()
        ts = TorsionSpec(3, VectorFieldDef(3, (ONE,)))
        with pytest.raises(Exception):
            Geometry(ps, ts, [])


class TestCovariantDerivative:
    def test_flat_constant_fields(self):
        geom = Geometry(ProductStructure(base=flat()), None, [(0.1, 0.2)])
        out = covariant_derivative(geom, basis(2, 0), basis(2, 1))[0]
        assert not out.any()

    def test_warped_mixed_derivative(self):
        # nabla_{dt} dx = (f'/f) dx = dx for f = e^t
        geom = Geometry(grw(), None, [(0.3, 0.1, 0.2)])
        out = covariant_derivative(geom, basis(3, 0), basis(3, 1))[0]
        assert np.allclose(out, [0.0, 1.0, 0.0], atol=1e-12)

    def test_shift_compensation(self):
        # with P = dt and f = e^t: shifted nabla_{dx} dt = (1 + g(dt,dt)) dx = 0
        ts = TorsionSpec("base", VectorFieldDef("base", (ONE,)))
        geom = Geometry(grw(), ts, [(0.3, 0.1, 0.2)])
        out = covariant_derivative(geom, basis(3, 1), basis(3, 0), SEMI_SYMMETRIC)[0]
        assert np.allclose(out, 0.0, atol=1e-12)


class TestTorsion:
    def setup_method(self):
        ts = TorsionSpec("base", VectorFieldDef("base", (ONE, fe.num(0.0))))
        self.p = (0.2, -0.3)
        self.geom = Geometry(ProductStructure(base=flat()), ts, [self.p])

    def test_levi_civita_torsion_free(self):
        rng = SplitMix(4)
        for _ in range(16):
            x = np.array(rng.vector(2))
            y = np.array(rng.vector(2))
            t = torsion_of(self.geom, x, y, self.p, kind=LEVI_CIVITA)
            assert np.max(np.abs(t)) <= 1e-14

    def test_two_term_form_basis(self):
        t = torsion_of(self.geom, basis(2, 0), basis(2, 1), self.p)
        assert np.allclose(t, [0.0, -1.0], atol=1e-14)

    def test_antisymmetry(self):
        x = np.array([0.4, -0.7])
        t = torsion_of(self.geom, x, x, self.p)
        assert not t.any()

    def test_two_term_form_random(self):
        rng = SplitMix(8)
        for _ in range(256):
            x = np.array(rng.vector(2))
            y = np.array(rng.vector(2))
            t = torsion_of(self.geom, x, y, self.p)
            expected = (self.geom.pi_of(y)[0] * x
                        - self.geom.pi_of(x)[0] * y)
            assert np.max(np.abs(t - expected)) <= 1e-12


class TestCompatibility:
    @pytest.mark.parametrize("kind", [LEVI_CIVITA, SEMI_SYMMETRIC])
    def test_metric_preserved(self, kind):
        ts = TorsionSpec("base", VectorFieldDef("base", (ONE,)))
        geom = Geometry(grw(), ts, [])
        rng = SplitMix(6)
        for p in sample_points(geom.ps, 8, rng):
            for _ in range(8):
                x = np.array(rng.vector(3))
                y = np.array(rng.vector(3))
                z = np.array(rng.vector(3))
                assert compat_residual(one_point(geom, p), x, y, z, kind=kind) <= 1e-8

    def test_corrupted_symbols_detected(self, monkeypatch):
        # a deliberate 1e-2 perturbation must push the residual above 1e-3
        ts = TorsionSpec("base", VectorFieldDef("base", (ONE,)))
        geom = Geometry(grw(), ts, [(0.2, 0.1, 0.3)])
        bad = geom.ssm_gamma().copy()
        bad[0, 1, 0, 1] += 1e-2
        monkeypatch.setattr(geom, "ssm_gamma", lambda: bad)
        rng = SplitMix(7)
        worst = 0.0
        for _ in range(32):
            x = np.array(rng.vector(3))
            y = np.array(rng.vector(3))
            z = np.array(rng.vector(3))
            worst = max(worst, compat_residual(geom, x, y, z))
        assert worst > 1e-3


class TestLieBracket:
    def test_constant_fields_commute(self):
        geom = Geometry(ProductStructure(base=flat()), None, [])
        assert not lie_bracket(geom, basis(2, 0), basis(2, 1),
                               (0.1, 0.2)).any()

    def test_textbook_bracket(self):
        # [dx, x dy] = dy
        geom = Geometry(ProductStructure(base=flat()), None, [])
        xy = lift(VectorFieldDef("base", (fe.num(0.0),
                                          fe.parse_expr("x", ("x", "y")))))
        out = lie_bracket(geom, basis(2, 0), xy, (0.4, -0.2))
        assert np.allclose(out, [0.0, 1.0], atol=1e-14)

    def test_scaling_field_bracket(self):
        # [u dt, dt] = -u' dt for u = (2t - 1)^{1/3}
        base = diagonal_block("base", ("t",), (ONE,), ((0.6, 1.8),))
        geom = Geometry(ProductStructure(base=base), None, [])
        u = lift(VectorFieldDef("base", (fe.parse_expr("cbrt(2*t - 1)", ("t",)),)))
        t = 1.1
        out = lie_bracket(geom, u, basis(1, 0), (t,))
        udot = (2.0 / 3.0) * (2.0 * t - 1.0) ** (-2.0 / 3.0)
        assert out[0] == pytest.approx(-udot, rel=1e-10)
