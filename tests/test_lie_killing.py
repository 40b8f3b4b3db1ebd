import numpy as np
import pytest

from oracles import one_point
from warpfield import fieldexpr as fe
from warpfield.connections import (
    LEVI_CIVITA,
    SEMI_SYMMETRIC,
    Geometry,
    TorsionSpec,
    covariant_derivative,
)
from warpfield.fields import ProductField, VectorFieldDef, lift
from warpfield.lie_killing import (
    eq22_residual,
    homothety_check,
    length_gradient,
    lie_lie_matrix,
    lie_lie_matrix_nested,
    lie_matrix,
    lie_matrix_direct,
    max_abs,
    ssm_lie_matrix,
)
from warpfield.metric import ProductStructure, diagonal_block, sample_points
from warpfield.sampling import SplitMix
from warpfield.suite import PASS, residual_outcome

ONE = fe.num(1.0)


def interval(sign=1.0, box=(0.25, 1.75)):
    return ProductStructure(
        base=diagonal_block("base", ("t",), (fe.num(sign),), (box,)))


def plane():
    return ProductStructure(
        base=diagonal_block("base", ("x", "y"), (ONE, ONE),
                            ((-1.0, 1.0), (-1.0, 1.0))))


def base_field(*srcs, coords=("t",)):
    return lift(VectorFieldDef("base",
                               tuple(fe.parse_expr(s, coords) for s in srcs)))


ROT = ("-y", "x")
DIL = ("x", "y")


def killing_outcome(geom, zeta, kind=LEVI_CIVITA, tol=1e-8):
    """The `warpfield killing` residual: max |L_zeta g| per sample point."""
    return residual_outcome([max_abs(m) for m in lie_matrix(geom, zeta, kind)], tol)


def two_killing_outcome(geom, zeta, tol=1e-7):
    return residual_outcome([max_abs(m) for m in lie_lie_matrix(geom, zeta)], tol)


def sampled(ps, seed, count, torsion=None):
    """ps's geometry over ``count`` sample points."""
    return Geometry(ps, torsion, sample_points(ps, count, SplitMix(seed)))


def at_point(ps, *coords, torsion=None):
    """ps's geometry over the one point ``coords``."""
    return Geometry(ps, torsion, [coords])


class TestLieMetric:
    def test_constant_field_on_interval(self):
        geom = at_point(interval(), 0.8)
        zeta = base_field("1.5")
        assert np.max(np.abs(lie_matrix(geom, zeta)[0])) == 0.0

    def test_scaling_field_homothety_factor(self):
        geom = at_point(interval(), 0.8)
        zeta = base_field("t")
        m = lie_matrix(geom, zeta)[0]
        assert m[0, 0] == pytest.approx(2.0)

    def test_rotation_on_plane(self):
        geom = sampled(plane(), 3, 8)
        zeta = base_field(*ROT, coords=("x", "y"))
        for m in lie_matrix(geom, zeta):
            assert np.max(np.abs(m)) <= 1e-12

    def test_connection_route_matches_coordinate_route(self):
        geom = sampled(plane(), 4, 16)
        zeta = base_field("x^2 - y", "x*y", coords=("x", "y"))
        for a, b in zip(lie_matrix(geom, zeta), lie_matrix_direct(geom, zeta)):
            assert np.max(np.abs(a - b)) <= 1e-7

    def test_symmetry(self):
        geom = at_point(plane(), 0.3, -0.4)
        zeta = base_field("x^2 - y", "x*y", coords=("x", "y"))
        m = lie_matrix(geom, zeta)[0]
        assert np.max(np.abs(m - m.T)) <= 1e-12


class TestShiftedLieMetric:
    def test_zero_shift_reduces_exactly(self):
        geom = at_point(interval(), 0.8, torsion=TorsionSpec.zero())
        zeta = base_field("t^2")
        assert np.array_equal(ssm_lie_matrix(geom, zeta), lie_matrix(geom, zeta))

    def test_interval_regime_equivalence(self):
        # on a 1-D chart the shifted and unshifted verdicts coincide
        ts = TorsionSpec("base", VectorFieldDef("base", (ONE,)))
        geom = sampled(interval(), 5, 16, ts)
        good = base_field("1.5")
        bad = base_field("t")
        assert killing_outcome(geom, good, SEMI_SYMMETRIC).verdict == PASS
        assert killing_outcome(geom, good).verdict == PASS
        assert killing_outcome(geom, bad, SEMI_SYMMETRIC).verdict != PASS
        assert killing_outcome(geom, bad).verdict != PASS

    def test_grw_orthogonal_regime(self):
        # f = e^t with P = dt: the constant timelike field plus a fiber
        # rotation annihilates the shifted quadratic form along
        # rotation-orthogonal fiber directions
        base = diagonal_block("base", ("t",), (fe.num(-1.0),), ((-0.75, 0.75),))
        fib = diagonal_block("fiber.1", ("x", "y"), (ONE, ONE),
                             ((-1.0, 1.0), (-1.0, 1.0)))
        ps = ProductStructure(base=base, fibers=(fib,),
                              warps=(fe.parse_expr("exp(t)", ("t",)),))
        ts = TorsionSpec("base", VectorFieldDef("base", (ONE,)))
        geom = Geometry(ps, ts, [])
        zeta = ProductField((
            VectorFieldDef("base", (ONE,)),
            VectorFieldDef(0, (fe.parse_expr("-y", ("x", "y")),
                               fe.parse_expr("x", ("x", "y")))),
        ))
        rng = SplitMix(6)
        g0 = Geometry(ps.block_structure(0), None, [])
        for p in sample_points(ps, 16, rng):
            at_p = one_point(geom, p)
            rotv = at_p.field_values(zeta)[0, 1:]
            for u in (1.0, -1.0, 2.0):
                raw = np.array(rng.vector(2))
                gi = one_point(g0, p[ps.block_slice(0)]).metric_jet().g[0]
                coef = float(raw @ gi @ rotv) / float(rotv @ gi @ rotv)
                x2 = raw - coef * rotv
                x = np.concatenate(([u], x2))
                w = at_p.metric_jet().g[0] @ x
                q = covariant_derivative(at_p, x, zeta, SEMI_SYMMETRIC)[0] @ w
                assert abs(q) <= 1e-9


class TestKillingOutcomes:
    def test_constant_field_passes(self):
        ts = TorsionSpec("base", VectorFieldDef("base", (ONE,)))
        geom = sampled(interval(), 7, 64, ts)
        res = killing_outcome(geom, base_field("1.5"))
        assert res.verdict == PASS and res.samples == 64

    def test_scaling_field_fails_with_known_residual(self):
        geom = sampled(interval(), 8, 64)
        res = killing_outcome(geom, base_field("t"))
        assert res.verdict != PASS
        assert res.max_abs == pytest.approx(2.0, abs=1e-12)

    def test_quadratic_form_consistency(self):
        geom = sampled(plane(), 9, 16)
        rot = base_field(*ROT, coords=("x", "y"))
        dil = base_field(*DIL, coords=("x", "y"))

        def quadratic_form_max(zeta, rng):
            # max |g(nabla_x zeta, x)| = max |x (L_zeta g) x| / 2 over draws
            return max_abs(0.5 * float(x @ m @ x)
                           for m in lie_matrix(geom, zeta)
                           for x in (np.array(rng.vector(2)) for _ in range(32)))

        assert quadratic_form_max(rot, SplitMix(10)) <= 1e-9
        assert quadratic_form_max(dil, SplitMix(11)) > 1e-3


class TestSecondLie:
    def test_killing_field_is_second_order(self):
        geom = sampled(plane(), 12, 8)
        rot = base_field(*ROT, coords=("x", "y"))
        for m in lie_lie_matrix(geom, rot):
            assert np.max(np.abs(m)) <= 1e-12

    def test_cbrt_field_on_interval(self):
        geom = sampled(interval(), 13, 32)
        zeta = base_field("cbrt(t)")
        for m in lie_lie_matrix(geom, zeta):
            assert np.max(np.abs(m)) <= 1e-7

    def test_square_field_value(self):
        # u = t^2: the double derivative evaluates to 2u u'' + 4 u'^2 = 20 t^2
        t = 0.8
        geom = at_point(interval(), t)
        zeta = base_field("t^2")
        m = lie_lie_matrix(geom, zeta)[0]
        assert m[0, 0] == pytest.approx(20.0 * t * t, rel=1e-12)

    def test_nested_route_matches(self):
        geom = sampled(plane(), 14, 16)
        zeta = base_field("x^2 - 0.3*y", "x*y + 0.2", coords=("x", "y"))
        for a, b in zip(lie_lie_matrix(geom, zeta), lie_lie_matrix_nested(geom, zeta)):
            assert np.max(np.abs(a - b)) <= 1e-7

    def test_two_killing_residual_verdicts(self):
        geom = sampled(interval(), 15, 64)
        assert two_killing_outcome(geom, base_field("cbrt(t)")).verdict == PASS
        bad = two_killing_outcome(geom, base_field("t^2"))
        assert bad.verdict != PASS and bad.max_abs >= 1e-1


def lie_matrices(geom, comps):
    """L g of a plane field at every sample point of geom."""
    return lie_matrix(geom, base_field(*comps, coords=("x", "y")))


class TestHomothety:
    def test_dilation_factor_two(self):
        geom = sampled(plane(), 16, 32)
        res = homothety_check(geom, lie_matrices(geom, DIL))
        assert res.homothetic
        assert res.factor == pytest.approx(2.0, abs=1e-12)

    def test_killing_field_factor_zero(self):
        geom = sampled(plane(), 17, 32)
        res = homothety_check(geom, lie_matrices(geom, ROT))
        assert res.homothetic
        assert res.factor == pytest.approx(0.0, abs=1e-12)

    def test_shear_not_homothetic(self):
        geom = sampled(plane(), 18, 32)
        res = homothety_check(geom, lie_matrices(geom, ("x^2", "0")))
        assert not res.homothetic


class TestCurvatureCoupling:
    def test_constant_field_balances(self):
        geom = sampled(plane(), 19, 8)
        zeta = base_field("1", "0", coords=("x", "y"))
        for gaps in eq22_residual(geom, zeta, [np.array([0.7, -0.4])]):
            assert max(gaps) <= 1e-12

    def test_cbrt_field_balances(self):
        geom = sampled(interval(), 20, 16)
        zeta = base_field("cbrt(t)")
        for gaps in eq22_residual(geom, zeta, [np.array([1.0])]):
            assert max(gaps) <= 1e-7

    def test_rotation_balances_despite_varying_length(self):
        # any first-order isometry satisfies the balance
        geom = sampled(plane(), 21, 8)
        rot = base_field(*ROT, coords=("x", "y"))
        for gaps in eq22_residual(geom, rot, [np.array([0.3, 0.9])]):
            assert max(gaps) <= 1e-9

    def test_square_field_unbalanced(self):
        geom = sampled(interval(box=(0.5, 1.5)), 22, 16)
        zeta = base_field("t^2")
        worst = max(max(gaps) for gaps in eq22_residual(geom, zeta, [np.array([1.0])]))
        assert worst > 1e-2

    def test_constant_length_detector(self):
        geom = sampled(plane(), 23, 16)
        const = base_field("1", "0", coords=("x", "y"))
        rot = base_field(*ROT, coords=("x", "y"))
        assert max_abs(length_gradient(geom, const)) <= 1e-12
        assert max_abs(length_gradient(geom, rot)) > 1e-3

    @pytest.mark.parametrize("count", [1, 2, 16])
    def test_length_gradient_is_pointwise(self, count):
        # |rot|^2 = x^2 + y^2 has gradient 2 (x, y): seen at one point too,
        # where a spread over the sample set is 0
        geom = sampled(plane(), 24, count)
        rot = base_field(*ROT, coords=("x", "y"))
        assert np.allclose(length_gradient(geom, rot), 2.0 * geom.points, atol=1e-14)
        assert max_abs(length_gradient(geom, rot)) > 1e-3

    def test_length_gradient_reads_the_metric_partials(self):
        # on the interval with g = t, zeta = t^-1/2 d_t has g(zeta, zeta) = 1
        ps = ProductStructure(base=diagonal_block("base", ("t",), (fe.parse_expr("t", ("t",)),),
                                                  ((0.25, 1.75),)))
        geom = sampled(ps, 25, 1)
        assert max_abs(length_gradient(geom, base_field("t^(-0.5)"))) <= 1e-12
        assert max_abs(length_gradient(geom, base_field("1"))) > 0.5
