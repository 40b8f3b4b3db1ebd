import math

import numpy as np
import pytest

from conftest import EXPR_CORPUS, corpus_points
from oracles import fd_jet, seed
from warpfield import jets
from warpfield.fieldexpr import eval_expr, parse_expr
from warpfield.jets import DomainError, Jet2


def jet_env(names, values):
    p = tuple(values)
    return {name: seed(p, k) for k, name in enumerate(names)}


class TestSeeds:
    def test_seed_two_coords(self):
        j = seed((2.0, 3.0), 0)
        assert j.value == 2.0
        assert np.array_equal(j.grad, [1.0, 0.0])
        assert not j.hess.any()

    def test_seed_single_coord(self):
        j = seed((0.5,), 0)
        assert j.value == 0.5
        assert np.array_equal(j.grad, [1.0])
        assert j.hess == np.zeros((1, 1))

    def test_seed_last_coord(self):
        j = seed((1.0, 2.0, 3.0), 2)
        assert j.value == 3.0
        assert np.array_equal(j.grad, [0.0, 0.0, 1.0])
        assert not j.hess.any()

    def test_seed_index_out_of_range(self):
        with pytest.raises(IndexError):
            seed((1.0, 2.0), 2)


class TestArithmetic:
    def test_product_rule_on_seeds(self):
        p = (2.0, 3.0)
        x, y = seed(p, 0), seed(p, 1)
        j = x * y
        assert j.value == 6.0
        assert np.array_equal(j.grad, [3.0, 2.0])
        assert np.array_equal(j.hess, [[0.0, 1.0], [1.0, 0.0]])

    def test_square(self):
        x = seed((3.0,), 0)
        j = x ** 2
        assert j.value == 9.0
        assert j.grad[0] == 6.0
        assert j.hess[0, 0] == 2.0

    def test_self_division_is_one(self):
        x = seed((5.0,), 0)
        j = x / x
        assert j.value == 1.0
        assert abs(j.grad[0]) == 0.0
        assert abs(j.hess[0, 0]) == 0.0

    def test_division_by_zero_value(self):
        x = seed((0.0,), 0)
        with pytest.raises(ZeroDivisionError):
            (x + 1.0) / x

    def test_noninteger_power_domain(self):
        x = seed((-1.0,), 0)
        with pytest.raises(DomainError):
            x ** 0.5

    def test_scalar_mixing(self):
        x = seed((2.0,), 0)
        j = 3.0 * x - 1.0 + x / 2.0
        assert j.value == 3.0 * 2.0 - 1.0 + 1.0
        assert j.grad[0] == 3.5

    def test_quadratic_polynomial_is_exact(self):
        # degree <= 2 must match the symbolic expansion with zero residual
        p = (1.25, -0.75)
        x, y = seed(p, 0), seed(p, 1)
        j = 3.0 + 2.0 * x - y + x * x + 4.0 * x * y + 5.0 * y * y
        xv, yv = p
        assert j.value == 3.0 + 2.0 * xv - yv + xv * xv + 4.0 * xv * yv + 5.0 * yv * yv
        assert j.grad[0] == 2.0 + 2.0 * xv + 4.0 * yv
        assert j.grad[1] == -1.0 + 4.0 * xv + 10.0 * yv
        assert np.array_equal(j.hess, [[2.0, 4.0], [4.0, 10.0]])


class TestFunctions:
    def test_exp_jet(self):
        t = seed((0.0,), 0)
        j = jets.exp(t)
        assert j.value == 1.0
        assert j.grad[0] == 1.0
        assert j.hess[0, 0] == 1.0

    def test_cbrt_hand_derivatives(self):
        # d/dt t^(1/3) at t=8: value 2, grad 1/12, hess -1/144
        t = seed((8.0,), 0)
        j = jets.cbrt(1.0 * t - 0.0)
        assert j.value == pytest.approx(2.0, abs=1e-14)
        assert j.grad[0] == pytest.approx(1.0 / 12.0, abs=1e-14)
        assert j.hess[0, 0] == pytest.approx(-1.0 / 144.0, abs=1e-14)

    def test_cbrt_negative_branch(self):
        t = seed((-8.0,), 0)
        j = jets.cbrt(t)
        assert j.value == pytest.approx(-2.0, abs=1e-14)
        fd = fd_jet(lambda p: jets.cbrt(p[0]), (-8.0,))
        assert j.grad[0] == pytest.approx(fd.grad[0], abs=1e-8)
        assert j.hess[0, 0] == pytest.approx(fd.hess[0, 0], abs=1e-6)

    def test_cbrt_rejects_zero(self):
        with pytest.raises(DomainError):
            jets.cbrt(seed((0.0,), 0))

    def test_log_of_exp_is_identity(self):
        t = seed((1.7,), 0)
        j = jets.log(jets.exp(t))
        assert j.value == pytest.approx(1.7, abs=1e-14)
        assert j.grad[0] == pytest.approx(1.0, abs=1e-12)
        assert j.hess[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_log_domain(self):
        with pytest.raises(DomainError):
            jets.log(seed((-2.0,), 0))

    @pytest.mark.parametrize("t", [400.0, -1000.0])
    def test_tanh_far_out_is_finite(self, t):
        # cosh(t)^2 overflows there; tanh and its derivatives do not
        j = jets.tanh(seed((t,), 0))
        assert (j.value, j.grad[0], j.hess[0, 0]) == (math.copysign(1.0, t), 0.0, 0.0)

    def test_exp_overflow_is_inf(self):
        # the metric layer reports a non-finite jet as an overflow at its point
        with np.errstate(invalid="ignore"):  # inf * 0 in the Hessian
            j = jets.exp(Jet2(np.array([1.0, 800.0]), np.ones((2, 1)), np.zeros((2, 1, 1))))
        assert np.isfinite(j.value[0]) and j.value[1] == math.inf
        assert list(j.finite()) == [True, False]


class TestFiniteDifferenceJet:
    def test_quadratic_gradient(self):
        fd = fd_jet(lambda p: p[0] ** 2, (3.0,), step=1e-4)
        assert fd.grad[0] == pytest.approx(6.0, abs=1e-6)

    def test_exp_hessian(self):
        fd = fd_jet(lambda p: math.exp(p[0]), (0.0,), step=1e-4)
        j = jets.exp(seed((0.0,), 0))
        assert fd.hess[0, 0] == pytest.approx(j.hess[0, 0], abs=1e-6)

    def test_constant_is_exact(self):
        fd = fd_jet(lambda p: 5.0, (1.0, 2.0))
        assert not fd.grad.any()
        assert not fd.hess.any()

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            fd_jet(lambda p: 0.0, (1.0,), step=0.0)


class TestJetVsFiniteDifferences:
    @pytest.mark.parametrize("src,names,box,consts", EXPR_CORPUS,
                             ids=[c[0] for c in EXPR_CORPUS])
    def test_corpus_agreement(self, src, names, box, consts):
        expr = parse_expr(src, names, consts)
        order, pts = corpus_points(box, 64, src)

        def scalar(point):
            env = dict(zip(order, point.tolist()))
            return eval_expr(expr, env)

        for values in pts:
            env = jet_env(order, values)
            j = eval_expr(expr, env)
            fd = fd_jet(scalar, values)
            gtol = 1e-6 * (1.0 + np.max(np.abs(j.grad)))
            htol = 1e-4 * (1.0 + np.max(np.abs(j.hess)))
            assert np.max(np.abs(j.grad - fd.grad)) <= gtol
            assert np.max(np.abs(j.hess - fd.hess)) <= htol

    @pytest.mark.parametrize("src,names,box,consts", EXPR_CORPUS,
                             ids=[c[0] for c in EXPR_CORPUS])
    def test_hessian_symmetry_bit_exact(self, src, names, box, consts):
        expr = parse_expr(src, names, consts)
        order, pts = corpus_points(box, 16, src + "#sym")
        for values in pts:
            j = eval_expr(expr, jet_env(order, values))
            assert np.array_equal(j.hess, j.hess.T)
