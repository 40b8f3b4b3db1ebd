import pytest

from conftest import EXPR_CORPUS, corpus_points
from oracles import seed
from warpfield.fieldexpr import (
    ArityError,
    Bin,
    Call,
    ExprError,
    ExprSyntaxError,
    MissingBindingError,
    Num,
    UnknownIdentifierError,
    Var,
    eval_expr,
    parse_expr,
    pretty,
    variables_of,
)
from warpfield.jets import DomainError


class TestParsing:
    def test_function_call(self):
        assert parse_expr("exp(t)", ("t",)) == Call("exp", Var("t"))

    def test_constants_substituted_at_parse(self):
        e = parse_expr("cbrt(a*t - b)", ("t",), {"a": 2.0, "b": 1.0})
        assert e == Call("cbrt", Bin("-", Bin("*", Num(2.0), Var("t")), Num(1.0)))
        assert variables_of(e) == {"t"}

    def test_out_of_scope_identifier(self):
        with pytest.raises(UnknownIdentifierError) as err:
            parse_expr("x ^ 2 + y*z", ("x", "y"))
        assert err.value.name == "z"

    def test_power_right_associative(self):
        e = parse_expr("x^2^3", ("x",))
        assert eval_expr(e, {"x": 2.0}) == 2.0 ** 8

    def test_unary_minus_binds_below_power(self):
        assert eval_expr(parse_expr("-x^2", ("x",)), {"x": 3.0}) == -9.0

    def test_negative_exponent(self):
        assert eval_expr(parse_expr("x^-2", ("x",)), {"x": 2.0}) == 0.25

    def test_precedence_mul_over_add(self):
        assert eval_expr(parse_expr("1 + 2*3", ()), {}) == 7.0

    def test_parentheses(self):
        assert eval_expr(parse_expr("(1 + 2)*3", ()), {}) == 9.0

    def test_pow_call_arity(self):
        with pytest.raises(ArityError):
            parse_expr("pow(x)", ("x",))

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifierError):
            parse_expr("foo(x)", ("x",))

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("x + ?", ("x",))
        assert err.value.offset == 4

    def test_empty_source(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("   ", ("x",))


FUZZ_CORPUS = [
    "",
    "(",
    ")",
    "x +",
    "* x",
    "1..2",
    "x ** 2",
    "sin()",
    "sin(x))",
    "((x)",
    "x y",
    "2 3",
    "x ^",
    "? + 1",
    "exp",
    "x + + ",
    "pow(x)",
    "pow(x, y)",
    "unknown_name",
    "sin(x,y)",
    "0x12",
    "x-",
    "/x",
    "x^()",
]


class TestFuzzRejection:
    @pytest.mark.parametrize("src", FUZZ_CORPUS)
    def test_malformed_input_raises_cleanly(self, src):
        with pytest.raises(ExprError):
            parse_expr(src, ("x",))


class TestEvaluation:
    def test_real_square(self):
        assert eval_expr(parse_expr("t^2", ("t",)), {"t": 3.0}) == 9.0

    def test_jet_exp(self):
        env = {"t": seed((0.0,), 0)}
        j = eval_expr(parse_expr("exp(t)", ("t",)), env)
        assert j.value == 1.0
        assert j.grad[0] == 1.0
        assert j.hess[0, 0] == 1.0

    def test_constant_exponent_folds_to_integer_power(self):
        e = parse_expr("phi^(2*p1)", ("phi",), {"p1": 1.5})
        assert eval_expr(e, {"phi": 2.0}) == 8.0

    def test_missing_binding(self):
        with pytest.raises(MissingBindingError):
            eval_expr(parse_expr("x + y", ("x", "y")), {"x": 1.0})

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            eval_expr(parse_expr("1/x", ("x",)), {"x": 0.0})

    def test_real_domain_error(self):
        with pytest.raises(DomainError):
            eval_expr(parse_expr("log(x)", ("x",)), {"x": -1.0})
        with pytest.raises(DomainError):
            eval_expr(parse_expr("x^0.5", ("x",)), {"x": -1.0})

    @pytest.mark.parametrize("src,names,box,consts", EXPR_CORPUS,
                             ids=[c[0] for c in EXPR_CORPUS])
    def test_real_eval_equals_jet_value_exactly(self, src, names, box, consts):
        expr = parse_expr(src, names, consts)
        order, pts = corpus_points(box, 64, src + "#realjet")
        for values in pts:
            real = eval_expr(expr, dict(zip(order, values)))
            jenv = {name: seed(values, k) for k, name in enumerate(order)}
            assert eval_expr(expr, jenv).value == real


class TestPrinting:
    @pytest.mark.parametrize("src,names,box,consts", EXPR_CORPUS,
                             ids=[c[0] for c in EXPR_CORPUS])
    def test_round_trip_fixed_point(self, src, names, box, consts):
        once = pretty(parse_expr(src, names, consts))
        twice = pretty(parse_expr(once, names, consts))
        assert once == twice

    @pytest.mark.parametrize("src", [
        "a - (b - c)",
        "a/(b*c)",
        "(a + b)^2",
        "x^-2",
        "-(a + b)",
        "a*-b",
        "x^y^z",
        "(a^b)^c",
        "-x^2",
    ])
    def test_structural_round_trip(self, src):
        names = ("a", "b", "c", "x", "y", "z")
        e = parse_expr(src, names)
        text = pretty(e)
        assert parse_expr(text, names) == e

    @pytest.mark.parametrize("src,names,box,consts", EXPR_CORPUS,
                             ids=[c[0] for c in EXPR_CORPUS])
    def test_reprint_preserves_value(self, src, names, box, consts):
        e = parse_expr(src, names, consts)
        e2 = parse_expr(pretty(e), names, consts)
        order, pts = corpus_points(box, 8, src + "#print")
        for values in pts:
            env = dict(zip(order, values))
            assert eval_expr(e, env) == eval_expr(e2, env)
