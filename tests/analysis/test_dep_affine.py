"""Multi-variable affine subscript forms (`repro.analysis.dep.affine`)."""

from repro.analysis.dep import AffineExpr, parse_affine, parse_affine_expr
from repro.lang import parse_expression


class TestParseAffineNormalization:
    """The satellite fix: c*i, i*c and nested negation normalize alike."""

    def test_const_times_var(self):
        term = parse_affine(parse_expression("3 * i"), "i")
        assert (term.coeff, term.const) == (3, 0)

    def test_var_times_const(self):
        term = parse_affine(parse_expression("i * 3"), "i")
        assert (term.coeff, term.const) == (3, 0)

    def test_nested_negation(self):
        term = parse_affine(parse_expression("-(-i)"), "i")
        assert (term.coeff, term.const) == (1, 0)

    def test_negated_sum_distributes(self):
        term = parse_affine(parse_expression("-(i + 2)"), "i")
        assert (term.coeff, term.const) == (-1, -2)

    def test_negated_product(self):
        term = parse_affine(parse_expression("-(2 * i) + 5"), "i")
        assert (term.coeff, term.const) == (-2, 5)

    def test_const_fold_through_products(self):
        term = parse_affine(parse_expression("2 * (i - 1) + 3"), "i")
        assert (term.coeff, term.const) == (2, 1)

    def test_other_variable_rejected(self):
        assert parse_affine(parse_expression("i + j"), "i") is None

    def test_nonlinear_rejected(self):
        assert parse_affine(parse_expression("i * i"), "i") is None


class TestParseAffineExpr:
    def test_multi_variable(self):
        expr = parse_affine_expr(parse_expression("2 * i + 3 * j - 4"))
        assert expr.coeff("i") == 2
        assert expr.coeff("j") == 3
        assert expr.const == -4
        assert expr.names == ("i", "j")

    def test_env_substitution(self):
        env = {"k": AffineExpr.variable("i") + AffineExpr.constant(5)}
        expr = parse_affine_expr(parse_expression("k + 1"), env)
        assert expr.coeff("i") == 1
        assert expr.const == 6

    def test_unknown_env_entry_kills_expression(self):
        assert parse_affine_expr(parse_expression("k + 1"), {"k": None}) is None

    def test_absent_name_stays_symbolic(self):
        expr = parse_affine_expr(parse_expression("n - i"), {})
        assert expr.coeff("n") == 1
        assert expr.coeff("i") == -1

    def test_product_of_variables_rejected(self):
        assert parse_affine_expr(parse_expression("i * j")) is None

    def test_indirect_rejected(self):
        assert parse_affine_expr(parse_expression("idx(i)")) is None


class TestAffineExprAlgebra:
    def test_add_sub_cancel(self):
        i = AffineExpr.variable("i")
        expr = (i.scale(2) + AffineExpr.constant(3)) - i.scale(2)
        assert expr.is_constant
        assert expr.const == 3

    def test_zero_coefficients_dropped(self):
        i = AffineExpr.variable("i")
        assert (i - i).names == ()

    def test_str_is_readable(self):
        expr = AffineExpr.variable("i").scale(2) + AffineExpr.constant(-1)
        assert str(expr) == "2*i - 1"
