"""Parser tests: statements, markup, expressions and precedence."""

import pytest

from repro.easyml import (MAX_DEPTH, Assign, Binary, Call, Declare, Group,
                          If, Markup, Name, Number, SyntaxErrorEasyML,
                          Ternary, Unary, free_names, parse_model)


def parse_one(source):
    statements = parse_model(source).statements
    assert len(statements) == 1
    return statements[0]


def parse_expr(text):
    stmt = parse_one(f"x = {text};")
    assert isinstance(stmt, Assign)
    return stmt.expr


class TestStatements:
    def test_assignment(self):
        stmt = parse_one("x = 1 + 2;")
        assert isinstance(stmt, Assign) and stmt.target == "x"

    def test_bare_declaration(self):
        stmt = parse_one("Vm;")
        assert isinstance(stmt, Declare) and stmt.name == "Vm"
        assert stmt.markups == ()

    def test_declaration_with_trailing_markups(self):
        stmt = parse_one("Vm; .external(); .lookup(-100,100,0.05);")
        assert isinstance(stmt, Declare)
        assert [m.name for m in stmt.markups] == ["external", "lookup"]
        assert stmt.markups[1].args == (-100.0, 100.0, 0.05)

    def test_assignment_with_markup_becomes_declaration(self):
        stmt = parse_one("Cm = 200; .param();")
        assert isinstance(stmt, Declare)
        assert stmt.init == Number(200.0)

    def test_method_markup_string_argument(self):
        stmt = parse_one("u1; .method(rk2);")
        assert stmt.markups[0] == Markup("method", ("rk2",))

    def test_group(self):
        stmt = parse_one("group{ u1; u2; u3; }.nodal();")
        assert isinstance(stmt, Group)
        assert [m.name for m in stmt.members] == ["u1", "u2", "u3"]
        assert stmt.markups[0].name == "nodal"

    def test_group_with_initializers(self):
        stmt = parse_one("group{ Cm = 200; beta = 1; }.param();")
        assert stmt.members[0].init == Number(200.0)

    def test_group_markup_merged_in_declarations(self):
        model = parse_model("group{ a = 1; b = 2; }.param();")
        decls = model.declarations()
        assert all("param" in [m.name for m in d.markups] for d in decls)

    def test_if_else(self):
        stmt = parse_one("if (Vm > 0) { a = 1; } else { a = 2; }")
        assert isinstance(stmt, If)
        assert len(stmt.then_body) == 1 and len(stmt.else_body) == 1

    def test_if_without_else(self):
        stmt = parse_one("if (Vm > 0) { a = 1; }")
        assert stmt.else_body == ()

    def test_else_if_chain(self):
        stmt = parse_one(
            "if (Vm > 0) { a = 1; } else if (Vm > -40) { a = 2; }"
            " else { a = 3; }")
        assert isinstance(stmt.else_body[0], If)

    def test_braceless_if_body(self):
        stmt = parse_one("if (Vm > 0) a = 1;")
        assert isinstance(stmt.then_body[0], Assign)


class TestExpressions:
    def test_precedence_mul_over_add(self):
        assert parse_expr("1 + 2 * 3") == Binary(
            "+", Number(1.0), Binary("*", Number(2.0), Number(3.0)))

    def test_left_associativity(self):
        assert parse_expr("8 - 4 - 2") == Binary(
            "-", Binary("-", Number(8.0), Number(4.0)), Number(2.0))

    def test_parentheses_override(self):
        assert parse_expr("(1 + 2) * 3") == Binary(
            "*", Binary("+", Number(1.0), Number(2.0)), Number(3.0))

    def test_unary_minus(self):
        assert parse_expr("-x") == Unary("-", Name("x"))

    def test_unary_plus_dropped(self):
        assert parse_expr("+x") == Name("x")

    def test_double_negation(self):
        assert parse_expr("--x") == Unary("-", Unary("-", Name("x")))

    def test_call_with_arguments(self):
        assert parse_expr("pow(x, 2)") == Call(
            "pow", (Name("x"), Number(2.0)))

    def test_nested_calls(self):
        expr = parse_expr("exp(square(x))")
        assert expr == Call("exp", (Call("square", (Name("x"),)),))

    def test_caret_power_becomes_pow_call(self):
        assert parse_expr("x^2") == Call("pow", (Name("x"), Number(2.0)))

    def test_ternary(self):
        expr = parse_expr("a > b ? 1 : 0")
        assert isinstance(expr, Ternary)
        assert expr.then == Number(1.0)

    def test_nested_ternary_right_associative(self):
        expr = parse_expr("a > 0 ? 1 : b > 0 ? 2 : 3")
        assert isinstance(expr.otherwise, Ternary)

    def test_comparison_chain_precedence(self):
        expr = parse_expr("a + 1 < b * 2")
        assert expr.op == "<"
        assert expr.lhs.op == "+" and expr.rhs.op == "*"

    def test_logical_precedence(self):
        expr = parse_expr("a < b && c > d || e == f")
        assert expr.op == "or"
        assert expr.lhs.op == "and"

    def test_not_operator(self):
        assert parse_expr("!x") == Unary("!", Name("x"))

    def test_modulo(self):
        assert parse_expr("a % b").op == "%"


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(SyntaxErrorEasyML):
            parse_model("x = 1")

    def test_unbalanced_paren(self):
        with pytest.raises(SyntaxErrorEasyML):
            parse_model("x = (1 + 2;")

    def test_bad_markup_argument(self):
        with pytest.raises(SyntaxErrorEasyML):
            parse_model("Vm; .lookup(-, 100, 0.05);")

    def test_group_member_must_be_simple(self):
        with pytest.raises(SyntaxErrorEasyML):
            parse_model("group{ if (a) { b = 1; } }.nodal();")

    def test_error_reports_location(self):
        with pytest.raises(SyntaxErrorEasyML) as err:
            parse_model("x = ;")
        assert "1:" in str(err.value)


def _nested_ifs(levels):
    body = "t = Vm;"
    for i in reversed(range(levels)):
        body = f"if (Vm > {i}) {{ {body} }} else {{ t = 2; }}"
    return body


#: statements that nest exactly ``depth`` levels, one per shape; the
#: depth counts every operator, call, ternary, sign and parenthesis pair
#: and one level per enclosing ``if``
DEEP = {
    "left_chain": lambda depth: "t = " + " - ".join(["Vm"] * depth) + ";",
    "parentheses": lambda depth: (
        "t = " + "(" * (depth - 1) + "Vm" + ")" * (depth - 1) + ";"),
    "calls": lambda depth: (
        "t = " + "tanh(" * (depth - 1) + "Vm" + ")" * (depth - 1) + ";"),
    "signs": lambda depth: "t = " + ("-+" * depth)[:depth - 1] + "Vm;",
    "powers": lambda depth: "t = " + "^".join(["m"] * depth) + ";",
    "ternaries": lambda depth: "t = " + "".join(
        f"Vm > {i} ? {i} : " for i in range(depth - 2)) + "Vm;",
    # an ``if`` at depth d compares at d + 1 (two levels: ``Vm > i``)
    "ifs": lambda depth: _nested_ifs(depth - 2),
}

_DEEP_MODEL = """
Vm; .external(); .nodal(); .lookup(-100, 100, 0.05);
Iion; .external(); .nodal();
g = 0.5; .param();
Vm_init = -80.0;
diff_m = -m*g; m_init = 0.1;
{body}
Iion = g*m*Vm + 1e-3*t;
"""


class TestDepthLimit:
    """One bound on nesting, so no later tree walk overflows the stack."""

    @pytest.mark.parametrize("shape", sorted(DEEP))
    def test_the_limit_parses_and_compiles(self, shape):
        from repro.frontend import load_model
        from repro.resilience.fallback import compile_resilient
        model = load_model(_DEEP_MODEL.format(body=DEEP[shape](MAX_DEPTH)))
        assert all(str(c) for c in model.computations)
        compiled = compile_resilient(model, strict=True)
        result = compiled.runner.simulate(8, 2)
        assert result.n_steps == 2

    @pytest.mark.parametrize("shape", sorted(DEEP))
    def test_one_past_the_limit_is_a_positioned_syntax_error(self, shape):
        source = DEEP[shape](MAX_DEPTH + 1)
        with pytest.raises(SyntaxErrorEasyML) as err:
            parse_model(source, "deep", "deep.model")
        assert f"nesting deeper than {MAX_DEPTH} levels" in str(err.value)
        assert err.value.line == 1 and err.value.column > 1


class TestHelpers:
    def test_free_names(self):
        expr = parse_expr("a*b + exp(c) - 2")
        assert free_names(expr) == {"a", "b", "c"}

    def test_assignments_flattened_through_if(self):
        model = parse_model(
            "x = 1; if (x > 0) { y = 2; } else { y = 3; } z = 4;")
        targets = [a.target for a in model.assignments()]
        assert targets == ["x", "y", "y", "z"]

    def test_str_round_trip_reparses(self):
        """str(expr) must be valid EasyML producing the same tree."""
        expr = parse_expr("-(a + b)*exp(c/d) + (e < f ? 1 : g)")
        again = parse_expr(str(expr))
        assert again == expr

    def test_all_registry_models_parse(self):
        from repro.models import ALL_MODELS, model_entry
        from repro.easyml import parse_model_file
        for name in ALL_MODELS:
            ast = parse_model_file(model_entry(name).path)
            assert ast.statements, name
