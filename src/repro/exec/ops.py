"""Operator semantics shared by the MiniF interpreters.

Implements Fortran's arithmetic on Python scalars and numpy arrays:
integer division truncates toward zero, comparisons yield logicals,
``.AND.``/``.OR.`` operate on logicals, and mixed int/real arithmetic
promotes to real.
"""

from __future__ import annotations

import numpy as np

from ..lang.errors import InterpreterError
from .intrinsics import coerce

#: Comparison operators (symbolic spellings).
COMPARISONS = frozenset({"==", "/=", "<", "<=", ">", ">="})

#: Logical connectives.
LOGICALS = frozenset({".AND.", ".OR."})


def _is_int_like(value) -> bool:
    if isinstance(value, bool):
        return False
    if isinstance(value, (int, np.integer)):
        return True
    if isinstance(value, np.ndarray):
        return value.dtype.kind in ("i", "u")
    return False


def fortran_div(left, right):
    """Division with Fortran semantics: int/int truncates toward zero."""
    if _is_int_like(left) and _is_int_like(right):
        if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
            with np.errstate(divide="raise"):
                quotient = np.asarray(left) / np.asarray(right)
            return np.trunc(quotient).astype(np.int64)
        if right == 0:
            raise InterpreterError("integer division by zero")
        quotient = abs(left) // abs(right)
        return quotient if (left >= 0) == (right >= 0) else -quotient
    return np.divide(left, right) if isinstance(left, np.ndarray) or isinstance(
        right, np.ndarray
    ) else left / right


def apply_binop(op: str, left, right):
    """Apply a MiniF binary operator to evaluated operands."""
    left = coerce(left)
    right = coerce(right)
    try:
        if op == "+":
            return np.add(left, right) if _any_array(left, right) else left + right
        if op == "-":
            return np.subtract(left, right) if _any_array(left, right) else left - right
        if op == "*":
            return np.multiply(left, right) if _any_array(left, right) else left * right
        if op == "/":
            return fortran_div(left, right)
        if op == "**":
            return np.power(left, right) if _any_array(left, right) else left**right
        if op == "==":
            return np.equal(left, right) if _any_array(left, right) else left == right
        if op == "/=":
            return np.not_equal(left, right) if _any_array(left, right) else left != right
        if op == "<":
            return np.less(left, right) if _any_array(left, right) else left < right
        if op == "<=":
            return np.less_equal(left, right) if _any_array(left, right) else left <= right
        if op == ">":
            return np.greater(left, right) if _any_array(left, right) else left > right
        if op == ">=":
            return np.greater_equal(left, right) if _any_array(left, right) else left >= right
        if op == ".AND.":
            return np.logical_and(left, right) if _any_array(left, right) else bool(left) and bool(right)
        if op == ".OR.":
            return np.logical_or(left, right) if _any_array(left, right) else bool(left) or bool(right)
    except FloatingPointError as exc:
        raise InterpreterError(f"arithmetic fault in '{op}': {exc}") from exc
    raise InterpreterError(f"unknown binary operator '{op}'")


def apply_unop(op: str, operand):
    """Apply a MiniF unary operator."""
    operand = coerce(operand)
    if op == "-":
        return np.negative(operand) if isinstance(operand, np.ndarray) else -operand
    if op == ".NOT.":
        return (
            np.logical_not(operand)
            if isinstance(operand, np.ndarray)
            else not bool(operand)
        )
    raise InterpreterError(f"unknown unary operator '{op}'")


def _any_array(left, right) -> bool:
    return isinstance(left, np.ndarray) or isinstance(right, np.ndarray)


def op_event_kind(op: str, result) -> str:
    """Classify an operator application for execution accounting."""
    if op in LOGICALS:
        return "logical"
    if op in COMPARISONS:
        return "int_op" if _is_int_like_result(result) else "real_op"
    return "int_op" if _is_int_like_result(result) else "real_op"


def _is_int_like_result(result) -> bool:
    if isinstance(result, bool):
        return True
    if isinstance(result, np.ndarray):
        return result.dtype.kind in ("i", "u", "b")
    return isinstance(result, (int, np.integer))
