"""Affine subscript forms over many induction variables.

The old single-variable dependence parser handled ``a*i + c``
in a *single* loop variable; everything else — inner induction
variables, loop-invariant symbolic bounds, scalars with a recognized
evolution — defeated it.  This module is the replacement bottom layer
of the dependence framework: a subscript is normalized into

    ``sum(coeff_v * v for v in names) + const``

where the names are unique per *loop instance* (so sibling loops that
reuse a variable name stay distinct) plus free symbols for
loop-invariant scalars.  Symbols carry a ``varies_below`` tag naming
the outermost loop level their value may depend on; the pair tester
uses it to decide when two occurrences of the same symbol are known to
denote the same value (and therefore cancel).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ...lang import ast


@dataclass(frozen=True)
class AffineExpr:
    """``sum(coeff * name) + const`` with integer coefficients.

    ``coeffs`` is a name-sorted tuple of ``(name, coeff)`` pairs with
    every coefficient nonzero, so structural equality is semantic
    equality.
    """

    coeffs: tuple[tuple[str, int], ...] = ()
    const: int = 0

    # -- constructors --------------------------------------------------------

    @staticmethod
    def constant(value: int) -> "AffineExpr":
        return AffineExpr((), value)

    @staticmethod
    def variable(name: str, coeff: int = 1) -> "AffineExpr":
        if coeff == 0:
            return AffineExpr((), 0)
        return AffineExpr(((name, coeff),), 0)

    @staticmethod
    def _make(coeffs: dict[str, int], const: int) -> "AffineExpr":
        items = tuple(
            (name, coeff)
            for name, coeff in sorted(coeffs.items())
            if coeff != 0
        )
        return AffineExpr(items, const)

    # -- queries -------------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.coeffs)

    def coeff(self, name: str) -> int:
        for item, coeff in self.coeffs:
            if item == name:
                return coeff
        return 0

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "AffineExpr") -> "AffineExpr":
        coeffs = dict(self.coeffs)
        for name, coeff in other.coeffs:
            coeffs[name] = coeffs.get(name, 0) + coeff
        return AffineExpr._make(coeffs, self.const + other.const)

    def __sub__(self, other: "AffineExpr") -> "AffineExpr":
        return self + other.scale(-1)

    def __neg__(self) -> "AffineExpr":
        return self.scale(-1)

    def scale(self, factor: int) -> "AffineExpr":
        if factor == 0:
            return AffineExpr((), 0)
        return AffineExpr(
            tuple((name, coeff * factor) for name, coeff in self.coeffs),
            self.const * factor,
        )

    def __str__(self) -> str:
        parts = []
        for name, coeff in self.coeffs:
            if coeff == 1:
                parts.append(name)
            elif coeff == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{coeff}*{name}")
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts).replace("+ -", "- ")


#: Sentinel meaning "this scalar's value is statically unknown" in an
#: environment (as opposed to an absent entry, which means "the name is
#: a free symbol standing for itself").
UNKNOWN = None


@dataclass
class AffineTerm:
    """``coeff * var + const`` — the legacy single-variable form."""

    coeff: int
    const: int


def parse_affine(expr: ast.Expr, var: str) -> AffineTerm | None:
    """Parse a subscript as affine in ``var`` alone; None when not.

    Compatibility entry point for the legacy single-variable API; the
    multi-variable :func:`parse_affine_expr` does the normalization,
    so ``c*i`` / ``i*c`` products and nested negation are handled
    uniformly at any depth.
    """
    parsed = parse_affine_expr(expr)
    if parsed is None:
        return None
    if any(name != var for name in parsed.names):
        return None
    return AffineTerm(parsed.coeff(var), parsed.const)


def parse_affine_expr(
    expr: ast.Expr,
    env: Mapping[str, AffineExpr | None] | None = None,
) -> AffineExpr | None:
    """Normalize ``expr`` into an :class:`AffineExpr`, or None.

    ``env`` maps scalar names to their known affine value; a ``None``
    value marks a scalar whose value analysis lost track of (any use
    makes the whole expression non-affine).  Names absent from ``env``
    are free symbols.  Handles nested negation, unary plus, and
    ``c*e`` / ``e*c`` products at any depth uniformly — the cases the
    old single-variable parser normalized inconsistently.
    """
    if isinstance(expr, ast.IntLit):
        return AffineExpr.constant(expr.value)
    if isinstance(expr, ast.Var):
        if env is not None and expr.name in env:
            value = env[expr.name]
            return value  # may be None: tracked-but-unknown scalar
        return AffineExpr.variable(expr.name)
    if isinstance(expr, ast.UnOp):
        inner = parse_affine_expr(expr.operand, env)
        if inner is None:
            return None
        if expr.op == "-":
            return -inner
        if expr.op == "+":
            return inner
        return None
    if isinstance(expr, ast.BinOp):
        left = parse_affine_expr(expr.left, env)
        right = parse_affine_expr(expr.right, env)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            # Affine iff at least one side is a compile-time constant.
            if left.is_constant:
                return right.scale(left.const)
            if right.is_constant:
                return left.scale(right.const)
            return None
    return None
