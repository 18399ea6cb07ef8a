"""Pretty-printer: AST back to MiniF source.

``parse(print(parse(src)))`` equals ``parse(src)`` — the printer emits
exactly the surface syntax the parser accepts, with minimal
parenthesization derived from the expression grammar's precedence.
"""

from __future__ import annotations

from . import ast

_INDENT = "  "

#: Binding strength of binary operators, mirroring the parser.
_PRECEDENCE = {
    ".OR.": 1,
    ".AND.": 2,
    "==": 4,
    "/=": 4,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
    "**": 8,
}

_NOT_PRECEDENCE = 3
_UNARY_MINUS_PRECEDENCE = 7

#: Non-associative comparison operators.
COMPARISON_OPS = frozenset({"==", "/=", "<", "<=", ">", ">="})


def format_expr(expr: ast.Expr) -> str:
    """Render an expression as MiniF source."""
    return _expr(expr, 0)


def _expr(expr: ast.Expr, parent_prec: int) -> str:
    if isinstance(expr, ast.IntLit):
        return str(expr.value)
    if isinstance(expr, ast.RealLit):
        return expr.text if expr.text else repr(expr.value)
    if isinstance(expr, ast.BoolLit):
        return ".TRUE." if expr.value else ".FALSE."
    if isinstance(expr, ast.StringLit):
        return f"'{expr.value}'"
    if isinstance(expr, ast.Var):
        return expr.name
    if isinstance(expr, ast.Slice):
        lo = _expr(expr.lo, 0) if expr.lo is not None else ""
        hi = _expr(expr.hi, 0) if expr.hi is not None else ""
        return f"{lo}:{hi}"
    if isinstance(expr, ast.ArrayRef):
        subs = ", ".join(_expr(s, 0) for s in expr.subs)
        return f"{expr.name}({subs})"
    if isinstance(expr, ast.Call):
        args = ", ".join(_expr(a, 0) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, ast.VectorLit):
        items = ", ".join(_expr(item, 0) for item in expr.items)
        return f"[{items}]"
    if isinstance(expr, ast.RangeVec):
        return f"[{_expr(expr.lo, 0)} : {_expr(expr.hi, 0)}]"
    if isinstance(expr, ast.UnOp):
        if expr.op == ".NOT.":
            prec = _NOT_PRECEDENCE
            text = f".NOT. {_expr(expr.operand, prec)}"
        else:
            prec = _UNARY_MINUS_PRECEDENCE
            text = f"-{_expr(expr.operand, prec)}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(expr, ast.BinOp):
        prec = _PRECEDENCE[expr.op]
        # +,-,*,/ and the logicals are left-associative; ** is
        # right-associative; comparisons are non-associative (they do
        # not chain), so BOTH their operands must bind tighter.
        if expr.op == "**":
            left_prec, right_prec = prec + 1, prec
        elif expr.op in COMPARISON_OPS:
            left_prec, right_prec = prec + 1, prec + 1
        else:
            left_prec, right_prec = prec, prec + 1
        text = f"{_expr(expr.left, left_prec)} {expr.op} {_expr(expr.right, right_prec)}"
        return f"({text})" if prec < parent_prec else text
    raise TypeError(f"cannot print expression node {type(expr).__name__}")


class Printer:
    """Accumulates formatted source lines with indentation and labels."""

    def __init__(self):
        self._lines: list[str] = []

    def text(self) -> str:
        return "\n".join(self._lines) + "\n"

    def _emit(self, depth: int, text: str, label: int | None = None) -> None:
        prefix = f"{label} " if label is not None else ""
        self._lines.append(prefix + _INDENT * depth + text)

    # -- program units --------------------------------------------------------

    def print_source(self, source: ast.SourceFile) -> None:
        for index, unit in enumerate(source.units):
            if index:
                self._lines.append("")
            self.print_routine(unit)

    def print_routine(self, routine: ast.Routine) -> None:
        if routine.kind == "program":
            self._emit(0, f"PROGRAM {routine.name}")
        else:
            params = ", ".join(routine.params)
            self._emit(0, f"SUBROUTINE {routine.name}({params})")
        self.print_body(routine.body, 1)
        self._emit(0, "END")

    # -- statements ------------------------------------------------------------

    def print_body(self, body: list[ast.Stmt], depth: int) -> None:
        for stmt in body:
            self.print_stmt(stmt, depth)

    def print_stmt(self, stmt: ast.Stmt, depth: int) -> None:
        label = stmt.label
        if isinstance(stmt, ast.Decl):
            self._print_decl(stmt, depth, label)
        elif isinstance(stmt, ast.ParamDecl):
            pairs = ", ".join(
                f"{n} = {format_expr(v)}" for n, v in zip(stmt.names, stmt.values)
            )
            self._emit(depth, f"PARAMETER ({pairs})", label)
        elif isinstance(stmt, ast.Decomposition):
            entities = ", ".join(self._entity(e) for e in stmt.entities)
            self._emit(depth, f"DECOMPOSITION {entities}", label)
        elif isinstance(stmt, ast.Align):
            self._emit(depth, f"ALIGN {', '.join(stmt.sources)} WITH {stmt.target}", label)
        elif isinstance(stmt, ast.Distribute):
            specs = ", ".join(s.upper() if s != "*" else "*" for s in stmt.specs)
            self._emit(depth, f"DISTRIBUTE {stmt.name}({specs})", label)
        elif isinstance(stmt, ast.Assign):
            self._emit(depth, f"{format_expr(stmt.target)} = {format_expr(stmt.value)}", label)
        elif isinstance(stmt, ast.Do):
            header = f"DO {stmt.var} = {format_expr(stmt.lo)}, {format_expr(stmt.hi)}"
            if stmt.stride is not None:
                header += f", {format_expr(stmt.stride)}"
            self._emit(depth, header, label)
            self.print_body(stmt.body, depth + 1)
            self._emit(depth, "ENDDO")
        elif isinstance(stmt, ast.DoWhile):
            self._emit(depth, f"DO WHILE ({format_expr(stmt.cond)})", label)
            self.print_body(stmt.body, depth + 1)
            self._emit(depth, "ENDDO")
        elif isinstance(stmt, ast.While):
            self._emit(depth, f"WHILE ({format_expr(stmt.cond)})", label)
            self.print_body(stmt.body, depth + 1)
            self._emit(depth, "ENDWHILE")
        elif isinstance(stmt, ast.If):
            self._print_if(stmt, depth, label)
        elif isinstance(stmt, ast.Where):
            self._emit(depth, f"WHERE ({format_expr(stmt.mask)})", label)
            self.print_body(stmt.then_body, depth + 1)
            if stmt.else_body:
                self._emit(depth, "ELSEWHERE")
                self.print_body(stmt.else_body, depth + 1)
            self._emit(depth, "ENDWHERE")
        elif isinstance(stmt, ast.Forall):
            header = f"FORALL ({stmt.var} = {format_expr(stmt.lo)} : {format_expr(stmt.hi)}"
            if stmt.mask is not None:
                header += f", {format_expr(stmt.mask)}"
            header += ")"
            self._emit(depth, header, label)
            self.print_body(stmt.body, depth + 1)
            self._emit(depth, "ENDFORALL")
        elif isinstance(stmt, ast.Goto):
            self._emit(depth, f"GOTO {stmt.target}", label)
        elif isinstance(stmt, ast.Continue):
            self._emit(depth, "CONTINUE", label)
        elif isinstance(stmt, ast.ExitStmt):
            self._emit(depth, "EXIT", label)
        elif isinstance(stmt, ast.CycleStmt):
            self._emit(depth, "CYCLE", label)
        elif isinstance(stmt, ast.CallStmt):
            args = ", ".join(format_expr(a) for a in stmt.args)
            self._emit(depth, f"CALL {stmt.name}({args})" if stmt.args else f"CALL {stmt.name}", label)
        elif isinstance(stmt, ast.Return):
            self._emit(depth, "RETURN", label)
        elif isinstance(stmt, ast.Stop):
            self._emit(depth, "STOP", label)
        else:
            raise TypeError(f"cannot print statement node {type(stmt).__name__}")

    def _print_decl(self, stmt: ast.Decl, depth: int, label: int | None) -> None:
        entities = ", ".join(self._entity(e) for e in stmt.entities)
        keyword = stmt.base_type.upper()
        if stmt.replicated:
            keyword += ", REPLICATED ::"
        self._emit(depth, f"{keyword} {entities}", label)

    @staticmethod
    def _entity(entity: ast.DeclEntity) -> str:
        if entity.dims:
            dims = ", ".join(format_expr(d) for d in entity.dims)
            return f"{entity.name}({dims})"
        return entity.name

    def _print_if(self, stmt: ast.If, depth: int, label: int | None) -> None:
        self._emit(depth, f"IF ({format_expr(stmt.cond)}) THEN", label)
        self.print_body(stmt.then_body, depth + 1)
        else_body = stmt.else_body
        while len(else_body) == 1 and isinstance(else_body[0], ast.If) and else_body[0].label is None:
            nested = else_body[0]
            self._emit(depth, f"ELSEIF ({format_expr(nested.cond)}) THEN")
            self.print_body(nested.then_body, depth + 1)
            else_body = nested.else_body
        if else_body:
            self._emit(depth, "ELSE")
            self.print_body(else_body, depth + 1)
        self._emit(depth, "ENDIF")


def format_source(source: ast.SourceFile) -> str:
    """Render a whole source file."""
    printer = Printer()
    printer.print_source(source)
    return printer.text()


def format_statements(body: list[ast.Stmt], depth: int = 0) -> str:
    """Render a bare statement list (used by tests and documentation)."""
    printer = Printer()
    printer.print_body(body, depth)
    return printer.text()
