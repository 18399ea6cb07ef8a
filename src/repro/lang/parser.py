"""Recursive-descent parser for MiniF.

The grammar is statement-keyword driven: every logical line starts a
statement, and block constructs (``DO``/``ENDDO``, ``IF``/``ENDIF``,
``WHERE``/``ENDWHERE``, ...) nest recursively.  Besides the structured
forms, the classic F77 shapes the paper cares about are supported:

* numeric statement labels and ``GOTO``;
* label-terminated loops ``DO 10 i = 1, n ... 10 CONTINUE``;
* logical IF (``IF (cond) stmt``) and ``IF (cond) GOTO label``;
* single-statement ``WHERE (mask) stmt`` and ``FORALL (...) stmt``.
"""

from __future__ import annotations

from . import ast
from .errors import ParseError, SourceLocation
from .lexer import tokenize
from .tokens import Token, TokenKind

#: Names the parser resolves to intrinsic :class:`~repro.lang.ast.Call`
#: expressions rather than array references.
INTRINSICS = frozenset(
    {
        "any",
        "all",
        "max",
        "min",
        "maxval",
        "minval",
        "sum",
        "count",
        "mod",
        "abs",
        "sqrt",
        "exp",
        "log",
        "nint",
        "float",
        "merge",
        "size",
        "iand",
        "ior",
        "ceiling",
        "floor",
    }
)

#: Keywords that terminate the statement list of an enclosing block.
_BLOCK_ENDERS = (
    "END",
    "ENDDO",
    "ENDWHILE",
    "ENDIF",
    "ENDWHERE",
    "ENDFORALL",
    "ELSE",
    "ELSEIF",
    "ELSEWHERE",
)


class Parser:
    """Parser over a token stream produced by :mod:`repro.lang.lexer`."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token-stream helpers -------------------------------------------------

    @property
    def _cur(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._cur
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _check_kw(self, *names: str) -> bool:
        return self._cur.is_kw(*names)

    def _accept_kw(self, *names: str) -> Token | None:
        if self._check_kw(*names):
            return self._advance()
        return None

    def _expect_kw(self, name: str) -> Token:
        if not self._check_kw(name):
            raise ParseError(f"expected {name}, found {self._cur}", self._cur.location)
        return self._advance()

    def _accept_op(self, *ops: str) -> Token | None:
        if self._cur.is_op(*ops):
            return self._advance()
        return None

    def _expect_op(self, op: str) -> Token:
        if not self._cur.is_op(op):
            raise ParseError(f"expected {op!r}, found {self._cur}", self._cur.location)
        return self._advance()

    def _expect_name(self) -> str:
        if self._cur.kind is not TokenKind.NAME:
            raise ParseError(f"expected identifier, found {self._cur}", self._cur.location)
        return self._advance().text

    def _expect_int(self) -> int:
        if self._cur.kind is not TokenKind.INT:
            raise ParseError(f"expected integer, found {self._cur}", self._cur.location)
        return int(self._advance().text)

    def _expect_newline(self) -> None:
        if self._cur.kind is TokenKind.EOF:
            return
        if self._cur.kind is not TokenKind.NEWLINE:
            raise ParseError(
                f"expected end of statement, found {self._cur}", self._cur.location
            )
        self._advance()

    def _skip_newlines(self) -> None:
        while self._cur.kind is TokenKind.NEWLINE:
            self._advance()

    # -- program units --------------------------------------------------------

    def parse_source(self) -> ast.SourceFile:
        """Parse a whole source file (one or more program units)."""
        units: list[ast.Routine] = []
        self._skip_newlines()
        while self._cur.kind is not TokenKind.EOF:
            units.append(self._parse_unit())
            self._skip_newlines()
        if not units:
            raise ParseError("empty source", self._cur.location)
        return ast.SourceFile(units)

    def _parse_unit(self) -> ast.Routine:
        loc = self._cur.location
        if self._accept_kw("PROGRAM"):
            kind = "program"
            name = self._expect_name()
            params: list[str] = []
        elif self._accept_kw("SUBROUTINE"):
            kind = "subroutine"
            name = self._expect_name()
            params = []
            if self._accept_op("("):
                if not self._cur.is_op(")"):
                    params.append(self._expect_name())
                    while self._accept_op(","):
                        params.append(self._expect_name())
                self._expect_op(")")
        else:
            raise ParseError(
                f"expected PROGRAM or SUBROUTINE, found {self._cur}", self._cur.location
            )
        self._expect_newline()
        body = self._parse_body()
        self._expect_kw("END")
        self._accept_kw("PROGRAM", "SUBROUTINE")
        if self._cur.kind is TokenKind.NAME:
            self._advance()
        self._expect_newline()
        return ast.Routine(kind, name, params, body, loc=loc)

    # -- statement blocks ------------------------------------------------------

    def _parse_body(self, end_label: int | None = None) -> list[ast.Stmt]:
        """Parse statements until a block-ending keyword (not consumed).

        ``end_label`` supports label-terminated DO loops: parsing stops
        *after* consuming the statement carrying that label.
        """
        body: list[ast.Stmt] = []
        while True:
            self._skip_newlines()
            if self._cur.kind is TokenKind.EOF:
                if end_label is not None:
                    raise ParseError(
                        f"missing statement with label {end_label}", self._cur.location
                    )
                return body
            label = None
            if self._cur.kind is TokenKind.INT and self._cur.first_on_line:
                label = int(self._advance().text)
            if label is None and self._check_kw(*_BLOCK_ENDERS):
                return body
            stmt = self._parse_statement()
            stmt.label = label
            body.append(stmt)
            if end_label is not None and label == end_label:
                return body

    def _parse_statement(self) -> ast.Stmt:
        token = self._cur
        if token.kind is TokenKind.KEYWORD:
            handler = {
                "INTEGER": self._parse_decl,
                "REAL": self._parse_decl,
                "LOGICAL": self._parse_decl,
                "PARAMETER": self._parse_parameter,
                "DIMENSION": self._parse_dimension,
                "DECOMPOSITION": self._parse_decomposition,
                "ALIGN": self._parse_align,
                "DISTRIBUTE": self._parse_distribute,
                "DO": self._parse_do,
                "WHILE": self._parse_while,
                "IF": self._parse_if,
                "WHERE": self._parse_where,
                "FORALL": self._parse_forall,
                "GOTO": self._parse_goto,
                "CONTINUE": self._parse_simple(ast.Continue),
                "EXIT": self._parse_simple(ast.ExitStmt),
                "CYCLE": self._parse_simple(ast.CycleStmt),
                "RETURN": self._parse_simple(ast.Return),
                "STOP": self._parse_simple(ast.Stop),
                "CALL": self._parse_call,
            }.get(token.text)
            if handler is None:
                raise ParseError(f"unexpected keyword {token.text}", token.location)
            return handler()
        return self._parse_assignment()

    def _parse_simple(self, node_class):
        def build():
            loc = self._advance().location
            self._expect_newline()
            return node_class(loc=loc)

        return build

    # -- declarations ----------------------------------------------------------

    def _parse_decl(self) -> ast.Decl:
        loc = self._cur.location
        base_type = self._advance().text.lower()
        replicated = False
        if self._accept_op(","):
            self._expect_kw("REPLICATED")
            replicated = True
            self._expect_op(":")
            self._expect_op(":")
        entities = [self._parse_decl_entity()]
        while self._accept_op(","):
            entities.append(self._parse_decl_entity())
        self._expect_newline()
        return ast.Decl(base_type, entities, replicated, loc=loc)

    def _parse_decl_entity(self) -> ast.DeclEntity:
        loc = self._cur.location
        name = self._expect_name()
        dims: list[ast.Expr] = []
        if self._accept_op("("):
            dims.append(self._parse_expr())
            while self._accept_op(","):
                dims.append(self._parse_expr())
            self._expect_op(")")
        return ast.DeclEntity(name, dims, loc=loc)

    def _parse_parameter(self) -> ast.ParamDecl:
        loc = self._advance().location
        self._expect_op("(")
        names: list[str] = []
        values: list[ast.Expr] = []
        while True:
            names.append(self._expect_name())
            self._expect_op("=")
            values.append(self._parse_expr())
            if not self._accept_op(","):
                break
        self._expect_op(")")
        self._expect_newline()
        return ast.ParamDecl(names, values, loc=loc)

    def _parse_dimension(self) -> ast.Decl:
        loc = self._advance().location
        entities = [self._parse_decl_entity()]
        while self._accept_op(","):
            entities.append(self._parse_decl_entity())
        self._expect_newline()
        return ast.Decl("dimension", entities, loc=loc)

    def _parse_decomposition(self) -> ast.Decomposition:
        loc = self._advance().location
        entities = [self._parse_decl_entity()]
        while self._accept_op(","):
            entities.append(self._parse_decl_entity())
        self._expect_newline()
        return ast.Decomposition(entities, loc=loc)

    def _parse_align(self) -> ast.Align:
        loc = self._advance().location
        sources = [self._expect_name()]
        while self._accept_op(","):
            sources.append(self._expect_name())
        self._expect_kw("WITH")
        target = self._expect_name()
        self._expect_newline()
        return ast.Align(sources, target, loc=loc)

    def _parse_distribute(self) -> ast.Distribute:
        loc = self._advance().location
        name = self._expect_name()
        self._expect_op("(")
        specs = [self._parse_dist_spec()]
        while self._accept_op(","):
            specs.append(self._parse_dist_spec())
        self._expect_op(")")
        self._expect_newline()
        return ast.Distribute(name, specs, loc=loc)

    def _parse_dist_spec(self) -> str:
        if self._accept_op("*"):
            return "*"
        token = self._cur
        if token.is_kw("BLOCK") or (token.kind is TokenKind.NAME and token.text == "cyclic"):
            return self._advance().text.lower()
        if token.kind is TokenKind.NAME and token.text in ("block", "cyclic"):
            return self._advance().text
        raise ParseError(f"expected BLOCK, CYCLIC or *, found {token}", token.location)

    # -- control flow ----------------------------------------------------------

    def _parse_do(self) -> ast.Stmt:
        loc = self._advance().location
        if self._accept_kw("WHILE"):
            self._expect_op("(")
            cond = self._parse_expr()
            self._expect_op(")")
            self._expect_newline()
            body = self._parse_body()
            self._expect_enddo()
            return ast.DoWhile(cond, body, loc=loc)
        end_label = None
        if self._cur.kind is TokenKind.INT:
            end_label = self._expect_int()
        var = self._expect_name()
        self._expect_op("=")
        lo = self._parse_expr()
        self._expect_op(",")
        hi = self._parse_expr()
        stride = None
        if self._accept_op(","):
            stride = self._parse_expr()
        self._expect_newline()
        if end_label is not None:
            body = self._parse_body(end_label=end_label)
        else:
            body = self._parse_body()
            self._expect_enddo()
        return ast.Do(var, lo, hi, stride, body, loc=loc)

    def _expect_enddo(self) -> None:
        if self._accept_kw("ENDDO"):
            self._expect_newline()
            return
        self._expect_kw("END")
        self._expect_kw("DO")
        self._expect_newline()

    def _parse_while(self) -> ast.While:
        loc = self._advance().location
        cond = self._parse_expr()
        self._expect_newline()
        body = self._parse_body()
        if self._accept_kw("ENDWHILE"):
            self._expect_newline()
        else:
            self._expect_kw("END")
            self._expect_kw("WHILE")
            self._expect_newline()
        return ast.While(cond, body, loc=loc)

    def _parse_if(self) -> ast.Stmt:
        loc = self._advance().location
        self._expect_op("(")
        cond = self._parse_expr()
        self._expect_op(")")
        if self._accept_kw("THEN"):
            self._expect_newline()
            then_body = self._parse_body()
            else_body = self._parse_else_chain()
            return ast.If(cond, then_body, else_body, loc=loc)
        if self._check_kw("GOTO"):
            self._advance()
            target = self._expect_int()
            self._expect_newline()
            return ast.If(cond, [ast.Goto(target, loc=loc)], [], loc=loc)
        stmt = self._parse_statement()
        return ast.If(cond, [stmt], [], loc=loc)

    def _parse_else_chain(self) -> list[ast.Stmt]:
        if self._accept_kw("ELSEIF"):
            loc = self._cur.location
            self._expect_op("(")
            cond = self._parse_expr()
            self._expect_op(")")
            self._expect_kw("THEN")
            self._expect_newline()
            then_body = self._parse_body()
            else_body = self._parse_else_chain()
            return [ast.If(cond, then_body, else_body, loc=loc)]
        if self._accept_kw("ELSE"):
            if self._accept_kw("IF"):
                loc = self._cur.location
                self._expect_op("(")
                cond = self._parse_expr()
                self._expect_op(")")
                self._expect_kw("THEN")
                self._expect_newline()
                then_body = self._parse_body()
                else_body = self._parse_else_chain()
                return [ast.If(cond, then_body, else_body, loc=loc)]
            self._expect_newline()
            else_body = self._parse_body()
            self._expect_endif()
            return else_body
        self._expect_endif()
        return []

    def _expect_endif(self) -> None:
        if self._accept_kw("ENDIF"):
            self._expect_newline()
            return
        self._expect_kw("END")
        self._expect_kw("IF")
        self._expect_newline()

    def _parse_where(self) -> ast.Where:
        loc = self._advance().location
        self._expect_op("(")
        mask = self._parse_expr()
        self._expect_op(")")
        if self._cur.kind is TokenKind.NEWLINE:
            self._advance()
            then_body = self._parse_body()
            else_body: list[ast.Stmt] = []
            if self._accept_kw("ELSEWHERE"):
                self._expect_newline()
                else_body = self._parse_body()
            if self._accept_kw("ENDWHERE"):
                self._expect_newline()
            else:
                self._expect_kw("END")
                self._expect_kw("WHERE")
                self._expect_newline()
            return ast.Where(mask, then_body, else_body, loc=loc)
        stmt = self._parse_statement()
        return ast.Where(mask, [stmt], [], loc=loc)

    def _parse_forall(self) -> ast.Forall:
        loc = self._advance().location
        self._expect_op("(")
        var = self._expect_name()
        self._expect_op("=")
        lo = self._parse_expr()
        self._expect_op(":")
        hi = self._parse_expr()
        mask = None
        if self._accept_op(","):
            mask = self._parse_expr()
        self._expect_op(")")
        if self._cur.kind is TokenKind.NEWLINE:
            self._advance()
            body = self._parse_body()
            if self._accept_kw("ENDFORALL"):
                self._expect_newline()
            else:
                self._expect_kw("END")
                self._expect_kw("FORALL")
                self._expect_newline()
            return ast.Forall(var, lo, hi, mask, body, loc=loc)
        stmt = self._parse_statement()
        return ast.Forall(var, lo, hi, mask, [stmt], loc=loc)

    def _parse_goto(self) -> ast.Goto:
        loc = self._advance().location
        target = self._expect_int()
        self._expect_newline()
        return ast.Goto(target, loc=loc)

    def _parse_call(self) -> ast.CallStmt:
        loc = self._advance().location
        name = self._expect_name()
        args: list[ast.Expr] = []
        if self._accept_op("("):
            if not self._cur.is_op(")"):
                args.append(self._parse_arg())
                while self._accept_op(","):
                    args.append(self._parse_arg())
            self._expect_op(")")
        self._expect_newline()
        return ast.CallStmt(name, args, loc=loc)

    def _parse_assignment(self) -> ast.Assign:
        loc = self._cur.location
        target = self._parse_primary()
        if not isinstance(target, (ast.Var, ast.ArrayRef)):
            raise ParseError("assignment target must be a variable or array element", loc)
        self._expect_op("=")
        value = self._parse_expr()
        self._expect_newline()
        return ast.Assign(target, value, loc=loc)

    # -- expressions -----------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._cur.is_op(".OR."):
            loc = self._advance().location
            right = self._parse_and()
            left = ast.BinOp(".OR.", left, right, loc=loc)
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self._cur.is_op(".AND."):
            loc = self._advance().location
            right = self._parse_not()
            left = ast.BinOp(".AND.", left, right, loc=loc)
        return left

    def _parse_not(self) -> ast.Expr:
        if self._cur.is_op(".NOT."):
            loc = self._advance().location
            return ast.UnOp(".NOT.", self._parse_not(), loc=loc)
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_additive()
        if self._cur.is_op("==", "/=", "<", "<=", ">", ">="):
            op = self._advance()
            right = self._parse_additive()
            return ast.BinOp(op.text, left, right, loc=op.location)
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while self._cur.is_op("+", "-"):
            op = self._advance()
            right = self._parse_multiplicative()
            left = ast.BinOp(op.text, left, right, loc=op.location)
        return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while self._cur.is_op("*", "/"):
            op = self._advance()
            right = self._parse_unary()
            left = ast.BinOp(op.text, left, right, loc=op.location)
        return left

    def _parse_unary(self) -> ast.Expr:
        if self._cur.is_op("-", "+"):
            op = self._advance()
            operand = self._parse_unary()
            if op.text == "+":
                return operand
            return ast.UnOp("-", operand, loc=op.location)
        return self._parse_power()

    def _parse_power(self) -> ast.Expr:
        base = self._parse_primary()
        if self._cur.is_op("**"):
            op = self._advance()
            exponent = self._parse_unary()
            return ast.BinOp("**", base, exponent, loc=op.location)
        return base

    def _parse_primary(self) -> ast.Expr:
        token = self._cur
        loc = token.location
        if token.kind is TokenKind.INT:
            self._advance()
            return ast.IntLit(int(token.text), loc=loc)
        if token.kind is TokenKind.REAL:
            self._advance()
            return ast.RealLit(float(token.text), token.text, loc=loc)
        if token.kind is TokenKind.STRING:
            self._advance()
            return ast.StringLit(token.text, loc=loc)
        if token.is_kw("TRUE"):
            self._advance()
            return ast.BoolLit(True, loc=loc)
        if token.is_kw("FALSE"):
            self._advance()
            return ast.BoolLit(False, loc=loc)
        if token.is_op("("):
            self._advance()
            inner = self._parse_expr()
            self._expect_op(")")
            return inner
        if token.is_op("["):
            return self._parse_vector()
        if token.kind is TokenKind.NAME:
            name = self._advance().text
            if self._cur.is_op("("):
                self._advance()
                args: list[ast.Expr] = []
                if not self._cur.is_op(")"):
                    args.append(self._parse_arg())
                    while self._accept_op(","):
                        args.append(self._parse_arg())
                self._expect_op(")")
                if name in INTRINSICS:
                    return ast.Call(name, args, loc=loc)
                return ast.ArrayRef(name, args, loc=loc)
            return ast.Var(name, loc=loc)
        raise ParseError(f"unexpected token {token} in expression", loc)

    def _parse_arg(self) -> ast.Expr:
        """Parse a subscript or argument, allowing ``lo:hi`` sections."""
        loc = self._cur.location
        if self._cur.is_op(":"):
            self._advance()
            if self._cur.is_op(",", ")"):
                return ast.Slice(None, None, loc=loc)
            hi = self._parse_expr()
            return ast.Slice(None, hi, loc=loc)
        lo = self._parse_expr()
        if self._accept_op(":"):
            if self._cur.is_op(",", ")"):
                return ast.Slice(lo, None, loc=loc)
            hi = self._parse_expr()
            return ast.Slice(lo, hi, loc=loc)
        return lo

    def _parse_vector(self) -> ast.Expr:
        loc = self._expect_op("[").location
        first = self._parse_expr()
        if self._accept_op(":"):
            hi = self._parse_expr()
            self._expect_op("]")
            return ast.RangeVec(first, hi, loc=loc)
        items = [first]
        while self._accept_op(","):
            items.append(self._parse_expr())
        self._expect_op("]")
        return ast.VectorLit(items, loc=loc)


def parse_source(source: str, filename: str = "<string>") -> ast.SourceFile:
    """Parse a MiniF source text into a :class:`~repro.lang.ast.SourceFile`."""
    return Parser(tokenize(source, filename)).parse_source()


def parse_statements(source: str, filename: str = "<string>") -> list[ast.Stmt]:
    """Parse a bare statement list (no PROGRAM wrapper) — handy in tests."""
    parser = Parser(tokenize(source, filename))
    body = parser._parse_body()
    if parser._cur.kind is not TokenKind.EOF:
        raise ParseError(f"trailing input: {parser._cur}", parser._cur.location)
    return body


def parse_expression(source: str, filename: str = "<expr>") -> ast.Expr:
    """Parse a single expression — handy in tests."""
    parser = Parser(tokenize(source, filename))
    expr = parser._parse_expr()
    return expr
