"""AST → SIMD bytecode compiler.

Lowers the routines of a MiniF source file to one linear code object in
the ISA of :mod:`repro.vm.isa`:

* structured control flow becomes labels and (uniform) jumps;
* WHERE/ELSEWHERE become mask-stack bracketing;
* DO loops are compiled counted (bound evaluated once into a hidden
  limit variable, Fortran semantics);
* EXIT/CYCLE jump to the innermost loop's exit/continue labels;
* GOTO works between statements of the same routine (labels are
  collected up front); FORALL compiles lane-parallel when its extent
  equals the machine width is *not* statically known, so FORALL
  compiles to the iota-binding form and the VM checks the extent;
* the main program comes first, then every subroutine at its entry
  (:attr:`CodeObject.entries`); a ``CALL`` of one pushes its arguments
  and executes ``ENTER``, ``RETURN`` executes ``RET``, and a ``CALL`` of
  any other name is an external ``CALL``;
* each statement's first instruction is recorded for statement hooks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..lang import ast
from ..lang.errors import TransformError
from .isa import CodeObject, Instr, Op


@dataclass
class _Label:
    """A forward-patchable jump target."""

    index: int | None = None
    patch_sites: list[int] = field(default_factory=list)


class Compiler:
    """Compiles the routines of a source file to one :class:`CodeObject`.

    Args:
        subroutines: The MiniF subroutines a ``CALL`` may enter
            (name → routine); any other ``CALL`` is external.
    """

    def __init__(self, subroutines: dict[str, ast.Routine] | None = None):
        self._subroutines = subroutines or {}
        self._entries = {name: _Label() for name in self._subroutines}
        self._code: list[Instr] = []
        self._source_map: dict[int, int] = {}
        self._statements: dict[int, list[ast.Stmt]] = {}
        self._reentries: set[int] = set()
        # (continue, exit, continuing re-enters a WHILE head)
        self._loop_stack: list[tuple[_Label, _Label, bool]] = []
        self._stmt_labels: dict[int, _Label] = {}
        self._temp = 0
        self._where_depth = 0  # WHERE scopes open at the current statement

    # -- low-level emission -----------------------------------------------------

    def _emit(self, op: Op, arg=None, loc=None, acu: bool = False) -> int:
        index = len(self._code)
        self._code.append(Instr(op, arg, acu, loc if loc is not None and loc.line else None))
        if loc is not None and loc.line:
            self._source_map[index] = loc.line
        return index

    def _new_label(self) -> _Label:
        return _Label()

    def _bind(self, label: _Label) -> None:
        label.index = len(self._code)
        for site in label.patch_sites:
            old = self._code[site]
            if old.op is Op.FOR or old.op is Op.ENTER:
                # the jump target is the last slot of the arg tuple
                arg = (*old.arg[:-1], label.index)
            else:
                arg = label.index
            self._code[site] = replace(old, arg=arg)

    def _jump(self, op: Op, label: _Label, loc=None, acu: bool = False) -> int:
        site = self._emit(op, label.index, loc, acu=acu)
        if label.index is None:
            label.patch_sites.append(site)
        return site

    def _fresh(self, stem: str) -> str:
        self._temp += 1
        return f"__{stem}{self._temp}"

    # -- entry point --------------------------------------------------------------

    def compile_routine(self, routine: ast.Routine) -> CodeObject:
        """Compile ``routine`` at index 0, then every subroutine."""
        entries = {routine.name: 0}
        self._compile_unit(routine, Op.HALT)
        for name, sub in self._subroutines.items():
            entries[name] = len(self._code)
            self._bind(self._entries[name])
            self._compile_unit(sub, Op.RET)
        return CodeObject(
            routine.name,
            tuple(self._code),
            self._source_map,
            entries,
            {pc: tuple(stmts) for pc, stmts in self._statements.items()},
            frozenset(self._reentries),
        )

    def _compile_unit(self, routine: ast.Routine, end: Op) -> None:
        self._stmt_labels = {}
        for node in ast.walk_body(routine.body):
            if isinstance(node, ast.Stmt) and node.label is not None:
                self._stmt_labels[node.label] = self._new_label()
        self._compile_body(routine.body)
        self._emit(end)

    # -- statements ----------------------------------------------------------------

    def _compile_body(self, body: list[ast.Stmt]) -> None:
        for stmt in body:
            if stmt.label is not None:
                self._bind(self._stmt_labels[stmt.label])
            self._statements.setdefault(len(self._code), []).append(stmt)
            self._compile_stmt(stmt)

    def _compile_stmt(self, stmt: ast.Stmt) -> None:
        method = getattr(self, f"_compile_{type(stmt).__name__.lower()}", None)
        if method is None:
            raise TransformError(
                f"cannot compile {type(stmt).__name__} to SIMD bytecode", stmt.loc
            )
        method(stmt)

    def _compile_decl(self, stmt: ast.Decl) -> None:
        for entity in stmt.entities:
            if not entity.dims:
                continue
            for dim in entity.dims:
                self._compile_expr(dim)
            base = stmt.base_type if stmt.base_type != "dimension" else "real"
            self._emit(
                Op.ALLOC, (entity.name, len(entity.dims), base), stmt.loc
            )

    def _compile_paramdecl(self, stmt: ast.ParamDecl) -> None:
        for name, value in zip(stmt.names, stmt.values):
            self._compile_expr(value)
            self._emit(Op.CTL_STORE, (name, "raw"), stmt.loc)

    def _compile_decomposition(self, stmt) -> None:
        pass

    def _compile_align(self, stmt) -> None:
        pass

    def _compile_distribute(self, stmt) -> None:
        pass

    def _compile_continue(self, stmt) -> None:
        self._emit(Op.NOP, None, stmt.loc)

    def _compile_assign(self, stmt: ast.Assign) -> None:
        self._compile_expr(stmt.value)
        self._compile_store(stmt.target, stmt.loc)

    def _compile_store(self, target: ast.Expr, loc) -> None:
        if isinstance(target, ast.Var):
            self._emit(Op.STORE, target.name, loc)
            return
        if isinstance(target, ast.ArrayRef):
            spec = self._compile_subscripts(target)
            self._emit(Op.STORE_INDEXED, (target.name, spec), loc)
            return
        raise TransformError("invalid assignment target", loc)

    def _compile_do(self, stmt: ast.Do) -> None:
        limit = self._fresh("limit")
        stride_name = self._fresh("stride")
        counter = self._fresh(f"{stmt.var}_")
        # Bounds are evaluated exactly once (Fortran counted-loop
        # semantics); the loop-control state lives in hidden names and
        # is maintained by unpriced control opcodes, so the per-trip
        # cost is a single ACU event.  FOR tests the hidden trip
        # counter and sets the loop variable from it, so the body
        # assigning the variable does not change the trip count.
        self._compile_expr(stmt.lo)
        self._compile_expr(stmt.hi)
        if stmt.stride is not None:
            self._compile_expr(stmt.stride)
        else:
            self._emit(Op.PUSH_CONST, 1)
        self._emit(Op.CTL_STORE, (stride_name, "int"), stmt.loc)
        self._emit(Op.CTL_STORE, (limit, "int"), stmt.loc)
        self._emit(Op.CTL_STORE, (counter, "int"), stmt.loc)

        head = self._new_label()
        cont = self._new_label()
        exit_ = self._new_label()
        self._bind(head)
        site = self._emit(
            Op.FOR, (stmt.var, counter, limit, stride_name, exit_.index), stmt.loc
        )
        if exit_.index is None:
            exit_.patch_sites.append(site)
        self._loop_stack.append((cont, exit_, False))
        self._compile_body(stmt.body)
        self._loop_stack.pop()
        self._bind(cont)
        self._emit(Op.FOR_INCR, (counter, stride_name), stmt.loc)
        self._jump(Op.JUMP, head)
        self._bind(exit_)

    def _compile_dowhile(self, stmt: ast.DoWhile) -> None:
        self._compile_while_like(stmt.cond, stmt.body, stmt.loc)

    def _compile_while(self, stmt: ast.While) -> None:
        self._compile_while_like(stmt.cond, stmt.body, stmt.loc)

    def _compile_while_like(self, cond: ast.Expr, body, loc) -> None:
        head = self._new_label()
        exit_ = self._new_label()
        self._bind(head)
        self._compile_expr(cond)
        self._jump(Op.JUMP_IF_FALSE, exit_, loc)
        self._loop_stack.append((head, exit_, True))
        self._compile_body(body)
        self._loop_stack.pop()
        self._reentries.add(self._jump(Op.JUMP, head))
        self._bind(exit_)

    def _compile_if(self, stmt: ast.If) -> None:
        else_ = self._new_label()
        end = self._new_label()
        self._compile_expr(stmt.cond)
        self._jump(Op.JUMP_IF_FALSE, else_, stmt.loc)
        self._compile_body(stmt.then_body)
        if stmt.else_body:
            self._jump(Op.JUMP, end)
            self._bind(else_)
            self._compile_body(stmt.else_body)
            self._bind(end)
        else:
            self._bind(else_)

    def _compile_where(self, stmt: ast.Where) -> None:
        self._compile_expr(stmt.mask)
        self._emit(Op.PUSH_MASK, None, stmt.loc)
        self._where_depth += 1
        self._compile_body(stmt.then_body)
        if stmt.else_body:
            self._emit(Op.ELSE_MASK, None, stmt.loc)
            self._compile_body(stmt.else_body)
        self._where_depth -= 1
        self._emit(Op.POP_MASK, None, stmt.loc)

    def _compile_forall(self, stmt: ast.Forall) -> None:
        # Lane-parallel form: bind the iota vector and run the body
        # under the (optional) mask; the VM verifies extent == P.
        self._compile_expr(stmt.lo)
        self._compile_expr(stmt.hi)
        self._emit(Op.IOTA, None, stmt.loc)
        self._emit(Op.CTL_STORE, (stmt.var, "raw"), stmt.loc)
        if stmt.mask is not None:
            self._compile_expr(stmt.mask)
            self._emit(Op.PUSH_MASK, None, stmt.loc)
            self._where_depth += 1
        self._compile_body(stmt.body)
        if stmt.mask is not None:
            self._where_depth -= 1
            self._emit(Op.POP_MASK, None, stmt.loc)

    def _compile_goto(self, stmt: ast.Goto) -> None:
        label = self._stmt_labels.get(stmt.target)
        if label is None:
            raise TransformError(f"GOTO {stmt.target}: no such label", stmt.loc)
        self._jump(Op.JUMP, label, stmt.loc, acu=True)

    def _compile_exitstmt(self, stmt: ast.ExitStmt) -> None:
        if not self._loop_stack:
            raise TransformError("EXIT outside of a loop", stmt.loc)
        self._jump(Op.JUMP, self._loop_stack[-1][1], stmt.loc)

    def _compile_cyclestmt(self, stmt: ast.CycleStmt) -> None:
        if not self._loop_stack:
            raise TransformError("CYCLE outside of a loop", stmt.loc)
        cont, _exit, reenters = self._loop_stack[-1]
        site = self._jump(Op.JUMP, cont, stmt.loc)
        if reenters:
            self._reentries.add(site)

    def _compile_return(self, stmt) -> None:
        self._emit(Op.RET, None, stmt.loc)

    def _compile_stop(self, stmt) -> None:
        # Close the WHERE scopes the STOP sits in, so HALT finds none of
        # this routine's open (a STOP in a CALLed subroutine leaves the
        # caller's scopes to the VM, which unwinds the frames).
        for _ in range(self._where_depth):
            self._emit(Op.POP_MASK, None, stmt.loc)
        self._emit(Op.HALT, None, stmt.loc)

    def _compile_callstmt(self, stmt: ast.CallStmt) -> None:
        routine = self._subroutines.get(stmt.name)
        if routine is not None:
            # By value in: every argument is evaluated (an unset
            # variable is an error); the VM writes scalars back at RET.
            for arg in stmt.args:
                self._compile_expr(arg)
            entry = self._entries[stmt.name]
            site = self._emit(
                Op.ENTER,
                (stmt.name, tuple(routine.params), tuple(stmt.args), entry.index),
                stmt.loc,
            )
            if entry.index is None:
                entry.patch_sites.append(site)
            return
        # Arguments: push values for loadable args (None marker for
        # output-only unset vars is the VM's job); record the arg
        # expressions so the external can write back.
        for arg in stmt.args:
            self._compile_arg(arg)
        self._emit(Op.CALL, (stmt.name, tuple(stmt.args)), stmt.loc)

    def _compile_arg(self, arg: ast.Expr) -> None:
        if isinstance(arg, ast.Var):
            self._emit(Op.PUSH_CONST, None)  # placeholder; VM loads lazily
            return
        self._compile_expr(arg)

    # -- expressions -----------------------------------------------------------------

    def _compile_expr(self, expr: ast.Expr) -> None:
        if isinstance(expr, (ast.IntLit, ast.BoolLit)):
            self._emit(Op.PUSH_CONST, expr.value, expr.loc)
        elif isinstance(expr, ast.RealLit):
            self._emit(Op.PUSH_CONST, expr.value, expr.loc)
        elif isinstance(expr, ast.StringLit):
            self._emit(Op.PUSH_CONST, expr.value, expr.loc)
        elif isinstance(expr, ast.Var):
            self._emit(Op.LOAD, expr.name, expr.loc)
        elif isinstance(expr, ast.ArrayRef):
            spec = self._compile_subscripts(expr)
            self._emit(Op.LOAD_INDEXED, (expr.name, spec), expr.loc)
        elif isinstance(expr, ast.BinOp):
            self._compile_expr(expr.left)
            self._compile_expr(expr.right)
            self._emit(Op.BINOP, expr.op, expr.loc)
        elif isinstance(expr, ast.UnOp):
            self._compile_expr(expr.operand)
            self._emit(Op.UNOP, expr.op, expr.loc)
        elif isinstance(expr, ast.Call):
            for arg in expr.args:
                self._compile_expr(arg)
            self._emit(Op.INTRINSIC, (expr.name, len(expr.args)), expr.loc)
        elif isinstance(expr, ast.VectorLit):
            for item in expr.items:
                self._compile_expr(item)
            self._emit(Op.VECTOR, len(expr.items), expr.loc)
        elif isinstance(expr, ast.RangeVec):
            self._compile_expr(expr.lo)
            self._compile_expr(expr.hi)
            self._emit(Op.IOTA, None, expr.loc)
        else:
            raise TransformError(
                f"cannot compile expression {type(expr).__name__}", expr.loc
            )

    def _compile_subscripts(self, ref: ast.ArrayRef) -> str:
        """Push subscript operands; return the per-dimension spec string."""
        spec = []
        for sub in ref.subs:
            if isinstance(sub, ast.Slice):
                if sub.lo is None and sub.hi is None:
                    spec.append("f")
                elif sub.hi is None:
                    self._compile_expr(sub.lo)
                    spec.append("l")
                elif sub.lo is None:
                    self._compile_expr(sub.hi)
                    spec.append("u")
                else:
                    self._compile_expr(sub.lo)
                    self._compile_expr(sub.hi)
                    spec.append("b")
            else:
                self._compile_expr(sub)
                spec.append("e")
        return "".join(spec)


def compile_subscripts(ref: ast.ArrayRef) -> tuple[str, tuple[Instr, ...]]:
    """``(spec, code)`` that pushes ``ref``'s subscript operands (the
    VM evaluates it for a writeback target)."""
    compiler = Compiler()
    spec = compiler._compile_subscripts(ref)
    return spec, tuple(compiler._code)


def compile_routine(
    routine: ast.Routine, subroutines: dict[str, ast.Routine] | None = None
) -> CodeObject:
    """Compile a routine (and the subroutines it may call) to bytecode."""
    return Compiler(subroutines).compile_routine(routine)


def compile_program(source: ast.SourceFile) -> CodeObject:
    """Compile a source file: its main program at index 0, then every
    subroutine at its entry."""
    subroutines = {
        unit.name: unit for unit in source.units if unit.kind == "subroutine"
    }
    return compile_routine(source.main, subroutines)
