"""Abstract syntax tree for MiniF.

Nodes are plain dataclasses.  Structural equality ignores source
locations, so two parses of the same program (or a parse of a
pretty-printed program) compare equal — the property the round-trip
tests rely on.

The tree distinguishes the constructs the paper manipulates:

* the F77 loop family — ``DO``, ``DO WHILE``, ``GOTO`` loops;
* the paper's structured ``WHILE``/``ENDWHILE``;
* the F90simd constructs — ``WHERE``/``ELSEWHERE``, ``FORALL``,
  vector literals ``[a, b]`` and iota ranges ``[lo : hi]``;
* Fortran-D data-mapping directives (``DECOMPOSITION``/``ALIGN``/
  ``DISTRIBUTE``), kept as statements so layouts survive transforms.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .errors import UNKNOWN_LOCATION, SourceLocation


@dataclass(eq=True)
class Node:
    """Base class of every AST node."""

    loc: SourceLocation = field(
        default=UNKNOWN_LOCATION, compare=False, repr=False, kw_only=True
    )


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(eq=True)
class Expr(Node):
    """Base class for expressions."""


@dataclass(eq=True)
class IntLit(Expr):
    """Integer literal."""

    value: int


@dataclass(eq=True)
class RealLit(Expr):
    """Floating-point literal (text kept for faithful printing)."""

    value: float
    text: str = field(default="", compare=False)


@dataclass(eq=True)
class BoolLit(Expr):
    """``.TRUE.`` / ``.FALSE.``"""

    value: bool


@dataclass(eq=True)
class StringLit(Expr):
    """Quoted string literal."""

    value: str


@dataclass(eq=True)
class Var(Expr):
    """Reference to a scalar variable (or whole array, Fortran-90 style)."""

    name: str


@dataclass(eq=True)
class Slice(Expr):
    """Array section bound pair ``lo:hi``; ``None`` means the full extent."""

    lo: Expr | None = None
    hi: Expr | None = None


@dataclass(eq=True)
class ArrayRef(Expr):
    """Subscripted array reference ``name(sub, ...)``.

    Subscripts are expressions or :class:`Slice` sections.  A function
    call is syntactically identical; name resolution (see
    :mod:`repro.lang.semantic`) rewrites calls to :class:`Call`.
    """

    name: str
    subs: list[Expr]


@dataclass(eq=True)
class VectorLit(Expr):
    """Per-processor vector literal, e.g. ``[0, 4]`` from the paper's P4."""

    items: list[Expr]


@dataclass(eq=True)
class RangeVec(Expr):
    """Per-processor iota vector ``[lo : hi]``, e.g. ``at1 = [1 : P]``."""

    lo: Expr
    hi: Expr


@dataclass(eq=True)
class BinOp(Expr):
    """Binary operation; ``op`` is the symbolic spelling (``+``, ``<=``, ``.AND.``)."""

    op: str
    left: Expr
    right: Expr


@dataclass(eq=True)
class UnOp(Expr):
    """Unary operation: ``-``, ``+`` or ``.NOT.``."""

    op: str
    operand: Expr


@dataclass(eq=True)
class Call(Expr):
    """Intrinsic or user function call in an expression."""

    name: str
    args: list[Expr]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(eq=True)
class Stmt(Node):
    """Base class for statements.  ``label`` is the numeric Fortran label."""

    label: int | None = field(default=None, kw_only=True)


@dataclass(eq=True)
class Assign(Stmt):
    """Assignment ``target = value``; target is a Var or ArrayRef."""

    target: Expr
    value: Expr


@dataclass(eq=True)
class Do(Stmt):
    """Counted loop ``DO var = lo, hi [, stride] ... ENDDO``."""

    var: str
    lo: Expr
    hi: Expr
    stride: Expr | None
    body: list[Stmt]


@dataclass(eq=True)
class DoWhile(Stmt):
    """``DO WHILE (cond) ... ENDDO``."""

    cond: Expr
    body: list[Stmt]


@dataclass(eq=True)
class While(Stmt):
    """The paper's ``WHILE cond ... ENDWHILE`` loop.

    In F90simd programs the condition may be vector-valued, in which
    case execution continues while ``ANY`` element holds (the paper's
    array-controlled WHILE extension).
    """

    cond: Expr
    body: list[Stmt]


@dataclass(eq=True)
class If(Stmt):
    """``IF (cond) THEN ... [ELSE ...] ENDIF`` (ELSEIF nests in else_body)."""

    cond: Expr
    then_body: list[Stmt]
    else_body: list[Stmt] = field(default_factory=list)


@dataclass(eq=True)
class Where(Stmt):
    """``WHERE (mask) ... [ELSEWHERE ...] ENDWHERE`` masked execution."""

    mask: Expr
    then_body: list[Stmt]
    else_body: list[Stmt] = field(default_factory=list)


@dataclass(eq=True)
class Forall(Stmt):
    """``FORALL (var = lo : hi [, mask]) body`` — parallel loop.

    The paper extends FORALL to whole blocks; ``body`` is a block.
    """

    var: str
    lo: Expr
    hi: Expr
    mask: Expr | None
    body: list[Stmt]


@dataclass(eq=True)
class Goto(Stmt):
    """``GOTO label``."""

    target: int


@dataclass(eq=True)
class Continue(Stmt):
    """``CONTINUE`` (no-op; usually carries a label)."""


@dataclass(eq=True)
class ExitStmt(Stmt):
    """``EXIT`` — leave the innermost loop."""


@dataclass(eq=True)
class CycleStmt(Stmt):
    """``CYCLE`` — next iteration of the innermost loop."""


@dataclass(eq=True)
class CallStmt(Stmt):
    """``CALL name(args)``."""

    name: str
    args: list[Expr]


@dataclass(eq=True)
class Return(Stmt):
    """``RETURN`` from a subroutine."""


@dataclass(eq=True)
class Stop(Stmt):
    """``STOP`` — terminate the program."""


@dataclass(eq=True)
class Decl(Stmt):
    """Type declaration ``INTEGER a, b(10, 20)``.

    Attributes:
        base_type: ``"integer"``, ``"real"`` or ``"logical"``.
        entities: Declared names with their (possibly empty) dimension lists.
        replicated: True for per-processor replicated variables in
            F90simd programs (the paper's default for scalars).
    """

    base_type: str
    entities: list[DeclEntity]
    replicated: bool = False


@dataclass(eq=True)
class DeclEntity(Node):
    """One declared entity: a name plus its dimension expressions."""

    name: str
    dims: list[Expr] = field(default_factory=list)


@dataclass(eq=True)
class ParamDecl(Stmt):
    """``PARAMETER (name = value, ...)`` named constants."""

    names: list[str]
    values: list[Expr]


@dataclass(eq=True)
class Decomposition(Stmt):
    """Fortran-D ``DECOMPOSITION d(dims)`` directive."""

    entities: list[DeclEntity]


@dataclass(eq=True)
class Align(Stmt):
    """Fortran-D ``ALIGN a WITH d`` directive."""

    sources: list[str]
    target: str


@dataclass(eq=True)
class Distribute(Stmt):
    """Fortran-D ``DISTRIBUTE d(BLOCK, *)`` directive.

    ``specs`` holds one distribution keyword per dimension:
    ``"block"``, ``"cyclic"`` or ``"*"`` (serial).
    """

    name: str
    specs: list[str]


# ---------------------------------------------------------------------------
# Program units
# ---------------------------------------------------------------------------


@dataclass(eq=True)
class Routine(Node):
    """A program unit: ``PROGRAM`` or ``SUBROUTINE``.

    Declarations appear in ``body`` as ordinary :class:`Decl` statements,
    which keeps transformations uniform (they may insert declarations).
    """

    kind: str  #: "program" or "subroutine"
    name: str
    params: list[str]
    body: list[Stmt]


@dataclass(eq=True)
class SourceFile(Node):
    """A whole MiniF source: one or more routines."""

    units: list[Routine]

    def unit(self, name: str) -> Routine:
        """Look up a routine by (lowercase) name."""
        for routine in self.units:
            if routine.name == name:
                return routine
        raise KeyError(name)

    @property
    def main(self) -> Routine:
        """The first PROGRAM unit (or the first unit if none is a PROGRAM)."""
        for routine in self.units:
            if routine.kind == "program":
                return routine
        return self.units[0]


# ---------------------------------------------------------------------------
# Generic traversal helpers
# ---------------------------------------------------------------------------


#: Field annotations that never hold a node.
_LEAF_TYPES = frozenset(
    ("int", "float", "str", "bool", "int | None", "list[str]", "SourceLocation")
)
#: Per node class, filled on first use from ``dataclasses.fields``: all
#: field names in declaration order (what :func:`clone` copies), and
#: the names of the fields that may hold a node (what :func:`children`
#: reads).  One entry per class, so a reader in another thread sees
#: both tuples or neither.
_FIELDS: dict[type, tuple[tuple[str, ...], tuple[str, ...]]] = {}


def _fields(cls: type) -> tuple[tuple[str, ...], tuple[str, ...]]:
    entry = _FIELDS.get(cls)
    if entry is None:
        fields = dataclasses.fields(cls)
        entry = _FIELDS[cls] = (
            tuple(f.name for f in fields),
            tuple(f.name for f in fields if f.type not in _LEAF_TYPES),
        )
    return entry


def _child_list(node: Node) -> list[Node]:
    out = []
    for name in (_FIELDS.get(type(node)) or _fields(type(node)))[1]:
        value = getattr(node, name)
        if isinstance(value, Node):
            out.append(value)
        elif isinstance(value, list):
            out.extend(item for item in value if isinstance(item, Node))
    return out


def children(node: Node):
    """Yield the direct child nodes of ``node`` (fields and list fields)."""
    yield from _child_list(node)


def walk(node: Node):
    """Yield ``node`` and every descendant, preorder."""
    return _walk_stack([node])


def walk_body(body: list[Stmt]):
    """Yield every node in a statement list, preorder."""
    return _walk_stack(body[::-1])


def _walk_stack(stack: list[Node]):
    # ``stack`` holds the nodes still to visit, the next one last.  A
    # node's children are read only when the caller resumes after
    # receiving the node, as in the recursive ``yield from`` form.
    pop = stack.pop
    push = stack.extend
    while stack:
        node = pop()
        yield node
        kids = _child_list(node)
        if kids:
            kids.reverse()
            push(kids)


def clone(node):
    """Deep-copy an AST node (or list of nodes), ``loc`` included."""
    if isinstance(node, list):
        return [clone(item) for item in node]
    if not isinstance(node, Node):
        return node
    cls = type(node)
    kwargs = {}
    for name in _fields(cls)[0]:
        value = getattr(node, name)
        if isinstance(value, Node):
            value = clone(value)
        elif isinstance(value, list):
            value = [clone(item) for item in value]
        kwargs[name] = value
    return cls(**kwargs)


def sub_bodies(stmt: Stmt) -> list[list[Stmt]]:
    """Return the nested statement lists of a block statement (possibly empty)."""
    if isinstance(stmt, (Do, DoWhile, While, Forall)):
        return [stmt.body]
    if isinstance(stmt, If):
        return [stmt.then_body, stmt.else_body]
    if isinstance(stmt, Where):
        return [stmt.then_body, stmt.else_body]
    return []
