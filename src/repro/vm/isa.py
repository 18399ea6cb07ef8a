"""The SIMD bytecode instruction set.

A linear ISA that makes the paper's machine model explicit:

* one program counter — all control transfers (``JUMP_IF_FALSE``)
  require a *uniform* condition across the active PEs, enforced at
  execution time;
* per-PE divergence is expressed only through the **mask stack** —
  ``PUSH_MASK`` intersects the current activity mask with a popped
  condition, ``ELSE_MASK`` flips to the complementary lanes,
  ``POP_MASK`` restores;
* indirect addressing is a distinct pair of opcodes
  (``LOAD_INDEXED``/``STORE_INDEXED`` with vector subscripts perform
  gather/scatter), since both target machines price it separately.

Programs are :class:`CodeObject`\\ s: a flat instruction tuple with
all labels resolved to instruction indices, every routine of a source
file at its own entry (``ENTER`` calls one, ``RET`` returns).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto

from ..lang.errors import SourceLocation


class Op(Enum):
    """Opcodes of the SIMD bytecode."""

    PUSH_CONST = auto()   #: arg: constant value
    LOAD = auto()         #: arg: name — push the variable's value
    STORE = auto()        #: arg: name — masked store of the popped value
    ALLOC = auto()        #: arg: (name, rank, base_type) — pop extents, allocate
    LOAD_INDEXED = auto()  #: arg: (name, spec) — pop subscripts, push element(s)
    STORE_INDEXED = auto()  #: arg: (name, spec) — pop value + subscripts
    BINOP = auto()        #: arg: operator spelling
    UNOP = auto()         #: arg: operator spelling
    INTRINSIC = auto()    #: arg: (name, argc)
    IOTA = auto()         #: pop hi, lo — push [lo : hi]
    VECTOR = auto()       #: arg: n — build a vector from n popped values
    CALL = auto()         #: arg: (name, arg_specs) — external subroutine
    ENTER = auto()        #: arg: (name, params, arg_exprs, entry) — MiniF CALL
    RET = auto()          #: RETURN: pop the frame (halts when none is open)
    PUSH_MASK = auto()    #: pop condition, push mask = current ∧ cond
    ELSE_MASK = auto()    #: flip to outer ∧ ¬cond (top mask entry)
    POP_MASK = auto()     #: restore the enclosing mask
    JUMP = auto()         #: arg: target index
    JUMP_IF_FALSE = auto()  #: arg: target index — pops a uniform condition
    CTL_STORE = auto()    #: arg: (name, mode) — control store, not priced
    FOR = auto()          #: arg: (var, counter, limit, stride, exit index) — loop head
    FOR_INCR = auto()     #: arg: (counter, stride) — env[counter] += env[stride]
    NOP = auto()          #: label placeholder (kept for debuggability)
    HALT = auto()         #: end of the main program / STOP
    FUSED = auto()        #: arg: FusedRun — head of a compiled straight-line block


#: Version of the compiler's instruction layout: what the instructions
#: of a program are and which hidden names they use (a DO loop's trip
#: counter, limit and stride).  A VM checkpoint's pc and env only mean
#: something against the layout that captured it, so the VM stamps this
#: into each capture and refuses to resume any other; bump it whenever
#: the compiler emits a different layout.  Layout 1 (unstamped) had no
#: DO trip counter.
BYTECODE_LAYOUT = 2


#: Subscript-spec codes for LOAD_INDEXED / STORE_INDEXED, one per
#: dimension, describing what the compiler pushed for that dimension:
#: 'e' — one expression value; 'f' — full-extent slice (nothing
#: pushed); 'l' — lower-bounded slice (one value); 'u' — upper-bounded
#: slice (one value); 'b' — both bounds (two values, lo first).
SUB_SPECS = ("e", "f", "l", "u", "b")


@dataclass(frozen=True)
class Instr:
    """One instruction: an opcode plus its immediate argument.

    ``acu`` marks control transfers that represent *source-level*
    front-end work (GOTO) and are priced as one ACU event; structural
    jumps the compiler synthesizes (loop back-edges, IF joins, EXIT,
    CYCLE) carry ``acu=False`` and execute for free, matching a tree
    walk's accounting.

    ``loc`` is the :class:`~repro.lang.errors.SourceLocation` of the
    AST node the instruction was compiled from (None for synthesized
    instructions) — the same span type the linter's diagnostics and
    the crash-dump snapshots carry.  The VM stamps it onto every error
    it raises so runtime diagnostics point back at the original source
    line.
    """

    op: Op
    arg: object = None
    acu: bool = False
    loc: SourceLocation | None = None

    def __repr__(self) -> str:
        if self.arg is None:
            return self.op.name
        return f"{self.op.name} {self.arg!r}"


@dataclass
class CodeObject:
    """A compiled routine.

    Attributes:
        name: Source routine name (the main program's).
        instructions: The flat instruction sequence.
        source_map: instruction index -> source line (best effort).
        entries: routine name -> entry index (the main program at 0).
        statements: instruction index -> the source statements that
            start there (several when a statement emits no code).
        reentries: Indices of the jumps (back-edges, CYCLEs) that
            re-enter a WHILE head without starting the WHILE again.
    """

    name: str
    instructions: tuple[Instr, ...]
    source_map: dict[int, int] = field(default_factory=dict)
    entries: dict[str, int] = field(default_factory=dict)
    statements: dict[int, tuple] = field(default_factory=dict)
    reentries: frozenset = frozenset()

    def __post_init__(self):
        if not self.entries:
            self.entries = {self.name: 0}

    def __len__(self) -> int:
        return len(self.instructions)

    def disassemble(self) -> str:
        """Human-readable listing."""
        lines = [f"; routine {self.name} ({len(self.instructions)} instructions)"]
        for index, instr in enumerate(self.instructions):
            line = self.source_map.get(index)
            suffix = f"    ; line {line}" if line else ""
            lines.append(f"{index:4d}  {instr!r}{suffix}")
        return "\n".join(lines)
