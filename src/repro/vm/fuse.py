"""Superinstruction fusion for SIMD bytecode.

The VM's per-instruction overhead — budget-meter tick, trace append,
counter update, dispatch — dwarfs the numpy work of a single vector
opcode.  This pass runs once per :class:`~repro.vm.isa.CodeObject`
(memoized on the object) and rewrites maximal straight-line runs of
*simple* opcodes into one ``Op.FUSED`` superinstruction whose argument
is a :class:`FusedRun`: the original component instructions plus
pre-decoded step tuples the VM executes in a tight loop with **one**
budget tick, **one** trace extension and **one** counter flush per run.

Fusion invariants (checked by ``tests/vm/test_fuse.py`` and, for the
stack discipline, by the bytecode verifier which composes the stack
effect of a ``FUSED`` instruction from its components):

* only straight-line opcodes fuse — control transfers (``JUMP``,
  ``JUMP_IF_FALSE``, ``FOR``, ``ENTER``, ``RET``, ``HALT``), mask
  operations (``PUSH_MASK``, ``ELSE_MASK``, ``POP_MASK``) and ``CALL``
  terminate a run, so the activity mask is constant inside every run;
* no instruction other than the first of a run is a jump target;
* instruction indices are preserved: the ``FUSED`` head replaces the
  first component and the remaining slots are padded with unreachable
  ``NOP``\\ s, so every jump target, source-map entry and crash-dump
  ``pc`` of the original code object stays valid;
* a run retires exactly ``len(components)`` steps, so ``executed`` /
  budget accounting matches unfused execution (within the documented
  end-of-block slack, see :mod:`repro.reliability.budget`);
* runs are capped at :data:`MAX_FUSE_LEN` components, which bounds the
  budget-metering slack.
"""

from __future__ import annotations

from dataclasses import replace

from ..exec.intrinsics import is_reduction_call
from .isa import CodeObject, Instr, Op

__all__ = ["FusedRun", "MAX_FUSE_LEN", "FUSIBLE_OPS", "fuse_code", "jump_targets"]

#: Upper bound on components per superinstruction; also the documented
#: budget-metering slack (a fused run is ticked once, after it retires).
MAX_FUSE_LEN = 32

#: Opcodes that may appear inside a fused run.  Everything else —
#: control transfers, mask operations, CALL/ENTER/RET — terminates a run.
FUSIBLE_OPS = frozenset(
    {
        Op.PUSH_CONST,
        Op.LOAD,
        Op.STORE,
        Op.ALLOC,
        Op.LOAD_INDEXED,
        Op.STORE_INDEXED,
        Op.BINOP,
        Op.UNOP,
        Op.INTRINSIC,
        Op.IOTA,
        Op.VECTOR,
        Op.CTL_STORE,
        Op.FOR_INCR,
        Op.NOP,
    }
)

# Step codes: pre-decoded dispatch tags for the VM's fused-run loop.
S_PUSH_CONST = 0
S_LOAD = 1
S_STORE = 2
S_BINOP = 3
S_UNOP = 4
S_LOAD_INDEXED = 5
S_STORE_INDEXED = 6
S_INTRINSIC_ELEM = 7
S_INTRINSIC_REDUCE = 8
S_IOTA = 9
S_VECTOR = 10
S_CTL_STORE = 11
S_ALLOC = 12
S_FOR_INCR = 13
S_NOP = 14

_STEP_CODES = {
    Op.PUSH_CONST: S_PUSH_CONST,
    Op.LOAD: S_LOAD,
    Op.STORE: S_STORE,
    Op.BINOP: S_BINOP,
    Op.UNOP: S_UNOP,
    Op.LOAD_INDEXED: S_LOAD_INDEXED,
    Op.STORE_INDEXED: S_STORE_INDEXED,
    Op.IOTA: S_IOTA,
    Op.VECTOR: S_VECTOR,
    Op.CTL_STORE: S_CTL_STORE,
    Op.ALLOC: S_ALLOC,
    Op.FOR_INCR: S_FOR_INCR,
    Op.NOP: S_NOP,
}


class FusedRun:
    """The decoded body of one ``Op.FUSED`` superinstruction.

    Attributes:
        instrs: The original component instructions, in order.
        steps: One ``(code, arg, instr)`` tuple per component — ``code``
            is an ``S_*`` dispatch tag, ``arg`` a pre-decoded immediate.
        trace: One ``(pc, op_name, line)`` tuple per component, ready to
            extend the VM's crash-dump ring buffer.
        count: Number of components (== slots occupied, NOP padding
            included, so ``next_pc = pc + count``).
        last_loc: Source location of the final component (budget errors
            raised at the end of a run point here).
    """

    __slots__ = ("instrs", "steps", "trace", "count", "last_loc")

    def __init__(self, instrs: tuple[Instr, ...], start: int):
        self.instrs = instrs
        self.count = len(instrs)
        steps = []
        trace = []
        for offset, instr in enumerate(instrs):
            if instr.op not in FUSIBLE_OPS:  # pragma: no cover - fuse_code filters
                raise ValueError(f"op {instr.op.name} is not fusible")
            arg = instr.arg
            if instr.op is Op.INTRINSIC:
                name, argc = arg
                code = (
                    S_INTRINSIC_REDUCE
                    if is_reduction_call(name, argc)
                    else S_INTRINSIC_ELEM
                )
            else:
                code = _STEP_CODES[instr.op]
                if instr.op is Op.LOAD_INDEXED:
                    name, spec = arg
                    # pre-decode the common all-vector-subscript case
                    arg = (name, spec, spec == "e" * len(spec))
            steps.append((code, arg, instr))
            line = instr.loc.line if instr.loc is not None else None
            trace.append((start + offset, instr.op.name, line))
        self.steps = tuple(steps)
        self.trace = tuple(trace)
        self.last_loc = instrs[-1].loc

    def __repr__(self) -> str:
        body = "; ".join(repr(i) for i in self.instrs[:4])
        if self.count > 4:
            body += f"; ... +{self.count - 4}"
        return f"<fused {self.count}: {body}>"


def jump_targets(instructions: tuple[Instr, ...]) -> set[int]:
    """Indices that some instruction may transfer control to."""
    targets = {0}
    for instr in instructions:
        op = instr.op
        if op is Op.JUMP or op is Op.JUMP_IF_FALSE:
            targets.add(instr.arg)
        elif op is Op.FOR or op is Op.ENTER:
            targets.add(instr.arg[3])
    return targets


def fuse_code(code: CodeObject, max_len: int = MAX_FUSE_LEN) -> CodeObject:
    """Fuse straight-line runs of ``code`` into superinstructions.

    Returns a new :class:`CodeObject` with the same length, name,
    source map, routine entries and statement table (indices are
    preserved via NOP padding); memoized on
    ``code``.  A code object that already contains ``FUSED``
    instructions is returned unchanged.
    """
    cached = getattr(code, "_fused", None)
    if cached is not None:
        return cached
    instructions = code.instructions
    if any(i.op is Op.FUSED for i in instructions):
        code._fused = code
        return code
    targets = jump_targets(instructions) | set(code.entries.values())
    out: list[Instr] = []
    run: list[Instr] = []

    def flush() -> None:
        if not run:
            return
        if len(run) == 1:
            out.append(run[0])
        else:
            start = len(out)
            head = run[0]
            out.append(
                Instr(Op.FUSED, FusedRun(tuple(run), start), loc=head.loc)
            )
            out.extend(Instr(Op.NOP, loc=i.loc) for i in run[1:])
        run.clear()

    for index, instr in enumerate(instructions):
        if instr.op not in FUSIBLE_OPS:
            flush()
            out.append(instr)
            continue
        if index in targets or len(run) >= max_len:
            flush()
        run.append(instr)
    flush()
    fused = replace(code, instructions=tuple(out))
    fused._fused = fused
    code._fused = fused
    return fused
