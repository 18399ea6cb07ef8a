"""Static verification of SIMD bytecode.

The VM (:mod:`repro.vm.machine`) trusts the compiler: an unbalanced
mask stack only surfaces at HALT, a wild jump executes garbage, and a
missing loop temp raises deep inside a run.  The verifier proves the
translation invariants *per code object, before execution*, with a
worklist dataflow over the instruction graph of every routine, each
walked from its entry (:attr:`~repro.vm.isa.CodeObject.entries`) with
empty stacks:

* every jump target lands inside the instruction sequence;
* the **mask depth** is consistent on all paths into each instruction,
  never underflows (``POP_MASK``/``ELSE_MASK`` on an empty stack) and
  is zero at every ``HALT``;
* the **operand stack depth** is consistent at merge points, never
  underflows, and is empty at every ``HALT``;
* compiler-generated registers (``__``-prefixed loop temps) are
  defined on every path before ``LOAD``/``FOR``/``FOR_INCR`` reads
  them.  User-visible names are exempt: bindings legitimately define
  them at run time.

Findings are :class:`~repro.diag.Diagnostic`\\ s with ``Vxxx`` codes,
so the CLI and the Engine report them alongside lint findings.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..diag.diagnostics import Diagnostic, DiagnosticReport, Severity
from ..lang.errors import CompileError, UNKNOWN_LOCATION
from .fuse import FUSIBLE_OPS as _FUSIBLE
from .isa import CodeObject, Instr, Op, SUB_SPECS

__all__ = [
    "VerificationError",
    "verify_code",
    "assert_verified",
    "stack_effect",
]


class VerificationError(CompileError):
    """A code object failed bytecode verification."""


#: Operand-stack pops per subscript-spec character (see SUB_SPECS).
_SPEC_POPS = {"e": 1, "f": 0, "l": 1, "u": 1, "b": 2}


def _spec_pops(spec: str) -> int:
    return sum(_SPEC_POPS[c] for c in spec)


def stack_effect(instr: Instr) -> tuple[int, int]:
    """(pops, pushes) of one instruction on the operand stack.

    Raises :class:`ValueError` for a malformed immediate argument —
    the verifier reports that as ``V008``.
    """
    op = instr.op
    arg = instr.arg
    if op is Op.PUSH_CONST or op is Op.LOAD:
        return 0, 1
    if op is Op.STORE or op is Op.CTL_STORE or op is Op.JUMP_IF_FALSE:
        return 1, 0
    if op is Op.PUSH_MASK:
        return 1, 0
    if op is Op.ALLOC:
        name, rank, _base = arg
        if not isinstance(rank, int) or rank < 0:
            raise ValueError(f"ALLOC {name!r}: bad rank {rank!r}")
        return rank, 0
    if op is Op.LOAD_INDEXED or op is Op.STORE_INDEXED:
        name, spec = arg
        if not isinstance(spec, str) or any(c not in SUB_SPECS for c in spec):
            raise ValueError(f"{op.name} {name!r}: bad subscript spec {spec!r}")
        pops = _spec_pops(spec)
        if op is Op.STORE_INDEXED:
            return pops + 1, 0
        return pops, 1
    if op is Op.BINOP:
        return 2, 1
    if op is Op.UNOP:
        return 1, 1
    if op is Op.INTRINSIC:
        _name, argc = arg
        if not isinstance(argc, int) or argc < 0:
            raise ValueError(f"INTRINSIC: bad argc {argc!r}")
        return argc, 1
    if op is Op.IOTA:
        return 2, 1
    if op is Op.VECTOR:
        if not isinstance(arg, int) or arg < 1:
            raise ValueError(f"VECTOR: bad element count {arg!r}")
        return arg, 1
    if op is Op.CALL:
        _name, arg_exprs = arg
        return len(arg_exprs), 0
    if op is Op.ENTER:
        _name, _params, arg_exprs, _entry = arg
        return len(arg_exprs), 0
    if op is Op.FUSED:
        # Compose the components' effects: the run's pops are the
        # deepest cumulative deficit, so internal underflow surfaces
        # as a V004 of the block head itself.
        components = getattr(arg, "instrs", None)
        if not components:
            raise ValueError("FUSED with no component instructions")
        depth = 0
        lowest = 0
        for comp in components:
            if comp.op is Op.FUSED or comp.op not in _FUSIBLE:
                raise ValueError(
                    f"FUSED contains non-straight-line op {comp.op.name}"
                )
            pops, pushes = stack_effect(comp)
            depth -= pops
            if depth < lowest:
                lowest = depth
            depth += pushes
        return -lowest, depth - lowest
    # ELSE_MASK, POP_MASK, JUMP, FOR, FOR_INCR, NOP, RET, HALT
    return 0, 0


def _jump_targets(instr: Instr, index: int, size: int):
    """Successor indices of one instruction (``None`` marks fallthrough)."""
    op = instr.op
    if op is Op.HALT or op is Op.RET:
        return []
    if op is Op.JUMP:
        return [instr.arg]
    if op is Op.JUMP_IF_FALSE:
        return [index + 1, instr.arg]
    if op is Op.FOR:
        return [index + 1, instr.arg[-1]]
    if op is Op.FUSED:
        # The block occupies len(components) slots (each keeps its own
        # instruction); control falls through past the last.
        return [index + len(instr.arg.instrs)]
    return [index + 1]


def _is_temp(name) -> bool:
    return isinstance(name, str) and name.startswith("__")


def _reads(instr: Instr):
    """Register names an instruction reads from the environment."""
    op = instr.op
    if op is Op.LOAD:
        return (instr.arg,)
    if op is Op.FOR:
        _var, counter, limit, stride, _exit = instr.arg
        return (counter, limit, stride)
    if op is Op.FOR_INCR:
        counter, stride = instr.arg
        return (counter, stride)
    if op is Op.FUSED:
        # A read is external only if no earlier component defined it.
        reads = []
        defined: set = set()
        for comp in instr.arg.instrs:
            for name in _reads(comp):
                if name not in defined and name not in reads:
                    reads.append(name)
            defined.update(_writes(comp))
        return tuple(reads)
    return ()


def _writes(instr: Instr):
    """Register names an instruction defines."""
    op = instr.op
    if op is Op.STORE or op is Op.ALLOC:
        name = instr.arg if op is Op.STORE else instr.arg[0]
        return (name,)
    if op is Op.CTL_STORE:
        return (instr.arg[0],)
    if op is Op.FOR_INCR:
        return (instr.arg[0],)
    if op is Op.FUSED:
        names: list = []
        for comp in instr.arg.instrs:
            for name in _writes(comp):
                if name not in names:
                    names.append(name)
        return tuple(names)
    return ()


@dataclass(frozen=True)
class _State:
    """Abstract machine state at one instruction boundary."""

    mask_depth: int
    stack_depth: int
    defined: frozenset


def verify_code(code: CodeObject) -> DiagnosticReport:
    """Statically verify one code object; returns the findings."""
    report = DiagnosticReport()
    instructions = code.instructions
    size = len(instructions)
    seen: set[tuple[str, int]] = set()

    def finding(code_id: str, index: int, message: str) -> None:
        if (code_id, index) in seen:
            return
        seen.add((code_id, index))
        instr = instructions[index] if index < size else None
        loc = instr.loc if instr is not None and instr.loc is not None else UNKNOWN_LOCATION
        report.add(
            Diagnostic(
                code=code_id,
                severity=Severity.ERROR,
                message=f"at pc {index}: {message}",
                location=loc,
                routine=code.name,
            )
        )

    if size == 0:
        finding("V001", 0, "empty code object (no HALT)")
        return report

    states: dict[int, _State] = {}
    worklist = [entry for entry in set(code.entries.values()) if entry in range(size)]
    for entry in worklist:
        states[entry] = _State(0, 0, frozenset())
    while worklist:
        index = worklist.pop()
        state = states[index]
        instr = instructions[index]
        op = instr.op

        # -- argument well-formedness & stack effect ---------------------
        try:
            pops, pushes = stack_effect(instr)
        except (ValueError, TypeError) as exc:
            finding("V008", index, f"malformed instruction argument: {exc}")
            continue

        # -- operand stack ----------------------------------------------
        if state.stack_depth < pops:
            finding(
                "V004",
                index,
                f"operand stack underflow: {op.name} pops {pops}, "
                f"depth is {state.stack_depth}",
            )
            continue
        stack_depth = state.stack_depth - pops + pushes

        # -- mask stack --------------------------------------------------
        mask_depth = state.mask_depth
        if op is Op.PUSH_MASK:
            mask_depth += 1
        elif op is Op.ELSE_MASK:
            if mask_depth < 1:
                finding("V002", index, "ELSE_MASK with empty mask stack")
                continue
        elif op is Op.POP_MASK:
            if mask_depth < 1:
                finding("V002", index, "POP_MASK with empty mask stack")
                continue
            mask_depth -= 1
        elif op is Op.ENTER and instr.arg[3] not in range(size):
            finding("V001", index, f"ENTER target {instr.arg[3]!r} outside [0, {size})")
            continue
        elif op is Op.HALT or op is Op.RET:
            # RET closes its routine's scopes; HALT must find none open
            if op is Op.HALT and mask_depth != 0:
                finding(
                    "V003",
                    index,
                    f"mask stack not drained at HALT: depth {mask_depth}",
                )
            if state.stack_depth != 0:
                finding(
                    "V005",
                    index,
                    f"operand stack not empty at {op.name}: "
                    f"depth {state.stack_depth}",
                )
            continue

        # -- registers ---------------------------------------------------
        defined = state.defined
        undefined = [
            name for name in _reads(instr) if _is_temp(name) and name not in defined
        ]
        if undefined:
            finding(
                "V006",
                index,
                f"{op.name} reads compiler temp(s) "
                f"{', '.join(repr(n) for n in undefined)} not defined on "
                "every path here",
            )
            continue
        writes = [name for name in _writes(instr) if _is_temp(name)]
        if writes:
            defined = defined | frozenset(writes)

        # -- successors --------------------------------------------------
        out = _State(mask_depth, stack_depth, defined)
        for succ in _jump_targets(instr, index, size):
            if not isinstance(succ, int) or succ < 0 or succ >= size:
                finding("V001", index, f"jump target {succ!r} outside [0, {size})")
                continue
            old = states.get(succ)
            if old is None:
                states[succ] = out
                worklist.append(succ)
                continue
            if old.mask_depth != out.mask_depth:
                finding(
                    "V007",
                    succ,
                    f"mask depth mismatch at merge: {old.mask_depth} vs "
                    f"{out.mask_depth}",
                )
                continue
            if old.stack_depth != out.stack_depth:
                finding(
                    "V005",
                    succ,
                    f"operand stack depth mismatch at merge: "
                    f"{old.stack_depth} vs {out.stack_depth}",
                )
                continue
            merged_defs = old.defined & out.defined
            if merged_defs != old.defined:
                states[succ] = _State(old.mask_depth, old.stack_depth, merged_defs)
                if succ not in worklist:
                    worklist.append(succ)
    return report


def assert_verified(code: CodeObject) -> CodeObject:
    """Verify ``code``; raise :class:`VerificationError` on findings."""
    report = verify_code(code)
    if report.has_errors:
        first = report.errors[0]
        raise VerificationError(
            f"bytecode verification of '{code.name}' failed: "
            f"{len(report.errors)} finding(s); first: [{first.code}] "
            f"{first.message}",
            diagnostics=report.errors,
            location=first.location,
        )
    return code
