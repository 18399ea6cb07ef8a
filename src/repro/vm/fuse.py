"""Block compilation for SIMD bytecode.

The VM's per-instruction overhead — dispatch, budget tick, trace
append, operand-stack traffic, counter updates — rivals the numpy work
of a single vector opcode.  This pass runs once per
:class:`~repro.vm.isa.CodeObject` (memoized on the object) and lowers
every maximal straight-line run of *simple* opcodes into one
specialised Python closure, the way :mod:`repro.exec.scalar` lowers
statement lists:

* operand names, constants, opcode handlers, subscript specs and the
  intrinsic kind are resolved when the block is compiled, and the
  operand stack becomes local variables (a block pops the machine's
  stack only for the values it inherits, and pushes only the values it
  leaves behind);
* the block's accounting — steps, the trace ring, counter events — is
  charged in one batched update after it retires
  (:meth:`~repro.exec.counters.ExecutionCounters.record_block`).

Why generated source rather than composed closures: the scalar
interpreter composes one closure per AST node, each returning its value
to its parent.  A block is a slice of stack code, not a tree — it pops
values pushed before it, leaves values for the instructions after it,
and a value may be pushed ahead of a statement that runs before the
value's consumer.  Composing closures over it takes one step closure
per instruction around the shared list stack, and that costs a call
and list traffic per instruction: such a lowering (same helpers, same
accounting) ran table1-simd 2.9 % slower over 10 alternating pairs
(8 of 10 lost).  Generated source turns the stack into local variables
and attributes a fault to its instruction with one ``k = index`` store.

Block invariants (checked by ``tests/vm/test_fuse.py``, and by the
bytecode verifier, which composes the stack effect of a ``FUSED`` head
from its components):

* only straight-line opcodes join a block — control transfers, mask
  operations and ``CALL`` end it, so the activity mask is constant
  inside every block;
* no instruction other than the first of a block is a jump target;
* instruction indices are preserved: the ``FUSED`` head replaces the
  first instruction and every other slot keeps its own instruction, so
  a pc names the same instruction with and without blocks, and the
  machine may step into the middle of a block one instruction at a
  time (a checkpoint captured mid-block resumes there);
* a block retires exactly ``count`` steps, and the VM runs it only
  when the step budget and the next checkpoint boundary both lie at or
  beyond its end — otherwise it steps the instructions one by one, so
  budget trips and checkpoint captures land on the exact step.
"""

from __future__ import annotations

from dataclasses import replace

from ..exec.intrinsics import is_reduction_call
from ..lang.errors import MiniFError
from ..reliability.snapshot import TRACE_DEPTH
from .isa import CodeObject, Instr, Op

__all__ = ["FusedRun", "MAX_FUSE_LEN", "FUSIBLE_OPS", "fuse_code", "jump_targets"]

#: Upper bound on instructions per block (bounds the generated code).
MAX_FUSE_LEN = 32

#: Opcodes that may appear inside a block.  Everything else — control
#: transfers, mask operations, CALL/ENTER/RET — ends a block.
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

#: Subscript-spec code -> (operand count, resolver helper name).
_SUBSCRIPT = {
    "e": (1, "sub_e"),
    "f": (0, None),
    "l": (1, "sub_l"),
    "u": (1, "sub_u"),
    "b": (2, "sub_b"),
}


class FusedRun:
    """One straight-line block: the argument of its ``Op.FUSED`` head.

    Attributes:
        instrs: The block's instructions, in order.
        start: Index of the first instruction.
        count: Number of instructions (``next_pc = start + count``).
        trace: One ``(pc, op_name, line)`` tuple per instruction, for
            the VM's crash-dump ring buffer.
        tail: The last :data:`~repro.reliability.snapshot.TRACE_DEPTH`
            entries of ``trace`` (all a retired block leaves in the ring).
        last_loc: Source location of the last instruction that has one.
        bind: ``bind(vm, helpers)`` returns the block's closure for one
            run: a dispatch handler ``(instr, pc, env, stack) -> pc``.
    """

    __slots__ = ("instrs", "start", "count", "trace", "tail", "last_loc", "bind")

    def __init__(self, instrs: tuple[Instr, ...], start: int):
        if any(i.op not in FUSIBLE_OPS for i in instrs):  # pragma: no cover
            raise ValueError("a block holds straight-line opcodes only")
        self.instrs = instrs
        self.start = start
        self.count = len(instrs)
        self.trace = tuple(
            (start + offset, instr.op.name, instr.loc.line if instr.loc else None)
            for offset, instr in enumerate(instrs)
        )
        self.tail = self.trace[-TRACE_DEPTH:]
        self.last_loc = next(
            (i.loc for i in reversed(instrs) if i.loc is not None), None
        )
        self.bind = _compile_block(self)

    def __repr__(self) -> str:
        body = "; ".join(repr(i) for i in self.instrs[:4])
        if self.count > 4:
            body += f"; ... +{self.count - 4}"
        return f"<block {self.count}: {body}>"


class _Emitter:
    """Source text of one block closure, with the operand stack held in
    local variables."""

    def __init__(self):
        self.lines: list[str] = []
        self.consts: list = []
        self.regs: list[str] = []  # simulated operand stack (names)
        self.fresh = 0
        self.used: set[str] = set()

    def reg(self) -> str:
        self.fresh += 1
        return f"r{self.fresh}"

    def const(self, value) -> str:
        """A closure variable holding ``value``: names and constants stay
        out of the source, so blocks of the same shape share its code."""
        self.consts.append(value)
        return f"c{len(self.consts) - 1}"

    def helper(self, name: str) -> str:
        self.used.add(name)
        return name

    def line(self, text: str) -> None:
        self.lines.append("            " + text)

    def pop(self) -> str:
        """The top operand: a register, or the machine stack's top value
        (inherited from before the block) read into a fresh register."""
        if self.regs:
            return self.regs.pop()
        name = self.reg()
        self.line(f"{name} = stack.pop()")
        return name

    def pop_n(self, count: int) -> list[str]:
        """The top ``count`` operands in push order."""
        values = [self.pop() for _ in range(count)]
        values.reverse()
        return values

    def push(self, expr: str) -> None:
        name = self.reg()
        self.line(f"{name} = {expr}")
        self.regs.append(name)

    def subscripts(self, spec: str) -> str:
        """Pop a subscript spec's operands; the resolved-list expression."""
        operands = []
        for code in reversed(spec):
            operands.append(self.pop_n(_SUBSCRIPT[code][0]))
        operands.reverse()
        items = []
        for code, values in zip(spec, operands):
            helper = _SUBSCRIPT[code][1]
            if helper is None:
                items.append(self.helper("FULL"))
            else:
                items.append(f"{self.helper(helper)}({', '.join(values)})")
        return f"[{', '.join(items)}]"


def _emit(out: _Emitter, instr: Instr) -> None:
    """Append the code of one instruction (the semantics of the VM's
    per-instruction handler of the same opcode)."""
    op = instr.op
    arg = instr.arg
    if op is Op.PUSH_CONST:
        out.regs.append(out.const(arg))
    elif op is Op.LOAD:
        out.push(f"env[{out.const(arg)}]")
    elif op is Op.STORE:
        value = out.pop()
        out.line(f"{out.helper('store')}(env, {out.const(arg)}, {value}, events)")
    elif op is Op.BINOP:
        right = out.pop()
        left = out.pop()
        fn = out.helper(f"binop_{_OPNAMES[arg]}") if arg in _OPNAMES else None
        if fn is None:
            out.push(f"{out.helper('binop')}({out.const(arg)}, {left}, {right}, events)")
        else:
            out.push(f"{fn}({left}, {right}, events)")
    elif op is Op.UNOP:
        operand = out.pop()
        out.push(f"{out.helper('unop')}({out.const(arg)}, {operand}, events)")
    elif op is Op.LOAD_INDEXED:
        name, spec = arg
        subs = out.subscripts(spec)
        out.push(f"{out.helper('load_indexed')}(env, {out.const(name)}, {subs}, events)")
    elif op is Op.STORE_INDEXED:
        name, spec = arg
        subs = out.subscripts(spec)
        value = out.pop()
        out.line(
            f"{out.helper('store_indexed')}(env, {out.const(name)}, {subs}, {value}, events)"
        )
    elif op is Op.INTRINSIC:
        name, argc = arg
        args = out.pop_n(argc)
        kind = "reduce" if is_reduction_call(name, argc) else "elemental"
        out.push(f"{out.helper(kind)}({out.const(name)}, [{', '.join(args)}], events)")
    elif op is Op.IOTA:
        hi = out.pop()
        lo = out.pop()
        out.push(f"{out.helper('iota')}({lo}, {hi})")
    elif op is Op.VECTOR:
        items = out.pop_n(arg)
        out.push(f"{out.helper('vector')}([{', '.join(items)}])")
    elif op is Op.ALLOC:
        extents = out.pop_n(arg[1])
        out.line(f"{out.helper('alloc')}(env, [{', '.join(extents)}], {out.const(arg)})")
    elif op is Op.CTL_STORE:
        name, mode = arg
        value = out.pop()
        if mode == "int":
            what = out.const(f"loop control '{name}'")
            value = f"{out.helper('uniform_int')}({value}, {what})"
        out.line(f"env[{out.const(name)}] = {value}")
    elif op is Op.FOR_INCR:
        counter, stride = (out.const(name) for name in arg)
        out.line(f"env[{counter}] = env[{counter}] + env[{stride}]")
    # NOP: a label placeholder, nothing to do


#: BINOP spellings with a specialised helper (``binop_<name>``).
_OPNAMES = {
    "+": "add", "-": "sub", "*": "mul",
    "==": "eq", "/=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge",
}


#: Compiled closure factories by source text, cleared when it fills.
#: Names and constants are closure variables, so the source depends only
#: on a block's shape and programs share it: serve-mix's 24 run programs
#: have 222 blocks but 73 sources, which compile in 60 ms with the cache
#: and 130 ms without.  An entry (code object and source key) is about
#: 5 KiB, so the bound caps the cache near 2.5 MiB; the Table-1 kernels
#: use 14 sources, ``repro fuzz --seed 0 -n 30`` 220.
_FACTORIES: dict = {}
_MAX_FACTORIES = 512


def _compile_block(run: FusedRun):
    """Generate the closure factory of one block."""
    out = _Emitter()
    loads = {}  # instruction index -> variable name (KeyError -> unset)
    for index, instr in enumerate(run.instrs):
        if instr.op is not Op.PUSH_CONST and instr.op is not Op.NOP:
            out.line(f"k = {index}")
        if instr.op is Op.LOAD:
            loads[index] = instr.arg
        _emit(out, instr)
    if out.regs:
        out.line(f"stack.extend(({', '.join(out.regs)},))")
    count = out.const(run.count)
    next_pc = out.const(run.start + run.count)
    consts = ", ".join(f"c{i}" for i in range(len(out.consts)))
    source = "\n".join(
        [
            "def bind(vm, helpers, consts, run, loads, head):",
            f"    ({consts},) = consts",
            *(f"    {name} = helpers[{name!r}]" for name in sorted(out.used)),
            "    step = helpers['dispatch'][head.op]",
            "    retire = helpers['retire']",
            "    fault = helpers['fault']",
            "    unset = helpers['unset']",
            "    def block(instr, pc, env, stack):",
            f"        if vm.executed + {count} > vm.stop_at:",
            "            return step(head, pc, env, stack)",
            "        events = []",
            "        k = 0",
            "        try:",
            *(out.lines or ["            pass"]),
            "        except KeyError:",
            "            if k not in loads:",
            "                raise",
            "            raise fault(run, k, events, unset(loads[k])) from None",
            "        except MiniFError as error:",
            "            raise fault(run, k, events, error)",
            "        retire(run, events)",
            f"        return {next_pc}",
            "    return block",
        ]
    )
    code = _FACTORIES.get(source)
    if code is None:
        if len(_FACTORIES) >= _MAX_FACTORIES:
            _FACTORIES.clear()
        code = _FACTORIES[source] = compile(source, "<block>", "exec")
    namespace: dict = {"MiniFError": MiniFError}
    exec(code, namespace)
    factory = namespace["bind"]
    frozen = tuple(out.consts)
    head = run.instrs[0]

    def bind(vm, helpers_map):
        return factory(vm, helpers_map, frozen, run, loads, head)

    return bind


def jump_targets(instructions: tuple[Instr, ...]) -> set[int]:
    """Indices that some instruction may transfer control to."""
    targets = {0}
    for instr in instructions:
        op = instr.op
        if op is Op.JUMP or op is Op.JUMP_IF_FALSE:
            targets.add(instr.arg)
        elif op is Op.FOR or op is Op.ENTER:
            targets.add(instr.arg[-1])
    return targets


def fuse_code(code: CodeObject, max_len: int = MAX_FUSE_LEN) -> CodeObject:
    """Compile the straight-line blocks of ``code``.

    Returns a new :class:`CodeObject` with the same length, name,
    source map, routine entries and statement table: each block's first
    slot holds an ``Op.FUSED`` head whose argument is the block's
    :class:`FusedRun`, and every other slot keeps its instruction.
    Memoized on ``code``; a code object that already contains ``FUSED``
    heads is returned unchanged.
    """
    cached = getattr(code, "_fused", None)
    if cached is not None:
        return cached
    instructions = code.instructions
    if any(i.op is Op.FUSED for i in instructions):
        code._fused = code
        return code
    targets = jump_targets(instructions) | set(code.entries.values())
    out = list(instructions)
    run: list[int] = []

    def flush() -> None:
        if len(run) > 1:
            start = run[0]
            block = FusedRun(tuple(instructions[i] for i in run), start)
            out[start] = Instr(Op.FUSED, block, loc=instructions[start].loc)
        run.clear()

    for index, instr in enumerate(instructions):
        if instr.op not in FUSIBLE_OPS:
            flush()
            continue
        if index in targets or len(run) >= max_len:
            flush()
        run.append(index)
    flush()
    fused = replace(code, instructions=tuple(out))
    fused._fused = fused
    code._fused = fused
    return fused
