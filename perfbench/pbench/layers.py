"""Span wrappers around each layer's public functions (traced runs only).

:func:`instrument` swaps each function named below for a wrapper that
opens a span of the layer's name around the original call and counts
what the call produced, then puts the originals back.  The program
itself is unchanged: the wrappers sit at the module attributes through
which the layers call one another, so the traced run takes exactly the
path of the untraced run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib

from repro.lang import ast
from repro.lang.errors import TransformError


def _nodes(tree) -> int:
    return sum(1 for _ in ast.walk(tree))


def _fused_blocks(code) -> int:
    from repro.vm.isa import Op

    return sum(1 for instr in code.instructions if instr.op is Op.FUSED)


# (module, attribute, span name, counter for the result).  Class
# methods are named "Class.method".
_TRANSFORM_PASSES = (
    "_flatten_program_uncached",
    "naive_simd_program",
    "spmd_program",
    "coalesce_program",
    "fission_program",
    "interchange_program",
)

TARGETS = (
    ("repro.runtime.engine", "parse_source", "lang",
     lambda tracer, tree: tracer.count("lang.nodes", _nodes(tree))),
    *(
        ("repro.transform.pipeline", name, "transform",
         lambda tracer, _tree: tracer.count("transform.applied"))
        for name in _TRANSFORM_PASSES
    ),
    ("repro.diag.rules", "analyze_routine", "analysis.abstract", None),
    ("repro.diag.rules", "build_dependence_graph", "analysis.dep", None),
    ("repro.transform.fission", "build_dependence_graph", "analysis.dep", None),
    ("repro.transform.interchange", "build_dependence_graph", "analysis.dep", None),
    ("repro.analysis.dep.report", "build_dependence_graph", "analysis.dep", None),
    ("repro.diag", "lint_routine", "diag",
     lambda tracer, report: tracer.count("diag.findings", len(report))),
    ("repro.vm.compiler", "compile_program", "vm.compiler",
     lambda tracer, code: tracer.count("vm.compiler.instructions", len(code.instructions))),
    ("repro.vm.verify", "verify_code", "vm.verify", None),
    ("repro.vm.machine", "fuse_code", "vm.fuse",
     lambda tracer, code: tracer.count("vm.fuse.fused_blocks", _fused_blocks(code))),
    ("repro.vm.machine", "SIMDVirtualMachine.run", "vm.machine", None),
    ("repro.runtime.engine", "Engine.compile", "runtime.engine", None),
    ("repro.runtime.engine", "CompiledProgram.bytecode", "runtime.engine", None),
    ("repro.runtime.engine", "CompiledProgram.diagnostics", "runtime.engine", None),
    ("repro.runtime.engine", "CompiledProgram.run", "runtime.engine", None),
    ("repro.runtime.store", "ArtifactStore.save", "runtime.store.save", None),
    ("repro.runtime.store", "ArtifactStore.load", "runtime.store.load", None),
    ("repro.exec.pmimd", "PMIMDExecutor.__init__", "exec.pmimd.start", None),
    ("repro.exec.pmimd", "ProcessWorkerHandle.__init__", "exec.pmimd.fork", None),
    ("repro.exec.shm", "ShmArena.share_bindings", "exec.shm", None),
    ("repro.exec.pmimd", "PMIMDExecutor.run", "exec.pmimd", None),
    ("repro.reliability.supervisor", "WorkerSupervisor.run", "reliability.supervisor", None),
    # The benchmark's own work between operations, so that the whole
    # window is accounted for.
    ("pbench.speed", "SpeedProbe.sample", "bench.probe", None),
    ("pbench.table1", "Table1SIMD._check", "bench.check", None),
    ("pbench.mimd", "Table1MIMD._check", "bench.check", None),
    ("pbench.compile_mix", "printed", "bench.check", None),
    ("pbench.compile_mix", "generate_sources", "bench.inputs", None),
)


def _wrap(tracer, name, original, on_result):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        with tracer.span(name):
            try:
                result = original(*args, **kwargs)
            except TransformError:
                if name == "transform":
                    tracer.count("transform.rejected")
                raise
        if on_result is not None and result is not None:
            on_result(tracer, result)
        return result

    return traced


@contextlib.contextmanager
def instrument(tracer):
    """Install the span wrappers for the duration of the block."""
    restore = []
    try:
        for module_name, attribute, span_name, on_result in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if path else getattr(owner, leaf)
            restore.append((owner, leaf, original))
            setattr(owner, leaf, _wrap(tracer, span_name, original, on_result))
        yield tracer
    finally:
        for owner, leaf, original in reversed(restore):
            setattr(owner, leaf, original)


def traced_external(tracer, function, name="md.forces"):
    """Wrap an external subroutine (``CALL force(...)``) in a span.

    Counts the lanes each call computed: the size of the second
    argument (``at1``), which is what the force routine evaluates
    whether or not a lane holds a real pair.
    """

    def external(interp, arg_exprs, args, env, *rest):
        at1 = args[1]
        lanes = getattr(getattr(at1, "data", at1), "size", 1)
        tracer.count(name + ".lanes", int(lanes))
        with tracer.span(name):
            return function(interp, arg_exprs, args, env, *rest)

    return external
