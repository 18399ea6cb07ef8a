"""repro — loop flattening for SIMD control flow, reproduced.

A working implementation of

    Reinhard v. Hanxleden and Ken Kennedy,
    "Relaxing SIMD Control Flow Constraints using Loop
    Transformations", PLDI 1992.

The package contains everything the paper's pipeline needs:

* :mod:`repro.lang` — MiniF, the pseudo-Fortran dialect of the paper
  (F77 control flow + F90simd WHERE/FORALL + Fortran-D directives);
* :mod:`repro.analysis` — loop nests, CFG/dataflow, dependence
  testing, interval × lane-uniformity abstract interpretation, and the
  Section 6 applicability/profitability/safety report;
* :mod:`repro.diag` — the lint engine: stable-coded compile-time
  diagnostics (divergence races, provable bounds violations, Eq.2−Eq.1
  blowup warnings) plus the bytecode verifier in :mod:`repro.vm.verify`;
* :mod:`repro.transform` — loop normalization, **loop flattening**
  (Figures 10/11/12), SIMDizing (Section 3), SPMD partitioning, and
  the loop-coalescing baseline;
* :mod:`repro.exec` — sequential and MIMD interpreters with
  execution-event accounting;
* :mod:`repro.vm` — the lockstep SIMD backend: bytecode compiler,
  verifier and virtual machine;
* :mod:`repro.simd` — data layouts/granularity, CM-2 / DECmpp /
  Sparc 2 cost models, trace recording;
* :mod:`repro.md` — the GROMOS-style molecular-dynamics substrate
  (synthetic SOD, pairlists, forces);
* :mod:`repro.kernels` — the paper's EXAMPLE and NBFORCE programs
  plus Mandelbrot / region-growing / SpMV workloads;
* :mod:`repro.runtime` — the :class:`Engine`: cached compile
  pipeline, backend autoselection, structured :class:`RunResult`;
* :mod:`repro.eval` — drivers regenerating every table and figure.

Quick start — the three-call facade over a shared default Engine::

    import repro

    program = repro.compile(F77_TEXT, transform="flatten", simd=True)
    result = repro.run(F77_TEXT, {...}, nproc=64)   # backend="auto"
    report = repro.lint(F77_TEXT)
    print(result.backend, result.steps, result.wall_seconds)
    env, counters = result.env, result.counters

or, with an explicit engine::

    from repro import Engine

    engine = Engine()
    program = engine.compile(F77_TEXT, transform="flatten", simd=True)
    result = program.run({...}, nproc=64)

Repeated ``compile`` calls with the same source and options are cache
hits (``engine.stats``); artifacts are independent of ``nproc``, so
one compile serves a whole machine-width sweep.  Each backend
(``auto``, ``vm``, ``scalar``, ``mimd``, ``pmimd``), transform,
variant and layout has exactly one accepted name.
"""

from .analysis import analyze_routine, evaluate_flattening
from .diag import (
    Diagnostic,
    DiagnosticReport,
    Severity,
    lint_file,
    lint_routine,
    lint_source,
)
from .exec import ExecutionCounters, MIMDSimulator, ScalarInterpreter
from .lang import (
    check_source,
    format_source,
    parse_source,
)
from .runtime import (
    BackendConfig,
    CompiledProgram,
    Engine,
    RunResult,
    default_engine,
)
from .simd import DataDistribution, cm2, decmpp, sparc2
from .transform import (
    coalesce_nest,
    flatten_loop_nest,
    naive_simd_program,
    simdize_nest,
    simdize_structured,
)
from .transform.parallel import flatten_spmd

__version__ = "2.0.0"


# ---------------------------------------------------------------------------
# Top-level facade — the stable three-call API over the default Engine
# ---------------------------------------------------------------------------


def compile(source, **options) -> CompiledProgram:
    """Compile MiniF source through the shared default :class:`Engine`.

    ``source`` is program text or a parsed
    :class:`~repro.lang.ast.SourceFile`; ``options`` are
    :meth:`Engine.compile` keywords (``transform="flatten"``,
    ``variant``, ``simd``, ...).  Repeated calls with the same source
    and options are cache hits.
    """
    return default_engine().compile(source, **options)


def run(source, bindings=None, **options) -> RunResult:
    """Compile and execute in one call; returns a :class:`RunResult`.

    ``options`` are :meth:`CompiledProgram.run` keywords (``nproc``,
    ``backend``, ``externals``, ``budget``, ``config``, ...)::

        result = repro.run(text, {"n": 8}, nproc=64)
        print(result.backend, result.steps, result.wall_seconds)
    """
    return compile(source).run(bindings, **options)


def lint(source) -> DiagnosticReport:
    """Lint MiniF source text (or a parsed tree): the abstract-
    interpretation diagnostics plus, where bytecode exists, the VM
    verifier — without executing anything."""
    return lint_source(source)

__all__ = [
    "compile",
    "run",
    "lint",
    "Engine",
    "CompiledProgram",
    "RunResult",
    "BackendConfig",
    "default_engine",
    "parse_source",
    "format_source",
    "check_source",
    "evaluate_flattening",
    "analyze_routine",
    "lint_source",
    "lint_routine",
    "lint_file",
    "Diagnostic",
    "DiagnosticReport",
    "Severity",
    "flatten_loop_nest",
    "flatten_spmd",
    "simdize_structured",
    "simdize_nest",
    "naive_simd_program",
    "coalesce_nest",
    "ScalarInterpreter",
    "MIMDSimulator",
    "ExecutionCounters",
    "DataDistribution",
    "cm2",
    "decmpp",
    "sparc2",
    "__version__",
]
