"""The differential oracle: all legal variants must agree.

For each generated program the oracle runs the sequential scalar
reference, then every row of the leg table :data:`LEGS` (DESIGN.md §8
lists the same matrix).  A row is data: its label, the compile options,
how the compiled program runs (:class:`Run`), what the run is compared
with, and the gate that says when the leg applies.  One runner,
:meth:`DifferentialOracle._run_leg`, executes every row, so a new pass
or backend joins the comparison as one more row.

Comparisons (a row's ``compare`` names one or more):

* ``reference`` — every observable output equals the scalar reference's
  (arrays exactly, observed scalars uniform across PEs).  The planted
  work marker ``w`` is one of those outputs, and the reference itself
  must sum it to the generator-predicted total, so every leg that
  matches the reference conserves work too.
* ``twin`` — :func:`repro.reliability.check_agreement` against a twin
  run of the same program: env *and* exact operation counters.  Every
  lockstep leg gets the same check against the VM's test-only
  tree-walking twin (:mod:`repro.fuzz.twin`).
* ``hook`` — the :class:`~repro.fuzz.invariants.ValidatingHook` of a
  hooked VM run: latched-flag monotonicity and, for partitioned forms,
  the Eq. 1 per-lane work of the layout.

The applicability analysis (:mod:`repro.analysis.applicability`) is
consulted for every variant/assumption combination and must agree with
what the transform actually accepts: a variant the report promises but
the transform rejects (or vice versa) is a **checker gap**, and so is a
serializing outer loop the dependence test calls parallel.  A wrong
answer on any leg that runs is an ``env-divergence`` whether or not the
checker accepted the program unassisted.  The stronger flattening
variants run under ``assume_min_trips`` only when the data make that
assertion true, so a violated assertion is never compared.

Two static checkers are cross-checked against the runtime as well.
Every leg's :class:`~repro.vm.isa.CodeObject` passes through the
bytecode verifier (:mod:`repro.vm.verify`) before it runs — a finding
on compiler-emitted code is a ``verifier`` divergence.  And the lint
engine (:mod:`repro.diag`) is correlated with observed behaviour in
both directions: a runtime :class:`DivergenceFault` /
:class:`OutOfBoundsFault` on a lint-clean program, or lint *errors* on
a program every leg runs clean, are ``checker-gap`` divergences.

Verdict kinds: ``env-divergence`` (legal leg disagrees with the
reference), ``backend-disagreement`` (a leg disagrees with its twin, or
the VM with the tree-walking twin), ``fault`` (a legal leg crashed),
``checker-gap``, ``verifier`` (compiler-emitted bytecode failed
verification), ``invariant`` (translation validation failed: flag
monotonicity, Eq. 1 per-lane work, total-work conservation of the
reference run).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis import evaluate_flattening
from ..diag import lint_source
from ..lang import ast
from ..lang.errors import MiniFError, TransformError
from ..lang.parser import parse_source
from ..reliability import crash_dump_for
from ..reliability.budget import Budget
from ..reliability.errors import (
    BackendFault,
    BudgetExceeded,
    DivergenceFault,
    OutOfBoundsFault,
)
from ..reliability.faults import FaultPlan
from ..reliability.policy import FallbackPolicy, check_agreement
from ..reliability.supervisor import SupervisionPolicy
from ..runtime.config import BackendConfig
from ..runtime.engine import Engine
from ..vm.fuse import fuse_code
from ..vm.verify import verify_code
from ..transform.pipeline import find_nest_sites, structurize_program
from .generator import GeneratedProgram
from .invariants import (
    ValidatingHook,
    check_work_conservation,
    predicted_lane_work,
)
from .twin import run_twin

#: Variant strength order used to cross-check the applicability report.
_RANK = {"general": 0, "optimized": 1, "done": 2}

#: Config of divergences found by the scalar reference run itself.
REFERENCE = "none/scalar"

#: Per-shard worker fault probability of the pmimd chaos leg.
CHAOS_RATE = 0.1

#: Placeholders in a row's compile options, filled in per program.
NPROC = "<nproc>"  # the oracle's PE count
MIN_TRIPS_OK = "<min_trips_ok>"  # True when no inner loop has 0 trips

#: Gates that are oracle switches: the leg runs only when it is on.
SWITCHES = ("pmimd", "pmimd_chaos")


@dataclass
class Divergence:
    """One detected bug candidate.

    Attributes:
        kind: ``env-divergence`` / ``backend-disagreement`` / ``fault``
            / ``checker-gap`` / ``verifier`` / ``invariant``.
        config: The leg it occurred on — a :data:`LEGS` label, or the
            reference run / static cross-check that found it.
        detail: Human-readable description of the disagreement.
        crash_dump: Postmortem from :mod:`repro.reliability` when the
            leg faulted.
    """

    kind: str
    config: str
    detail: str
    crash_dump: dict | None = None

    def key(self) -> tuple[str, str]:
        """Identity used by the reducer: same kind on the same leg."""
        return (self.kind, self.config)


@dataclass
class LegOutcome:
    """How one leg of the matrix went: ``ok``/``rejected``/``skipped``."""

    label: str
    status: str
    detail: str = ""


@dataclass
class ProgramVerdict:
    """Oracle result for one program."""

    program: GeneratedProgram
    legs: list[LegOutcome] = field(default_factory=list)
    divergences: list[Divergence] = field(default_factory=list)
    #: ``(leg label, fault class name)`` for every run that died with a
    #: divergence/bounds fault — the lint cross-check's evidence.
    runtime_faults: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


@dataclass(frozen=True)
class Run:
    """How a leg runs its compiled program.

    ``kind`` is one of:

    * ``scalar`` — the sequential interpreter;
    * ``mimd`` — P private processors, each env compared;
    * ``lockstep`` — the VM, held to its tree-walking twin
      (:mod:`repro.fuzz.twin`): env and counters must agree;
    * ``hooked`` — the VM under a :class:`ValidatingHook`; with
      ``layout`` set the hook also counts per-lane work for the Eq. 1
      check;
    * ``vm-fuse`` — the VM with block closures and per instruction;
      the block-compiled run is the twin, its code must verify too, and
      a fault must leave the same crash dump in both modes;
    * ``resume`` — ``backend`` (``vm`` or ``scalar``) killed at a
      seeded interior step while checkpointing, then resumed from its
      last checkpoint; the uninterrupted run is the twin;
    * ``pmimd`` — forked workers under ``plan(program)`` (a
      :class:`FaultPlan`), ``policy`` and ``checkpoint_every``; the
      in-process mimd run of the same program is the twin, and every
      failed attempt must carry a taxonomy classification.
    """

    kind: str
    backend: str = ""
    layout: str | None = None
    plan: object = None
    policy: FallbackPolicy | None = None
    checkpoint_every: int | None = None

    @property
    def bytecode(self) -> bool:
        """Whether the run lowers the program to VM bytecode."""
        return self.kind in ("lockstep", "hooked", "vm-fuse") or (
            self.backend == "vm"
        )


@dataclass(frozen=True)
class Leg:
    """One row of the differential matrix.

    Attributes:
        label: The leg's name in verdicts, corpus entries and stats.
        options: ``Engine.compile`` keywords; :data:`NPROC` and
            :data:`MIN_TRIPS_OK` values are filled in per program.
        run: How the compiled program runs.
        compare: What the run must match: ``reference``, ``twin``
            and/or ``hook`` (see the module docstring).
        gate: When the leg applies: ``always``; ``partitioned`` (the
            generator *and* the Section 6 dependence test call the
            outer loop parallel — the partitioned forms, which compare
            only uniform scalars); ``accepted`` (the transform accepts
            the program plain, or ``assume_min_trips`` is true on its
            data); or an oracle switch from :data:`SWITCHES`.
    """

    label: str
    options: dict
    run: Run
    compare: tuple[str, ...] = ("reference",)
    gate: str = "always"


def _chaos_plan(prog: GeneratedProgram) -> FaultPlan:
    """Seeded worker kill/hang/slow faults on a share of the shards."""
    return FaultPlan(
        seed=(prog.seed << 20) ^ prog.index,
        worker_fault_rate=CHAOS_RATE,
        slow_seconds=0.01,
        hang_seconds=2.0,
        backends=("pmimd",),
    )


def _kill_plan(prog: GeneratedProgram) -> FaultPlan:
    """Shard 0's first attempt dies a few statements in, between
    checkpoint boundaries; the supervisor must replay it from the
    per-processor checkpoint store."""
    return FaultPlan(
        seed=(prog.seed << 20) ^ prog.index ^ 0x5EED,
        worker_kill=(0,),
        kill_after_steps=3 + prog.index % 13,
        backends=("pmimd",),
    )


_LOCKSTEP = Run("lockstep")
_SCALAR = Run("scalar")
_FUSE = Run("vm-fuse")
_TWIN = ("reference", "twin")
_HOOK = ("reference", "hook")
_FLATTEN = {"transform": "flatten"}
_GENERAL = dict(_FLATTEN, variant="general")
_BLOCK = {"transform": "spmd", "variant": "general", "layout": "block",
          "width": NPROC}

#: The leg matrix, in the order the legs run (and divergences are found).
LEGS: tuple[Leg, ...] = (
    Leg("none/simd", {}, _LOCKSTEP),
    Leg("none/mimd", {}, Run("mimd")),
    # Durable execution: interrupt + resume == uninterrupted, exactly.
    Leg("none/vm-ckpt", {}, Run("resume", backend="vm"), _TWIN),
    Leg("none/interp-ckpt", {}, Run("resume", backend="scalar"), _TWIN),
    # Process-parallel: pmimd runs the same per-processor programs as
    # the mimd simulator, so it must be indistinguishable from it —
    # also under injected worker faults with a pmimd->mimd fallback.
    Leg("none/pmimd", {}, Run("pmimd"), _TWIN, gate="pmimd"),
    Leg("none/pmimd-chaos", {},
        Run("pmimd", plan=_chaos_plan,
            policy=FallbackPolicy(chain=("pmimd", "mimd"), retries=1)),
        _TWIN, gate="pmimd_chaos"),
    Leg("none/pmimd-ckpt", {},
        Run("pmimd", plan=_kill_plan, checkpoint_every=5),
        _TWIN, gate="pmimd_chaos"),
    # Superinstruction fusion and its batched accounting must be
    # observationally invisible: env, step totals and event breakdown.
    Leg("none/vm-fuse", {}, _FUSE, ("twin",)),
    Leg("flatten/auto/vm-fuse", _FLATTEN, _FUSE, ("twin",)),
    Leg("flatten/general/f77", dict(_GENERAL, simd=False), _SCALAR),
    Leg("flatten/general/simd", _GENERAL, _LOCKSTEP),
    # The conservative variant's latched flag is monotone per lane.
    Leg("flatten/general/hooked", _GENERAL, Run("hooked"), _HOOK),
    # Run as the checker accepts them, or under assume_min_trips when
    # the data make it true — never under a false assertion.
    Leg("flatten/optimized/simd", dict(_FLATTEN, variant="optimized"),
        _LOCKSTEP, gate="accepted"),
    Leg("flatten/done/simd", dict(_FLATTEN, variant="done"),
        _LOCKSTEP, gate="accepted"),
    Leg("flatten/auto/simd", dict(_FLATTEN, assume_min_trips=MIN_TRIPS_OK),
        _LOCKSTEP),
    Leg("coalesce/f77", {"transform": "coalesce"}, _SCALAR),
    # Fission and interchange consult the dependence graph for
    # legality, so every accepted program is a soundness claim about
    # its distance/direction vectors; rejections are expected.
    Leg("none/fission/f77", {"transform": "fission"}, _SCALAR),
    Leg("none/fission", {"transform": "fission"}, _LOCKSTEP),
    Leg("none/interchange/f77", {"transform": "interchange"}, _SCALAR),
    Leg("none/interchange", {"transform": "interchange"}, _LOCKSTEP),
    Leg("simdize/block", {"transform": "simdize", "layout": "block",
                          "width": NPROC}, _LOCKSTEP, gate="partitioned"),
    Leg("spmd/general/block", _BLOCK, _LOCKSTEP, gate="partitioned"),
    Leg("spmd/auto/cyclic", dict(_BLOCK, variant="auto", layout="cyclic",
                                 assume_min_trips=MIN_TRIPS_OK),
        _LOCKSTEP, gate="partitioned"),
    # Eq. 1: per-lane useful iterations match the layout's assignment.
    Leg("spmd/general/block/hooked", _BLOCK, Run("hooked", layout="block"),
        _HOOK, gate="partitioned"),
)


def _outer_flag_name(tree: ast.SourceFile) -> str | None:
    """Name of the flattened loop's latched continue flag.

    The flattening emits ``WHILE (any(flag))`` around the fused body;
    only that outermost flag is monotone per lane (inner-level flags
    re-arm when a lane advances to its next outer iteration).  The
    first WHILE in document order is the outermost one.
    """
    for node in ast.walk_body(tree.main.body):
        if isinstance(node, ast.While):
            cond = node.cond
            if (
                isinstance(cond, (ast.Call, ast.ArrayRef))
                and cond.name == "any"
            ):
                args = cond.args if isinstance(cond, ast.Call) else cond.subs
                if len(args) == 1 and isinstance(args[0], ast.Var):
                    return args[0].name
            if isinstance(cond, ast.Var):
                return cond.name
            return None
    return None


def _dump(error: BaseException) -> dict:
    """Postmortem for any exception (MiniF errors carry snapshots)."""
    if isinstance(error, MiniFError):
        return crash_dump_for(error)
    return {"error": type(error).__name__, "message": str(error)}


def _copy_bindings(bindings: dict) -> dict:
    return {
        name: value.copy() if isinstance(value, np.ndarray) else value
        for name, value in bindings.items()
    }


def _describe(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


def _record(verdict, kind, config, detail, error=None, leg=None) -> None:
    """Record a divergence; with ``leg`` (``faulted``/``diverged``) also
    mark the leg as run with that outcome."""
    dump = None if error is None else _dump(error)
    verdict.divergences.append(Divergence(kind, config, detail, dump))
    if isinstance(error, (DivergenceFault, OutOfBoundsFault)):
        verdict.runtime_faults.append((config, type(error).__name__))
    if leg is not None:
        verdict.legs.append(LegOutcome(config, "ok", leg))


class _Case:
    """One program's pass through the leg table."""

    def __init__(self, prog: GeneratedProgram, ref_env: dict, report, verdict):
        import random

        self.prog, self.ref_env, self.verdict = prog, ref_env, verdict
        self.report = report  # the no-assumption applicability report
        self.twins: dict = {}
        # Drawn from by the resume legs only, in table order.
        self.rng = random.Random(
            (prog.seed << 16) ^ (prog.index * 0x9E37) ^ 0xC4C7
        )

    def bindings(self, proc: int | None = None) -> dict:
        """A fresh copy of the program's bindings (also ``bindings_for``)."""
        return _copy_bindings(self.prog.bindings)

    def mark(self, label: str, status: str = "ok", detail: str = "") -> None:
        self.verdict.legs.append(LegOutcome(label, status, detail))

    def twin(self, key: str, run):
        """The twin run ``run()`` once per program; None when it failed
        (its faults belong to the leg that runs that backend plainly)."""
        if key not in self.twins:
            try:
                self.twins[key] = run()
            except Exception:
                self.twins[key] = None
        return self.twins[key]


class _Ran:
    """A leg run that completed, and what it is compared with: the twin
    run (``backends`` names the twin, then the run), the hook, and the
    detail prefixes of an env-divergence and a backend-disagreement."""

    def __init__(self, result, twin=None, backends=("", ""), hook=None,
                 against_reference: str = "", against_twin: str = ""):
        self.result, self.twin, self.backends = result, twin, backends
        self.hook = hook
        self.against_reference = against_reference
        self.against_twin = against_twin


class DifferentialOracle:
    """Runs the variant x backend matrix for generated programs.

    Args:
        nproc: Lockstep PE count for the SIMD/SPMD/MIMD legs.
        engine: Compile cache to use (fresh when omitted — the fuzz
            session must never share a cache with a mutated transform
            under mutation testing).
        pmimd: Also run the process-parallel pmimd backend on every
            program and demand env + counter agreement with the
            in-process MIMD simulator (opt-in: forks worker processes
            per program).
        pmimd_chaos: Additionally run pmimd under a seeded
            :class:`FaultPlan` injecting worker kill/hang/slow faults
            at :data:`CHAOS_RATE` with a pmimd->mimd fallback chain,
            and with shard 0 killed between checkpoint boundaries; the
            supervised (or degraded) run must still match the
            reference, and every failed attempt must carry a taxonomy
            classification.  Implies nothing about ``pmimd`` — enable
            both for the full matrix.
    """

    #: Supervision tuned for fuzzing: fast wedge detection and small
    #: backoffs so an injected hang costs well under a second.
    FUZZ_SUPERVISION = SupervisionPolicy(
        wedge_timeout=0.75,
        backoff_base_seconds=0.01,
        backoff_max_seconds=0.05,
        straggler_floor_seconds=0.2,
    )

    def __init__(
        self,
        nproc: int = 4,
        engine: Engine | None = None,
        *,
        pmimd: bool = False,
        pmimd_chaos: bool = False,
    ):
        if nproc < 2:
            raise ValueError(f"the oracle needs nproc >= 2, got {nproc}")
        self.nproc = nproc
        self.engine = engine if engine is not None else Engine(cache_size=512)
        self.pmimd = pmimd
        self.pmimd_chaos = pmimd_chaos
        # Compile keys whose bytecode this check verified — the legs
        # share compiles, and a key names its code by content (an
        # evicted CodeObject's id can come back on a different one).
        self._verified: set = set()

    @classmethod
    def for_leg(cls, config: str, nproc: int = 4) -> DifferentialOracle:
        """An oracle that runs the leg named ``config``, switching on
        the opt-in legs it needs (corpus replay)."""
        switches = {
            leg.gate: True
            for leg in LEGS
            if leg.label == config and leg.gate in SWITCHES
        }
        return cls(nproc, **switches)

    # -- public API ----------------------------------------------------------

    def check(self, prog: GeneratedProgram) -> ProgramVerdict:
        """Run the full matrix for one program."""
        verdict = ProgramVerdict(prog)
        try:
            ref_env = self._reference(prog)
        except Exception as error:
            detail = f"reference run failed: {_describe(error)}"
            _record(verdict, "fault", REFERENCE, detail, error)
            return verdict
        conserved = check_work_conservation(ref_env, prog.total_work)
        if conserved is not None:
            _record(verdict, "invariant", REFERENCE, conserved)
            return verdict

        report = self._consult_applicability(prog, verdict)
        case = _Case(prog, ref_env, report, verdict)
        self._verified = set()
        for leg in LEGS:
            self._run_leg(case, leg)
        self._lint_cross_check(prog, verdict)
        return verdict

    def check_leg(self, prog: GeneratedProgram, config: str) -> Divergence | None:
        """Re-run the matrix and return the first divergence on ``config``.

        The reducer's predicate: a shrunk program still "fails the same
        way" when the same leg reports the same kind of divergence.
        """
        verdict = self.check(prog)
        for divergence in verdict.divergences:
            if divergence.config == config:
                return divergence
        return None

    # -- reference and comparison --------------------------------------------

    def _reference(self, prog: GeneratedProgram) -> dict:
        result = self.engine.run(
            prog.source, _copy_bindings(prog.bindings), backend="scalar"
        )
        return result.env

    def _mismatch(
        self, case: _Case, env: dict, partitioned: bool
    ) -> str | None:
        """First observable disagreement with the reference, or None."""
        prog, ref_env = case.prog, case.ref_env
        for name in prog.outputs:
            ref = ref_env.get(name)
            if ref is None:
                continue
            got = env.get(name)
            if got is None:
                return f"array '{name}' missing from final environment"
            a = np.asarray(getattr(ref, "data", ref))
            b = np.asarray(getattr(got, "data", got))
            if a.shape != b.shape:
                return f"array '{name}' shape {b.shape} != {a.shape}"
            if not np.array_equal(a, b):
                where = np.argwhere(a != b)[0].tolist()
                return (
                    f"array '{name}' differs first at {where}: "
                    f"{b[tuple(where)]} != {a[tuple(where)]}"
                )
        # Scalar accumulators replicate per lane in partitioned runs and
        # carry per-lane partials; only the unpartitioned legs compare
        # them (partitioned legs exclude accumulator programs anyway).
        for name in prog.observables if not partitioned else ("k",):
            ref = ref_env.get(name)
            if ref is None:
                continue
            got = env.get(name)
            if got is None:
                return f"scalar '{name}' missing from final environment"
            value = np.asarray(got)
            if value.ndim >= 1:
                if not np.all(value == value.flat[0]):
                    return (
                        f"scalar '{name}' diverged across lanes: "
                        f"{value.tolist()}"
                    )
                value = value.flat[0]
            if int(value) != int(ref):
                return f"scalar '{name}' = {int(value)}, expected {int(ref)}"
        return None

    # -- applicability consultation ------------------------------------------

    def _accepts(self, prog: GeneratedProgram, options: dict) -> bool:
        """Whether the transform accepts ``prog`` under ``options``."""
        try:
            self.engine.compile(prog.source, **options)
        except TransformError:
            return False
        return True

    def _consult_applicability(
        self, prog: GeneratedProgram, verdict: ProgramVerdict
    ):
        """Cross-check the Section 6 checker against the transform.

        Returns the no-assumption report (for the safety verdict), and
        records a checker-gap divergence whenever the strongest variant
        the report promises is not exactly what the transform accepts.
        """
        tree = structurize_program(parse_source(prog.source))
        sites = find_nest_sites(tree)
        if not sites:
            _record(verdict, "checker-gap", "analysis/applicability",
                    "generator emitted a nest the site finder cannot see")
            return None
        stmt = sites[0].stmt
        base_report = None
        for amt in (False, True):
            report = evaluate_flattening(stmt, assume_min_trips=amt)
            if base_report is None:
                base_report = report
            promised = _RANK.get(report.variant, -1)
            for variant in ("optimized", "done"):
                compiled = self._accepts(
                    prog,
                    {"transform": "flatten", "variant": variant,
                     "assume_min_trips": amt},
                )
                if compiled != (_RANK[variant] <= promised):
                    _record(verdict, "checker-gap",
                            f"flatten/{variant}/assume={amt}",
                            f"applicability promises '{report.variant}' "
                            f"but variant '{variant}' "
                            f"{'compiled' if compiled else 'was rejected'}")
        # "Safe" on a serializing loop is accepted-but-wrong — unless
        # the analysis itself qualifies it as needing reduction
        # support, which partition_outer does not provide (and the
        # partitioned legs stay off either way).
        if (
            not prog.partitionable
            and base_report.safe is True
            and not base_report.parallelism.reductions
        ):
            _record(verdict, "checker-gap", "analysis/dependence",
                    "dependence test calls a serializing outer loop "
                    "parallel (accepted-but-wrong risk)")
        return base_report

    def _lint_cross_check(
        self, prog: GeneratedProgram, verdict: ProgramVerdict
    ) -> None:
        """Correlate the static lint report with observed behaviour.

        A divergence/bounds fault on a lint-clean program means the
        abstract interpreter under-approximated (a rule gap); lint
        *errors* on a program that every leg ran clean mean it
        over-approximated badly enough to flag generator output.
        Either direction is a checker gap worth a bug report.
        """
        try:
            report = lint_source(prog.source, filename="<fuzz>")
        except Exception as error:  # the linter must never kill the oracle
            _record(verdict, "checker-gap", "lint/static",
                    f"lint crashed on generator output: {_describe(error)}")
            return
        codes = sorted({finding.code for finding in report.errors})
        if verdict.runtime_faults and not codes:
            leg, fault = verdict.runtime_faults[0]
            _record(verdict, "checker-gap", "lint/runtime",
                    f"lint is error-clean but leg '{leg}' raised "
                    f"{fault} at run time")
        elif codes and not verdict.runtime_faults and not any(
            d.kind == "fault" for d in verdict.divergences
        ):
            _record(verdict, "checker-gap", "lint/runtime",
                    f"lint reports {codes} but every leg ran clean")

    # -- the leg runner ------------------------------------------------------

    def _run_leg(self, case: _Case, leg: Leg) -> None:
        """Gate, compile, run and compare one row of :data:`LEGS`."""
        options = self._gate(case, leg)
        if options is None:
            return
        program = self._compile(case, leg, options)
        if program is None:
            return
        if leg.run.bytecode:
            self._verify_bytecode(program, leg.label, case.verdict)
        try:
            ran = self._execute(case, leg, program)
        except Exception as error:
            kind, detail = "fault", _describe(error)
            if isinstance(error, BackendFault) and leg.run.kind == "lockstep":
                # the VM and its tree-walking twin disagreed
                kind, detail = "backend-disagreement", str(error)
            elif not isinstance(error, MiniFError):
                detail = f"unwrapped exception escaped the backend: {detail}"
            leg_status = "faulted" if kind == "fault" else "diverged"
            _record(case.verdict, kind, leg.label, detail, error, leg_status)
            return
        if ran is not None and self._compare(case, leg, ran):
            case.mark(leg.label)

    def _gate(self, case: _Case, leg: Leg) -> dict | None:
        """The compile options ``leg`` runs with on this program, or
        None when it does not apply (recording why, unless the leg is
        switched off)."""
        prog = case.prog
        fill = {NPROC: self.nproc, MIN_TRIPS_OK: prog.min_trips_ok}
        options = {
            name: fill.get(value, value) for name, value in leg.options.items()
        }
        if leg.gate in SWITCHES:
            return options if getattr(self, leg.gate) else None
        if leg.gate == "partitioned":
            safe = None if case.report is None else case.report.safe
            if prog.partitionable and safe is True:
                return options
            # one record for the whole partitioned group
            if not any(o.label == "spmd+simdize" for o in case.verdict.legs):
                case.mark("spmd+simdize", "skipped",
                          "outer loop not partitionable "
                          f"(generator={prog.partitionable}, checker={safe})")
            return None
        if leg.gate == "accepted" and not self._accepts(prog, options):
            if not prog.min_trips_ok:
                case.mark(leg.label, "skipped",
                          "assume_min_trips would be a false assertion "
                          "(data has a zero-trip inner loop)")
                return None
            return dict(options, assume_min_trips=True)
        return options

    def _compile(self, case: _Case, leg: Leg, options: dict):
        """The leg's compiled program, or None after recording a
        rejection (``TransformError``) or a compiler crash."""
        try:
            program = self.engine.compile(case.prog.source, **options)
            if leg.run.bytecode:
                program.bytecode()  # lowering is part of the compile
            return program
        except TransformError as error:
            case.mark(leg.label, "rejected", str(error))
        except Exception as error:
            _record(case.verdict, "fault", leg.label,
                    f"compiler crashed: {_describe(error)}", error, "faulted")
        return None

    def _verify_bytecode(self, program, label: str, verdict) -> None:
        """Bytecode verifier leg: compiler-emitted code must verify."""
        code = program.bytecode()
        if code is None or program.key in self._verified:
            return
        self._verified.add(program.key)
        for finding in verify_code(code).errors:
            detail = f"[{finding.code}] {finding.message}"
            _record(verdict, "verifier", label, detail)

    def _execute(self, case: _Case, leg: Leg, program) -> _Ran | None:
        """Run the compiled program as ``leg.run`` says.  Returns None
        when the leg's outcome is already recorded."""
        run, nproc = leg.run, self.nproc
        if run.kind == "scalar":
            return _Ran(program.run(case.bindings(), backend="scalar"))
        if run.kind == "mimd":
            return _Ran(program.run(nproc=nproc, backend="mimd",
                                    bindings_for=case.bindings))
        if run.kind == "lockstep":
            # the VM, held to its tree-walking twin (BackendFault if not)
            result = program.run(case.bindings(), nproc=nproc, backend="vm")
            env, counters = run_twin(program.tree, nproc, case.bindings())
            check_agreement(result.env, result.counters, env, counters,
                            backends=("vm", "twin"))
            return _Ran(result)
        if run.kind == "hooked":
            hook = ValidatingHook(
                nproc,
                flag=_outer_flag_name(program.tree),
                marker="w" if run.layout else None,
            )
            result = program.run(case.bindings(), nproc=nproc,
                                 backend="vm", statement_hook=hook)
            return _Ran(result, hook=hook)
        if run.kind == "pmimd":
            return self._pmimd(case, leg, program)
        if run.kind == "resume":
            return self._resume(case, leg, program)
        return self._fused(case, leg, program)

    def _pmimd(self, case: _Case, leg: Leg, program) -> _Ran | None:
        mimd = case.twin("mimd", lambda: program.run(
            nproc=self.nproc, backend="mimd", bindings_for=case.bindings))
        if mimd is None:
            return None
        run = leg.run
        result = program.run(
            nproc=self.nproc,
            backend="pmimd",
            bindings_for=case.bindings,
            config=BackendConfig(workers=2, supervision=self.FUZZ_SUPERVISION),
            checkpoint_every=run.checkpoint_every,
            fault_plan=None if run.plan is None else run.plan(case.prog),
            policy=run.policy,
        )
        for attempt in result.attempts:
            if not attempt.ok and not attempt.fault_kind:
                _record(case.verdict, "fault", leg.label,
                        f"unclassified failure on backend "
                        f"'{attempt.backend}': {attempt.error}")
        return _Ran(result, mimd, ("mimd", result.backend))

    def _resume(self, case: _Case, leg: Leg, program) -> _Ran | None:
        """Interrupt at a seeded step while checkpointing every few
        steps, then resume from the last checkpoint.  When the
        interrupt lands before the first boundary, the documented
        recovery — a clean rerun — must still agree."""
        backend = leg.run.backend
        nproc = self.nproc if backend == "vm" else 0
        plain = case.twin(backend, lambda: program.run(
            case.bindings(), nproc=nproc, backend=backend))
        if plain is None:
            return None
        total = int(plain.counters.total_steps)
        every = case.rng.randrange(3, 24)
        cut = case.rng.randrange(1, total) if total > 1 else 1
        checkpoints: list = []
        try:
            program.run(
                case.bindings(),
                nproc=nproc,
                backend=backend,
                budget=Budget(max_steps=cut),
                checkpoint_every=every,
                checkpoint_sink=checkpoints.append,
            )
        except BudgetExceeded:
            pass  # the injected interrupt
        except Exception as error:
            _record(case.verdict, "fault", leg.label,
                    "interrupted run died outside the budget taxonomy: "
                    f"{_describe(error)}", error, "faulted")
            return None
        step = checkpoints[-1].step if checkpoints else 0
        try:
            if checkpoints:
                resumed = program.run(case.bindings(), backend="auto",
                                      nproc=nproc, resume_from=checkpoints[-1])
            else:
                resumed = program.run(case.bindings(), nproc=nproc,
                                      backend=backend)
        except Exception as error:
            _record(case.verdict, "fault", leg.label,
                    f"resume from step {step} failed: {_describe(error)}",
                    error, "faulted")
            return None
        where = f"(interrupt at {cut}, every {every})"
        return _Ran(
            resumed,
            plain,
            (backend, f"{backend}-resumed"),
            against_reference=f"resumed at step {step} {where}: ",
            against_twin=f"resume is not exact {where}: ",
        )

    def _fused(self, case: _Case, leg: Leg, program) -> _Ran | None:
        """Block-compiled and per-instruction VM runs; a program that
        legitimately faults must fault identically in both modes, down
        to the crash dump."""
        label, verdict = leg.label, case.verdict
        code = program.bytecode()
        if code is None:
            case.mark(label, "skipped", "no bytecode")
            return None
        for finding in verify_code(fuse_code(code)).errors:
            detail = f"fused code: [{finding.code}] {finding.message}"
            _record(verdict, "verifier", label, detail)
        runs = []
        for fuse in (True, False):
            try:
                runs.append(program.run(case.bindings(), nproc=self.nproc,
                                        backend="vm",
                                        config=BackendConfig(vm_fuse=fuse)))
            except Exception as error:
                if not isinstance(error, MiniFError):
                    _record(verdict, "fault", label,
                            "unwrapped exception escaped the VM "
                            f"(fuse={fuse}): {_describe(error)}", error)
                runs.append(error)
        fused, plain = runs
        fused_kind, plain_kind = (
            "fault" if isinstance(out, Exception) else "ok" for out in runs
        )
        types = f"{type(fused).__name__} vs {type(plain).__name__}"
        if fused_kind != plain_kind:
            _record(verdict, "backend-disagreement", label,
                    f"fused VM {fused_kind}, unfused VM {plain_kind} "
                    f"({types})", leg="diverged")
        elif fused_kind == "fault" and type(fused) is not type(plain):
            _record(verdict, "backend-disagreement", label,
                    f"fused and unfused VM faulted differently: {types}",
                    leg="diverged")
        elif fused_kind == "fault" and crash_dump_for(fused) != crash_dump_for(plain):
            _record(verdict, "backend-disagreement", label,
                    "block-compiled and per-instruction VM crash dumps differ",
                    leg="diverged")
        elif fused_kind == "fault":
            case.mark(label, "ok", "both modes faulted alike")
        else:
            return _Ran(plain, fused, ("vm+fuse", "vm-nofuse"))
        return None

    def _compare(self, case: _Case, leg: Leg, ran: _Ran) -> bool:
        """Apply the row's comparisons; False once a divergence is
        recorded and the leg marked."""
        verdict, label = case.verdict, leg.label
        if "reference" in leg.compare:
            env = ran.result.env
            envs = env if isinstance(env, list) else [env]
            for proc, env in enumerate(envs):
                detail = self._mismatch(case, env, leg.gate == "partitioned")
                if detail is not None:
                    prefix = f"proc {proc + 1}: " if len(envs) > 1 else ""
                    detail = ran.against_reference + prefix + detail
                    _record(verdict, "env-divergence", label, detail,
                            leg="diverged")
                    return False
        if "twin" in leg.compare:
            twin, result = ran.twin, ran.result
            try:
                check_agreement(twin.env, twin.counters, result.env,
                                result.counters, backends=ran.backends)
            except BackendFault as error:
                _record(verdict, "backend-disagreement", label,
                        ran.against_twin + str(error), error, "diverged")
                return False
        if "hook" in leg.compare:
            hook, layout = ran.hook, leg.run.layout
            if layout is not None:
                expected = predicted_lane_work(
                    case.prog.trip_counts, self.nproc, layout
                )
                actual = hook.lane_work.tolist()
                if actual != expected:
                    _record(verdict, "invariant", label,
                            f"Eq. 1 violated: per-lane useful iterations "
                            f"{actual} != layout-assigned work {expected}")
            for violation in hook.violations:
                _record(verdict, "invariant", label, violation)
        return True
