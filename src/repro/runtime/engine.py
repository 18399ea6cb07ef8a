"""The compile-and-run engine: cached front end, autoselected backend.

The reproduction's pipeline — parse → structurize → flatten/simdize →
bytecode — is deterministic in the source text and the transform
options.  The :class:`Engine` memoizes it the way operator-caching DSL
compilers do:

* :meth:`Engine.compile` returns a :class:`CompiledProgram` keyed by
  the SHA-256 of the source text plus the normalized transform
  options.  The cached artifacts (transformed AST, bytecode) are
  independent of ``nproc``, so one compile serves every machine width
  of a sweep.
* :meth:`CompiledProgram.run` executes with any backend:
  ``"auto"`` runs the sequential ``"scalar"`` level at ``nproc=0`` and
  the lockstep bytecode VM (``"vm"``) otherwise — subroutine calls,
  named-routine entry and statement hooks included.  ``"mimd"`` and
  ``"pmimd"`` expose the per-processor execution level.
* every run — plain or under a
  :class:`~repro.reliability.FallbackPolicy` — folds its settings into
  one :class:`~repro.runtime.config.RunSpec` and goes through the same
  resolve → execute → result loop, and returns a
  :class:`~repro.runtime.result.RunResult` with the environment,
  counters, chosen backend, cache provenance, and wall/stage timings.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from numbers import Integral

from ..lang import ast
from ..lang.errors import InterpreterError, MiniFError, TransformError
from ..lang.parser import parse_source
from ..lang.printer import format_source
from ..reliability import (
    BACKENDS,
    Attempt,
    FallbackPolicy,
    ReliabilityError,
    crash_dump_for,
)
from ..reliability.policy import canonical_backend
from ..reliability.records import EncodeError
from ..transform.options import OPTION_FIELDS, CompileOptions
from .config import DEFAULT_CONFIG, BackendConfig, RunSpec
from .result import RunResult


@dataclass
class EngineStats:
    """Cache and dispatch counters for one :class:`Engine`.

    ``hits`` counts in-memory LRU hits — a repeated compile the
    transform pipeline rejected is one too; ``disk_hits`` counts
    artifacts served from the persistent
    :class:`~repro.runtime.store.ArtifactStore` tier (a disk hit skips
    the transform pipeline but still pays one load and decode);
    ``misses`` counts full compiles.
    """

    compiles: int = 0
    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    store_saves: int = 0
    runs: Counter = field(default_factory=Counter)

    @property
    def hit_rate(self) -> float:
        return (self.hits + self.disk_hits) / self.compiles if self.compiles else 0.0

    def snapshot(self) -> dict:
        return {
            "compiles": self.compiles,
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "disk_misses": self.disk_misses,
            "store_saves": self.store_saves,
            "runs": dict(self.runs),
        }


#: The policy a plain run executes under: its one backend, no retries.
_PLAIN_RUNS = {name: FallbackPolicy(chain=(name,), retries=0) for name in BACKENDS}


def _check_width(backend: str, nproc: int) -> None:
    """Refuse canonical ``backend`` at a machine width it cannot run."""
    if backend == "scalar" and nproc:
        raise InterpreterError("backend='scalar' runs with nproc=0")
    if backend in ("vm", "mimd", "pmimd") and nproc < 1:
        raise InterpreterError(
            f"backend={backend!r} needs nproc >= 1 (got {nproc})"
        )


def _check_count(value, name: str, low: int) -> None:
    """Refuse a run setting that is not a non-bool int ``>= low``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InterpreterError(f"{name} must be an int, got {type(value).__name__}")
    if value < low:
        raise InterpreterError(f"{name} must be >= {low}, got {value}")


def _check_config(config: BackendConfig) -> None:
    """Refuse backend tuning no backend can run with."""
    for name in ("workers", "shards"):
        value = getattr(config, name)
        if value is not None:
            _check_count(value, name, 1)
    if config.shard_layout not in ("block", "cyclic"):
        raise InterpreterError(
            f"shard_layout must be 'block' or 'cyclic', got {config.shard_layout!r}"
        )


class CompiledProgram:
    """A cached, reusable compilation artifact.

    Holds the (already transformed) AST and lazily compiles it to
    bytecode on the first run that wants the VM.  Instances are owned
    by an :class:`Engine` cache; accessors hand out *clones* of the
    tree so caller-side mutation can never pollute the cache.
    """

    def __init__(
        self,
        engine: "Engine",
        key: tuple,
        tree: ast.SourceFile,
        options: CompileOptions,
        source_sha: str,
        stage_seconds: dict,
    ):
        self._engine = engine
        self.key = key
        self._tree = tree
        self.options = options
        self.source_sha = source_sha
        self.stage_seconds = stage_seconds
        self.cache_hit = False  # provenance of the *latest* compile() call
        self.cache_tier = "miss"  # "memory" | "disk" | "miss", same provenance
        self._lock = threading.Lock()
        self._bytecode = None
        self._bytecode_error: str | None = None
        self._bytecode_tried = False
        self._diagnostics = None

    @property
    def tree(self) -> ast.SourceFile:
        """A fresh clone of the compiled (transformed) program."""
        return ast.SourceFile([ast.clone(unit) for unit in self._tree.units])

    @property
    def bytecode_error(self) -> str | None:
        """Why the routine does not compile to bytecode (None if it does)."""
        self.bytecode()
        return self._bytecode_error

    def bytecode(self):
        """The routine's :class:`~repro.vm.isa.CodeObject`, or None.

        Compiled lazily on first use and cached — including the
        *failure*, so an uncompilable routine is diagnosed once.
        """
        with self._lock:
            if not self._bytecode_tried:
                from ..vm.compiler import compile_program

                start = time.perf_counter()
                try:
                    self._bytecode = compile_program(self._tree)
                except TransformError as error:
                    self._bytecode_error = str(error)
                self.stage_seconds["bytecode"] = time.perf_counter() - start
                self._bytecode_tried = True
        return self._bytecode

    def diagnostics(self):
        """Static findings for the program *as compiled*.

        Runs the lint rules (:mod:`repro.diag`) over every routine of
        the transformed tree and, when the routine lowers to bytecode,
        the bytecode verifier (:mod:`repro.vm.verify`) over the code
        object.  Computed lazily on first use and cached with the
        artifact, so a cache hit reuses the report.  A program rebuilt
        from the artifact store is linted and verified again: the
        store is a trust boundary.  ``stage_seconds`` records the
        ``lint`` and ``verify`` parts beside the ``diagnostics`` total.

        Returns:
            A :class:`~repro.diag.DiagnosticReport`.
        """
        if self._diagnostics is None:
            from ..diag import Diagnostic, DiagnosticReport, Severity, lint_routine
            from ..vm.verify import verify_code

            start = time.perf_counter()
            report = DiagnosticReport()
            stages = {}
            for unit in self._tree.units:
                try:
                    report.extend(lint_routine(unit))
                except MiniFError as error:
                    # The linter must never make a valid program
                    # uncompilable; surface its own failure instead.
                    report.add(
                        Diagnostic(
                            "P003",
                            Severity.WARNING,
                            f"lint of routine '{unit.name}' failed: {error}",
                            location=error.location,
                            routine=unit.name,
                        )
                    )
            stages["lint"] = time.perf_counter() - start
            code = self.bytecode()
            verify_start = time.perf_counter()
            if code is not None:
                report.extend(verify_code(code))
            stages["verify"] = time.perf_counter() - verify_start
            report = report.sorted()
            with self._lock:
                if self._diagnostics is None:
                    self._diagnostics = report
                    self.stage_seconds.update(stages)
                    self.stage_seconds["diagnostics"] = time.perf_counter() - start
        return self._diagnostics

    # -- backend selection ---------------------------------------------------

    def _resolve_backend(self, name: str, spec: RunSpec) -> str:
        """The backend that runs canonical ``name`` for this run shape."""
        if spec.resume_from is not None:
            return name  # the checkpoint's own backend, fixed by the spec
        nproc = spec.nproc
        _check_width(name, nproc)
        if name == "auto":
            name = "vm" if nproc else "scalar"
        if name == "vm" and self.bytecode() is None:
            raise TransformError(
                f"backend='vm': routine does not compile to bytecode "
                f"({self._bytecode_error})"
            )
        return name

    # -- execution -----------------------------------------------------------

    def run(
        self,
        bindings: dict | None = None,
        *,
        nproc: int = 0,
        backend: str = "auto",
        externals: dict | None = None,
        statement_hook=None,
        routine_name: str | None = None,
        bindings_for=None,
        statement_hook_for=None,
        budget=None,
        fault_plan=None,
        policy: FallbackPolicy | None = None,
        config: BackendConfig | None = None,
        checkpoint_every: int | None = None,
        checkpoint_dir: str | None = None,
        checkpoint_sink=None,
        resume_from=None,
    ) -> RunResult:
        """Execute the compiled program and return a :class:`RunResult`.

        Each run setting has this one spelling.  A bad value (a
        non-int or negative ``nproc``, a ``checkpoint_every`` below 1,
        a ``config`` with ``workers``/``shards`` below 1 or an unknown
        ``shard_layout``) and every contradictory combination raise
        :class:`~repro.lang.errors.InterpreterError` before any backend
        runs.

        Args:
            bindings: Initial environment (copied, never mutated).
            nproc: PE count, an int ``>= 0``; 0 runs the sequential
                execution level.
            backend: ``"auto"``, ``"vm"``, ``"scalar"``, ``"mimd"`` or
                ``"pmimd"`` (the process-parallel SPMD pool); any other
                name raises
                :class:`~repro.lang.errors.InterpreterError`.  Not
                used to pick the backend when ``policy`` supplies its
                own chain.
            externals: External subroutine registry (name → callable).
            statement_hook: ``hook(stmt, env, mask)`` called before
                every executed statement (the vm passes the activity
                mask, the scalar level calls ``hook(stmt, env)``); a
                hooked vm run executes unfused.
            routine_name: Run a routine other than the main program,
                matched case-insensitively like every MiniF name; a
                name the program does not define raises
                :class:`~repro.lang.errors.InterpreterError`.
            bindings_for: MIMD/PMIMD backends — callable ``p -> dict``
                (runs inside the worker process on pmimd).  Plain
                ``bindings`` also work on both: every processor gets a
                private deep copy.
            statement_hook_for: MIMD backend — callable ``p -> hook``
                (not supported across pmimd's process boundary).
            budget: Execution guard (:class:`~repro.reliability.Budget`)
                applied to the run; runaway programs raise
                :class:`~repro.reliability.BudgetExceeded`.
            fault_plan: Deterministic fault injection
                (:class:`~repro.reliability.FaultPlan`) for chaos
                testing the run.
            policy: A :class:`~repro.reliability.FallbackPolicy`; when
                given, faults retry and degrade along its backend chain
                and every attempt is recorded in
                :attr:`RunResult.attempts`.
            config: A :class:`BackendConfig` with the backend tuning
                that has no keyword here: ``vm_fuse`` for the vm, and
                the pmimd pool's ``workers``, ``shards``,
                ``shard_layout`` and ``supervision``.
            checkpoint_every: Durable execution — capture a restorable
                :class:`~repro.reliability.checkpoint.Checkpoint`
                every this many (``>= 1``) executed steps (vm/scalar:
                delivered to ``checkpoint_sink`` or saved under
                ``checkpoint_dir``; pmimd: workers checkpoint per
                processor so shard replays resume instead of
                rerunning).  ``mimd`` does not checkpoint: a run whose
                backend or policy chain names it refuses this and
                ``checkpoint_dir``.
            checkpoint_dir: On-disk
                :class:`~repro.reliability.checkpoint.CheckpointStore`
                root.  Every vm/scalar attempt — fallback and
                verification runs included — saves its captures under
                the key ``"run"`` stamped with this program's source SHA.
                A vm run of a program that calls a MiniF subroutine
                refuses checkpointing.
            checkpoint_sink: Callable receiving each captured
                checkpoint (vm/scalar; wins over ``checkpoint_dir``).
                Incompatible with ``policy`` chains.
            resume_from: A checkpoint to continue from instead of
                starting at step 0.  The backend is chosen from the
                checkpoint (vm or scalar), the final env/counters are
                bit-identical to an uninterrupted run, and a
                source-SHA mismatch is refused.  Incompatible with
                ``policy`` chains.
        """
        name = canonical_backend(backend)
        if name is None:
            raise InterpreterError(
                f"unknown backend {backend!r} (choose from {', '.join(BACKENDS)})"
            )
        if routine_name is not None:
            names = [unit.name for unit in self._tree.units]
            if isinstance(routine_name, str):
                routine_name = routine_name.lower()  # the parser folds names
            if routine_name not in names:
                raise InterpreterError(
                    f"unknown routine {routine_name!r} "
                    f"(the program defines: {', '.join(names)})"
                )
        _check_count(nproc, "nproc", 0)
        if checkpoint_every is not None:
            _check_count(checkpoint_every, "checkpoint_every", 1)
        if config is None:
            config = DEFAULT_CONFIG
        else:
            _check_config(config)
        if policy is not None and (resume_from is not None or checkpoint_sink is not None):
            raise InterpreterError(
                "resume_from/checkpoint_sink cannot be combined with a "
                "FallbackPolicy chain: a resumed run must continue the one "
                "backend recorded in the checkpoint"
            )
        if resume_from is not None:
            meta = getattr(resume_from, "meta", None)
            sha = meta.get("source_sha") if isinstance(meta, dict) else None
            if sha is not None and sha != self.source_sha:
                raise InterpreterError(
                    "resume_from checkpoint was captured from a different "
                    "program (source SHA mismatch)"
                )
            chosen = "vm" if resume_from.backend == "vm" else "scalar"
            if name not in ("auto", chosen):
                raise InterpreterError(
                    f"resume_from checkpoint was captured by the '{chosen}' "
                    f"backend; requested backend '{backend}' cannot "
                    f"continue it"
                )
            if chosen == "vm" and not nproc:
                nproc = resume_from.nproc
            name = chosen
        elif policy is None:
            _check_width(name, nproc)
        if checkpoint_sink is not None and name == "pmimd":
            raise InterpreterError(
                "backend='pmimd' cannot deliver checkpoints to an "
                "in-process sink; set checkpoint_dir so workers save "
                "per-processor checkpoints to the on-disk store"
            )
        chain = policy.chain if policy is not None else (name,)
        if statement_hook_for is not None and "pmimd" in chain:
            raise InterpreterError(
                "backend='pmimd' cannot install statement hooks across "
                "process boundaries; use backend='mimd'"
            )
        if "mimd" in chain and (checkpoint_every is not None or checkpoint_dir is not None):
            raise InterpreterError(
                "backend='mimd' does not checkpoint; drop checkpoint_every/"
                "checkpoint_dir or run on 'vm', 'scalar' or 'pmimd'"
            )
        spec = RunSpec(
            backend=name,
            policy=policy,
            nproc=nproc,
            config=config,
            externals=externals,
            budget=budget,
            fault_plan=fault_plan,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            bindings=bindings,
            statement_hook=statement_hook,
            routine_name=routine_name,
            bindings_for=bindings_for,
            statement_hook_for=statement_hook_for,
            checkpoint_sink=checkpoint_sink,
            resume_from=resume_from,
        )
        return self._run(spec)

    def _run(self, spec: RunSpec) -> RunResult:
        """Try the spec's backend chain, recording every attempt.

        A plain run is the one-backend chain ``(spec.backend,)`` with no
        retries: it goes through the same loop, but returns no attempt
        log and raises its errors without one.  Under a policy:

        * A backend that will not even resolve for this program/run
          shape (e.g. ``"vm"`` when the routine has no bytecode form)
          records one failed attempt and the chain degrades.
        * A *retryable* :class:`~repro.reliability.ReliabilityError`
          (transient backend faults) retries the same backend up to
          ``policy.retries`` more times, then degrades.
        * A non-retryable fault — budget exhaustion, divergence, bounds
          violations, genuine program errors — raises immediately with
          the attempt log attached as ``error.attempts``: deterministic
          failures would only re-fail downstream.
        """
        policy = spec.policy or _PLAIN_RUNS[spec.backend]
        logged = spec.policy is not None
        attempts: list[Attempt] = []
        for backend in policy.chain:
            try:
                chosen = self._resolve_backend(backend, spec)
            except MiniFError as error:
                attempts.append(
                    Attempt(
                        backend=backend,
                        ok=False,
                        error=f"{type(error).__name__}: {error}",
                        fault_kind=type(error).__name__,
                        crash_dump=crash_dump_for(error),
                    )
                )
                last_error = error
                continue
            for _try in range(1 + policy.retries):
                start = time.perf_counter()
                try:
                    env, counters, statements, events = self._execute(chosen, spec)
                except ReliabilityError as error:
                    wall = time.perf_counter() - start
                    snapshot = error.snapshot
                    dump = error.crash_dump()
                    supervision = getattr(error, "supervision_events", None)
                    if supervision is not None:
                        dump["supervision_events"] = supervision
                    attempts.append(
                        Attempt(
                            backend=chosen,
                            ok=False,
                            wall_seconds=wall,
                            steps=None if snapshot is None else snapshot.steps,
                            error=f"{type(error).__name__}: {error}",
                            fault_kind=type(error).__name__,
                            crash_dump=dump,
                        )
                    )
                    last_error = error
                    if not policy.is_retryable(error):
                        if logged:
                            error.attempts = attempts
                        raise
                    continue
                wall = time.perf_counter() - start
                attempts.append(
                    Attempt(
                        backend=chosen, ok=True, wall_seconds=wall, steps=statements
                    )
                )
                return self._result(
                    chosen,
                    spec,
                    env,
                    counters,
                    statements,
                    wall,
                    attempts if logged else [],
                    events,
                )
        if logged:
            last_error.attempts = attempts
        raise last_error

    def _checkpoint_sink(self, spec: RunSpec):
        """Where a vm/scalar attempt delivers its captures.

        The caller's ``checkpoint_sink`` wins; otherwise, with
        ``checkpoint_every`` and ``checkpoint_dir`` set, captures land
        in an on-disk store under one well-known key, stamped with the
        program identity so a later resume refuses a source mismatch.
        """
        if spec.checkpoint_sink is not None or not (
            spec.checkpoint_every and spec.checkpoint_dir
        ):
            return spec.checkpoint_sink
        from ..reliability.checkpoint import CheckpointStore

        store = CheckpointStore(spec.checkpoint_dir)

        def save(ckpt):
            ckpt.meta["source_sha"] = self.source_sha
            store.save("run", ckpt)

        return save

    def _execute(self, chosen: str, spec: RunSpec):
        """Run one already-resolved backend, built from the spec fields
        it reads; every attempt counts into fresh counters.

        Returns ``(env, counters, statements, events)`` — ``events``
        is the supervision log for the pmimd backend and empty for the
        single-process ones.
        """
        bindings = spec.bindings
        # what every backend reads; the rest goes to those that read it
        common = dict(
            externals=spec.externals, budget=spec.budget, fault_plan=spec.fault_plan
        )
        if chosen == "vm":
            from ..vm.machine import SIMDVirtualMachine

            vm = SIMDVirtualMachine(
                spec.nproc,
                fuse=spec.config.vm_fuse,
                checkpoint_every=spec.checkpoint_every,
                checkpoint_sink=self._checkpoint_sink(spec),
                statement_hook=spec.statement_hook,
                **common,
            )
            raw = vm.run(
                self.bytecode(),
                bindings=dict(bindings or {}),
                resume_from=spec.resume_from,
                routine_name=spec.routine_name,
            )
            env = {k: v for k, v in raw.items() if not k.startswith("__")}
            return env, vm.counters, vm.executed, []
        if chosen == "scalar":
            from ..exec.scalar import ScalarInterpreter

            interp = ScalarInterpreter(
                self._tree,
                statement_hook=spec.statement_hook,
                checkpoint_every=spec.checkpoint_every,
                checkpoint_sink=self._checkpoint_sink(spec),
                **common,
            )
            env = interp.run(
                routine_name=spec.routine_name,
                bindings=bindings,
                resume_from=spec.resume_from,
            )
            return env, interp.counters, interp.executed_statements, []
        if chosen == "pmimd":
            from ..exec.pmimd import PMIMDExecutor

            config = spec.config
            executor = PMIMDExecutor(
                self._tree,
                spec.nproc,
                workers=config.workers,
                shards=config.shards,
                shard_layout=config.shard_layout,
                supervision=config.supervision,
                checkpoint_every=spec.checkpoint_every,
                checkpoint_dir=spec.checkpoint_dir,
                **common,
            )
            res = executor.run(
                bindings=dict(bindings) if bindings else None,
                bindings_for=spec.bindings_for,
                routine_name=spec.routine_name,
            )
            return res.envs, res.counters, res.statements, res.events
        # mimd
        from ..exec.mimd import MIMDSimulator

        bindings_for = spec.bindings_for
        if bindings_for is None and bindings:
            # A pmimd-style plain-bindings run degrading to mimd:
            # every processor gets a private deep copy, matching the
            # worker-side replication.
            from ..exec.pmimd import replicate_bindings

            base = dict(bindings)
            bindings_for = lambda p: replicate_bindings(base)  # noqa: E731
        sim = MIMDSimulator(self._tree, spec.nproc, **common)
        mimd = sim.run(
            bindings_for=bindings_for,
            routine_name=spec.routine_name,
            statement_hook_for=spec.statement_hook_for,
        )
        return mimd.envs, mimd.counters, mimd.statements, []

    def _result(
        self, chosen, spec, env, counters, statements, wall, attempts, events
    ) -> RunResult:
        self._engine.stats.runs[chosen] += 1
        if isinstance(counters, list):
            # MIMD: parallel completion time — max over processors.
            steps = max((c.total_steps for c in counters), default=0)
        else:
            steps = int(counters.total_steps)
        resume_from = spec.resume_from
        return RunResult(
            env=env,
            counters=counters,
            backend=chosen,
            nproc=spec.nproc,
            cache_hit=self.cache_hit,
            wall_seconds=wall,
            steps=steps,
            stage_seconds={**self.stage_seconds, "run": wall},
            statements=statements,
            attempts=attempts,
            events=events,
            resumed_from_step=None if resume_from is None else resume_from.step,
        )


class Engine:
    """Compiles MiniF programs once and runs them many times.

    Caching is two-tier: an in-process LRU of live
    :class:`CompiledProgram` objects, optionally backed by a persistent
    on-disk :class:`~repro.runtime.store.ArtifactStore` shared between
    processes (and, behind ``repro serve``, between cluster restarts).
    A memory miss falls through to the store before the transform
    pipeline runs; a full compile publishes its artifact back.  A
    :class:`TransformError` verdict is kept in the memory tier under
    the same key, so a repeated rejected compile re-raises it without
    re-running the pipeline.

    Args:
        cache_size: Maximum number of distinct (source, options)
            artifacts to retain in memory (LRU eviction).
        store: A ready :class:`~repro.runtime.store.ArtifactStore`
            to use as the persistent tier (wins over ``store_dir``).
        store_dir: Convenience — build an
            :class:`~repro.runtime.store.ArtifactStore` rooted here.
    """

    def __init__(
        self,
        cache_size: int = 128,
        *,
        store=None,
        store_dir: str | None = None,
    ):
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        self.cache_size = cache_size
        if store is None and store_dir is not None:
            from .store import ArtifactStore

            store = ArtifactStore(store_dir)
        self.store = store
        self.stats = EngineStats()
        # a rejected compile is kept as a traceback-free TransformError
        self._cache: OrderedDict[tuple, CompiledProgram | TransformError]
        self._cache = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        """Drop every cached artifact (stats are retained)."""
        with self._lock:
            self._cache.clear()

    def compile(
        self,
        source: ast.SourceFile | str,
        *,
        strict: bool = False,
        **options,
    ) -> CompiledProgram:
        """Compile (or fetch) the program for the given options.

        Args:
            source: MiniF source text or an already-parsed tree.  A
                tree is keyed by its canonical printed form, so
                equivalent trees share one cache entry and the caller
                keeps ownership of its own AST.
            strict: Fail the compile when static analysis finds
                error-severity diagnostics — raises
                :class:`~repro.lang.errors.CompileError` carrying the
                findings.  Not part of the cache key: the same
                artifact serves strict and lax callers, the check runs
                against its (cached) diagnostics report.
            **options: :class:`~repro.transform.options.CompileOptions`
                fields (``transform``, ``variant``, ``width``, ...),
                folded once by :meth:`CompileOptions.fold`.  The pass
                table :data:`repro.transform.pipeline.PASSES` says
                which fields each transform reads and requires (e.g.
                ``width`` for ``simdize`` and ``spmd``); the others do
                not reach the cache key.  A bad value raises
                :class:`TransformError`.

        Returns:
            A cached :class:`CompiledProgram`; its ``cache_hit``
            attribute tells whether this call was served from cache and
            ``cache_tier`` which tier served it
            (``"memory"``/``"disk"``/``"miss"``).
        """
        if not isinstance(strict, bool):
            raise TransformError(f"strict must be a bool, got {type(strict).__name__}")
        text, sha, options = self._normalize(source, options)
        key = (sha, options)
        with self._lock:
            self.stats.compiles += 1
            cached = self._cache.get(key)
            if cached is not None:
                self.stats.hits += 1
                self._cache.move_to_end(key)
                if isinstance(cached, TransformError):
                    raise type(cached)(cached.message, cached.location)
                cached.cache_hit = True
                cached.cache_tier = "memory"
                return self._checked(cached, strict)
        program = self._load_from_store(sha, key, options)
        tier = "disk"
        if program is None:
            tier = "miss"
            with self._lock:
                self.stats.misses += 1
            try:
                program = self._build(text, sha, key, options)
            except TransformError as error:
                self._insert(key, type(error)(error.message, error.location))
                raise
            self._publish(sha, options, program)
        winner = self._insert(key, program)
        if isinstance(winner, TransformError):
            raise type(winner)(winner.message, winner.location)
        winner.cache_hit = winner is not program or tier == "disk"
        winner.cache_tier = "memory" if winner is not program else tier
        return self._checked(winner, strict)

    def _insert(self, key, entry):
        """Insert ``entry`` in the LRU; returns the entry that holds
        ``key`` (a racing compile may have inserted it first — keep
        that one so callers share one entry)."""
        with self._lock:
            winner = self._cache.setdefault(key, entry)
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        return winner

    def _normalize(
        self, source: ast.SourceFile | str, options: dict
    ) -> tuple[str, str, CompileOptions]:
        """``(text, source SHA, folded options)`` of a compile request."""
        options = CompileOptions.fold(**options)
        if isinstance(source, str):
            text = source
        elif isinstance(source, ast.SourceFile):
            text = format_source(source)
        else:
            raise TypeError(
                f"source must be MiniF text or a SourceFile, "
                f"got {type(source).__name__}"
            )
        sha = hashlib.sha256(text.encode()).hexdigest()
        return text, sha, options

    def cache_key(self, source: ast.SourceFile | str, **options) -> str:
        """The store digest of a compile request, without compiling.

        The same identity :meth:`compile` caches under — usable as a
        deduplication key (``repro.serve`` single-flights identical
        in-flight compiles on it) and as the
        :class:`~repro.runtime.store.ArtifactStore` address.
        """
        from .store import artifact_digest

        _text, sha, normalized = self._normalize(source, options)
        return artifact_digest(sha, normalized)

    def _load_from_store(self, sha, key, options) -> "CompiledProgram | None":
        """Persistent-tier lookup: rebuild a CompiledProgram from disk."""
        if self.store is None:
            return None
        from .store import artifact_digest

        start = time.perf_counter()
        payload = self.store.load(artifact_digest(sha, options))
        if (
            payload is None
            or payload.get("source_sha") != sha
            or payload.get("options") != options
            or not isinstance(payload.get("tree"), ast.SourceFile)
        ):
            # A digest collision or a doctored entry surfaces as an
            # identity mismatch: treat as a miss, never trust the tree.
            with self._lock:
                self.stats.disk_misses += 1
            return None
        stage_seconds = dict(payload.get("stage_seconds") or {})
        stage_seconds["store_load"] = time.perf_counter() - start
        with self._lock:
            self.stats.disk_hits += 1
        return CompiledProgram(
            self, key, payload["tree"], options, sha, stage_seconds
        )

    def _publish(self, sha, options, program: "CompiledProgram") -> None:
        """Publish a freshly-built artifact to the persistent tier.

        Publish failures (full disk, permissions) never fail the
        compile — the in-memory artifact is already usable.
        """
        if self.store is None:
            return
        from .store import artifact_digest

        payload = {
            "source_sha": sha,
            "options": options,
            "tree": program._tree,
            "stage_seconds": {
                name: seconds
                for name, seconds in program.stage_seconds.items()
                if name in ("parse", "transform")
            },
        }
        try:
            self.store.save(
                artifact_digest(sha, options),
                payload,
                meta={"source_sha": sha, "transform": options.transform},
            )
        except (OSError, EncodeError):
            return
        with self._lock:
            self.stats.store_saves += 1

    @staticmethod
    def _checked(program: CompiledProgram, strict: bool) -> CompiledProgram:
        """Apply the strict-mode gate to a (possibly cached) artifact."""
        if not strict:
            return program
        report = program.diagnostics()
        if report.has_errors:
            from ..lang.errors import CompileError

            first = report.errors[0]
            raise CompileError(
                f"strict compile failed: {report.summary()}; first: "
                f"[{first.code}] {first.message}",
                diagnostics=report.errors,
                location=first.location,
            )
        return program

    def run(
        self,
        source: ast.SourceFile | str,
        bindings: dict | None = None,
        *,
        strict: bool = False,
        **kwargs,
    ) -> RunResult:
        """Compile (cached) and run in one call.

        Keywords naming a
        :class:`~repro.transform.options.CompileOptions` field (and
        ``strict``) go to :meth:`compile`; everything else
        (``nproc``, ``backend``, ``externals``, ``budget``,
        ``fault_plan``, ``policy``, ...) is forwarded to
        :meth:`CompiledProgram.run`.
        """
        options = {name: kwargs.pop(name) for name in OPTION_FIELDS if name in kwargs}
        program = self.compile(source, strict=strict, **options)
        return program.run(bindings, **kwargs)

    def _build(
        self, text: str, sha: str, key: tuple, options: CompileOptions
    ) -> CompiledProgram:
        from ..transform.pipeline import apply_pass

        stage_seconds: dict = {}
        start = time.perf_counter()
        tree = parse_source(text)
        stage_seconds["parse"] = time.perf_counter() - start

        start = time.perf_counter()
        tree = apply_pass(tree, options)
        stage_seconds["transform"] = time.perf_counter() - start
        return CompiledProgram(self, key, tree, options, sha, stage_seconds)


_default_engine: Engine | None = None
_default_lock = threading.Lock()


def default_engine() -> Engine:
    """The process-wide shared Engine behind the ``repro.compile`` /
    ``repro.run`` facade, the CLI and the bundled kernels."""
    global _default_engine
    with _default_lock:
        if _default_engine is None:
            _default_engine = Engine()
        return _default_engine


def reset_default_engine() -> None:
    """Replace the shared Engine with a fresh one (tests, benchmarks)."""
    global _default_engine
    with _default_lock:
        _default_engine = None
