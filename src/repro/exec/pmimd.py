"""Process-parallel SPMD backend: Eq. 1 on real worker processes.

The MIMD simulator (:mod:`repro.exec.mimd`) *models* the paper's
``max_p Σ_i L_i^p`` by running P sequential interpreters in one
process.  This backend makes the wall clock real: the P processors
are partitioned into ``min(P, 2 × workers)`` contiguous *shards*, and
the shards run on a pool of forked worker processes driven by a
:class:`~repro.reliability.supervisor.WorkerSupervisor` — heartbeats,
straggler speculation, crash recovery with bounded retries, and
degradation through the Engine's
:class:`~repro.reliability.policy.FallbackPolicy` when the pool is
unrecoverable.

Plumbing choices, all in service of a 1-copy data path:

* Workers are **forked**, so the parsed program, the externals
  registry and any ``bindings_for`` callable are inherited by the
  child — nothing program-shaped is ever pickled.  Platforms without
  fork raise a *retryable* BackendFault, so a fallback chain degrades
  to the in-process ``mimd`` leg instead of crashing.
* Large array bindings travel through a POSIX shared-memory
  :class:`~repro.exec.shm.ShmArena`; each worker attaches the
  segments read-only and passes the views to every processor as they
  are, so the scalar interpreter's DECL copy is a processor's only
  private copy, and a write into an undeclared shared input fails
  (non-retryable) instead of reaching the other processors.
* Per-processor results stream back over a pipe as they finish, so a
  dead worker loses only the processors it had not yet reported.  A
  ``proc`` message carries the processor's env, counters and statement
  count, but each shared-memory input the processor left byte-for-byte
  as bound travels as an :class:`UnchangedInput` marker (name, shape,
  dtype, FArray or not); the parent rebuilds it as the message
  arrives, as a fresh private copy of the caller's binding, so the
  returned envs are exactly the ones a full shipment would give, and
  the pairlist is not pickled back once per processor.
* The supervisor waits on the workers' pipes and process sentinels
  when idle, so a result or a death is handled as soon as it happens.
* Each worker runs its shard's processors through the ordinary
  :class:`~repro.exec.scalar.ScalarInterpreter` with the per-worker
  :class:`~repro.reliability.Budget`; failures are serialized as
  :func:`~repro.reliability.errors.crash_dump_for` dicts and
  reconstructed into the taxonomy on the parent side.

Chaos injection rides the same :class:`~repro.reliability.FaultPlan`
machinery as the simulated backends: ``worker_kill`` shards
``os._exit`` mid-task, ``worker_hang`` shards go heartbeat-silent,
``worker_slow`` shards straggle — always on the first attempt only,
so the supervisor's recovery provably converges.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from ..lang import ast
from ..lang.errors import MiniFError
from ..reliability import Budget, crash_dump_for
from ..reliability.checkpoint import CheckpointStore
from ..reliability.errors import BackendFault
from ..reliability.supervisor import SupervisionPolicy, WorkerSupervisor
from .counters import ExecutionCounters
from .mimd import MIMDResult
from .scalar import ScalarInterpreter
from .shm import ShmArena, attach
from .values import FArray

@dataclass(frozen=True)
class Shard:
    """A contiguous slice of the processor space.

    Attributes:
        index: 0-based shard index (the unit of scheduling/recovery).
        procs: The 1-based processor ids this shard executes.
    """

    index: int
    procs: tuple[int, ...]


def plan_shards(nproc: int, nshards: int) -> list[Shard]:
    """Partition processors ``1..nproc`` into ``nshards`` contiguous
    runs (clamped to ``1..nproc``); shard 0 gets the lowest ids and
    the first ``nproc % nshards`` shards one processor more."""
    nshards = max(1, min(nshards, nproc))
    base, extra = divmod(nproc, nshards)
    shards = []
    start = 1
    for index in range(nshards):
        size = base + (1 if index < extra else 0)
        shards.append(Shard(index, tuple(range(start, start + size))))
        start += size
    return shards


def replicate_bindings(bindings: dict) -> dict:
    """A per-processor private copy of a bindings dict.

    Arrays are deep-copied (an ``FArray`` stays an ``FArray``) so no
    two processors ever alias mutable storage; scalars pass through.
    """
    copied: dict = {}
    for name, value in bindings.items():
        if isinstance(value, FArray):
            copied[name] = FArray.wrap(value.name, value.data.copy())
        elif isinstance(value, np.ndarray):
            copied[name] = value.copy()
        else:
            copied[name] = value
    return copied


@dataclass(frozen=True)
class UnchangedInput:
    """Stands in a ``proc`` message for a shared input left as bound.

    Attributes:
        name: The array's name (an ``FArray``'s own ``name``).
        shape: The shape the processor's env held it in.
        dtype: numpy dtype string.
        farray: Whether the env held an ``FArray`` or a plain ndarray.
    """

    name: str
    shape: tuple[int, ...]
    dtype: str
    farray: bool

    def rebuild(self, binding):
        """A fresh private copy of the caller's ``binding`` in the
        form the processor's env held it."""
        data = binding if isinstance(binding, np.ndarray) else binding.data
        copy = np.array(data, dtype=self.dtype, order="C").reshape(self.shape)
        return FArray.wrap(self.name, copy) if self.farray else copy


def _same_bytes(data: np.ndarray, segment: np.ndarray) -> bool:
    """Equal dtype, size and bytes (so ``-0.0`` and NaN compare exactly).

    The bytes are compared as unsigned ints of the element's width
    where there is one: eight times fewer compares than byte by byte
    for the int64 pairlists.
    """
    if data.dtype != segment.dtype or data.size != segment.size:
        return False
    width = data.dtype.itemsize
    unit = np.dtype(f"u{width}") if width in (1, 2, 4, 8) else np.uint8
    return np.array_equal(
        np.ascontiguousarray(data).reshape(-1).view(unit),
        segment.reshape(-1).view(unit),
    )


def mark_unchanged(env: dict, shared: dict) -> dict:
    """The env a ``proc`` message ships: ``env`` with every entry that
    is still byte-identical to its shared-memory input ``shared[name]``
    replaced by an :class:`UnchangedInput`."""
    shipped = dict(env)
    for name, segment in shared.items():
        value = env.get(name)
        farray = isinstance(value, FArray)
        data = value.data if farray else value
        if isinstance(data, np.ndarray) and _same_bytes(data, segment):
            shipped[name] = UnchangedInput(
                value.name if farray else name,
                tuple(data.shape),
                data.dtype.str,
                farray,
            )
    return shipped


def restore_unchanged(env: dict, bindings: dict) -> None:
    """Replace each :class:`UnchangedInput` in ``env`` by its rebuild
    from the caller's ``bindings`` (in place)."""
    for name, value in env.items():
        if isinstance(value, UnchangedInput):
            env[name] = value.rebuild(bindings[name])


@dataclass
class PMIMDResult(MIMDResult):
    """A :class:`MIMDResult` plus the supervision story of the run.

    Attributes:
        events: The supervisor's ordered recovery/decision log.
        recoveries: Dead/wedged recoveries performed.
        speculations: Straggler duplicates dispatched.
        workers: Worker-pool size used.
        checkpoint_resumes: Processor replays that continued from a
            stored checkpoint instead of re-running from statement 0.
    """

    events: list = field(default_factory=list)
    recoveries: int = 0
    speculations: int = 0
    workers: int = 0
    checkpoint_resumes: int = 0


def _beat(slots):
    """A budget-meter beat that publishes liveness into shared slots."""

    def beat(now, steps):
        slots[0] = now
        slots[1] = float(steps)

    return beat


def _inject_slow(slots, seconds: float) -> None:
    """Straggle: sleep in slices, keeping heartbeats flowing."""
    deadline = time.monotonic() + seconds
    while True:
        now = time.monotonic()
        if now >= deadline:
            return
        slots[0] = now
        time.sleep(min(0.01, deadline - now))


def _kill_switch(kill_after: int, counter: list):
    """A statement hook that ``_exit``s after ``kill_after`` statements.

    Implements :attr:`FaultPlan.kill_after_steps`: the worker runs —
    heartbeating, checkpointing — and then dies abruptly mid-shard,
    exactly the failure checkpointed replay is supposed to bound.
    ``counter`` is shared across the shard attempt's processors, so
    the count is statements *into the attempt*, not into one
    processor's program.  Only a worker whose fault plan arms it runs
    a statement hook at all.
    """

    def killer(stmt, env):
        counter[0] += 1
        if counter[0] >= kill_after:
            os._exit(137)

    return killer


def _outside_failure(error: Exception) -> dict:
    """The crash dump of an error that escaped the interpreter.

    A write into a read-only shared input (an external storing into an
    undeclared one) is the program's doing and fails the same way on
    every attempt: a non-retryable fault.  Anything else is taken for
    an infrastructure failure, which a replay may get past.
    """
    read_only = isinstance(error, ValueError) and "read-only" in str(error)
    if read_only:
        message = (
            f"write into a shared input, which pmimd maps read-only ({error}); "
            "declare the array so that each processor gets its own copy"
        )
    else:
        message = (
            f"worker crashed outside the interpreter: {type(error).__name__}: {error}"
        )
    return {"error": "BackendFault", "message": message, "retryable": not read_only}


def _worker_loop(
    conn,
    slots,
    source: ast.SourceFile,
    nproc: int,
    externals: dict,
    budget,
    fault_plan,
    bindings,
    bindings_for,
    routine_name,
    shm_specs,
    checkpoint_every=None,
    checkpoint_dir=None,
):
    """One worker process: attach inputs, then serve shard tasks forever.

    Everything heavy (``source``, ``externals``, ``bindings_for``)
    arrived through fork, not through these arguments' pickles, and
    the shared-memory inputs a processor leaves unchanged go back as
    :class:`UnchangedInput` markers (:func:`mark_unchanged`).

    With checkpointing configured, each processor writes a restorable
    checkpoint to the shared on-disk store every ``checkpoint_every``
    statements under the key ``proc-<p>``; before running a processor
    the worker consults the store, so a *replay* of a crashed shard
    resumes each unfinished processor from its last good checkpoint —
    the lost work is bounded by one interval.  Finished processors'
    keys are cleared so the store only ever describes in-flight work.
    """
    segments = []
    shared = {}
    beat = _beat(slots)
    store = (
        CheckpointStore(checkpoint_dir)
        if checkpoint_every and checkpoint_dir
        else None
    )
    try:
        for spec in shm_specs:
            array, segment = attach(spec)
            array.flags.writeable = False
            segments.append(segment)
            shared[spec.name] = array
        while True:
            try:
                task = conn.recv()
            except (EOFError, OSError):
                return
            if task.get("cmd") == "stop":
                return
            shard = task["shard"]
            attempt = task.get("attempt", 0)
            slots[0] = time.monotonic()
            slots[2] = float(shard)
            kill_after = None
            if fault_plan is not None:
                kind = fault_plan.worker_fault(shard, attempt)
                if kind == "kill":
                    if fault_plan.kill_after_steps:
                        kill_after = int(fault_plan.kill_after_steps)
                    else:
                        os._exit(137)
                elif kind == "hang":
                    time.sleep(fault_plan.hang_seconds)
                elif kind == "slow":
                    _inject_slow(slots, fault_plan.slow_seconds)
            # Injected interpreter-level faults (op_faults & co) fire
            # only on the first attempt: the plan's transient state
            # lives per process, so replays must not re-trip it.
            plan_for_run = fault_plan if attempt == 0 else None
            kill_counter = [0]
            try:
                for proc in task["procs"]:
                    if bindings_for is not None:
                        proc_bindings = dict(bindings_for(proc))
                    else:
                        # DECL copies a shared input into the processor's
                        # own array; until then it reads the segment.
                        proc_bindings = replicate_bindings(bindings or {})
                        proc_bindings.update(shared)
                    proc_bindings.setdefault("myproc", proc)
                    proc_bindings.setdefault("nproc", nproc)
                    hook = (
                        None
                        if kill_after is None
                        else _kill_switch(kill_after, kill_counter)
                    )
                    key = f"proc-{proc}"
                    resume = None
                    sink = None
                    if store is not None:
                        resume = store.load_latest(key)
                        if resume is not None and resume.backend != "scalar":
                            resume = None  # foreign store — ignore it
                        sink = lambda ckpt, _key=key: store.save(_key, ckpt)
                    interp = ScalarInterpreter(
                        source,
                        externals,
                        statement_hook=hook,
                        budget=budget,
                        beat=beat,
                        fault_plan=plan_for_run,
                        checkpoint_every=(
                            checkpoint_every if store is not None else None
                        ),
                        checkpoint_sink=sink,
                    )
                    if resume is not None:
                        conn.send(
                            {
                                "type": "ckpt-resume",
                                "shard": shard,
                                "attempt": attempt,
                                "proc": proc,
                                "step": resume.step,
                            }
                        )
                        env = interp.run(
                            routine_name=routine_name, resume_from=resume
                        )
                    else:
                        env = interp.run(
                            routine_name=routine_name, bindings=proc_bindings
                        )
                    conn.send(
                        {
                            "type": "proc",
                            "shard": shard,
                            "attempt": attempt,
                            "proc": proc,
                            "payload": {
                                "env": mark_unchanged(env, shared),
                                "counters": interp.counters,
                                "statements": interp.executed_statements,
                            },
                        }
                    )
                    if store is not None:
                        store.clear(key)
                conn.send({"type": "done", "shard": shard, "attempt": attempt})
            except MiniFError as error:
                conn.send(
                    {
                        "type": "fail",
                        "shard": shard,
                        "attempt": attempt,
                        "dump": crash_dump_for(error),
                    }
                )
            except Exception as error:  # infra failure — classify retryable
                conn.send(
                    {
                        "type": "fail",
                        "shard": shard,
                        "attempt": attempt,
                        "dump": _outside_failure(error),
                    }
                )
    finally:
        for segment in segments:
            try:
                segment.close()
            except Exception:
                pass
        try:
            conn.close()
        except Exception:
            pass


class ProcessWorkerHandle:
    """Supervisor-facing handle over one forked worker process.

    Owns the task/result pipe and the shared heartbeat slots
    ``[last beat (monotonic), statements, current shard]``.
    :meth:`recv` rebuilds a ``proc`` message's :class:`UnchangedInput`
    markers from the caller's ``bindings`` as the message arrives, so
    the copies overlap the other workers' run instead of trailing it.
    """

    def __init__(
        self, worker_id: int, ctx, worker_args: tuple, bindings: dict | None
    ):
        self.worker_id = worker_id
        self._bindings = bindings
        self._slots = ctx.Array("d", 3, lock=False)
        self._slots[0] = time.monotonic()
        parent_conn, child_conn = ctx.Pipe()
        self._conn = parent_conn
        self.process = ctx.Process(
            target=_worker_loop,
            args=(child_conn, self._slots) + worker_args,
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    def send(self, task: dict) -> None:
        self._conn.send(task)

    def poll(self) -> bool:
        return self._conn.poll()

    def recv(self) -> dict:
        message = self._conn.recv()
        if message.get("type") == "proc":
            restore_unchanged(message["payload"]["env"], self._bindings)
        return message

    def waitables(self) -> tuple:
        """What ``multiprocessing.connection.wait`` wakes on: a message
        on the pipe or the process's exit."""
        return (self._conn, self.process.sentinel)

    def is_alive(self) -> bool:
        return self.process.is_alive()

    def heartbeat(self) -> tuple[float, float]:
        return float(self._slots[0]), float(self._slots[1])

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.kill()

    def close(self) -> None:
        try:
            self._conn.close()
        except Exception:
            pass
        self.process.join(timeout=0.5)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=0.5)
        # Release the process object's pipe/sentinel descriptors.
        try:
            self.process.close()
        except Exception:
            pass


def default_workers(nproc: int) -> int:
    """Pool size heuristic: one per CPU this process may run on (its
    affinity mask, where the platform has one), floored at 2 for
    overlap."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity is not None else os.cpu_count() or 1
    return max(1, min(nproc, max(2, cpus)))


class PMIMDExecutor:
    """Runs the program's processors across a supervised process pool.

    Args:
        source: Parsed program (SPMD text, same for every processor).
        nproc: Number of (logical) processors.
        externals: External subroutine registry (inherited via fork).
        budget: Per-worker execution guard.
        fault_plan: Chaos injection plan; ``worker_*`` fields drive
            pool-level faults, interpreter-level faults fire on first
            attempts only.
        workers: Worker-process pool size
            (default: :func:`default_workers`).  The processors run as
            ``min(nproc, 2 × workers)`` contiguous shards, so the
            supervisor has spare shards to load-balance with.
        supervision: The :class:`SupervisionPolicy` in force.
        checkpoint_every: Per-processor checkpoint interval in
            interpreted statements; ``None`` disables durable
            execution (replays rerun the shard from statement 0).
        checkpoint_dir: On-disk :class:`CheckpointStore` root shared
            by all workers.  Defaults to a private temporary directory
            (removed when the run finishes), so intra-run recovery
            works with no configuration; point it somewhere durable
            only for a dedicated run — stale keys from a *different*
            program would be resumed blindly.
    """

    def __init__(
        self,
        source: ast.SourceFile,
        nproc: int,
        externals: dict | None = None,
        budget: Budget | None = None,
        fault_plan=None,
        *,
        workers: int | None = None,
        supervision: SupervisionPolicy | None = None,
        checkpoint_every: int | None = None,
        checkpoint_dir: str | None = None,
    ):
        if nproc < 1:
            raise ValueError(f"pmimd needs nproc >= 1, got {nproc}")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.source = source
        self.nproc = nproc
        self.externals = externals or {}
        self.budget = budget
        self.fault_plan = fault_plan
        self.workers = workers if workers else default_workers(nproc)
        self.supervision = (
            supervision if supervision is not None else SupervisionPolicy()
        )
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = checkpoint_dir

    def _precompile(self) -> None:
        """Generate the code of every kind of interpreter a worker runs:
        a first attempt under the fault plan (with the kill switch's
        statement hook when it counts statements), a replay without it,
        each capturing checkpoints when configured."""
        # The code depends only on there being a hook, a plan, a sink.
        def nothing(*args):
            pass

        plan = self.fault_plan
        settings = [(None, None)]
        if plan is not None:
            settings.append((plan, None))
            if plan.kill_after_steps:
                settings.append((plan, nothing))
        for fault_plan, hook in settings:
            ScalarInterpreter(
                self.source,
                self.externals,
                statement_hook=hook,
                fault_plan=fault_plan,
                checkpoint_every=self.checkpoint_every,
                checkpoint_sink=nothing if self.checkpoint_every else None,
            ).precompile()

    def run(
        self,
        bindings: dict | None = None,
        bindings_for=None,
        routine_name: str | None = None,
    ) -> PMIMDResult:
        """Execute every processor; return a :class:`PMIMDResult`.

        Args:
            bindings: Initial environment shared by all processors
                (large arrays ride shared memory; each processor still
                gets private storage).
            bindings_for: Callable ``p -> dict`` giving processor ``p``
                its environment — wins over ``bindings`` and is called
                *inside* the worker (inherited via fork).
            routine_name: Routine to run (main program by default).
        """
        if self.fault_plan is not None:
            self.fault_plan.check_backend("pmimd")
        if "fork" not in multiprocessing.get_all_start_methods():
            # Degradable, not fatal: a FallbackPolicy chain lands on
            # the in-process mimd leg.
            raise BackendFault(
                "pmimd needs the fork start method (unavailable on this "
                "platform)",
                retryable=True,
            )
        ctx = multiprocessing.get_context("fork")
        # Each worker is forked afresh: generating the program's code
        # here hands every worker the compiled sources with the fork.
        self._precompile()
        shards = plan_shards(self.nproc, 2 * self.workers)
        nworkers = max(1, min(self.workers, len(shards)))
        arena = ShmArena()
        ckpt_dir = self.checkpoint_dir
        own_ckpt_dir = None
        if self.checkpoint_every and ckpt_dir is None:
            ckpt_dir = own_ckpt_dir = tempfile.mkdtemp(prefix="repro-ckpt-")
        try:
            if bindings_for is None and bindings:
                light, specs = arena.share_bindings(bindings)
            else:
                light, specs = (bindings or {}), []
            worker_args = (
                self.source,
                self.nproc,
                self.externals,
                self.budget,
                self.fault_plan,
                light,
                bindings_for,
                routine_name,
                tuple(specs),
                self.checkpoint_every,
                ckpt_dir,
            )
            supervisor = WorkerSupervisor(
                lambda worker_id: ProcessWorkerHandle(
                    worker_id, ctx, worker_args, bindings
                ),
                nworkers,
                self.supervision,
                backend="pmimd",
            )
            outcome = supervisor.run(shards)
        finally:
            arena.close()
            if own_ckpt_dir is not None:
                shutil.rmtree(own_ckpt_dir, ignore_errors=True)
        envs: list[dict] = []
        counters: list[ExecutionCounters] = []
        statements: list[int] = []
        for proc in range(1, self.nproc + 1):
            payload = outcome.results.get(proc)
            if payload is None:  # supervisor contract: all-or-raise
                raise BackendFault(
                    f"pmimd: processor {proc} produced no result",
                    retryable=True,
                )
            envs.append(payload["env"])
            counters.append(payload["counters"])
            statements.append(payload["statements"])
        return PMIMDResult(
            envs,
            counters,
            statements,
            events=outcome.events,
            recoveries=outcome.recoveries,
            speculations=outcome.speculations,
            workers=nworkers,
            checkpoint_resumes=sum(
                1
                for event in outcome.events
                if event.get("event") == "checkpoint-resume"
            ),
        )
