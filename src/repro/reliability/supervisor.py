"""Worker-pool supervision: heartbeats, stragglers, crash recovery.

The process-parallel SPMD backend (:mod:`repro.exec.pmimd`) runs lane
shards on real worker processes, which means the failure modes stop
being simulated: workers die (OOM killer, segfaulting externals),
wedge (deadlocked I/O, a runaway native call the step budget cannot
see), or straggle (CPU contention, page-cache cold starts).  The
:class:`WorkerSupervisor` owns all three:

* **Heartbeats.**  Every worker publishes ``(beat time, steps)`` into
  a shared slot on each task receipt and at its budget meter's polls
  (at most :data:`~repro.reliability.budget.BEAT_TICKS` interpreted
  statements apart).  A flight whose heartbeat goes silent for
  :attr:`SupervisionPolicy.wedge_timeout` seconds is *wedged*: the
  worker is killed and its shard replayed elsewhere.  A worker whose
  process is simply gone is *dead*: same recovery, different
  classification detail.
* **Per-shard deadlines.**  Independent of heartbeats, a shard attempt
  running past :attr:`SupervisionPolicy.shard_deadline_seconds` is
  killed and replayed — a worker can be heartbeating and still stuck
  in one long external call the per-worker ``Budget`` cannot see.
* **Straggler speculation.**  Once enough shards have completed to
  estimate a median duration, a flight exceeding
  ``straggler_factor ×`` that median is *speculatively duplicated* on
  an idle worker.  First completion wins; duplicate per-processor
  results are idempotently ignored.  The slow copy is never killed —
  it may still finish first.
* **Event-driven idle.**  A pass over the pool that changes nothing
  ends in one wait on every worker's pipe end and process sentinel,
  bounded by :attr:`SupervisionPolicy.poll_interval`: a message or a
  worker death wakes the loop at once, and the checks above still run
  at least every ``poll_interval``.
* **Checkpointed replay.**  Workers stream one message per completed
  *processor*, not one per shard, so the supervisor's result table is
  a checkpoint: replaying a half-finished shard re-executes only the
  processors that never reported.  When a worker is retired, its pipe
  is drained first so results it produced before dying still count.
* **Bounded retries with exponential backoff.**  Each shard gets
  :attr:`SupervisionPolicy.max_retries` replays; replay ``n`` waits
  ``backoff_base · backoff_factor^(n−1)`` (capped) before
  redispatching.  A shard that exhausts its retries — or a pool with
  no live workers and no respawn budget left — makes the pool
  *unrecoverable*: a retryable
  :class:`~repro.reliability.errors.BackendFault` is raised so the
  Engine's :class:`~repro.reliability.policy.FallbackPolicy` degrades
  to a single-process backend.

Worker failures reported over the pipe arrive as crash-dump dicts
(the JSON shape :func:`~repro.reliability.errors.crash_dump_for`
emits); :func:`error_from_dump` reconstructs the classified
:class:`~repro.reliability.errors.ReliabilityError` — including its
:class:`~repro.reliability.snapshot.MachineSnapshot` — on the parent
side, so cross-process faults are indistinguishable from local ones.
Non-retryable faults (budget exhaustion, divergence, bounds
violations) abort the whole pool immediately: they are properties of
the program, and replaying them on another worker would only re-fail.

Every decision is recorded as an event dict (``dispatch``,
``proc-complete``, ``shard-complete``, ``checkpoint-resume``,
``worker-dead``, ``worker-wedged``, ``shard-deadline``, ``speculate``,
``backoff``, ``retry``, ``respawn``, ``fault``, ``unrecoverable``) so chaos tests
can assert the exact recovery path taken, and ``repro run`` can show
it.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as wait_for_any
from statistics import median

from ..lang.errors import UNKNOWN_LOCATION, SourceLocation
from .errors import (
    BackendFault,
    BudgetExceeded,
    DivergenceFault,
    OutOfBoundsFault,
    ReliabilityError,
)
from .snapshot import MachineSnapshot

#: Crash-dump ``error`` names mapped back onto taxonomy classes.
_ERROR_CLASSES = {
    "BudgetExceeded": BudgetExceeded,
    "BackendFault": BackendFault,
    "DivergenceFault": DivergenceFault,
    "OutOfBoundsFault": OutOfBoundsFault,
    "ReliabilityError": ReliabilityError,
}


def snapshot_from_dump(dump: dict) -> MachineSnapshot | None:
    """Rebuild a :class:`MachineSnapshot` from its serialized dict.

    Accepts the merged crash-dump shape
    (:func:`~repro.reliability.errors.crash_dump_for`) or a bare
    :meth:`MachineSnapshot.to_dict`; returns None when the dump
    carries no machine state.  The round trip is faithful: the
    snapshot half of ``to_dict()`` survives JSON/pickle across a
    process boundary bit-for-bit.
    """
    if not isinstance(dump, dict) or "pc" not in dump or "backend" not in dump:
        return None
    try:
        raw_loc = dump.get("snapshot_location")
        location = None
        if isinstance(raw_loc, dict):
            location = SourceLocation(
                filename=raw_loc.get("filename", "<string>"),
                line=raw_loc.get("line", 0),
                column=raw_loc.get("column", 0),
                end_line=raw_loc.get("end_line", 0),
                end_column=raw_loc.get("end_column", 0),
            )
        return MachineSnapshot(
            backend=dump["backend"],
            pc=dump.get("pc", 0),
            steps=dump.get("steps", 0),
            mask=list(dump.get("mask", [])),
            mask_stack=[list(level) for level in dump.get("mask_stack", [])],
            env=dict(dump.get("env", {})),
            last_ops=list(dump.get("last_ops", [])),
            location=location,
        )
    except Exception:
        # A malformed or forward-version dump (wrong-typed fields,
        # alien layout) yields no snapshot, not a parent-side crash.
        return None


def location_from_dump(dump: dict) -> SourceLocation:
    """The error location a crash dump's ``location`` text names.

    The text is ``str(SourceLocation)`` (``file:line:column``), so a
    point location round-trips exactly and a span keeps its start.
    Text this build cannot parse yields the unknown location.
    """
    filename, _, column = str(dump.get("location", "")).rpartition(":")
    filename, sep, line = filename.rpartition(":")
    try:
        if sep:
            return SourceLocation(filename=filename, line=int(line), column=int(column))
    except ValueError:
        pass
    return UNKNOWN_LOCATION


def error_from_dump(dump: dict) -> ReliabilityError:
    """Reconstruct a classified fault from a cross-process crash dump.

    The worker serialized its failure with
    :func:`~repro.reliability.errors.crash_dump_for`; the parent gets
    back an instance of the same taxonomy class, with the same
    location, retryability and the worker's machine snapshot
    reattached.
    Unknown class names conservatively become a retryable
    :class:`BackendFault` — an unclassifiable remote failure is
    infrastructure, not program semantics.  The same degradation
    applies to dumps this build cannot parse at all (missing keys,
    wrong-typed fields, a forward-version layout): the parent must
    never ``KeyError`` on a remote worker's bytes.
    """
    if not isinstance(dump, dict):
        dump = {}
    try:
        cls = _ERROR_CLASSES.get(dump.get("error", ""), BackendFault)
    except TypeError:  # unhashable "error" value
        cls = BackendFault
    retryable = dump.get("retryable")
    try:
        return cls(
            str(dump.get("message", "worker failure")),
            location_from_dump(dump),
            snapshot=snapshot_from_dump(dump),
            retryable=None if retryable is None else bool(retryable),
        )
    except Exception:
        return BackendFault(
            "worker failure (malformed crash dump: "
            f"error={dump.get('error')!r})",
            retryable=True,
        )


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs of the worker-pool failure model.

    Attributes:
        wedge_timeout: Heartbeat silence after which a running flight
            counts as wedged and its worker is killed.  A pmimd worker
            beats on task receipt and from its budget meter's poll,
            every ``min(Budget.check_every, BEAT_TICKS)`` statements
            (256 by default).
        shard_deadline_seconds: Hard wall ceiling per shard attempt
            (None = no deadline beyond the wedge timeout).
        straggler_factor: A flight running longer than this multiple
            of the median completed-shard duration is speculated.
        min_straggler_samples: Completed shards needed before the
            median is trusted.
        straggler_floor_seconds: Never speculate below this elapsed
            time — medians of sub-millisecond shards are noise.
        max_retries: Replays allowed per shard after its first attempt.
        backoff_base_seconds: Backoff before the first replay.
        backoff_factor: Multiplier per further replay.
        backoff_max_seconds: Backoff ceiling.
        jitter_seed: Seed of the supervisor's backoff-jitter RNG.
            Simultaneous shard failures on a pure exponential schedule
            replay in synchronized storms; the supervisor therefore
            decorrelates replays by drawing each delay from a seeded
            RNG (see :meth:`backoff_seconds`).  Deterministic per seed;
            ``None`` disables jitter entirely.
        max_respawns: Replacement workers the pool may spawn before a
            dead pool is declared unrecoverable.
        poll_interval: Longest the supervisor's event loop waits when
            idle.  The loop waits on every worker's pipe and process
            exit, so a message or a death wakes it at once; liveness,
            deadline and straggler checks still run at least this often.
    """

    wedge_timeout: float = 5.0
    shard_deadline_seconds: float | None = None
    straggler_factor: float = 4.0
    min_straggler_samples: int = 3
    straggler_floor_seconds: float = 0.05
    max_retries: int = 2
    backoff_base_seconds: float = 0.02
    backoff_factor: float = 2.0
    backoff_max_seconds: float = 0.5
    jitter_seed: int | None = 0
    max_respawns: int = 4
    poll_interval: float = 0.004

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.straggler_factor <= 1.0:
            raise ValueError(
                f"straggler_factor must be > 1, got {self.straggler_factor}"
            )
        if self.wedge_timeout <= 0:
            raise ValueError(
                f"wedge_timeout must be positive, got {self.wedge_timeout}"
            )

    def backoff_seconds(self, attempt: int, rng=None) -> float:
        """Delay before dispatching replay ``attempt`` (1-based).

        Without ``rng`` the schedule is the pure capped exponential
        ``base · factor^(attempt−1)`` — deterministic, for tests and
        for callers that do their own spreading.  With ``rng`` (a
        ``random.Random``) the delay is decorrelated-jittered: drawn
        uniformly from ``[base, min(cap, 3 · exponential)]``, so
        simultaneous failures fan out instead of replaying in
        lockstep, while the base delay stays a hard floor and the cap
        a hard ceiling.
        """
        if attempt <= 0:
            return 0.0
        delay = self.backoff_base_seconds * self.backoff_factor ** (attempt - 1)
        if rng is None:
            return min(delay, self.backoff_max_seconds)
        low = self.backoff_base_seconds
        high = max(low, min(3.0 * delay, self.backoff_max_seconds))
        return min(rng.uniform(low, high), self.backoff_max_seconds)


@dataclass
class _ShardTask:
    """Supervisor-side state of one shard."""

    index: int
    procs: tuple[int, ...]
    remaining: set = field(default_factory=set)
    attempt: int = 0  # attempts dispatched so far
    eligible_at: float = 0.0
    speculated: bool = False
    in_flight: int = 0
    last_error: str | None = None

    @property
    def complete(self) -> bool:
        return not self.remaining


@dataclass
class _Flight:
    """One shard attempt running on one worker."""

    task: _ShardTask
    worker_id: int
    attempt: int
    started: float
    speculative: bool = False


@dataclass
class SupervisionOutcome:
    """What a supervised pool run produced.

    Attributes:
        results: Per-processor payloads keyed by 1-based processor id.
        events: Ordered recovery/decision log (event dicts).
        recoveries: Count of dead/wedged/deadline recoveries performed.
        speculations: Count of straggler duplicates dispatched.
    """

    results: dict
    events: list
    recoveries: int = 0
    speculations: int = 0


class WorkerSupervisor:
    """Drives a pool of workers through a shard schedule, surviving chaos.

    The supervisor is transport-agnostic: it sees workers through a
    small handle interface, so tests can drive it with in-process
    fakes and :mod:`repro.exec.pmimd` with real fork processes.

    A worker handle must provide ``worker_id`` (int),
    ``send(task_dict)``, ``poll()``/``recv()`` (message availability /
    retrieval), ``waitables()`` (the objects ``wait`` watches for this
    worker: its pipe end and process sentinel), ``is_alive()``,
    ``heartbeat() -> (last_beat, steps)`` (monotonic seconds,
    interpreted statements), ``kill()`` and ``close()``.

    Messages from workers are dicts: ``{"type": "proc", "shard",
    "attempt", "proc", "payload"}`` per finished processor,
    ``{"type": "done", "shard", "attempt"}`` per finished shard
    attempt, and ``{"type": "fail", "shard", "attempt", "dump"}`` for
    a caught failure (``dump`` in the ``crash_dump_for`` shape).

    Args:
        factory: ``factory(worker_id) -> handle`` spawning one worker.
        nworkers: Pool size to maintain.
        policy: The :class:`SupervisionPolicy` in force.
        backend: Name used in raised faults ("pmimd").
        clock: Monotonic time source (injectable for tests).
        wait: ``wait(waitables, timeout)`` returning once one is ready
            or the timeout passed (``multiprocessing.connection.wait``;
            injectable for tests).
    """

    def __init__(
        self,
        factory,
        nworkers: int,
        policy: SupervisionPolicy | None = None,
        *,
        backend: str = "pmimd",
        clock=time.monotonic,
        wait=wait_for_any,
    ):
        if nworkers < 1:
            raise ValueError(f"need at least one worker, got {nworkers}")
        self.factory = factory
        self.nworkers = nworkers
        self.policy = policy if policy is not None else SupervisionPolicy()
        self.backend = backend
        self._clock = clock
        self._wait = wait
        self._backoff_rng = (
            None
            if self.policy.jitter_seed is None
            else random.Random(self.policy.jitter_seed)
        )
        self._workers: dict[int, object] = {}
        self._flights: dict[int, _Flight] = {}  # worker_id -> flight
        self._next_worker_id = 0
        self._respawns = 0
        # Run-scoped state, (re)bound by run().
        self._tasks: dict[int, _ShardTask] = {}
        self._results: dict[int, object] = {}
        self._durations: list[float] = []
        self._pending: deque[int] = deque()
        self._retry_queue: deque[int] = deque()
        self.events: list[dict] = []
        self.recoveries = 0
        self.speculations = 0

    # -- event log -----------------------------------------------------------

    def _log(self, event: str, **detail) -> None:
        self.events.append({"event": event, "t": self._clock(), **detail})

    # -- pool management -----------------------------------------------------

    def _spawn_worker(self):
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        try:
            handle = self.factory(worker_id)
        except Exception as error:  # spawn itself failed — pool-level fault
            self._log("spawn-failed", worker=worker_id, error=str(error))
            return None
        self._workers[worker_id] = handle
        return handle

    def _retire_worker(self, worker_id: int, *, kill: bool) -> None:
        handle = self._workers.pop(worker_id, None)
        self._flights.pop(worker_id, None)
        if handle is None:
            return
        if kill:
            try:
                handle.kill()
            except Exception:
                pass
        try:
            handle.close()
        except Exception:
            pass

    def _replace_worker(self, worker_id: int) -> None:
        """Retire a failed worker; respawn a replacement if budget allows."""
        self._retire_worker(worker_id, kill=True)
        if self._respawns < self.policy.max_respawns:
            self._respawns += 1
            if self._spawn_worker() is not None:
                self._log("respawn", replaced=worker_id)

    def _idle_workers(self) -> list[int]:
        return [
            wid
            for wid, handle in self._workers.items()
            if wid not in self._flights and handle.is_alive()
        ]

    def shutdown(self) -> None:
        """Stop and release every worker (idempotent)."""
        for worker_id in list(self._workers):
            handle = self._workers[worker_id]
            try:
                if handle.is_alive():
                    handle.send({"cmd": "stop"})
            except Exception:
                pass
        for worker_id in list(self._workers):
            self._retire_worker(worker_id, kill=True)

    # -- main loop -----------------------------------------------------------

    def run(self, shards) -> SupervisionOutcome:
        """Execute every shard; return per-processor results + event log.

        Raises the reconstructed fault on a non-retryable worker
        failure, or a retryable :class:`BackendFault` when the pool is
        unrecoverable (a shard out of retries / no workers left) — the
        caller's :class:`~repro.reliability.policy.FallbackPolicy`
        decides what happens next.
        """
        self._tasks = {
            shard.index: _ShardTask(
                index=shard.index,
                procs=tuple(shard.procs),
                remaining=set(shard.procs),
            )
            for shard in shards
        }
        self._results = {}
        self._durations = []
        self._pending = deque(sorted(self._tasks))
        self._retry_queue = deque()
        try:
            for _ in range(self.nworkers):
                self._spawn_worker()
            if not self._workers:
                fault = BackendFault(
                    f"{self.backend}: could not spawn any worker"
                )
                fault.supervision_events = self.events
                raise fault
            while any(not task.complete for task in self._tasks.values()):
                progressed = self._drain_messages()
                progressed |= self._check_liveness()
                self._maybe_speculate()
                progressed |= self._dispatch()
                self._check_recoverable()
                if not progressed:
                    self._idle()
            # A shard's last processor result can arrive a poll before
            # its "done": collect the outstanding ones (or see their
            # workers die).  Flights of a speculated shard are not
            # waited on — one copy already won, the other is a straggler.
            while any(
                not (flight.speculative or flight.task.speculated)
                for flight in self._flights.values()
            ):
                progressed = self._drain_messages()
                progressed |= self._check_liveness()
                if not progressed:
                    self._idle()
        finally:
            self.shutdown()
        return SupervisionOutcome(
            results=self._results,
            events=self.events,
            recoveries=self.recoveries,
            speculations=self.speculations,
        )

    def _idle(self) -> None:
        """Wait for any worker's message or exit, at most one
        ``poll_interval``."""
        waitables = [
            waitable
            for handle in self._workers.values()
            for waitable in handle.waitables()
        ]
        self._wait(waitables, self.policy.poll_interval)

    # -- message handling ----------------------------------------------------

    def _drain_messages(self) -> bool:
        progressed = False
        for worker_id in list(self._workers):
            handle = self._workers.get(worker_id)
            if handle is None:
                continue
            while True:
                try:
                    if not handle.poll():
                        break
                    message = handle.recv()
                except (EOFError, OSError):
                    break  # the liveness check classifies the death
                progressed = True
                self._handle_message(worker_id, message)
        return progressed

    def _record_proc(self, worker_id: int, message: dict) -> None:
        """Checkpoint one processor's result (first copy wins)."""
        task = self._tasks.get(message.get("shard"))
        if task is None:
            return
        proc = message["proc"]
        if proc in self._results:
            return  # duplicate from a speculative copy
        self._results[proc] = message["payload"]
        task.remaining.discard(proc)
        self._log(
            "proc-complete",
            shard=task.index,
            proc=proc,
            worker=worker_id,
            attempt=message.get("attempt", 0),
        )

    def _handle_message(self, worker_id: int, message: dict) -> None:
        kind = message.get("type")
        if kind == "proc":
            self._record_proc(worker_id, message)
            return
        task = self._tasks.get(message.get("shard"))
        if task is None:
            return
        if kind == "ckpt-resume":
            # A replayed processor continued from its stored checkpoint
            # instead of statement 0 — record where it picked up so
            # chaos tests (and `repro run`) can bound the lost work.
            self._log(
                "checkpoint-resume",
                shard=task.index,
                worker=worker_id,
                proc=message.get("proc"),
                attempt=message.get("attempt", 0),
                step=message.get("step", 0),
            )
            return
        if kind == "done":
            flight = self._flights.get(worker_id)
            if flight is not None and flight.task.index == task.index:
                self._durations.append(self._clock() - flight.started)
                task.in_flight = max(0, task.in_flight - 1)
                del self._flights[worker_id]
            self._log(
                "shard-complete",
                shard=task.index,
                worker=worker_id,
                attempt=message.get("attempt", 0),
                complete=task.complete,
            )
            return
        if kind == "fail":
            flight = self._flights.pop(worker_id, None)
            if flight is not None:
                task.in_flight = max(0, task.in_flight - 1)
            error = error_from_dump(message.get("dump"))
            self._log(
                "fault",
                shard=task.index,
                worker=worker_id,
                attempt=message.get("attempt", 0),
                error=type(error).__name__,
                detail=str(error),
                retryable=error.retryable,
            )
            task.last_error = f"{type(error).__name__}: {error}"
            if not error.retryable:
                # Program-level fault: replaying it elsewhere re-fails.
                error.supervision_events = self.events
                raise error
            self._requeue(task)

    # -- liveness, deadlines, stragglers -------------------------------------

    def _check_liveness(self) -> bool:
        now = self._clock()
        progressed = False
        for worker_id in list(self._workers):
            handle = self._workers.get(worker_id)
            if handle is None:
                continue
            flight = self._flights.get(worker_id)
            if not handle.is_alive():
                progressed = True
                self._on_worker_lost(
                    worker_id,
                    flight,
                    kind="worker-dead",
                    detail="worker process died",
                )
                continue
            if flight is None:
                continue
            try:
                beat, steps = handle.heartbeat()
            except Exception:
                beat, steps = 0.0, 0
            last_signal = max(beat, flight.started)
            if now - last_signal > self.policy.wedge_timeout:
                progressed = True
                self._on_worker_lost(
                    worker_id,
                    flight,
                    kind="worker-wedged",
                    detail=(
                        f"no heartbeat for {now - last_signal:.2f}s "
                        f"(steps={int(steps)})"
                    ),
                )
                continue
            deadline = self.policy.shard_deadline_seconds
            if deadline is not None and now - flight.started > deadline:
                progressed = True
                self._on_worker_lost(
                    worker_id,
                    flight,
                    kind="shard-deadline",
                    detail=(
                        f"shard ran {now - flight.started:.2f}s > {deadline}s"
                    ),
                )
        return progressed

    def _on_worker_lost(self, worker_id, flight, *, kind, detail) -> None:
        """A worker is dead/wedged/over-deadline: salvage, recover, replay."""
        handle = self._workers.get(worker_id)
        # Salvage per-processor checkpoints still sitting in the pipe so
        # the replay only re-executes processors that never reported.
        if handle is not None:
            try:
                while handle.poll():
                    message = handle.recv()
                    if message.get("type") == "proc":
                        self._record_proc(worker_id, message)
            except (EOFError, OSError):
                pass
        self._log(
            kind,
            worker=worker_id,
            shard=None if flight is None else flight.task.index,
            attempt=None if flight is None else flight.attempt,
            detail=detail,
        )
        if flight is not None:
            self.recoveries += 1
            flight.task.in_flight = max(0, flight.task.in_flight - 1)
        self._replace_worker(worker_id)
        if flight is not None and not flight.task.complete:
            flight.task.last_error = f"{kind}: {detail}"
            self._requeue(flight.task)

    def _maybe_speculate(self) -> None:
        policy = self.policy
        if len(self._durations) < policy.min_straggler_samples:
            return
        typical = median(self._durations)
        threshold = max(
            policy.straggler_factor * typical, policy.straggler_floor_seconds
        )
        now = self._clock()
        for flight in list(self._flights.values()):
            task = flight.task
            if task.speculated or task.complete or flight.speculative:
                continue
            if now - flight.started <= threshold:
                continue
            idle = self._idle_workers()
            if not idle:
                return
            worker_id = idle[0]
            task.speculated = True
            self.speculations += 1
            # The duplicate runs as a replay (attempt + 1): transient
            # first-attempt fault injections must not re-fire on it.
            self._send_task(
                worker_id, task, flight.attempt + 1, speculative=True
            )
            self._log(
                "speculate",
                shard=task.index,
                slow_worker=flight.worker_id,
                worker=worker_id,
                elapsed=now - flight.started,
                threshold=threshold,
            )

    # -- dispatch and retry --------------------------------------------------

    def _requeue(self, task: _ShardTask) -> None:
        """Schedule a failed shard's replay with exponential backoff."""
        if task.complete or task.in_flight > 0:
            # A speculative copy is still running this shard; let it win.
            return
        replays_used = task.attempt - 1  # the first attempt is free
        if replays_used >= self.policy.max_retries:
            self._log(
                "unrecoverable",
                shard=task.index,
                attempts=task.attempt,
                detail=task.last_error,
            )
            fault = BackendFault(
                f"{self.backend}: worker pool unrecoverable — shard "
                f"{task.index} failed {task.attempt} attempt(s); last "
                f"failure: {task.last_error}",
                retryable=True,
            )
            fault.supervision_events = self.events
            raise fault
        delay = self.policy.backoff_seconds(task.attempt, rng=self._backoff_rng)
        task.eligible_at = self._clock() + delay
        task.speculated = False
        if task.index not in self._retry_queue:
            self._retry_queue.append(task.index)
        self._log(
            "backoff",
            shard=task.index,
            attempt=task.attempt,
            delay=delay,
        )

    def _dispatch(self) -> bool:
        now = self._clock()
        progressed = False
        # Retries first: they already waited out their backoff.
        for queue in (self._retry_queue, self._pending):
            while queue:
                idle = self._idle_workers()
                if not idle:
                    return progressed
                task = self._tasks[queue[0]]
                if task.complete or task.in_flight > 0:
                    queue.popleft()
                    continue
                if task.eligible_at > now:
                    break
                queue.popleft()
                worker_id = idle[0]
                self._send_task(worker_id, task, task.attempt)
                if task.attempt > 0:
                    self._log(
                        "retry",
                        shard=task.index,
                        worker=worker_id,
                        attempt=task.attempt,
                    )
                task.attempt += 1
                progressed = True
        return progressed

    def _send_task(self, worker_id, task, attempt, *, speculative=False):
        handle = self._workers[worker_id]
        flight = _Flight(
            task=task,
            worker_id=worker_id,
            attempt=attempt,
            started=self._clock(),
            speculative=speculative,
        )
        self._flights[worker_id] = flight
        task.in_flight += 1
        try:
            handle.send(
                {
                    "cmd": "run",
                    "shard": task.index,
                    "procs": sorted(task.remaining),
                    "attempt": attempt,
                }
            )
        except (OSError, BrokenPipeError):
            # Worker died between the liveness check and the send; the
            # next liveness pass recovers this flight.
            return
        self._log(
            "dispatch",
            shard=task.index,
            worker=worker_id,
            attempt=attempt,
            procs=len(task.remaining),
            speculative=speculative,
        )

    def _check_recoverable(self) -> None:
        """A pool with work left but no possible workers is unrecoverable."""
        if self._workers:
            return
        if all(task.complete for task in self._tasks.values()):
            return
        if self._respawns < self.policy.max_respawns:
            self._respawns += 1
            if self._spawn_worker() is not None:
                self._log("respawn", replaced=None)
                return
        incomplete = sorted(
            task.index for task in self._tasks.values() if not task.complete
        )
        self._log("unrecoverable", shards=incomplete, detail="pool exhausted")
        fault = BackendFault(
            f"{self.backend}: worker pool unrecoverable — no live workers "
            f"and no respawn budget left; incomplete shards {incomplete}",
            retryable=True,
        )
        fault.supervision_events = self.events
        raise fault
