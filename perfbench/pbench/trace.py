"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name (the layer), start and end (``perf_counter``), the
index of the span that caused it, and the trace id of the operation it
belongs to.  Every workload operation opens a root span with a fresh
trace id (:meth:`Tracer.op`); layer spans opened while it runs nest
under it.  Spans stay in memory until :meth:`Tracer.dump` writes them
out at the end of the run.

A layer's self time is its spans' durations minus the part of each
interval that direct child spans cover.  Root-span self time is the
benchmark's own work inside an operation; ``bench.*`` spans are its
own work between operations.  Both count as ``unattributed``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter

ROOT_PREFIX = "op:"
BENCH_PREFIX = "bench."


class _Span:
    __slots__ = ("tracer", "name", "new_trace", "index")

    def __init__(self, tracer, name, new_trace):
        self.tracer = tracer
        self.name = name
        self.new_trace = new_trace

    def __enter__(self):
        tracer = self.tracer
        local = tracer._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        if self.new_trace or not stack:
            trace_id = next(tracer._trace_ids)
            parent = None
        else:
            parent = stack[-1]
            trace_id = tracer.spans[parent][4]
        record = [self.name, time.perf_counter(), None, parent, trace_id]
        with tracer._lock:
            self.index = len(tracer.spans)
            tracer.spans.append(record)
        stack.append(self.index)
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = time.perf_counter()
        self.tracer._local.stack.pop()
        return False


class _Nothing:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NOTHING = _Nothing()


class NullTracer:
    """The untraced run: operations and spans cost one method call."""

    enabled = False

    def op(self, name):
        return _NOTHING

    def span(self, name):
        return _NOTHING

    def count(self, key, amount=1):
        pass


class Tracer:
    """Records spans and counts; safe to use from several threads."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._trace_ids = itertools.count(1)

    def op(self, name: str) -> _Span:
        """A root span: one workload operation with its own trace id."""
        return _Span(self, ROOT_PREFIX + name, True)

    def span(self, name: str) -> _Span:
        """A layer span, nested under the innermost open span."""
        return _Span(self, name, False)

    def count(self, key: str, amount=1) -> None:
        with self._lock:
            self.counts[key] += amount

    def self_times(self) -> tuple[dict, dict, dict]:
        """``(self seconds, inclusive seconds, calls)`` per span name."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _trace in self.spans:
            if parent is not None:
                covered[parent] += end - start
        own: Counter = Counter()
        total: Counter = Counter()
        calls: Counter = Counter()
        for index, (name, start, end, _parent, _trace) in enumerate(self.spans):
            own[name] += (end - start) - covered[index]
            total[name] += end - start
            calls[name] += 1
        return dict(own), dict(total), dict(calls)

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as handle:
            for name, start, end, parent, trace_id in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "trace": trace_id,
                        }
                    )
                    + "\n"
                )


def breakdown(tracer: Tracer, wall_seconds: float) -> dict:
    """Layer self times, the unattributed remainder and the consistency check.

    ``wall_seconds`` is the window's end-to-end wall time, as the
    workload measured it with its own timer.  What the layers' self
    times leave of it is ``unattributed``, which must itself be
    explained: the root spans' self time (the benchmark's code inside
    operations), the ``bench.*`` spans (its probe samples, output
    checks and input generation between operations), and a remainder
    outside any span (the loop itself).  The breakdown is consistent
    when that remainder is within 1 % of the wall time and no self time
    is negative.
    """
    own, total, calls = tracer.self_times()
    layers = {
        name: seconds for name, seconds in own.items()
        if not name.startswith((ROOT_PREFIX, BENCH_PREFIX))
    }
    bench = {
        name: seconds for name, seconds in own.items() if name.startswith(BENCH_PREFIX)
    }
    inside_ops = sum(
        seconds for name, seconds in own.items() if name.startswith(ROOT_PREFIX)
    )
    unattributed = wall_seconds - sum(layers.values())
    outside = unattributed - inside_ops - sum(bench.values())
    return {
        "layers": dict(sorted(layers.items(), key=lambda item: -item[1])),
        "bench": dict(sorted(bench.items(), key=lambda item: -item[1])),
        "inclusive": total,
        "calls": calls,
        "wall": wall_seconds,
        "unattributed": unattributed,
        "inside_ops": inside_ops,
        "outside": outside,
        "consistent": abs(outside) <= 0.01 * wall_seconds + 1e-3
        and all(seconds >= -1e-6 for seconds in own.values()),
    }
