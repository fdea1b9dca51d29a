"""Timing, spans and the watchdog: what every workload measures through.

One :class:`Clock` owns a timeline.  Every timed interval -- a set-up
step, an operation, a span around a call into a layer -- advances the
timeline by one position and is stored with its raw duration; yardstick
readings (:mod:`yardstick`) are interleaved on the same timeline, so any
interval can later be scaled by the readings taken nearest to it.

Three kinds of time pass through here and are never mixed: *raw* wall
seconds (``series``/``ops`` hold these), *normalised* seconds (raw times
the yardstick scale; the gated numbers), and *virtual* bus milliseconds
(read by the workloads from ``bus.clock_ms``; never touched here).
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

from repro.errors import ReproError

from yardstick import Yardstick


class WatchdogExpired(BaseException):
    """The workload's wall-clock ceiling passed.  A ``BaseException`` so
    no ``except Exception`` on the way up can swallow it."""


class CheckFailed(Exception):
    """A workload's output check did not hold."""


def arm_watchdog(ceiling_s: float) -> None:
    """Raise :class:`WatchdogExpired` in the main thread after
    ``ceiling_s`` wall seconds (one process, one thread: SIGALRM fits)."""

    def expire(_signum, _frame):
        raise WatchdogExpired(f"wall-clock ceiling of {ceiling_s:.0f} s passed")

    signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, ceiling_s)


def disarm_watchdog() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0.0)


def percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Clock:
    """A timeline of timed intervals with interleaved yardstick readings."""

    def __init__(self, *, tracing: bool = False) -> None:
        self.yard = Yardstick()
        self.tracing = tracing
        self.position = 0
        #: name -> [(position, raw seconds)], for set-up steps and spans.
        self.series: dict[str, list[tuple[int, float]]] = {}
        #: (position, raw seconds, ops credited, kind), completed ops only.
        self.ops: list[tuple[int, float, int, str]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        #: Spans of the traced run: name, start, end (raw seconds since
        #: ``origin``), parent span index, and the operation they belong to.
        self.spans: list[dict] = []
        self.origin = perf_counter()
        self.last_raw_s = 0.0
        self._depth = 0
        self._open: list[int] = []
        self._op_id = -1

    # -- timing --------------------------------------------------------------

    def _run(self, name: str, fn, args, kwargs):
        span = None
        if self.tracing:
            span = {
                "name": name,
                "parent": self._open[-1] if self._open else None,
                "op": self._op_id if self._depth or name == "op" else None,
            }
            self._open.append(len(self.spans))
            self.spans.append(span)
        self._depth += 1
        started = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            ended = perf_counter()
            self._depth -= 1
            if span is not None:
                self._open.pop()
                span["start"] = started - self.origin
                span["end"] = ended - self.origin
        self.position += 1
        self.last_raw_s = ended - started
        if self._depth == 0:
            self.yard.after(self.position, self.last_raw_s)
        return result

    def timed(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as one interval of series ``name``; returns its
        result.  Nested calls are allowed (a span inside an operation);
        the yardstick is only read between outermost intervals, so a
        kernel run never lands inside a measured one."""
        result = self._run(name, fn, args, kwargs)
        self.series.setdefault(name, []).append((self.position, self.last_raw_s))
        return result

    def op(self, kind: str, fn, *args, credit: int = 1):
        """Run one operation (or one call standing for ``credit`` equal
        operations).  A typed :class:`ReproError` counts the operation
        as failed -- and as missing its latency -- instead of ending the
        run; anything else is a bug and propagates."""
        self._op_id += 1
        self.attempted += credit
        try:
            result = self._run("op", fn, args, {})
        except ReproError as exc:
            self.failed += credit
            label = type(exc).__name__
            self.failures[label] = self.failures.get(label, 0) + credit
            return None
        self.ops.append((self.position, self.last_raw_s, credit, kind))
        return result

    def finish(self) -> None:
        """Take a closing reading so the last intervals have one near."""
        self.yard.read(self.position)

    # -- normalisation -------------------------------------------------------

    def normalised_s(self, name: str) -> list[float]:
        scale = self.yard.scale
        return [raw * scale(pos) for pos, raw in self.series.get(name, ())]

    def normalised_ms_mean(self, name: str) -> float:
        """Mean normalised milliseconds of a span series (0 when the
        layer was not exercised)."""
        values = self.normalised_s(name)
        return sum(values) / len(values) * 1000.0 if values else 0.0

    def raw_s(self, name: str) -> list[float]:
        return [raw for _pos, raw in self.series.get(name, ())]

    def op_table(self) -> list[tuple[str, float, float, int]]:
        """(kind, raw seconds, normalised seconds, credit) per timed call."""
        scale = self.yard.scale
        return [
            (kind, raw, raw * scale(pos), credit)
            for pos, raw, credit, kind in self.ops
        ]

    def per_op_ms_by_kind(self) -> dict[str, list[float]]:
        """Normalised milliseconds per credited operation, by kind."""
        table: dict[str, list[float]] = {}
        for kind, _raw, normalised, credit in self.op_table():
            table.setdefault(kind, []).append(normalised * 1000.0 / credit)
        return table

    # -- spans ---------------------------------------------------------------

    def self_times(self) -> dict[str, dict]:
        """Per span name: count, total and self seconds (raw).  Self time
        is a span's duration minus what its direct children cover."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_s[span["parent"]] += span["end"] - span["start"]
        table: dict[str, dict] = {}
        for index, span in enumerate(self.spans):
            row = table.setdefault(
                span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            duration = span["end"] - span["start"]
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_s[index]
        return table
