"""Deterministic crash injection: failpoint-style crashpoints.

Crash safety cannot be tested by waiting for crashes — the interesting
failures live in windows a few instructions wide (after the enclave
signed but before the WAL record landed; after a torn partial write;
between a checkpoint's temp file and its rename).  This module plants
named **crashpoints** in those windows.  Each instrumented site calls
:func:`crashpoint` with a name from :data:`CATALOG`; normally that is a
no-op costing one global read, but when a :class:`CrashSchedule` is
armed (see :func:`crash_armed`) the scheduled arrival raises
:class:`SimulatedCrash`, modelling the process dying at exactly that
boundary.

Determinism: a schedule is ``(point, hit, seed)`` — crash on the
``hit``-th arrival at ``point``; ``seed`` drives any byte-level choices
(e.g. where a torn write cuts).  The chaos harness
(:mod:`repro.fault.chaos`) sweeps every cataloged point and replays any
failure from its printed ``(point, hit, seed)`` triple.

:class:`SimulatedCrash` deliberately subclasses :class:`BaseException`:
library code that catches ``Exception`` (or :class:`repro.errors
.ReproError`) to clean up or reply over RPC must *not* swallow a crash
— a dying process does not run except-blocks.
"""

from __future__ import annotations

import random
import zlib
from contextlib import contextmanager
from typing import Iterator

from repro import obs


class SimulatedCrash(BaseException):
    """The process 'died' at a crashpoint.

    A ``BaseException`` so that ordinary ``except Exception`` cleanup
    paths cannot observe it — everything in-memory past this point is
    lost, exactly like a real crash.  Only the test/chaos harness (or a
    supervisor modelling a separate process) may catch it.
    """

    def __init__(self, point: str, hit: int) -> None:
        super().__init__(f"simulated crash at {point!r} (arrival {hit})")
        self.point = point
        self.hit = hit


#: Every crashpoint the library plants, by name.  The chaos harness
#: sweeps this catalog; :func:`crashpoint` rejects names outside it so
#: a typo at an instrumented site fails loudly instead of silently
#: never firing.
CATALOG: tuple[str, ...] = (
    # durable WAL (repro.storage): the fsync boundary.
    "wal.append.pre_write",      # record framed but no byte hit disk
    "wal.append.torn_write",     # a partial prefix of the record hit disk
    "wal.append.post_fsync",     # record fully durable; crash right after
    # checkpoint sidecar (repro.storage): the rename boundary.
    "archive.checkpoint.pre_rename",   # temp file written, not renamed
    "archive.checkpoint.post_rename",  # checkpoint durable; crash after
    # enclave boundary (repro.sgx.enclave).
    "enclave.ecall.pre",         # about to enter the enclave
    "enclave.ecall.post",        # enclave returned; host lost the result
    # issuer (repro.core.issuer).
    "issuer.process_block.pre",  # certification about to start
    "issuer.process_block.post", # certified + committed in memory only
    # durable issuer (repro.core.recovery).
    "durable.append.pre_wal",    # certificate issued, WAL record not yet written
    "durable.checkpoint.pre_seal",  # checkpoint capture about to start
    # query service (repro.query.provider.QueryService).
    "query.execute.pre",         # request decoded, processing not started
    "query.execute.post",        # answer computed, reply not yet sent
    # subscription hub (repro.net.pubsub.SubscriptionHub).
    "pubsub.publish.pre",        # block certified, announcement not yet built
    "pubsub.deliver.pre",        # mid-fanout: some subscribers already sent to
    "pubsub.publish.post",       # fanout complete, caller not yet resumed
)

_KNOWN = frozenset(CATALOG)


class CrashSchedule:
    """Crash on the ``hit``-th arrival at ``point`` (1-based)."""

    def __init__(self, point: str, hit: int = 1, seed: int = 0) -> None:
        if point not in _KNOWN:
            raise ValueError(f"unknown crashpoint {point!r}")
        if hit < 1:
            raise ValueError("hit index is 1-based")
        self.point = point
        self.hit = hit
        self.seed = seed
        self.arrivals: dict[str, int] = {}
        self.fired = False

    def _arrive(self, name: str) -> bool:
        count = self.arrivals.get(name, 0) + 1
        self.arrivals[name] = count
        return (not self.fired) and name == self.point and count == self.hit

    def rng(self) -> random.Random:
        """Deterministic per-(point, seed) stream for byte-level choices."""
        return random.Random(
            (self.seed << 32) ^ zlib.crc32(self.point.encode("utf-8"))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CrashSchedule(point={self.point!r}, hit={self.hit}, "
            f"seed={self.seed})"
        )


_active: CrashSchedule | None = None


def active_schedule() -> CrashSchedule | None:
    """The currently armed schedule, if any."""
    return _active


def crashpoint(name: str) -> None:
    """Announce arrival at the crashpoint ``name``.

    No-op unless a schedule is armed and due here, in which case
    :class:`SimulatedCrash` is raised.
    """
    schedule = _active
    if schedule is None:
        if name not in _KNOWN:
            raise AssertionError(f"uncataloged crashpoint {name!r}")
        return
    if schedule._arrive(name):
        _fire(schedule, name)


def torn_prefix(name: str, size: int) -> int | None:
    """Arrival at a torn-write crashpoint that needs a cut position.

    Returns ``None`` when not due.  When due, returns how many bytes of
    the ``size``-byte payload the caller should write before invoking
    :func:`crash_now` — strictly inside the payload, so the record on
    disk is genuinely torn.
    """
    schedule = _active
    if schedule is None:
        if name not in _KNOWN:
            raise AssertionError(f"uncataloged crashpoint {name!r}")
        return None
    if not schedule._arrive(name):
        return None
    if size < 2:
        return None  # nothing to tear; treat as a lost write instead
    return 1 + schedule.rng().randrange(size - 1)


def crash_now(name: str) -> None:
    """Unconditionally crash at ``name`` (the :func:`torn_prefix` follow-up)."""
    schedule = _active
    hit = schedule.arrivals.get(name, 0) if schedule is not None else 0
    if schedule is not None:
        _fire(schedule, name)
    raise SimulatedCrash(name, hit)


def _fire(schedule: CrashSchedule, name: str) -> None:
    schedule.fired = True
    obs.inc("fault.crashpoints_fired")
    raise SimulatedCrash(name, schedule.arrivals.get(name, 0))


@contextmanager
def crash_armed(point: str, hit: int = 1, seed: int = 0) -> Iterator[CrashSchedule]:
    """Arm one :class:`CrashSchedule` for the duration of the block.

    Yields the schedule so callers can check ``schedule.fired`` (the
    workload may legitimately never reach the armed arrival).  Nested
    arming restores the outer schedule on exit.
    """
    global _active
    schedule = CrashSchedule(point, hit=hit, seed=seed)
    previous = _active
    _active = schedule
    try:
        yield schedule
    finally:
        _active = previous
