"""Deterministic fault injection for crash-safety testing.

:mod:`repro.fault.crashpoints` plants named crashpoints at the durable
boundaries of the library; :mod:`repro.sim` arms them from its
``crash`` event, interleaved with live traffic in whole-system
simulation runs, and its invariants check the recovery (the crash
sweep, ``tests/fault/test_chaos_sweep.py``, scripts one such event per
point).  See ``docs/recovery.md`` and ``docs/testing.md``.
"""

from repro.fault.crashpoints import (
    CATALOG,
    CrashSchedule,
    SimulatedCrash,
    active_schedule,
    crash_armed,
    crash_now,
    crashpoint,
    torn_prefix,
)

__all__ = [
    "CATALOG",
    "CrashSchedule",
    "SimulatedCrash",
    "active_schedule",
    "crash_armed",
    "crash_now",
    "crashpoint",
    "torn_prefix",
]
