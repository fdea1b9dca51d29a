"""The yardstick: a fixed stdlib-only kernel that host speed is read against.

Wall time on a shared host drifts with core speed (an identical
``crypto.verify`` loop moved 2.87 -> 3.49 ms between back-to-back
repetitions in one process, CPU time == wall time), so gated timings
are reported as ``op_time / yardstick_time * NOMINAL_MS``: the kernel
below runs next to the operations it scales, and the ratio cancels the
drift.  The kernel mixes the two things this codebase spends its time
on -- big-integer modular arithmetic (pure-Python secp256k1) and
SHA-256 over short inputs (every Merkle structure) -- and imports
nothing from ``repro``, so no later change to the program can move it.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from statistics import median
from time import perf_counter

#: What one kernel run is taken to cost, in milliseconds.  A constant of
#: the benchmark: changing it rescales every gated timing.
NOMINAL_MS = 0.35

_P = 2**256 - 2**32 - 977
_BIGINT_STEPS = 450
_HASH_STEPS = 500

#: A reading is taken once this much operation time has accumulated ...
ACCUMULATE_S = 0.002
#: ... or right after any single operation at least this long.
LONG_OP_S = 0.001
#: Each interval is scaled by the median of this many nearest readings.
NEAREST = 5


def kernel() -> bytes:
    """The fixed unit of work (about NOMINAL_MS on the reference host)."""
    x = 0x9E3779B97F4A7C15F39CC0605CEDC8341082276BF3A27251F86C6A11D0C18E95
    for i in range(_BIGINT_STEPS):
        x = (x * x + i) % _P
    digest = x.to_bytes(32, "big")
    sha256 = hashlib.sha256
    for _ in range(_HASH_STEPS):
        digest = sha256(digest).digest()
    return digest


class Yardstick:
    """Interleaved kernel readings, each tagged with a timeline position.

    The caller advances ``position`` once per timed interval; ``scale``
    then converts a raw duration at some position into normalised time
    using the readings taken nearest to it.
    """

    def __init__(self) -> None:
        self.positions: list[int] = []
        self.readings_s: list[float] = []
        self._accumulated_s = 0.0

    def read(self, position: int) -> None:
        started = perf_counter()
        kernel()
        self.readings_s.append(perf_counter() - started)
        self.positions.append(position)
        self._accumulated_s = 0.0

    def after(self, position: int, raw_s: float) -> None:
        """Account one finished interval; read the kernel when due."""
        self._accumulated_s += raw_s
        if raw_s >= LONG_OP_S or self._accumulated_s >= ACCUMULATE_S:
            self.read(position)

    def scale(self, position: int) -> float:
        """Factor turning raw seconds at ``position`` into normalised
        seconds: NOMINAL over the median of the nearest readings."""
        count = len(self.readings_s)
        if count == 0:
            raise RuntimeError("no yardstick reading was taken")
        centre = bisect_left(self.positions, position)
        low = max(0, min(centre - NEAREST // 2, count - NEAREST))
        window = self.readings_s[low : low + NEAREST]
        return (NOMINAL_MS / 1000.0) / median(window)

    def summary(self) -> dict:
        """Raw host diagnostics: the kernel's median cost and its spread."""
        ordered = sorted(self.readings_s)
        mid = ordered[len(ordered) // 2]
        low = ordered[len(ordered) // 10]
        high = ordered[(len(ordered) * 9) // 10]
        return {
            "readings": len(ordered),
            "p50_us": mid * 1e6,
            "spread": (high - low) / mid if mid else 0.0,
        }
