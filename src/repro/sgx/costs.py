"""SGX performance model: transitions, in-enclave slowdown, EPC paging.

Numbers are calibrated from the literature the paper cites ([20, 25,
26, 28, 29]) and from the paper's own observations:

* an Ecall transition costs ~8 microseconds (HotCalls measure
  8,000-14,000 cycles);
* in-enclave execution of the DCert workload is at most ~1.8x the
  plain-CPU time (Fig. 8), so the default slowdown factor is 0.8
  *extra* seconds per second of work;
* usable EPC is 93 MB (§2.2); exceeding it pages at a charge derived
  from SGX paging benchmarks (~40K cycles/page ≈ 3 ms/MB at 3.5 GHz).

Charges are *spent* by default (busy-wait), so wall-clock benchmarks
show the modeled shapes; they are also *recorded* in a
:class:`CostLedger` so harnesses can report breakdowns, and the whole
model can be disabled for unit tests via :func:`cost_model_disabled`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.obs.wallclock import busy_wait_s


@dataclass(slots=True)
class SGXCostModel:
    """Tunable cost parameters for the simulated enclave."""

    ecall_transition_s: float = 8e-6
    enclave_slowdown_extra: float = 0.8  # extra seconds per second of work
    epc_usable_bytes: int = 93 * 1024 * 1024
    paging_s_per_mb: float = 3e-3
    spend_time: bool = True  # busy-wait the charges into wall clock

    def paging_charge(self, peak_bytes: int) -> float:
        """Seconds of paging cost for an ecall peaking at ``peak_bytes``."""
        overflow = peak_bytes - self.epc_usable_bytes
        if overflow <= 0:
            return 0.0
        return (overflow / (1024 * 1024)) * self.paging_s_per_mb


@dataclass(slots=True)
class CostLedger:
    """Accumulated modeled costs, for benchmark breakdowns."""

    ecalls: int = 0
    transition_s: float = 0.0
    slowdown_s: float = 0.0
    paging_s: float = 0.0
    in_enclave_s: float = 0.0  # raw measured work inside the enclave
    peak_epc_bytes: int = 0

    def total_overhead_s(self) -> float:
        return self.transition_s + self.slowdown_s + self.paging_s

    def reset(self) -> None:
        self.ecalls = 0
        self.transition_s = 0.0
        self.slowdown_s = 0.0
        self.paging_s = 0.0
        self.in_enclave_s = 0.0
        self.peak_epc_bytes = 0

    def snapshot(self) -> "CostLedger":
        return CostLedger(
            ecalls=self.ecalls,
            transition_s=self.transition_s,
            slowdown_s=self.slowdown_s,
            paging_s=self.paging_s,
            in_enclave_s=self.in_enclave_s,
            peak_epc_bytes=self.peak_epc_bytes,
        )

    def delta(self, before: "CostLedger") -> "CostLedger":
        """Charges accumulated since ``before`` (an earlier snapshot).

        ``peak_epc_bytes`` is a high-water mark, not a sum, so the delta
        carries the current peak unchanged.
        """
        return CostLedger(
            ecalls=self.ecalls - before.ecalls,
            transition_s=self.transition_s - before.transition_s,
            slowdown_s=self.slowdown_s - before.slowdown_s,
            paging_s=self.paging_s - before.paging_s,
            in_enclave_s=self.in_enclave_s - before.in_enclave_s,
            peak_epc_bytes=self.peak_epc_bytes,
        )


# Depth counter, not a saved boolean: nested ``cost_model_disabled()``
# contexts can exit out of LIFO order (pytest fixtures and generators
# interleave teardown freely).  A save/restore boolean then either
# re-enables charging while an inner context is still active, or leaves
# the model disabled forever — after which every ecall records *zeroed*
# charges into ledgers that callers believe are live ("leaked" zero
# charges that silently dilute snapshot deltas).  With a depth counter,
# the model is enabled exactly when no context is active, whatever the
# exit order.
_DISABLED_DEPTH = 0


def model_enabled() -> bool:
    return _DISABLED_DEPTH == 0


@contextmanager
def cost_model_disabled() -> Iterator[None]:
    """Turn off all charging (unit tests that only care about logic)."""
    global _DISABLED_DEPTH
    _DISABLED_DEPTH += 1
    try:
        yield
    finally:
        _DISABLED_DEPTH -= 1


def spend(seconds: float) -> None:
    """Busy-wait ``seconds`` so modeled cost appears in wall clock."""
    busy_wait_s(seconds)
