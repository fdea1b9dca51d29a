"""Blockbench CPUHeavy: sorting-dominated compute micro benchmark.

The original workload quicksorts a pseudo-random array inside the
contract.  State traffic is minimal (one checksum cell), so certificate
construction time is dominated by transaction *execution* rather than
Merkle proof handling — which is why the paper observes the enclave
overhead being diluted for CPU (Fig. 8).
"""

from __future__ import annotations

from repro.chain.vm import Contract, ContractContext
from repro.errors import TransactionError


def _xorshift_sequence(seed: int, count: int) -> list[int]:
    """Deterministic pseudo-random ints (xorshift64*)."""
    state = (seed or 1) & 0xFFFFFFFFFFFFFFFF
    values = []
    for _ in range(count):
        state ^= (state >> 12) & 0xFFFFFFFFFFFFFFFF
        state ^= (state << 25) & 0xFFFFFFFFFFFFFFFF
        state ^= (state >> 27) & 0xFFFFFFFFFFFFFFFF
        values.append((state * 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF)
    return values


class CPUHeavy(Contract):
    """``sort(n, seed)``: quicksort n pseudo-random ints, store a checksum."""

    name = "cpuheavy"
    CODE_ID = "blockbench.cpuheavy/1"

    def call(
        self, ctx: ContractContext, method: str, args: tuple[str, ...], sender: str
    ) -> None:
        if method != "sort":
            raise TransactionError(f"cpuheavy has no method {method!r}")
        if len(args) != 2:
            raise TransactionError("sort expects (n, seed)")
        size, seed = int(args[0]), int(args[1])
        if size < 0 or size > 1_000_000:
            raise TransactionError("sort size out of range")
        values = _xorshift_sequence(seed, size)
        ordered = self._quicksort(values)
        checksum = 0
        for index, value in enumerate(ordered):
            checksum = (checksum * 31 + value * (index + 1)) % (1 << 64)
        ctx.put_int(f"checksum:{sender}", checksum)

    def _quicksort(self, values: list[int]) -> list[int]:
        """Deterministic in-place quicksort (median-of-three pivot)."""
        values = list(values)
        stack = [(0, len(values) - 1)]
        while stack:
            low, high = stack.pop()
            if low >= high:
                continue
            mid = (low + high) // 2
            pivot_candidates = sorted(
                [(values[low], low), (values[mid], mid), (values[high], high)]
            )
            pivot = pivot_candidates[1][0]
            left, right = low, high
            while left <= right:
                while values[left] < pivot:
                    left += 1
                while values[right] > pivot:
                    right -= 1
                if left <= right:
                    values[left], values[right] = values[right], values[left]
                    left += 1
                    right -= 1
            stack.append((low, right))
            stack.append((left, high))
        return values
