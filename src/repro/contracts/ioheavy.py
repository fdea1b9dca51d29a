"""Blockbench IOHeavy: state-traffic-dominated micro benchmark.

Each invocation reads and/or writes many distinct state cells, which
maximizes the size of the read/write sets and their Merkle proofs — the
exact input whose growth degrades enclave performance in the paper's
Fig. 8/9 analysis.
"""

from __future__ import annotations

from repro.chain.vm import Contract, ContractContext
from repro.errors import TransactionError


class IOHeavy(Contract):
    """``write(n, seed)`` / ``scan(n, seed)`` / ``mixed(n, seed)``."""

    name = "ioheavy"
    CODE_ID = "blockbench.ioheavy/1"

    #: Number of distinct keys the workload cycles through.
    KEY_SPACE = 10_000

    def call(
        self, ctx: ContractContext, method: str, args: tuple[str, ...], sender: str
    ) -> None:
        if len(args) != 2:
            raise TransactionError(f"{method} expects (n, seed)")
        count, seed = int(args[0]), int(args[1])
        if count < 0 or count > self.KEY_SPACE:
            raise TransactionError("I/O count out of range")
        if method == "write":
            for offset in range(count):
                slot = (seed + offset) % self.KEY_SPACE
                ctx.put_int(f"slot:{slot}", seed + offset)
        elif method == "scan":
            total = 0
            for offset in range(count):
                slot = (seed + offset) % self.KEY_SPACE
                total += ctx.get_int(f"slot:{slot}")
            ctx.put_int(f"scan-result:{sender}", total)
        elif method == "mixed":
            for offset in range(count):
                slot = (seed + offset) % self.KEY_SPACE
                current = ctx.get_int(f"slot:{slot}")
                ctx.put_int(f"slot:{slot}", current + 1)
        else:
            raise TransactionError(f"ioheavy has no method {method!r}")
