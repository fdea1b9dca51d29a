"""Blockbench DoNothing: the empty-transaction micro benchmark."""

from __future__ import annotations

from repro.chain.vm import Contract, ContractContext
from repro.errors import TransactionError


class DoNothing(Contract):
    """Accepts ``invoke`` and does nothing — isolates per-tx fixed costs."""

    name = "donothing"
    CODE_ID = "blockbench.donothing/1"

    def call(
        self, ctx: ContractContext, method: str, args: tuple[str, ...], sender: str
    ) -> None:
        if method != "invoke":
            raise TransactionError(f"donothing has no method {method!r}")
