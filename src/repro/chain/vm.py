"""Deterministic contract virtual machine.

Stands in for the paper's Rust EVM: contracts are deterministic Python
classes dispatched by name, reading and writing state cells through a
:class:`ContractContext`.  Determinism is what lets the enclave *replay*
a block's transactions from the proven read set and arrive at the same
write set the miner produced (Alg. 2, lines 18-21) — any ambient source
of nondeterminism would break certification, so contracts get no access
to clocks, randomness, or I/O.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.chain.state import TrackedView, state_key
from repro.errors import TransactionError


class ContractContext:
    """State access handle scoped to one contract's namespace."""

    def __init__(self, contract: str, view: TrackedView) -> None:
        self._contract = contract
        self._view = view

    def get(self, field: str) -> bytes | None:
        return self._view.get_raw(state_key(self._contract, field))

    def put(self, field: str, value: bytes) -> None:
        self._view.put_raw(state_key(self._contract, field), value)

    def delete(self, field: str) -> None:
        self._view.put_raw(state_key(self._contract, field), None)

    def get_int(self, field: str, default: int = 0) -> int:
        raw = self.get(field)
        return int.from_bytes(raw, "big", signed=True) if raw is not None else default

    def put_int(self, field: str, value: int) -> None:
        self.put(field, value.to_bytes(16, "big", signed=True))

    def get_str(self, field: str) -> str | None:
        raw = self.get(field)
        return raw.decode("utf-8") if raw is not None else None

    def put_str(self, field: str, value: str) -> None:
        self.put(field, value.encode("utf-8"))


class Contract(ABC):
    """Base class for deterministic contracts."""

    #: Registry name; transactions address contracts by this string.
    name: str = ""
    #: Declared code identity, folded into the enclave measurement in
    #: place of the source text; a behaviour change bumps it.
    CODE_ID: str = ""

    @abstractmethod
    def call(
        self, ctx: ContractContext, method: str, args: tuple[str, ...], sender: str
    ) -> None:
        """Execute ``method(args)`` on behalf of ``sender``.

        Raise :class:`TransactionError` to reject the call; any state
        written before the raise is discarded by the executor.
        """


class VM:
    """Registry and dispatcher for contracts."""

    def __init__(self) -> None:
        self._contracts: dict[str, Contract] = {}

    def deploy(self, contract: Contract) -> None:
        if not contract.name:
            raise TransactionError("contract must declare a name")
        self._contracts[contract.name] = contract

    def deployed(self) -> list[str]:
        return sorted(self._contracts)

    def execute_call(
        self,
        view: TrackedView,
        contract: str,
        method: str,
        args: tuple[str, ...],
        sender: str,
    ) -> None:
        """Dispatch one call; state effects land in ``view``'s buffers."""
        target = self._contracts.get(contract)
        if target is None:
            raise TransactionError(f"unknown contract {contract!r}")
        target.call(ContractContext(contract, view), method, args, sender)
