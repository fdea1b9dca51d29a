"""Blockbench KVStore: the key-value macro benchmark (YCSB-style)."""

from __future__ import annotations

from repro.chain.vm import Contract, ContractContext
from repro.errors import TransactionError


class KVStore(Contract):
    """``put(key, value)`` / ``get(key)`` / ``delete(key)``."""

    name = "kvstore"
    CODE_ID = "blockbench.kvstore/1"

    def call(
        self, ctx: ContractContext, method: str, args: tuple[str, ...], sender: str
    ) -> None:
        if method == "put":
            if len(args) != 2:
                raise TransactionError("put expects (key, value)")
            ctx.put_str(f"kv:{args[0]}", args[1])
        elif method == "get":
            if len(args) != 1:
                raise TransactionError("get expects (key,)")
            value = ctx.get_str(f"kv:{args[0]}")
            # Record the observation so the read is part of the state
            # transition the enclave replays (a pure read would leave no
            # trace in H_state and could not be certified).
            ctx.put_str(f"kv-last-read:{sender}", value if value is not None else "")
        elif method == "delete":
            if len(args) != 1:
                raise TransactionError("delete expects (key,)")
            ctx.delete(f"kv:{args[0]}")
        else:
            raise TransactionError(f"kvstore has no method {method!r}")
