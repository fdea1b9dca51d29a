"""Blockbench SmallBank: the banking macro benchmark.

The standard six SmallBank operations over per-customer checking and
savings balances.  Balances may not go negative; violating transactions
are rejected (and therefore excluded from blocks / certificates).
"""

from __future__ import annotations

from repro.chain.vm import Contract, ContractContext
from repro.errors import TransactionError


class SmallBank(Contract):
    """create / deposit_checking / transact_savings / send_payment /
    write_check / amalgamate."""

    name = "smallbank"
    CODE_ID = "blockbench.smallbank/1"

    def call(
        self, ctx: ContractContext, method: str, args: tuple[str, ...], sender: str
    ) -> None:
        handler = getattr(self, f"_op_{method}", None)
        if handler is None:
            raise TransactionError(f"smallbank has no method {method!r}")
        handler(ctx, args)

    # -- operations --------------------------------------------------------

    def _op_create(self, ctx: ContractContext, args: tuple[str, ...]) -> None:
        account, checking, savings = args[0], int(args[1]), int(args[2])
        if checking < 0 or savings < 0:
            raise TransactionError("initial balances must be non-negative")
        ctx.put_int(f"checking:{account}", checking)
        ctx.put_int(f"savings:{account}", savings)

    def _op_deposit_checking(self, ctx: ContractContext, args: tuple[str, ...]) -> None:
        account, amount = args[0], int(args[1])
        if amount < 0:
            raise TransactionError("deposit must be non-negative")
        self._require_account(ctx, account)
        ctx.put_int(f"checking:{account}", ctx.get_int(f"checking:{account}") + amount)

    def _op_transact_savings(self, ctx: ContractContext, args: tuple[str, ...]) -> None:
        account, amount = args[0], int(args[1])
        self._require_account(ctx, account)
        balance = ctx.get_int(f"savings:{account}") + amount
        if balance < 0:
            raise TransactionError("savings balance would go negative")
        ctx.put_int(f"savings:{account}", balance)

    def _op_send_payment(self, ctx: ContractContext, args: tuple[str, ...]) -> None:
        source, destination, amount = args[0], args[1], int(args[2])
        if amount < 0:
            raise TransactionError("payment must be non-negative")
        self._require_account(ctx, source)
        self._require_account(ctx, destination)
        balance = ctx.get_int(f"checking:{source}")
        if balance < amount:
            raise TransactionError("insufficient checking balance")
        ctx.put_int(f"checking:{source}", balance - amount)
        ctx.put_int(
            f"checking:{destination}", ctx.get_int(f"checking:{destination}") + amount
        )

    def _op_write_check(self, ctx: ContractContext, args: tuple[str, ...]) -> None:
        account, amount = args[0], int(args[1])
        self._require_account(ctx, account)
        total = ctx.get_int(f"checking:{account}") + ctx.get_int(f"savings:{account}")
        penalty = 1 if amount > total else 0
        ctx.put_int(
            f"checking:{account}",
            ctx.get_int(f"checking:{account}") - amount - penalty,
        )

    def _op_amalgamate(self, ctx: ContractContext, args: tuple[str, ...]) -> None:
        source, destination = args[0], args[1]
        self._require_account(ctx, source)
        self._require_account(ctx, destination)
        moved = ctx.get_int(f"savings:{source}") + ctx.get_int(f"checking:{source}")
        ctx.put_int(f"savings:{source}", 0)
        ctx.put_int(f"checking:{source}", 0)
        ctx.put_int(
            f"checking:{destination}", ctx.get_int(f"checking:{destination}") + moved
        )

    # -- helpers -----------------------------------------------------------

    def _require_account(self, ctx: ContractContext, account: str) -> None:
        if ctx.get(f"checking:{account}") is None:
            raise TransactionError(f"unknown account {account!r}")
