"""Chain and index replay: whatever the miner builds, an independent
full node re-derives the same state commitment and write sets, and every
index spec's enclave replay (``apply_writes`` over the SP's update proof)
lands on the maintained index's root after every block — the invariant
Alg. 4 line 10 / Alg. 5 line 13 rest on.  Seeds and replay:
tests/proptest/framework.py.
"""

from __future__ import annotations

from repro.chain.builder import ChainBuilder
from repro.chain.executor import TransactionExecutor
from repro.chain.genesis import make_genesis
from repro.chain.node import FullNode
from repro.chain.state import StateStore
from repro.chain.transaction import sign_transaction
from repro.core.issuer import make_maintained_index
from repro.crypto import generate_keypair
from repro.query.indexes import (
    AccountHistoryIndexSpec,
    BalanceAggregateIndexSpec,
    KeywordIndexSpec,
    ValueRangeIndexSpec,
)
from tests.conftest import fresh_vm
from tests.proptest.framework import case_count, run_cases

_KEYPAIR = generate_keypair(b"prop-chain")


def _puts(rng, first_nonce=0):
    """One block's worth of ``kvstore.put`` transactions."""
    return [
        sign_transaction(
            _KEYPAIR.private, first_nonce + offset, "kvstore", "put",
            (f"k{rng.randrange(4)}", f"v{rng.randrange(100)}"),
        )
        for offset in range(rng.randint(1, 6))
    ]


def test_any_mined_chain_replays_identically():
    def prop(rng):
        builder = ChainBuilder(difficulty_bits=2)
        nonce = 0
        for _ in range(rng.randint(1, 4)):
            txs = _puts(rng, nonce)
            nonce += len(txs)
            builder.add_block(txs)
        genesis, state = make_genesis()
        node = FullNode(genesis, state, fresh_vm(), builder.pow)
        for block in builder.blocks[1:]:
            node.append_block(block)
        assert node.state.root == builder.state.root
        assert node.height == builder.height

    run_cases(prop, cases=case_count(10))


def test_write_sets_equal_replayed_write_sets():
    """The miner's recorded write set equals a strict re-execution's."""
    def prop(rng):
        txs = _puts(rng)
        executor = TransactionExecutor(fresh_vm())
        miner = executor.execute(StateStore(), list(txs), strict=False)
        strict = executor.execute(StateStore(), list(txs), strict=True)
        assert miner.write_set == strict.write_set
        assert miner.read_set == strict.read_set

    run_cases(prop, cases=case_count(10))


def _workload(rng):
    """SmallBank deposits and payments among three accounts, and puts."""
    builder = ChainBuilder(difficulty_bits=2)
    nonce = iter(range(10**6))

    def tx(contract, method, *args):
        return sign_transaction(_KEYPAIR.private, next(nonce), contract, method, args)

    calls = {
        "deposit": lambda a, b, n: ("smallbank", "deposit_checking", a, n),
        "pay": lambda a, b, n: ("smallbank", "send_payment", a, b, n),
        "kv": lambda a, b, n: ("kvstore", "put", a.replace("s", "k"), f"value {n}"),
    }
    builder.add_block([tx("smallbank", "create", f"s{i}", "100", "0") for i in range(3)])
    for _ in range(rng.randint(1, 3)):
        block = []
        for _ in range(rng.randint(1, 5)):
            slot, call = rng.randrange(3), calls[rng.choice(sorted(calls))]
            block.append(tx(*call(f"s{slot}", f"s{(slot + 1) % 3}", str(rng.randint(1, 9)))))
        builder.add_block(block)
    return builder


def test_all_specs_replay_exactly():
    def prop(rng):
        builder = _workload(rng)
        for spec in (
            AccountHistoryIndexSpec(name="history"), KeywordIndexSpec(name="keyword"),
            BalanceAggregateIndexSpec(name="aggregate"), ValueRangeIndexSpec(name="range"),
        ):
            index = make_maintained_index(spec)
            root = spec.genesis_root()
            for block, result in zip(builder.blocks[1:], builder.results[1:]):
                writes, proof = index.ingest_block(block, result.write_set)
                root = spec.apply_writes(root, writes, proof)
                assert root == index.root, (spec.name, block.header.height)

    run_cases(prop, cases=case_count(8))
