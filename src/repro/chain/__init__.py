"""Blockchain substrate: blocks, state, consensus, execution, nodes.

DCert sits *on top of* an existing blockchain (the paper prototypes on
Ethereum).  This package is that underlying system, built from scratch:

* account-model transactions signed with secp256k1 (:mod:`transaction`),
* block headers exactly as in the paper's Fig. 1 — ``H_prev_blk``,
  ``pi_cons``, ``H_state``, ``H_tx`` (:mod:`block`),
* global state committed by a sparse Merkle tree (:mod:`state`),
* a deterministic contract VM hosting the Blockbench workloads
  (:mod:`vm` and :mod:`repro.contracts`),
* a transaction executor that tracks read/write sets — the raw material
  for DCert's update proofs (:mod:`executor`),
* proof-of-work consensus (:mod:`consensus`),
* miner / full node roles (:mod:`miner`, :mod:`node`), and
* the *traditional light client*, kept as the baseline DCert is measured
  against in Fig. 7 (:mod:`lightclient`).
"""

from repro.chain.block import Block, BlockHeader
from repro.chain.builder import ChainBuilder
from repro.chain.consensus import ProofOfWork
from repro.chain.executor import ExecutionResult, TransactionExecutor
from repro.chain.genesis import make_genesis
from repro.chain.lightclient import LightClient
from repro.chain.miner import Miner
from repro.chain.node import FullNode
from repro.chain.state import StateStore, state_key
from repro.chain.transaction import Transaction

__all__ = [
    "Block",
    "BlockHeader",
    "ChainBuilder",
    "ExecutionResult",
    "FullNode",
    "LightClient",
    "Miner",
    "ProofOfWork",
    "StateStore",
    "Transaction",
    "TransactionExecutor",
    "make_genesis",
    "state_key",
]
