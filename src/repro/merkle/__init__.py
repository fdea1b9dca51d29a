"""Authenticated data structures used throughout DCert.

The paper's certification and query layers are built on a family of
Merkle structures, each reproduced here from scratch:

* :mod:`repro.merkle.mht` — the classic binary Merkle Hash Tree, used for
  block transaction roots (Fig. 1 of the paper).
* :mod:`repro.merkle.smt` — a sparse Merkle tree over a fixed keyspace,
  used for the global state commitment.  It supports *compressed* proofs
  and batched updates, which keep the stateless-enclave design (§4.1)
  practical.
* :mod:`repro.merkle.partial` — a partial sparse Merkle tree
  reconstructed from proofs alone; this is exactly what the enclave uses
  to verify read sets and recompute the post-block state root without
  holding the state (Alg. 2, lines 17/22-23).
* :mod:`repro.merkle.mpt` — a Merkle Patricia Trie, the upper level of
  the two-level historical-query index (§5.4, Fig. 5).
* :mod:`repro.merkle.bptree` — the one authenticated B+-tree engine
  (nodes, insert + split, insert proofs and their enclave-side replay),
  parameterised by a *scheme*; it has exactly two:
* :mod:`repro.merkle.mbtree` — a Merkle B-tree (Li et al., SIGMOD'06),
  the lower level of the two-level index and the posting lists of the
  keyword index (§5.4, both sides of Fig. 5); adds authenticated range
  queries with completeness proofs.
* :mod:`repro.merkle.aggtree` — the same tree with a (count, sum, min,
  max) aggregate per node, for verifiable aggregations (§5.1).
* :mod:`repro.merkle.skiplist` — an authenticated deterministic skip
  list, the LineageChain baseline index.
* :mod:`repro.merkle.mmr` — a Merkle Mountain Range, used by the
  FlyClient-style baseline client (related-work extension).

The conjunctive-keyword index (a dictionary MPT over posting MB-trees)
is :class:`repro.query.indexes.MaintainedKeywordIndex`.
"""

from repro.merkle.aggtree import (
    Aggregate,
    AggregateMBTree,
    AggRangeProof,
    verify_aggregate,
)
from repro.merkle.mbtree import MBRangeProof, MerkleBTree, verify_range
from repro.merkle.mht import MembershipProof, MerkleTree, verify_membership
from repro.merkle.mmr import MerkleMountainRange, MMRProof, verify_mmr
from repro.merkle.mpt import MerklePatriciaTrie, MPTProof, verify_mpt
from repro.merkle.partial import PartialSMT
from repro.merkle.skiplist import (
    AuthenticatedSkipList,
    SkipRangeProof,
    verify_window,
)
from repro.merkle.smt import SMTProof, SparseMerkleTree, verify_proof

__all__ = [
    "AggRangeProof",
    "Aggregate",
    "AggregateMBTree",
    "AuthenticatedSkipList",
    "MBRangeProof",
    "MMRProof",
    "MPTProof",
    "MembershipProof",
    "MerkleBTree",
    "MerkleMountainRange",
    "MerklePatriciaTrie",
    "MerkleTree",
    "PartialSMT",
    "SMTProof",
    "SkipRangeProof",
    "SparseMerkleTree",
    "verify_aggregate",
    "verify_membership",
    "verify_mmr",
    "verify_mpt",
    "verify_proof",
    "verify_range",
    "verify_window",
]
