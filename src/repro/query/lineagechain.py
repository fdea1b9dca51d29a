"""The LineageChain baseline index (Ruan et al., PVLDB'19).

Same two-level shape as DCert's index — an MPT mapping accounts to a
per-account version structure — but the lower level is LineageChain's
authenticated deterministic *skip list* anchored at the latest version.
A historical query therefore traverses backwards from the newest
version into the queried window, so its latency and proof size grow
with the window's distance from the chain tip; DCert's MB-tree, by
contrast, searches from the root in O(log n) regardless of distance.
This asymmetry is exactly what Fig. 11 measures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.block import Block
from repro.crypto.hashing import Digest
from repro.merkle import skiplist
from repro.merkle.mpt import MerklePatriciaTrie, MPTProof
from repro.merkle.skiplist import AuthenticatedSkipList, SkipRangeProof
from repro.query.indexes import (
    AccountHistoryIndexSpec,
    _account_trie_key,
    _verify_per_account,
)


@dataclass(frozen=True, slots=True)
class LineageAnswer:
    """Baseline answer to a historical account query, with proofs."""

    account: str
    t_from: int
    t_to: int
    versions: tuple[tuple[int, bytes], ...]
    lower_root: Digest | None
    upper_proof: MPTProof
    window_proof: SkipRangeProof | None

    def proof_size_bytes(self) -> int:
        total = self.upper_proof.size_bytes()
        if self.window_proof is not None:
            total += self.window_proof.size_bytes()
        return total


class LineageChainIndex:
    """SP-side materialized LineageChain-style index."""

    def __init__(self, spec: AccountHistoryIndexSpec) -> None:
        self.spec = spec
        self._upper = MerklePatriciaTrie()
        self._lower: dict[str, AuthenticatedSkipList] = {}

    @property
    def root(self) -> Digest:
        return self._upper.root

    def ingest_block(self, block: Block, write_set: dict[bytes, bytes | None]) -> None:
        for write in self.spec.write_data(block, write_set):
            lower = self._lower.get(write.account)
            if lower is None:
                lower = AuthenticatedSkipList()
                self._lower[write.account] = lower
            lower.append(write.timestamp, write.value)
            self._upper.insert(_account_trie_key(write.account), lower.root)

    def query_history(self, account: str, t_from: int, t_to: int) -> LineageAnswer:
        trie_key = _account_trie_key(account)
        upper_proof = self._upper.prove(trie_key)
        lower = self._lower.get(account)
        if lower is None:
            return LineageAnswer(
                account=account,
                t_from=t_from,
                t_to=t_to,
                versions=(),
                lower_root=None,
                upper_proof=upper_proof,
                window_proof=None,
            )
        versions, window_proof = lower.window_query(t_from, t_to)
        return LineageAnswer(
            account=account,
            t_from=t_from,
            t_to=t_to,
            versions=tuple(versions),
            lower_root=lower.root,
            upper_proof=upper_proof,
            window_proof=window_proof,
        )


def verify_lineage_answer(index_root: Digest, answer: LineageAnswer) -> bool:
    """Client check of a baseline answer against the index root."""
    return _verify_per_account(
        index_root, answer, answer.window_proof, not answer.versions,
        skiplist.verify_window, list(answer.versions),
    )
