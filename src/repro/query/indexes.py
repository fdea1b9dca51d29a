"""Authenticated index specs and SP-side maintained indexes.

A *spec* is the part of an index that must be trusted code: it lives
inside the CI's enclave (its source is folded into the enclave
measurement) and provides

* ``write_data(block, write_set)`` — the deterministic derivation of
  index updates from a certified block (Alg. 4 line 8's
  ``get_index_write_data``), and
* ``apply_writes(old_root, writes, proof)`` — the pure, proof-based
  recomputation of the index root after those updates (Alg. 4 lines
  9-10), built on the MB-tree insert proofs and MPT update proofs.

The *maintained* index is the SP's materialized copy: it ingests blocks,
produces the update proofs the CI ships into the enclave, and serves
queries (see :mod:`repro.query.provider`).

Two index families are implemented, matching the paper's case study
(Fig. 5): the two-level historical account index (MPT upper level,
MB-tree lower level) and the keyword inverted index.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.chain.block import Block
from repro.chain.state import state_key
from repro.crypto.hashing import Digest, sha256, tagged_hash
from repro.errors import ProofError, QueryError
from repro.merkle import aggtree, mbtree, mpt
from repro.merkle.mbtree import MBInsertProof, MerkleBTree
from repro.merkle.mpt import MerklePatriciaTrie, MPTProof

#: Upper bound for MB-tree keys used by full-range queries.
MAX_KEY = (1 << 63) - 1


def _account_trie_key(account: str) -> bytes:
    """MPT key for an account: fixed-width hash (balances trie shape)."""
    return tagged_hash("idx-account", account.encode("utf-8"))[:8]


def _numeric_field_writes(
    spec, block: Block, write_set: dict[bytes, bytes | None]
) -> list[tuple[str, int]]:
    """``(account, value)`` for each account a ``spec.contract``
    transaction names, first mention first, whose ``spec.field_prefix``
    cell (a signed big-endian integer) this block wrote."""
    found: list[tuple[str, int]] = []
    seen = set()
    for tx in block.transactions:
        if tx.contract != spec.contract:
            continue
        for account in tx.args:
            if account in seen:
                continue
            seen.add(account)
            cell = state_key(spec.contract, f"{spec.field_prefix}{account}")
            raw = write_set.get(cell)
            if raw is not None:
                found.append((account, int.from_bytes(raw, "big", signed=True)))
    return found


def _replay_two_level(
    tree, fanout: int, root: Digest, trie_key: bytes,
    lower_key: int, lower_value, lower_proof, upper_proof: MPTProof,
) -> Digest:
    """One write of an "MPT over per-key B+-trees" index, replayed from
    its two proofs; ``tree`` is the lower level's module (``mbtree`` or
    ``aggtree``).  Verify, then read: the upper proof is opened against
    the running ``root`` — bound to ``trie_key`` and well-formed, or
    :class:`ProofError` — and the lower root is taken from that opening,
    never from an unverified proof.  Returns the new upper root."""
    opened = mpt.ProvenPath(root, trie_key, upper_proof)
    lower_root = opened.value if opened.value is not None else tree.EMPTY_ROOT
    if lower_proof.fanout != fanout:
        raise ProofError("lower-tree proof uses the wrong fanout")
    return opened.updated(
        tree.apply_insert(lower_root, lower_key, lower_value, lower_proof)
    )


@dataclass(frozen=True, slots=True)
class HistoryWrite:
    """One versioned value: ``account`` had ``value`` as of ``timestamp``."""

    account: str
    timestamp: int
    value: bytes


@dataclass(frozen=True, slots=True)
class TwoLevelUpdateProof:
    """Per-write openings, sequential against the evolving index."""

    steps: tuple[tuple[MBInsertProof, MPTProof], ...]

    def size_bytes(self) -> int:
        return sum(
            mb_proof.size_bytes() + mpt_proof.size_bytes()
            for mb_proof, mpt_proof in self.steps
        )


class AuthenticatedIndexSpec(ABC):
    """Trusted index logic (runs inside the enclave)."""

    #: Registry name; certificates are tracked per spec name.
    name: str = ""
    #: Declared code identity, folded into the enclave measurement in
    #: place of the source text; a behaviour change bumps it.
    CODE_ID: str = ""

    @abstractmethod
    def genesis_root(self) -> Digest:
        """The index root at chain genesis (hard-coded in the enclave)."""

    @abstractmethod
    def write_data(
        self, block: Block, write_set: dict[bytes, bytes | None]
    ) -> tuple:
        """Deterministically derive this block's index writes."""

    @abstractmethod
    def apply_writes(self, old_root: Digest, writes: tuple, proof) -> Digest:
        """Pure function: the index root after applying ``writes``.

        Verify, then read: each opening in ``proof`` is checked against
        the running root (``old_root`` first) *before* anything it claims
        — an old value, a lower-tree root — is used.  Raises
        :class:`ProofError` on any inconsistency.
        """


class AccountHistoryIndexSpec(AuthenticatedIndexSpec):
    """Two-level historical account index (Fig. 5, left).

    Tracks, for each account of one contract, the full timestamped
    history of a state field.  ``contract``/``field_prefix`` select
    which state cells count as account values; the block height is the
    version timestamp.
    """

    CODE_ID = "dcert.index.account-history/2"

    def __init__(
        self,
        name: str = "history",
        contract: str = "kvstore",
        field_prefix: str = "kv:",
        fanout: int = 16,
    ) -> None:
        self.name = name
        self.contract = contract
        self.field_prefix = field_prefix
        self.fanout = fanout

    def genesis_root(self) -> Digest:
        return mpt.EMPTY_DIGEST

    def accounts_touched(self, block: Block) -> list[str]:
        """Accounts whose value this block may have changed."""
        accounts: list[str] = []
        seen = set()
        for tx in block.transactions:
            if tx.contract != self.contract or not tx.args:
                continue
            account = tx.args[0]
            if account not in seen:
                seen.add(account)
                accounts.append(account)
        return accounts

    def write_data(
        self, block: Block, write_set: dict[bytes, bytes | None]
    ) -> tuple[HistoryWrite, ...]:
        writes: list[HistoryWrite] = []
        for account in self.accounts_touched(block):
            cell = state_key(self.contract, f"{self.field_prefix}{account}")
            if cell in write_set:
                value = write_set[cell]
                writes.append(
                    HistoryWrite(
                        account=account,
                        timestamp=block.header.height,
                        value=value if value is not None else b"",
                    )
                )
        return tuple(writes)

    def apply_writes(
        self, old_root: Digest, writes: tuple[HistoryWrite, ...], proof: TwoLevelUpdateProof
    ) -> Digest:
        if len(proof.steps) != len(writes):
            raise ProofError("index update proof does not cover every write")
        root = old_root
        for write, (mb_proof, mpt_proof) in zip(writes, proof.steps):
            root = _replay_two_level(
                mbtree, self.fanout, root, _account_trie_key(write.account),
                write.timestamp, write.value, mb_proof, mpt_proof,
            )
        return root


class _PerAccountTrees:
    """SP-side "MPT over per-account B+-trees" (Fig. 5, left): the one
    ingest/lookup body of the two-level indexes.  Subclasses name the
    lower-level tree and the update-proof type their spec replays."""

    tree_class: type
    update_proof_class: type

    def __init__(self, spec) -> None:
        self.spec = spec
        self._upper = MerklePatriciaTrie()
        self._lower: dict[str, object] = {}

    @property
    def root(self) -> Digest:
        return self._upper.root

    def ingest_block(
        self, block: Block, write_set: dict[bytes, bytes | None]
    ) -> tuple[tuple, "TwoLevelUpdateProof | AggregateUpdateProof"]:
        """Apply the block's writes; return them plus the update proof.

        Proof steps are generated sequentially against the evolving
        structures, matching how the enclave replays them.
        """
        writes = self.spec.write_data(block, write_set)
        steps = []
        for write in writes:
            trie_key = _account_trie_key(write.account)
            lower = self._lower.get(write.account)
            if lower is None:
                lower = self.tree_class(fanout=self.spec.fanout)
                self._lower[write.account] = lower
            insert_proof = lower.prove_insert(write.timestamp)
            mpt_proof = self._upper.prove(trie_key)
            lower.insert(write.timestamp, write.value)
            self._upper.insert(trie_key, lower.root)
            steps.append((insert_proof, mpt_proof))
        return writes, self.update_proof_class(steps=tuple(steps))

    def _lookup(self, account: str):
        """``(upper-level proof, the account's tree or None)``."""
        return self._upper.prove(_account_trie_key(account)), self._lower.get(account)


class TwoLevelHistoryIndex(_PerAccountTrees):
    """SP-side materialized two-level index for one history spec."""

    tree_class = MerkleBTree
    update_proof_class = TwoLevelUpdateProof

    def query_history(
        self, account: str, t_from: int, t_to: int
    ) -> "HistoryAnswer":
        """Versions of ``account`` in the window, with proofs."""
        upper_proof, lower = self._lookup(account)
        versions, range_proof = (
            lower.range_query(t_from, t_to) if lower is not None else ((), None)
        )
        return HistoryAnswer(
            account=account,
            t_from=t_from,
            t_to=t_to,
            versions=tuple(versions),
            lower_root=lower.root if lower is not None else None,
            upper_proof=upper_proof,
            range_proof=range_proof,
        )


@dataclass(frozen=True, slots=True)
class HistoryAnswer:
    """SP's answer to a historical account query, with proofs."""

    account: str
    t_from: int
    t_to: int
    versions: tuple[tuple[int, bytes], ...]
    lower_root: Digest | None  # None: account has no history
    upper_proof: MPTProof
    range_proof: "mbtree.MBRangeProof | None"

    def proof_size_bytes(self) -> int:
        total = self.upper_proof.size_bytes()
        if self.range_proof is not None:
            total += self.range_proof.size_bytes()
        return total


@dataclass(frozen=True, slots=True)
class KeywordWrite:
    """One document: transaction ``seq`` carries ``keywords``."""

    seq: int
    keywords: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class KeywordUpdateProof:
    """Per (write, keyword) openings, sequential."""

    steps: tuple[tuple[str, MBInsertProof, MPTProof], ...]

    def size_bytes(self) -> int:
        return sum(
            len(keyword) + mb_proof.size_bytes() + mpt_proof.size_bytes()
            for keyword, mb_proof, mpt_proof in self.steps
        )


class KeywordIndexSpec(AuthenticatedIndexSpec):
    """Inverted keyword index over transactions (Fig. 5, right)."""

    CODE_ID = "dcert.index.keyword/2"

    def __init__(self, name: str = "keyword", fanout: int = 16) -> None:
        self.name = name
        self.fanout = fanout

    def genesis_root(self) -> Digest:
        return mpt.EMPTY_DIGEST

    def tx_seq(self, height: int, position: int) -> int:
        """Global transaction id: block height and in-block position."""
        if position >= 1 << 20:
            raise QueryError("block position exceeds the seq encoding")
        return (height << 20) | position

    def extract_keywords(self, tx) -> tuple[str, ...]:
        """Keywords of one transaction: whitespace tokens of its args."""
        tokens: list[str] = []
        seen = set()
        for arg in tx.args:
            for token in str(arg).lower().split():
                if token and token not in seen:
                    seen.add(token)
                    tokens.append(token)
        return tuple(tokens)

    def write_data(
        self, block: Block, write_set: dict[bytes, bytes | None]
    ) -> tuple[KeywordWrite, ...]:
        writes = []
        for position, tx in enumerate(block.transactions):
            keywords = self.extract_keywords(tx)
            if keywords:
                writes.append(
                    KeywordWrite(
                        seq=self.tx_seq(block.header.height, position),
                        keywords=keywords,
                    )
                )
        return tuple(writes)

    def apply_writes(
        self, old_root: Digest, writes: tuple[KeywordWrite, ...], proof: KeywordUpdateProof
    ) -> Digest:
        expected = [
            (write.seq, keyword) for write in writes for keyword in write.keywords
        ]
        if len(proof.steps) != len(expected):
            raise ProofError("keyword update proof does not cover every posting")
        root = old_root
        for (seq, keyword), (proof_keyword, mb_proof, mpt_proof) in zip(
            expected, proof.steps
        ):
            if proof_keyword != keyword:
                raise ProofError("keyword proof out of order")
            root = _replay_two_level(
                mbtree, self.fanout, root, keyword.encode("utf-8"),
                seq, seq.to_bytes(8, "big"), mb_proof, mpt_proof,
            )
        return root


class MaintainedKeywordIndex:
    """SP-side materialized keyword index for one keyword spec — the
    one conjunctive-keyword implementation (Fig. 5, right).

    Keeps the two structures (dictionary MPT + per-keyword posting
    MB-trees) in the certified shape, produces enclave update proofs,
    and answers conjunctions by scanning the shortest posting list and
    point-proving each candidate against the others;
    :func:`verify_keyword_results` is the client half.
    """

    def __init__(self, spec: KeywordIndexSpec) -> None:
        self.spec = spec
        self._dictionary = MerklePatriciaTrie()
        self._postings: dict[str, MerkleBTree] = {}

    @property
    def root(self) -> Digest:
        return self._dictionary.root

    def ingest_block(
        self, block: Block, write_set: dict[bytes, bytes | None]
    ) -> tuple[tuple[KeywordWrite, ...], KeywordUpdateProof]:
        writes = self.spec.write_data(block, write_set)
        steps: list[tuple[str, MBInsertProof, MPTProof]] = []
        for write in writes:
            for keyword in write.keywords:
                tree = self._postings.get(keyword)
                if tree is None:
                    tree = MerkleBTree(fanout=self.spec.fanout)
                    self._postings[keyword] = tree
                mb_proof = tree.prove_insert(write.seq)
                mpt_proof = self._dictionary.prove(keyword.encode("utf-8"))
                tree.insert(write.seq, write.seq.to_bytes(8, "big"))
                self._dictionary.insert(keyword.encode("utf-8"), tree.root)
                steps.append((keyword, mb_proof, mpt_proof))
        return writes, KeywordUpdateProof(steps=tuple(steps))

    def query_conjunctive(self, keywords: list[str]) -> "KeywordAnswer":
        """All tx seqs containing every keyword, with proofs."""
        if not keywords:
            raise QueryError("conjunctive query needs at least one keyword")
        unique = sorted(set(keywords))
        dictionary_proofs = []
        roots: dict[str, Digest | None] = {}
        for keyword in unique:
            tree = self._postings.get(keyword)
            roots[keyword] = tree.root if tree is not None else None
            dictionary_proofs.append(
                (keyword, roots[keyword], self._dictionary.prove(keyword.encode("utf-8")))
            )
        pivot = min(unique, key=lambda k: len(self._postings.get(k, ())))
        if roots[pivot] is None:
            return KeywordAnswer(
                keywords=tuple(unique),
                pivot=pivot,
                results=(),
                dictionary_proofs=tuple(dictionary_proofs),
                pivot_proof=None,
                point_proofs=(),
            )
        pivot_entries, pivot_proof = self._postings[pivot].range_query(0, MAX_KEY)
        point_proofs = []
        results = []
        for seq, _ in pivot_entries:
            in_all = True
            for keyword in unique:
                if keyword == pivot:
                    continue
                entries, point = self._postings[keyword].range_query(seq, seq)
                present = bool(entries)
                point_proofs.append((seq, keyword, present, point))
                in_all = in_all and present
            if in_all:
                results.append(seq)
        return KeywordAnswer(
            keywords=tuple(unique),
            pivot=pivot,
            results=tuple(results),
            dictionary_proofs=tuple(dictionary_proofs),
            pivot_proof=(tuple(seq for seq, _ in pivot_entries), pivot_proof),
            point_proofs=tuple(point_proofs),
        )


@dataclass(frozen=True, slots=True)
class KeywordAnswer:
    """SP's answer to a conjunctive keyword query, with proofs."""

    keywords: tuple[str, ...]
    pivot: str
    results: tuple[int, ...]
    dictionary_proofs: tuple[tuple[str, Digest | None, MPTProof], ...]
    pivot_proof: tuple[tuple[int, ...], "mbtree.MBRangeProof"] | None
    point_proofs: tuple[tuple[int, str, bool, "mbtree.MBRangeProof"], ...]

    def proof_size_bytes(self) -> int:
        total = sum(
            len(k) + 32 + proof.size_bytes() for k, _, proof in self.dictionary_proofs
        )
        if self.pivot_proof is not None:
            postings, proof = self.pivot_proof
            total += 8 * len(postings) + proof.size_bytes()
        for _, keyword, _, proof in self.point_proofs:
            total += 8 + len(keyword) + 1 + proof.size_bytes()
        return total


def _verify_per_account(
    index_root: Digest, answer, window_proof, claims_nothing: bool, verify_lower, claimed
) -> bool:
    """The upper-level check every per-account answer shares: the MPT
    proof binds ``lower_root`` (``None``: no such account, which must
    then claim nothing) to the account under ``index_root``, and the
    lower proof speaks for exactly the requested window."""
    trie_key = _account_trie_key(answer.account)
    if not mpt.verify_mpt(index_root, trie_key, answer.lower_root, answer.upper_proof):
        return False
    if answer.lower_root is None:
        return claims_nothing and window_proof is None
    if window_proof is None:
        return False
    if (window_proof.lo, window_proof.hi) != (answer.t_from, answer.t_to):
        return False
    return verify_lower(answer.lower_root, claimed, window_proof)


def verify_history_versions(index_root: Digest, answer: HistoryAnswer) -> bool:
    """Client check of a :class:`HistoryAnswer` against a certified root."""
    return _verify_per_account(
        index_root, answer, answer.range_proof, not answer.versions,
        mbtree.verify_range, list(answer.versions),
    )


def verify_keyword_results(index_root: Digest, answer: KeywordAnswer) -> bool:
    """Client check of a :class:`KeywordAnswer` against a certified root."""
    roots: dict[str, Digest | None] = {}
    for keyword, posting_root, proof in answer.dictionary_proofs:
        if keyword in roots:
            return False
        if not mpt.verify_mpt(index_root, keyword.encode("utf-8"), posting_root, proof):
            return False
        roots[keyword] = posting_root
    if set(roots) != set(answer.keywords) or answer.pivot not in roots:
        return False
    pivot_root = roots[answer.pivot]
    if pivot_root is None:
        return not answer.results and answer.pivot_proof is None
    if answer.pivot_proof is None:
        return False
    postings, pivot_proof = answer.pivot_proof
    entries = [(seq, seq.to_bytes(8, "big")) for seq in postings]
    if (pivot_proof.lo, pivot_proof.hi) != (0, MAX_KEY):
        return False
    if not mbtree.verify_range(pivot_root, entries, pivot_proof):
        return False
    point: dict[tuple[int, str], tuple[bool, object]] = {}
    for seq, keyword, present, proof in answer.point_proofs:
        if (seq, keyword) in point:
            return False
        point[(seq, keyword)] = (present, proof)
    others = [k for k in answer.keywords if k != answer.pivot]
    expected = []
    for seq in postings:
        in_all = True
        for keyword in others:
            if (seq, keyword) not in point:
                return False
            present, proof = point[(seq, keyword)]
            posting_root = roots[keyword]
            if posting_root is None:
                return False
            if (proof.lo, proof.hi) != (seq, seq):
                return False
            claimed = [(seq, seq.to_bytes(8, "big"))] if present else []
            if not mbtree.verify_range(posting_root, claimed, proof):
                return False
            in_all = in_all and present
        if in_all:
            expected.append(seq)
    if len(point) != len(postings) * len(others):
        return False
    return tuple(expected) == answer.results


# -- aggregate queries (the §5.1 "aggregations" extension) --------------------


@dataclass(frozen=True, slots=True)
class AggregateWrite:
    """One numeric observation: ``account`` was worth ``value`` at ``timestamp``."""

    account: str
    timestamp: int
    value: int


@dataclass(frozen=True, slots=True)
class AggregateUpdateProof:
    """Per-write openings, sequential against the evolving index."""

    steps: tuple[tuple["aggtree.AggInsertProof", MPTProof], ...]

    def size_bytes(self) -> int:
        return sum(
            agg_proof.size_bytes() + mpt_proof.size_bytes()
            for agg_proof, mpt_proof in self.steps
        )


class BalanceAggregateIndexSpec(AuthenticatedIndexSpec):
    """Two-level aggregate index over a numeric state field.

    Upper level: MPT mapping accounts to the root of their series tree.
    Lower level: an aggregate-authenticated MB-tree keyed by block
    height whose values are the field's integer value at that height —
    so clients can run verifiable SUM/COUNT/MIN/MAX/AVG over any time
    window of any account (e.g. SmallBank checking balances).
    """

    CODE_ID = "dcert.index.balance-aggregate/2"

    def __init__(
        self,
        name: str = "aggregate",
        contract: str = "smallbank",
        field_prefix: str = "checking:",
        fanout: int = 16,
    ) -> None:
        self.name = name
        self.contract = contract
        self.field_prefix = field_prefix
        self.fanout = fanout

    def genesis_root(self) -> Digest:
        return mpt.EMPTY_DIGEST

    def write_data(
        self, block: Block, write_set: dict[bytes, bytes | None]
    ) -> tuple[AggregateWrite, ...]:
        return tuple(
            AggregateWrite(account=account, timestamp=block.header.height, value=value)
            for account, value in _numeric_field_writes(self, block, write_set)
        )

    def apply_writes(
        self,
        old_root: Digest,
        writes: tuple[AggregateWrite, ...],
        proof: AggregateUpdateProof,
    ) -> Digest:
        if len(proof.steps) != len(writes):
            raise ProofError("aggregate update proof does not cover every write")
        root = old_root
        for write, (agg_proof, mpt_proof) in zip(writes, proof.steps):
            root = _replay_two_level(
                aggtree, self.fanout, root, _account_trie_key(write.account),
                write.timestamp, write.value, agg_proof, mpt_proof,
            )
        return root


class AggregateHistoryIndex(_PerAccountTrees):
    """SP-side materialized aggregate index for one aggregate spec."""

    tree_class = aggtree.AggregateMBTree
    update_proof_class = AggregateUpdateProof

    def query_aggregate(
        self, account: str, t_from: int, t_to: int
    ) -> "AggregateAnswer":
        """The (count, sum, min, max) of an account's values in a window."""
        upper_proof, lower = self._lookup(account)
        aggregate, range_proof = (
            lower.aggregate_query(t_from, t_to) if lower is not None else (None, None)
        )
        return AggregateAnswer(
            account=account, t_from=t_from, t_to=t_to,
            aggregate=aggregate,
            lower_root=lower.root if lower is not None else None,
            upper_proof=upper_proof, range_proof=range_proof,
        )


@dataclass(frozen=True, slots=True)
class AggregateAnswer:
    """SP's answer to an aggregate query, with proofs."""

    account: str
    t_from: int
    t_to: int
    aggregate: "aggtree.Aggregate | None"
    lower_root: Digest | None
    upper_proof: MPTProof
    range_proof: "aggtree.AggRangeProof | None"

    @property
    def average(self) -> float | None:
        if self.aggregate is None or self.aggregate.count == 0:
            return None
        return self.aggregate.total / self.aggregate.count

    def proof_size_bytes(self) -> int:
        total = self.upper_proof.size_bytes()
        if self.range_proof is not None:
            total += self.range_proof.size_bytes()
        return total


def verify_aggregate_answer(index_root: Digest, answer: AggregateAnswer) -> bool:
    """Client check of an :class:`AggregateAnswer` against a certified root."""
    return _verify_per_account(
        index_root, answer, answer.range_proof, answer.aggregate is None,
        aggtree.verify_aggregate, answer.aggregate,
    )


# -- value-range queries (the on-demand "new query type" §5.4 promises) -------
#
# "Which accounts currently hold a balance in [lo, hi]?"  A vChain-style
# boolean range query over *current* state, served by yet another
# certified index — demonstrating the on-demand extensibility DCert
# claims over built-in designs.
#
# Structure: an MB-tree keyed by enc(value, slot) mapping to the account
# name (overwritten with a tombstone once the value changes), plus an
# MPT *directory* mapping each account to its (slot, live key) and a
# reserved counter cell minting slots first-seen.  The certified root is
# H(directory_root || tree_root).  Value changes never delete — the old
# entry becomes a tombstone — so every update is expressible as the
# proof-based inserts/updates the enclave can replay.

_VALUE_OFFSET = 1 << 40  # supports values in (-2^40, 2^40)
_SLOT_BITS = 20  # up to ~1M accounts
_TOMBSTONE = b"\x00"
_SLOT_COUNTER_KEY = b"\x00slots"


def _range_key(value: int, slot: int) -> int:
    if not -_VALUE_OFFSET < value < _VALUE_OFFSET:
        raise QueryError("value outside the indexable range")
    return ((value + _VALUE_OFFSET) << _SLOT_BITS) | slot


def _decode_range_key(key: int) -> tuple[int, int]:
    return (key >> _SLOT_BITS) - _VALUE_OFFSET, key & ((1 << _SLOT_BITS) - 1)


def _directory_entry(slot: int, live_key: int) -> bytes:
    return slot.to_bytes(4, "big") + live_key.to_bytes(8, "big")


def _parse_directory_entry(raw: bytes) -> tuple[int, int]:
    return int.from_bytes(raw[:4], "big"), int.from_bytes(raw[4:], "big")


def combined_range_root(directory_root: Digest, tree_root: Digest) -> Digest:
    """The certified commitment over the two component structures."""
    return sha256(b"value-range-root" + directory_root + tree_root)


@dataclass(frozen=True, slots=True)
class ValueRangeWrite:
    """One balance change: ``account`` moved to ``value`` at this block."""

    account: str
    value: int


@dataclass(frozen=True, slots=True)
class ValueRangeUpdateProof:
    """Sequential openings for one block's value-range index updates.

    Carries the claimed pre-state component roots (checked against the
    old combined root first).  Per write, in enclave replay order: the
    slot-counter proof, the tombstone insert proof (None for new
    accounts), the live-entry insert proof, and the account directory
    proof — the latter generated *after* any counter update, since MPT
    paths share nodes.
    """

    pre_directory_root: Digest
    pre_tree_root: Digest
    steps: tuple[
        tuple[MPTProof, "mbtree.MBInsertProof | None", "mbtree.MBInsertProof", MPTProof],
        ...,
    ]

    def size_bytes(self) -> int:
        total = 64
        for counter, tombstone, live, directory in self.steps:
            total += counter.size_bytes() + directory.size_bytes()
            total += tombstone.size_bytes() if tombstone is not None else 0
            total += live.size_bytes()
        return total


class ValueRangeIndexSpec(AuthenticatedIndexSpec):
    """Certified current-value range index over a numeric state field."""

    CODE_ID = "dcert.index.value-range/2"

    def __init__(
        self,
        name: str = "value-range",
        contract: str = "smallbank",
        field_prefix: str = "checking:",
        fanout: int = 16,
    ) -> None:
        self.name = name
        self.contract = contract
        self.field_prefix = field_prefix
        self.fanout = fanout

    def genesis_root(self) -> Digest:
        return combined_range_root(mpt.EMPTY_DIGEST, mbtree.EMPTY_ROOT)

    def write_data(
        self, block: Block, write_set: dict[bytes, bytes | None]
    ) -> tuple[ValueRangeWrite, ...]:
        return tuple(
            ValueRangeWrite(account=account, value=value)
            for account, value in _numeric_field_writes(self, block, write_set)
        )

    def apply_writes(
        self,
        old_root: Digest,
        writes: tuple[ValueRangeWrite, ...],
        proof: ValueRangeUpdateProof,
    ) -> Digest:
        if combined_range_root(proof.pre_directory_root, proof.pre_tree_root) != old_root:
            raise ProofError("claimed component roots do not match the index root")
        if len(proof.steps) != len(writes):
            raise ProofError("value-range proof does not cover every write")
        directory_root = proof.pre_directory_root
        tree_root = proof.pre_tree_root
        for write, (counter_proof, tomb_proof, live_proof, dir_proof) in zip(
            writes, proof.steps
        ):
            account_key = write.account.encode("utf-8")
            if live_proof.fanout != self.fanout or (
                tomb_proof is not None and tomb_proof.fanout != self.fanout
            ):
                raise ProofError("range-tree proof uses the wrong fanout")
            # The counter is verified against the running directory root
            # before it is read.
            counter = mpt.ProvenPath(directory_root, _SLOT_COUNTER_KEY, counter_proof)
            slot_count = (
                int.from_bytes(counter.value, "big") if counter.value is not None else 0
            )
            # The directory proof is made *after* any counter update, so
            # it cannot be verified yet: a peek at what it claims (well-
            # formed and bound to the account, or ProofError) picks the
            # branch, and apply_update below holds the SP to that claim.
            existing = mpt.claimed_value(account_key, dir_proof)
            if existing is None:
                # New account: mint the next slot.
                slot = slot_count
                directory_root = counter.updated((slot_count + 1).to_bytes(8, "big"))
                if tomb_proof is not None:
                    raise ProofError("new account cannot have a tombstone step")
            else:
                slot, old_live_key = _parse_directory_entry(existing)
                if slot >= slot_count:
                    raise ProofError("directory slot exceeds the minted range")
                if tomb_proof is None:
                    raise ProofError("existing account update needs a tombstone")
                if tomb_proof.key != old_live_key:
                    raise ProofError("tombstone bound to the wrong entry")
                tree_root = mbtree.apply_insert(
                    tree_root, old_live_key, _TOMBSTONE, tomb_proof
                )
            new_key = _range_key(write.value, slot)
            if live_proof.key != new_key:
                raise ProofError("live entry bound to the wrong key")
            tree_root = mbtree.apply_insert(
                tree_root, new_key, write.account.encode("utf-8"), live_proof
            )
            # apply_update verifies dir_proof (with its claimed existing
            # value) against the post-counter directory root, closing the
            # unverified peek above.
            directory_root = mpt.apply_update(
                directory_root,
                account_key,
                _directory_entry(slot, new_key),
                dir_proof,
            )
        return combined_range_root(directory_root, tree_root)


class ValueRangeIndex:
    """SP-side materialized value-range index."""

    def __init__(self, spec: ValueRangeIndexSpec) -> None:
        self.spec = spec
        self._directory = MerklePatriciaTrie()
        self._tree = MerkleBTree(fanout=spec.fanout)

    @property
    def root(self) -> Digest:
        return combined_range_root(self._directory.root, self._tree.root)

    def ingest_block(
        self, block: Block, write_set: dict[bytes, bytes | None]
    ) -> tuple[tuple[ValueRangeWrite, ...], ValueRangeUpdateProof]:
        writes = self.spec.write_data(block, write_set)
        pre_directory_root = self._directory.root
        pre_tree_root = self._tree.root
        steps = []
        for write in writes:
            account_key = write.account.encode("utf-8")
            counter_proof = self._directory.prove(_SLOT_COUNTER_KEY)
            existing = self._directory.get(account_key)
            tomb_proof = None
            if existing is None:
                counter_raw = self._directory.get(_SLOT_COUNTER_KEY)
                slot = int.from_bytes(counter_raw, "big") if counter_raw else 0
                self._directory.insert(
                    _SLOT_COUNTER_KEY, (slot + 1).to_bytes(8, "big")
                )
            else:
                slot, old_live_key = _parse_directory_entry(existing)
                tomb_proof = self._tree.prove_insert(old_live_key)
                self._tree.insert(old_live_key, _TOMBSTONE)
            new_key = _range_key(write.value, slot)
            live_proof = self._tree.prove_insert(new_key)
            self._tree.insert(new_key, account_key)
            dir_proof = self._directory.prove(account_key)
            self._directory.insert(account_key, _directory_entry(slot, new_key))
            steps.append((counter_proof, tomb_proof, live_proof, dir_proof))
        return writes, ValueRangeUpdateProof(
            pre_directory_root=pre_directory_root,
            pre_tree_root=pre_tree_root,
            steps=tuple(steps),
        )

    def query_range(self, lo: int, hi: int) -> "ValueRangeAnswer":
        """All accounts whose *current* value lies in ``[lo, hi]``."""
        lo_key = _range_key(lo, 0)
        hi_key = _range_key(hi, (1 << _SLOT_BITS) - 1)
        entries, proof = self._tree.range_query(lo_key, hi_key)
        matches = tuple(
            (_decode_range_key(key)[0], value.decode("utf-8"))
            for key, value in entries
            if value != _TOMBSTONE
        )
        return ValueRangeAnswer(
            lo=lo,
            hi=hi,
            matches=matches,
            entries=tuple(entries),
            directory_root=self._directory.root,
            tree_root=self._tree.root,
            range_proof=proof,
        )


@dataclass(frozen=True, slots=True)
class ValueRangeAnswer:
    """SP's answer to a current-value range query, with proofs."""

    lo: int
    hi: int
    matches: tuple[tuple[int, str], ...]  # (value, account), live only
    entries: tuple[tuple[int, bytes], ...]  # raw tree entries incl. tombstones
    directory_root: Digest
    tree_root: Digest
    range_proof: "mbtree.MBRangeProof"

    def proof_size_bytes(self) -> int:
        return 64 + self.range_proof.size_bytes()


def verify_value_range_answer(index_root: Digest, answer: ValueRangeAnswer) -> bool:
    """Client check of a :class:`ValueRangeAnswer` against a certified root."""
    if combined_range_root(answer.directory_root, answer.tree_root) != index_root:
        return False
    lo_key = _range_key(answer.lo, 0)
    hi_key = _range_key(answer.hi, (1 << _SLOT_BITS) - 1)
    if (answer.range_proof.lo, answer.range_proof.hi) != (lo_key, hi_key):
        return False
    if not mbtree.verify_range(
        answer.tree_root, list(answer.entries), answer.range_proof
    ):
        return False
    expected = tuple(
        (_decode_range_key(key)[0], value.decode("utf-8"))
        for key, value in answer.entries
        if value != _TOMBSTONE
    )
    return expected == answer.matches
