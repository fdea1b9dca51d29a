"""Verifiable-query layer (§5 of the paper).

The **Service Provider** (SP) maintains authenticated indexes over
blockchain data and answers queries with integrity proofs; the CI's
enclave certifies each index's root against the block that produced it
(augmented / hierarchical certificates); superlight clients verify
query answers against those certified roots.

* :mod:`indexes` — index *specs*: the deterministic write-data
  derivation and the pure proof-based root-update function the enclave
  runs, for both the two-level historical index and the keyword index.
* :mod:`api` — the typed query API: one request type per family, one
  answer envelope; exactly what the RPC layer serializes.
* :mod:`provider` — the SP: index maintenance and the single
  ``execute(request)`` dispatch (plus the networked ``QueryService``).
* :mod:`verifier` — client-side result verification; the unified
  ``verify(request, answer, certified_roots)`` entry point.
* :mod:`lineagechain` — the LineageChain baseline (skip-list lower
  level), used by the Fig. 11 comparison.
* :mod:`answercache` — the client-side LRU cache of *verified* answers,
  keyed by the typed request + certified root.
"""

from repro.query.answercache import StaleAnswer, VerifiedAnswerCache
from repro.query.api import (
    AggregateQuery,
    HistoryQuery,
    KeywordQuery,
    QueryAnswer,
    QueryRequest,
    ValueRangeQuery,
)
from repro.query.indexes import (
    AccountHistoryIndexSpec,
    AggregateHistoryIndex,
    AuthenticatedIndexSpec,
    BalanceAggregateIndexSpec,
    KeywordIndexSpec,
    MaintainedKeywordIndex,
    TwoLevelHistoryIndex,
    TwoLevelUpdateProof,
    ValueRangeIndex,
    ValueRangeIndexSpec,
)
from repro.query.lineagechain import LineageChainIndex
from repro.query.provider import QueryService, QueryServiceProvider
from repro.query.verifier import (
    verify,
    verify_aggregate_answer,
    verify_baseline_history_answer,
    verify_history_answer,
    verify_keyword_answer,
)
from repro.query.indexes import verify_value_range_answer

__all__ = [
    "AccountHistoryIndexSpec",
    "AggregateHistoryIndex",
    "AggregateQuery",
    "AuthenticatedIndexSpec",
    "HistoryQuery",
    "KeywordQuery",
    "QueryAnswer",
    "QueryRequest",
    "QueryService",
    "StaleAnswer",
    "ValueRangeQuery",
    "verify",
    "BalanceAggregateIndexSpec",
    "KeywordIndexSpec",
    "LineageChainIndex",
    "MaintainedKeywordIndex",
    "QueryServiceProvider",
    "TwoLevelHistoryIndex",
    "TwoLevelUpdateProof",
    "ValueRangeIndex",
    "ValueRangeIndexSpec",
    "VerifiedAnswerCache",
    "verify_aggregate_answer",
    "verify_baseline_history_answer",
    "verify_history_answer",
    "verify_keyword_answer",
    "verify_value_range_answer",
]
