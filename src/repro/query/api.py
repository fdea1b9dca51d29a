"""The unified, typed verifiable-query API.

One request type per query family, one answer envelope, one dispatch
point (:meth:`repro.query.provider.QueryServiceProvider.execute`) and
one verification entry point (:func:`repro.query.verifier.verify`).
The request/answer dataclasses here are exactly what the RPC layer
serializes (:mod:`repro.net.wire`), so the in-process API and the wire
protocol cannot drift apart.

The answer envelope *echoes the request*: the verifier checks the echo
and the payload's own claim (account, window, keywords…) against what
the client asked, so an SP — or a tampering network — cannot satisfy a
query by replaying the correct proof for a different one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import QueryError
from repro.query import indexes
from repro.query.indexes import (
    AggregateAnswer,
    HistoryAnswer,
    KeywordAnswer,
    ValueRangeAnswer,
)

AnswerPayload = HistoryAnswer | AggregateAnswer | ValueRangeAnswer | KeywordAnswer


def _leaf(value: object, kind: type, what: str) -> None:
    """Exact type, as ``bptree.check_int`` has it: a ``bool`` is not an ``int``."""
    if type(value) is not kind:
        raise QueryError(
            f"query {what} must be {kind.__name__}, not {type(value).__name__}"
        )


@dataclass(frozen=True, slots=True)
class QueryRequest:
    """Base class: every query names the authenticated index it targets.
    Request leaves are typed here, once, where a request is built — for
    a peer's that is inside ``wire.decode`` (a ``WireError``: a dropped
    packet, a timeout and the gateway's ordinary re-dispatch), never the
    provider."""

    index: str

    def __post_init__(self) -> None:
        _leaf(self.index, str, "index")


@dataclass(frozen=True, slots=True)
class _WindowQuery(QueryRequest):
    account: str
    t_from: int
    t_to: int

    def __post_init__(self) -> None:
        QueryRequest.__post_init__(self)  # zero-argument super() breaks under slots
        _leaf(self.account, str, "account")
        _leaf(self.t_from, int, "t_from")
        _leaf(self.t_to, int, "t_to")


@dataclass(frozen=True, slots=True)
class HistoryQuery(_WindowQuery):
    """All versions of ``account`` in the block window [t_from, t_to]."""


@dataclass(frozen=True, slots=True)
class AggregateQuery(_WindowQuery):
    """SUM/COUNT/MIN/MAX of ``account``'s values over [t_from, t_to]."""


@dataclass(frozen=True, slots=True)
class ValueRangeQuery(QueryRequest):
    """Accounts whose *current* value lies in [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        QueryRequest.__post_init__(self)
        _leaf(self.lo, int, "lo")
        _leaf(self.hi, int, "hi")


@dataclass(frozen=True, slots=True)
class KeywordQuery(QueryRequest):
    """Transactions carrying *all* of ``keywords`` (conjunctive)."""

    keywords: tuple[str, ...]

    def __post_init__(self) -> None:
        QueryRequest.__post_init__(self)
        # A list is tolerated (stored as a tuple); a ``str`` is not.
        if type(self.keywords) is not tuple:
            _leaf(self.keywords, list, "keywords")
            object.__setattr__(self, "keywords", tuple(self.keywords))
        for keyword in self.keywords:
            _leaf(keyword, str, "keyword")


@dataclass(frozen=True, slots=True)
class QueryAnswer:
    """The SP's reply: the request it claims to answer, plus the
    family-specific payload carrying results and integrity proofs."""

    request: QueryRequest
    payload: AnswerPayload

    def proof_size_bytes(self) -> int:
        return self.payload.proof_size_bytes()


@dataclass(frozen=True, slots=True)
class Family:
    """Everything that differs between two query families, named once.
    ``make_maintained_index``, ``QueryServiceProvider.execute`` and
    ``verifier.verify`` look a row up by the **exact** class of the spec
    or request (``type(x)``, not ``isinstance``): stricter only for
    subclasses, which no decoder can produce.  A fifth family is a fifth
    row of :data:`FAMILIES`; there is no other dispatch site."""

    name: str  # as in "does not support <name> queries"
    spec: type
    index: type  # the maintained structure, built as ``index(spec)``
    request: type
    answer: type
    run: Callable  # (index, request) -> answer: how the SP answers
    asked: Callable  # request -> what the payload must echo ...
    claimed: Callable  # ... payload -> what it does echo, as sent
    verify: Callable  # (certified root, payload) -> bool


def _window(q) -> tuple:  # a request and its payload name these alike
    return q.account, q.t_from, q.t_to


FAMILIES = (
    Family(
        "history", indexes.AccountHistoryIndexSpec, indexes.TwoLevelHistoryIndex,
        HistoryQuery, HistoryAnswer,
        run=lambda index, q: index.query_history(q.account, q.t_from, q.t_to),
        asked=_window, claimed=_window, verify=indexes.verify_history_versions,
    ),
    Family(
        "aggregate", indexes.BalanceAggregateIndexSpec, indexes.AggregateHistoryIndex,
        AggregateQuery, AggregateAnswer,
        run=lambda index, q: index.query_aggregate(q.account, q.t_from, q.t_to),
        asked=_window, claimed=_window, verify=indexes.verify_aggregate_answer,
    ),
    Family(
        "value-range", indexes.ValueRangeIndexSpec, indexes.ValueRangeIndex,
        ValueRangeQuery, ValueRangeAnswer,
        run=lambda index, q: index.query_range(q.lo, q.hi),
        asked=lambda q: (q.lo, q.hi), claimed=lambda p: (p.lo, p.hi),
        verify=indexes.verify_value_range_answer,
    ),
    Family(
        "keyword", indexes.KeywordIndexSpec, indexes.MaintainedKeywordIndex,
        KeywordQuery, KeywordAnswer,
        run=lambda index, q: index.query_conjunctive(list(q.keywords)),
        # The SP canonicalizes keywords to sorted-unique; the payload's
        # tuple is compared as sent, so only that one form is accepted.
        asked=lambda q: tuple(sorted(set(q.keywords))),
        claimed=lambda p: p.keywords,
        verify=indexes.verify_keyword_results,
    ),
)
FAMILY_OF_SPEC = {row.spec: row for row in FAMILIES}
FAMILY_OF_REQUEST = {row.request: row for row in FAMILIES}
