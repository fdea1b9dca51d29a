"""A typed request is its own cache key.

``VerifiedAnswerCache`` keys on the request object, not its wire bytes.
That is sound only if two requests are equal exactly when their
encodings are equal, and equal requests hash alike.  The pool here is
every one-edit mutant of one request per family that still constructs
(``dataclasses.replace``, so ``__post_init__`` types every leaf), the
same fields under the sibling window family, and each member's decoded
copy; every pair of the pool is checked.
"""

from __future__ import annotations

import dataclasses
import itertools

from repro.net import wire
from repro.query import AggregateQuery, HistoryQuery, KeywordQuery, ValueRangeQuery
from tests.proptest import mutate

BASES = (
    HistoryQuery(index="history", account="acct1", t_from=1, t_to=4),
    AggregateQuery(index="aggregate", account="acct1", t_from=1, t_to=4),
    ValueRangeQuery(index="range", lo=0, hi=100),
    KeywordQuery(index="keyword", keywords=("a", "b")),
)

#: Leaves to swap in: the mistyped ones are refused, the strings build
#: requests that meet each other ("history" vs "aggregate", "é" vs "e").
VALUES = (*mutate.PALETTE, "", "a", "é", "e", "history", "aggregate", "acct1", 4)

#: The same fields under the other window family.
TWINS = {HistoryQuery: AggregateQuery, AggregateQuery: HistoryQuery}


def _plan(path, node):
    if not path:
        if type(node) in TWINS:
            twin = TWINS[type(node)]
            fields = {f.name: getattr(node, f.name) for f in dataclasses.fields(node)}
            yield "retag", {"twins": [(twin.__name__, twin(**fields))]}
        return
    yield "palette", {"values": VALUES}
    if isinstance(node, (tuple, list)):
        yield from ("list", "shorter", "longer")
    elif type(node) is int:
        yield from ("retype", "edge")


def _pool():
    pool = []
    for base in BASES:
        pool.append(base)
        pool.extend(m for _p, _l, m in mutate.mutants(base, _plan, checked=True))
    return pool + [wire.decode(wire.encode(request)) for request in pool]


def test_requests_are_equal_exactly_when_their_encodings_are():
    pool = _pool()
    encoded = [wire.encode(request) for request in pool]
    equal_pairs = colliding_hashes = 0
    for (a, a_bytes), (b, b_bytes) in itertools.combinations(zip(pool, encoded), 2):
        assert (a == b) == (a_bytes == b_bytes), (a, b)
        if a == b:
            assert hash(a) == hash(b), (a, b)
            equal_pairs += 1
        elif hash(a) == hash(b):
            colliding_hashes += 1
    # The pool exercises both directions: equal requests built apart, and
    # unequal ones (the two window families) whose fields hash alike.
    assert len(pool) > 100
    assert equal_pairs > len(pool) // 2
    assert colliding_hashes > 0
