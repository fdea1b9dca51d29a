"""Request leaves are typed once, where a request is built.

For a peer's request that is ``wire.decode``: a mistyped leaf is a
``WireError`` there, the server drops the packet, and the provider never
sees it.  The table is every field of the four request types set in turn
to every palette value (a value of a scalar field's own type is skipped),
built with ``object.__new__`` so the constructor cannot refuse it first.

At a567b16, before the classes checked anything, the same 152 mutants
read: 7 refused by the codec, 42 ``QueryError``, 2 ``ProofError``, 16
answered (14 of them mistyped) and 85 untyped escapes out of
``provider.execute`` — and through ``RpcServer._handle`` out of whichever
node was driving the bus.
"""

import dataclasses
from collections import Counter

import pytest

from repro.errors import QueryError, WireError
from repro.net import wire
from repro.net.bus import MessageBus
from repro.net.rpc import RpcClient
from repro.query import QueryAnswer, QueryService
from tests.proptest import mutate
from tests.query.test_query_api import api_world, requests_answers  # noqa: F401

PALETTE = [None, True, 1.5, 2e6, "1", b"x", ["a"], ("a",), {"a": 1}, 1 << 70, -1, 0, "", ()]

#: The parent's verdicts on the same table (regression constants):
#: untyped = 60 TypeError + 25 AttributeError; 14 of the 16 answered
#: were mistyped (``t_to=2e6``, ``lo=True``, ``keywords="1"`` ...).
PARENT = {"refused": 7, "QueryError": 42, "ProofError": 2, "answered": 16, "untyped": 85}
#: What ``alice.call`` raised at the parent after mallory's
#: ``ValueRangeQuery(index="range", lo=0, hi=2e6)``.
PARENT_HONEST_CALL = "TypeError: unsupported operand type(s) for <<: 'float' and 'int'"

#: The two mutants that are well-typed requests: a one-word list or tuple.
STILL_VALID = {("KeywordQuery", "keywords", "['a']"), ("KeywordQuery", "keywords", "('a',)")}


def _mistyped(path, node):
    if len(path) == 1:  # a field of the request itself
        yield "palette", {
            "values": [v for v in PALETTE if type(node) is tuple or type(v) is not type(node)]
        }


def _mutants(requests):
    for request in requests.values():
        for (name,), label, mutant in mutate.mutants(request, _mistyped):
            yield (type(request).__name__, name, label.partition(":")[2]), mutant


def test_every_mistyped_request_is_dropped_and_the_honest_call_answered(
    api_world, requests_answers
):
    provider, _height = api_world
    requests, _answers = requests_answers
    bus = MessageBus(default_latency_ms=5.0)
    server = QueryService(bus, "sp", provider).server
    mallory, alice = RpcClient(bus, "mallory"), RpcClient(bus, "alice")
    honest = requests["history"]
    outcomes, answered = Counter(), set()
    for label, mutant in _mutants(requests):
        dropped, executes = server.requests_dropped, provider.executes
        request_id = mallory.begin("sp", "execute", payload=wire.encode(mutant))
        # Parent: PARENT_HONEST_CALL, out of this call, for 85 of them.
        assert alice.call("sp", "execute", honest).request == honest
        bus.run_until_idle()
        response = mallory.take(request_id)
        if response is None:
            mallory.abandon(request_id)
            with pytest.raises(WireError):
                wire.decode(wire.encode(mutant))
            assert server.requests_dropped == dropped + 1
            assert provider.executes == executes + 1  # alice's
            outcomes["refused"] += 1
            continue
        assert server.requests_dropped == dropped
        try:
            reply = mallory.resolve(response, target="sp", method="execute")
        except QueryError:
            outcomes["QueryError"] += 1
        else:
            assert isinstance(reply, QueryAnswer)
            answered.add(label)
    assert answered == STILL_VALID
    # 0 untyped (one would have left the loop), 0 mistyped answered:
    # all but the still-valid two and ``keywords=()`` stop at decode.
    assert dict(outcomes) == {"refused": 149, "QueryError": 1}
    assert sum(PARENT.values()) == 149 + 1 + len(STILL_VALID)


def test_every_mistyped_constructor_call_is_a_query_error(requests_answers):
    requests, _answers = requests_answers
    for label, mutant in _mutants(requests):
        fields = {f.name: getattr(mutant, f.name) for f in dataclasses.fields(mutant)}
        if label in STILL_VALID or label[1:] == ("keywords", "()"):
            assert type(mutant)(**fields).keywords == tuple(fields["keywords"])
            continue
        # The message names the field ("keyword" for a word of ``keywords``).
        with pytest.raises(QueryError, match=f"query {label[1].rstrip('s')}"):
            type(mutant)(**fields)
    for words in ("ab", b"ab", ("a", 1), ["a", None]):
        with pytest.raises(QueryError):
            type(requests["keyword"])(index="keyword", keywords=words)
