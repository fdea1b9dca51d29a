"""The verified-answer cache: LRU mechanics, invalidation, and the
byte-identity property (a cached answer is indistinguishable on the
wire from a fresh one computed at the same certified root)."""

import pytest

from repro.chain.genesis import make_genesis
from repro.core import (
    IssuerService,
    ClientConfig,
    connect,
    compute_expected_measurement,
)
from repro.net import (
    MessageBus,
    QueryGateway,
    wire,
)
from repro.query import (
    AggregateQuery,
    HistoryQuery,
    KeywordQuery,
    QueryAnswer,
    QueryService,
)
from repro.query.answercache import VerifiedAnswerCache
from repro.query.provider import QueryServiceProvider
from tests.conftest import fresh_vm


def req(i: int) -> HistoryQuery:
    return HistoryQuery(index="history", account=f"k{i}", t_from=1, t_to=10)


def ans(i: int) -> QueryAnswer:
    return QueryAnswer(request=req(i), payload=i)


ROOT = b"\x11" * 32
OTHER = b"\x22" * 32


# -- unit mechanics ----------------------------------------------------------


def test_miss_then_hit_counts():
    cache = VerifiedAnswerCache(capacity=4)
    assert cache.get(req(0), ROOT) is None
    cache.put(req(0), ROOT, ans(0))
    assert cache.get(req(0), ROOT) == ans(0)
    assert (cache.hits, cache.misses) == (1, 1)


def test_same_request_different_root_is_a_miss():
    cache = VerifiedAnswerCache(capacity=4)
    cache.put(req(0), ROOT, ans(0))
    assert cache.get(req(0), OTHER) is None


def test_lru_evicts_least_recently_used():
    cache = VerifiedAnswerCache(capacity=2)
    cache.put(req(0), ROOT, ans(0))
    cache.put(req(1), ROOT, ans(1))
    cache.get(req(0), ROOT)  # touch 0 so 1 becomes the eviction victim
    cache.put(req(2), ROOT, ans(2))
    assert len(cache) == 2
    assert cache.evictions == 1
    assert cache.get(req(1), ROOT) is None
    assert cache.get(req(0), ROOT) == ans(0)
    assert cache.get(req(2), ROOT) == ans(2)


def test_retain_roots_sweeps_superseded_entries():
    cache = VerifiedAnswerCache(capacity=8)
    cache.put(req(0), ROOT, ans(0))
    cache.put(req(1), ROOT, ans(1))
    cache.put(req(2), OTHER, ans(2))
    assert cache.retain_roots([OTHER]) == 2
    assert cache.invalidations == 2
    assert len(cache) == 1
    assert cache.get(req(2), OTHER) == ans(2)


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        VerifiedAnswerCache(capacity=0)


# -- the stale sidecar (graceful degradation) --------------------------------


def test_stale_sidecar_survives_root_advance():
    cache = VerifiedAnswerCache(capacity=4)
    cache.put(req(0), ROOT, ans(0), height=7)
    assert cache.retain_roots([OTHER]) == 1  # fresh entry swept...
    assert cache.get(req(0), ROOT) is None
    stale = cache.get_stale(req(0))  # ...the sidecar remembers
    assert stale is not None and stale.stale is True
    assert stale.answer == ans(0)
    assert stale.root == ROOT and stale.height == 7
    assert (cache.stale_hits, cache.stale_misses) == (1, 0)


def test_stale_sidecar_tracks_the_newest_verified_answer():
    cache = VerifiedAnswerCache(capacity=4)
    cache.put(req(0), ROOT, ans(0), height=7)
    newer = QueryAnswer(request=req(0), payload=99)
    cache.put(req(0), OTHER, newer, height=8)
    stale = cache.get_stale(req(0))
    assert stale.answer == newer and stale.height == 8


def test_stale_sidecar_is_never_consulted_by_the_fresh_path():
    cache = VerifiedAnswerCache(capacity=4)
    cache.put(req(0), ROOT, ans(0))
    cache.retain_roots([OTHER])
    # Root-exact lookups stay misses even though the sidecar has it.
    assert cache.get(req(0), ROOT) is None
    assert cache.get(req(0), OTHER) is None


def test_stale_sidecar_miss_is_counted():
    cache = VerifiedAnswerCache(capacity=4)
    assert cache.get_stale(req(0)) is None
    assert cache.stale_misses == 1


def test_stale_sidecar_is_lru_bounded_and_cleared():
    cache = VerifiedAnswerCache(capacity=2)
    for i in range(4):
        cache.put(req(i), ROOT, ans(i))
    assert len(cache._stale) == 2
    assert cache.get_stale(req(0)) is None  # evicted with the LRU
    assert cache.get_stale(req(3)) is not None
    cache.clear()
    assert cache.get_stale(req(3)) is None


# -- the byte-identity property ---------------------------------------------


@pytest.fixture(scope="module")
def fleet(certified_setup):
    chain = certified_setup["chain"]
    genesis, state = make_genesis()
    provider = QueryServiceProvider(
        genesis, state, fresh_vm(), chain.pow,
        list(certified_setup["specs"].values()),
    )
    for block in chain.blocks[1:]:
        provider.ingest_block(block)
    bus = MessageBus(default_latency_ms=10.0)
    IssuerService(bus, "ci", certified_setup["issuer"])
    for name in ("sp1", "sp2"):
        QueryService(bus, name, provider)
    gateway = QueryGateway(
        bus, "gw", ["sp1", "sp2"],
        timeout_ms=120.0,
    )
    measurement = compute_expected_measurement(
        certified_setup["genesis"].header.header_hash(),
        certified_setup["ias"].public_key,
        fresh_vm(),
        chain.pow.difficulty_bits,
        certified_setup["specs"],
    )
    client = connect(ClientConfig(
        measurement=measurement,
        ias_public_key=certified_setup["ias"].public_key,
        bus=bus, name="client",
        issuers=("ci",), gateway=gateway,
    ))
    client.sync()
    return {"client": client, "provider": provider, "gateway": gateway}


def test_cached_answer_is_byte_identical_to_fresh(fleet):
    """Property: for every request shape, the answer served from the
    warm cache encodes to exactly the bytes a fresh provider execution
    yields at the same certified root."""
    client, provider = fleet["client"], fleet["provider"]
    requests = [req(i) for i in range(4)]
    for request in requests:
        cold = client.query(request)          # fills the cache
        warm = client.query(request)          # served from the cache
        fresh = provider.execute(request)     # recomputed at the same root
        assert wire.encode(warm) == wire.encode(cold) == wire.encode(fresh)


def test_warm_hits_do_zero_rpc_round_trips(fleet):
    client = fleet["client"]
    request = req(0)
    client.query(request)  # warm (possibly already from the other test)
    calls_before = client.rpc.calls + fleet["gateway"].rpc.calls
    answer = client.query(request)
    assert isinstance(answer, QueryAnswer)
    assert client.rpc.calls + fleet["gateway"].rpc.calls == calls_before


# -- a request is encoded only when it leaves the client ----------------------


def test_the_cache_never_encodes(encoded):
    """The key is the typed request itself.  Parent: one encode per
    ``put`` / ``get`` / ``get_stale``, five here."""
    cache = VerifiedAnswerCache(capacity=4)
    cache.put(req(0), ROOT, ans(0))
    assert cache.get(req(0), ROOT) == ans(0)
    assert cache.get(req(1), ROOT) is None
    assert cache.get_stale(req(0)).answer == ans(0)
    assert cache.get_stale(req(1)) is None
    assert encoded == []
    # Any hashable key works, opaquely: bytes are not a request's bytes.
    cache.put(b"opaque", OTHER, ans(1))
    assert cache.get(b"opaque", OTHER) == ans(1)
    assert cache.get_stale(b"opaque").answer == ans(1)
    assert cache.get(req(0), OTHER) is None
    assert cache.get(wire.encode(req(0)), ROOT) is None
    assert encoded == [req(0)]


def test_one_query_encodes_its_request_once(fleet, encoded):
    """A miss is one encode on the client (the bytes that ride in the
    RPC) and one on the server (the answer); a warm hit encodes nothing.
    Parent: 2 + 1 and 1."""
    client = fleet["client"]
    request = HistoryQuery(
        index="history", account="once-gateway", t_from=1, t_to=10
    )
    cold = client.query(request)
    assert encoded == [request, cold]
    assert client.query(request) == cold
    assert encoded == [request, cold]


def test_a_batch_encodes_its_misses_only(fleet, encoded):
    client = fleet["client"]
    warm = HistoryQuery(index="history", account="batch-warm", t_from=1, t_to=10)
    cold = HistoryQuery(index="history", account="batch-cold", t_from=1, t_to=10)
    client.query(warm)
    del encoded[:]
    answers = client.query_many([warm, cold, warm])
    assert [answer.request for answer in answers] == [warm, cold, warm]
    assert encoded == [cold, answers[1]]


# -- what counts as the same request ------------------------------------------


def test_two_families_with_identical_fields_are_two_entries():
    """Equal fields hash alike across classes; equality tells them apart."""
    history = HistoryQuery(index="i", account="a", t_from=1, t_to=2)
    aggregate = AggregateQuery(index="i", account="a", t_from=1, t_to=2)
    assert hash(history) == hash(aggregate) and history != aggregate
    cache = VerifiedAnswerCache(capacity=4)
    cache.put(history, ROOT, "history answer")
    assert cache.get(aggregate, ROOT) is None
    cache.put(aggregate, ROOT, "aggregate answer")
    assert len(cache) == 2
    assert cache.get(history, ROOT) == "history answer"
    assert cache.get(aggregate, ROOT) == "aggregate answer"
    assert cache.get_stale(history).answer == "history answer"


def test_a_keyword_list_and_tuple_are_one_entry():
    """A list is stored as a tuple, so both spellings encode alike."""
    listed = KeywordQuery(index="kw", keywords=["x", "y"])
    tupled = KeywordQuery(index="kw", keywords=("x", "y"))
    assert wire.encode(listed) == wire.encode(tupled)
    cache = VerifiedAnswerCache(capacity=4)
    cache.put(listed, ROOT, "answer")
    assert cache.get(tupled, ROOT) == "answer"
    cache.put(tupled, ROOT, "answer")
    assert len(cache) == 1 and len(cache._stale) == 1


# -- graceful degradation through the client ---------------------------------


def test_client_degrades_to_stale_when_the_tier_is_unreachable(certified_setup):
    """With ``degrade_to_stale=True``, a total serving-tier outage after
    one verified answer yields that answer back, explicitly flagged
    stale, instead of an error — and a client that never opted in still
    raises."""
    from repro.errors import ServiceUnavailableError
    from repro.net.faults import FaultInjector, LinkFaults
    from repro.query.answercache import StaleAnswer

    chain = certified_setup["chain"]
    genesis, state = make_genesis()
    provider = QueryServiceProvider(
        genesis, state, fresh_vm(), chain.pow,
        list(certified_setup["specs"].values()),
    )
    for block in chain.blocks[1:]:
        provider.ingest_block(block)
    bus = MessageBus(default_latency_ms=10.0)
    IssuerService(bus, "ci", certified_setup["issuer"])
    QueryService(bus, "sp1", provider)
    gateway = QueryGateway(
        bus, "gw", ["sp1"],
        timeout_ms=120.0,
    )
    measurement = compute_expected_measurement(
        certified_setup["genesis"].header.header_hash(),
        certified_setup["ias"].public_key,
        fresh_vm(),
        chain.pow.difficulty_bits,
        certified_setup["specs"],
    )
    client = connect(ClientConfig(
        measurement=measurement,
        ias_public_key=certified_setup["ias"].public_key,
        bus=bus, name="client",
        issuers=("ci",), gateway=gateway,
        degrade_to_stale=True,
    ))
    client.sync()
    request = req(0)
    fresh = client.query(request)
    assert isinstance(fresh, QueryAnswer)

    injector = FaultInjector(seed=9)
    injector.set_link("gw", "sp1", LinkFaults(drop_rate=1.0))
    bus.install_faults(injector)
    # The fresh cache would still hit at the current root; a *new*
    # request shape has nothing cached and must reach the dead tier.
    # The warmed request only degrades once its root-keyed entry is
    # gone, so drop it to model a tip advance sweeping the cache.
    client.cache.retain_roots([])
    degraded = client.query(request)
    assert isinstance(degraded, StaleAnswer)
    assert degraded.stale is True
    assert wire.encode(degraded.answer) == wire.encode(fresh)
    assert client.stale_served == 1

    # Nothing verified on hand for an unseen request: the error
    # propagates even with degradation enabled.
    with pytest.raises(ServiceUnavailableError):
        client.query(req(3))
