"""The unified typed query API: execute(), verify(), deprecation."""

from dataclasses import replace

import pytest

from repro.chain import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.chain.transaction import sign_transaction
from repro.crypto import generate_keypair
from repro.errors import QueryError
from repro.query import (
    AggregateQuery,
    HistoryQuery,
    KeywordQuery,
    QueryAnswer,
    QueryRequest,
    ValueRangeQuery,
    verify,
)
from repro.query.indexes import (
    AccountHistoryIndexSpec,
    BalanceAggregateIndexSpec,
    KeywordIndexSpec,
    ValueRangeIndexSpec,
)
from repro.query.provider import QueryServiceProvider
from repro.sim import forge_answer
from tests.conftest import fresh_vm


@pytest.fixture(scope="module")
def api_world():
    """A provider with all four index families over one small chain."""
    user = generate_keypair(b"api-user")
    builder = ChainBuilder(difficulty_bits=4, network="query-api")
    nonce = [0]

    def tx(contract, method, *args):
        signed = sign_transaction(
            user.private, nonce[0], contract, method, tuple(args)
        )
        nonce[0] += 1
        return signed

    builder.add_block([tx("smallbank", "create", "a1", "1000", "500"),
                       tx("smallbank", "create", "a2", "40", "0")])
    for round_ in range(4):
        builder.add_block([
            tx("smallbank", "deposit_checking", "a1", "100"),
            tx("kvstore", "put", "k1", f"v{round_}"),
        ])

    specs = [
        AccountHistoryIndexSpec(name="history"),
        KeywordIndexSpec(name="keyword"),
        BalanceAggregateIndexSpec(name="aggregate"),
        ValueRangeIndexSpec(name="range"),
    ]
    genesis, state = make_genesis(network="query-api")
    provider = QueryServiceProvider(
        genesis, state, fresh_vm(), builder.pow, specs
    )
    for block in builder.blocks[1:]:
        provider.ingest_block(block)
    return provider, builder.height


@pytest.fixture(scope="module")
def requests_answers(api_world):
    provider, height = api_world
    requests = {
        "history": HistoryQuery(
            index="history", account="k1", t_from=1, t_to=height
        ),
        "aggregate": AggregateQuery(
            index="aggregate", account="a1", t_from=1, t_to=height
        ),
        "range": ValueRangeQuery(index="range", lo=0, hi=10_000),
        "keyword": KeywordQuery(index="keyword", keywords=("k1",)),
    }
    return requests, {
        name: provider.execute(request) for name, request in requests.items()
    }


def test_execute_answers_every_family(requests_answers, api_world):
    requests, answers = requests_answers
    for name, answer in answers.items():
        assert isinstance(answer, QueryAnswer)
        assert answer.request == requests[name]
        assert answer.proof_size_bytes() == answer.payload.proof_size_bytes()
        assert answer.proof_size_bytes() > 0
    assert len(answers["history"].payload.versions) == 4
    assert answers["aggregate"].payload.aggregate.count == 5
    assert len(answers["range"].payload.matches) >= 1
    assert len(answers["keyword"].payload.results) >= 1


def test_unified_verify_accepts_every_family(requests_answers, api_world):
    provider, _ = api_world
    requests, answers = requests_answers
    for name, request in requests.items():
        assert verify(request, answers[name], provider.index_root)


def test_verify_accepts_mapping_root_source(requests_answers, api_world):
    provider, _ = api_world
    requests, answers = requests_answers
    for name, request in requests.items():
        roots = {request.index: provider.index_root(request.index)}
        assert verify(request, answers[name], roots)


def test_verify_rejects_answer_to_a_different_request(requests_answers, api_world):
    provider, height = api_world
    requests, answers = requests_answers
    asked = replace(requests["history"], t_to=height - 1)
    assert not verify(asked, answers["history"], provider.index_root)


def test_verify_rejects_cross_family_payload(requests_answers, api_world):
    provider, _ = api_world
    requests, answers = requests_answers
    frankenstein = QueryAnswer(
        request=requests["history"], payload=answers["keyword"].payload
    )
    assert not verify(requests["history"], frankenstein, provider.index_root)


def test_verify_rejects_tampered_payload(requests_answers, api_world):
    provider, _ = api_world
    requests, answers = requests_answers
    answer = answers["history"]
    tampered = forge_answer(answer, "drop")
    assert tampered.payload.versions == answer.payload.versions[1:]
    assert not verify(requests["history"], tampered, provider.index_root)


def test_verify_without_certified_root_raises(requests_answers):
    requests, answers = requests_answers
    with pytest.raises(QueryError, match="no certified root"):
        verify(requests["history"], answers["history"], {})


def test_execute_unknown_index_rejected(api_world):
    provider, _ = api_world
    with pytest.raises(QueryError, match="unknown index"):
        provider.execute(
            HistoryQuery(index="nope", account="k1", t_from=1, t_to=2)
        )


def test_execute_wrong_family_rejected(api_world):
    provider, _ = api_world
    with pytest.raises(QueryError, match="does not support"):
        provider.execute(
            HistoryQuery(index="keyword", account="k1", t_from=1, t_to=2)
        )
    with pytest.raises(QueryError, match="does not support"):
        provider.execute(ValueRangeQuery(index="history", lo=0, hi=1))


def test_execute_unrecognized_request_type_rejected(api_world):
    provider, _ = api_world
    with pytest.raises(QueryError, match="unrecognized"):
        provider.execute(QueryRequest(index="history"))


def test_keyword_request_canonicalizes_list_input():
    request = KeywordQuery(index="keyword", keywords=["b", "a"])
    assert request.keywords == ("b", "a")
    assert request == KeywordQuery(index="keyword", keywords=("b", "a"))


def test_removed_legacy_wrappers_raise_attribute_error(api_world):
    """The pre-typed-API surface is gone, not deprecated: the per-type
    ``query_*`` provider methods and ``verify_*`` client wrappers were
    removed in PR 5 and must fail loudly, not warn."""
    from repro.core.superlight import SuperlightClient

    provider, _height = api_world
    for removed in (
        "query_history",
        "query_aggregate",
        "query_value_range",
        "query_keywords",
    ):
        with pytest.raises(AttributeError):
            getattr(provider, removed)
    for removed in (
        "verify_history",
        "verify_aggregate",
        "verify_value_range",
        "verify_keyword",
    ):
        assert not hasattr(SuperlightClient, removed)
