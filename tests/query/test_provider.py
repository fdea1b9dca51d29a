"""The Query Service Provider: ingestion and query dispatch."""

import pytest

from repro.chain.genesis import make_genesis
from repro.errors import QueryError
from repro.query.api import HistoryQuery, KeywordQuery
from repro.query.indexes import AccountHistoryIndexSpec, KeywordIndexSpec
from repro.query.provider import QueryServiceProvider
from tests.conftest import fresh_vm


@pytest.fixture()
def provider(kv_chain):
    genesis, state = make_genesis()
    provider = QueryServiceProvider(
        genesis,
        state,
        fresh_vm(),
        kv_chain.pow,
        [AccountHistoryIndexSpec(name="history"), KeywordIndexSpec(name="keyword")],
        with_lineagechain_baseline=True,
    )
    for block in kv_chain.blocks[1:]:
        provider.ingest_block(block)
    return provider


def test_sp_tracks_chain(provider, kv_chain):
    assert provider.node.height == kv_chain.height
    assert provider.node.state.root == kv_chain.state.root


def test_sp_roots_match_ci_roots(provider, certified_setup):
    issuer = certified_setup["issuer"]
    assert provider.index_root("history") == issuer.index_root("history")
    assert provider.index_root("keyword") == issuer.index_root("keyword")


def test_history_query_against_certified_root(provider, certified_setup):
    from repro.query.verifier import verify_history_answer

    answer = provider.execute(
        HistoryQuery(index="history", account="k2", t_from=1, t_to=10)
    ).payload
    assert len(answer.versions) >= 1
    root = certified_setup["issuer"].index_root("history")
    assert verify_history_answer(root, answer)


def test_keyword_query_against_certified_root(provider, certified_setup):
    from repro.query.verifier import verify_keyword_answer

    answer = provider.execute(
        KeywordQuery(index="keyword", keywords=("v2",))
    ).payload
    assert len(answer.results) == 1
    root = certified_setup["issuer"].index_root("keyword")
    assert verify_keyword_answer(root, answer)


def test_baseline_answers_same_versions(provider):
    dcert = provider.execute(
        HistoryQuery(index="history", account="k2", t_from=1, t_to=10)
    ).payload
    baseline = provider.baselines["history"].query_history("k2", 1, 10)
    assert dcert.versions == baseline.versions


def test_baseline_answer_verifies(provider):
    from repro.query.verifier import verify_baseline_history_answer

    baseline = provider.baselines["history"].query_history("k2", 1, 10)
    root = provider.baselines["history"].root
    assert verify_baseline_history_answer(root, baseline)


def test_unknown_index_rejected(provider):
    with pytest.raises(QueryError):
        provider.execute(
            HistoryQuery(index="nope", account="k1", t_from=1, t_to=2)
        )
    with pytest.raises(QueryError):
        provider.execute(
            KeywordQuery(index="history", keywords=("x",))  # wrong kind
        )
    with pytest.raises(QueryError):
        provider.execute(
            HistoryQuery(index="keyword", account="k1", t_from=1, t_to=2)
        )
