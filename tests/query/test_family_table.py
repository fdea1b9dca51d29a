"""The family table: every row reachable, nothing dispatched beside it."""

import re
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

import repro
from repro.core.issuer import make_maintained_index
from repro.errors import CertificateError, QueryError
from repro.query import QueryAnswer, QueryRequest, verify
from repro.query.api import FAMILIES, FAMILY_OF_REQUEST, FAMILY_OF_SPEC, Family
from repro.query.indexes import AuthenticatedIndexSpec
from tests.query.test_query_api import api_world, requests_answers  # noqa: F401


def test_the_table_is_four_rows_keyed_by_exact_class():
    assert len(FAMILIES) == 4 and all(type(row) is Family for row in FAMILIES)
    assert list(FAMILY_OF_SPEC.values()) == list(FAMILY_OF_REQUEST.values()) == list(FAMILIES)
    assert len({row.name for row in FAMILIES}) == 4


@pytest.mark.parametrize("row", FAMILIES, ids=lambda row: row.name)
def test_every_row_is_reachable_from_all_three_sites(row, api_world, requests_answers):
    provider, _height = api_world
    requests, _answers = requests_answers
    (request,) = [r for r in requests.values() if type(r) is row.request]
    assert type(make_maintained_index(row.spec(name="x"))) is row.index
    assert type(provider.indexes[request.index]) is row.index
    answer = provider.execute(request)
    assert type(answer.payload) is row.answer
    assert verify(request, answer, provider.index_root)
    others = [name for name, index in provider.indexes.items() if type(index) is not row.index]
    assert len(others) == 3
    for name in others:
        with pytest.raises(QueryError, match=f"does not support {row.name} queries"):
            provider.execute(replace(request, index=name))
        # A payload of another family never verifies, whatever it echoes.
        wrong = QueryAnswer(request=request, payload=provider.execute(requests[name]).payload)
        assert verify(request, wrong, provider.index_root) is False


def test_classes_outside_the_table_are_refused_as_before(api_world, requests_answers):
    provider, _height = api_world
    requests, answers = requests_answers

    class OtherSpec(AuthenticatedIndexSpec):
        name = "other"
        genesis_root = write_data = apply_writes = config_bytes = None

    with pytest.raises(CertificateError, match="no maintained index for spec OtherSpec"):
        make_maintained_index(OtherSpec.__new__(OtherSpec))
    with pytest.raises(QueryError, match="unrecognized query request type QueryRequest"):
        provider.execute(QueryRequest(index="history"))
    with pytest.raises(QueryError, match="unknown index"):  # before anything else
        provider.execute(QueryRequest(index="nope"))

    # Lookups are by exact class: a subclass no decoder can produce is
    # refused by the SP and never verifies.
    @dataclass(frozen=True, slots=True)
    class Sub(type(requests["history"])):
        pass

    honest = requests["history"]
    sub = Sub(honest.index, honest.account, honest.t_from, honest.t_to)
    with pytest.raises(QueryError, match="unrecognized query request type Sub"):
        provider.execute(sub)
    forged = QueryAnswer(request=sub, payload=answers["history"].payload)
    assert verify(sub, forged, provider.index_root) is False


def test_keyword_echo_is_compared_as_sent(api_world):
    """The request side is canonicalised, the payload side is not."""
    provider, _height = api_world
    row = next(row for row in FAMILIES if row.name == "keyword")
    ask = row.request(index="keyword", keywords=("k1", "a1"))
    answer = provider.execute(ask)
    assert answer.payload.keywords == ("a1", "k1")
    assert verify(ask, answer, provider.index_root)
    for as_sent in (("k1", "a1"), ["a1", "k1"]):
        forged = replace(answer, payload=replace(answer.payload, keywords=as_sent))
        assert verify(ask, forged, provider.index_root) is False


def test_no_other_source_file_names_a_whole_column_of_the_table():
    """A fourth dispatch site would have to name the four classes."""
    root = Path(repro.__file__).parent
    allowed = {"query/indexes.py", "query/api.py"}
    for column in ("spec", "index", "request", "answer"):
        names = [getattr(row, column).__name__ for row in FAMILIES]
        for path in root.rglob("*.py"):
            text = path.read_text()
            if all(re.search(rf"\b{name}\b", text) for name in names):
                where = path.relative_to(root).as_posix()
                assert where in allowed or path.name == "__init__.py", (column, where)
