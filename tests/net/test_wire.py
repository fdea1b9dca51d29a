"""The wire codec: library dataclasses ⇄ canonical JSON bytes."""

import collections
import dataclasses
import enum
import typing

import pytest

from repro.crypto import generate_keypair
from repro.errors import WireError
from repro.net import wire
from repro.net.messages import LagNotice, StreamAck
from repro.net.pubsub import (
    HeartbeatReply,
    SubscribeReply,
    SyncReply,
    TipAnnouncement,
)
from repro.query.api import (
    AggregateQuery,
    HistoryQuery,
    KeywordQuery,
    ValueRangeQuery,
)

from tests.net import wire_reference


@pytest.mark.parametrize(
    "value",
    [
        None,
        True,
        False,
        0,
        -17,
        3.5,
        "hello",
        b"",
        b"\x00\xffraw",
        (1, "two", b"\x03"),
        [1, [2, [3]]],
        {"a": 1, "b": (2, 3)},
        {1: "int keys", (2, 3): "tuple keys"},
    ],
)
def test_scalar_and_container_round_trip(value):
    decoded = wire.decode(wire.encode(value))
    assert decoded == value
    assert type(decoded) is type(value)


def test_tuple_list_distinction_survives():
    decoded = wire.decode(wire.encode(((1, 2), [3, 4])))
    assert decoded == ((1, 2), [3, 4])
    assert isinstance(decoded[0], tuple)
    assert isinstance(decoded[1], list)


@pytest.mark.parametrize(
    "request_",
    [
        HistoryQuery(index="history", account="acct1", t_from=1, t_to=9),
        AggregateQuery(index="balances", account="alice", t_from=2, t_to=5),
        ValueRangeQuery(index="range", lo=900, hi=1100),
        KeywordQuery(index="keyword", keywords=("a", "b")),
    ],
)
def test_query_requests_round_trip(request_):
    assert wire.decode(wire.encode(request_)) == request_


def test_nested_library_dataclass_round_trips():
    keypair = generate_keypair(b"wire-test")
    decoded = wire.decode(wire.encode(keypair.public))
    assert decoded == keypair.public


def test_encoding_is_canonical():
    """Equal objects built independently encode to the same bytes."""
    first = HistoryQuery(index="history", account="acct1", t_from=1, t_to=2**40)
    second = HistoryQuery(
        index="".join(["hist", "ory"]), account="acct" + str(1),
        t_from=int("1"), t_to=1 << 40,
    )
    assert first == second and first is not second
    assert wire.encode(first) == wire.encode(second)
    one, other = generate_keypair(b"canon"), generate_keypair(b"canon")
    assert one.public is not other.public
    assert wire.encode(one.public) == wire.encode(other.public)
    assert wire.encode(wire.decode(wire.encode(one.public))) == wire.encode(
        one.public
    )


def test_non_library_dataclass_refused():
    @dataclasses.dataclass
    class Foreign:
        x: int

    with pytest.raises(WireError):
        wire.encode(Foreign(1))


def test_unserializable_value_refused():
    with pytest.raises(WireError):
        wire.encode(object())


# -- the emitters against the encoder they replaced ---------------------------


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Label(str):
    def __str__(self) -> str:
        return "not what the wire writes"


class _Ratio(float):
    def __repr__(self) -> str:
        return "not what the wire writes"


class _Pair(typing.NamedTuple):
    left: int
    right: str


_HISTORY_QUERY = HistoryQuery(index="history", account="acct1", t_from=1, t_to=9)

EDGE_VALUES = {
    "nan": float("nan"),
    "inf": float("inf"),
    "-inf": float("-inf"),
    "-0.0": -0.0,
    "tiny": 5e-324,
    "huge-float": 1e300,
    "tenth": 0.1,
    "2**300": 2**300,
    "-2**300": -(2**300),
    "true-vs-1": [True, 1, 1.0, False, 0],
    "non-ascii": "é日本😀",
    "controls": "\x00\x07\x1f\x7f\u2028",
    "quotes-and-backslashes": '"quoted" \\ back\\slash \'single\'',
    "lone-surrogate": "\ud800",
    "empty-str": "",
    "empty-bytes": b"",
    "empty-tuple": (),
    "empty-list": [],
    "empty-dict": {},
    "non-str-keys": {1: "a", (2, 3): "b", None: 0, b"k": 1, 1.5: True},
    "insertion-order": {"b": 1, "a": 2},
    "reverse-insertion-order": {"a": 2, "b": 1},
    "named-tuple": _Pair(7, "x"),
    "int-enum": _Level.HIGH,
    "str-subclass": _Label("label"),
    "float-subclass": _Ratio(2.5),
    "bytes-subclass": type("_Blob", (bytes,), {})(b"\x01\x02"),
    "dict-subclass": collections.OrderedDict([("z", 1), ("a", 2)]),
    "list-subclass": type("_Items", (list,), {})([1, "2"]),
    "unsorted-dataclass-fields": _HISTORY_QUERY,
    "nested": [_HISTORY_QUERY, {"k": (KeywordQuery(index="k", keywords=("a",)),)}],
}


@pytest.mark.parametrize("value", EDGE_VALUES.values(), ids=EDGE_VALUES)
def test_edge_values_encode_to_the_reference_bytes(value):
    assert wire.encode(value) == wire_reference.encode(value)


def test_dataclass_fields_are_written_in_sorted_order():
    """``HistoryQuery`` declares ``index`` before ``account``."""
    names = [field.name for field in dataclasses.fields(HistoryQuery)]
    assert names != sorted(names)
    assert wire.encode(_HISTORY_QUERY) == (
        b'{"!dc":"repro.query.api:HistoryQuery","!f":'
        b'{"account":"acct1","index":"history","t_from":1,"t_to":9}}'
    )


@dataclasses.dataclass
class _Foreign:
    x: int


REFUSED = {
    "non-library-dataclass": _Foreign(1),
    "dataclass-class": HistoryQuery,
    "set": {1, 2},
    "bytearray": bytearray(b"ab"),
    "object": object(),
    "nested-refusal": [1, (2, {3: object()})],
}


@pytest.mark.parametrize("value", REFUSED.values(), ids=REFUSED)
def test_refusals_match_the_reference_and_leave_the_table_alone(value):
    with pytest.raises(WireError):
        wire_reference.encode(value)
    rows = dict(wire._EMITTERS)
    with pytest.raises(WireError):
        wire.encode(value)
    assert wire._EMITTERS == rows


def _announcement(certified, seq):
    return TipAnnouncement(
        seq=seq,
        published_at_ms=25.0 * seq,
        header=certified.block.header,
        certificate=certified.certificate,
        index_certificates=certified.index_certificates,
        index_roots=certified.index_roots,
    )


def test_a_warm_class_is_encoded_without_planning(fresh_emitters, certified_setup):
    """The first tip announcement reads ``dataclasses.fields`` once per
    class it holds; the next reads it 0 times and adds 0 rows, and a
    subclass of a fixed type never gets a row."""
    older, newer = certified_setup["issuer"].certified[-2:]
    wire.encode([_announcement(older, 1), _Pair(1, "a"), _Level.LOW, _Label("x")])
    planned = list(fresh_emitters.planned)
    assert len(planned) == len(set(planned)) >= 5
    rows = set(wire._EMITTERS)
    assert rows - fresh_emitters.fixed == set(planned)
    wire.encode([_announcement(newer, 2), _Pair(2, "b"), _Level.HIGH, _Label("y")])
    assert fresh_emitters.planned == planned
    assert set(wire._EMITTERS) == rows


@pytest.mark.parametrize(
    "data",
    [
        b"",
        b"\xff\xfe not json",
        b"[1,2,3]",  # bare arrays are never produced by the codec
        b'{"!b":"xyz"}',  # not hex
        b'{"!b":"00","!t":[]}',  # ambiguous tags
        b'{"no":"tag"}',
        b'{"!dc":"os:path","!f":{}}',  # refuses non-repro modules
        b'{"!dc":"repro.query.api:Nope","!f":{}}',
        b'{"!dc":"repro.query.api:HistoryQuery"}',  # missing field map
    ],
)
def test_undecodable_bytes_raise_wire_error(data):
    with pytest.raises(WireError):
        wire.decode(data)


_HISTORY = (
    b'"!dc":"repro.query.api:HistoryQuery",'
    b'"!f":{"account":"a","index":"i","t_from":1,"t_to":2}'
)


@pytest.mark.parametrize(
    ("data", "parent_decoded"),
    [
        # A second encoding of b"\x00": surplus keys beside the tag.
        (b'{"!b":"00","x":1}', b"\x00"),
        # Unvalidated freight: a subtree no walk ever reads.
        (
            b'{' + _HISTORY + b',"junk":{"any":[1,2]}}',
            HistoryQuery(index="i", account="a", t_from=1, t_to=2),
        ),
        # A string or an object iterated as if it were the array.
        (b'{"!t":"ab"}', ("a", "b")),
        (b'{"!t":{"k":1}}', ("k",)),
        (b'{"!l":"ab"}', ["a", "b"]),
        (b'{"!d":["ab"]}', {"a": "b"}),
        (b'{"!d":[{"x":1,"y":2}]}', {"x": "y"}),
        # An alias: not the path ``encode`` writes for the class.
        (
            b'{' + _HISTORY.replace(b"repro.query.api:", b"repro.query:") + b'}',
            HistoryQuery(index="i", account="a", t_from=1, t_to=2),
        ),
    ],
)
def test_shapes_encode_never_writes_are_refused(data, parent_decoded):
    """Each row decoded at the parent (``wire_reference`` is its walk,
    verbatim) to an object whose own encoding is *other* bytes."""
    assert wire_reference.decode(data) == parent_decoded
    assert wire.encode(parent_decoded) != data
    with pytest.raises(WireError):
        wire.decode(data)


def test_an_invented_alias_path_cannot_grow_the_class_map(monkeypatch):
    """``repro.chain.builder`` binds ``repro``, so every class has
    unboundedly many resolvable paths; none of them is remembered."""
    monkeypatch.setattr(wire, "_CLASSES", {})
    path = "repro.query.api.HistoryQuery"
    for _ in range(3):
        path = "repro.chain.builder." + path
        data = b'{' + _HISTORY.replace(
            b"repro.query.api:HistoryQuery", b"repro.chain.builder:" + path.encode()
        ) + b'}'
        with pytest.raises(WireError, match="alias"):
            wire.decode(data)
    assert wire._CLASSES == {}
    wire.decode(b'{' + _HISTORY + b'}')
    assert list(wire._CLASSES) == ["repro.query.api:HistoryQuery"]


def test_tampered_field_values_fail_validation_on_decode():
    """An off-curve public key is rejected by its own __post_init__."""
    keypair = generate_keypair(b"wire-tamper")
    encoded = wire.encode(keypair.public)
    x = keypair.public.x
    tampered = encoded.replace(str(x).encode(), str(x + 1).encode(), 1)
    assert tampered != encoded
    with pytest.raises(WireError):
        wire.decode(tampered)


@pytest.mark.parametrize("byte", [b".", b"e"])
def test_non_integer_public_key_coordinate_never_decodes(certified_setup, byte):
    """A digit of ``pk_enc.y`` mutated into ``.`` or ``e`` makes the JSON
    number a float, and float arithmetic can satisfy the curve check —
    the certificate must still fail to decode, not come back as an
    object whose ``to_bytes()`` raises ``TypeError`` later."""
    certificate = certified_setup["issuer"].certified[-1].certificate
    encoded = wire.encode(certificate)
    digits = str(certificate.pk_enc.y).encode()
    start = encoded.index(digits)
    for offset in range(1, len(digits) - 1):
        position = start + offset
        tampered = encoded[:position] + byte + encoded[position + 1 :]
        with pytest.raises(WireError):
            wire.decode(tampered)


def _signature_scalars(certificate):
    return {
        "cert.sig.r": certificate.sig.r,
        "cert.sig.s": certificate.sig.s,
        "report.signature.r": certificate.report.signature.r,
        "report.signature.s": certificate.report.signature.s,
    }


@pytest.mark.parametrize(
    "where",
    ["cert.sig.r", "cert.sig.s", "report.signature.r", "report.signature.s"],
)
@pytest.mark.parametrize(
    "replacement",
    [b"1.5", b"2.5e70", b'"7"', b"true", b"null", b"-1", str(1 << 256).encode()],
    ids=["float", "big-float", "str", "bool", "null", "negative", "2**256"],
)
def test_non_integer_signature_scalar_never_decodes(
    certified_setup, where, replacement
):
    """``r`` / ``s`` of ``cert.sig`` and of the report signature arrive as
    JSON numbers; anything but an int in [0, 2**256) must fail decoding
    (``WireError``), not come back as a ``Signature`` whose ``to_bytes()``
    raises ``AttributeError`` while a client builds its report-memo key
    or whose float reaches ``pow()`` inside ``verify_digest``."""
    certificate = certified_setup["issuer"].certified[-1].certificate
    encoded = wire.encode(certificate)
    digits = str(_signature_scalars(certificate)[where]).encode()
    assert encoded.count(digits) == 1
    with pytest.raises(WireError):
        wire.decode(encoded.replace(digits, replacement))


@pytest.mark.parametrize("byte", [b".", b"e"])
def test_one_byte_flip_in_a_signature_scalar_never_decodes(certified_setup, byte):
    """The wire-reachable form: one digit flipped to ``.`` / ``e`` turns
    the JSON int into a float."""
    certificate = certified_setup["issuer"].certified[-1].certificate
    encoded = wire.encode(certificate)
    for scalar in _signature_scalars(certificate).values():
        digits = str(scalar).encode()
        start = encoded.index(digits)
        for offset in range(1, len(digits) - 1):
            position = start + offset
            tampered = encoded[:position] + byte + encoded[position + 1 :]
            with pytest.raises(WireError):
                wire.decode(tampered)


def test_unknown_structural_field_rejected():
    request = HistoryQuery(index="i", account="a", t_from=1, t_to=2)
    encoded = wire.encode(request)
    tampered = encoded.replace(b'"account"', b'"acct_no"')
    with pytest.raises(WireError):
        wire.decode(tampered)


# -- push-stream wire messages ------------------------------------------------


@pytest.mark.parametrize(
    "message",
    [
        StreamAck(subscriber="client-3", seq=41),
        SubscribeReply(latest_seq=7, lease_ms=30_000.0),
        HeartbeatReply(latest_seq=9, subscribed=True, lagged=False),
        HeartbeatReply(latest_seq=0, subscribed=False, lagged=True),
        LagNotice(latest_seq=12, dropped=4),
        SyncReply(announcements=(), latest_seq=3, oldest_retained=1),
    ],
)
def test_push_stream_messages_round_trip(message):
    decoded = wire.decode(wire.encode(message))
    assert decoded == message
    assert type(decoded) is type(message)


def test_sync_reply_with_announcement_round_trips(certified_setup):
    certified = certified_setup["issuer"].certified[-1]
    announcement = _announcement(certified, 5)
    reply = SyncReply(
        announcements=(announcement,), latest_seq=5, oldest_retained=2
    )
    decoded = wire.decode(wire.encode(reply))
    assert decoded == reply
    assert decoded.announcements[0].certificate == certified.certificate
