"""The strict decode walk against the walk it replaced.

``tests/net/wire_reference.py`` is the pre-PR 22 ``_unpack`` /
``_resolve`` verbatim.  The corpus is every payload ``wire.encode`` wrote
or ``wire.decode`` was handed while three small worlds ran — the
benchmark's ``query-cold`` and ``tip-follow`` shapes rebuilt here from
the shared builders (the query world ends with a stretch behind a fault
injector that corrupts payloads in flight: the sim's own faults only
drop) and a seeded ``repro.sim`` run — plus structural mutants of one
payload per distinct message type.

For every input the two walks must agree: the same object (and the same
bytes when it is encoded again) or ``WireError`` from both.  The only
disagreements allowed are inputs the old walk accepted although
``encode`` never writes them; they are classified from the raw JSON,
all refused by the new walk, and their counts are pinned.

The same file keeps the tagged-tree encoder (``_pack`` + ``json.dumps``)
that the per-type emitters replaced: every object decoded here, honest
or an accepted mutant, must encode to the same bytes under both.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import random
from collections import Counter

import pytest

from repro.bench.params import BenchParams
from repro.bench.workloadgen import WorkloadGenerator
from repro.chain.builder import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.contracts import fresh_vm
from repro.core import (
    CertificateIssuer,
    ClientConfig,
    IssuerService,
    compute_expected_measurement,
    connect,
)
from repro.errors import ReproError, WireError
from repro.net import (
    FaultInjector,
    LinkFaults,
    MessageBus,
    QueryGateway,
    SubscriptionHub,
    wire,
)
from repro.query import (
    AggregateQuery,
    HistoryQuery,
    KeywordQuery,
    QueryService,
    QueryServiceProvider,
    ValueRangeQuery,
)
from repro.query.indexes import (
    AccountHistoryIndexSpec,
    BalanceAggregateIndexSpec,
    KeywordIndexSpec,
    ValueRangeIndexSpec,
)
from repro.sgx.attestation import AttestationService
from repro.sgx.costs import cost_model_disabled
from repro.sim import run_sim

from tests.net import wire_reference

ACCOUNTS = 16
VOCABULARY = [f"word{i}" for i in range(24)]
FAMILIES = ("history", "keyword", "aggregate", "range")
QUERY_ROUNDS = 260  # × 4 families, two payloads each
CORRUPTED_ROUNDS = 40  # more of the same, one reply in four corrupted
TIP_ROUNDS = 6
SIM_SEED, SIM_EVENTS = 2026, 150

# The classes of input only the old walk accepts (the first four are
# ISSUE 22's; an alias path is the fifth, see docs/network.md).
SURPLUS_KEY = "a tag object carrying other keys"
FREIGHT = "a dataclass object carrying keys beside !dc / !f"
STRING_BODY = "a string iterated as if it were the array"
OBJECT_BODY = "an object iterated as if it were the array"
ALIAS = "a class path other than the one encode writes"

#: Old walk accepts / new walk refuses, per class, over the whole run.
#: Regression constants: they move only when the corpus or the mutator
#: does, and a new class of disagreement fails before they are compared.
#: Re-recorded once in PR 23 (was 872 / 205 / 1506 / 519 / 205): with the
#: request links corrupted too, a replica answers a keyword query for a
#: word nobody indexed ("wora11") -- two new message types, both proofs
#: of absence, each bringing its own mutants.  No new class.
#: Re-recorded once more (was 1135 / 235 / 1991 / 606 / 235) when the
#: hub's replies became one ``StreamReply``: its subscribe, heartbeat
#: and catch-up replies were each a class of their own, bringing their
#: own mutants, and are now payloads of one class.  No new class.
#: Re-recorded once more (was 1133 / 233 / 1989 / 601 / 233) when a
#: replica switch became one ``index_roots`` request: its reply, a
#: ``{name: root}`` object, replaces the ``index_root`` reply (one bytes
#: leaf) as a message kind, and its mutants bring 12 refusals where the
#: old kind's brought 3.  No other kind moved, and no new class.
#: Re-recorded once more (was 1135 / 233 / 1993 / 604 / 233) when replica
#: switch verification went: the ``index_roots`` reply kind (a top-level
#: ``{name: root}`` object) leaves the corpus, 29 kinds -> 28, and with it
#: its 12 refusals (surplus key -3, string body -6, object body -3).  No
#: other kind moved, and no new class.
#: Re-recorded once more (was 1132 / 233 / 1987 / 601 / 233) when a
#: ``TipAnnouncement`` came to carry its tip as one nested
#: ``CertifiedTip``: the two kinds that hold an announcement (a push, and
#: a ``StreamReply`` with a tip) each gain one dataclass object, and with
#: it one freight and one alias refusal.  No other kind moved, and no new
#: class.
#: Re-recorded once more (was 1132 / 235 / 1987 / 601 / 235) when every
#: gateway came to hedge: under the corrupting injector a dispatch whose
#: request or reply is lost is now hedged after the replica's p90, and
#: the extra sends shift which messages the injector corrupts.  One kind
#: entered, 28 kinds -> 29: an ``AggregateAnswer`` proving the absence of
#: an account nobody indexed ("ad0", a request corrupted in flight),
#: whose upper proof is one ``BranchStep`` (+5 / +5 / +38 / +9 / +21
#: freight / alias / string body / object body / surplus key).  One
#: kind's representative changed: the keyword proof of absence now
#: answers "worda" where it answered "wor80", 12,307 -> 14,791 bytes
#: (+2 / +2 / +64 / +4 / +33).  No other kind moved, and no new class.
#: Re-recorded once more (was 1186 / 242 / 2089 / 614 / 242) when a client
#: without a gateway came to be sent the tip-only form: the tip world's
#: subscribers, poller and cold clients are such clients, so the shortest
#: push and the shortest ``latest_tip`` reply are now tip-only (4,550 ->
#: 1,838 and 4,462 -> 1,750 bytes), without the index certificates and
#: roots whose mutants each kind brought (-12 / -12 / -20 / -4 / -8 each:
#: freight / alias / string body / object body / surplus key).  The
#: ``null`` ``latest_tip`` request leaves the corpus (no refusals) and the
#: shortest tuple is a 3-tuple stream request (same refusals).  No other
#: kind moved, and no new class.
#: Re-recorded once more (was 1170 / 218 / 2049 / 606 / 218) when
#: ``run_sim`` came to end with a ``quiesce`` probing unindexed keywords:
#: one kind entered, a keyword absence proof ending in a
#: ``DivergedExtensionStep`` (1,861 B; +26 / +6 / +43 / +19 / +6 surplus
#: key / freight / string / object body / alias).  No new class.
#: Re-recorded once more (was 1196 / 224 / 2092 / 625 / 224) when an
#: answer's claims came to be read from its proofs.  With that alone
#: (1051 / 216 / 1889 / 450 / 216) every answer kind with results lost
#: the arrays that restated them (range: ``entries`` and ``matches``,
#: 3,777 -> 2,160 B and 2,606 -> 2,170 B; history 4,567 -> 4,493 B;
#: keyword 10,095 -> 10,043 B), and an aggregate kind left: the
#: ``Aggregate`` class was in it only through the ``aggregate`` field,
#: so it merged with the stubless kind (29 kinds -> 28).  Round robin
#: over the fleet's fixed order then moved which requests the
#: corrupting injector hits, so the keyword absence proofs' two
#: representatives changed (14,771 -> 12,293 and 6,883 -> 7,041 B;
#: -33 / -2 / -58 / 0 / -2).  No new class.
PINNED_REFUSALS = {
    SURPLUS_KEY: 1022,
    FREIGHT: 214,
    STRING_BODY: 1831,
    OBJECT_BODY: 450,
    ALIAS: 214,
}


# -- the worlds ---------------------------------------------------------------


class _World:
    """Generator + chain + issuer + provider, as the benchmark's
    ``Deployment`` builds them, at test size."""

    def __init__(self, seed: int, families: tuple[str, ...]) -> None:
        factories = {
            "history": AccountHistoryIndexSpec,
            "keyword": KeywordIndexSpec,
            "aggregate": BalanceAggregateIndexSpec,
            "range": ValueRangeIndexSpec,
        }
        self.params = BenchParams(name="wire-corpus", num_accounts=ACCOUNTS)
        self.specs = [factories[name](name=name) for name in families]
        self.generator = WorkloadGenerator(self.params, seed=seed)
        self.rng = random.Random(seed)
        self.builder = ChainBuilder(
            difficulty_bits=self.params.difficulty_bits,
            state_depth=self.params.state_depth,
            network="wire-corpus",
        )
        self.ias = AttestationService(seed=b"wire-corpus-ias")
        genesis, state = self._genesis()
        self.issuer = CertificateIssuer(
            genesis, state, fresh_vm(), self.builder.pow,
            index_specs=self.specs, ias=self.ias, key_seed=b"wire-corpus",
        )
        genesis, state = self._genesis()
        self.provider = QueryServiceProvider(
            genesis, state, fresh_vm(), self.builder.pow, self.specs
        )
        self.measurement = compute_expected_measurement(
            genesis.header.header_hash(), self.ias.public_key, fresh_vm(),
            self.builder.pow.difficulty_bits,
            {spec.name: spec for spec in self.specs},
        )
        self.bus = MessageBus(default_latency_ms=5.0)
        self.service = IssuerService(self.bus, "ci", self.issuer)
        self.hub = SubscriptionHub.embedded(self.service)

    def _genesis(self):
        return make_genesis(
            network="wire-corpus", state_depth=self.params.state_depth
        )

    def block(self, transactions):
        block, _result = self.builder.add_block(transactions)
        certified = self.issuer.process_block(block)
        self.provider.ingest_block(block)
        return certified

    def transactions(self, payments: int = 0):
        generator = self.generator
        return [
            generator.history_update_tx(self.rng.randrange(ACCOUNTS)),
            generator.keyword_tx(VOCABULARY),
            *(generator.smallbank_tx() for _ in range(payments)),
        ]

    def connect(self, name: str, **extra):
        return connect(ClientConfig(
            measurement=self.measurement, ias_public_key=self.ias.public_key,
            bus=self.bus, name=name, issuers=("ci",), bootstrap=True, **extra,
        ))


def _run_query_world() -> None:
    """``query-cold``: distinct requests of all four families through a
    gateway client with an answer cache."""
    world = _World(7, FAMILIES)
    world.block(world.generator.smallbank_setup_txs())
    for _ in range(8):
        world.block(world.transactions(payments=2))
    for name in ("sp1", "sp2"):
        QueryService(world.bus, name, world.provider, service_time_ms=2.0)
    gateway = QueryGateway(world.bus, "gateway", ["sp1", "sp2"])
    client = world.connect("reader", gateway=gateway, cache_capacity=64)
    rng, height = world.rng, world.builder.height
    for round_ in range(QUERY_ROUNDS + CORRUPTED_ROUNDS):
        if round_ == QUERY_ROUNDS:
            # Both directions since PR 23: a request whose digit becomes
            # ``e`` (a float bound) is refused by its own class at decode.
            injector = FaultInjector(seed=7)
            for replica in ("sp1", "sp2"):
                injector.set_link(replica, "gateway", LinkFaults(corrupt_rate=0.25))
                injector.set_link("gateway", replica, LinkFaults(corrupt_rate=0.25))
            world.bus.install_faults(injector)
        t_from = rng.randrange(1, height + 1)
        t_to = rng.randrange(t_from, height + 1)
        low = rng.randrange(0, 2000)
        for request in (
            HistoryQuery(
                index="history", account=f"acct{rng.randrange(ACCOUNTS)}",
                t_from=t_from, t_to=t_to,
            ),
            KeywordQuery(
                index="keyword",
                keywords=tuple(rng.sample(VOCABULARY, rng.choice((2, 3)))),
            ),
            AggregateQuery(
                index="aggregate", account=f"a{rng.randrange(ACCOUNTS)}",
                t_from=t_from, t_to=t_to,
            ),
            ValueRangeQuery(
                index="range", lo=low, hi=low + rng.randrange(1, 400)
            ),
        ):
            try:
                client.query(request)
            except ReproError:
                assert round_ >= QUERY_ROUNDS  # every replica's reply corrupted


def _run_tip_world() -> None:
    """``tip-follow``: every new tip reaches pushed subscribers, a
    poller and a cold bootstrap."""
    world = _World(11, ("history", "keyword"))
    for _ in range(3):
        world.block(world.transactions())
    for i in range(3):
        world.connect(f"sub{i}", hub="ci", subscribe=True)
    poller = world.connect("poller")
    world.bus.run_until_idle()
    for round_ in range(TIP_ROUNDS):
        world.hub.publish(world.block(world.transactions()))
        world.bus.run_until_idle()
        poller.sync()
        world.connect(f"cold{round_}")


@dataclasses.dataclass(frozen=True)
class Corpus:
    #: Everything ``wire.encode`` wrote, sorted.
    honest: tuple[bytes, ...]
    #: What ``wire.decode`` was handed that nobody encoded: payloads a
    #: fault injector corrupted in flight.
    corrupted: tuple[bytes, ...]


@pytest.fixture(scope="module")
def corpus() -> Corpus:
    written: set[bytes] = set()
    received: set[bytes] = set()
    encode, decode = wire.encode, wire.decode

    def spy_encode(obj):
        data = encode(obj)
        written.add(data)
        return data

    def spy_decode(data):
        received.add(bytes(data))
        return decode(data)

    patch = pytest.MonkeyPatch()
    patch.setattr(wire, "encode", spy_encode)
    patch.setattr(wire, "decode", spy_decode)
    try:
        with cost_model_disabled():
            _run_query_world()
            _run_tip_world()
        result = run_sim(SIM_SEED, SIM_EVENTS)
    finally:
        patch.undo()
    assert result.violation is None
    return Corpus(tuple(sorted(written)), tuple(sorted(received - written)))


# -- mutants ------------------------------------------------------------------

_TAGS = ("!b", "!t", "!l", "!d")
_LEAVES = (1, 1.0, "1", True, None)


def _class_paths(raw) -> set[str]:
    """Every ``!dc`` value in ``raw`` (hashable ones)."""
    found = set()
    stack = [raw]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            if isinstance(node.get("!dc"), str):
                found.add(node["!dc"])
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return found


def _message_type(raw) -> tuple:
    """What makes two payloads the same kind of message: the top-level
    shape and the set of classes inside."""
    top = sorted(raw) if isinstance(raw, dict) else type(raw).__name__
    return (str(top), tuple(sorted(_class_paths(raw))))


def _dump(raw) -> bytes:
    return json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()


def _mutants(raw):
    """Every one-edit structural mutant of ``raw`` (parsed JSON), as
    parsed JSON sharing every untouched subtree with ``raw``."""
    paths = []  # every node: a tuple of keys / indexes from the root

    def visit(node, path):
        paths.append(path)
        if isinstance(node, dict):
            for key in node:
                visit(node[key], path + (key,))
        elif isinstance(node, list):
            for index, item in enumerate(node):
                visit(item, path + (index,))

    visit(raw, ())

    def edited(path, value, node=raw):
        """``raw`` with the node at ``path`` replaced (the spine copied)."""
        if not path:
            return value
        clone = dict(node) if isinstance(node, dict) else list(node)
        clone[path[0]] = edited(path[1:], value, node[path[0]])
        return clone

    def at(path):
        node = raw
        for step in path:
            node = node[step]
        return node

    for path in paths:
        node = at(path)
        if isinstance(node, dict):
            for key in node:
                rest = {k: v for k, v in node.items() if k != key}
                yield edited(path, rest)  # drop a key
                yield edited(path, {**rest, key + "x": node[key]})  # rename it
                for tag in _TAGS:  # retag
                    if key in _TAGS and tag != key:
                        yield edited(path, {**rest, tag: node[key]})
            yield edited(path, {**node, "junk": {"any": [1, 2]}})  # add a key
            if "!b" not in node:
                yield edited(path, {**node, "!b": "00"})
            if isinstance(node.get("!dc"), str):
                module, _, qualname = node["!dc"].partition(":")
                for forged in (
                    node["!dc"] + "X",  # unknown class
                    "os:path",  # not a repro module
                    "builtins:dict",
                    "repro.net.wire:encode",  # repro, not a dataclass
                    "repro.errors:WireError",
                    f"repro.chain.builder:{module}.{qualname}",  # an alias
                    [node["!dc"]],
                ):
                    yield edited(path, {**node, "!dc": forged})
        elif isinstance(node, list):
            yield edited(path, "ab")  # array -> string
            yield edited(path, {"k": 1})  # array -> object
            yield edited(path, {"xy": 1, "zw": 2})
        elif isinstance(node, str) and path and path[-1] in ("!b", "!dc"):
            yield edited(path, [node])  # string body -> array
            yield edited(path, {"k": node})  # string body -> object
        else:
            for leaf in _LEAVES:
                if type(leaf) is not type(node):
                    yield edited(path, leaf)
            if type(node) in (int, float) and not isinstance(node, bool):
                yield edited(path, float(node) if type(node) is int else int(node))
                yield edited(path, str(node))


def _mutant_payloads(payload: bytes):
    raw = json.loads(payload)
    seen = {payload}
    cuts = (payload[: len(payload) * cut // 64] for cut in range(64))
    for data in (*map(_dump, _mutants(raw)), *cuts):  # truncation at 64 offsets
        if data not in seen:
            seen.add(data)
            yield data


# -- the comparison -----------------------------------------------------------

_REFUSED = object()


def _outcome(decode, data: bytes):
    """The decoded object, or ``_REFUSED``; anything but ``WireError``
    escapes and fails the test."""
    try:
        return decode(data)
    except WireError:
        return _REFUSED


@functools.lru_cache(maxsize=None)
def _is_alias(path: str) -> bool:
    """Whether the old walk resolves ``path`` to a class ``encode``
    would write under another path."""
    try:
        cls = wire_reference._resolve(path)
    except WireError:
        return False
    return path != f"{cls.__module__}:{cls.__qualname__}"


def _non_canonical(raw) -> set[str]:
    """The non-canonical classes the *old* walk meets in ``raw`` on the
    way to accepting it (it never looks anywhere else)."""
    found: set[str] = set()

    def walk(node) -> None:
        if not isinstance(node, dict):
            return
        tags = {"!b", "!t", "!l", "!d", "!dc"}.intersection(node)
        if len(tags) != 1:
            return
        (tag,) = tags
        body = node[tag]
        if tag == "!dc":
            if set(node) != {"!dc", "!f"}:
                found.add(FREIGHT)
            if isinstance(body, str) and _is_alias(body):
                found.add(ALIAS)
            fields = node.get("!f")
            for value in fields.values() if isinstance(fields, dict) else ():
                walk(value)
            return
        if len(node) != 1:
            found.add(SURPLUS_KEY)
        if tag == "!b":
            return
        pairs = tag == "!d" and isinstance(body, list)
        for array in body if pairs else [body]:  # what it iterates as one
            if isinstance(array, str):
                found.add(STRING_BODY)
            elif isinstance(array, dict):
                found.add(OBJECT_BODY)
        for item in body if isinstance(body, list) else ():
            for child in item if pairs and isinstance(item, list) else [item]:
                walk(child)

    walk(raw)
    return found


def _compare(data: bytes, refusals: Counter) -> None:
    old = _outcome(wire_reference.decode, data)
    new = _outcome(wire.decode, data)
    if old is _REFUSED:
        assert new is _REFUSED, f"only the new walk accepts {data[:200]!r}"
        return
    classes = _non_canonical(json.loads(data))
    if new is _REFUSED:
        assert len(classes) == 1, (
            f"the new walk alone refuses {data[:200]!r}: {sorted(classes)}"
        )
        refusals[classes.pop()] += 1
        return
    assert not classes, f"accepted although {sorted(classes)}: {data[:200]!r}"
    assert type(new) is type(old) and new == old
    assert wire.encode(new) == wire.encode(old) == wire_reference.encode(new)


def test_the_corpus_is_what_the_issue_asked_for(corpus):
    assert len(corpus.honest) >= 2_000
    assert len(corpus.corrupted) >= 50
    kinds = {_message_type(json.loads(data)) for data in corpus.honest}
    assert len(kinds) >= 20


def test_honest_payloads_round_trip_to_the_same_bytes(corpus):
    for data in corpus.honest:
        obj = wire.decode(data)
        assert wire.encode(obj) == wire_reference.encode(obj) == data


def test_the_emitter_table_holds_one_row_per_library_dataclass(
    corpus, fresh_emitters
):
    """Encoding the whole corpus from the fixed rows plans each class
    once: the table gains one row per ``repro.*`` dataclass the corpus
    holds, and ``dataclasses.fields`` ran once per row."""
    paths: set[str] = set()
    for data in corpus.honest:
        assert wire.encode(wire.decode(data)) == data
        paths |= _class_paths(json.loads(data))
    added = set(wire._EMITTERS) - fresh_emitters.fixed
    assert {f"{cls.__module__}:{cls.__qualname__}" for cls in added} == paths
    assert sorted(fresh_emitters.planned, key=id) == sorted(added, key=id)
    for cls in added:
        assert dataclasses.is_dataclass(cls) and cls.__module__.startswith("repro.")


def test_new_walk_agrees_with_the_old_one_on_corpus_and_mutants(corpus, monkeypatch):
    monkeypatch.setattr(wire, "_CLASSES", {})
    resolved = []
    resolve = wire._resolve
    monkeypatch.setattr(
        wire, "_resolve", lambda path: resolved.append(path) or resolve(path)
    )
    honest_paths: set[str] = set()
    for data in corpus.honest:
        wire.decode(data)
        honest_paths |= _class_paths(json.loads(data))
    # One import per distinct class path, however many objects name it.
    assert sorted(resolved) == sorted(honest_paths) == sorted(wire._CLASSES)

    refusals: Counter = Counter()
    for data in corpus.honest + corpus.corrupted:
        _compare(data, refusals)
    assert not refusals, "an honest or line-corrupted payload is non-canonical"

    representatives: dict[tuple, bytes] = {}
    for data in corpus.honest:  # sorted: the choice is deterministic
        kind = _message_type(json.loads(data))
        if len(data) < len(representatives.get(kind, data + b" ")):
            representatives[kind] = data
    mutants = 0
    for payload in representatives.values():
        for data in _mutant_payloads(payload):
            mutants += 1
            _compare(data, refusals)
    assert mutants >= 10_000
    assert dict(refusals) == PINNED_REFUSALS

    # The class map after all of that: the honest paths and nothing else
    # -- no forged, failed or alias path was kept -- each mapped to the
    # repro.* dataclass type encode writes that path for.
    assert set(wire._CLASSES) == honest_paths
    for path, cls in wire._CLASSES.items():
        assert isinstance(cls, type) and dataclasses.is_dataclass(cls)
        assert path == f"{cls.__module__}:{cls.__qualname__}"
        assert cls.__module__.startswith("repro.")
    assert set(resolved) - honest_paths, "no forged path reached _resolve"
