"""Malformed B+-tree proofs fail *typed*.

A prover chooses every integer inside a range / aggregate / insert proof.
Whatever it puts there — negative, too wide for its encoding, a float, a
string, ``None``, a bool — verification must answer ``False`` (and the
enclave-side replay must raise ``ProofError``), never leak an
``OverflowError`` or ``TypeError``: an escaping exception aborts a client
``query()`` that should have failed over to an honest replica.

It chooses the answer's *structure* as well — how many elements each
tuple has and what sits where a tuple or a proof node belongs — so the
same holds for every one-edit structural mutant, built through the wire
codec and by editing the decoded objects.
"""

import dataclasses
import json

import pytest

from repro.chain import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.chain.transaction import sign_transaction
from repro.core import (
    CertificateIssuer,
    ClientConfig,
    IssuerService,
    compute_expected_measurement,
    connect,
)
from repro.crypto import generate_keypair
from repro.errors import CertificateError, ProofError, QueryError, WireError
from repro.merkle import aggtree, mbtree
from repro.merkle.mpt import MPTProof
from repro.net import CircuitBreaker, MessageBus, QueryGateway, wire
from repro.query import verifier
from repro.query import (
    AggregateQuery,
    HistoryQuery,
    KeywordQuery,
    QueryService,
    ValueRangeQuery,
)
from repro.query.indexes import (
    AccountHistoryIndexSpec,
    BalanceAggregateIndexSpec,
    KeywordIndexSpec,
    ValueRangeIndexSpec,
    verify_aggregate_answer,
    verify_history_versions,
    verify_keyword_results,
    verify_value_range_answer,
)
from repro.query.provider import QueryServiceProvider
from repro.sgx.attestation import AttestationService
from tests.conftest import fresh_vm
from tests.merkle.test_mpt_engine import says_absent
from tests.proptest import mutate

BAD_INTEGERS = [-1, 2**64, 2**127, 1.5, "7", None, True]
BAD_IDS = ["-1", "2^64", "2^127", "1.5", "'7'", "None", "True"]

_TREE_MODULES = {mbtree.__name__, aggtree.__name__}
#: Bound to the client's own request before the tree is consulted.
_REQUEST_BOUND = {"lo", "hi"}


def _integer_sites(obj):
    """``(label, path)`` of every integer a B+-tree proof node carries
    under ``obj``; the label names the kind of field, not the instance."""
    for path, node in mutate.sites(obj):
        if type(node) is not int:
            continue
        chain = [mutate.get(obj, path[:k]) for k in range(len(path))]
        owners = [k for k, held in enumerate(chain) if dataclasses.is_dataclass(held)]
        # An answer's claimed result is an Aggregate too; only the ones a
        # proof node carries are proof fields.
        tree = [
            k for k in owners
            if type(chain[k]).__module__ in _TREE_MODULES
            and not isinstance(chain[k], aggtree.Aggregate)
        ]
        if tree and not any(path[k] in _REQUEST_BOUND for k in owners if k >= tree[0]):
            index = f"[{path[-1]}]" if owners[-1] < len(path) - 1 else ""
            yield f"{type(chain[owners[-1]]).__name__}.{path[owners[-1]]}{index}", path


def mutants(obj, bad):
    """``obj`` with the first integer of each kind replaced by ``bad``."""
    first = {}
    for label, path in _integer_sites(obj):
        first.setdefault(label, path)
    return {label: mutate.put(obj, path, bad, checked=True) for label, path in first.items()}


# -- a certified world whose trees are deep enough to have stubs -------------

ROUNDS = 14
FANOUT = 4


@pytest.fixture(scope="module")
def world():
    user = generate_keypair(b"malformed-user")
    builder = ChainBuilder(difficulty_bits=4, network="malformed")
    nonce = [0]

    def tx(contract, method, *args):
        signed = sign_transaction(user.private, nonce[0], contract, method, tuple(args))
        nonce[0] += 1
        return signed

    builder.add_block(
        [tx("smallbank", "create", f"a{n}", str(100 * n + 7), "5") for n in range(1, 7)]
    )
    for round_ in range(ROUNDS):
        builder.add_block([
            tx("smallbank", "deposit_checking", "a1", "50"),
            tx("kvstore", "put", "acct1", f"v{round_}"),
        ])

    specs = [
        AccountHistoryIndexSpec(name="history", fanout=FANOUT),
        KeywordIndexSpec(name="keyword", fanout=FANOUT),
        BalanceAggregateIndexSpec(name="aggregate", fanout=FANOUT),
        ValueRangeIndexSpec(name="range", fanout=FANOUT),
    ]
    genesis, state = make_genesis(network="malformed")
    ias = AttestationService(seed=b"malformed-ias")
    issuer = CertificateIssuer(
        genesis, state, fresh_vm(), builder.pow,
        index_specs=specs, ias=ias, key_seed=b"malformed-enclave",
    )
    sp_genesis, sp_state = make_genesis(network="malformed")
    provider = QueryServiceProvider(sp_genesis, sp_state, fresh_vm(), builder.pow, specs)
    for block in builder.blocks[1:]:
        issuer.process_block(block)
        provider.ingest_block(block)
    measurement = compute_expected_measurement(
        genesis.header.header_hash(), ias.public_key, fresh_vm(),
        builder.pow.difficulty_bits, {spec.name: spec for spec in specs},
    )
    height = builder.height
    requests = {
        "history": HistoryQuery(index="history", account="acct1", t_from=5, t_to=8),
        "keyword": KeywordQuery(index="keyword", keywords=("acct1", "v3")),
        "aggregate": AggregateQuery(index="aggregate", account="a1", t_from=3, t_to=height - 2),
        "range": ValueRangeQuery(index="range", lo=200, hi=320),
    }
    return {
        "issuer": issuer, "provider": provider, "ias": ias,
        "measurement": measurement, "requests": requests,
    }


def make_client(world, providers):
    """A bootstrapped remote client over a clean bus; ``providers`` maps
    service names to the provider each replica serves from, fronted by a
    gateway that dispatches round robin from the first replica."""
    bus = MessageBus(default_latency_ms=20.0)
    IssuerService(bus, "ci", world["issuer"])
    for name, provider in providers.items():
        QueryService(bus, name, provider)
    gateway = QueryGateway(bus, "gw", list(providers))
    client = connect(ClientConfig(
        measurement=world["measurement"], ias_public_key=world["ias"].public_key,
        bus=bus, name="client", issuers=("ci",), gateway=gateway,
    ))
    client.sync()
    return client


@pytest.fixture(scope="module")
def client(world):
    return make_client(world, {"sp": world["provider"]})


_MB_SITES = {"SubtreeStub.min_key", "SubtreeStub.max_key", "LeafOpening.entries[0]"}
#: The integer fields each answer family's tree proofs carry.
EXPECTED_SITES = {
    "history": _MB_SITES,
    "keyword": _MB_SITES,
    "range": _MB_SITES,
    "aggregate": {
        "AggStub.min_key", "AggStub.max_key",
        "Aggregate.count", "Aggregate.total", "Aggregate.minimum", "Aggregate.maximum",
        "AggLeafOpening.entries[0]", "AggLeafOpening.entries[1]",
    },
}


@pytest.mark.parametrize("bad", BAD_INTEGERS, ids=BAD_IDS)
@pytest.mark.parametrize("family", sorted(EXPECTED_SITES))
def test_verify_answer_rejects_malformed_integers(world, client, family, bad):
    request = world["requests"][family]
    answer = world["provider"].execute(request)
    assert client.verify_answer(request, answer)
    forged = mutants(answer, bad)
    assert set(forged) == EXPECTED_SITES[family]
    for label, mutant in forged.items():
        assert client.verify_answer(request, mutant) is False, label


def _grown(tree, value_of):
    for key in range(0, 400, 10):
        tree.insert(key, value_of(key))
    return tree


@pytest.mark.parametrize("bad", BAD_INTEGERS, ids=BAD_IDS)
@pytest.mark.parametrize(
    "module, tree, value, expected",
    [
        (
            mbtree, _grown(mbtree.MerkleBTree(fanout=FANOUT), lambda k: b"v%d" % k), b"new",
            {"MBInsertProof.key", "MBInsertProof.fanout", "OpenedInternal.taken",
             "SubtreeStub.min_key", "SubtreeStub.max_key", "OpenedLeaf.entries[0]"},
        ),
        (
            aggtree, _grown(aggtree.AggregateMBTree(fanout=FANOUT), lambda k: k + 3), 12,
            {"AggInsertProof.key", "AggInsertProof.fanout", "AggOpenedInternal.taken",
             "AggStub.min_key", "AggStub.max_key",
             "Aggregate.count", "Aggregate.total", "Aggregate.minimum", "Aggregate.maximum",
             "AggOpenedLeaf.entries[0]", "AggOpenedLeaf.entries[1]"},
        ),
    ],
    ids=["mbtree", "aggtree"],
)
def test_apply_insert_rejects_malformed_integers(module, tree, value, expected, bad):
    key = 205
    proof = tree.prove_insert(key)
    assert module.apply_insert(tree.root, key, value, proof) != tree.root
    forged = mutants(proof, bad)
    assert set(forged) == expected
    for label, mutant in forged.items():
        with pytest.raises(ProofError):
            module.apply_insert(tree.root, key, value, mutant)
            pytest.fail(f"{label}={bad!r} was replayed")


@pytest.mark.parametrize(
    "family, label, bad",
    [("history", "SubtreeStub.min_key", -1), ("aggregate", "Aggregate.count", 2**70)],
    ids=["stub-key", "aggregate-count"],
)
def test_query_fails_over_past_a_replica_serving_a_malformed_proof(
    world, family, label, bad
):
    """Liars beside the one honest replica in round-robin turn: each lie
    costs one integrity failure and a strike on the replica that gave
    it, ``FAILURE_TRIP`` strikes eject it, and every query still returns
    the verified answer.  Three queries (the answer cache cleared before
    each) bring the turn round to each liar twice."""

    class LyingProvider:
        def execute(self, request):
            return mutants(world["provider"].execute(request), bad)[label]

    request = world["requests"][family]
    fronted = make_client(
        world,
        {"liar1": LyingProvider(), "honest": world["provider"], "liar2": LyingProvider()},
    )
    expected = world["provider"].execute(request)
    for _ in range(3):
        fronted.cache.clear()
        assert fronted.query(request) == expected
    trip = CircuitBreaker.FAILURE_TRIP
    assert fronted.integrity_failures == 2 * trip
    assert fronted.gateway.healthy_replicas() == ["honest"]
    assert [s.failures for s in fronted.gateway.replicas.values()] == [trip, 0, trip]
    assert fronted.gateway.failovers == 2 * trip


# -- structure: arity and shape are the prover's choice too --------------------


def _decoded(raw, plan):
    """``(path, label) -> decoded mutant`` of a wire tree's edits the
    codec accepts — they are what reaches ``verify``."""
    found = {}
    for path, label, mutated in mutate.mutants(raw, plan):
        try:
            found[(label, *path)] = wire.decode(json.dumps(mutated).encode())
        except WireError:
            pass
    return found


def wire_mutants(answer):
    """``answer`` as a peer could re-encode it: each JSON array in turn
    one element shorter, and one element longer."""
    return _decoded(
        json.loads(wire.encode(answer)),
        lambda path, node: (("shorter", {"at": (-1,)}), "longer") if type(node) is list else (),
    )


def object_mutants(answer):
    """``answer`` with each tuple in turn replaced by an int, by
    ``None``, by itself one element shorter / longer, and by tuples whose
    items do not sort or unpack — each one the class itself accepts."""
    shapes = (
        ("palette", {"values": (7, None, (None, "x"))}),
        ("shorter", {"at": (-1,)}), "longer", ("longer", {"extra": None}),
    )
    return {
        (label, *path): mutant
        for path, label, mutant in mutate.mutants(
            answer, lambda path, node: shapes if type(node) is tuple else (), checked=True
        )
    }


@pytest.mark.parametrize("build", [wire_mutants, object_mutants])
@pytest.mark.parametrize("family", sorted(EXPECTED_SITES))
def test_verify_answer_rejects_every_one_edit_structural_mutant(
    world, client, family, build
):
    """No mutant verifies, and none escapes as an exception: before the
    boundary in ``query.verifier.verify`` a third of the wire-reachable
    ones left ``verify_answer`` as ValueError / TypeError / AttributeError."""
    request = world["requests"][family]
    answer = world["provider"].execute(request)
    assert client.verify_answer(request, answer)
    forged = {label: m for label, m in build(answer).items() if m != answer}
    assert len(forged) >= 20
    for label, mutant in forged.items():
        assert client.verify_answer(request, mutant) is False, label


def test_a_missing_certified_root_still_raises(world, client):
    """The boundary starts after the root is resolved: not knowing a
    root is the client's problem, never a verdict on the answer."""
    request = dataclasses.replace(world["requests"]["history"], index="no-such-index")
    answer = dataclasses.replace(
        world["provider"].execute(world["requests"]["history"]), request=request
    )
    with pytest.raises(QueryError):
        verifier.verify(request, answer, {})
    with pytest.raises(CertificateError):
        client.verify_answer(request, answer)


@pytest.mark.parametrize("family", sorted(EXPECTED_SITES))
def test_query_fails_over_past_a_replica_serving_a_malformed_structure(world, family):
    """A structural lie is a strike like any other forgery, not an
    exception out of ``query()``."""
    request = world["requests"][family]
    honest = world["provider"].execute(request)
    root = world["provider"].index_root(request.index)
    structure_check = {  # what verify() runs inside its boundary
        "history": verify_history_versions, "keyword": verify_keyword_results,
        "aggregate": verify_aggregate_answer, "range": verify_value_range_answer,
    }[family]

    def trips(mutant):
        try:
            structure_check(root, mutant.payload)
        except (TypeError, ValueError, AttributeError):
            return True
        return False

    label, lie = next(
        (label, mutant) for label, mutant in wire_mutants(honest).items()
        if trips(mutant)
    )

    class LyingProvider:
        def execute(self, request):
            return lie

    fronted = make_client(world, {"liar": LyingProvider(), "honest": world["provider"]})
    trip = CircuitBreaker.FAILURE_TRIP
    for _ in range(trip):  # round robin turns to the liar once a query
        fronted.cache.clear()
        assert fronted.query(request) == honest, label
    assert fronted.integrity_failures == trip
    assert fronted.gateway.healthy_replicas() == ["honest"]


def test_root_stub_cannot_vouch_for_its_own_summary():
    """Nothing above the root authenticates a key range or an aggregate:
    a proof that prunes the *whole tree* into one stub proves nothing."""
    plain = _grown(mbtree.MerkleBTree(fanout=FANOUT), lambda k: b"v%d" % k)
    hidden = mbtree.MBRangeProof(
        lo=100, hi=200, root_opening=mbtree.SubtreeStub(0, 0, plain.root)
    )
    assert not mbtree.verify_range(plain.root, [], hidden)
    series = _grown(aggtree.AggregateMBTree(fanout=FANOUT), lambda k: k + 3)
    invented = aggtree.Aggregate(count=1, total=10**9, minimum=10**9, maximum=10**9)
    claimed = aggtree.AggRangeProof(
        lo=100, hi=200, root_opening=aggtree.AggStub(100, 200, invented, series.root)
    )
    with pytest.raises(ProofError):
        aggtree.open_aggregate(series.root, claimed)


# -- forged absence: the upper level (an MPT) of every per-key index -----------
#
# Before PR 20 ``verify_mpt`` compared prover-chosen nibble paths with
# ``==`` against tuples but hashed them through ``bytes(...)``: a *list*
# equals no tuple and hashes the same, so the leaf of a key that is in the
# trie, its path retagged ``!l`` on the wire, proved that key absent.  Two
# edits — retag the path *and* claim nothing — which the one-edit mutants
# above could not reach.


def claims(payload):
    """What an answer asserts about the chain, proofs aside, with every
    sequence frozen to a tuple (a retagged claim is the same claim)."""
    def freeze(value):
        return tuple(map(freeze, value)) if isinstance(value, (list, tuple)) else value

    fields = {
        "HistoryAnswer": ("versions",), "LineageAnswer": ("versions",),
        "KeywordAnswer": ("results",), "AggregateAnswer": ("aggregate",),
        "ValueRangeAnswer": ("matches",),
    }[type(payload).__name__]
    return tuple(freeze(getattr(payload, name)) for name in fields)


_PROOF_TYPES = (mbtree.MBRangeProof, aggtree.AggRangeProof, MPTProof)


def _opened(proof):
    """The ``(key, value)`` entries an MB-tree range proof opens."""
    return tuple(
        (key, value) for _, node in mutate.sites(proof)
        if isinstance(node, mbtree.LeafOpening)
        for key, value, _ in node.entries if value is not None
    )


def _outside_proofs(payload):
    """Every node ``payload`` carries outside its proof objects."""
    return [
        node for path, node in mutate.sites(payload)
        if not any(
            isinstance(mutate.get(payload, path[:k]), _PROOF_TYPES)
            for k in range(len(path) + 1)
        )
    ]


@pytest.mark.parametrize("family", sorted(EXPECTED_SITES))
def test_an_answer_carries_each_fact_once(world, family):
    """The claims are read from the proofs, never shipped beside them:
    each value a proof opens occurs in the encoding once per opening, and
    nothing outside the proofs is what the verifier recomputes from them
    (a claim, the opened entries or postings, a presence flag)."""
    payload = world["provider"].execute(world["requests"][family]).payload
    said = claims(payload)
    assert all(said)  # at least one result
    proofs = [node for _, node in mutate.sites(payload) if type(node) is mbtree.MBRangeProof]
    opened = [value for proof in proofs for _, value in _opened(proof)]
    assert opened or family == "aggregate"
    tree = json.loads(wire.encode(payload))
    encoded = [node["!b"] for _, node in mutate.sites(tree) if type(node) is dict and "!b" in node]
    for value in set(opened):
        assert encoded.count(value.hex()) == opened.count(value), value
    recomputed = list(said)
    for entries in map(_opened, proofs):
        recomputed += [entries, tuple(key for key, _ in entries)]
    outside = _outside_proofs(payload)
    assert not any(type(node) is bool for node in outside)
    for fact in recomputed:
        assert not fact or fact not in outside, fact


def retag_mutants(answer):
    """``answer`` as a peer could re-encode it: each tagged JSON array in
    turn with its ``!t`` turned ``!l`` (or back)."""
    return _decoded(
        json.loads(wire.encode(answer)),
        lambda path, node: ("retag",) if type(node) is dict and set(node) in ({"!t"}, {"!l"}) else (),
    )


@pytest.mark.parametrize("family", sorted(EXPECTED_SITES))
def test_a_retagged_answer_verifies_only_with_the_honest_claims(world, client, family):
    request = world["requests"][family]
    honest = world["provider"].execute(request)
    mutants_ = retag_mutants(honest)
    assert len(mutants_) >= 10
    for path, mutant in mutants_.items():
        verdict = client.verify_answer(request, mutant)  # never an exception
        assert verdict is False or claims(mutant.payload) == claims(honest.payload), path


def forged_absences(world):
    """``family -> (request, forged answer)``: each claims there is
    nothing to report about a key that has entries."""
    replace = dataclasses.replace
    forged = {}
    for family in ("history", "aggregate"):
        request = world["requests"][family]
        honest = world["provider"].execute(request)
        assert honest.payload.lower_root is not None
        forged[family] = request, replace(honest, payload=replace(
            honest.payload, lower_root=None, range_proof=None,
            upper_proof=says_absent(honest.payload.upper_proof),
        ))
    request = KeywordQuery(index="keyword", keywords=("acct1",))
    honest = world["provider"].execute(request)
    assert honest.payload.results
    ((keyword, _root, proof),) = honest.payload.dictionary_proofs
    forged["keyword"] = request, replace(honest, payload=replace(
        honest.payload, pivot_proof=None, point_proofs=(),
        dictionary_proofs=((keyword, None, says_absent(proof)),),
    ))
    return forged


@pytest.mark.parametrize("family", ["history", "aggregate", "keyword"])
def test_a_forged_absence_does_not_verify(world, client, family):
    """Parent commit: all three verified, decoded or through the wire."""
    request, forged = forged_absences(world)[family]
    assert client.verify_answer(request, world["provider"].execute(request))
    assert client.verify_answer(request, forged) is False
    assert client.verify_answer(request, wire.decode(wire.encode(forged))) is False


def test_a_forged_absence_does_not_verify_against_the_lineagechain_baseline(world):
    """``verify_lineage_answer`` reads the same upper proof."""
    from repro.query.lineagechain import LineageChainIndex, verify_lineage_answer

    index = LineageChainIndex(AccountHistoryIndexSpec(name="history", fanout=FANOUT))
    for certified in world["issuer"].certified:
        index.ingest_block(certified.block, certified.write_set)
    honest = index.query_history("acct1", 6, 7)
    assert honest.versions and verify_lineage_answer(index.root, honest)
    forged = dataclasses.replace(
        honest, versions=(), lower_root=None, window_proof=None,
        upper_proof=says_absent(honest.upper_proof),
    )
    assert not verify_lineage_answer(index.root, forged)
    assert not verify_lineage_answer(index.root, wire.decode(wire.encode(forged)))


@pytest.mark.parametrize("family", ["history", "aggregate", "keyword"])
def test_query_fails_over_past_a_replica_serving_a_forged_absence(world, family):
    """The liar is struck and the client is answered by the honest
    replica — the forged answer is never admitted to the cache."""
    request, lie = forged_absences(world)[family]
    honest = world["provider"].execute(request)

    class LyingProvider:
        def execute(self, request):
            return lie

    fronted = make_client(world, {"liar": LyingProvider(), "honest": world["provider"]})
    trip = CircuitBreaker.FAILURE_TRIP
    for _ in range(trip):  # round robin turns to the liar once a query
        fronted.cache.clear()
        assert fronted.query(request) == honest
    assert fronted.integrity_failures == trip
    assert fronted.gateway.healthy_replicas() == ["honest"]
    assert [s.failures for s in fronted.gateway.replicas.values()] == [trip, 0]
    assert len(fronted.cache) == 1
    assert fronted.query(request) == honest  # a hit on the honest answer
    assert (fronted.cache.hits, fronted.integrity_failures) == (1, trip)
