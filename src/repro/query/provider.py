"""The Query Service Provider (SP) of Fig. 2.

An SP is an untrusted full node that materializes authenticated indexes
over the chain and serves verifiable queries.  It validates and ingests
every block (recomputing write sets itself), keeps its indexes in the
certified shape, and answers queries with integrity proofs that clients
check against CI-certified index roots.

Queries go through one typed entry point — :meth:`execute` with a
:class:`repro.query.api.QueryRequest` — which is also exactly what the
networked :class:`QueryService` serves over RPC.  The per-type
``query_*`` wrappers that predated the typed API were removed in PR 5;
only the LineageChain baseline keeps a dedicated method (it is a
benchmark comparison, not part of the query surface).
"""

from __future__ import annotations

from repro import obs
from repro.chain.block import Block
from repro.chain.consensus import ProofOfWork
from repro.chain.node import FullNode
from repro.chain.state import StateStore
from repro.chain.vm import VM
from repro.errors import QueryError
from repro.query.api import FAMILY_OF_REQUEST, QueryAnswer, QueryRequest
from repro.query.indexes import AuthenticatedIndexSpec, TwoLevelHistoryIndex
from repro.query.lineagechain import LineageChainIndex


class QueryServiceProvider:
    """Maintains authenticated indexes and processes verifiable queries."""

    def __init__(
        self,
        genesis: Block,
        genesis_state: StateStore,
        vm: VM,
        pow_engine: ProofOfWork,
        index_specs: list[AuthenticatedIndexSpec],
        *,
        with_lineagechain_baseline: bool = False,
    ) -> None:
        from repro.core.issuer import make_maintained_index

        self.node = FullNode(genesis, genesis_state, vm, pow_engine)
        self.indexes = {
            spec.name: make_maintained_index(spec) for spec in index_specs
        }
        #: Total typed queries actually processed.  The sim's shed
        #: invariant compares this against the serving tier's handler
        #: invocations to prove shed requests did zero provider work.
        self.executes = 0
        #: Fixed at construction: one per two-level history index.
        self.baselines = {
            spec.name: LineageChainIndex(spec)
            for spec in index_specs
            if with_lineagechain_baseline
            and isinstance(self.indexes[spec.name], TwoLevelHistoryIndex)
        }

    def ingest_block(self, block: Block) -> None:
        """Validate ``block``, update every index, and commit it."""
        result = self.node.validate_block(block)
        for index in self.indexes.values():
            index.ingest_block(block, result.write_set)
        for baseline in self.baselines.values():
            baseline.ingest_block(block, result.write_set)
        self.node.commit(block, result.write_set)

    def index_root(self, name: str) -> bytes:
        return self._index(name).root

    # -- query processing (unified typed API) ------------------------------

    def execute(self, request: QueryRequest) -> QueryAnswer:
        """Process one typed query; the single dispatch point.

        Raises :class:`QueryError` for an unknown index, an index of
        the wrong family, or an unrecognized request type.
        """
        self.executes += 1
        with obs.trace_span("query.execute"):
            answer = self._execute(request)
        if obs.enabled():
            obs.inc(f"query.requests.{type(request).__name__}")
            obs.observe(
                "query.proof_bytes",
                answer.proof_size_bytes(),
                boundaries=obs.SIZE_BYTES_BUCKETS,
            )
        return answer

    def _execute(self, request: QueryRequest) -> QueryAnswer:
        index = self._index(request.index)
        family = FAMILY_OF_REQUEST.get(type(request))
        if family is None:
            raise QueryError(
                f"unrecognized query request type {type(request).__name__}"
            )
        if type(index) is not family.index:
            raise QueryError(
                f"index {request.index!r} does not support {family.name} queries"
            )
        payload = family.run(index, request)
        return QueryAnswer(request=request, payload=payload)

    # -- internals -----------------------------------------------------------

    def _index(self, name: str):
        index = self.indexes.get(name)
        if index is None:
            raise QueryError(f"unknown index {name!r}")
        return index


class QueryService:
    """The SP's networked face: serves :meth:`execute` over RPC.

    Register under a service name on the bus; superlight clients reach
    it through :class:`repro.core.superlight.RemoteSuperlightClient`,
    either directly or via a :class:`repro.net.gateway.QueryGateway`
    fronting a fleet of these.  ``service_time_ms`` charges the
    ``execute`` path through the :class:`~repro.net.rpc.RpcServer`
    busy-worker model so replica count shows up in fleet throughput
    (root lookups stay free); the ``query.execute.*``
    crashpoints let ``tests/fault/test_fleet_chaos.py`` kill a replica
    mid-query (a :class:`~repro.net.supervisor.ServiceSupervisor`
    restarts it).
    """

    def __init__(
        self,
        bus,
        name: str,
        provider: QueryServiceProvider,
        *,
        service_time_ms: float = 0.0,
        admission=None,
    ) -> None:
        from repro.net.rpc import RpcServer

        self.provider = provider
        # ``admission`` (an AdmissionPolicy) arms CoDel-style load
        # shedding on the busy worker: excess queries are refused with
        # OVERLOADED + retry_after before they ever reach the provider.
        self.server = RpcServer(bus, name, admission=admission)
        # Only query execution occupies the modeled worker; root
        # lookups (used by gateway switch verification) are answered
        # immediately, like any metadata read.
        self.server.register(
            "execute", self._execute, service_time_ms=service_time_ms
        )
        self.server.register("index_root", self._index_root)

    def _execute(self, request: object) -> QueryAnswer:
        from repro.fault.crashpoints import crashpoint

        if not isinstance(request, QueryRequest):
            raise QueryError(
                f"malformed query request of type {type(request).__name__}"
            )
        crashpoint("query.execute.pre")
        answer = self.provider.execute(request)
        crashpoint("query.execute.post")
        return answer

    def _index_root(self, name: object) -> bytes:
        if not isinstance(name, str):
            raise QueryError("index_root takes the index name")
        return self.provider.index_root(name)
