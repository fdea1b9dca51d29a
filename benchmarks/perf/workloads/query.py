"""query-cold and query-hot: the verifiable read path, cache off and on."""

from __future__ import annotations

import random
from itertools import accumulate
from statistics import fmean, median

from repro.core import IssuerService, connect
from repro.net import MessageBus, QueryGateway, SubscriptionHub, wire
from repro.query import (
    AggregateQuery,
    HistoryQuery,
    KeywordQuery,
    QueryService,
    QueryServiceProvider,
    ValueRangeQuery,
)
from repro.bench.harness import fresh_vm

from clock import CheckFailed, Clock
from worlds import ACCOUNTS, Deployment
from workloads.base import Workload

FAMILIES = ("history", "keyword", "aggregate", "range")
BLOCKS = 16
REPLICAS = ("sp1", "sp2")
SERVICE_TIME_MS = 2.0
LINK_LATENCY_MS = 5.0
CACHE_CAPACITY = 128
VOCABULARY = [f"word{i}" for i in range(48)]
#: Every this-many-th operation is checked against the oracle and, in
#: the traced run, replayed step by step beside the real one.
ORACLE_EVERY = 63
REPLAY_EVERY = 11


class QueryWorkload(Workload):
    """The world both query workloads share: a certified chain carrying
    all four indexes, two ``QueryService`` replicas behind a gateway, one
    gateway client with a verified-answer cache, and an oracle provider
    that never touches the network."""

    overhead_s = 14.0
    tail_pct = 99
    merkle_sizes = (512, ACCOUNTS, BLOCKS)
    #: Whether the client follows the tip over the push stream.
    subscribe = False

    def setup(self, clock: Clock) -> None:
        timed = clock.timed
        world = Deployment(clock, self.seed, FAMILIES)
        self.world = world
        self.rng = random.Random(self.seed)
        self.provider = self._provider()
        self.oracle = self._provider()
        world.setup_block(
            world.generator.smallbank_setup_txs(), self.provider, self.oracle
        )
        for _ in range(BLOCKS):
            world.setup_block(self._transactions(), self.provider, self.oracle)
        self.bus = MessageBus(default_latency_ms=LINK_LATENCY_MS)
        service = IssuerService(self.bus, "ci", world.issuer)
        self.hub = SubscriptionHub.embedded(service)
        for name in REPLICAS:
            QueryService(
                self.bus, name, self.provider, service_time_ms=SERVICE_TIME_MS
            )
        self.gateway = QueryGateway(self.bus, "gateway", list(REPLICAS))
        extra = {"hub": "ci", "subscribe": True} if self.subscribe else {}
        self.client = timed(
            "setup", connect,
            world.client_config(
                bus=self.bus, name="reader", issuers=("ci",),
                gateway=self.gateway, cache_capacity=CACHE_CAPACITY,
                bootstrap=True, **extra,
            ),
        )
        timed("setup", self.bus.run_until_idle)
        self._count = 0
        self._hits: list[bool] = []
        #: Per replayed miss: (position, raw seconds) of the operation
        #: and of each of its four replayed steps.
        self._replays: list[list[tuple[int, float]]] = []
        self._answer_bytes: list[int] = []
        self._proof_bytes: list[int] = []

    def _provider(self) -> QueryServiceProvider:
        genesis, state = self.world.genesis()
        return QueryServiceProvider(
            genesis, state, fresh_vm(), self.world.builder.pow, self.world.specs
        )

    def _transactions(self):
        """One history update, one keyword document, two SmallBank
        payments: every block moves all four indexes."""
        generator = self.world.generator
        return [
            generator.history_update_tx(self.rng.randrange(ACCOUNTS)),
            generator.keyword_tx(VOCABULARY),
            generator.smallbank_tx(),
            generator.smallbank_tx(),
        ]

    def _request(self, family: str):
        rng = self.rng
        if family == "keyword":
            return KeywordQuery(
                index="keyword",
                keywords=tuple(rng.sample(VOCABULARY, rng.choice((2, 3)))),
            )
        if family == "range":
            low = rng.randrange(0, 2000)
            return ValueRangeQuery(
                index="range", lo=low, hi=low + rng.randrange(1, 400)
            )
        height = self.world.height
        t_from = rng.randrange(1, height + 1)
        t_to = rng.randrange(t_from, height + 1)
        if family == "history":
            return HistoryQuery(
                index="history", account=f"acct{rng.randrange(ACCOUNTS)}",
                t_from=t_from, t_to=t_to,
            )
        return AggregateQuery(
            index="aggregate", account=f"a{rng.randrange(ACCOUNTS)}",
            t_from=t_from, t_to=t_to,
        )

    # -- one operation -------------------------------------------------------

    def _query(self, clock: Clock, request) -> None:
        family = request.index
        self._count += 1
        hits_before = self.client.cache.hits
        answer = clock.op(family, self.client.query, request)
        if clock.tracing:
            hit = self.client.cache.hits > hits_before
            self._hits.append(hit)
            if self._count % REPLAY_EVERY == 0 and not hit:
                self._replay(clock, request)
        if self._count % ORACLE_EVERY == 0 and answer != self.oracle.execute(request):
            raise CheckFailed(f"answer to {request} differs from the oracle's")

    def _replay(self, clock: Clock, request) -> None:
        """The public steps one cache miss is made of, each in its own
        span, run beside the real operation (whose time they explain)."""
        family = request.index
        intervals = [(clock.position, clock.last_raw_s)]

        def step(name: str, fn, *args):
            result = clock.timed(name, fn, *args)
            intervals.append((clock.position, clock.last_raw_s))
            return result

        answer = step(f"query.provider.execute.{family}", self.provider.execute, request)
        encoded = step("net.wire.answer_encode", wire.encode, answer)
        step("net.wire.answer_decode", wire.decode, encoded)
        if not step(f"query.verifier.verify.{family}", self.client.verify_answer, request, answer):
            raise CheckFailed(f"replayed answer to {request} did not verify")
        self._replays.append(intervals)
        self._answer_bytes.append(len(encoded))
        self._proof_bytes.append(answer.proof_size_bytes())

    def advance_tip(self, clock: Clock) -> None:
        """Move the world one block forward (not an operation): mine,
        certify, ingest, publish, and let the push reach the client."""
        world = self.world
        block = world.mine(self._transactions())
        certified = world.issuer.process_block(block)
        if clock.tracing:
            clock.timed("query.provider.ingest_block", self.provider.ingest_block, block)
        else:
            self.provider.ingest_block(block)
        self.oracle.ingest_block(block)
        self.hub.publish(certified)
        self.bus.run_until_idle()

    # -- outputs -------------------------------------------------------------

    def check(self, clock: Clock) -> dict:
        if self.client.latest_header.height != self.world.height:
            raise CheckFailed("the reader is not at the final tip")
        self._checker = self.world.checker()
        return {"final_height": self.world.height, "cache_hits": self.client.cache.hits}

    def virtual_ms(self) -> float:
        return self.bus.clock_ms

    def client_storage_bytes(self) -> int:
        return max(self.client.storage_bytes(), self._checker.storage_bytes())

    def layer_metrics(self, clock: Clock, ops: int) -> dict[str, float]:
        mean = clock.normalised_ms_mean
        metrics = {
            "net.wire.answer_encode_ms": mean("net.wire.answer_encode"),
            "net.wire.answer_decode_ms": mean("net.wire.answer_decode"),
            "net.wire.answer_bytes_p50": median(self._answer_bytes),
            "query.verifier.proof_bytes_mean":
                fmean(self._proof_bytes),
            "query.provider.ingest_block_ms": mean("query.provider.ingest_block"),
        }
        for family in FAMILIES:
            metrics[f"query.provider.execute_ms.{family}"] = mean(
                f"query.provider.execute.{family}"
            )
            metrics[f"query.verifier.verify_ms.{family}"] = mean(
                f"query.verifier.verify.{family}"
            )
        # What a miss costs beyond its four replayed steps: RPC framing,
        # the gateway's routing, bus delivery, the cache's bookkeeping.
        scale = clock.yard.scale
        unexplained_s = [
            operation[1] * scale(operation[0])
            - sum(raw * scale(position) for position, raw in steps)
            for operation, *steps in self._replays
        ]
        metrics["net.hop_overhead_ms"] = fmean(unexplained_s) * 1000.0
        hit_us = [
            normalised * 1e6
            for (_k, _raw, normalised, _c), hit in zip(clock.op_table(), self._hits)
            if hit
        ]
        metrics["query.answercache.hit_us"] = fmean(hit_us) if hit_us else 0.0
        return metrics


class QueryCold(QueryWorkload):
    name = "query-cold"
    ops_per_round = 64
    full_rounds = 264

    def round(self, clock: Clock, index: int) -> None:
        for position in range(self.ops_per_round):
            family = FAMILIES[position % len(FAMILIES)]
            self._query(clock, self._request(family))


class QueryHot(QueryWorkload):
    name = "query-hot"
    #: Hits are three quarters of the operations, so p90 sits in the
    #: middle of the miss path; p99 sits among the few keyword misses and
    #: moved 13 % between seeds.
    tail_pct = 90
    ops_per_round = 256
    full_rounds = 176
    subscribe = True
    #: Distinct requests: four times what the cache holds.
    POOL = 4 * CACHE_CAPACITY
    ZIPF_EXPONENT = 1.1
    #: Rounds between tip advances (2,048 requests).
    ADVANCE_EVERY = 8

    def setup(self, clock: Clock) -> None:
        super().setup(clock)
        self.pool = [
            self._request(FAMILIES[i % len(FAMILIES)]) for i in range(self.POOL)
        ]
        self.rng.shuffle(self.pool)
        self.cumulative = list(accumulate(
            1.0 / rank ** self.ZIPF_EXPONENT for rank in range(1, self.POOL + 1)
        ))

    def round(self, clock: Clock, index: int) -> None:
        if index and index % self.ADVANCE_EVERY == 0:
            self.advance_tip(clock)
        draws = self.rng.choices(
            self.pool, cum_weights=self.cumulative, k=self.ops_per_round
        )
        for request in draws:
            self._query(clock, request)
