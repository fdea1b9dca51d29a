"""The superlight client (Alg. 3) — DCert's headline artifact.

Keeps exactly one block header and one certificate, whatever the chain
length: validating a new tip is a constant amount of work (one report
check — cached per enclave —, one signature verification, one digest
comparison, and the chain-selection rule), and storage is the size of
one header plus one certificate (the paper's 2.97 KB).

The same client verifies query results: it tracks the latest certified
root of each authenticated index (via index certificates) and checks
the SP's proofs against those roots.

The module is a pure core plus two shells.  The core is
:class:`ClientState` (what a client holds) and :func:`adopt_bundle`
(the only function that builds a new one): it verifies *every*
certificate in a tip bundle and only then returns the next state — no
I/O, no clock, no metrics.  :class:`SuperlightClient` is the local
shell around it (report memo, ``on_tip`` callbacks, metrics, the wallet
file); :class:`RemoteSuperlightClient` is the network shell (polling,
the push stream, verified queries).  Every way a tip can reach a client
— ``validate_chain``, ``validate_index_certificate``, a local issuer
subscription, ``sync``, a pushed announcement, ``resync``, a restored
wallet — is one :meth:`SuperlightClient.adopt` call on that core.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro import obs
from repro.chain.block import BlockHeader
from repro.core.certificate import Certificate, VerifiedMemo, verify_certificate
from repro.core.digest import block_digest, index_digest
from repro.core.enclave_program import DCertEnclaveProgram
from repro.core.issuer import CertifiedTip, unhook
from repro.crypto import PublicKey
from repro.crypto.hashing import Digest
from repro.errors import (
    CertificateError,
    DeadlineExceededError,
    NetworkError,
    OverloadedError,
    ReproError,
    ResponseIntegrityError,
    ServiceUnavailableError,
)
from repro.sgx.enclave import measure_program

# -- the pure verification core ------------------------------------------------


@dataclass(frozen=True, slots=True)
class ClientState:
    """Everything a superlight client holds (and persists): the adopted
    tip, and per index the ``(height, root, certificate)`` it was last
    certified at.  Immutable; :func:`adopt_bundle` builds the next one.
    """

    header: BlockHeader | None = None
    certificate: Certificate | None = None
    indexes: Mapping[str, tuple[int, Digest, Certificate]] = field(
        default_factory=dict
    )


def wins_chain_selection(held: BlockHeader | None, header: BlockHeader) -> bool:
    """Longest-chain rule with a deterministic hash tie-break."""
    if held is None:
        return True
    if header.height != held.height:
        return header.height > held.height
    return header.header_hash() < held.header_hash()


def adopt_bundle(
    measurement: Digest,
    ias_public_key: PublicKey,
    state: ClientState,
    bundle,
    verified: VerifiedMemo,
) -> ClientState:
    """Verify a tip bundle in full against the trust anchors (the
    enclave program's measurement, re-derived from published source, and
    the IAS signing key), then return the state that adopts it.

    ``bundle`` is anything carrying ``header``, ``certificate``,
    ``index_roots`` and ``index_certificates`` — a
    :class:`~repro.core.issuer.CertifiedBlock`, a
    :class:`~repro.core.issuer.CertifiedTip` or a
    :class:`~repro.net.pubsub.TipAnnouncement`; ``certificate=None``
    means it carries index certificates only.

    The one place a client's tip/index-root state is built.  Every
    certificate in the bundle is verified exactly once — the block
    certificate against ``block_digest(header)``, each index certificate
    against ``index_digest(header, root)`` — *before* anything is
    adopted, so a single forgery anywhere raises
    :class:`CertificateError` and leaves the caller holding ``state``
    untouched.  A verified bundle then advances each element by its own
    rule: the tip if it wins chain selection, an index entry if its
    block is newer than the one held.  Returns ``state`` itself when
    nothing advanced (a replayed or older bundle).  A bundle whose
    fields are not of the types the checks read (the codec cannot know
    them: an int where the digest hashes bytes, a list as a memo key) is
    a forgery too: same error, same untouched ``state``.
    """
    try:
        header = bundle.header
        to_verify = []
        if bundle.certificate is not None:
            to_verify.append((bundle.certificate, block_digest(header)))
        for name, cert in bundle.index_certificates.items():
            if name not in bundle.index_roots:
                raise CertificateError(f"bundle omits the root for index {name!r}")
            to_verify.append((cert, index_digest(header, bundle.index_roots[name])))
        for cert, dig in to_verify:
            verify_certificate(measurement, ias_public_key, cert, dig, verified)
        tip_wins = bundle.certificate is not None and wins_chain_selection(
            state.header, header
        )
        newer = {
            name: (header.height, bundle.index_roots[name], cert)
            for name, cert in bundle.index_certificates.items()
            if name not in state.indexes or state.indexes[name][0] < header.height
        }
        if not tip_wins and not newer:
            return state
        return ClientState(
            header=header if tip_wins else state.header,
            certificate=bundle.certificate if tip_wins else state.certificate,
            indexes=MappingProxyType({**state.indexes, **newer}),
        )
    except (TypeError, ValueError, AttributeError, LookupError, ArithmeticError) as exc:
        raise CertificateError("malformed tip bundle") from exc


# -- the local shell -----------------------------------------------------------


class SuperlightClient:
    """Constant-cost blockchain (and index) integrity validation.

    A thin shell over :func:`adopt_bundle`: it holds the current
    :class:`ClientState` and adds what the pure core must not have — the
    verified-report memo, ``on_tip`` callbacks, metrics, the wallet file.
    """

    #: Cap on memoised verified attestation reports.  One entry per
    #: distinct enclave identity suffices in steady state (§4.3: "check
    #: an attestation report only once for the same enclave"), so the
    #: cap only matters under an adversarial stream of fresh-looking
    #: reports — exactly when an unbounded memo would be a memory hole.
    VERIFIED_REPORTS_LIMIT = 64

    def __init__(
        self,
        expected_measurement: Digest,
        ias_public_key: PublicKey,
    ) -> None:
        self.expected_measurement = expected_measurement
        self.ias_public_key = ias_public_key
        self.state = ClientState()
        # Bounds itself: see VERIFIED_REPORTS_LIMIT.
        self._verified_reports = VerifiedMemo(self.VERIFIED_REPORTS_LIMIT)
        # Streaming surface: tip-adoption callbacks and the issuer
        # hooks a direct subscription installed (see subscribe()).
        # repro: allow[BND01] one entry per application on_tip registration
        self._tip_callbacks: list = []
        self._subscriptions: list[tuple[object, object]] = []

    @property
    def latest_header(self) -> BlockHeader | None:
        return self.state.header

    @property
    def latest_certificate(self) -> Certificate | None:
        return self.state.certificate

    # -- Alg. 3 ---------------------------------------------------------------

    def adopt(self, bundle) -> bool:
        """Verify a tip bundle and adopt whatever of it advances this
        client — the single way a tip or index root gets in.

        ``bundle`` is a ``CertifiedBlock``, ``CertifiedTip`` or
        ``TipAnnouncement`` (see :func:`adopt_bundle`).
        Returns True when the tip advanced, False when the bundle
        verified but its tip lost chain selection; raises
        :class:`CertificateError` — with no state moved — when any
        certificate in it is invalid.
        """
        before = self.state
        # The chain-validation span times Alg. 3 proper; an index-only
        # bundle (validate_index_certificate) is not a chain validation.
        span = (
            obs.trace_span("client.validate_chain")
            if bundle.certificate is not None
            else nullcontext()
        )
        with span:
            self.state = adopt_bundle(
                self.expected_measurement,
                self.ias_public_key,
                before,
                bundle,
                self._verified_reports,
            )
        after = self.state
        # adopt_bundle installs the bundle's header only when it wins.
        tip_advanced = after.header is not before.header
        if bundle.certificate is not None and not tip_advanced:
            obs.inc("client.chain_validations_rejected")
        if after is not before and obs.enabled():
            if tip_advanced:
                obs.inc("client.chain_validations")
            for name, entry in after.indexes.items():
                if entry is not before.indexes.get(name):
                    obs.inc("client.index_certs_adopted")
            obs.set_gauge("client.storage_bytes", self.storage_bytes())
        if tip_advanced:
            for callback in list(self._tip_callbacks):
                callback(after.header, after.certificate)
        return tip_advanced

    def validate_chain(self, header: BlockHeader, cert: Certificate) -> bool:
        """Validate a candidate tip; adopt it if it wins chain selection.

        Returns True when the candidate was adopted, False when it lost
        chain selection; raises :class:`CertificateError` when the
        certificate itself is invalid.
        """
        return self.adopt(CertifiedTip(header, cert, {}, {}))

    def validate_index_certificate(
        self, name: str, header: BlockHeader, index_root: Digest, cert: Certificate
    ) -> bool:
        """Adopt a certified index root if its block is the newest seen."""
        before = self.state
        self.adopt(CertifiedTip(header, None, {name: cert}, {name: index_root}))
        return self.state is not before

    # -- the streaming surface (LightClient protocol) -------------------------

    def on_tip(self, callback):
        """Register ``callback(header, certificate)`` to fire on every
        adopted tip.  Returns the callback (decorator-friendly)."""
        self._tip_callbacks.append(callback)
        return callback

    def subscribe(self, source=None) -> None:
        """Attach directly to a local issuer: every block it certifies
        from now on is validated and (if it wins chain selection)
        adopted, exactly as the remote push path does over the wire.

        ``source`` is a :class:`~repro.core.issuer.CertificateIssuer`
        (or anything else exposing an ``on_certified`` hook list).
        """
        if source is None:
            raise CertificateError(
                "a local client subscribes directly to an issuer; pass it "
                "as source="
            )
        hooks = getattr(source, "on_certified", None)
        if hooks is None:
            raise CertificateError(
                f"{type(source).__name__} has no on_certified hook"
            )
        hook = self.adopt  # a CertifiedBlock is a tip bundle
        hooks.append(hook)
        self._subscriptions.append((source, hook))

    def unsubscribe(self) -> None:
        """Detach from every subscribed issuer (idempotent)."""
        for source, hook in self._subscriptions:
            unhook(source, hook)
        self._subscriptions.clear()

    # -- query verification ------------------------------------------------------

    def certified_index_root(self, name: str) -> Digest:
        held = self.state.indexes.get(name)
        if held is None:
            raise CertificateError(f"no certified root for index {name!r}")
        return held[1]

    def verify_answer(self, request, answer) -> bool:
        """Unified check of a typed :class:`repro.query.api.QueryAnswer`
        against the certified roots — the one verification entry point
        mirroring ``QueryServiceProvider.execute``."""
        from repro.query.verifier import verify as verify_query

        with obs.trace_span("client.verify_answer"):
            ok = verify_query(request, answer, self.certified_index_root)
        obs.inc("client.verify_ok" if ok else "client.verify_failed")
        return ok

    # -- persistence ---------------------------------------------------------------

    def to_json(self) -> str:
        """Serialize the client's durable state (a "wallet file").

        Exactly what Fig. 7a counts: the latest header + certificate,
        plus the certified index roots and the index certificates
        vouching for them — all constant-size per index.
        """
        state = self.state
        return json.dumps(
            {
                "measurement": self.expected_measurement.hex(),
                "ias_key": self.ias_public_key.to_bytes().hex(),
                "header": (
                    state.header.encode().decode("utf-8")
                    if state.header is not None
                    else None
                ),
                "certificate": (
                    state.certificate.encode().decode("utf-8")
                    if state.certificate is not None
                    else None
                ),
                "index_roots": {
                    name: [height, root.hex()]
                    for name, (height, root, _cert) in state.indexes.items()
                },
                "index_certificates": {
                    name: cert.encode().decode("utf-8")
                    for name, (_height, _root, cert) in state.indexes.items()
                },
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, data: str) -> "SuperlightClient":
        """Restore a client by re-adopting the stored bundle, so a
        tampered wallet file cannot smuggle in a bad tip or index root.

        Only what verifies *in full* comes back: the tip, and every
        index entry bound to the stored tip header (its certificate
        signs ``index_digest(header, root)``, which needs that header).
        An entry adopted at an earlier height — or stored without its
        certificate — cannot be re-checked against anything the wallet
        holds, so it is dropped and re-fetched on the next sync.
        """
        raw = json.loads(data)
        client = cls(
            bytes.fromhex(raw["measurement"]),
            PublicKey.from_bytes(bytes.fromhex(raw["ias_key"])),
        )
        if raw["header"] is None or raw["certificate"] is None:
            return client
        header = BlockHeader.decode(raw["header"].encode("utf-8"))
        stored_certs = raw.get("index_certificates", {})
        bound = {
            name: bytes.fromhex(root_hex)
            for name, (height, root_hex) in raw.get("index_roots", {}).items()
            if int(height) == header.height and name in stored_certs
        }
        client.adopt(
            CertifiedTip(
                header,
                Certificate.decode(raw["certificate"].encode("utf-8")),
                {
                    name: Certificate.decode(stored_certs[name].encode("utf-8"))
                    for name in bound
                },
                bound,
            )
        )
        return client

    # -- bookkeeping ---------------------------------------------------------------

    def storage_bytes(self) -> int:
        """Bytes the client persists: one header + one certificate, plus
        each held index certificate and its (height, root) bookkeeping."""
        state = self.state
        total = 0
        if state.header is not None:
            total += state.header.size_bytes()
        if state.certificate is not None:
            total += state.certificate.size_bytes()
        for _height, root, cert in state.indexes.values():
            total += cert.size_bytes() + len(root) + 8  # root + its height
        return total


# -- the network shell ---------------------------------------------------------


class RemoteSuperlightClient:
    """A superlight client that lives entirely on the network (Fig. 2).

    Wraps a :class:`SuperlightClient` behind an RPC client: it
    bootstraps and syncs certified tips from one or more
    :class:`repro.core.issuer.IssuerService` endpoints and runs typed
    queries against one or more :class:`repro.query.provider.QueryService`
    endpoints, degrading gracefully:

    * per-call timeouts with bounded exponential-backoff retries come
      from the RPC layer (:class:`repro.net.rpc.RetryPolicy`);
    * every response is re-verified against the certified roots — a
      corrupted or forged response is *detected and retried*, never
      silently accepted;
    * on repeated timeouts or integrity failures the client fails over
      to the next endpoint, and raises
      :class:`~repro.errors.ServiceUnavailableError` only once every
      endpoint is exhausted (bounded work, no hanging).

    Built from a :class:`~repro.core.client_api.ClientConfig` (normally
    via :func:`~repro.core.client_api.connect`).  Queries can be served
    two ways: a plain ``providers`` list tried in order, or a
    :class:`repro.net.gateway.QueryGateway` fronting a replica fleet.
    With a gateway the client wires its root re-verification in as the
    gateway's ``verify_switch`` hook, gets the pipelined
    :meth:`query_many` path, and keeps a :class:`repro.query
    .answercache.VerifiedAnswerCache` of answers that already verified
    at the current certified roots (a warm hit costs zero round trips).
    """

    def __init__(self, config) -> None:
        from repro.net import wire
        from repro.net.rpc import RetryPolicy, RpcClient
        from repro.query.answercache import VerifiedAnswerCache

        config.validate()
        self.config = config
        self.client = SuperlightClient(config.measurement, config.ias_public_key)
        self.rpc = RpcClient(config.bus, config.name, config.policy or RetryPolicy())
        self._wire = wire  # repro.net imports this package: bound late
        self.issuers = list(config.issuers)
        self.providers = list(config.providers)
        self.gateway = config.gateway
        # -- overload resilience: stale degradation --
        self.degrade_to_stale = config.degrade_to_stale
        self.stale_served = 0
        if self.gateway is not None and self.gateway.verify_switch is None:
            self.gateway.verify_switch = self._verify_replica_roots
        self.cache = (
            VerifiedAnswerCache(config.cache_capacity)
            if config.cache_capacity
            else None
        )
        self.integrity_retries = config.integrity_retries
        self.failovers = 0
        self.integrity_failures = 0
        # -- push stream state (see subscribe()) --
        self.hub = config.hub
        self.subscribed = False
        self._sub_seq = 0  # highest announcement seq verified-or-skipped
        self._needs_resync = False
        self.push_adopted = 0
        self.push_rejected = 0
        self.push_duplicates = 0
        self.push_gaps = 0
        self.push_resyncs = 0

    # -- endpoint failover ----------------------------------------------------

    def _call_with_failover(
        self, endpoints, method, payload, accept, *, deadline_ms: float = 0.0
    ):
        """Call ``method`` (argument already encoded: ``payload``) on each
        endpoint until one returns a reply ``accept(endpoint, reply)`` takes.

        Per endpoint, an unacceptable reply is retried up to
        ``integrity_retries`` times (the fault may be transient line
        corruption) before failing over; a shed, timeout or outage
        fails over at once.  ``accept`` counts
        its own integrity failures and raises
        :class:`~repro.errors.ResponseIntegrityError`.  Raises
        :class:`~repro.errors.ServiceUnavailableError` once every
        endpoint is exhausted (bounded work, no hanging).
        """
        last_error: Exception | None = None
        for endpoint in endpoints:
            for _attempt in range(self.integrity_retries):
                try:
                    reply = self.rpc.call(
                        endpoint, method, payload=payload, deadline_ms=deadline_ms
                    )
                except ResponseIntegrityError as exc:
                    self.integrity_failures += 1
                    last_error = exc
                    continue
                except NetworkError as exc:
                    if deadline_ms and isinstance(exc, DeadlineExceededError):
                        raise  # our budget is gone everywhere at once
                    last_error = exc
                    break  # shed, down or unreachable: fail over
                try:
                    accept(endpoint, reply)
                except ResponseIntegrityError as exc:
                    last_error = exc
                    continue
                return reply
            self.failovers += 1
        raise ServiceUnavailableError(
            f"no endpoint returned a verifiable reply to {method!r}"
        ) from last_error

    # -- certificate sync ---------------------------------------------------

    def bootstrap(self) -> None:
        """Fetch and adopt a first certified tip (Alg. 3 over RPC)."""
        self.sync()

    def sync(self):
        """Pull the latest certified tip, trying issuers in order.

        Returns the adopted :class:`repro.core.issuer.CertifiedTip`.
        A tip that fails certificate verification counts as an
        integrity failure (tampered in flight, or a lying CI) and
        triggers failover, exactly like a timeout.
        """
        tip = self._call_with_failover(
            self.issuers, "latest_tip", self._wire.encode(None), self._adopt_polled
        )
        self._roots_advanced()
        return tip

    def _adopt_polled(self, issuer_name: str, tip) -> None:
        try:
            if not isinstance(tip, CertifiedTip):
                raise CertificateError(
                    f"issuer returned {type(tip).__name__}, not a certified tip"
                )
            self.client.adopt(tip)
        except CertificateError as exc:
            self.integrity_failures += 1
            raise ResponseIntegrityError(
                f"certified tip from {issuer_name!r} failed verification: {exc}"
            ) from exc

    def _roots_advanced(self) -> None:
        """Housekeeping after adopting a certified tip: sweep cache
        entries verified under superseded roots, and make the gateway
        re-verify replicas against the new roots on the next switch."""
        if self.cache is not None:
            self.cache.retain_roots(
                root for _height, root, _cert in self.client.state.indexes.values()
            )
        if self.gateway is not None:
            self.gateway.reset_verified()

    # -- push sync (the hub stream) -----------------------------------------

    def on_tip(self, callback):
        """Register ``callback(header, certificate)`` for every adopted
        tip — pushed or polled.  Returns the callback."""
        return self.client.on_tip(callback)

    def subscribe(self, source=None) -> None:
        """Subscribe to the configured :class:`~repro.net.pubsub
        .SubscriptionHub` (or to the endpoint named by ``source``).

        From here on, every block the issuer certifies is *pushed* to
        this client; each announcement is verified with the standard
        certificate check before the tip advances (a forged or replayed
        announcement is discarded and counted, exactly like a bad
        polled tip), and adopting one invalidates the verified-answer
        cache the same way a polled sync does.  Announcements are
        sequence-numbered: a gap (lost pushes, hub restart, our own
        downtime) or a hub :class:`~repro.net.messages.LagNotice` marks
        the stream for :meth:`resync`, which runs on the next
        :meth:`heartbeat` (push handlers never issue blocking RPC).
        """
        from repro.net.pubsub import SubscriptionHub, push_topic

        hub = source if isinstance(source, str) else self.hub
        if hub is None:
            raise ServiceUnavailableError(
                "no hub configured: set ClientConfig.hub or pass the "
                "endpoint name as source="
            )
        self.hub = hub
        self.rpc.node.on(push_topic(self.rpc.name), self._on_push)
        reply = self.rpc.call(hub, SubscriptionHub.SUBSCRIBE, self.rpc.name)
        self._sub_seq = reply.latest_seq
        self.subscribed = True
        self._needs_resync = False
        obs.inc("client.push_subscribes")

    def unsubscribe(self) -> None:
        """Leave the hub stream (idempotent)."""
        from repro.net.pubsub import SubscriptionHub

        if not self.subscribed:
            return
        self.subscribed = False
        self.rpc.call(self.hub, SubscriptionHub.UNSUBSCRIBE, self.rpc.name)

    def heartbeat(self):
        """The periodic stream pump: resync if flagged, renew the lease.

        Returns the hub's :class:`~repro.net.pubsub.HeartbeatReply`.
        Also the recovery path: if the hub no longer knows us (it
        restarted, or our lease expired), re-subscribe and catch up; if
        it reports announcements beyond what we have seen and nothing
        arrives (every in-window push lost), the hub retransmits the
        unacked window in response to our acked sequence number.
        """
        from repro.net.pubsub import SubscriptionHub

        if not self.subscribed:
            raise ServiceUnavailableError("not subscribed; call subscribe()")
        if self._needs_resync:
            self.resync()
        reply = self.rpc.call(
            self.hub, SubscriptionHub.HEARTBEAT, (self.rpc.name, self._sub_seq)
        )
        if not reply.subscribed:
            # Reaped (or the hub restarted): re-subscribe, then catch up
            # from where we *actually* are — subscribe() positions the
            # stream at the hub's tip, which would skip everything
            # missed while we were away.
            seen = self._sub_seq
            self.subscribe()
            self._sub_seq = min(seen, self._sub_seq)
            self.resync()
        elif reply.lagged or reply.latest_seq > self._sub_seq:
            # Lagged, or announcements exist that never reached us.
            # Retransmits may already be in flight after this
            # heartbeat; resync() resolves either way with one pull.
            self.resync()
        return reply

    def resync(self):
        """Catch up over the pull path: fetch every retained
        announcement past our sequence number, verify and adopt each,
        and clear the lag/gap flag.  Returns the number adopted."""
        from repro.net.pubsub import SubscriptionHub

        reply = self.rpc.call(
            self.hub, SubscriptionHub.SYNC_RANGE, (self.rpc.name, self._sub_seq + 1)
        )
        adopted = 0
        for announcement in reply.announcements:
            if self._adopt_pushed(announcement):
                adopted += 1
        self._sub_seq = max(self._sub_seq, reply.latest_seq)
        self._needs_resync = False
        self.push_resyncs += 1
        obs.inc("client.push_resyncs")
        return adopted

    def _on_push(self, message) -> None:
        """Bus handler for hub pushes — local verification only."""
        from repro.net.messages import LagNotice, PushEnvelope
        from repro.net.pubsub import TipAnnouncement

        if isinstance(message, LagNotice):
            self.push_gaps += 1
            self._needs_resync = True
            obs.inc("client.push_lag_notices")
            return
        if not isinstance(message, PushEnvelope):
            return
        try:
            announcement = self._wire.decode(message.payload)
            if not isinstance(announcement, TipAnnouncement):
                raise CertificateError("push payload is not a tip announcement")
            if self._sub_seq < announcement.seq <= self._sub_seq + 1:
                self._adopt_pushed(announcement)
        except ReproError:
            # Corrupted or forged in flight.  Don't ack — the hub
            # retransmits the genuine announcement on our next
            # heartbeat.
            self.push_rejected += 1
            self.integrity_failures += 1
            obs.inc("client.push_rejected")
            return
        if announcement.seq > self._sub_seq + 1:
            # Gap: something between was lost or dropped-oldest.
            self.push_gaps += 1
            self._needs_resync = True
            obs.inc("client.push_gaps")
            return
        if announcement.seq <= self._sub_seq:
            self.push_duplicates += 1
            obs.inc("client.push_duplicates")
        else:
            self._sub_seq = announcement.seq
        self._ack()

    def _ack(self) -> None:
        from repro.net.messages import StreamAck
        from repro.net.pubsub import ack_topic

        self.rpc.bus.send(
            self.rpc.name,
            self.hub,
            ack_topic(self.hub),
            StreamAck(subscriber=self.rpc.name, seq=self._sub_seq),
        )

    def _adopt_pushed(self, announcement) -> bool:
        """Adopt one stream announcement exactly as a polled tip (the
        same :meth:`SuperlightClient.adopt`: everything verified before
        anything moves), plus the push-side housekeeping.  Returns
        False for a replayed/older tip — verified but not adopted;
        raises CertificateError on a forgery."""
        before = self.client.state
        tip_advanced = self.client.adopt(announcement)
        if self.client.state is not before:
            # Index roots can move even when the tip did not (a
            # same-height replay carrying certificates we lacked).
            self._roots_advanced()
        if not tip_advanced:
            return False
        self.push_adopted += 1
        if obs.enabled():
            obs.inc("client.push_adopted")
            obs.observe(
                "client.push_fanout_ms",
                self.rpc.bus.clock_ms - announcement.published_at_ms,
            )
        return True

    # -- queries ------------------------------------------------------------

    def query(self, request, *, deadline_ms: float = 0.0):
        """Run one typed query, verifying the answer before returning.

        A warm answer-cache hit (same canonical request, same certified
        root) returns immediately with zero RPC round trips.  Otherwise
        the request goes to the gateway (a :meth:`query_many` of one:
        health-aware failover across the fleet, an unverifiable answer
        striking the replica that gave it) or down the provider list,
        where per endpoint an unverifiable answer is retried
        ``integrity_retries`` times (the fault may be transient line
        corruption) before failing over.  Raises
        :class:`~repro.errors.ServiceUnavailableError` when no endpoint
        yields a verifiable answer.

        ``deadline_ms`` (absolute virtual-clock) is propagated down the
        transport, shrinking hop by hop, so replicas refuse work this
        call can no longer use.  When the whole tier sheds — every
        endpoint overloaded, unavailable, or out of budget — a client
        configured with ``degrade_to_stale=True`` serves the last
        *verified* answer for this request as an explicitly-flagged
        :class:`~repro.query.answercache.StaleAnswer` instead of
        raising; correctness is never sacrificed, only freshness.
        """
        try:
            if self.gateway is not None:
                return self.query_many([request], deadline_ms=deadline_ms)[0]
            payload = self._wire.encode(request)
            cached = self._cache_get(request, payload)
            if cached is not None:
                return cached
            return self._call_with_failover(
                self.providers,
                "execute",
                payload,
                lambda provider, answer: self._admit(
                    request, payload, answer, repr(provider)
                ),
                deadline_ms=deadline_ms,
            )
        except (
            OverloadedError,
            ServiceUnavailableError,
            DeadlineExceededError,
        ):
            stale = self._stale_answer(request)
            if stale is None:
                raise
            return stale

    def _stale_answer(self, request):
        """The graceful-degradation fallback (None when not enabled or
        nothing verified is on hand)."""
        if not self.degrade_to_stale or self.cache is None:
            return None
        stale = self.cache.get_stale(request)
        if stale is None:
            return None
        self.stale_served += 1
        obs.inc("resilience.stale_served")
        return stale

    def query_many(self, requests, *, deadline_ms: float = 0.0):
        """Run a batch of typed queries, pipelined across the fleet.

        Requires a gateway (the provider-list transport has no
        pipelined path).  Cache hits are answered locally; the misses
        are dispatched concurrently, so a fleet of N busy replicas
        drains them ~N× faster than one.  Every answer is verified
        before it is returned or cached; an unverifiable one strikes
        the replica that gave it and the request is re-dispatched
        inside the gateway's per-item budget.
        """
        if self.gateway is None:
            return [self.query(request) for request in requests]
        requests = list(requests)
        payloads = [self._wire.encode(request) for request in requests]
        results = [self._cache_get(r, p) for r, p in zip(requests, payloads)]
        misses = [
            position for position, hit in enumerate(results) if hit is None
        ]
        if misses:
            answers = self.gateway.call_many(
                "execute",
                [requests[position] for position in misses],
                deadline_ms=deadline_ms,
                accept=lambda miss, answer: self._admit(
                    requests[misses[miss]], payloads[misses[miss]], answer, "the fleet"
                ),
                payloads=[payloads[position] for position in misses],
            )
            for position, answer in zip(misses, answers):
                results[position] = answer
        return results

    # -- the verified-answer cache ------------------------------------------

    def _admit(self, request, payload: bytes, answer, source: str):
        """The one gate between the wire and the caller: ``answer`` is
        returned (and cached) only if it verifies against the certified
        index roots; otherwise it is counted and raised as a
        :class:`~repro.errors.ResponseIntegrityError`."""
        from repro.query.api import QueryAnswer

        if not (
            isinstance(answer, QueryAnswer)
            and self.client.verify_answer(request, answer)
        ):
            self.integrity_failures += 1
            raise ResponseIntegrityError(
                f"answer from {source} to {type(request).__name__} failed "
                "verification against the certified index roots"
            )
        if self.cache is not None:
            # Verification passed, so the index's certified entry exists.
            height, root, _cert = self.client.state.indexes[request.index]
            self.cache.put(payload, root, answer, height=height)
        return answer

    def _cache_get(self, request, payload: bytes):
        held = self.client.state.indexes.get(getattr(request, "index", None))
        if self.cache is None or held is None:
            return None
        return self.cache.get(payload, held[1])

    # -- replica switch verification ----------------------------------------

    def _verify_replica_roots(self, replica: str) -> None:
        """The gateway's ``verify_switch`` hook: before trusting a new
        replica, check that the index roots it serves match the
        client's certified ones.  (Answers are verified individually
        anyway; this catches a stale or lying replica *before* queries
        are routed at it.)"""
        for name, (_height, certified, _cert) in self.client.state.indexes.items():
            served = self.gateway.call_on(replica, "index_root", name)
            if served != certified:
                raise ResponseIntegrityError(
                    f"replica {replica!r} serves index {name!r} at a root "
                    "that does not match the certified one"
                )

    # -- delegation (the LightClient surface) -------------------------------

    @property
    def latest_header(self) -> BlockHeader | None:
        return self.client.latest_header

    def validate_chain(self, header: BlockHeader, cert: Certificate) -> bool:
        return self.client.validate_chain(header, cert)

    def verify_answer(self, request, answer) -> bool:
        return self.client.verify_answer(request, answer)

    def certified_index_root(self, name: str) -> Digest:
        return self.client.certified_index_root(name)

    def storage_bytes(self) -> int:
        return self.client.storage_bytes()


def compute_expected_measurement(
    genesis_digest: Digest,
    ias_public_key: PublicKey,
    vm,
    difficulty_bits: int,
    index_specs: dict | None = None,
) -> Digest:
    """What an honest DCert enclave measures as, given public inputs.

    Clients derive this from the *published* enclave source and build
    configuration — the same way real SGX users reproduce MRENCLAVE
    from a reproducible build.
    """
    reference = DCertEnclaveProgram(
        genesis_digest=genesis_digest,
        ias_public_key=ias_public_key,
        vm=vm,
        difficulty_bits=difficulty_bits,
        index_specs=index_specs,
    )
    return measure_program(DCertEnclaveProgram, reference.config_bytes())
