"""The superlight client (Alg. 3) — DCert's headline artifact.

Keeps exactly one block header and one certificate, whatever the chain
length: validating a new tip is a constant amount of work (one report
check — cached per enclave —, one signature verification, one digest
comparison, and the chain-selection rule), and storage is the size of
one header plus one certificate (the paper's 2.97 KB).

The same client verifies query results: it tracks the latest certified
root of each authenticated index (via index certificates) and checks
the SP's proofs against those roots.

The module is a pure core plus one shell.  The core is
:class:`ClientState` (what a client holds) and :func:`adopt_bundle`
(the only function that builds a new one): it verifies *every*
certificate in a tip bundle and only then returns the next state — no
I/O, no clock, no metrics.  :class:`SuperlightClient` is the shell
around it.  Every way a tip can reach a client — ``validate_chain``,
``validate_index_certificate``, ``sync``, a pushed announcement or
one in a hub's reply, a restored wallet — is one
:meth:`SuperlightClient.adopt` call on that core.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro import obs
from repro.chain.block import BlockHeader, EncodedSize
from repro.core.certificate import Certificate, VerifiedMemo, verify_certificate
from repro.core.digest import block_digest, index_digest
from repro.core.enclave_program import DCertEnclaveProgram
from repro.core.issuer import CertifiedTip
from repro.crypto import PublicKey, Signature
from repro.crypto.hashing import Digest
from repro.errors import (
    CertificateError,
    ConfigError,
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
class ClientState(EncodedSize):
    """Everything a superlight client holds (and persists): the adopted
    tip, and per index the ``(height, root, certificate)`` it was last
    certified at.  Immutable; :func:`adopt_bundle` builds the next one.

    :meth:`encode` is what the wallet stores and ``size_bytes()`` is its
    length, encoded at most once per state (a state, like a header,
    never changes once built).
    """

    header: BlockHeader | None = None
    certificate: Certificate | None = None
    indexes: Mapping[str, tuple[int, Digest, Certificate]] = field(
        default_factory=dict
    )

    def encode(self) -> bytes:
        """The persisted state: the tip's header and certificate as each
        encodes alone, then one ``[name, height, root, held]`` entry per
        index.  The enclave identity (``pk_enc`` and its report) is
        written once, in the tip's certificate: an index certificate from
        that identity is ``held`` as its signature alone, its digest
        being ``index_digest(header, root)``.  One from another identity
        (a second issuer, a re-attested enclave) is ``held`` whole.
        """
        tip = self.certificate
        parts = [] if tip is None else [self.header.encode(), tip.encode()]
        for name in sorted(self.indexes):
            height, root, cert = self.indexes[name]
            shared = tip is not None and (
                (cert.pk_enc, cert.report) == (tip.pk_enc, tip.report)
            )
            held = cert.sig.to_bytes().hex() if shared else cert.encode().decode()
            parts.append(json.dumps(
                [name, height, root.hex(), held], separators=(",", ":")
            ).encode())
        return b"".join(parts)


def _stored_tip(stored: bytes) -> CertifiedTip | None:
    """The bundle a :meth:`ClientState.encode` re-verifies as: its tip,
    and every index entry bound to that tip's header (a certificate
    signs ``index_digest(header, root)``, which needs that header).  An
    entry held at an earlier height cannot be re-checked against
    anything stored, so it is left out and re-fetched on the next sync.
    ``None`` when no tip is stored; :class:`CertificateError` when the
    bytes are not such an encoding.  Nothing here is verified.
    """
    try:
        text, decoder = stored.decode(), json.JSONDecoder()
        parts, at = [], 0
        while at < len(text):
            value, end = decoder.raw_decode(text, at)
            parts.append((value, text[at:end].encode()))
            at = end
        if not parts or not isinstance(parts[0][0], dict):
            return None
        header = BlockHeader.decode(parts[0][1])
        tip = Certificate.decode(parts[1][1])
        roots, certs = {}, {}
        for (name, height, root_hex, held), _text in parts[2:]:
            if height != header.height:
                continue
            roots[name] = root = bytes.fromhex(root_hex)
            certs[name] = (
                Certificate.decode(held.encode()) if held.startswith("{")
                else Certificate(tip.pk_enc, tip.report, index_digest(header, root),
                                 Signature.from_bytes(bytes.fromhex(held)))
            )
        return CertifiedTip(header, tip, certs, roots)
    except (ReproError, ValueError, TypeError, LookupError, AttributeError) as exc:
        raise CertificateError(f"malformed stored client state: {exc}") from exc


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
    bundle: CertifiedTip,
    verified: VerifiedMemo,
) -> ClientState:
    """Verify a tip bundle in full against the trust anchors (the
    enclave program's measurement, re-derived from published source, and
    the IAS signing key), then return the state that adopts it.

    ``bundle`` is a :class:`~repro.core.issuer.CertifiedTip` (a
    certified block's ``.tip``, a polled tip, or a pushed
    announcement's ``.tip``); ``certificate=None`` means it carries
    index certificates only.

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


# -- the client ----------------------------------------------------------------


class SuperlightClient:
    """Constant-cost blockchain (and index) integrity validation.

    A thin shell over :func:`adopt_bundle`: it holds the current
    :class:`ClientState` and adds what the pure core must not have — the
    verified-report memo, ``on_tip`` callbacks, metrics, the wallet file.

    Given a :class:`~repro.core.client_api.ClientConfig` with a bus
    (normally via :func:`~repro.core.client_api.connect`) it also lives
    on the network (Fig. 2): it syncs certified tips from
    :class:`repro.core.issuer.IssuerService` endpoints, tried in order,
    once each; follows a :class:`repro.net.pubsub.SubscriptionHub`
    stream; and queries through a :class:`repro.net.gateway.QueryGateway`
    (one replica is a fleet of one; with none it keeps the tip only),
    which owns replica health, failover, hedging and strikes.
    Every tip and answer is verified before it is used — a forged one
    is counted in ``integrity_failures`` and never accepted — and
    answers verified at the current roots are kept in a
    :class:`repro.query.answercache.VerifiedAnswerCache`.
    """

    #: Cap on memoised verified attestation reports.  One entry per
    #: distinct enclave identity suffices in steady state (§4.3: "check
    #: an attestation report only once for the same enclave"), so the
    #: cap only matters under an adversarial stream of fresh-looking
    #: reports — exactly when an unbounded memo would be a memory hole.
    VERIFIED_REPORTS_LIMIT = 64

    #: Until connected there is no issuer to poll, gateway to query
    #: through or hub to follow: sync/query/subscribe refuse, typed.
    issuers: tuple[str, ...] = ()
    gateway = None
    hub = None
    #: Connected without a gateway: keeps (and verifies) the tip only.
    tip_only = False

    def __init__(
        self,
        expected_measurement: Digest,
        ias_public_key: PublicKey,
        config=None,
    ) -> None:
        self.expected_measurement = expected_measurement
        self.ias_public_key = ias_public_key
        self.state = ClientState()
        # Bounds itself: see VERIFIED_REPORTS_LIMIT.
        self._verified_reports = VerifiedMemo(self.VERIFIED_REPORTS_LIMIT)
        # repro: allow[BND01] one entry per application on_tip registration
        self._tip_callbacks: list = []
        if config is not None:
            self._connect(config)

    def _connect(self, config) -> None:
        """The transport: RPC client, issuers, gateway, answer cache and
        push-stream state."""
        from repro.net import wire
        from repro.net.rpc import RpcClient
        from repro.query.answercache import VerifiedAnswerCache

        config.validate()
        self.rpc = RpcClient(config.bus, config.name)
        self._wire = wire  # repro.net imports this package: bound late
        self.issuers = list(config.issuers)
        self.gateway = config.gateway
        self.tip_only = self.gateway is None
        # -- overload resilience: stale degradation --
        self.degrade_to_stale = config.degrade_to_stale
        self.stale_served = 0
        self.cache = VerifiedAnswerCache(config.cache_capacity)
        self.integrity_failures = 0
        # -- push stream state (see subscribe()) --
        self.hub = config.hub
        self.subscribed = False
        self._sub_seq = 0  # seq of the newest announcement verified
        self.push_adopted = 0
        self.push_rejected = 0
        self.push_duplicates = 0
        self.push_resyncs = 0  # tips adopted from a subscribe/heartbeat reply

    @property
    def latest_header(self) -> BlockHeader | None:
        return self.state.header

    @property
    def latest_certificate(self) -> Certificate | None:
        return self.state.certificate

    # -- Alg. 3 ---------------------------------------------------------------

    def adopt(self, bundle: CertifiedTip) -> bool:
        """Verify a tip bundle and adopt whatever of it advances this
        client — the single way a tip or index root gets in.

        ``bundle`` is a :class:`~repro.core.issuer.CertifiedTip` (see
        :func:`adopt_bundle`).  Returns True when the tip advanced, False
        when the bundle verified but its tip lost chain selection; raises
        :class:`CertificateError` — with no state moved — when any
        certificate it keeps (a tip-only client: the tip's) is invalid.
        """
        if self.tip_only:
            bundle = bundle.without_indexes()
        before = self.state
        # Span and counters are Alg. 3's: an index-only bundle is not one.
        chain = bundle.certificate is not None
        with obs.trace_span("client.validate_chain") if chain else nullcontext():
            try:
                self.state = adopt_bundle(
                    self.expected_measurement, self.ias_public_key, before,
                    bundle, self._verified_reports,
                )
            except CertificateError:
                if chain:
                    obs.inc("client.chain_validations_rejected")
                raise
        after = self.state
        # adopt_bundle installs the bundle's header only when it wins.
        tip_advanced = after.header is not before.header
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
        """Validate a candidate tip; adopt it if it wins chain selection
        (:meth:`adopt` of a bare tip: same return, same error)."""
        return self.adopt(CertifiedTip(header, cert, {}, {}))

    def validate_index_certificate(
        self, name: str, header: BlockHeader, index_root: Digest, cert: Certificate
    ) -> bool:
        """Adopt a certified index root if its block is the newest seen
        (a tip-only client keeps none: :class:`ConfigError`)."""
        if self.tip_only:
            raise ConfigError("a tip-only client keeps no index roots")
        before = self.state
        self.adopt(CertifiedTip(header, None, {name: cert}, {name: index_root}))
        return self.state is not before

    def on_tip(self, callback):
        """Register ``callback(header, certificate)`` to fire on every
        adopted tip — pushed, polled or validated directly.  Returns
        the callback (decorator-friendly)."""
        self._tip_callbacks.append(callback)
        return callback

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
        """Serialize the client's durable state (a "wallet file"): the
        trust anchors and :meth:`ClientState.encode` — exactly what
        Fig. 7a counts, the latest header + certificate, plus per index
        its certified root and what it takes to re-check it."""
        return json.dumps(
            {
                "measurement": self.expected_measurement.hex(),
                "ias_key": self.ias_public_key.to_bytes().hex(),
                "state": self.state.encode().decode(),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, data: str) -> "SuperlightClient":
        """Restore a client by re-adopting the stored bundle, so a
        tampered wallet file cannot smuggle in a bad tip or index root:
        every certificate is verified again, and a tampered enclave
        identity fails every certificate that shares it.  Only what
        verifies *in full* comes back: the tip, and each index entry
        bound to its header; an older entry is re-fetched on the next
        sync.
        """
        raw = json.loads(data)
        client = cls(
            bytes.fromhex(raw["measurement"]),
            PublicKey.from_bytes(bytes.fromhex(raw["ias_key"])),
        )
        bundle = _stored_tip(raw["state"].encode())
        if bundle is not None:
            client.adopt(bundle)
        return client

    # -- bookkeeping ---------------------------------------------------------------

    def storage_bytes(self) -> int:
        """Bytes the client persists: the length of its state's encoding
        (one header + one certificate, plus per held index its entry),
        encoded once per adopted state."""
        return self.state.size_bytes()

    # -- certificate sync (connected) ------------------------------------------

    def sync(self):
        """Pull the latest certified tip from every issuer, once each.

        Every tip that verifies is adopted, so chain selection picks
        among them: an issuer that lags (recovering after a crash) or
        sits on a shorter branch cannot hold the client back while
        another is ahead.  A tip-only client is sent the tip-only form
        (``latest_tip(tip_only=True)``), all it verifies and keeps.
        Returns the tip the client holds: the polled
        tip whose header it holds or, when it already held a newer one
        than any issuer served or keeps the tip only, that header and
        certificate.  A reply that does not decode or a tip that fails
        verification (tampered in flight, or a lying CI) counts as an
        integrity failure; when no issuer served a tip that verified,
        :class:`~repro.errors.ServiceUnavailableError` (the caller's
        next ``sync`` is the retry).
        """
        held: CertifiedTip | None = None
        verified = False
        last_error: Exception | None = None
        for issuer in self.issuers:
            try:
                tip = self.rpc.call(issuer, "latest_tip", self.tip_only)
                if not isinstance(tip, CertifiedTip):
                    raise CertificateError(f"{type(tip).__name__} is not a tip")
                self.adopt(tip)
            except (CertificateError, ResponseIntegrityError) as exc:
                self.integrity_failures += 1
                last_error = exc
            except NetworkError as exc:
                last_error = exc
            else:
                verified = True
                if tip.header == self.state.header and not self.tip_only:
                    held = tip
        if not verified:
            raise ServiceUnavailableError(
                "no issuer returned a verifiable certified tip"
            ) from last_error
        self._roots_advanced()
        return held or CertifiedTip(self.state.header, self.state.certificate, {}, {})

    def _roots_advanced(self) -> None:
        """Housekeeping after adopting a certified tip: sweep cache
        entries verified under superseded roots."""
        self.cache.retain_roots(
            root for _height, root, _cert in self.state.indexes.values()
        )

    # -- push sync (the hub stream) -----------------------------------------

    def subscribe(self, hub: str | None = None) -> None:
        """Subscribe to the configured :class:`~repro.net.pubsub
        .SubscriptionHub` (or to the endpoint named ``hub``).

        From here on the newest certified tip is *pushed* to this
        client; each announcement is verified with the standard
        certificate check before the tip advances (a forged or replayed
        announcement is discarded and counted, exactly like a bad
        polled tip), and adopting one invalidates the verified-answer
        cache the same way a polled sync does.  The request carries the
        newest sequence number this client holds, so one that subscribes
        behind the tip gets the tip in the reply.
        """
        from repro.net.pubsub import SubscriptionHub, push_topic

        hub = hub or self.hub
        if hub is None:
            raise ServiceUnavailableError(
                "no hub configured: set ClientConfig.hub or pass the "
                "endpoint name as hub="
            )
        self.hub = hub
        self.rpc.node.on(push_topic(self.rpc.name), self._on_push)
        self._stream_call(SubscriptionHub.SUBSCRIBE)
        self.subscribed = True
        obs.inc("client.push_subscribes")

    def unsubscribe(self) -> None:
        """Leave the hub stream (idempotent); later pushes are ignored."""
        from repro.net.pubsub import SubscriptionHub

        if not self.subscribed:
            return
        self.subscribed = False
        self.rpc.call(self.hub, SubscriptionHub.UNSUBSCRIBE, self.rpc.name)

    def heartbeat(self):
        """The periodic stream pump: renew the lease and catch up.

        Returns the hub's :class:`~repro.net.pubsub.StreamReply`.  It
        carries the newest tip whenever this client is behind it (a lost
        push, a dead link, our own downtime); the tip is adopted exactly
        like a push.  A hub that no longer knows us (it restarted, or
        our lease expired) answers ``subscribed=False``: subscribe again.
        """
        from repro.net.pubsub import SubscriptionHub

        if not self.subscribed:
            raise ServiceUnavailableError("not subscribed; call subscribe()")
        reply = self._stream_call(SubscriptionHub.HEARTBEAT)
        if not reply.subscribed:
            self.subscribe()
        return reply

    def _stream_call(self, method: str):
        """Tell the hub where we are; adopt the tip its reply carries.

        The hub is untrusted: a reply that is not a ``StreamReply`` is a
        :class:`~repro.errors.ResponseIntegrityError`, and a tip that
        fails verification is counted and moves nothing."""
        from repro.net.pubsub import StreamReply

        position = (self.rpc.name, self._sub_seq, self.tip_only)
        reply = self.rpc.call(self.hub, method, position)
        if not isinstance(reply, StreamReply):
            raise ResponseIntegrityError(
                f"{method} answered {type(reply).__name__}, not a stream reply"
            )
        # We cannot be past the hub's newest position (a corrupted push's
        # seq, or a hub restarted elsewhere): its numbering is the stream's.
        self._sub_seq = min(self._sub_seq, reply.latest_seq)
        tip = reply.tip
        if tip is not None and tip.seq > self._sub_seq:
            try:
                adopted = self._adopt_pushed(tip)
            except CertificateError:
                self._reject_push()
                return reply
            self._sub_seq = tip.seq
            if adopted:
                self.push_resyncs += 1
                obs.inc("client.push_resyncs")
        return reply

    def _on_push(self, message) -> None:
        """Bus handler for hub pushes — local verification only.  Once
        we unsubscribed, even if the hub never heard, nothing is adopted
        or acked: the lease we stopped renewing lets the hub reap us."""
        from repro.net.pubsub import PushEnvelope, StreamAck, TipAnnouncement, ack_topic

        if not self.subscribed or not isinstance(message, PushEnvelope):
            return
        try:
            announcement = self._wire.decode(message.payload)
            if not isinstance(announcement, TipAnnouncement):
                raise CertificateError("push payload is not a tip announcement")
            if announcement.seq > self._sub_seq:
                self._adopt_pushed(announcement)
        except ReproError:
            # Corrupted or forged in flight.  Don't ack — the reply to
            # our next heartbeat carries the genuine tip.
            self._reject_push()
            return
        if announcement.seq <= self._sub_seq:
            self.push_duplicates += 1
            obs.inc("client.push_duplicates")
        else:
            self._sub_seq = announcement.seq
        ack = StreamAck(subscriber=self.rpc.name, seq=self._sub_seq)
        self.rpc.bus.send(self.rpc.name, self.hub, ack_topic(self.hub), ack)

    def _reject_push(self) -> None:
        self.push_rejected += 1
        self.integrity_failures += 1
        obs.inc("client.push_rejected")

    def _adopt_pushed(self, announcement) -> bool:
        """Adopt one stream announcement exactly as a polled tip (the
        same :meth:`adopt`: everything verified before anything moves),
        plus the push-side housekeeping.  Returns False for a
        replayed/older tip — verified but not adopted; raises
        CertificateError on a forgery."""
        before = self.state
        tip_advanced = self.adopt(announcement.tip)
        if self.state is not before:
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
        """Run one typed query, verifying the answer before returning:
        a :meth:`query_many` of one.

        ``deadline_ms`` (absolute virtual-clock) is propagated down the
        transport, shrinking hop by hop, so replicas refuse work this
        call can no longer use.  When the whole tier sheds — every
        replica overloaded, unavailable, or out of budget — a client
        configured with ``degrade_to_stale=True`` serves the last
        *verified* answer for this request as an explicitly-flagged
        :class:`~repro.query.answercache.StaleAnswer` instead of
        raising; correctness is never sacrificed, only freshness.
        """
        try:
            return self.query_many([request], deadline_ms=deadline_ms)[0]
        except (
            OverloadedError,
            ServiceUnavailableError,
            DeadlineExceededError,
        ):
            stale = self.cache.get_stale(request) if self.degrade_to_stale else None
            if stale is None:
                raise
            self.stale_served += 1
            obs.inc("resilience.stale_served")
            return stale

    def query_many(self, requests, *, deadline_ms: float = 0.0):
        """Run a batch of typed queries, pipelined across the fleet.

        Cache hits (an equal typed request, the same certified root)
        are answered locally with zero round trips and nothing encoded;
        the misses are encoded once and dispatched concurrently through
        the gateway, so a fleet of N busy replicas drains them ~N×
        faster than one.  Every answer is verified before it is
        returned or cached; an unverifiable one strikes the replica
        that gave it and the request is re-dispatched inside the
        gateway's per-item budget.  A client without a gateway
        (in-process, or connected and tip-only) cannot query:
        :class:`~repro.errors.ConfigError`.
        """
        if self.gateway is None:
            raise ConfigError("a client without a gateway cannot query")
        requests = list(requests)
        results = [self._cache_get(request) for request in requests]
        misses = [
            position for position, hit in enumerate(results) if hit is None
        ]
        if misses:
            asked = [requests[position] for position in misses]
            answers = self.gateway.call_many(
                "execute",
                asked,
                deadline_ms=deadline_ms,
                accept=lambda miss, answer: self._admit(asked[miss], answer),
                payloads=[self._wire.encode(request) for request in asked],
            )
            for position, answer in zip(misses, answers):
                results[position] = answer
        return results

    # -- the verified-answer cache ------------------------------------------

    def _admit(self, request, answer):
        """The one gate between the wire and the caller: ``answer`` is
        returned (and cached) only if it verifies against the certified
        index roots; otherwise it is counted and raised as a
        :class:`~repro.errors.ResponseIntegrityError`."""
        from repro.query.api import QueryAnswer

        if not (
            isinstance(answer, QueryAnswer)
            and self.verify_answer(request, answer)
        ):
            self.integrity_failures += 1
            raise ResponseIntegrityError(
                f"answer to {type(request).__name__} failed "
                "verification against the certified index roots"
            )
        # Verification passed, so the index's certified entry exists.
        height, root, _cert = self.state.indexes[request.index]
        self.cache.put(request, root, answer, height=height)
        return answer

    def _cache_get(self, request):
        held = self.state.indexes.get(getattr(request, "index", None))
        if held is None:
            return None
        return self.cache.get(request, held[1])


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
