"""The unified light-client surface: one protocol, one entry point.

Both client flavors — the in-process :class:`SuperlightClient` and the
networked :class:`RemoteSuperlightClient` — expose the same contract,
captured here as a :class:`typing.Protocol` so call sites can be
written once against :class:`LightClient` and handed either flavor.
Since the push tier landed, the contract covers *staying* at the tip
too: ``on_tip``/``subscribe``/``unsubscribe`` are part of the protocol,
implemented by the local client as a direct issuer callback and by the
remote client as a hub subscription (:mod:`repro.net.pubsub`).

The protocol is ``runtime_checkable``: ``isinstance(obj, LightClient)``
verifies (structurally) that every member is present, which is what the
conformance tests assert for both implementations.

Construction goes through one factory::

    from repro.core.client_api import ClientConfig, connect

    client = connect(ClientConfig(
        measurement=measurement,
        ias_public_key=ias.public_key,
        bus=bus, name="wallet",
        issuers=("ci",), gateway=gateway, hub="ci",
        bootstrap=True, subscribe=True,
    ))

:func:`connect` builds every client shape uniformly — local
(``bus=None``), remote tip-only, remote gateway-fronted, and
subscribing — and is the only way to build a remote one:
:class:`~repro.core.superlight.RemoteSuperlightClient` takes a
:class:`ClientConfig` and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

from repro.chain.block import BlockHeader
from repro.core.certificate import Certificate
from repro.crypto import PublicKey
from repro.crypto.hashing import Digest
from repro.errors import ConfigError
from repro.query.api import QueryAnswer, QueryRequest


@runtime_checkable
class LightClient(Protocol):
    """What every DCert light client can do, regardless of transport."""

    @property
    def latest_header(self) -> BlockHeader | None:
        """The adopted chain tip's header (None before bootstrap)."""
        ...

    def validate_chain(self, header: BlockHeader, cert: Certificate) -> bool:
        """Alg. 3: adopt a candidate certified tip if it wins chain
        selection; raise :class:`~repro.errors.CertificateError` when
        the certificate is invalid."""
        ...

    def verify_answer(self, request: QueryRequest, answer: QueryAnswer) -> bool:
        """Check a typed query answer against the certified index roots."""
        ...

    def certified_index_root(self, name: str) -> Digest:
        """The latest certified root of index ``name``; raises
        :class:`~repro.errors.CertificateError` when none is held."""
        ...

    def storage_bytes(self) -> int:
        """The client's durable state size — the paper's constant budget."""
        ...

    # -- the streaming surface (push-based tip propagation) ------------------

    def on_tip(
        self, callback: Callable[[BlockHeader, Certificate], object]
    ) -> Callable[[BlockHeader, Certificate], object]:
        """Register ``callback(header, certificate)`` to fire whenever a
        new certified tip is adopted (pushed, pulled, or validated
        directly).  Returns the callback, decorator-style."""
        ...

    def subscribe(self, source: object | None = None) -> None:
        """Start receiving certified tips as they are issued.  A local
        client attaches directly to an issuer's ``on_certified`` hook
        (pass it as ``source``); a remote client subscribes to its
        configured :class:`~repro.net.pubsub.SubscriptionHub`."""
        ...

    def unsubscribe(self) -> None:
        """Stop receiving pushed tips (idempotent)."""
        ...


@dataclass(frozen=True, slots=True)
class ClientConfig:
    """Everything needed to build any light-client shape.

    ``measurement`` and ``ias_public_key`` are the trust anchors every
    client needs.  ``bus=None`` selects the in-process
    :class:`~repro.core.superlight.SuperlightClient`; with a bus the
    factory builds a :class:`~repro.core.superlight
    .RemoteSuperlightClient` that queries through its ``gateway`` (one
    replica is a fleet of one; none makes a tip-only client).  ``hub``
    names a :class:`~repro.net.pubsub.SubscriptionHub` endpoint for push
    sync; ``issuer`` is a local in-process issuer the local client can
    subscribe to directly.
    """

    measurement: Digest
    ias_public_key: PublicKey
    # -- transport (remote modes) --
    bus: object | None = None
    name: str = "client"
    issuers: tuple[str, ...] = ()
    gateway: object | None = None
    hub: str | None = None
    policy: object | None = None
    cache_capacity: int = 128
    # -- overload resilience (remote modes) --
    #: Serve a previously-verified answer flagged ``stale=True`` when
    #: the whole serving tier sheds or the deadline budget runs out,
    #: instead of raising.  Off by default: staleness is an explicit
    #: opt-in (see docs/overload.md for the contract).
    degrade_to_stale: bool = False
    # -- local mode --
    issuer: object | None = None
    # -- post-construction steps --
    bootstrap: bool = False
    subscribe: bool = False

    def validate(self) -> None:
        if self.bus is not None and not self.issuers:
            raise ConfigError("a remote client needs at least one issuer")
        if self.bus is None and (self.gateway or self.hub):
            raise ConfigError("gateway/hub are remote-mode settings; pass a bus")
        if self.issuer is not None and (
            self.bus is not None or self.gateway is not None
        ):
            raise ConfigError(
                "issuer= is the local-mode hook; a remote client names "
                "issuers= endpoints instead"
            )
        if self.subscribe and self.bus is not None and self.hub is None:
            raise ConfigError("subscribe=True needs a hub endpoint")
        if self.subscribe and self.bus is None and self.issuer is None:
            raise ConfigError("a local subscribing client needs issuer=")


def connect(config: ClientConfig) -> LightClient:
    """Build (and optionally bootstrap + subscribe) a light client.

    The canonical entry point: every client shape — local, remote
    tip-only, remote gateway-fronted, subscribing — comes out of
    this one factory, already wired per ``config``.
    """
    from repro.core.superlight import RemoteSuperlightClient, SuperlightClient

    config.validate()
    if config.bus is None:
        local = SuperlightClient(config.measurement, config.ias_public_key)
        if config.subscribe:
            local.subscribe(config.issuer)
        return local
    client = RemoteSuperlightClient(config)
    if config.bootstrap:
        client.bootstrap()
    if config.subscribe:
        client.subscribe()
    return client
