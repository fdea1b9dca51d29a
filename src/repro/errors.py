"""Exception hierarchy shared across the DCert reproduction.

Every subsystem raises subclasses of :class:`ReproError` so callers can
catch library failures without catching programming errors.  Verification
failures deliberately carry a human-readable reason: in the paper's threat
model the CI and SP are untrusted, so "why did verification fail" is part
of the observable behaviour that tests assert on.

Every class additionally carries a **stable wire code** (``code``) and a
**retryability flag** (``retryable``).  The RPC layer puts the code in
:class:`repro.net.rpc.RpcResponse` so a remote failure crosses the
network as a typed member of this taxonomy rather than a stringly-typed
payload, and the gateway's failover uses ``retryable`` to separate
transport faults worth another attempt (timeouts, unreachable or
overloaded endpoints) from terminal failures that no amount of retrying
fixes (a query against a missing index, a certificate that does not
verify).  Codes are part of the wire contract: renaming one is a
protocol change.
"""

from __future__ import annotations

from typing import ClassVar


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""

    #: Stable identifier used on the wire (see :func:`code_for`).
    code: ClassVar[str] = "error"
    #: Whether a retry or failover may plausibly succeed.  Transport
    #: faults are retryable; semantic/verification failures are not.
    retryable: ClassVar[bool] = False


class CryptoError(ReproError):
    """A cryptographic operation failed (bad key, malformed signature...)."""

    code = "crypto"


class SignatureError(CryptoError):
    """A signature failed to verify."""

    code = "crypto.signature"


class ProofError(ReproError):
    """An authenticated-structure proof failed to verify."""

    code = "proof"


class StateError(ReproError):
    """Blockchain state is inconsistent with what a block commits to."""

    code = "state"


class ConsensusError(ReproError):
    """A consensus rule was violated (difficulty, chain selection...)."""

    code = "consensus"


class BlockValidationError(ReproError):
    """A block failed structural or semantic validation."""

    code = "block"


class TransactionError(ReproError):
    """A transaction is malformed, unauthorized, or failed to execute."""

    code = "transaction"


class EnclaveError(ReproError):
    """The (simulated) SGX enclave rejected an operation."""

    code = "enclave"


class AttestationError(EnclaveError):
    """Remote attestation failed (bad quote, wrong measurement...)."""

    code = "enclave.attestation"


class CertificateError(ReproError):
    """A DCert certificate failed construction or verification."""

    code = "certificate"


class QueryError(ReproError):
    """A verifiable query failed processing or result verification."""

    code = "query"


class StorageError(ReproError):
    """Base class for durable-archive (WAL/checkpoint) failures."""

    code = "storage"


class ArchiveFormatError(StorageError):
    """The archive violates its structural contract (bad magic, head
    record missing/duplicated/out of place, non-consecutive heights)."""

    code = "storage.format"


class ArchiveCorruptionError(StorageError):
    """Archive bytes are present but wrong (CRC mismatch, undecodable
    record) — corruption or tampering, distinct from a torn tail, which
    is a normal crash artifact and repaired by truncation."""

    code = "storage.corruption"


class ConfigError(ReproError):
    """A component was constructed or configured incoherently.

    Raised before any protocol work happens (a client config mixing
    local- and remote-mode settings, a schedule generator asked for an
    unknown profile), so never retryable: the caller's arguments are
    wrong and will be wrong again."""

    code = "config"


class NetworkError(ReproError):
    """Base class for failures in the simulated network / RPC layer."""

    code = "net"
    retryable = True


class BusError(NetworkError):
    """The simulated message bus was mis-wired (duplicate or unknown
    node names).

    Not retryable, despite being a :class:`NetworkError`: topology is
    static once built, so re-sending to a node that is not wired will
    deterministically fail again."""

    code = "net.bus"
    retryable = False


class WireError(NetworkError):
    """A message could not be encoded to or decoded from wire bytes."""

    code = "net.wire"


class RpcTimeoutError(NetworkError):
    """An RPC call got no response within its timeout."""

    code = "net.timeout"


class ServiceUnavailableError(NetworkError):
    """Every candidate service endpoint failed within a bounded number
    of dispatches."""

    code = "net.unavailable"


class ResponseIntegrityError(NetworkError):
    """A response arrived but failed integrity checks (corrupted wire
    bytes, mismatched request echo, or proof verification against the
    certified roots) — the paper's untrusted-SP threat model surfacing
    at the network layer."""

    code = "net.integrity"


class RemoteCallError(NetworkError):
    """The remote endpoint reported a failure that has no local
    exception type to map back onto.

    Not retryable, despite being a :class:`NetworkError`: the endpoint
    *answered* — repeating the identical request will deterministically
    fail the same way (e.g. an unknown method)."""

    code = "net.remote"
    retryable = False


class OverloadedError(NetworkError):
    """The endpoint is alive but shed this request under load.

    Retryable, but not at the same endpoint right away: the server
    attaches a ``retry_after_ms`` hint (how long until its admission
    queue should drain back under the shed threshold) and the gateway
    fails over and keeps the replica's breaker open at least that long
    — clamped, since the hint crosses the wire from an untrusted
    endpoint.  Immediate re-sends are exactly the amplification that
    turns a load spike into a metastable failure."""

    code = "net.overloaded"

    def __init__(self, message: str = "", *, retry_after_ms: float = 0.0) -> None:
        super().__init__(message)
        #: Server-suggested quiet period for this endpoint.  Advisory and
        #: untrusted: consumers clamp it (see
        #: :func:`repro.net.resilience.clamp_retry_after`).
        self.retry_after_ms = retry_after_ms


class DeadlineExceededError(NetworkError):
    """The request's propagated deadline expired before an answer.

    Not retryable, despite being transport-class: the time budget is a
    property of the *call*, not the endpoint — re-sending the same
    expired deadline deterministically fails again, and minting a fresh
    deadline is the caller's decision."""

    code = "net.deadline"
    retryable = False


# -- the code registry --------------------------------------------------------


def _walk(cls: type[ReproError]):
    yield cls
    for sub in cls.__subclasses__():
        yield from _walk(sub)


#: code -> class, for every error defined above.  Subclasses that do not
#: declare their own ``code`` inherit their parent's, so the parent (the
#: first registrant) wins the mapping — decoding stays within the
#: taxonomy even for codes minted after this build.
ERROR_CODES: dict[str, type[ReproError]] = {}
for _cls in _walk(ReproError):
    ERROR_CODES.setdefault(_cls.code, _cls)
del _cls


def code_for(exc: BaseException | type[BaseException]) -> str:
    """The stable wire code for ``exc`` (class or instance)."""
    cls = exc if isinstance(exc, type) else type(exc)
    if issubclass(cls, ReproError):
        return cls.code
    return RemoteCallError.code


def error_for_code(code: object) -> type[ReproError]:
    """The local class a wire code maps back onto.

    Unknown or missing codes map to :class:`RemoteCallError` — a remote
    endpoint running newer code must degrade to "some remote failure",
    never crash the client.
    """
    if isinstance(code, str):
        known = ERROR_CODES.get(code)
        if known is not None:
            return known
    return RemoteCallError
