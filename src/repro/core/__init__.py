"""DCert core: the paper's contribution.

* :mod:`certificate` — the certificate object ``<pk_enc, rep, dig, sig>``
  (§3.3) and its serialization (the 2.97 KB a superlight client stores).
* :mod:`digest` — the digests certificates sign: ``H(hdr)`` for block
  certificates, ``H(hdr || H_idx)`` for index certificates.
* :mod:`updateproof` — the update proof ``pi_i = ({r}_i, pi_r, pi_w)``
  shipped into the enclave (§4.1).
* :mod:`enclave_program` — the in-enclave program: ``ecall_sig_gen``,
  ``blk_verify_t``, ``cert_verify_t`` (Alg. 2), plus the augmented
  (Alg. 4) and hierarchical (Alg. 5) entry points.
* :mod:`issuer` — the CI's outside-enclave side: ``gen_cert`` (Alg. 1),
  the index-certification drivers, and the networked ``IssuerService``.
* :mod:`superlight` — the superlight client: ``validate_chain``
  (Alg. 3) and verifiable-query result checking, locally
  (``SuperlightClient``) or over RPC with failover
  (``RemoteSuperlightClient``).
* :mod:`client_api` — the :class:`LightClient` protocol both client
  flavors implement (one verification + streaming surface, two
  transports), plus :class:`ClientConfig` and the :func:`connect`
  factory — the canonical way to build any client shape.
"""

from repro.core.certificate import Certificate
from repro.core.client_api import ClientConfig, LightClient, connect
from repro.core.digest import block_digest, index_digest
from repro.core.enclave_program import DCertEnclaveProgram
from repro.core.issuer import CertificateIssuer, CertifiedTip, IssuerService
from repro.core.recovery import (
    DurableIssuer,
    IssuerCheckpoint,
    RecoveryReport,
    recover_issuer,
)
from repro.core.statesync import StateSnapshot, bootstrap_full_node, export_snapshot
from repro.core.superlight import (
    RemoteSuperlightClient,
    SuperlightClient,
    compute_expected_measurement,
)
from repro.core.updateproof import UpdateProof

__all__ = [
    "Certificate",
    "CertificateIssuer",
    "CertifiedTip",
    "ClientConfig",
    "DCertEnclaveProgram",
    "DurableIssuer",
    "IssuerCheckpoint",
    "IssuerService",
    "LightClient",
    "RecoveryReport",
    "RemoteSuperlightClient",
    "StateSnapshot",
    "SuperlightClient",
    "UpdateProof",
    "recover_issuer",
    "block_digest",
    "connect",
    "bootstrap_full_node",
    "compute_expected_measurement",
    "export_snapshot",
    "index_digest",
]
