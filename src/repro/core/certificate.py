"""The DCert certificate: ``<pk_enc, rep, dig, sig>`` (§3.3).

One object serves both roles — block certificate (``dig = H(hdr)``) and
index certificate (``dig = H(hdr || H_idx)``).  The serialization is a
stable byte encoding so that the superlight client's storage (the
paper's 2.97 KB constant) is measured honestly.
:func:`verify_certificate` is the only check of one, shared by the
superlight client and the enclave program.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass

from repro.chain.block import EncodedSize
from repro.crypto import PublicKey, Signature, pin_verification_key, verify
from repro.crypto.hashing import Digest
from repro.errors import CertificateError
from repro.sgx.attestation import AttestationReport

#: Signature domain for certificate digests (block and index alike).
CERT_SIG_DOMAIN = "dcert-cert"


@dataclass(frozen=True, slots=True)
class Certificate(EncodedSize):
    """A certificate issued by a CI's enclave."""

    pk_enc: PublicKey
    report: AttestationReport
    dig: Digest
    sig: Signature

    def encode(self) -> bytes:
        """Stable wire encoding (used for storage accounting)."""
        return json.dumps(
            {
                "pk_enc": self.pk_enc.to_bytes().hex(),
                "rep": {
                    "measurement": self.report.measurement.hex(),
                    "report_data": self.report.report_data.hex(),
                    "ias_key": self.report.ias_key.to_bytes().hex(),
                    "sig": self.report.signature.to_bytes().hex(),
                },
                "dig": self.dig.hex(),
                "sig": self.sig.to_bytes().hex(),
            },
            sort_keys=True,
        ).encode("utf-8")

    @classmethod
    def decode(cls, data: bytes) -> "Certificate":
        try:
            raw = json.loads(data.decode("utf-8"))
            rep = raw["rep"]
            return cls(
                pk_enc=PublicKey.from_bytes(bytes.fromhex(raw["pk_enc"])),
                report=AttestationReport(
                    measurement=bytes.fromhex(rep["measurement"]),
                    report_data=bytes.fromhex(rep["report_data"]),
                    ias_key=PublicKey.from_bytes(bytes.fromhex(rep["ias_key"])),
                    signature=Signature.from_bytes(bytes.fromhex(rep["sig"])),
                ),
                dig=bytes.fromhex(raw["dig"]),
                sig=Signature.from_bytes(bytes.fromhex(raw["sig"])),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise CertificateError(f"malformed certificate encoding: {exc}") from exc


class VerifiedMemo(OrderedDict):
    """What one verifier (a client, an enclave) has already checked, so
    that it checks each fact once.  The mapping itself is the LRU of
    attestation reports that checked out; ``signatures`` is the LRU of
    certificate signatures that verified.  :func:`verify_certificate`
    decides the keys and when to admit; this class only bounds the two.
    Derived state in the owner's memory: empty in every new client and
    every launched or recovered enclave, never sealed, checkpointed,
    serialized or counted as storage.
    """

    #: An issuer meets about (indexes + 2) of its own certificates again
    #: per block, a polling client its (indexes + 1) held ones.
    SIGNATURES_LIMIT = 16

    def __init__(self, reports_limit: int) -> None:
        super().__init__()
        self.reports_limit = reports_limit
        self.signatures: OrderedDict[tuple[bytes, ...], None] = OrderedDict()

    def admit_report(self, report_id: tuple[bytes, ...]) -> None:
        self[report_id] = None
        while len(self) > self.reports_limit:
            self.popitem(last=False)

    def admit_signature(self, signed: tuple[bytes, ...]) -> None:
        self.signatures[signed] = None
        while len(self.signatures) > self.SIGNATURES_LIMIT:
            self.signatures.popitem(last=False)


def verify_certificate(
    measurement: Digest,
    ias_public_key: PublicKey,
    cert: Certificate,
    expected_dig: Digest,
    verified: VerifiedMemo,
) -> None:
    """The one certificate check (Alg. 3 lines 3–7 for a client, Alg. 2
    lines 25–32 as the enclave's ``cert_verify_t``); raises
    :class:`CertificateError` unless every check passes.

    ``verified`` is the caller's memo of attestation reports that
    already checked out (a report is checked "only once for the same
    enclave", §3.3/§4.3) and of certificate signatures that already
    verified.  A report is admitted once ``pk_enc`` also matches it;
    then, never earlier, ``pk_enc``'s table is pinned.
    Each memo key binds every input the skipped check would have read —
    (measurement, report_data, IAS key, signature) for a report, since a
    signature-only key would let a report with a tampered measurement
    but a replayed signature ride the memo; (pk_enc, dig, sig) for a
    certificate signature, admitted only after it verified.  The
    binding and digest comparisons run on every call.
    """
    report = cert.report
    report_id = (
        report.measurement,
        report.report_data,
        report.ias_key.to_bytes(),
        report.signature.to_bytes(),
    )
    admitted = report_id in verified
    if admitted:
        verified.move_to_end(report_id)
    else:
        if not report.verify(ias_public_key):
            raise CertificateError("attestation report not signed by the IAS")
        if report.measurement != measurement:
            raise CertificateError("certificate from an unexpected enclave program")
    pk_enc = cert.pk_enc.to_bytes()
    if pk_enc != report.report_data:
        raise CertificateError("pk_enc does not match the attestation report")
    if not admitted:
        # pk_enc is authenticated only now; every later tip is signed by it.
        verified.admit_report(report_id)
        pin_verification_key(cert.pk_enc)
    signed = (pk_enc, cert.dig, cert.sig.to_bytes())
    if signed in verified.signatures:
        verified.signatures.move_to_end(signed)
    elif verify(cert.pk_enc, cert.dig, cert.sig, CERT_SIG_DOMAIN):
        verified.admit_signature(signed)
    else:
        raise CertificateError("certificate signature invalid")
    if cert.dig != expected_dig:
        raise CertificateError("certificate digest does not match")
