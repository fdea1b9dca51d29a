"""Sealed storage: data bound to (platform, measurement)."""

import hashlib
import hmac

import pytest

from repro.crypto.hashing import sha256
from repro.errors import EnclaveError
from repro.sgx.platform import SGXPlatform
from repro.sgx.sealing import seal, unseal


@pytest.fixture()
def platform():
    return SGXPlatform(seed=b"seal-tests")


MEASUREMENT = sha256(b"program-identity")


def test_seal_unseal_roundtrip(platform):
    sealed = seal(platform, MEASUREMENT, b"secret key material")
    assert unseal(platform, MEASUREMENT, sealed) == b"secret key material"


def test_ciphertext_hides_plaintext(platform):
    sealed = seal(platform, MEASUREMENT, b"secret key material")
    assert b"secret" not in sealed


def test_other_platform_cannot_unseal(platform):
    sealed = seal(platform, MEASUREMENT, b"data")
    other = SGXPlatform(seed=b"other-machine")
    with pytest.raises(EnclaveError):
        unseal(other, MEASUREMENT, sealed)


def test_other_program_cannot_unseal(platform):
    sealed = seal(platform, MEASUREMENT, b"data")
    with pytest.raises(EnclaveError):
        unseal(platform, sha256(b"different-program"), sealed)


def test_tampered_blob_rejected(platform):
    sealed = bytearray(seal(platform, MEASUREMENT, b"data"))
    sealed[20] ^= 1
    with pytest.raises(EnclaveError):
        unseal(platform, MEASUREMENT, bytes(sealed))


def test_truncated_blob_rejected(platform):
    with pytest.raises(EnclaveError):
        unseal(platform, MEASUREMENT, b"short")


def test_empty_plaintext(platform):
    sealed = seal(platform, MEASUREMENT, b"")
    assert unseal(platform, MEASUREMENT, sealed) == b""


def _pinned_plaintext(length: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(
            b"seal-pin-plaintext" + counter.to_bytes(4, "big")
        ).digest()
        counter += 1
    return bytes(out[:length])


@pytest.mark.parametrize(
    "seed, program, length, blob_sha256",
    [
        # Recorded with the quadratic per-byte implementation (PR 15's
        # tree) before the keystream went linear: sealed bytes are a
        # format, archives on disk depend on them.
        (b"seal-pin-a", b"program-identity", 0,
         "83d60f24a147f95344a2f40ca588df53a461832f61e5d9ce6ad540d79544cd6f"),
        (b"seal-pin-a", b"program-identity", 31,
         "926259cbd99708034bd50b209ba72b8b3fb5a62ba34be72bc59aa2738f782193"),
        (b"seal-pin-b", b"program-identity", 32,
         "a829202726992fcd1520a45de834c86263e1f397e55f7c33db89d6d25b08d726"),
        (b"seal-pin-b", b"other-program", 33,
         "edfe79b1c31c616f3d6b73613a30cc2e5e50014b7d2980f8d17c29795f56f8ca"),
        (b"seal-pin-c", b"other-program", 200_003,
         "c5cd7a157b0e7904e674baf388b2daf1f7ae2f614c5b078cd760e8c0b5a60032"),
    ],
)
def test_sealed_bytes_are_pinned(seed, program, length, blob_sha256):
    pinned_platform = SGXPlatform(seed=seed)
    plaintext = _pinned_plaintext(length)
    sealed = seal(pinned_platform, sha256(program), plaintext)
    assert hashlib.sha256(sealed).hexdigest() == blob_sha256
    assert unseal(pinned_platform, sha256(program), sealed) == plaintext


def test_sealing_work_is_linear_in_the_blob(platform, monkeypatch):
    """One HMAC per 32 keystream bytes plus a constant (key derivation,
    MAC) — a count, not a time: the old keystream re-summed its blocks
    on every step and was quadratic."""
    calls = 0
    real_new = hmac.new

    def counting_new(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real_new(*args, **kwargs)

    monkeypatch.setattr(hmac, "new", counting_new)
    plaintext = bytes(1 << 20)
    sealed = seal(platform, MEASUREMENT, plaintext)
    assert calls <= (1 << 20) // 32 + 4
    calls = 0
    assert unseal(platform, MEASUREMENT, sealed) == plaintext
    assert calls <= (1 << 20) // 32 + 4


def test_ci_restart_with_sealed_key_keeps_pk_enc(kv_chain):
    """A restarted CI that unseals its key keeps the same pk_enc, so
    clients do not need to re-check a new attestation report."""
    from repro.chain.genesis import make_genesis
    from repro.core.issuer import CertificateIssuer
    from repro.sgx.attestation import AttestationService
    from tests.conftest import fresh_vm

    ias = AttestationService(seed=b"seal-ias")
    platform = SGXPlatform(seed=b"seal-ci")
    genesis, state = make_genesis()
    first = CertificateIssuer(
        genesis, state, fresh_vm(), kv_chain.pow,
        ias=ias, platform=platform, key_seed=b"seal-key",
    )
    for block in kv_chain.blocks[1:3]:
        first.process_block(block)
    sealed = first.seal_signing_key()

    genesis2, state2 = make_genesis()
    restarted = CertificateIssuer(
        genesis2, state2, fresh_vm(), kv_chain.pow,
        ias=ias, platform=platform, sealed_key=sealed,
    )
    assert restarted.pk_enc == first.pk_enc
    assert restarted.measurement == first.measurement

    # ...and the restarted CI continues certifying from genesis state
    # with certificates clients accept under the same report data.
    from repro.core.superlight import SuperlightClient

    client = SuperlightClient(first.measurement, ias.public_key)
    for block in kv_chain.blocks[1:4]:
        certified = restarted.process_block(block)
    assert client.validate_chain(certified.block.header, certified.certificate)
    assert len(client._verified_reports) == 1


def test_sealed_key_useless_on_other_platform(kv_chain):
    from repro.chain.genesis import make_genesis
    from repro.core.issuer import CertificateIssuer
    from repro.sgx.attestation import AttestationService
    from tests.conftest import fresh_vm

    ias = AttestationService(seed=b"seal-ias-2")
    platform = SGXPlatform(seed=b"seal-ci-2")
    genesis, state = make_genesis()
    first = CertificateIssuer(
        genesis, state, fresh_vm(), kv_chain.pow,
        ias=ias, platform=platform, key_seed=b"seal-key-2",
    )
    sealed = first.seal_signing_key()
    genesis2, state2 = make_genesis()
    with pytest.raises(EnclaveError):
        CertificateIssuer(
            genesis2, state2, fresh_vm(), kv_chain.pow,
            ias=ias, platform=SGXPlatform(seed=b"thief"), sealed_key=sealed,
        )
