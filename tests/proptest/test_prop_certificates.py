"""Certificate handling under corruption: a corrupted certificate is
never accepted, and it fails with the certificate layer's own errors —
``CertificateError`` / ``CryptoError`` when it no longer decodes,
``CertificateError`` from ``validate_chain`` when it does.  (The
acceptance-only single-byte property over every certified artifact is
tests/proptest/test_prop_mutations.py.)  Seeds and replay:
tests/proptest/framework.py.
"""

from __future__ import annotations

import pytest

from repro.core.certificate import Certificate
from repro.core.superlight import SuperlightClient
from repro.errors import CertificateError, CryptoError
from tests.proptest.framework import mutate_one_byte, run_cases


@pytest.fixture(scope="module")
def accepted(certified_setup):
    tip = certified_setup["issuer"].certified[-1]
    client = SuperlightClient(
        certified_setup["issuer"].measurement,
        certified_setup["ias"].public_key,
    )
    assert client.validate_chain(tip.block.header, tip.certificate)
    return {"tip": tip, "client": client, "wire": tip.certificate.encode()}


def test_any_single_byte_corruption_is_rejected(accepted):
    tip = accepted["tip"]

    def prop(rng):
        try:
            corrupted = Certificate.decode(mutate_one_byte(accepted["wire"], rng))
        except (CertificateError, CryptoError):
            return  # malformed encodings must fail to parse — fine
        if corrupted == tip.certificate:
            return  # same meaning, not a forgery
        fresh = SuperlightClient(
            accepted["client"].expected_measurement,
            accepted["client"].ias_public_key,
        )
        with pytest.raises(CertificateError):
            fresh.validate_chain(tip.block.header, corrupted)

    run_cases(prop)


def test_truncated_certificates_rejected(accepted):
    wire = accepted["wire"]
    for end in range(len(wire)):
        with pytest.raises((CertificateError, CryptoError)):
            Certificate.decode(wire[:end])
