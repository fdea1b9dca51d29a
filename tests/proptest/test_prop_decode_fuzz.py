"""The chain and certificate decoders, fuzzed: garbage in, library
exceptions out.

Every ``decode`` must fail *cleanly* on arbitrary bytes — a
:class:`ReproError`, never a bare ``KeyError`` / ``TypeError`` / ``json``
exception — and every strict prefix of a valid encoding must fail.  This
is what lets network-facing code treat decoding failures uniformly.
Seeds and replay: tests/proptest/framework.py.
"""

from __future__ import annotations

import pytest

from repro.chain.block import BlockHeader, decode_block, encode_block
from repro.chain.transaction import Transaction
from repro.core.certificate import Certificate
from repro.errors import ReproError
from tests.proptest.framework import blob, run_cases

_JSONISH = '{}[]":,abc0123456789'


@pytest.fixture(scope="module")
def valid(kv_chain, certified_setup):
    """``name -> (decoder, a valid encoding, the value it decodes to)``."""
    block = kv_chain.blocks[1]
    certificate = certified_setup["issuer"].certified[-1].certificate
    return {
        "header": (BlockHeader.decode, block.header.encode(), block.header),
        "transaction": (Transaction.decode, block.transactions[0].encode(), block.transactions[0]),
        "block": (decode_block, encode_block(block), block),
        "certificate": (Certificate.decode, certificate.encode(), certificate),
    }


@pytest.mark.parametrize("name", ["block", "certificate", "header", "transaction"])
def test_decode_never_leaks(valid, name):
    decode, encoded, _value = valid[name]

    def prop(rng):
        for _ in range(6):
            for data in (
                blob(rng, 0, 200),
                "".join(rng.choices(_JSONISH, k=rng.randrange(81))).encode(),
            ):
                try:
                    decode(data)
                except ReproError:
                    pass
        with pytest.raises(ReproError):
            decode(encoded[: rng.randrange(len(encoded))])

    run_cases(prop)


def test_valid_roundtrips_still_work(valid):
    """The fuzz property must not be satisfied by rejecting everything."""
    for decode, encoded, value in valid.values():
        assert decode(encoded) == value
