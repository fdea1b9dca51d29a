"""The constant-cost claim, verified at the operation level.

Fig. 7's benches show wall-clock constancy; these tests pin the
stronger structural invariant: the number of cryptographic operations a
superlight client performs per tip validation does not depend on chain
length at all (and drops once the attestation report is cached).
"""

import pytest

import repro.crypto.ecdsa as ecdsa_module
from repro.core.superlight import SuperlightClient


class _OpCounter:
    def __init__(self, monkeypatch):
        self.verifies = 0
        original = ecdsa_module.verify_digest

        def counting(*args, **kwargs):
            self.verifies += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(ecdsa_module, "verify_digest", counting)

    def reset(self):
        self.verifies = 0


@pytest.fixture()
def counter(monkeypatch):
    return _OpCounter(monkeypatch)


def test_first_validation_costs_two_verifies(certified_setup, counter):
    """Report signature + certificate signature: exactly two."""
    tip = certified_setup["issuer"].certified[-1]
    client = SuperlightClient(
        certified_setup["issuer"].measurement, certified_setup["ias"].public_key
    )
    counter.reset()
    client.validate_chain(tip.block.header, tip.certificate)
    assert counter.verifies == 2


def test_steady_state_costs_one_verify(certified_setup, counter):
    """With the report cached (§4.3), only the certificate signature —
    and nothing at all for a tip the client has already validated."""
    previous, tip = certified_setup["issuer"].certified[-2:]
    client = SuperlightClient(
        certified_setup["issuer"].measurement, certified_setup["ias"].public_key
    )
    client.validate_chain(previous.block.header, previous.certificate)
    counter.reset()
    client.validate_chain(tip.block.header, tip.certificate)
    assert counter.verifies == 1
    counter.reset()
    client.validate_chain(tip.block.header, tip.certificate)
    assert counter.verifies == 0


def test_cost_independent_of_chain_position(certified_setup, counter):
    """Validating the tip of a longer prefix costs the same ops."""
    client = SuperlightClient(
        certified_setup["issuer"].measurement, certified_setup["ias"].public_key
    )
    costs = []
    for certified in certified_setup["issuer"].certified:
        fresh = SuperlightClient(
            certified_setup["issuer"].measurement,
            certified_setup["ias"].public_key,
        )
        counter.reset()
        fresh.validate_chain(certified.block.header, certified.certificate)
        costs.append(counter.verifies)
    assert len(set(costs)) == 1  # identical at every height


def test_light_client_cost_grows_with_chain(certified_setup):
    """Contrast: the baseline's validation work is linear (hash count
    proxied by header count, no crypto monkeypatching needed)."""
    from repro.chain.lightclient import LightClient

    chain = certified_setup["chain"]
    client = LightClient(chain.genesis.header, chain.pow)
    client.bootstrap(chain.headers()[1:])
    assert len(client.headers) == chain.height + 1
