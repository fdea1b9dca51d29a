"""Fig. 7 — Bootstrapping cost: storage (7a) and validation time (7b).

Sweeps the chain length and measures, at each checkpoint:

* the traditional light client's storage (all headers) and full-chain
  validation time — both linear in chain length;
* the FlyClient-style sampling client's proof size and verification
  time — logarithmic (related-work extension, §8.1);
* the DCert superlight client's storage (one header + one certificate)
  and validation time — constant.

The paper reports 2.97 KB / 0.14 ms constants on native crypto; our
absolute numbers differ (pure-Python ECDSA, compact simulated IAS
report) but the *constancy* and the linear/log/constant separation are
the reproduced results.  Rows extrapolating to the paper's 10^5 blocks
and Ethereum's 1.56x10^7 headers are derived from the measured
per-header costs.
"""

from __future__ import annotations

import time

from repro.baselines.flyclient import FlyClientProver, FlyClientVerifier
from repro.baselines.nipopow import NipopowProver, NipopowVerifier
from repro.bench.harness import CertifiedChainHarness
from repro.bench.reporting import print_table
from repro.chain.lightclient import LightClient
from repro.core.superlight import SuperlightClient
from repro.sgx.costs import cost_model_disabled


def _build_certified_chain(params):
    harness = CertifiedChainHarness(params, network="fig7")
    with cost_model_disabled():  # chain construction is not the metric
        harness.grow_workload(
            "KV", params.bootstrap_chain_lengths[-1], params.bootstrap_block_size
        )
    return harness


def _measure_light(harness, length):
    headers = harness.builder.headers()
    client = LightClient(headers[0], harness.builder.pow)
    started = time.perf_counter()
    client.bootstrap(headers[1 : length + 1])
    elapsed_ms = (time.perf_counter() - started) * 1000
    return client.storage_bytes(), elapsed_ms


def _measure_flyclient(harness, length):
    prover = FlyClientProver(harness.builder.headers()[: length + 1])
    proof = prover.bootstrap_proof(seed=7)
    verifier = FlyClientVerifier(harness.builder.pow)
    started = time.perf_counter()
    assert verifier.verify(proof)
    elapsed_ms = (time.perf_counter() - started) * 1000
    return proof.size_bytes(), elapsed_ms


def _measure_nipopow(harness, length):
    prover = NipopowProver(
        harness.builder.headers()[: length + 1], harness.builder.pow
    )
    proof = prover.bootstrap_proof(m=3, k=3)
    verifier = NipopowVerifier(harness.builder.pow)
    started = time.perf_counter()
    assert verifier.verify(proof)
    elapsed_ms = (time.perf_counter() - started) * 1000
    return proof.size_bytes(), elapsed_ms


def _measure_superlight(harness, length):
    certified = harness.issuer.certified[length - 1]
    client = SuperlightClient(
        harness.issuer.measurement, harness.ias.public_key
    )
    started = time.perf_counter()
    assert client.validate_chain(certified.block.header, certified.certificate)
    first_ms = (time.perf_counter() - started) * 1000
    # Steady state (report already checked once per enclave, §4.3): a
    # client that knows the enclave from the previous block meets this
    # tip for the first time.  Re-validating a tip it already holds
    # would time three memo lookups, not a validation.
    warm = _client_knowing_the_enclave(harness, length - 2)
    started = time.perf_counter()
    assert warm.validate_chain(certified.block.header, certified.certificate)
    steady_ms = (time.perf_counter() - started) * 1000
    return client.storage_bytes(), first_ms, steady_ms


def _client_knowing_the_enclave(harness, position):
    """A client whose only validation so far is block ``position``'s."""
    seen = harness.issuer.certified[position]
    client = SuperlightClient(harness.issuer.measurement, harness.ias.public_key)
    assert client.validate_chain(seen.block.header, seen.certificate)
    return client


def test_fig7_bootstrap_costs(params, benchmark):
    harness = _build_certified_chain(params)

    rows = []
    measured = {}
    for length in params.bootstrap_chain_lengths:
        light_bytes, light_ms = _measure_light(harness, length)
        fly_bytes, fly_ms = _measure_flyclient(harness, length)
        nipopow_bytes, nipopow_ms = _measure_nipopow(harness, length)
        sl_bytes, sl_first_ms, sl_steady_ms = _measure_superlight(harness, length)
        measured[length] = (light_bytes, light_ms, sl_bytes, sl_steady_ms)
        rows.append(
            [
                length,
                light_bytes,
                round(light_ms, 3),
                fly_bytes,
                round(fly_ms, 3),
                nipopow_bytes,
                round(nipopow_ms, 3),
                sl_bytes,
                round(sl_first_ms, 3),
                round(sl_steady_ms, 4),
            ]
        )

    # Extrapolate the linear baseline to paper / mainnet scales.
    longest = params.bootstrap_chain_lengths[-1]
    light_bytes, light_ms, sl_bytes, sl_ms = measured[longest]
    per_header_bytes = light_bytes / longest
    per_header_ms = light_ms / longest
    for target in (100_000, 15_600_000):
        rows.append(
            [
                f"{target:,}*",
                int(per_header_bytes * target),
                round(per_header_ms * target, 1),
                "-",
                "-",
                "-",
                "-",
                sl_bytes,
                "-",
                round(sl_ms, 4),
            ]
        )

    print_table(
        "Fig. 7 — bootstrapping cost vs chain length"
        " (* = extrapolated from measured per-header cost)",
        [
            "blocks",
            "light B (7a)",
            "light ms (7b)",
            "flyclient B",
            "flyclient ms",
            "nipopow B",
            "nipopow ms",
            "superlight B",
            "superlight ms (1st)",
            "superlight ms",
        ],
        rows,
    )

    # Reproduced claims: constant superlight cost, linear light client.
    storages = [measured[length][2] for length in params.bootstrap_chain_lengths]
    assert max(storages) - min(storages) <= 8
    first, last = params.bootstrap_chain_lengths[0], longest
    growth = measured[last][0] / measured[first][0]
    assert growth > 0.8 * (last / first)

    # pytest-benchmark target: steady-state superlight validation — each
    # round a client that knows the enclave validates a tip new to it.
    certified = harness.issuer.certified[-1]
    benchmark.pedantic(
        lambda client: client.validate_chain(
            certified.block.header, certified.certificate
        ),
        setup=lambda: ((_client_knowing_the_enclave(harness, -2),), {}),
        rounds=20,
    )
