"""Forged resilience wire fields: hostile deadlines and retry hints.

The overload machinery added two attacker-controllable fields to the
RPC envelopes: ``RpcRequest.deadline_ms`` and
``RpcResponse.retry_after_ms`` (plus the typed ``code``).  Neither is
certified material — verification of *answers* is covered by
``test_prop_mutations.py`` — so the properties here pin down the only
powers a forger gains from them:

* a forged **deadline** can make a server refuse work (its purpose),
  but never crashes the server, never produces a wrong reply, and
  refused requests do zero handler work;
* a forged **retry_after** hint is clamped: it never stalls a client
  (a call is one attempt and waits on no hint) and holds a circuit
  breaker open for at most the cap;
* a **single-byte mutation** of a wire-encoded response envelope —
  which can land in ``ok``, ``code``, or ``retry_after_ms`` just as
  well as in the payload — leaves the calling client in a bounded
  state: it returns, or raises a typed taxonomy error, within a
  virtual-time budget that the forged fields cannot extend.

Seeds and replay: see tests/proptest/framework.py.
"""

from __future__ import annotations

import math

from repro.errors import ReproError
from repro.net import wire
from repro.net.bus import MessageBus, NetworkNode
from repro.net.resilience import (
    RETRY_AFTER_CAP_MS,
    CircuitBreaker,
    clamp_retry_after,
    sanitize_deadline,
)
from repro.net.rpc import (
    RpcClient,
    RpcRequest,
    RpcResponse,
    RpcServer,
    rpc_topic,
)
from tests.proptest.framework import mutate_one_byte, run_cases


def _hostile_number(rng):
    """A value an attacker might plant in a numeric wire field."""
    return rng.choice([
        rng.uniform(-1e6, 1e6),
        rng.uniform(0.0, 1e18),
        -rng.uniform(0.0, 1e18),
        float("nan"),
        float("inf"),
        float("-inf"),
        0.0,
        -0.0,
        rng.randrange(-(2**63), 2**63),
        True,
        False,
        "soon",
        None,
    ])


def test_sanitize_and_clamp_bound_any_hostile_value():
    def prop(rng):
        value = _hostile_number(rng)
        deadline = sanitize_deadline(value)
        assert isinstance(deadline, float) and math.isfinite(deadline)
        assert deadline >= 0.0
        hint = clamp_retry_after(value)
        assert isinstance(hint, float) and math.isfinite(hint)
        assert 0.0 <= hint <= RETRY_AFTER_CAP_MS

    run_cases(prop)


def test_forged_deadline_only_refuses_never_wrong_answer():
    """Whatever rides in ``deadline_ms``, the server either serves the
    genuine echo or refuses with the typed ``net.deadline`` code — and
    a refusal never invokes the handler."""

    def prop(rng):
        bus = MessageBus(default_latency_ms=5.0)
        served = []
        server = RpcServer(bus, "server", service_time_ms=20.0)
        server.register(
            "echo", lambda argument: served.append(argument) or argument
        )
        client = RpcClient(bus, "client")
        bus.run_for(rng.uniform(0.0, 500.0))  # the clock an expiry races
        argument = rng.randrange(1_000_000)
        request_id = client.begin(
            "server", "echo", argument, deadline_ms=_hostile_number(rng)
        )
        bus.run_until_idle()
        response = client.take(request_id)
        assert response is not None, "forged deadline suppressed the reply"
        if response.ok:
            assert wire.decode(response.payload) == argument
            assert served == [argument]
        else:
            assert response.code == "net.deadline"
            assert served == []  # refusal cost zero handler work
            assert server.invocations.get("echo", 0) == 0

    run_cases(prop)


def test_forged_retry_after_delays_one_retry_at_most_the_cap():
    """An adversarial endpoint sheds every call with a hostile hint;
    the caller's virtual-time spend stays within its one attempt's
    budget — no forged value stalls it."""

    def prop(rng):
        bus = MessageBus(default_latency_ms=5.0)
        bus.join(NetworkNode("evil", record_limit=0))
        hint = _hostile_number(rng)

        def shed(message):
            if not isinstance(message, RpcRequest):
                return
            bus.send(
                "evil", message.sender, rpc_topic(message.sender),
                RpcResponse(
                    request_id=message.request_id, sender="evil", ok=False,
                    payload=wire.encode("shed"), code="net.overloaded",
                    retry_after_ms=hint,
                ),
            )

        bus._nodes["evil"].on(rpc_topic("evil"), shed)
        client = RpcClient(bus, "client", timeout_ms=50.0)
        started = bus.clock_ms
        try:
            client.call("evil", "work")
            raise AssertionError("an all-shedding endpoint answered ok")
        except ReproError:
            pass
        elapsed = bus.clock_ms - started
        budget = 50.0 + 2 * 5.0
        assert elapsed <= budget, (
            f"forged retry_after {hint!r} stalled the client {elapsed:.0f} ms"
        )

    run_cases(prop)


def test_forged_retry_after_cannot_park_a_breaker():
    def prop(rng):
        breaker = CircuitBreaker(str(rng.random()))
        now = rng.uniform(0.0, 1e6)
        for _ in range(CircuitBreaker.FAILURE_TRIP - 1):
            breaker.record_failure(now)
        breaker.record_failure(now, retry_after_ms=_hostile_number(rng))
        assert breaker.state == CircuitBreaker.OPEN
        ceiling = max(
            CircuitBreaker.OPEN_MAX_MS * (1.0 + CircuitBreaker.JITTER),
            RETRY_AFTER_CAP_MS,
        )
        assert now < breaker.reopen_at_ms <= now + ceiling

    run_cases(prop)


def test_response_envelope_single_byte_mutations_stay_bounded():
    """Flip one byte of a wire-encoded response envelope — hitting
    ``ok``/``code``/``retry_after_ms`` as readily as the payload — and
    hand the result to a live caller: the call must finish (value or
    typed error) within a budget the mutation cannot extend."""
    genuine = RpcResponse(
        request_id=1, sender="server", ok=False,
        payload=wire.encode("busy"), code="net.overloaded",
        retry_after_ms=35.0,
    )
    encoded = wire.encode(genuine)

    def prop(rng):
        mutated = mutate_one_byte(encoded, rng)
        try:
            corrupted = wire.decode(mutated)
        except ReproError:
            return  # rejected at the parse boundary
        if not isinstance(corrupted, RpcResponse):
            return
        bus = MessageBus(default_latency_ms=5.0)
        bus.join(NetworkNode("server", record_limit=0))

        def reply(message):
            if not isinstance(message, RpcRequest):
                return
            bus.send(
                "server", message.sender, rpc_topic(message.sender),
                # The forged envelope answers whatever id the client
                # used (a mutated request_id would just be a late
                # duplicate, which the client already drops).
                type(corrupted)(
                    request_id=message.request_id, sender=corrupted.sender,
                    ok=corrupted.ok, payload=corrupted.payload,
                    code=corrupted.code,
                    retry_after_ms=corrupted.retry_after_ms,
                ),
            )

        bus._nodes["server"].on(rpc_topic("server"), reply)
        client = RpcClient(bus, "client", timeout_ms=50.0)
        started = bus.clock_ms
        try:
            client.call("server", "work")
        except ReproError:
            pass  # typed taxonomy error: the safe outcome
        elapsed = bus.clock_ms - started
        budget = 50.0 + 2 * 5.0
        assert elapsed <= budget, (
            f"mutated envelope stalled the client {elapsed:.0f} ms"
        )

    run_cases(prop)
