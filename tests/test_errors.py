"""The error taxonomy's wire contract (what rule ERR01 enforces
statically, exercised dynamically): every class round-trips through
its stable code, codes are unique, and retryability survives the trip.
"""

import pytest

from repro import errors
from repro.errors import (
    BusError,
    ConfigError,
    ERROR_CODES,
    RemoteCallError,
    ReproError,
    code_for,
    error_for_code,
)


def taxonomy_classes():
    seen = []

    def walk(cls):
        seen.append(cls)
        for sub in cls.__subclasses__():
            if sub.__module__ == errors.__name__:
                walk(sub)

    walk(ReproError)
    return seen


@pytest.mark.parametrize(
    "cls", taxonomy_classes(), ids=lambda cls: cls.__name__
)
def test_every_class_round_trips_through_its_code(cls):
    assert "code" in cls.__dict__, f"{cls.__name__} has no code of its own"
    assert error_for_code(code_for(cls)) is cls
    assert error_for_code(cls.code).retryable == cls.retryable


def test_codes_are_unique_across_the_taxonomy():
    codes = [cls.code for cls in taxonomy_classes()]
    assert len(codes) == len(set(codes))
    assert set(codes) == set(ERROR_CODES)


def test_unknown_codes_decode_to_remote_call_error():
    assert error_for_code("net.minted-later") is RemoteCallError
    assert error_for_code(None) is RemoteCallError


def test_config_and_bus_errors_are_terminal():
    assert ConfigError.code == "config"
    assert not ConfigError.retryable
    assert BusError.code == "net.bus"
    assert issubclass(BusError, errors.NetworkError)
    # Mis-wiring deterministically fails again: no retries.
    assert not BusError.retryable


def test_config_errors_raised_at_wiring_time():
    from repro.core.client_api import ClientConfig
    from repro.sim.schedule import ScenarioSchedule

    config = ClientConfig(
        measurement=b"m" * 32, ias_public_key=None, subscribe=True
    )
    with pytest.raises(ConfigError):
        config.validate()
    with pytest.raises(ConfigError):
        ScenarioSchedule.generate(1, 5, profile="no-such-profile")


def test_bus_errors_raised_on_topology_misuse():
    from repro.net.bus import MessageBus, NetworkNode

    bus = MessageBus()
    bus.join(NetworkNode("a"))
    with pytest.raises(BusError):
        bus.join(NetworkNode("a"))
    with pytest.raises(BusError):
        bus.send("a", "ghost", "topic", "payload")
