"""The scripted rows of ``repro.sim.SCENARIOS`` against the drawn mixes."""

from repro.sim import (
    SCENARIOS,
    SIM_CRASH_POINTS,
    WEIGHT_PROFILES,
    ScenarioSchedule,
)
from repro.sim.schedule import _HANDLERS


def test_the_scripted_only_kind_is_never_drawn():
    """A row may use one kind no profile weighs (``flood``), so adding
    it changed no seeded schedule; every other kind a row plays is one
    the seeded runs draw too.  So are ``lying_replica``, ``quiesce``
    and a crash at a ``query.execute.*`` point, and a paced ``burst``:
    no drawn event carries ``gap_ms``, nor ``budget`` but an overload."""
    drawn = {kind for table in WEIGHT_PROFILES.values() for kind, _ in table}
    scripted = {
        event.kind for row in SCENARIOS.values() for event in row.script()[1]
    }
    assert scripted <= set(_HANDLERS)
    assert set(_HANDLERS) - drawn == {"flood", "lying_replica", "quiesce"}
    assert not [point for point in SIM_CRASH_POINTS if point.startswith("query.")]
    assert "flood" in scripted
    for profile in WEIGHT_PROFILES:
        for event in ScenarioSchedule.generate(7, 400, profile).events:
            assert "gap_ms" not in event.params, event
            assert "budget" not in event.params or event.kind == "overload"
