"""The CLI: info, the scenario rows (demo / metrics), sim, analyze."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.sim import SCENARIOS


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "repro.core" in out and "DCert" in out


def _report(out: str) -> dict:
    """The ``  key: value`` lines a row prints after its events."""
    return dict(
        line.strip().split(": ", 1)
        for line in out.splitlines() if line.startswith("  ")
    )


def test_selftest(capsys):
    assert main(["demo", "selftest"]) == 0
    report = _report(capsys.readouterr().out)
    assert report["answer_verified"] == "True"
    assert report["forged_certificate_rejected"] == "True"
    assert report["tampered_answer_rejected"] == "True"


def test_demo(capsys):
    """With no row named, ``demo`` plays selftest."""
    assert main(["demo", "--blocks", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("selftest: ")
    assert "0000 t=" in out and " ans:" in out
    report = _report(out)
    assert report["tip_height"] == "3" and report["answer_verified"] == "True"


def test_demo_network(capsys):
    assert main(["demo", "network", "--blocks", "3"]) == 0
    out = capsys.readouterr().out
    assert "query(" in out and "push1 ans:" in out
    # The finale: the last block arrives over the push stream; no sync
    # event follows the certify.
    events = [line for line in out.splitlines() if line[:4].isdigit()]
    assert events[-1].endswith("certify(upto=1) -> ok:h3")
    report = _report(out)
    assert report["tip_height"] == "3" and report["push_adopted"] == "1"


def test_demo_network_shows_the_lossy_link_dropping(capsys):
    """At the default knobs the queries that cross the 30 %-drop link to
    sp1 lose packets, and the report says so."""
    assert main(["demo", "network"]) == 0
    out = capsys.readouterr().out
    report = _report(out)
    assert int(report["dropped"]) > 0
    assert "timeouts" in report and "retries" not in out


def test_demo_crash(capsys):
    assert main(["demo", "crash", "--blocks", "6"]) == 0
    report = _report(capsys.readouterr().out)
    assert report["crash_fired"] == "True"
    assert report["supervisor_restarts"] == "1"
    assert report["tip_height"] == "6"
    assert report["attestation_reports_verified"] == "1"


def test_demo_overload(capsys):
    assert main(["demo", "overload"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    # The doomed deadline is refused up front (shed-zero-work holds
    # after it: no provider execution for a refused request).
    assert lines[1].startswith("0000 ")
    assert lines[1].endswith("-> gw1 fail:DeadlineExceededError")
    # The flood is shed and the client degrades to its last verified answer.
    assert any("flood(" in line and " stale:h" in line for line in lines)
    report = _report(out)
    assert int(report["deadline_refused"]) >= 1
    assert int(report["shed"]) > 0 and report["stale_served"] == "1"
    # The gateway hedges around the slow replica.
    assert int(report["hedge_wins"]) > 0


def test_demo_crash_rejects_unknown_point(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["demo", "crash", "--point", "not.a.point"])
    assert exited.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_demo_crash_at_a_hub_point(capsys):
    assert main(["demo", "crash", "--point", "pubsub.publish.pre"]) == 0
    report = _report(capsys.readouterr().out)
    assert report["crash_fired"] == "True"
    assert report["attestation_reports_verified"] == "1"


def test_demo_crash_rejects_a_point_certification_never_reaches(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["demo", "crash", "--point", "query.execute.pre"])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "pubsub.publish.pre" in err


def test_demo_crash_fails_when_the_point_never_fires(capsys):
    assert main(["demo", "crash", "--hit", "99"]) == 1
    assert _report(capsys.readouterr().out)["crash_fired"] == "False"


def test_a_row_refuses_a_knob_it_does_not_take(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["demo", "selftest", "--drop", "0.5"])
    assert exited.value.code == 2
    assert "the selftest row takes no --drop" in capsys.readouterr().err


def test_metrics_text(capsys):
    assert main(["metrics", "--blocks", "3"]) == 0
    out = capsys.readouterr().out
    assert "counter sgx.ecalls " in out
    assert "counter rpc.client.calls " in out
    assert "histogram query.proof_bytes count=" in out
    assert "0000 t=" not in out


def test_metrics_json(capsys):
    assert main(["metrics", "--blocks", "3", "--json"]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert snapshot["counters"]["sgx.ecalls"] > 0
    # The selftest row certifies its whole 3-block chain.
    assert snapshot["counters"]["issuer.certs_issued"] == 3
    assert snapshot["histograms"]["query.proof_bytes"]["count"] >= 1
    assert any(
        name.startswith("rpc.client.call_ms.")
        for name in snapshot["histograms"]
    )
    # Spans carry both clocks; RPC spans see virtual time advance.
    assert snapshot["spans"], "expected completed trace spans"
    assert all("wall_ms" in span for span in snapshot["spans"])


def test_metrics_leaves_observability_disabled():
    from repro import obs

    assert main(["metrics", "--blocks", "3", "--json"]) == 0
    assert not obs.enabled()
    assert obs.registry().virtual_clock is None


def test_sim_clean_run(capsys):
    assert main(["sim", "--events", "25", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "event-log fingerprint:" in out
    assert "all invariants held" in out


def test_sim_overload_profile_runs_and_is_reproducible(capsys):
    assert main(["sim", "--events", "30", "--seed", "3",
                 "--profile", "overload"]) == 0
    first = capsys.readouterr().out
    assert "profile overload" in first
    assert "all invariants held" in first
    assert main(["sim", "--events", "30", "--seed", "3",
                 "--profile", "overload"]) == 0
    second = capsys.readouterr().out
    # Same seed, same profile: byte-identical fingerprints.
    fingerprint = [
        line for line in first.splitlines() if "fingerprint" in line
    ]
    assert fingerprint and fingerprint == [
        line for line in second.splitlines() if "fingerprint" in line
    ]


def test_sim_canary_violation_prints_replay(capsys):
    # seed 4 trips the height-cap canary within 24 events
    assert main(["sim", "--events", "24", "--seed", "4",
                 "--canary", "height-cap"]) == 1
    out = capsys.readouterr().out
    assert "INVARIANT VIOLATION" in out
    assert "REPRO_SIM_REPLAY=4:" in out


def test_sim_rejects_unknown_canary(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["sim", "--canary", "not.a.canary"])
    assert exited.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_sim_verbose_prints_event_log(capsys):
    assert main(["sim", "--events", "10", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "0000 t=" in out


def test_sim_leaves_observability_disabled():
    from repro import obs

    assert main(["sim", "--events", "8"]) == 0
    assert not obs.enabled()
    assert obs.registry().virtual_clock is None


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_analyze_subcommand_delegates_to_the_linter(tmp_path, capsys):
    target = tmp_path / "src" / "repro" / "net" / "example.py"
    target.parent.mkdir(parents=True)
    target.write_text("import time\n\nx = time.time()\n", encoding="utf-8")
    assert main(["analyze", "--root", str(tmp_path), "src"]) == 1
    out = capsys.readouterr().out
    assert "DET01" in out and "1 finding(s)" in out

    assert main(["analyze", "--root", str(tmp_path), "--json", "src"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"][0]["rule"] == "DET01"


# Each of these raised a traceback, exited 1, or was silently accepted
# before the flags were range-checked; now argparse refuses it (exit 2).
OUT_OF_RANGE = [
    ["demo", "fleet", "--replicas", "0"],
    ["demo", "fleet", "--replicas", "1"],
    ["demo", "--blocks", "0"],
    ["demo", "crash", "--blocks", "1"],
    ["demo", "crash", "--hit", "0"],
    ["demo", "network", "--blocks", "1"],
    ["metrics", "--blocks", "1"],
    ["demo", "overload", "--replicas", "1"],
    ["demo", "network", "--drop", "1.5"],
    ["demo", "network", "--drop", "-1"],
    ["sim", "--events", "0"],
    ["sim", "--events", "-3"],
]


@pytest.mark.parametrize("argv", OUT_OF_RANGE, ids=" ".join)
def test_out_of_range_arguments_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_info_lists_every_subpackage(capsys):
    import repro

    assert main(["info"]) == 0
    out = capsys.readouterr().out
    for init in sorted(Path(repro.__file__).parent.glob("*/__init__.py")):
        assert f"  repro.{init.parent.name} " in out


# Every row at its defaults, and each invocation README.md and docs/ quote.
DOCUMENTED = [["demo", name] for name in SCENARIOS] + [
    ["demo"],
    ["metrics"],
    ["metrics", "--json"],
    ["metrics", "network"],
    ["demo", "fleet", "--replicas", "4"],
    ["metrics", "fleet", "--replicas", "3"],
    ["demo", "network", "--drop", "0.3"],
    ["demo", "crash", "--point", "wal.append.torn_write", "--hit", "2"],
]


@pytest.mark.parametrize("argv", DOCUMENTED, ids=" ".join)
def test_documented_invocations_run(argv):
    assert main(argv) == 0


# Every row runs under the sim's invariant suite, in both views: a
# violation, after any event or at the end-of-run recovery, exits 1 with
# the invariant's message instead of a traceback.
NARRATED = [["demo", name, "--blocks", "3"] for name in SCENARIOS] + [
    ["demo", "--blocks", "3"],
    ["metrics", "--blocks", "3", "--json"],
]


@pytest.mark.parametrize("argv", NARRATED, ids=" ".join)
def test_a_violated_invariant_exits_1_with_its_message(argv, monkeypatch,
                                                       capsys):
    from repro.sim import InvariantSuite

    def ahead(self):
        raise AssertionError("hub announced past the certified tip")

    monkeypatch.setattr(InvariantSuite, "_check_hub", ahead)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "INVARIANT VIOLATION" in err
    assert "'hub-stream-bounded'" in err and "past the certified tip" in err


@pytest.mark.parametrize("argv", NARRATED, ids=" ".join)
def test_every_narrated_command_ends_with_the_wal_recovery_check(
        argv, monkeypatch, capsys):
    from repro.sim import InvariantSuite, InvariantViolation

    def diverged(self, event_count):
        raise InvariantViolation("wal-consistent", event_count, "diverged")

    monkeypatch.setattr(InvariantSuite, "finish", diverged)
    assert main(argv) == 1
    assert "'wal-consistent'" in capsys.readouterr().err
