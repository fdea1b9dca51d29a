"""The CLI: info, selftest, demos (incl. demo-overload), sim, metrics."""

import json
from pathlib import Path

import pytest

from repro.cli import main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "repro.core" in out and "DCert" in out


def test_selftest(capsys):
    assert main(["selftest"]) == 0
    assert "selftest ok" in capsys.readouterr().out


def test_demo(capsys):
    assert main(["demo", "--blocks", "3"]) == 0
    out = capsys.readouterr().out
    assert "Superlight client validated" in out
    assert "verified=True" in out


def test_demo_network(capsys):
    assert main(["demo-network", "--blocks", "3"]) == 0
    out = capsys.readouterr().out
    assert "adopted certified tip at height 2" in out
    assert "Verified query over RPC" in out
    # The finale: the last block arrives over the push stream, not RPC.
    assert "pushed tip at height 3 adopted with 0 client RPC" in out


def test_demo_crash(capsys):
    assert main(["demo-crash", "--blocks", "6"]) == 0
    out = capsys.readouterr().out
    assert "crash fired: True" in out
    assert "supervisor restarts: 1" in out
    assert "pk_enc stable across restart (sealed key): True" in out
    assert "(no re-attestation)" in out


def test_demo_overload(capsys):
    assert main(["demo-overload"]) == 0
    out = capsys.readouterr().out
    # [1] deadline propagation refuses doomed work at the replica.
    assert "provider executions: 0 (doomed work costs zero)" in out
    assert "deadline refusals: 1" in out
    # [3] admission control sheds and the client degrades gracefully.
    assert "shed" in out and "OVERLOADED" in out
    assert "served the last verified answer flagged stale=True" in out
    # [4] the gateway hedges around the slow replica.
    assert "won by the fast replica" in out
    assert "Totals" in out


def test_demo_crash_rejects_unknown_point(capsys):
    assert main(["demo-crash", "--point", "not.a.point"]) == 2
    assert "unknown crashpoint" in capsys.readouterr().err


def test_demo_crash_at_a_hub_point(capsys):
    assert main(["demo-crash", "--point", "pubsub.publish.pre"]) == 0
    out = capsys.readouterr().out
    assert "crash fired: True" in out
    assert "pk_enc stable across restart (sealed key): True" in out
    assert "(no re-attestation)" in out


def test_demo_crash_rejects_a_point_certification_never_reaches(capsys):
    assert main(["demo-crash", "--point", "query.execute.pre"]) == 2
    err = capsys.readouterr().err
    assert "unknown crashpoint" in err and "pubsub.publish.pre" in err


def test_demo_crash_fails_when_the_point_never_fires(capsys):
    assert main(["demo-crash", "--hit", "99"]) == 1
    assert "crash fired: False" in capsys.readouterr().out


def test_metrics_text(capsys):
    assert main(["metrics", "--blocks", "3"]) == 0
    out = capsys.readouterr().out
    assert "== Counters ==" in out
    assert "sgx.ecalls" in out
    assert "rpc.client.calls" in out
    assert "== Histograms ==" in out
    assert "query.proof_bytes" in out


def test_metrics_json(capsys):
    assert main(["metrics", "--blocks", "3", "--json"]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert snapshot["counters"]["sgx.ecalls"] > 0
    # The newest mined block is held back for the push demo (--all),
    # so a 3-block world certifies 2 here.
    assert snapshot["counters"]["issuer.certs_issued"] == 2
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
    assert main(["sim", "--canary", "not.a.canary"]) == 2
    assert "unknown canary" in capsys.readouterr().out


def test_sim_verbose_prints_event_log(capsys):
    assert main(["sim", "--events", "10", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "0000 t=" in out


def test_demo_sim(capsys):
    assert main(["demo-sim", "--events", "20"]) == 0
    out = capsys.readouterr().out
    assert "byte-identical: True" in out
    assert "event-log fingerprint:" in out


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
    assert "DET01" in out and "1 new" in out

    assert main(["analyze", "--root", str(tmp_path), "--json", "src"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["new"][0]["rule"] == "DET01"


# Each of these raised a traceback, exited 1, or was silently accepted
# before the flags were range-checked; now argparse refuses it (exit 2).
OUT_OF_RANGE = [
    ["demo-fleet", "--queries", "0"],
    ["demo-fleet", "--replicas", "0"],
    ["demo-fleet", "--replicas", "1"],
    ["demo", "--blocks", "0"],
    ["demo-crash", "--blocks", "1"],
    ["demo-crash", "--hit", "0"],
    ["demo-network", "--blocks", "1"],
    ["metrics", "--blocks", "1"],
    ["demo-overload", "--replicas", "1"],
    ["demo-network", "--drop", "1.5"],
    ["demo-network", "--drop", "-1"],
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


# Every demo at its defaults, and each invocation README.md quotes.
DOCUMENTED = [
    ["demo"],
    ["demo-network"],
    ["demo-fleet"],
    ["demo-overload"],
    ["demo-crash"],
    ["selftest"],
    ["metrics"],
    ["demo-fleet", "--replicas", "4"],
    ["metrics", "--replicas", "3"],
    ["metrics", "--all"],
    ["demo-network", "--drop", "0.3"],
    ["demo-crash", "--point", "wal.append.torn_write", "--hit", "2"],
]


@pytest.mark.parametrize("argv", DOCUMENTED, ids=" ".join)
def test_documented_invocations_run(argv):
    assert main(argv) == 0


# Every command that builds a deployment runs under the sim's invariant
# suite: a violation, after any step or at the end-of-run recovery,
# exits 1 with the invariant's message instead of a traceback.
NARRATED = [
    ["demo", "--blocks", "3"],
    ["selftest"],
    ["demo-network", "--blocks", "3"],
    ["demo-fleet", "--blocks", "3"],
    ["demo-overload", "--blocks", "3"],
    ["demo-crash", "--blocks", "4"],
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
