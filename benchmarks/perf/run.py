"""The repo benchmark's one command.

Driver form (one workload, time-bounded; the last stdout line is the
result object)::

    python3 benchmarks/perf/run.py --workload tip-follow --seed 7 --seconds 12 --trace 0

Developer form (every workload in its own process, fixed operation
counts so count metrics and fingerprints repeat exactly; prints every
metric by name and one JSON document at the end)::

    python3 benchmarks/perf/run.py --all [--seed N] [--trace] [--smoke] [--json FILE]

See README.md beside this file for what is measured and why.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from contextlib import ExitStack
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from repro import obs  # noqa: E402

import layers  # noqa: E402
from clock import (  # noqa: E402
    CheckFailed,
    Clock,
    WatchdogExpired,
    arm_watchdog,
    disarm_watchdog,
    percentile,
)
from workloads import WORKLOADS  # noqa: E402
from yardstick import NOMINAL_MS  # noqa: E402

OUT = HERE / "out"
DEFAULT_SEED = 2026
SETUP_REPS = 3
#: No run may outlive this, whatever the workload's own ceiling says.
HARD_CEILING_S = 170.0
#: What the fixed round counts are sized for, for the ceiling's sake.
FIXED_MODE_EXPECTED_S = 14.0
#: Spans written per trace file (the self-time table covers all of them).
TRACE_FILE_SPANS = 20_000

EXIT_WRONG = 1
EXIT_WATCHDOG = 3


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class Budget:
    """When the measured phase ends: after ``seconds`` of wall time (at a
    round boundary) or after exactly ``rounds`` rounds."""

    def __init__(self, seconds: float | None, rounds: int | None) -> None:
        self.seconds = seconds
        self.rounds = rounds
        #: The clock of the phase in progress, for the watchdog's report.
        self.clock: Clock | None = None

    def run(self, workload, clock: Clock) -> int:
        self.clock = clock
        started = perf_counter()
        done = 0
        while True:
            if self.rounds is not None:
                if done >= self.rounds:
                    return done
            elif done:
                elapsed = perf_counter() - started
                # Stop at the boundary nearest to the budget.
                if elapsed + 0.5 * elapsed / done >= self.seconds:
                    return done
            workload.round(clock, done)
            done += 1


def _build(stack: ExitStack, cls, seed: int, clock: Clock):
    """One freshly set-up world; its scratch directory (inside the
    checkout: the WAL is real file I/O) goes away with ``stack``."""
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="world-", dir=OUT))
    stack.callback(shutil.rmtree, scratch, ignore_errors=True)
    workload = cls(seed, scratch)
    stack.callback(workload.close)
    workload.setup(clock)
    return workload


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _latency_stats(clock: Clock, tail_pct: int) -> dict:
    """Latency and throughput of the completed operations, normalised
    and raw side by side."""
    table = clock.op_table()
    completed = sum(credit for _k, _raw, _norm, credit in table)
    stats = {"completed": completed}
    for label, column in (("normalised", 2), ("raw", 1)):
        per_op_ms = sorted(
            row[column] / row[3] * 1000.0 for row in table for _ in range(row[3])
        )
        total_s = sum(row[column] for row in table)
        stats[label] = {
            "ops_per_s": completed / total_s,
            "op_p50_ms": percentile(per_op_ms, 50),
            "op_tail_ms": percentile(per_op_ms, tail_pct),
        }
    stats["beyond_tail"] = completed - math.ceil(completed * tail_pct / 100)
    return stats


def measure(cls, seed: int, budget: Budget, setup_reps: int) -> dict:
    """The untraced run: every end-to-end metric of one workload."""
    setups_norm, setups_raw = [], []
    workload = None
    with ExitStack() as stack:
        for _ in range(setup_reps):
            # One world alive at a time, and its garbage gone before the
            # next is built: otherwise peak RSS follows the collector.
            stack.close()
            workload = None
            gc.collect()
            clock = Clock()
            workload = _build(stack, cls, seed, clock)
            clock.finish()
            setups_norm.append(sum(clock.normalised_s("setup")))
            setups_raw.append(sum(clock.raw_s("setup")))
        clock = Clock()
        virtual_before = workload.virtual_ms()
        phase_started = perf_counter()
        rounds = budget.run(workload, clock)
        phase_s = perf_counter() - phase_started
        clock.finish()
        virtual_ms = workload.virtual_ms() - virtual_before
        facts = workload.check(clock)
        storage = workload.client_storage_bytes()
    stats = _latency_stats(clock, cls.tail_pct)
    normalised, raw = stats["normalised"], stats["raw"]
    yard = clock.yard.summary()
    return {
        "workload": cls.name,
        "seed": seed,
        "mode": "measure",
        "correct": True,
        "attempted": clock.attempted,
        "failed": clock.failed,
        "failures": clock.failures,
        "end_to_end": {
            "setup_s": median(setups_norm),
            "ops_per_s": normalised["ops_per_s"],
            "op_p50_ms": normalised["op_p50_ms"],
            "op_tail_ms": normalised["op_tail_ms"],
            "client_storage_bytes": storage,
            "peak_rss_mb": _peak_rss_mib(),
        },
        # Recorded beside the gated values, never gated themselves.
        "raw": {
            "setup_s": median(setups_raw),
            "ops_per_s": raw["ops_per_s"],
            "op_p50_ms": raw["op_p50_ms"],
            "op_tail_ms": raw["op_tail_ms"],
        },
        "info": {
            "rounds": rounds,
            "samples": stats["completed"],
            "tail_pct": cls.tail_pct,
            "samples_beyond_tail": stats["beyond_tail"],
            "measured_phase_s": phase_s,
            "virtual_ms_per_op": virtual_ms / max(1, stats["completed"]),
            "failed_op_ratio": clock.failed / clock.attempted,
            "host.yardstick_us_p50": yard["p50_us"],
            "host.yardstick_spread": yard["spread"],
            "yardstick_nominal_ms": NOMINAL_MS,
            **facts,
        },
    }


def trace(cls, seed: int, budget: Budget, per_layer_names: list[str]) -> dict:
    """The traced run: the same operations once with ``repro.obs`` off
    and once under ``obs.observability()`` with spans around every call
    the benchmark makes into a layer; per-layer numbers come only from
    the second, and the ratio of the two is the tracing overhead."""
    with ExitStack() as stack:
        plain_clock = Clock()
        plain = _build(stack, cls, seed, Clock())
        rounds = budget.run(plain, plain_clock)
        plain_clock.finish()
        plain_stats = _latency_stats(plain_clock, cls.tail_pct)

        clock = Clock(tracing=True)
        workload = _build(stack, cls, seed, clock)
        with obs.observability():
            obs.reset()
            workload.begin_trace(clock)
            virtual_before = workload.virtual_ms()
            # Modeled SGX charges of the enclave that serves this phase
            # (the sim runs with the cost model off and reads 0).
            ledger = workload.issuer().enclave.ledger
            ledger_before = ledger.snapshot()
            budget.rounds, budget.seconds = rounds, None
            budget.run(workload, clock)
            virtual_ms = workload.virtual_ms() - virtual_before
            # Counters of the operations only: the check recovers an
            # issuer, which would add its own ecalls and WAL reads.
            snapshot = obs.snapshot()
            facts = workload.check(clock)
        stats = _latency_stats(clock, cls.tail_pct)
        ops = stats["completed"]
        metrics = layers.counter_metrics(snapshot, ops, virtual_ms, clock)
        metrics["sgx.modeled_overhead_ms_per_op"] = (
            ledger.delta(ledger_before).total_overhead_s() * 1000.0 / ops
        )
        metrics.update(layers.crypto_replay(clock))
        metrics.update(layers.merkle_replay(clock, cls.merkle_sizes, seed))
        metrics.update(layers.launch_replay(clock, workload.index_specs()))
        metrics.update(layers.client_replay(
            clock, *workload.trust_anchors(), workload.issuer()
        ))
        clock.finish()
        metrics.update(workload.layer_metrics(clock, ops))
    yard = clock.yard.summary()
    metrics["obs.overhead_ratio"] = (
        plain_stats["normalised"]["ops_per_s"] / stats["normalised"]["ops_per_s"]
    )
    metrics["host.yardstick_us_p50"] = yard["p50_us"]
    metrics["host.yardstick_spread"] = yard["spread"]
    unknown = sorted(set(metrics) - set(per_layer_names))
    if unknown:
        raise AssertionError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
    # A layer the workload does not exercise reads 0.
    per_layer = {name: float(metrics.get(name, 0.0)) for name in per_layer_names}
    trace_file = OUT / f"trace-{cls.name}-{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": cls.name,
        "seed": seed,
        "spans_total": len(clock.spans),
        "self_times_s": clock.self_times(),
        "spans": clock.spans[:TRACE_FILE_SPANS],
    }))
    return {
        "workload": cls.name,
        "seed": seed,
        "mode": "trace",
        "correct": True,
        "attempted": clock.attempted,
        "failed": clock.failed,
        "failures": clock.failures,
        "per_layer": per_layer,
        # The layers this workload exercises (the rest read 0).
        "supplied": sorted(metrics),
        "info": {"rounds": rounds, "samples": ops, "trace_file": str(trace_file.relative_to(ROOT)), **facts},
    }


# -- output ------------------------------------------------------------------


def _units(spec: dict) -> dict[str, str]:
    return {
        entry["name"]: entry["unit"]
        for entry in spec["end_to_end"] + spec["per_layer"]
    }


def print_record(record: dict, units: dict[str, str]) -> None:
    name = record["workload"]
    print(f"== {name} seed={record['seed']} ({record['mode']}) ==")
    for group in ("end_to_end", "per_layer"):
        for metric, value in record.get(group, {}).items():
            print(f"{name} {metric} {value:.6g} {units[metric]}")
    for metric, value in record.get("raw", {}).items():
        print(f"{name} raw.{metric} {value:.6g} {units[metric]} (raw wall time, not gated)")
    for key, value in record["info"].items():
        print(f"{name} info.{key} {value}")
    print(
        f"{name} attempted={record['attempted']} failed={record['failed']} "
        f"{record['failures'] or ''}"
    )


def result_line(record: dict, units: dict[str, str]) -> str:
    group = "per_layer" if record["mode"] == "trace" else "end_to_end"
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in record[group].items()
        },
    })


# -- entry points ------------------------------------------------------------


def run_one(args, spec: dict) -> int:
    cls = WORKLOADS[args.workload]
    if args.seconds is not None:
        budget = Budget(float(args.seconds), None)
        expected_s = args.seconds
    else:
        rounds = max(1, cls.full_rounds // 10) if args.smoke else cls.full_rounds
        budget = Budget(None, rounds)
        expected_s = FIXED_MODE_EXPECTED_S
    setup_reps = 1 if args.smoke else SETUP_REPS
    ceiling_s = min(HARD_CEILING_S, 3.0 * (expected_s + cls.overhead_s))
    units = _units(spec)
    arm_watchdog(ceiling_s)
    try:
        if args.trace:
            if budget.seconds is not None:
                # Both passes of the traced run share the time budget.
                budget = Budget(budget.seconds / 2.0, None)
            names = [entry["name"] for entry in spec["per_layer"]]
            record = trace(cls, args.seed, budget, names)
        else:
            record = measure(cls, args.seed, budget, setup_reps)
    except WatchdogExpired as exc:
        # Whatever had not completed counts as failed.
        clock = budget.clock or Clock()
        completed = clock.attempted - clock.failed
        planned = (
            budget.rounds * cls.ops_per_round if budget.rounds is not None
            else clock.attempted + 1
        )
        print(
            f"{cls.name} WATCHDOG {exc}: completed={completed} "
            f"planned={planned} failed_op_ratio="
            f"{(planned - completed) / planned:.4f}",
            file=sys.stderr,
        )
        return EXIT_WATCHDOG
    except CheckFailed as exc:
        print(f"{cls.name} CHECK FAILED: {exc}", file=sys.stderr)
        return EXIT_WRONG
    finally:
        disarm_watchdog()
    record["info"]["ceiling_s"] = ceiling_s
    print_record(record, units)
    if args.out:
        Path(args.out).write_text(json.dumps(record))
    print(result_line(record, units))
    return 0 if record["failed"] == 0 else EXIT_WRONG


def run_all(args, spec: dict) -> int:
    """Each workload in its own process (one process, one thread, one
    caller -- and its own peak RSS), collected into one document."""
    OUT.mkdir(exist_ok=True)
    records = []
    status = 0
    for entry in spec["workloads"]:
        for traced in ((0, 1) if args.trace else (0,)):
            with tempfile.NamedTemporaryFile(dir=OUT, suffix=".json") as handle:
                command = [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", entry["name"], "--seed", str(args.seed),
                    "--trace", str(traced), "--out", handle.name,
                ]
                if args.seconds is not None:
                    command += ["--seconds", str(args.seconds)]
                if args.smoke:
                    command.append("--smoke")
                done = subprocess.run(command, check=False)
                if done.returncode:
                    status = done.returncode
                    continue
                records.append(json.loads(Path(handle.name).read_text()))
    document = {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "yardstick_nominal_ms": NOMINAL_MS,
        "seed": args.seed,
        "smoke": args.smoke,
        "records": records,
    }
    text = json.dumps(document)
    if args.json:
        Path(args.json).write_text(text)
    print(text)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=sorted(WORKLOADS))
    what.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="bound the measured phase by wall time "
                             "(default: the workload's fixed round count)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="one-tenth sizes, one set-up")
    parser.add_argument("--out", help="also write this run's record here")
    parser.add_argument("--json", help="with --all: write the document here")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.all:
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
