"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info`` — the version and each ``repro.*`` subpackage's summary.
* ``demo [ROW]`` — play one row of :data:`repro.sim.SCENARIOS` (default
  ``selftest``): a small sim world through a scripted list of sim
  events, each printed as the sim logs it (``NNNN t=… kind(params) ->
  outcome``), with every invariant checked after every event and a cold
  WAL recovery at the end, then the row's report.  Exit 1 on an
  invariant violation or a report that fails the row's check.  The
  knobs (``--blocks``, ``--replicas``, ``--drop``, ``--point``,
  ``--hit``) apply to the rows that take them.
* ``metrics [ROW]`` — the same run with observability on; prints the
  metrics registry (``--json`` for the raw snapshot).
* ``sim`` — one seeded whole-system simulation run.
* ``analyze`` — the AST invariant linter (:mod:`repro.analysis`).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from repro import __version__, obs
from repro.sim import CANARIES, SCENARIOS, SIM_CRASH_POINTS

#: The row knobs, as the flags that set them.
KNOBS = ("blocks", "replicas", "drop", "point", "hit")


def cmd_info(_: argparse.Namespace) -> int:
    import importlib
    import pkgutil

    import repro

    print(f"repro {__version__} — DCert reproduction (Middleware '22)")
    print()
    for module in pkgutil.iter_modules(repro.__path__):
        if not module.ispkg:
            continue
        name = f"repro.{module.name}"
        doc = (importlib.import_module(name).__doc__ or "").strip()
        summary = doc.splitlines()[0] if doc else ""
        print(f"  {name:18} {summary.removeprefix(f'{name} — ')}")
    return 0


def cmd_row(args: argparse.Namespace) -> int:
    """``demo`` and ``metrics``: play one scenario row."""
    row = SCENARIOS[args.row]
    knobs = {name: getattr(args, name) for name in KNOBS
             if getattr(args, name) is not None}
    metrics = args.command == "metrics"
    with obs.observability(metrics) as registry:
        if metrics:
            registry.reset()
        world, violation, report = row.run(**knobs)
    if not metrics:
        print(f"{row.name}: {row.summary}")
        print("\n".join(world.events))
    if violation is not None:
        print(f"INVARIANT VIOLATION: {violation}", file=sys.stderr)
        return 1
    snapshot = registry.snapshot()
    if not metrics:
        for key, value in report.items():
            print(f"  {key}: {value}")
    elif args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        for kind in ("counters", "gauges"):
            for name, value in sorted(snapshot[kind].items()):
                print(f"{kind[:-1]} {name} {value}")
        for name, h in sorted(snapshot["histograms"].items()):
            mean = h["sum"] / h["count"] if h["count"] else 0.0
            print(f"histogram {name} count={h['count']} min={h['min']:g} "
                  f"mean={mean:g} max={h['max']:g}")
    if row.passed(report):
        return 0
    print(f"FAILED: the {row.name} report does not show what the row "
          f"demonstrates", file=sys.stderr)
    return 1


def cmd_sim(args: argparse.Namespace) -> int:
    """One deterministic whole-system simulation run."""
    from repro.sim import replay_command, run_sim

    result = run_sim(
        args.seed, args.events, canary=args.canary, profile=args.profile
    )
    if args.verbose:
        for line in result.log:
            print(line)
    print(f"Applied {result.events_applied}/{result.events} events "
          f"(seed {result.seed}, profile {args.profile})")
    print(f"event-log fingerprint: {result.fingerprint}")
    if result.violation is not None:
        shrink_hint = result.violation.event_index + 1
        print(f"INVARIANT VIOLATION: {result.violation}")
        print(f"replay: "
              f"{replay_command(result.seed, shrink_hint, args.canary, args.profile)}")
        return 1
    print("all invariants held after every event")
    return 0


def _ranged(kind, low, high=math.inf):
    """An argparse ``type=``: ``kind(text)`` within ``[low, high]``; any
    other input is a usage error (exit 2) that names the range."""
    def parse(text: str):
        value = kind(text)
        if not low <= value <= high:
            raise ValueError(text)
        return value

    # argparse reports a ValueError as "invalid <__name__> value: ...".
    parse.__name__ = (f"{kind.__name__} >= {low}" if high == math.inf
                      else f"{kind.__name__} in [{low}, {high}]")
    return parse


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "analyze":
        # The analyzer owns its argument surface (--json, --rule,
        # --root ...); hand everything after the subcommand straight to
        # it rather than mirroring each flag here.
        from repro.analysis import main as analysis_main

        return analysis_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro", description="DCert reproduction CLI"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser(
        "info", help="print the version and the subpackage inventory"
    )
    # The knobs default to None: a row's own defaults are its script's.
    rows = argparse.ArgumentParser(add_help=False)
    rows.add_argument(
        "row", nargs="?", default="selftest", choices=list(SCENARIOS),
        help="the scenario to play (default selftest): "
             + "; ".join(f"{r.name}: {r.summary}" for r in SCENARIOS.values()),
    )
    # A row that mines its last block premines the rest: at least 2.
    rows.add_argument("--blocks", type=_ranged(int, 2),
                      help="chain height the row ends at")
    # Rows that pause or slow one replica while another serves: at least 2.
    rows.add_argument("--replicas", type=_ranged(int, 2),
                      help="query replicas (fleet, overload)")
    rows.add_argument("--drop", type=_ranged(float, 0.0, 1.0),
                      help="drop rate on the client<->sp1 links (network)")
    rows.add_argument("--point", choices=SIM_CRASH_POINTS,
                      help="crashpoint to arm (crash)")
    rows.add_argument("--hit", type=_ranged(int, 1),
                      help="fire on the n-th arrival at the point (crash)")
    subparsers.add_parser(
        "demo", parents=[rows],
        help="play a scenario: its events, every invariant after each, "
             "then its report",
    )
    metrics = subparsers.add_parser(
        "metrics", parents=[rows],
        help="play a scenario with observability on; print the metrics",
    )
    metrics.add_argument(
        "--json", action="store_true",
        help="emit the raw metrics snapshot as JSON",
    )
    sim = subparsers.add_parser(
        "sim",
        help="deterministic whole-system simulation with global "
             "invariant checking (exit 1 + replay command on violation)",
    )
    sim.add_argument("--seed", type=int, default=2026)
    sim.add_argument(
        "--events", type=_ranged(int, 1), default=200,
        help="schedule length: seeded workload + fault events "
             "(default 200; `make sim` runs 500)",
    )
    sim.add_argument(
        "--canary", default=None, choices=sorted(CANARIES),
        help="arm a deliberately-broken invariant to exercise "
             "catch/shrink/replay",
    )
    sim.add_argument(
        "--profile", default="mixed", choices=["mixed", "overload"],
        help="event mix: 'mixed' (default) or 'overload' "
             "(saturation-heavy: bursts, deadline batches, slow replicas)",
    )
    sim.add_argument(
        "--verbose", action="store_true",
        help="print the full deterministic event log",
    )
    subparsers.add_parser(
        "analyze",
        help="AST-based invariant linter over src/ and tests/ "
             "(DET/VER/ERR/BND/WIRE/OBS/CAT rules; see docs/analysis.md)",
        add_help=False,
    )
    args = parser.parse_args(argv)
    if args.command in ("demo", "metrics"):
        knobs = SCENARIOS[args.row].knobs
        for name in KNOBS:
            if getattr(args, name) is not None and name not in knobs:
                subparsers.choices[args.command].error(
                    f"the {args.row} row takes no --{name}")
    handlers = {"info": cmd_info, "demo": cmd_row, "metrics": cmd_row,
                "sim": cmd_sim}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
