PYTHON ?= python

.PHONY: test bench lint analyze loc selftest check metrics proptest chaos fleet-bench fleet-smoke push-bench push-smoke overload-bench overload-smoke sim sim-smoke determinism perf-smoke

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Dependency-free property tests (tests/proptest): deterministic by
# default (fixed seed); REPRO_PROPTEST_CASES=n deepens the run and
# REPRO_PROPTEST_SEED=n explores a different stream.  Failures print a
# one-case replay command.
proptest:
	PYTHONPATH=src $(PYTHON) -m pytest tests/proptest -q

# Crash-injection sweep (tests/fault): crash the certification workload
# at every cataloged crashpoint, recover from the WAL + sealed
# checkpoint, and require byte-identical certificates.  Deterministic by
# default; REPRO_CHAOS_CASES=n adds randomized (point, hit, seed) cases,
# REPRO_CHAOS_SEED=n explores a different stream, and
# REPRO_CHAOS_REPLAY=point:hit:seed reruns exactly one case (failures
# print the replay command).
chaos:
	PYTHONPATH=src $(PYTHON) -m pytest tests/fault -q

# Whole-system deterministic simulation (repro.sim): one seeded
# schedule drives the full stack — chain, durable issuer, WAL,
# gateway fleet, hub, mixed client fleet, injected faults — with
# global invariants checked after every event.  Knobs:
# REPRO_SIM_SEED / REPRO_SIM_EVENTS deepen or reseed the pytest runs;
# REPRO_SIM_REPLAY=seed:events reruns one case (failures print it);
# REPRO_SIM_CANARY arms a deliberately-broken invariant.
sim:
	PYTHONPATH=src $(PYTHON) -m repro sim --events 500
	PYTHONPATH=src $(PYTHON) -m pytest tests/sim -q

# A quick slice of the same harness, as a smoke tier for `make check`:
# both the default mix and the saturation-heavy overload profile.
sim-smoke:
	PYTHONPATH=src $(PYTHON) -m repro sim --events 120
	PYTHONPATH=src $(PYTHON) -m repro sim --events 120 --profile overload

# Run the same sim seed twice and diff the event-log fingerprints.
determinism:
	bash scripts/check_determinism.sh

check: lint analyze loc test chaos sim-smoke determinism fleet-smoke push-smoke overload-smoke perf-smoke

# The repo benchmark (BENCHMARK.json, benchmarks/perf) at a tenth of its
# fixed round counts: every workload end to end in ~11 s.  Exits
# non-zero when a workload's built-in check fails — recovered tip
# byte-equal, oracle-equal answers, sim invariants — so a change cannot
# break what the benchmark runs and stay green.  The seven values that
# say "same behaviour" -- certificate_sha256, sim_fingerprint and the
# five client_storage_bytes -- must equal the ones recorded in
# scripts/perf_fingerprints.sh.  Timings are printed, not gated here;
# gate them with benchmarks/perf/compare.py.
perf-smoke:
	PYTHON=$(PYTHON) bash scripts/perf_fingerprints.sh

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Fleet-scaling benchmark (benchmarks/test_fleet_scaling.py): modeled
# query throughput vs replica count, plus the warm verified-answer
# cache doing zero round trips.  REPRO_FLEET_QUERIES=n sizes the query
# batch (default 24); REPRO_BENCH_OUT=dir persists records as JSON.
fleet-bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_fleet_scaling.py -q -s

# The same sweep at a tiny batch size, as a smoke tier for `make check`.
fleet-smoke:
	REPRO_FLEET_QUERIES=8 PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_fleet_scaling.py -q

# Push-vs-poll benchmark (benchmarks/test_push_vs_poll.py): total RPC
# round trips to keep a client fleet at the certified tip, streamed vs
# polled, plus the disconnect/resync byte-identity check.
# REPRO_PUSH_CLIENTS=n sizes the fleet (default 64) and
# REPRO_PUSH_BLOCKS=n the stream length (default 12).
push-bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_push_vs_poll.py -q -s

# The same run with a small fleet, as a smoke tier for `make check`.
push-smoke:
	REPRO_PUSH_CLIENTS=8 PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_push_vs_poll.py -q

# Overload-resilience benchmark (benchmarks/test_overload.py): goodput
# under an open-loop 5x offered load with admission control + deadline
# propagation, and the un-hedged vs hedged slow-replica tail.
# REPRO_OVERLOAD_ARRIVALS=n sizes the arrival process (default 600).
overload-bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_overload.py -q -s

# The same scenarios with a short arrival process, for `make check`.
overload-smoke:
	REPRO_OVERLOAD_ARRIVALS=200 PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_overload.py -q

lint:
	bash scripts/lint.sh

# Dependency-free AST invariant linter (src/repro/analysis): wall-clock
# and randomness hygiene (DET01/DET02), verification-before-adoption
# (VER01), error-taxonomy registration (ERR01), bounded client/network
# state (BND01), wire-message round-trip coverage (WIRE01), metric
# naming (OBS01), crash-catalog sync (CAT01).  Fails on any finding
# not in analysis-baseline.json (kept empty) and on stale baseline
# entries.  See docs/analysis.md.
analyze:
	PYTHONPATH=src $(PYTHON) -m repro.analysis

# The two size numbers ROADMAP.md tracks — physical lines under src/
# and inline `# repro: allow[` suppressions — as a ratchet: fails when
# either is above the value recorded in scripts/loc.sh.
loc:
	bash scripts/loc.sh

selftest:
	PYTHONPATH=src $(PYTHON) -m repro selftest

metrics:
	PYTHONPATH=src $(PYTHON) -m repro metrics
