PYTHON ?= python

.PHONY: test bench lint analyze loc selftest check metrics proptest chaos sim sim-smoke determinism perf-smoke obs-overhead

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# The one property layer (tests/proptest, dependency-free): seeded
# properties over every structure, codec and forgery path, plus the
# shared structural mutator (tests/proptest/mutate.py) run over every
# certification-ecall argument.  Deterministic by default (fixed seed);
# REPRO_PROPTEST_CASES=n deepens the run and REPRO_PROPTEST_SEED=n
# explores a different stream.  Failures print a one-case replay command.
proptest:
	PYTHONPATH=src $(PYTHON) -m pytest tests/proptest -q

# Scripted repro.sim fault events (tests/fault): one crash per
# certification-path crashpoint, recovered from the WAL + sealed
# checkpoint with certificates byte-identical to a no-crash twin;
# replica crashes at query.execute.*, lossy and dead links and lying
# replicas, each healed by a quiesce under the liveness invariants.
# Every sim invariant is checked after every event.  One case:
# pytest -k <point>; random interleavings are `make sim` (REPRO_SIM_SEED).
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

check: lint analyze loc test chaos sim-smoke determinism perf-smoke

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

# Disabled observability costs at most 5 % of an uninstrumented run
# (benchmarks/test_obs_overhead.py: 40 interleaved rounds of one `demo
# selftest` play a side, compared by minimum; ~15 s).  Not in `check`:
# on a shared 2-core host it still failed 2 of 20 runs (see the file).
obs-overhead:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_obs_overhead.py -q

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

lint:
	bash scripts/lint.sh

# Dependency-free AST invariant linter (src/repro/analysis): wall-clock
# and randomness hygiene (DET01/DET02), verification-before-adoption
# (VER01), error-taxonomy registration (ERR01), bounded client/network
# state (BND01), wire-message round-trip coverage (WIRE01), metric
# naming (OBS01), crash-catalog sync (CAT01).  Fails on any finding;
# a justified inline `# repro: allow[RULE] reason` comment is the only
# way to accept one.  See docs/analysis.md.
analyze:
	PYTHONPATH=src $(PYTHON) -m repro.analysis

# The two size numbers ROADMAP.md tracks — physical lines under src/
# and inline `# repro: allow[` suppressions — as a ratchet: fails when
# either is above the value recorded in scripts/loc.sh.
loc:
	bash scripts/loc.sh

selftest:
	PYTHONPATH=src $(PYTHON) -m repro demo selftest

metrics:
	PYTHONPATH=src $(PYTHON) -m repro metrics
