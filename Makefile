# Build/test/benchmark entry points. The race and smoke targets are part
# of the engine's verification story (see README "Parallel batch-analysis
# engine"): test-race is the dedicated data-race target over the
# concurrent engine and the solver core; bench-smoke is the checked-in
# small-corpus engine pass that verifies the parallel path is
# solution-identical to the sequential one and reports the wall-clock
# speedup.

GO ?= go

.PHONY: build test test-race fmt-check bench-smoke bench-micro bench-snapshot store-snapshot serve-smoke router-smoke chaos router-chaos membership-chaos differential incremental-differential fuzz staticcheck bench clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

bench-smoke:
	$(GO) run ./cmd/pipbench -scale 0.04 -sizescale 0.12 -reps 1 -run smoke

# One iteration of every micro-benchmark of the request path's layers
# (MIR parse, print and hash; C compile; a cached /v1/solve answered by
# its raw text or after a parse), so they keep compiling and running.
# For timings, raise -benchtime.
bench-micro:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/ir ./internal/engine ./internal/cfront ./internal/serve

# Machine-readable solver-effort snapshot (per-configuration solve wall,
# rule firings, worklist peak); CI archives the same shape as
# BENCH_PR4.json.
bench-snapshot:
	$(GO) run ./cmd/pipbench -scale 0.02 -sizescale 0.1 -maxinstrs 4000 -reps 1 -run headline -json results/BENCH_PR4.json

# End-to-end check of the analysis service: ephemeral port, one real
# HTTP solve + healthz + a validated Prometheus /metrics scrape + a
# traced request round-tripped through /debug/trace?id= and
# /debug/flightrec, graceful drain. The request's solve spans are
# written to serve-trace.json, which -check-trace re-validates
# standalone (CI archives the file).
serve-smoke:
	$(GO) run ./cmd/pipserve -smoke -trace serve-trace.json
	$(GO) run ./cmd/pipserve -check-trace serve-trace.json

# Same, for router mode: an in-process solving backend is spun up and
# one traced solve is pushed through the full consistent-hash forward
# path, then the router's /metrics exposition and the merged cluster
# trace from /debug/trace?id= (router + backend spans under one
# X-Trace-Id) are validated.
router-smoke:
	$(GO) run ./cmd/pipserve -router -smoke

# Warm-restart measurement: the corpus solved cold with a persistent
# store attached, then re-answered by a fresh engine over the same
# directory — every warm answer a fingerprint-verified disk hit with
# zero rule firings (the run panics otherwise). CI archives the same
# shape as BENCH_PR8.json.
store-snapshot:
	$(GO) run ./cmd/pipbench -scale 0.02 -sizescale 0.1 -maxinstrs 4000 -reps 1 -run store,headline -json results/BENCH_PR8.json

# Fault-injection invariant suite under the race detector: every
# injection point armed at >= 1%, pinned seed (override with
# PIP_CHAOS_SEED). Asserts no admitted request is dropped, every answer
# is exact or the sound Ω-degradation, and the cache never serves a
# corrupted entry. See the "Fault model & resilience" section of
# DESIGN.md.
chaos:
	$(GO) test -race -v ./internal/chaos/ ./internal/faults/

# The PR-8 slice of the suite under its own pinned seed (override with
# PIP_CHAOS_SEED3): kill a live shard behind the router mid-load with
# injected forward faults, and hammer the persistent store with save
# errors and load bit-flips across restarts. The kill-shard run asserts
# the flight recorder dumps a breaker.open naming the killed backend;
# set PIP_CHAOS_DUMPDIR to keep the dump files (CI uploads them as
# artifacts on failure).
router-chaos:
	$(GO) test -race -v -run 'TestChaosRouterKillShard|TestChaosStoreFaults' ./internal/chaos/

# The PR-10 membership-churn scenario under its own pinned seed
# (override with PIP_CHAOS_SEED4): a cluster under concurrent load has a
# backend drained via the admin surface, a fresh one joined, the drained
# one removed, and a live one killed for the health prober to discover —
# with forward faults injected and hedged forwards racing the slow tail.
# Asserts zero dropped requests, bit-exact non-degraded answers, a
# monotone ring generation, a membership.change flight dump on disk, and
# hedge volume inside its token-bucket budget. PIP_CHAOS_DUMPDIR keeps
# the dump files for CI artifact upload on failure.
membership-chaos:
	$(GO) test -race -v -run TestChaosMembershipChurn ./internal/chaos/

# Differential correctness gate for the solver: sweeps generator-driven
# problems across a configuration × firing-cap matrix, checks unbudgeted
# solutions against the independent reference solver and capped ones for
# exact-or-Ω-degraded, and solves every cell twice for identical
# fingerprints and degrade decisions.
differential:
	$(GO) test -race -run Differential -v ./internal/core/differential/

# Short bounded fuzz pass over the solver-vs-reference oracle, engine
# recovery, incremental edits, demand slices, the MIR parser (checked
# against the whole-input reference lexer), the mini-C frontend (every
# module it produces verifies and analyzes) and C edit scripts through
# pip.Session (checked against from-scratch analyses); the other targets' seed
# corpora run via plain `make test`. Go's fuzzer allows one fuzz target
# per invocation, so each runs separately. Override FUZZTIME for longer
# campaigns.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzSolveReference -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run=^$$ -fuzz=FuzzEngineRecovery -fuzztime=$(FUZZTIME) ./internal/engine/
	$(GO) test -run=^$$ -fuzz=FuzzIncrementalEdit -fuzztime=$(FUZZTIME) ./internal/core/differential/
	$(GO) test -run=^$$ -fuzz=FuzzDemandSlice -fuzztime=$(FUZZTIME) ./internal/core/differential/
	$(GO) test -run=^$$ -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/ir/
	$(GO) test -run=^$$ -fuzz=FuzzCompile -fuzztime=$(FUZZTIME) ./internal/cfront/
	$(GO) test -run=^$$ -fuzz=FuzzCEdit -fuzztime=$(FUZZTIME) .

# Edit-script differential gate for incremental re-solving plus the
# demand-vs-exhaustive oracle, under the race detector (the CI
# incremental-differential job).
incremental-differential:
	$(GO) test -race -run 'Incremental|Demand|Summary' -v \
		./internal/core/ ./internal/core/differential/ ./internal/core/incr/ ./internal/engine/

# Lint beyond go vet; CI installs the tool, it is not a module
# dependency.
staticcheck:
	staticcheck ./...

bench:
	$(GO) test -bench=. -benchmem ./...

clean:
	$(GO) clean ./...
