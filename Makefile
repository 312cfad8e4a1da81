# Tier-1 verification is `make build test` (the driver's gate); `make all`
# additionally runs the race sweep and the static-analysis suite.

GO ?= go

.PHONY: all build test race lint check gates bench-smoke bench bench-transport bench-trace bench-overload bench-store bench-scale chaos

all: build test race lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race sweep is part of tier-1 verification for concurrency changes:
# the cluster, lease, singleton, and store packages are lock-heavy and the
# virtual clock fires timers from Advance, so interleavings shift easily.
race:
	$(GO) test -race ./...

# lint = the Go toolchain's vet plus this repo's own analyzers (walltime,
# lockheld, errdrop, afterloop, spanleak, lockorder, goleak, unreached —
# see DESIGN.md "Determinism & lint rules"); every one must be clean.
# internal/lint/repo_test.go runs the same gate under `make test`, so CI
# fails even without this target.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/wlslint ./...

# check is the pre-PR gate: gofmt (as CI's first step runs it), vet,
# build, the lint suite, the race detector over the lock-heaviest
# packages (membership, whose join answers publish from inside a bus
# delivery, and the partition rings it feeds; the timer loop every
# periodic job runs on, and the SAF drain, log sniffer and ETL on it;
# lease/tx/transport and the singletons the leases elect; the kv image,
# whose scans share its lock with commits, and the tuple sessions over it;
# the wire codec and the session records — of the servlet engine and of
# stateful beans — and the webtier above them; and the chaos harness that
# drives them all at once), then the contract benchmark's smoke run.
check:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) run ./cmd/wlslint ./...
	$(GO) test -race ./internal/cluster ./internal/partition ./internal/vclock ./internal/jms ./internal/cache ./internal/warehouse ./internal/lease ./internal/singleton ./internal/tx ./internal/kv ./internal/tuple ./internal/wire ./internal/transport ./internal/rmi ./internal/netsim ./internal/servlet ./internal/ejb ./internal/webtier ./internal/chaostest
	$(MAKE) bench-smoke

# gates is CI's "Alloc and wire gates" step, which runs exactly this
# target (see the comment there): the request-path allocation gates on one
# and four CPUs twenty times over, the wire gates (bytes per routed
# request, the same at any connection age), the HTTP edge's one
# allocation per request (no Set-Cookie for a cookie that still holds),
# the placement, row, lock-table and connection footprints, the row-lock
# pass, a WAL's syncs (none at a fresh open), a warm TCP
# call's zero allocations, a steady heartbeat's one allocation, a 2PC's
# two (its Tx and id), and the pool-recycling stress.
# Allocation counts need a build without -race; the last two lines are
# race-only checks.
gates:
	$(GO) test -run 'TestAllocGate' -count=20 -cpu 1,4 .
	$(GO) test -run 'TestWireGate' -v -count=1 .
	$(GO) test -run 'TestAppHandlerReadsTheCookieInPlace' -v -count=1 ./cmd/wlsd
	$(GO) test -run 'TestPlacementAllocFree' -v -count=1 ./internal/servlet
	$(GO) test -run 'TestSteadyHeartbeatAllocsPerMember' -v -count=1 ./internal/cluster
	$(GO) test -run 'TestTwoPhaseCommitAllocatesOnlyItsTx' -v -count=1 ./internal/tx
	$(GO) test -run 'TestStoreRowFootprint|TestUnfollowedStoreKeepsNoWindow|TestLockTableGivesBackItsMap|TestLockPass|TestLockRacingRollback' -v -count=1 ./internal/store
	$(GO) test -run 'TestWALSyncChoreography' -v -count=1 ./internal/kv
	$(GO) test -run 'TestIdleConnFootprint|TestCallAllocatesNothing' -v -count=1 ./internal/transport
	$(GO) test -race -run 'TestIdleWritersHoldNoBuffer|TestFramesSpanningTheReadBuffer' -v -count=1 ./internal/transport
	$(GO) test -race -run 'TestPoolRecycling' -count=1 .

# bench-smoke builds the contract benchmark (BENCHMARK.json) against the
# tree and runs every workload for 3 s, untraced and traced. The benchmark
# exits non-zero when a reply fails its check, so a change that breaks its
# build or the bytes it verifies is caught here, not after submission.
BENCH_WORKLOADS = echo-hot session-wide checkout-durable shop-mix
bench-smoke:
	$(GO) vet ./benchmark
	@set -e; for w in $(BENCH_WORKLOADS); do for tr in 0 1; do \
		echo "benchmark --workload $$w --trace $$tr"; \
		out=$$($(GO) run ./benchmark --workload $$w --seed 1 --seconds 3 --trace $$tr 2>&1) || { echo "$$out"; exit 1; }; \
	done; done

# Every experiment (internal/benchtest, indexed in DESIGN.md) is a
# sub-benchmark of BenchmarkExperiments in bench_test.go; EXPERIMENT runs
# the ones its -bench pattern names, once each, and -tables writes their
# tables as JSON.
EXPERIMENT = $(GO) test -run '^$$' -benchtime 1x -timeout 0 .

bench:
	$(EXPERIMENT) -bench 'Experiments/'

# Transport hot-path numbers (E27): echo RPC throughput, allocs/call and
# frames per batched write, checked in as BENCH_transport.json.
bench-transport:
	$(EXPERIMENT) -bench 'Experiments/E27$$' -args -tables BENCH_transport.json

# Tracing numbers (E29): echo-RPC throughput and allocations at 0%/1%/100%
# sampling, checked in as BENCH_trace.json.
bench-trace:
	$(EXPERIMENT) -bench 'Experiments/E29$$' -args -tables BENCH_trace.json

# Overload-protection numbers (E30): a static cluster vs the full
# protection stack (budgets, admission, retry budget, breakers) under a
# flash burst with a slow server, checked in as BENCH_overload.json.
bench-overload:
	$(EXPERIMENT) -bench 'Experiments/E30$$' -args -tables BENCH_overload.json

# Persistence numbers (E32): table-store commit throughput, fsync
# amplification, recovery time and footprint over each kv backend
# (mem / WAL), checked in as BENCH_store.json.
bench-store:
	$(EXPERIMENT) -bench 'Experiments/E32$$' -args -tables BENCH_store.json

# Scale-out numbers (E33): a 32-server ring-partitioned cluster under the
# closed-loop workload engine — steady-state tails, key movement of a live
# join/leave (bound: 2/N), session survival across both rebalances, and
# flash-crowd shedding at Deny admission. Checked in as BENCH_scale.json.
bench-scale:
	$(EXPERIMENT) -bench 'Experiments/E33$$' -args -tables BENCH_scale.json

# Extended chaos sweep (E28): 32 seeds at a longer horizon than the small
# in-tree sweep TestChaosSweepSmall runs under `make test`. A failing seed
# prints a one-command replay (see DESIGN.md "Chaos sweep").
chaos:
	WLS_CHAOS_SEEDS=32 $(GO) test -run TestChaosExtended -v ./internal/chaostest
