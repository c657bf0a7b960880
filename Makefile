# CI entry points. `make ci` is the full gate: vet, build, race-enabled
# tests (including the serve package's Close/drain and concurrency
# tests), and a one-iteration benchmark smoke run of the
# evaluation-engine, routing-path, and streaming-service comparisons,
# which also refreshes BENCH_eval.json (ns/vector for the interpreter,
# compiled, and wide engines at n ∈ {64, 256, 1024}), BENCH_route.json
# (ns/route for scalar, planned, and planned-parallel routing, the
# perm-planned-parallel vs perm-packed vs perm-packed256 permuter batch
# paths, the benes-planned compiled Beneš replay baseline and its
# benes-packed lane-packed replay, plus ns/pattern for the
# conc-planned-parallel, conc-packed, and conc-packed256 SWAR batch
# concentrator paths, all at n ∈ {64, 256, 1024, 4096}), and
# BENCH_serve.json (ns/request for the streaming service vs the
# planned-parallel batch pipeline at n ∈ {256, 1024, 4096}). Only the
# Benchmark* functions write those files; the Test*Floor gates never
# do, so plain `go test ./...` leaves the tree clean. BENCH_frontdoor.json
# (the multi-tenant wire trajectory) is appended to by
# `permroute -loadgen` alone; TestFrontdoorThroughputFloor gates the
# 4-tenant × 16-connection verified workload at ≥ 200 reqs/sec.
#
# The bench smoke run also enforces the timing floors, including
# TestPackedSpeedupFloor: the SWAR lane-packed concentrator must hold at
# least 3× the planned per-pattern throughput on 64-wide batches at
# n=4096, one worker on each side — TestPermPackedSpeedupFloor: the
# lane-packed fused permuter must hold at least 2× the planned
# per-route throughput on the same batch shape, one worker each —
# TestBenesPackedSpeedupFloor: the packed Beneš replay must hold at
# least 3× the planned replay's per-route throughput on 64-wide batches
# at n=4096, one worker each (see the per-core note below) — and
# TestWidePackedThroughputFloor: 256-lane RoutePacked/ConcentratePacked
# calls must match or beat 64-lane calls on the same 1024 items, on both
# the permuter and the concentrator at n=256 (no regression from
# widening) — and TestShardedSpeedupFloor:
# the w-way sharded hierarchical router must hold at least 2× the flat
# planned-parallel per-route throughput on 16-wide batches at n=65536
# (BenchmarkRouteEnginesSharded records the route-sharded columns at
# n ∈ {4096, 16384, 65536}) — and TestFaultCheckerOverheadFloor: the
# default sampled lanewise response checker (1/64) must cost ≤ 5% over
# the unchecked serving baseline at n=1024 (BenchmarkServeFault records
# the check-off / check-1/64 / check-all / recovery columns into
# BENCH_fault.json) — and TestZooSpeedupFloor: the constant-periodic
# zoo engine's packed path must at least match planned-parallel
# per-pattern throughput on 64-wide batches at n=4096
# (BenchmarkZooEngines records the network-zoo engine matrix into
# BENCH_zoo.json). `make bench-packed` / `make bench-permpacked` /
# `make bench-wide` / `make bench-shard` / `make bench-fault` /
# `make bench-frontdoor` / `make bench-zoo` run just those gates plus
# their benchmark columns, with full calibration
# instead of the one-iteration smoke (`make bench-wide` records the
# 64-lane perm-packed / conc-packed columns next to their 256-lane
# counterparts). `make chaos` runs the
# race-enabled fault drill: stuck-at faults wedged into a live service
# under concurrent load, every admitted future must resolve correctly.
# `make lint` greps for engine switches that bypass the planner
# registry; `make ci` runs it between vet and build.
#
# The three packed speedup floors (TestPackedSpeedupFloor,
# TestPermPackedSpeedupFloor, TestBenesPackedSpeedupFloor) measure
# per-core throughput: both the packed and the planned side run on one
# worker. The batch driver packs a 64-item batch into one lane group on
# one worker whatever GOMAXPROCS is, so a planned side spread over every
# worker would compare one core against all cores — a ratio that falls
# as cores are added — instead of the SWAR kernel against the scalar
# replay. The batch is deliberately not grown to 64 × workers to win
# the ratio back; that would hide the driver's worker-blind pack
# decision for a 64-item batch, which is tracked on its own.
#
# `make bench-ab` is the interleaved A/B run of the repository
# benchmark: scripts/bench_ab.py checks AB_BASE (default HEAD) out into
# a git worktree under .bench_build/, runs perfbench on it and on the
# working tree in alternating order for AB_ROUNDS rounds of AB_SECONDS
# seconds, and prints the median, interquartile range and win count of
# every end-to-end metric. It writes nothing under perfbench/.

GO ?= go

.PHONY: ci vet lint build test race serve-race bench bench-packed bench-permpacked bench-wide bench-shard bench-fault bench-frontdoor bench-zoo bench-ab chaos clean

AB_BASE ?= HEAD
AB_ROUNDS ?= 5
AB_SECONDS ?= 10

ci: vet lint build race chaos bench

# lint fails if any switch/case over engine identities survives outside
# the registry (internal/planner): engine dispatch must go through
# planner.Lookup / EngineSpec so newly registered engines reach every
# layer. Test files are exempt (they pin specific engines on purpose).
lint:
	@matches=$$(grep -rn --include='*.go' --exclude='*_test.go' \
		-E 'switch [a-zA-Z_.]*[Ee]ngine|case (concentrator|planner)\.(MuxMerger|PrefixAdder|Fish|Ranking)\b' \
		. | grep -v 'internal/planner/' || true); \
	if [ -n "$$matches" ]; then \
		echo "$$matches"; \
		echo 'lint: engine switch outside the planner registry — dispatch through planner.Lookup instead'; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

serve-race:
	$(GO) test -race ./internal/serve ./internal/frontdoor -run . -count=1
	$(GO) test -race -run 'TestRoutingService' -count=1 .

bench:
	$(GO) test -run 'TestWideSpeedupFloor|TestRouteSpeedupFloor|TestServeThroughputFloor|TestPackedSpeedupFloor|TestPermPackedSpeedupFloor|TestBenesPackedSpeedupFloor|TestWidePackedThroughputFloor|TestShardedSpeedupFloor|TestFaultCheckerOverheadFloor|TestFrontdoorThroughputFloor|TestZooSpeedupFloor' -bench 'EvalEngines|RouteEngines|ServeThroughput|ServeFault|ZooEngines' -benchtime 1x .

bench-packed:
	$(GO) test -run 'TestPackedSpeedupFloor$$' -bench 'RouteEngines/conc' -count=1 .

bench-permpacked:
	$(GO) test -run 'TestPermPackedSpeedupFloor' -bench 'RouteEngines/(perm|benes)' -count=1 .

bench-wide:
	$(GO) test -run 'TestBenesPackedSpeedupFloor|TestWidePackedThroughputFloor' -bench 'RouteEngines/(perm-packed|benes|conc-packed)' -count=1 .

bench-shard:
	$(GO) test -run 'TestShardedSpeedupFloor' -bench 'RouteEnginesSharded' -count=1 .

bench-fault:
	$(GO) test -run 'TestFaultCheckerOverheadFloor' -bench 'ServeFault' -count=1 .

bench-frontdoor:
	$(GO) test -run 'TestFrontdoorThroughputFloor' -bench 'FrontdoorWire' -count=1 .

bench-zoo:
	$(GO) test -run 'TestZooSpeedupFloor' -bench 'ZooEngines' -count=1 .

bench-ab:
	python3 scripts/bench_ab.py --base $(AB_BASE) --rounds $(AB_ROUNDS) --seconds $(AB_SECONDS)

chaos:
	$(GO) test -race -run 'TestChaosRecovery' -count=1 ./internal/serve
	$(GO) test -race -run 'TestChaosDrill|TestRoutingServiceFaultPublic' -count=1 .

clean:
	$(GO) clean ./...
