# CI entry points. `make ci` is the full gate: vet, build, race-enabled
# tests (including the serve package's Close/drain and concurrency
# tests), and a one-iteration benchmark smoke run of the
# evaluation-engine, routing-path, and streaming-service comparisons,
# which also refreshes BENCH_eval.json (ns/vector for the interpreter,
# compiled, and wide engines at n ∈ {64, 256, 1024}), BENCH_route.json
# (ns/route for scalar, planned, and planned-parallel routing, the
# perm-planned-parallel vs perm-packed permuter batch paths, the
# benes-planned compiled Beneš replay baseline and its benes-packed
# lane-packed replay, plus ns/pattern for the conc-planned-parallel and
# conc-packed SWAR batch concentrator paths, all at
# n ∈ {64, 256, 1024, 4096}), and
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
# TestShardedSpeedupFloor:
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
# `make bench-shard` / `make bench-fault` / `make bench-frontdoor` /
# `make bench-zoo` run just those gates plus their benchmark columns,
# with full calibration instead of the one-iteration smoke
# (`make bench-permpacked` runs both the permuter and the Beneš packed
# floors next to the perm and benes columns). `make chaos` runs the
# race-enabled fault drill: stuck-at faults wedged into a live service
# under concurrent load, every admitted future must resolve correctly —
# and the front door's socket-to-socket drain: pipelining clients over
# loopback while the server and then the front door close mid-stream,
# every call verified or failed with a connection error, none hung, one
# response frame written per admitted request — and Close with a partial
# run held behind a packed replay in flight: Close releases the run and
# returns once the replay does, every future resolved — and Close with a
# run on a timed hold: Close stops the armed hold timer, releases the run
# and returns at once, every future resolved.
# `make lint` fails when `gofmt -l .` lists any file and greps for
# engine switches that bypass the planner registry, and vets the tree
# for arm64 so the pure-Go path of the packed runner's AVX2 kernels
# (internal/planner/kernels_amd64.s) keeps compiling; `make ci` runs it
# between vet and build. `make vet`'s asmdecl check pins the kernels'
# frame layouts to their Go declarations. Both `make vet` and
# `make lint` also vet the perfbench module, which has its own go.mod
# and so is never compiled by `go build ./...` at the root: a facade
# signature it builds against cannot break unseen.
#
# `make floors` runs every Test*Floor timing gate alone (one package at
# a time, -p 1) three times over and prints each run's logged ratio or
# throughput line next to its PASS/FAIL verdict, so each floor's margin
# is a recorded number rather than a bare pass; it fails if any of the
# runs fails.
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
# working tree in alternating order for AB_ROUNDS (default 10) rounds of
# AB_SECONDS seconds with workload seed AB_SEED (default 1), and prints
# the median, interquartile range, win count, verdict (ok / worse /
# unresolved, from BENCHMARK.json's bound and better) and claim of every
# end-to-end metric; it fails on any worse verdict. The claim reads gain
# when the working tree wins at least 9 of every 10 completed rounds and
# its median beats the base's by more than the base's interquartile
# range, so it needs ten rounds; re-check a claimed gain on a fresh
# AB_SEED. AB_TRACE=1 compares the traced per-layer metrics instead
# (the planner.packed.* probes among them): median, interquartile range,
# change and wins, with no verdict or claim. It writes nothing under
# perfbench/.

GO ?= go

.PHONY: ci vet lint build test race serve-race bench floors bench-packed bench-permpacked bench-shard bench-fault bench-frontdoor bench-zoo bench-ab chaos clean

AB_BASE ?= HEAD
AB_ROUNDS ?= 10
AB_SECONDS ?= 10
AB_SEED ?= 1
AB_TRACE ?= 0

ci: vet lint build race chaos bench

# lint fails if gofmt would reformat any file, or if any switch/case
# over engine identities survives outside the registry
# (internal/planner): engine dispatch must go through planner.Lookup /
# EngineSpec so newly registered engines reach every layer. Test files
# are exempt from the engine grep (they pin specific engines on purpose).
# The arm64 vet builds every package without the amd64 assembly.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "$$unformatted"; \
		echo 'lint: gofmt -l lists the files above — run gofmt -w on them'; \
		exit 1; \
	fi
	@matches=$$(grep -rn --include='*.go' --exclude='*_test.go' \
		-E 'switch [a-zA-Z_.]*[Ee]ngine|case (concentrator|planner)\.(MuxMerger|PrefixAdder|Fish|Ranking)\b' \
		. | grep -v 'internal/planner/' || true); \
	if [ -n "$$matches" ]; then \
		echo "$$matches"; \
		echo 'lint: engine switch outside the planner registry — dispatch through planner.Lookup instead'; \
		exit 1; \
	fi
	GOARCH=arm64 $(GO) vet ./...
	cd perfbench && GOARCH=arm64 $(GO) vet ./...

vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

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
	$(GO) test -run 'TestWideSpeedupFloor|TestRouteSpeedupFloor|TestServeThroughputFloor|TestPackedSpeedupFloor|TestPermPackedSpeedupFloor|TestBenesPackedSpeedupFloor|TestShardedSpeedupFloor|TestFaultCheckerOverheadFloor|TestFrontdoorThroughputFloor|TestZooSpeedupFloor' -bench 'EvalEngines|RouteEngines|ServeThroughput|ServeFault|ZooEngines' -benchtime 1x .

floors:
	@out=$$($(GO) test -p 1 -count=3 -v -run '^Test[A-Za-z0-9]*Floor$$' . 2>&1); status=$$?; \
	printf '%s\n' "$$out" | grep -E -- '^ +[a-z_]+_test\.go:[0-9]+: |^--- |^(ok|FAIL)'; \
	exit $$status

bench-packed:
	$(GO) test -run 'TestPackedSpeedupFloor$$' -bench 'RouteEngines/conc' -count=1 .

bench-permpacked:
	$(GO) test -run 'TestPermPackedSpeedupFloor|TestBenesPackedSpeedupFloor' -bench 'RouteEngines/(perm|benes)' -count=1 .

bench-shard:
	$(GO) test -run 'TestShardedSpeedupFloor' -bench 'RouteEnginesSharded' -count=1 .

bench-fault:
	$(GO) test -run 'TestFaultCheckerOverheadFloor' -bench 'ServeFault' -count=1 .

bench-frontdoor:
	$(GO) test -run 'TestFrontdoorThroughputFloor' -bench 'FrontdoorWire' -count=1 .

bench-zoo:
	$(GO) test -run 'TestZooSpeedupFloor' -bench 'ZooEngines' -count=1 .

bench-ab:
	python3 scripts/bench_ab.py --base $(AB_BASE) --rounds $(AB_ROUNDS) --seconds $(AB_SECONDS) --seed $(AB_SEED) \
		--trace $(AB_TRACE)

chaos:
	$(GO) test -race -run 'TestChaosRecovery|TestCloseReleasesHeldRun|TestCloseStopsHoldTimer' -count=1 ./internal/serve
	$(GO) test -race -run 'TestChaosDrill|TestRoutingServiceFaultPublic' -count=1 .
	$(GO) test -race -run 'TestWireDrainInvariant' -count=1 ./internal/frontdoor

clean:
	$(GO) clean ./...
