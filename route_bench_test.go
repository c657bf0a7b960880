package absort_test

// BenchmarkRouteEngines measures per-route throughput of the Fig. 10 radix
// permuter's routing paths on the fish engine at n ∈ {64, 256, 1024, 4096}:
//
//   - scalar:           the seed's recursive per-level fish router
//     (scalarFishRoute, a test-local copy of the retired recursion)
//   - planned:          the compiled route plan, one request per call
//   - planned-parallel: the batch pipeline over the same compiled plan
//
// plus the two batch routing paths RouteBatch arbitrates between on
// 64-wide permutation batches, and the compiled Beneš replay baseline:
//
//   - perm-planned-parallel: per-assignment planned batch routing
//   - perm-packed:           the SWAR lane-packed fused-plan engine,
//     64 assignments per plan replay
//   - benes-planned:         the compiled Beneš program, looping-routed
//     switch settings replayed through preset selects
//   - benes-packed:          the packed Beneš replay, 64 looping-routed
//     assignments flattened to lane masks per program replay
//
// and, for the (n,n)-concentrator on the same engine and sizes, the
// batch routing paths ConcentrateBatch arbitrates between on 64-wide
// batches:
//
//   - conc-planned-parallel: per-pattern planned batch routing
//   - conc-packed:           the SWAR lane-packed engine, 64 patterns
//     per plan replay
//
// Each sub-benchmark reports ns/route via b.ReportMetric; the collected
// numbers are persisted to BENCH_route.json when the run completes so the
// CI smoke run (`make bench`) leaves a machine-readable record of the
// speedup, alongside BENCH_eval.json.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync"
	"testing"

	"absort/internal/bitvec"
	"absort/internal/concentrator"
	"absort/internal/permnet"
	"absort/internal/planner"
	"absort/internal/race"
)

// routeBenchRecord is one path × size measurement.
type routeBenchRecord struct {
	Path       string  `json:"path"`
	N          int     `json:"n"`
	NsPerRoute float64 `json:"ns_per_route"`
}

var routeBench struct {
	sync.Mutex
	records []routeBenchRecord
}

// recordRouteBench stores a measurement and rewrites BENCH_route.json with
// everything collected so far (the final sub-run leaves the full table).
func recordRouteBench(path string, n int, nsPerRoute float64) {
	routeBench.Lock()
	defer routeBench.Unlock()
	for i, r := range routeBench.records {
		if r.Path == path && r.N == n {
			routeBench.records[i].NsPerRoute = nsPerRoute
			writeRouteBench()
			return
		}
	}
	routeBench.records = append(routeBench.records, routeBenchRecord{path, n, nsPerRoute})
	writeRouteBench()
}

func writeRouteBench() {
	data, err := json.MarshalIndent(routeBench.records, "", "  ")
	if err != nil {
		return
	}
	_ = os.WriteFile("BENCH_route.json", append(data, '\n'), 0o644)
}

// routeBenchBatch is the number of independent permutations routed per
// planned-parallel benchmark iteration.
const routeBenchBatch = 16

func BenchmarkRouteEngines(b *testing.B) {
	rng := rand.New(rand.NewSource(1992))
	for _, n := range []int{64, 256, 1024, 4096} {
		rp := permnet.NewRadixPermuter(n, concentrator.Fish, 0)
		plan := rp.Compile()
		dests := make([][]int, routeBenchBatch)
		for i := range dests {
			dests[i] = rng.Perm(n)
		}

		b.Run(fmt.Sprintf("scalar/n=%d", n), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scalarSink = scalarFishRoute(dests[i%routeBenchBatch])
			}
			b.StopTimer()
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(ns, "ns/route")
			recordRouteBench("scalar", n, ns)
		})
		b.Run(fmt.Sprintf("planned/n=%d", n), func(b *testing.B) {
			out := make([]int, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := plan.RouteInto(out, dests[i%routeBenchBatch]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(ns, "ns/route")
			recordRouteBench("planned", n, ns)
		})
		b.Run(fmt.Sprintf("planned-parallel/n=%d", n), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := plan.RouteBatch(dests, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / routeBenchBatch
			b.ReportMetric(ns, "ns/route")
			recordRouteBench("planned-parallel", n, ns)
		})

		permBatch := make([][]int, permnet.PackedLanes)
		for i := range permBatch {
			permBatch[i] = rng.Perm(n)
		}
		b.Run(fmt.Sprintf("perm-planned-parallel/n=%d", n), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := plan.RouteBatchPlanned(permBatch, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / permnet.PackedLanes
			b.ReportMetric(ns, "ns/route")
			recordRouteBench("perm-planned-parallel", n, ns)
		})
		b.Run(fmt.Sprintf("perm-packed/n=%d", n), func(b *testing.B) {
			// 64-wide batch: RouteBatch auto-switches to the packed engine,
			// one SWAR fused-plan replay for the whole batch.
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := plan.RouteBatch(permBatch, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / permnet.PackedLanes
			b.ReportMetric(ns, "ns/route")
			recordRouteBench("perm-packed", n, ns)
		})

		bp, err := permnet.CompileBenes(n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("benes-planned/n=%d", n), func(b *testing.B) {
			out := make([]int, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bp.RouteInto(out, permBatch[i%permnet.PackedLanes]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(ns, "ns/route")
			recordRouteBench("benes-planned", n, ns)
		})
		b.Run(fmt.Sprintf("benes-packed/n=%d", n), func(b *testing.B) {
			// 64-wide batch: RouteBatch auto-switches to the packed replay,
			// flattening 64 looping-routed settings into lane masks and
			// replaying the Beneš program once for the whole batch.
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bp.RouteBatch(permBatch, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / permnet.PackedLanes
			b.ReportMetric(ns, "ns/route")
			recordRouteBench("benes-packed", n, ns)
		})

		conc := concentrator.New(n, n, concentrator.Fish, 0)
		conc.Compile()
		markedBatch := make([][]bool, concentrator.PackedLanes)
		for i := range markedBatch {
			m := make([]bool, n)
			for j := range m {
				m[j] = rng.Intn(2) == 0
			}
			markedBatch[i] = m
		}
		b.Run(fmt.Sprintf("conc-planned-parallel/n=%d", n), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := conc.ConcentrateBatchPlanned(markedBatch, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / concentrator.PackedLanes
			b.ReportMetric(ns, "ns/pattern")
			recordRouteBench("conc-planned-parallel", n, ns)
		})
		b.Run(fmt.Sprintf("conc-packed/n=%d", n), func(b *testing.B) {
			// 64-wide batch: ConcentrateBatch auto-switches to the packed
			// engine, one SWAR plan replay for the whole batch.
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := conc.ConcentrateBatch(markedBatch, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / concentrator.PackedLanes
			b.ReportMetric(ns, "ns/pattern")
			recordRouteBench("conc-packed", n, ns)
		})
	}
}

// BenchmarkRouteEnginesSharded measures the sharded hierarchical router
// against the flat planned-parallel batch pipeline at the huge widths
// the sharded layer exists for (n ∈ {4096, 16384, 65536}, fish engine,
// 64 shards — the packed sub-replay width):
//
//   - planned-parallel: the flat fused plan's batch pipeline (the path
//     the sharded router replaces; recorded here for 16384/65536 where
//     BenchmarkRouteEngines does not reach)
//   - route-sharded:    the w-way sharded plan — rank-lowered cross-shard
//     exchange, then one lane-packed n/w sub-replay carrying all w
//     shards of each request
//
// Results land in BENCH_route.json as route-sharded columns alongside
// the flat paths.
func BenchmarkRouteEnginesSharded(b *testing.B) {
	rng := rand.New(rand.NewSource(1992))
	for _, n := range []int{4096, 16384, 65536} {
		plan := permnet.NewRadixPermuter(n, concentrator.Fish, 0).Compile()
		sp, err := permnet.ShardedPlanFor(n, concentrator.Fish, 64)
		if err != nil {
			b.Fatal(err)
		}
		dests := make([][]int, routeBenchBatch)
		for i := range dests {
			dests[i] = rng.Perm(n)
		}
		if n > 4096 {
			// BenchmarkRouteEngines stops at 4096; record the flat
			// baseline at the sharded sizes for the speedup column.
			b.Run(fmt.Sprintf("planned-parallel/n=%d", n), func(b *testing.B) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := plan.RouteBatchPlanned(dests, 0); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / routeBenchBatch
				b.ReportMetric(ns, "ns/route")
				recordRouteBench("planned-parallel", n, ns)
			})
		}
		b.Run(fmt.Sprintf("route-sharded/n=%d", n), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sp.RouteBatch(dests, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / routeBenchBatch
			b.ReportMetric(ns, "ns/route")
			recordRouteBench("route-sharded", n, ns)
		})
	}
}

// scalarFishRoute is the seed's scalar radix-permuter router on the fish
// engine, kept here only as the baseline of TestRouteSpeedupFloor and
// BenchmarkRouteEngines/scalar: per level, each window's tags (the
// leading local destination bit) route through the fish item replay at
// k = lg s, the packets and their local destinations are gathered into
// the routed order, the lower half is rebased, and both halves recurse.
// dest must be a permutation of a power-of-two width. It returns p with
// out[j] = in[p[j]].
func scalarFishRoute(dest []int) []int {
	n := len(dest)
	idx := make([]int, n)
	local := make([]int, n)
	for i := range idx {
		idx[i] = i
		local[i] = dest[i]
	}
	scalarFishLevel(idx, local)
	return idx
}

func scalarFishLevel(idx, local []int) {
	s := len(idx)
	if s == 1 {
		return
	}
	tags := make(bitvec.Vector, s)
	for j, d := range local {
		if d >= s/2 {
			tags[j] = 1
		}
	}
	p := concentrator.RouteFish(tags, planner.DefaultFishK(s))
	newIdx := make([]int, s)
	newLocal := make([]int, s)
	for j, x := range p {
		newIdx[j] = idx[x]
		newLocal[j] = local[x]
	}
	copy(idx, newIdx)
	copy(local, newLocal)
	for j := 0; j < s/2; j++ {
		local[s/2+j] -= s / 2
	}
	scalarFishLevel(idx[:s/2], local[:s/2])
	scalarFishLevel(idx[s/2:], local[s/2:])
}

// scalarSink keeps the benchmarked scalarFishRoute calls live.
var scalarSink []int

// TestRouteSpeedupFloor pins the acceptance criterion: the compiled route
// plan must deliver at least 5× the scalar router's per-route throughput on
// the n=4096 fish permuter. The scalar side is scalarFishRoute, the seed's
// recursion, whose results the test also checks against the plan's.
// Measured inline (not via the benchmark harness) so `go test` enforces it
// on every run, mirroring TestWideSpeedupFloor.
func TestRouteSpeedupFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("timing floor skipped in -short mode")
	}
	if race.Enabled {
		t.Skip("timing floor skipped under the race detector: instrumentation " +
			"slows the planned path's packed-word loops far more than the " +
			"allocation-heavy scalar router, distorting the ratio")
	}
	n := 4096
	rp := permnet.NewRadixPermuter(n, concentrator.Fish, 0)
	plan := rp.Compile()
	rng := rand.New(rand.NewSource(7))
	dests := make([][]int, 4)
	for i := range dests {
		dests[i] = rng.Perm(n)
	}
	out := make([]int, n)

	for _, dest := range dests {
		if err := plan.RouteInto(out, dest); err != nil {
			t.Fatal(err)
		}
		if want := scalarFishRoute(dest); !slices.Equal(out, want) {
			t.Fatal("scalar baseline and compiled plan route differently")
		}
	}

	scalar := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scalarSink = scalarFishRoute(dests[i&3])
		}
	})
	planned := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := plan.RouteInto(out, dests[i&3]); err != nil {
				b.Fatal(err)
			}
		}
	})
	scalarNs := float64(scalar.NsPerOp())
	plannedNs := float64(planned.NsPerOp())
	speedup := scalarNs / plannedNs
	t.Logf("n=%d: scalar %.0f ns/route, planned %.0f ns/route, speedup %.1f×",
		n, scalarNs, plannedNs, speedup)
	if speedup < 5 {
		t.Errorf("planned route speedup %.1f× < 5× floor (scalar %.0f ns/route, planned %.0f ns/route)",
			speedup, scalarNs, plannedNs)
	}
}

// TestPackedSpeedupFloor pins the packed engine's acceptance criterion:
// on 64-wide batches at n=4096 (fish engine), ConcentrateBatch's SWAR
// lane-packed path must deliver at least 3× the per-pattern throughput
// of the planned path it replaces, per core. Both sides run on one
// worker (workers = 1) because that is the claim the SWAR kernel makes:
// one 64-lane replay on one core against 64 scalar replays on one core.
// The batch driver packs a 64-item batch into a single lane group that
// runs on one worker whatever GOMAXPROCS is, while the planned path
// spreads the same 64 items over every worker — comparing those would
// compare one core against all cores, a ratio that shrinks as the box
// grows (1.6× at GOMAXPROCS 2 against 3.4× at 1). Growing the batch to
// 64·W to restore the ratio would hide that the driver's pack-or-plan
// choice for a 64-item batch is not worker-aware; that choice is
// tracked separately. The ratio is taken as the best of three trials
// so a CI scheduling hiccup in one trial cannot fail the gate.
func TestPackedSpeedupFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("timing floor skipped in -short mode")
	}
	if race.Enabled {
		t.Skip("timing floor skipped under the race detector: instrumentation " +
			"penalizes the packed engine's tight word loops far more than the " +
			"planned path, distorting the ratio")
	}
	n := 4096
	conc := concentrator.New(n, n, concentrator.Fish, 0)
	conc.Compile()
	rng := rand.New(rand.NewSource(1992))
	markedBatch := make([][]bool, concentrator.PackedLanes)
	for i := range markedBatch {
		m := make([]bool, n)
		for j := range m {
			m[j] = rng.Intn(2) == 0
		}
		markedBatch[i] = m
	}
	// Warm both paths (plan + packed compilation, pooled scratch).
	if _, _, err := conc.ConcentrateBatchPlanned(markedBatch, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := conc.ConcentrateBatch(markedBatch, 1); err != nil {
		t.Fatal(err)
	}
	best := 0.0
	var plannedNs, packedNs float64
	for trial := 0; trial < 3; trial++ {
		planned := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := conc.ConcentrateBatchPlanned(markedBatch, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		packed := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := conc.ConcentrateBatch(markedBatch, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		speedup := float64(planned.NsPerOp()) / float64(packed.NsPerOp())
		if speedup > best {
			best = speedup
			plannedNs = float64(planned.NsPerOp()) / concentrator.PackedLanes
			packedNs = float64(packed.NsPerOp()) / concentrator.PackedLanes
		}
	}
	t.Logf("n=%d, %d-wide batch, 1 worker: planned %.0f ns/pattern, packed %.0f ns/pattern, speedup %.1f×",
		n, concentrator.PackedLanes, plannedNs, packedNs, best)
	if best < 3 {
		t.Errorf("packed concentrate speedup %.1f× < 3× floor (planned %.0f ns/pattern, packed %.0f ns/pattern)",
			best, plannedNs, packedNs)
	}
}

// TestPermPackedSpeedupFloor pins the packed permuter's acceptance
// criterion: on 64-wide batches at n=4096 (fish engine), RouteBatch's
// SWAR lane-packed fused-plan path must deliver at least 2× the
// per-assignment throughput of the planned path it replaces, per core.
// The floor is lower than the concentrator's because the permuter keeps
// 2 lg n − d planes live at level d (lg n destination bits plus lg n
// index bits) where the concentrator keeps one tag plane — the packed
// pass moves more words per replay. Both sides run on one worker, for
// the reason TestPackedSpeedupFloor gives: a 64-item batch packs into
// one lane group on one worker, so a planned side spread over every
// worker would measure the core count, not the kernel (4.0× at
// GOMAXPROCS 1, 2.0× at 2). The ratio is taken as the best of three
// trials so a CI scheduling hiccup in one trial cannot fail the gate.
func TestPermPackedSpeedupFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("timing floor skipped in -short mode")
	}
	if race.Enabled {
		t.Skip("timing floor skipped under the race detector: instrumentation " +
			"penalizes the packed engine's tight word loops far more than the " +
			"planned path, distorting the ratio")
	}
	n := 4096
	plan := permnet.NewRadixPermuter(n, concentrator.Fish, 0).Compile()
	rng := rand.New(rand.NewSource(1992))
	dests := make([][]int, permnet.PackedLanes)
	for i := range dests {
		dests[i] = rng.Perm(n)
	}
	// Warm both paths (plan + packed compilation, pooled scratch).
	if _, err := plan.RouteBatchPlanned(dests, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.RouteBatch(dests, 1); err != nil {
		t.Fatal(err)
	}
	best := 0.0
	var plannedNs, packedNs float64
	for trial := 0; trial < 3; trial++ {
		planned := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := plan.RouteBatchPlanned(dests, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		packed := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := plan.RouteBatch(dests, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		speedup := float64(planned.NsPerOp()) / float64(packed.NsPerOp())
		if speedup > best {
			best = speedup
			plannedNs = float64(planned.NsPerOp()) / permnet.PackedLanes
			packedNs = float64(packed.NsPerOp()) / permnet.PackedLanes
		}
	}
	t.Logf("n=%d, %d-wide batch, 1 worker: planned %.0f ns/route, packed %.0f ns/route, speedup %.1f×",
		n, permnet.PackedLanes, plannedNs, packedNs, best)
	if best < 2 {
		t.Errorf("packed permute speedup %.1f× < 2× floor (planned %.0f ns/route, packed %.0f ns/route)",
			best, plannedNs, packedNs)
	}
}

// TestBenesPackedSpeedupFloor pins the packed Beneš replay's acceptance
// criterion: on 64-wide batches at n=4096, RouteBatch's packed path —
// looping-routed switch settings flattened to lane masks and replayed
// through one program pass — must deliver at least 3× the per-route
// throughput of the planned replay it rides on, per core. Both sides
// run on one worker, for the reason TestPackedSpeedupFloor gives: a
// 64-item batch packs into one lane group on one worker, so a planned
// side spread over every worker would measure the core count, not the
// kernel (4.4× at GOMAXPROCS 1, 2.5× at 2). The ratio is taken as the
// best of three trials so a CI scheduling hiccup in one trial cannot
// fail the gate.
func TestBenesPackedSpeedupFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("timing floor skipped in -short mode")
	}
	if race.Enabled {
		t.Skip("timing floor skipped under the race detector: instrumentation " +
			"penalizes the packed engine's tight word loops far more than the " +
			"planned path, distorting the ratio")
	}
	n := 4096
	bp, err := permnet.CompileBenes(n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1992))
	dests := make([][]int, permnet.PackedLanes)
	for i := range dests {
		dests[i] = rng.Perm(n)
	}
	// Warm both paths (packed program compilation, pooled scratch).
	if _, err := bp.RouteBatchPlanned(dests, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := bp.RouteBatch(dests, 1); err != nil {
		t.Fatal(err)
	}
	best := 0.0
	var plannedNs, packedNs float64
	for trial := 0; trial < 3; trial++ {
		planned := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bp.RouteBatchPlanned(dests, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		packed := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bp.RouteBatch(dests, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		speedup := float64(planned.NsPerOp()) / float64(packed.NsPerOp())
		if speedup > best {
			best = speedup
			plannedNs = float64(planned.NsPerOp()) / permnet.PackedLanes
			packedNs = float64(packed.NsPerOp()) / permnet.PackedLanes
		}
	}
	t.Logf("n=%d, %d-wide batch, 1 worker: benes-planned %.0f ns/route, benes-packed %.0f ns/route, speedup %.1f×",
		n, permnet.PackedLanes, plannedNs, packedNs, best)
	if best < 3 {
		t.Errorf("packed Beneš speedup %.1f× < 3× floor (planned %.0f ns/route, packed %.0f ns/route)",
			best, plannedNs, packedNs)
	}
}

// TestShardedSpeedupFloor pins the sharded router's acceptance
// criterion (ISSUE 7): on 16-wide batches at n=65536 (fish engine,
// auto shard count → 64), the sharded hierarchical plan must deliver
// at least 2× the per-route throughput of the flat planned-parallel
// batch pipeline it replaces at huge widths. The win is structural on
// any core count: the cross-shard exchange runs lg w of the lg n
// levels as O(n) stable ranks, and the remaining lg(n/w) levels ride
// one lane-packed sub-replay carrying all 64 shards at once instead
// of 16 full-width flat replays. The ratio is taken as the best of
// three trials so a CI scheduling hiccup in one trial cannot fail the
// gate; the measured margin is ~4×.
func TestShardedSpeedupFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("timing floor skipped in -short mode")
	}
	if race.Enabled {
		t.Skip("timing floor skipped under the race detector: instrumentation " +
			"penalizes the packed sub-replay's tight word loops far more than " +
			"the planned path, distorting the ratio")
	}
	n := 65536
	plan := permnet.NewRadixPermuter(n, concentrator.Fish, 0).Compile()
	sp, err := permnet.ShardedPlanFor(n, concentrator.Fish, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Packed() {
		t.Fatalf("auto shard count %d did not engage the packed sub-replay", sp.Shards())
	}
	rng := rand.New(rand.NewSource(1992))
	dests := make([][]int, routeBenchBatch)
	for i := range dests {
		dests[i] = rng.Perm(n)
	}
	// Warm both paths (plan + packed sub-program compilation, pooled
	// scratch) and cross-check them bit-for-bit before timing.
	want, err := plan.RouteBatchPlanned(dests, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sp.RouteBatch(dests, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("request %d: sharded route differs from flat at output %d", i, j)
			}
		}
	}
	best := 0.0
	var plannedNs, shardedNs float64
	for trial := 0; trial < 3; trial++ {
		planned := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := plan.RouteBatchPlanned(dests, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		sharded := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sp.RouteBatch(dests, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		speedup := float64(planned.NsPerOp()) / float64(sharded.NsPerOp())
		if speedup > best {
			best = speedup
			plannedNs = float64(planned.NsPerOp()) / routeBenchBatch
			shardedNs = float64(sharded.NsPerOp()) / routeBenchBatch
		}
	}
	t.Logf("n=%d, %d-wide batch, %d shards: planned-parallel %.0f ns/route, sharded %.0f ns/route, speedup %.1f×",
		n, routeBenchBatch, sp.Shards(), plannedNs, shardedNs, best)
	if best < 2 {
		t.Errorf("sharded route speedup %.1f× < 2× floor (planned-parallel %.0f ns/route, sharded %.0f ns/route)",
			best, plannedNs, shardedNs)
	}
}
