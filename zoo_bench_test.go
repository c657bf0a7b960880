package absort_test

// BenchmarkZooEngines measures per-pattern concentrator throughput for
// the network-zoo engines on the two batch paths ConcentrateBatch
// arbitrates between, at n ∈ {256, 4096} on 64-wide batches:
//
//   - planned-parallel: per-pattern planned batch routing
//   - packed:           the SWAR lane-packed engine, 64 patterns per
//     plan replay
//
// alongside the paper's fish engine as the resident baseline. The
// constant-periodic engine is the zoo's headline: each of its steps is
// a whole comparator stage (OpEndsStage), 144 at n = 4096, so step
// decode cost amortizes over n/2 comparators. Results are persisted to BENCH_zoo.json; the CI smoke
// run (`make bench` / `make bench-zoo`) refreshes them and
// TestZooSpeedupFloor gates the packed path's profitability.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"absort/internal/cmpnet"
	"absort/internal/concentrator"
	"absort/internal/race"
)

// zooBenchRecord is one engine × path × size measurement.
type zooBenchRecord struct {
	Engine       string  `json:"engine"`
	Path         string  `json:"path"`
	N            int     `json:"n"`
	NsPerPattern float64 `json:"ns_per_pattern"`
}

var zooBench struct {
	sync.Mutex
	records []zooBenchRecord
}

// recordZooBench stores a measurement and rewrites BENCH_zoo.json with
// everything collected so far (the final sub-run leaves the full table).
func recordZooBench(engine, path string, n int, ns float64) {
	zooBench.Lock()
	defer zooBench.Unlock()
	for i, r := range zooBench.records {
		if r.Engine == engine && r.Path == path && r.N == n {
			zooBench.records[i].NsPerPattern = ns
			writeZooBench()
			return
		}
	}
	zooBench.records = append(zooBench.records, zooBenchRecord{engine, path, n, ns})
	writeZooBench()
}

func writeZooBench() {
	data, err := json.MarshalIndent(zooBench.records, "", "  ")
	if err != nil {
		return
	}
	_ = os.WriteFile("BENCH_zoo.json", append(data, '\n'), 0o644)
}

// zooBenchEngines enumerates the benched engines; the fish engine rides
// along as the paper-baseline column.
func zooBenchEngines() []concentrator.Engine {
	return []concentrator.Engine{
		concentrator.Fish,
		cmpnet.EngineOEM,
		cmpnet.EngineBitonic,
		cmpnet.EngineBalanced,
		cmpnet.EnginePeriodic,
		cmpnet.EngineFishGvV,
	}
}

func zooMarkedBatch(rng *rand.Rand, n, lanes int) [][]bool {
	batch := make([][]bool, lanes)
	for i := range batch {
		m := make([]bool, n)
		for j := range m {
			m[j] = rng.Intn(2) == 0
		}
		batch[i] = m
	}
	return batch
}

func BenchmarkZooEngines(b *testing.B) {
	rng := rand.New(rand.NewSource(1992))
	for _, n := range []int{256, 4096} {
		markedBatch := zooMarkedBatch(rng, n, concentrator.PackedLanes)
		for _, eng := range zooBenchEngines() {
			conc := concentrator.New(n, n, eng, 0)
			conc.Compile()
			b.Run(fmt.Sprintf("%v/planned-parallel/n=%d", eng, n), func(b *testing.B) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := conc.ConcentrateBatchPlanned(markedBatch, 0); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / concentrator.PackedLanes
				b.ReportMetric(ns, "ns/pattern")
				recordZooBench(eng.String(), "planned-parallel", n, ns)
			})
			b.Run(fmt.Sprintf("%v/packed/n=%d", eng, n), func(b *testing.B) {
				// 64-wide batch: ConcentrateBatch auto-switches to the
				// packed SWAR engine, one plan replay for the whole batch.
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := conc.ConcentrateBatch(markedBatch, 0); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / concentrator.PackedLanes
				b.ReportMetric(ns, "ns/pattern")
				recordZooBench(eng.String(), "packed", n, ns)
			})
		}
	}
}

// TestZooSpeedupFloor pins the zoo acceptance criterion (ISSUE 10): at
// n=4096 on 64-wide batches, the constant-periodic engine's packed
// SWAR path must at least match the planned-parallel pipeline it
// replaces (≥ 1× per-pattern throughput) — the registry must not
// route a generically-lowered network onto a packed path that loses to
// the baseline. The ratio is taken as the best of three trials so a CI
// scheduling hiccup cannot fail the gate. It only gates: BENCH_zoo.json
// is written by BenchmarkZooEngines alone, so plain `go test` leaves the
// tracked file untouched.
func TestZooSpeedupFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("timing floor skipped in -short mode")
	}
	if race.Enabled {
		t.Skip("timing floor skipped under the race detector: instrumentation " +
			"penalizes the packed engine's tight word loops far more than the " +
			"planned path, distorting the ratio")
	}
	n := 4096
	conc := concentrator.New(n, n, cmpnet.EnginePeriodic, 0)
	conc.Compile()
	rng := rand.New(rand.NewSource(1992))
	markedBatch := zooMarkedBatch(rng, n, concentrator.PackedLanes)
	// Warm both paths (plan + packed compilation, pooled scratch).
	if _, _, err := conc.ConcentrateBatchPlanned(markedBatch, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := conc.ConcentrateBatch(markedBatch, 0); err != nil {
		t.Fatal(err)
	}
	best := 0.0
	var plannedNs, packedNs float64
	for trial := 0; trial < 3; trial++ {
		planned := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := conc.ConcentrateBatchPlanned(markedBatch, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		packed := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := conc.ConcentrateBatch(markedBatch, 0); err != nil {
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
	t.Logf("periodic n=%d, %d-wide batch: planned %.0f ns/pattern, packed %.0f ns/pattern, speedup %.1f×",
		n, concentrator.PackedLanes, plannedNs, packedNs, best)
	if best < 1 {
		t.Errorf("periodic packed speedup %.1f× < 1× floor (planned %.0f ns/pattern, packed %.0f ns/pattern)",
			best, plannedNs, packedNs)
	}
}
