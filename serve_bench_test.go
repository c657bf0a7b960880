package absort_test

// BenchmarkServeThroughput measures the streaming routing service against
// the one-shot planned-parallel batch pipeline it wraps, at
// n ∈ {256, 1024, 4096} on the fish engine:
//
//   - serve:            Submit serveBenchBatch permutation requests
//                       through the bounded queue, wait on every Future
//   - planned-parallel: plan.RouteBatch over the same requests (the PR 2
//                       baseline the service must not regress)
//
// Each sub-benchmark reports ns/request; the collected numbers are
// persisted to BENCH_serve.json (alongside BENCH_eval.json and
// BENCH_route.json) so the CI smoke run leaves a machine-readable record
// of the service-layer overhead. TestServeThroughputFloor pins the
// no-regression acceptance criterion at n = 4096.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"absort"
	"absort/internal/permnet"
	"absort/internal/race"
)

// serveBenchRecord is one path × size measurement.
type serveBenchRecord struct {
	Path         string  `json:"path"`
	N            int     `json:"n"`
	NsPerRequest float64 `json:"ns_per_request"`
}

var serveBench struct {
	sync.Mutex
	records []serveBenchRecord
}

// recordServeBench stores a measurement and rewrites BENCH_serve.json with
// everything collected so far (the final sub-run leaves the full table).
func recordServeBench(path string, n int, nsPerRequest float64) {
	serveBench.Lock()
	defer serveBench.Unlock()
	for i, r := range serveBench.records {
		if r.Path == path && r.N == n {
			serveBench.records[i].NsPerRequest = nsPerRequest
			writeServeBench()
			return
		}
	}
	serveBench.records = append(serveBench.records, serveBenchRecord{path, n, nsPerRequest})
	writeServeBench()
}

func writeServeBench() {
	data, err := json.MarshalIndent(serveBench.records, "", "  ")
	if err != nil {
		return
	}
	_ = os.WriteFile("BENCH_serve.json", append(data, '\n'), 0o644)
}

// serveBenchBatch is the number of in-flight requests per benchmark
// iteration — matching routeBenchBatch so the planned-parallel comparison
// is apples to apples.
const serveBenchBatch = 16

// serveSubmitAll submits every destination and waits for all futures,
// failing fast on any error.
func serveSubmitAll(b testing.TB, svc *absort.RoutingService, dests [][]int, futs []*absort.ServeFuture) {
	b.Helper()
	ctx := context.Background()
	for i, dest := range dests {
		fut, err := svc.Submit(ctx, absort.PermuteRequest(dest))
		if err != nil {
			b.Fatal(err)
		}
		futs[i] = fut
	}
	for _, fut := range futs {
		if _, err := fut.Wait(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServeThroughput(b *testing.B) {
	rng := rand.New(rand.NewSource(2026))
	for _, n := range []int{256, 1024, 4096} {
		dests := make([][]int, serveBenchBatch)
		for i := range dests {
			dests[i] = rng.Perm(n)
		}
		rp := permnet.NewRadixPermuter(n, absort.EngineFish, 0)
		plan := rp.Compile()

		b.Run(fmt.Sprintf("serve/n=%d", n), func(b *testing.B) {
			svc, err := absort.NewRoutingService(absort.ServeConfig{
				N: n, Engine: absort.EngineFish, QueueDepth: serveBenchBatch,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			futs := make([]*absort.ServeFuture, serveBenchBatch)
			serveSubmitAll(b, svc, dests, futs) // warm plans and pools
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveSubmitAll(b, svc, dests, futs)
			}
			b.StopTimer()
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / serveBenchBatch
			b.ReportMetric(ns, "ns/request")
			recordServeBench("serve", n, ns)
		})
		b.Run(fmt.Sprintf("planned-parallel/n=%d", n), func(b *testing.B) {
			if _, err := plan.RouteBatch(dests, 0); err != nil { // warm
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := plan.RouteBatch(dests, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / serveBenchBatch
			b.ReportMetric(ns, "ns/request")
			recordServeBench("planned-parallel", n, ns)
		})
	}
}

// TestServeThroughputFloor pins the acceptance criterion: at n = 4096 the
// streaming service must sustain the planned-parallel RouteBatch
// throughput — the admission queue, futures, and worker pool may not
// regress the compiled plans they wrap. Measured inline so plain
// `go test` enforces it, as the median of paired batch/serve time
// ratios (pairedRatio); a 0.9 factor absorbs scheduler noise in what
// should measure ~1.0 (per-request service overhead is a few µs against
// a ~ms route).
func TestServeThroughputFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("timing floor skipped in -short mode")
	}
	if race.Enabled {
		t.Skip("timing floor skipped under the race detector: channel and " +
			"future instrumentation distorts the service/batch ratio")
	}
	n := 4096
	rng := rand.New(rand.NewSource(8))
	dests := make([][]int, serveBenchBatch)
	for i := range dests {
		dests[i] = rng.Perm(n)
	}
	plan := permnet.NewRadixPermuter(n, absort.EngineFish, 0).Compile()
	svc, err := absort.NewRoutingService(absort.ServeConfig{
		N: n, Engine: absort.EngineFish, QueueDepth: serveBenchBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	futs := make([]*absort.ServeFuture, serveBenchBatch)
	served := func() { serveSubmitAll(t, svc, dests, futs) }
	batch := func() {
		if _, err := plan.RouteBatch(dests, 0); err != nil {
			t.Fatal(err)
		}
	}
	st := pairedRatio(31, 70*time.Millisecond, served, batch)
	t.Logf("n=%d: serve sustains %.2f× batch (batch/serve time per request, %v)", n, st.Median, st)
	if st.Median < 0.9 {
		t.Errorf("streaming service sustains only %.2f× the planned-parallel batch throughput (%v), want ≥ 0.9×",
			st.Median, st)
	}
}
