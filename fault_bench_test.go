package absort_test

// BenchmarkServeFault measures the cost of the serving layer's fault
// tolerance, at n = 1024 on the fish engine:
//
//   - check-off:   streaming throughput with response checking disabled
//                  (CheckFraction < 0) — the no-fault-tolerance baseline
//   - check-1/64:  the default sampling rate (one response in 64 runs
//                  through the lanewise checker)
//   - check-all:   every response checked (CheckFraction = 1, the chaos
//                  drill configuration)
//   - recovery:    one full detect → quarantine → recompile → replay
//                  cycle per op: a wire is wedged into the live permute
//                  plan and a known-misrouting request is submitted, so
//                  the measured latency is the service's time-to-recovery
//
// The collected numbers are persisted to BENCH_fault.json (alongside the
// other BENCH_*.json trajectories). TestFaultCheckerOverheadFloor pins
// the acceptance criterion: the default sampled checker costs ≤ 5% over
// the unchecked baseline.

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
	"absort/internal/core"
	"absort/internal/permnet"
	"absort/internal/planner"
	"absort/internal/race"
	"absort/internal/serve"
)

// faultBenchRecord is one path measurement.
type faultBenchRecord struct {
	Path         string  `json:"path"`
	N            int     `json:"n"`
	NsPerRequest float64 `json:"ns_per_request"`
}

var faultBench struct {
	sync.Mutex
	records []faultBenchRecord
}

// recordFaultBench stores a measurement and rewrites BENCH_fault.json
// with everything collected so far.
func recordFaultBench(path string, n int, nsPerRequest float64) {
	faultBench.Lock()
	defer faultBench.Unlock()
	for i, r := range faultBench.records {
		if r.Path == path && r.N == n {
			faultBench.records[i].NsPerRequest = nsPerRequest
			writeFaultBench()
			return
		}
	}
	faultBench.records = append(faultBench.records, faultBenchRecord{path, n, nsPerRequest})
	writeFaultBench()
}

func writeFaultBench() {
	data, err := json.MarshalIndent(faultBench.records, "", "  ")
	if err != nil {
		return
	}
	_ = os.WriteFile("BENCH_fault.json", append(data, '\n'), 0o644)
}

const faultBenchN = 1024

// faultCheckFractions are the sampling configurations the checker
// overhead is measured at.
var faultCheckFractions = []struct {
	path     string
	fraction float64
}{
	{"check-off", -1},
	{"check-1/64", 1.0 / 64},
	{"check-all", 1},
}

// misroutingDest finds a destination assignment that a wedged top
// destination bit at position 1 provably misroutes on the fish engine,
// by comparing the faulty replay against the clean one.
func misroutingDest(n int, rng *rand.Rand) []int {
	plan := permnet.NewRadixPermuter(n, absort.EngineFish, 0).Compile()
	wedge := []planner.StuckFault{permnet.DestBitFault(1, core.Lg(n)-1, 1)}
	clean := make([]int, n)
	faulty := make([]int, n)
	for {
		dest := rng.Perm(n)
		if err := plan.RouteInto(clean, dest); err != nil {
			panic(err)
		}
		if err := plan.RouteIntoStuck(faulty, dest, wedge); err != nil {
			panic(err)
		}
		for j := range clean {
			if clean[j] != faulty[j] {
				return dest
			}
		}
	}
}

func BenchmarkServeFault(b *testing.B) {
	rng := rand.New(rand.NewSource(2026))
	n := faultBenchN
	dests := make([][]int, serveBenchBatch)
	for i := range dests {
		dests[i] = rng.Perm(n)
	}
	for _, cf := range faultCheckFractions {
		b.Run(fmt.Sprintf("%s/n=%d", cf.path, n), func(b *testing.B) {
			svc, err := absort.NewRoutingService(absort.ServeConfig{
				N: n, Engine: absort.EngineFish, QueueDepth: serveBenchBatch,
				CheckFraction: cf.fraction,
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
			recordFaultBench(cf.path, n, ns)
		})
	}
	b.Run(fmt.Sprintf("recovery/n=%d", n), func(b *testing.B) {
		svc, err := absort.NewRoutingService(absort.ServeConfig{
			N: n, Engine: absort.EngineFish, QueueDepth: serveBenchBatch,
			CheckFraction: 1, Spares: 1 << 30, // always recover onto a same-engine spare
		})
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Close()
		dest := misroutingDest(n, rng)
		ctx := context.Background()
		run := func() {
			if err := svc.InjectFault(absort.ServeWireFault{
				Kind: absort.ServePermute, Pos: 1, Bit: core.Lg(n) - 1, Stuck: 1,
			}); err != nil {
				b.Fatal(err)
			}
			fut, err := svc.Submit(ctx, absort.PermuteRequest(dest))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := fut.Wait(ctx); err != nil {
				b.Fatal(err)
			}
		}
		run() // warm
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
		b.StopTimer()
		if fs := svc.FaultStats(); fs.Recompiled < int64(b.N) {
			b.Fatalf("recovery bench recompiled %d times over %d iterations", fs.Recompiled, b.N)
		}
		ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(ns, "ns/recovery")
		recordFaultBench("recovery", n, ns)
	})
}

// TestFaultCheckerOverheadFloor pins the acceptance criterion: the
// default sampled lanewise checker (one response in 64) must cost at
// most 5% over the unchecked serving baseline at n = 1024. Measured
// inline so plain `go test` enforces it, as the median of paired
// checked/unchecked time ratios (pairedRatio).
func TestFaultCheckerOverheadFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("timing floor skipped in -short mode")
	}
	if race.Enabled {
		t.Skip("timing floor skipped under the race detector: atomic and " +
			"channel instrumentation distorts the checker/baseline ratio")
	}
	n := faultBenchN
	rng := rand.New(rand.NewSource(8))
	dests := make([][]int, serveBenchBatch)
	for i := range dests {
		dests[i] = rng.Perm(n)
	}
	submitter := func(fraction float64) func() {
		svc, err := absort.NewRoutingService(absort.ServeConfig{
			N: n, Engine: absort.EngineFish, QueueDepth: serveBenchBatch,
			CheckFraction: fraction,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { svc.Close() })
		futs := make([]*absort.ServeFuture, serveBenchBatch)
		return func() { serveSubmitAll(t, svc, dests, futs) }
	}
	st := pairedRatio(61, 25*time.Millisecond, submitter(-1), submitter(1.0/64))
	overhead := st.Median - 1
	t.Logf("check-1/64 over check-off: overhead %.2f%% (%v)", 100*overhead, st)
	if overhead > 0.05 {
		t.Errorf("sampled checker costs %.2f%% over the unchecked baseline (%v), want ≤ 5%%", 100*overhead, st)
	}
}

// TestChaosDrill runs the permroute -chaos configuration through the
// internal service as a cheap cross-package smoke (the full concurrent
// drill lives in internal/serve's TestChaosRecovery).
func TestChaosDrill(t *testing.T) {
	const n = 64
	svc, err := serve.New(serve.Config{
		N: n, Engine: absort.EngineFish, Workers: 2, WordBits: 8, CheckFraction: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.InjectFault(serve.WireFault{Kind: serve.Permute, Pos: 1, Bit: core.Lg(n) - 1, Stuck: 1}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		dest := rng.Perm(n)
		fut, err := svc.Submit(ctx, serve.Request{Kind: serve.Permute, Dest: dest})
		if err != nil {
			t.Fatal(err)
		}
		res, err := fut.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !permnet.VerifyRouting(dest, res.Perm) {
			t.Fatalf("request %d: wrong result escaped the service", i)
		}
	}
	if fs := svc.FaultStats(); fs.Detected < 1 || fs.Recompiled < 1 {
		t.Fatalf("drill never exercised recovery: %+v", fs)
	}
}
