// Front-door network modes: -listen serves the multi-tenant routing
// front door over TCP; -loadgen drives one with a mixed verified
// workload and records a BENCH_frontdoor.json trajectory.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"absort/internal/concentrator"
	"absort/internal/frontdoor"
	"absort/internal/permnet"
	"absort/internal/planner"
)

// conflictingModes returns the names of the exclusive mode flags that
// were set. More than one selected mode is a usage error — the modes
// drive entirely different main loops, and silently preferring one
// (the historical behaviour for some orders) hides the mistake.
func conflictingModes(serveArg string, chaos bool, listen, loadgen string) []string {
	var modes []string
	if serveArg != "" {
		modes = append(modes, "-serve")
	}
	if chaos {
		modes = append(modes, "-chaos")
	}
	if listen != "" {
		modes = append(modes, "-listen")
	}
	if loadgen != "" {
		modes = append(modes, "-loadgen")
	}
	return modes
}

// runListen serves the front door until SIGINT/SIGTERM, then drains.
func runListen(addr string, workers, queue int) {
	fd := frontdoor.New(frontdoor.Config{Workers: workers, QueueDepth: queue})
	srv, err := frontdoor.NewServer(fd, addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "permroute:", err)
		os.Exit(1)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queue <= 0 {
		queue = 64
	}
	fmt.Printf("front door listening on %s (dispatchers=%d, tenant queue=%d)\n",
		srv.Addr(), workers, queue)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("draining...")
	srv.Close()
	fd.Close()
	st := fd.Stats()
	fmt.Printf("served %d tenants: %d submitted, %d completed, %d failed, %d rejected, %d evictions\n",
		st.Tenants, st.Submitted, st.Completed, st.Failed, st.Rejected, st.Evictions)
}

// loadgenSpec derives tenant i's shape: widths alternate n and 2n, and
// engines cycle the configured engine followed by every other registry
// engine that can back a full plan set at the tenant's width (packed-
// profitable, all level widths routable), so the server multiplexes
// genuinely heterogeneous plan sets and newly registered engines join
// the cycle automatically.
func loadgenSpec(n int, eng concentrator.Engine, i int) frontdoor.TenantSpec {
	width := n << (i % 2)
	engines := []concentrator.Engine{eng}
	for _, e := range planner.Engines() {
		if e != eng && permnet.CheckLevelWidths(e, width) == nil &&
			planner.PackedProfitable(e) {
			engines = append(engines, e)
		}
	}
	return frontdoor.TenantSpec{N: width, Engine: engines[i%len(engines)]}
}

// frontdoorBenchRecord is one appended trajectory point, shared with the
// root-level TestFrontdoorThroughputFloor.
type frontdoorBenchRecord struct {
	When        string  `json:"when"`
	Source      string  `json:"source"`
	Tenants     int     `json:"tenants"`
	Conns       int     `json:"conns"`
	Requests    int     `json:"requests"`
	WallSeconds float64 `json:"wall_s"`
	ReqsPerSec  float64 `json:"reqs_per_s"`
	WordsPerSec float64 `json:"words_per_s"`
	BusyRetries int64   `json:"busy_retries"`
	Wrong       int64   `json:"wrong"`
}

// appendBenchRecord appends rec to the JSON array at path (creating it).
func appendBenchRecord(path string, rec frontdoorBenchRecord) error {
	var records []frontdoorBenchRecord
	if data, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(data, &records) // a corrupt file starts a fresh trajectory
	}
	records = append(records, rec)
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runLoadgen drives a front-door server: tenants registered, conns
// connections round-robined across them, reqs verified mixed requests
// per connection. Busy (fail-fast queue-full) responses are retried;
// anything wrong or dropped exits nonzero.
func runLoadgen(addr string, n int, eng concentrator.Engine, seed int64, tenants, conns, reqs int, out string) {
	if tenants < 1 || conns < 1 || reqs < 1 {
		fmt.Fprintln(os.Stderr, "permroute: -tenants, -conns, -reqs must be positive")
		os.Exit(2)
	}
	specs := make([]frontdoor.TenantSpec, tenants)
	for i := range specs {
		specs[i] = loadgenSpec(n, eng, i)
	}
	fmt.Printf("loadgen: %s, %d tenants × %d conns × %d reqs\n", addr, tenants, conns, reqs)
	for i, spec := range specs {
		fmt.Printf("  tenant-%d: n=%d engine=%s\n", i, spec.N, spec.Engine)
	}

	var wrong, busyRetries, words atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, conns)
	t0 := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ti := c % tenants
			id := fmt.Sprintf("tenant-%d", ti)
			spec := specs[ti]
			cl, err := frontdoor.Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer cl.Close()
			if err := cl.Register(id, spec); err != nil {
				errCh <- fmt.Errorf("register %s: %w", id, err)
				return
			}
			rng := rand.New(rand.NewSource(seed + int64(c)*7919))
			for i := 0; i < reqs; i++ {
				if err := loadgenOne(cl, id, spec, rng, i, &wrong, &busyRetries); err != nil {
					errCh <- fmt.Errorf("%s conn %d req %d: %w", id, c, i, err)
					return
				}
				words.Add(int64(spec.N))
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	dropped := 0
	for err := range errCh {
		fmt.Fprintln(os.Stderr, "permroute: loadgen:", err)
		dropped++
	}
	wall := time.Since(t0)
	total := conns * reqs
	rec := frontdoorBenchRecord{
		When:        time.Now().UTC().Format(time.RFC3339),
		Source:      "loadgen",
		Tenants:     tenants,
		Conns:       conns,
		Requests:    total,
		WallSeconds: wall.Seconds(),
		ReqsPerSec:  float64(total) / wall.Seconds(),
		WordsPerSec: float64(words.Load()) / wall.Seconds(),
		BusyRetries: busyRetries.Load(),
		Wrong:       wrong.Load(),
	}
	fmt.Printf("  wall %v   %.0f reqs/sec   %.0f words/sec   %d busy retries\n",
		wall, rec.ReqsPerSec, rec.WordsPerSec, rec.BusyRetries)
	if err := appendBenchRecord(out, rec); err != nil {
		fmt.Fprintln(os.Stderr, "permroute:", err)
		os.Exit(1)
	}
	fmt.Printf("  trajectory appended to %s\n", out)
	if dropped > 0 || rec.Wrong > 0 {
		fmt.Fprintf(os.Stderr, "permroute: loadgen: %d connections dropped, %d wrong responses\n",
			dropped, rec.Wrong)
		os.Exit(1)
	}
	fmt.Printf("  all %d responses verified: zero dropped, zero wrong\n", total)
}

// loadgenOne issues one verified request, retrying while the server
// fails fast with a busy response.
func loadgenOne(cl *frontdoor.Client, id string, spec frontdoor.TenantSpec, rng *rand.Rand,
	i int, wrong, busyRetries *atomic.Int64) error {
	for {
		var err error
		switch i % 3 {
		case 0:
			dest := rng.Perm(spec.N)
			var perm []int
			perm, err = cl.Permute(id, dest)
			if err == nil {
				for in, d := range dest {
					if perm[d] != in {
						wrong.Add(1)
					}
				}
			}
		case 1:
			marked := make([]bool, spec.N)
			want := 0
			for j := range marked {
				if rng.Intn(2) == 0 {
					marked[j] = true
					want++
				}
			}
			var perm []int
			var count int
			perm, count, err = cl.Concentrate(id, marked)
			if err == nil {
				if count != want {
					wrong.Add(1)
				}
				for j := 0; j < count && j < len(perm); j++ {
					if !marked[perm[j]] {
						wrong.Add(1)
					}
				}
			}
		default:
			keys := make([]uint64, spec.N)
			for j := range keys {
				keys[j] = rng.Uint64()
			}
			var sorted []uint64
			sorted, err = cl.SortWords(id, keys)
			if err == nil {
				for j := 1; j < len(sorted); j++ {
					if sorted[j-1] > sorted[j] {
						wrong.Add(1)
					}
				}
			}
		}
		if errors.Is(err, frontdoor.ErrTenantQueueFull) {
			busyRetries.Add(1)
			time.Sleep(time.Millisecond)
			continue
		}
		return err
	}
}
