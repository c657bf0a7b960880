// Command perfbench is the repository benchmark. It drives the routing
// stack only from outside, through the absort facade and the exported
// functions of its internal packages, checks every response in full, and
// prints one JSON result as the last line of its output:
//
//	python3 perfbench/run.py --workload wire-route-small --seed 1 --seconds 10 --trace 0
//
// run.py builds this program under .bench_build and runs it from the
// repository root. Workloads (all closed loop: every caller waits for
// its reply; load comes from this one process):
//
//   - wire-route-small: the front door over TCP on loopback, 8 tenants
//     (4 engines × n ∈ {32, 128}), Permute:Concentrate 1:1, 2 connections
//     × 8 requests in flight. Routing is cheap, so the wire, admission and
//     the serve hop dominate.
//   - wire-sortwords: the same front door, 2 tenants (fish, mux-merger,
//     n=64, 64-bit keys), SortWords only, 2 connections × 2 in flight.
//     The 64 binary passes of each word sort dominate. It is left out of
//     BENCHMARK.json: on a shared 2-vCPU host its runs spread past the
//     bounds (the word sort's speed follows the host's cache contention),
//     so it is for runs by hand; traced runs of the listed workloads
//     still probe the word sort (wordsort.sort_us.*).
//   - serve-bulk-4096: in-process streaming services (fish, periodic,
//     n=4096), Permute:Concentrate 1:1 in same-kind runs of 64, one
//     submitter per service keeping 128 requests in flight. Burst drain
//     and packed replay dominate; the wire and the front door are
//     bypassed.
//
// --trace 0 prints the end-to-end metrics. --trace 1 prints the layer
// metrics: the workload's requests replayed at the same in-flight depth
// through each layer's entry point in turn (wire → admit → serve → plan
// → bulk), the self cost of a layer being the difference between the
// CPU per request of adjacent layers, plus fixed per-engine probes.
// Each run appends a stamped record to perfbench/results/.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"absort"
)

// processStart is taken during package initialization, before main.
var processStart = time.Now()

// setupRuns is the number of fresh processes set-up is timed in; the
// median of many is steady even though one cold start takes milliseconds.
const setupRuns = 11

type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      int
	commit     string
	source     string
	results    string
	setupChild bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 prints the layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.commit, "commit", "unknown", "commit being measured, for the record")
	flag.StringVar(&o.source, "source", "unknown", "digest of the measured source tree, for the record")
	flag.StringVar(&o.results, "results", filepath.Join("perfbench", "results"), "directory the records are appended under")
	flag.BoolVar(&o.setupChild, "setup-child", false, "time one cold set-up and exit (used by the benchmark itself)")
	flag.Parse()

	w, ok := workloads()[o.workload]
	if !ok || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	// A wedged layer must not hold the run past its time limit.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170 s")
		os.Exit(3)
	})
	if o.setupChild {
		if err := setupChild(w, o.seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
			os.Exit(1)
		}
		return
	}

	var rec *record
	var err error
	if o.trace == 0 {
		rec, err = endToEnd(o, w)
	} else {
		rec, err = layers(o, w)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if rec != nil {
		stamp(rec, o)
		if werr := appendRecord(o.results, w.name, rec); werr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", werr)
			err = errors.Join(err, werr)
		}
	}
	if rec == nil || err != nil || !rec.Correct {
		// A failed run reports its counts but no rates.
		res := result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}}
		if rec != nil && rec.Attempted > 0 {
			res.Attempted, res.Failed = rec.Attempted, max(rec.Failed, 1)
		}
		printResult(res)
		os.Exit(1)
	}
	printResult(result{Correct: true, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics})
}

func workloadNames() []string {
	var names []string
	for name := range workloads() {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(r result) {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of plain numbers always marshals
	}
	fmt.Println(string(b))
}

// record is one run as appended to the results directory.
type record struct {
	When       string               `json:"when"`
	Commit     string               `json:"commit"`
	Source     string               `json:"source"`
	Go         string               `json:"go"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	NProc      int                  `json:"nproc"`
	Seconds    int                  `json:"seconds"`
	Seed       int64                `json:"seed"`
	Workload   string               `json:"workload"`
	Trace      int                  `json:"trace"`
	Correct    bool                 `json:"correct"`
	Attempted  int64                `json:"attempted"`
	Failed     int64                `json:"failed"`
	FailedFrac float64              `json:"failed_frac"`
	Samples    int64                `json:"latency_samples"`
	Metrics    map[string]metric    `json:"metrics"`
	Extra      map[string]float64   `json:"extra,omitempty"`
	Windows    map[string][]float64 `json:"windows,omitempty"`
	spans      []span
}

func (r *record) put(name string, value float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

func (r *record) count(st layerStats) {
	r.Attempted += st.attempted
	r.Failed += st.failed
	r.spans = append(r.spans, st.spans...)
	if st.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d requests failed, first: %v\n",
			st.layer, st.failed, st.attempted, st.firstErr)
	}
}

func stamp(r *record, o options) {
	r.When = time.Now().UTC().Format(time.RFC3339)
	r.Commit, r.Source = o.commit, o.source
	r.Go = runtime.Version()
	r.GOMAXPROCS, r.NProc = runtime.GOMAXPROCS(0), runtime.NumCPU()
	r.Seconds, r.Seed, r.Workload, r.Trace = o.seconds, o.seed, o.workload, o.trace
	if r.Attempted > 0 {
		r.FailedFrac = float64(r.Failed) / float64(r.Attempted)
	}
}

// appendRecord appends r to <dir>/<workload>.jsonl, and its spans, if
// any, to <dir>/<workload>.spans.jsonl.
func appendRecord(dir, workload string, r *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if err := appendLines(filepath.Join(dir, workload+".jsonl"), [][]byte{line}); err != nil {
		return err
	}
	if len(r.spans) == 0 {
		return nil
	}
	lines := make([][]byte, 0, len(r.spans))
	for _, s := range r.spans {
		b, err := json.Marshal(struct {
			Seed int64 `json:"seed"`
			span
		}{r.Seed, s})
		if err != nil {
			return err
		}
		lines = append(lines, b)
	}
	return appendLines(filepath.Join(dir, workload+".spans.jsonl"), lines)
}

func appendLines(path string, lines [][]byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	for _, l := range lines {
		if _, err := f.Write(append(l, '\n')); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// entry is a workload's system under test, driven through the entry
// point its end-to-end metrics measure.
type entry struct {
	w    *workload
	in   inputs
	fd   *frontDoor               // wire workloads
	svcs []*absort.RoutingService // serve workloads
}

// startEntry builds the workload's stack and sends one verified request
// per tenant × kind, so every plan is compiled when it returns.
func startEntry(w *workload, in inputs) (*entry, error) {
	e := &entry{w: w, in: in}
	var err error
	if w.wire {
		e.fd, err = startFrontDoor(w)
	} else {
		e.svcs, err = startServices(w)
	}
	if err != nil {
		return nil, err
	}
	call := e.call()
	var chk checker
	for ti, kinds := range in {
		for _, kind := range kinds {
			if err := call(ti, kind[0], &chk); err != nil {
				e.close()
				return nil, fmt.Errorf("first %v request of %s: %w", kind[0].req.Kind, w.tenants[ti].id, err)
			}
		}
	}
	return e, nil
}

func (e *entry) call() callFn {
	if e.fd != nil {
		return e.fd.wireCall(e.w)
	}
	return serveCall(e.svcs)
}

func (e *entry) close() {
	if e.fd != nil {
		e.fd.close()
	}
	closeServices(e.svcs)
}

// run drives the workload through its entry point.
func (e *entry) run(traced bool, warm, measure time.Duration) layerStats {
	if e.fd != nil {
		m := newMeter("frontdoor.wire", e.w.inFlight, traced)
		return runCallers(m, e.w.inFlight, e.in, e.call(), warm, measure, gaugeIf(traced, e.fd.queued))
	}
	m := newMeter("serve", len(e.svcs), traced)
	return runSubmitters(m, e.svcs, e.in, e.w.perTenant(), warm, measure, gaugeIf(traced, queueLen(e.svcs)))
}

// gaugeIf samples queue occupancy only in traced runs: reading it takes
// the front door's scheduler lock.
func gaugeIf(traced bool, g func() float64) func() float64 {
	if traced {
		return g
	}
	return nil
}

// checked returns the responses the lanewise checker verified and the
// serve completions they are a share of.
func (e *entry) checked() (checked, completed int64, err error) {
	if e.fd != nil {
		return e.fd.checked()
	}
	checked, completed = servicesChecked(e.svcs)
	return checked, completed, nil
}

// warmFor is the warm-up before a workload's measured interval: long
// enough for the serve bursts and the front door's adaptive depth to
// settle.
const warmFor = 2 * time.Second

// endToEnd measures the workload's end-to-end metrics.
func endToEnd(o options, w *workload) (*record, error) {
	setups, err := setupInChildren(w, o.seed)
	if err != nil {
		return nil, err
	}
	in := generate(w, o.seed)
	e, err := startEntry(w, in)
	if err != nil {
		return nil, err
	}
	st := e.run(false, warmFor, time.Duration(o.seconds)*time.Second)
	e.close()

	rec := &record{Samples: st.completed, Extra: map[string]float64{}, Windows: st.windows}
	rec.count(st)
	rec.Correct = st.failed == 0 && st.completed > 0
	secs := make([]float64, len(setups))
	var misses float64
	for i, s := range setups {
		secs[i] = s.Seconds
		misses += float64(s.Misses)
		rec.Extra[fmt.Sprintf("setup_s.%d", i)] = s.Seconds
	}
	rec.Extra["setup_plan_cache_misses_mean"] = misses / float64(len(setups))
	rec.put("reqs_per_s", st.reqsPerSec, "1/s")
	rec.put("latency_p50_us", st.p50us, "us")
	rec.put("latency_p99_us", st.p99us, "us")
	rec.put("cpu_us_per_req", st.cpuUsPerReq, "us")
	rec.put("setup_s", median(secs), "s")
	rec.put("mem_peak_mb", st.peakMB, "MiB")
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %.0f req/s, p50 %.1f µs, p99 %.1f µs over %d samples; "+
		"%.1f µs CPU/req; set-up %.3f s (median of %d); %d of %d requests failed\n",
		w.name, o.seed, st.reqsPerSec, st.p50us, st.p99us, st.completed, st.cpuUsPerReq,
		median(secs), len(secs), rec.Failed, rec.Attempted)
	return rec, nil
}

// setupTiming is one cold set-up, as a child process reports it.
type setupTiming struct {
	Seconds float64 `json:"setup_s"`
	Misses  uint64  `json:"plan_cache_misses"`
}

// setupChild times one cold set-up in this fresh process: from process
// start, with an empty plan cache, to the first verified response of
// every tenant × kind. Generating the inputs is not part of it; only the
// first request per tenant × kind is generated.
func setupChild(w *workload, seed int64) error {
	t0 := time.Now()
	w.pool = 1
	in := generate(w, seed)
	gen := time.Since(t0)
	e, err := startEntry(w, in)
	if err != nil {
		return err
	}
	took := time.Since(processStart) - gen
	misses := absort.SharedPlanCacheStats().Misses
	e.close()
	b, err := json.Marshal(setupTiming{Seconds: took.Seconds(), Misses: misses})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// setupInChildren times setupRuns cold set-ups, each in a fresh process.
func setupInChildren(w *workload, seed int64) ([]setupTiming, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var ts []setupTiming
	for range setupRuns {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		cmd := exec.CommandContext(ctx, exe, "--setup-child", "--workload", w.name, "--seed", fmt.Sprint(seed))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		var t setupTiming
		if err := json.Unmarshal(out, &t); err != nil {
			return nil, fmt.Errorf("set-up process output %q: %w", out, err)
		}
		ts = append(ts, t)
	}
	return ts, nil
}
