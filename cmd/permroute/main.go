// Command permroute routes permutations through the paper's Fig. 10 radix
// permuter and through the Beneš baseline, verifying delivery and
// reporting cost/time figures from Table II.
//
//	permroute -n 256 -trials 5 -engine fish
//
// With -batch, it switches to the throughput pipeline: the requested
// number of random permutations is routed through the permuter's compiled
// route plan across -workers goroutines, and planned vs
// planned-parallel vs packed (SWAR) routing rates are reported, alongside
// the compiled Beneš replay baseline both planned (benes-planned) and
// lane-packed (benes-packed). Batches of 64 or more take the packed path,
// whose lane-group width the batch driver picks; every packed result is
// cross-checked bit-for-bit against its planned baseline. -shards adds a
// route-sharded row: the batch is re-routed through the w-way sharded
// hierarchical plan (0 = auto, engaged at n ≥ 65536; otherwise a power of
// two in [2, n/2]) and cross-checked bit-for-bit against the planned path.
//
//	permroute -n 1024 -engine fish -batch 4096 -workers 0
//	permroute -n 65536 -engine muxmerger -batch 256 -shards 64
//
// With -serve, it replays a workload file through the streaming routing
// service (internal/serve): every line is one request submitted with
// backpressure through the bounded admission queue, and throughput plus
// the service's latency histogram are reported at the end. The workload
// format is one request per line ('#' starts a comment):
//
//	permute d0 d1 d2 ...          route the assignment i -> d_i
//	concentrate 0110...           concentrate the '1'-marked inputs
//	sortwords k0 k1 k2 ...        sort the keys
//
// Use -serve rand to generate -batch random permutation requests instead
// of reading a file.
//
//	permroute -n 1024 -engine fish -serve workload.txt -workers 8 -queue 64
//	permroute -n 4096 -engine fish -serve rand -batch 512
//
// With -chaos, it runs a fault drill through the streaming service:
// -batch mixed requests flow through the service with every response
// verified, stuck-at faults are wedged into the live permute and
// concentrate plans mid-stream, and the report shows the fault counters
// (detected / recompiled / replayed) plus the time from each injection
// to the recompile that recovered from it. Every request must still
// resolve with a verified result.
//
//	permroute -n 256 -engine fish -chaos -batch 512
//
// With -listen, it serves the multi-tenant routing front door
// (internal/frontdoor) over TCP: clients register tenants and stream
// permute/concentrate/sortwords requests over the length-prefixed
// binary wire protocol, scheduled fairly across tenants by deficit
// round-robin. -workers sizes the dispatcher pool and -queue the
// default per-tenant ingress depth. The server runs until SIGINT or
// SIGTERM, then drains gracefully.
//
//	permroute -listen 127.0.0.1:7420 -workers 8 -queue 64
//
// With -loadgen, it drives a front-door server with a mixed verified
// workload: -tenants tenant plan sets of varying width and engine
// (seeded from -n and -engine), -conns concurrent connections
// round-robined across them, -reqs requests per connection. Every
// response is verified client-side, fail-fast busy responses are
// retried, and the run appends a record to BENCH_frontdoor.json (or
// -out). A wrong or dropped response exits nonzero.
//
//	permroute -loadgen 127.0.0.1:7420 -tenants 4 -conns 16 -reqs 200
//
// The mode flags -serve, -chaos, -listen, and -loadgen are mutually
// exclusive; conflicting combinations fail fast with a usage message.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"absort/internal/analysis"
	"absort/internal/concentrator"
	"absort/internal/core"
	"absort/internal/permnet"
	"absort/internal/planner"
	"absort/internal/serve"
)

// engineByName resolves a -engine flag value through the planner
// registry — any registered engine name works, including engines the
// zoo (internal/cmpnet) or a client registers — plus the command's
// historical aliases.
func engineByName(name string) (concentrator.Engine, bool) {
	switch name {
	case "muxmerger":
		return concentrator.MuxMerger, true
	case "prefix":
		return concentrator.PrefixAdder, true
	}
	return planner.EngineByName(name)
}

func main() {
	var (
		n        = flag.Int("n", 64, "network width (power of two)")
		trials   = flag.Int("trials", 3, "random permutations to route")
		seed     = flag.Int64("seed", 1, "random seed")
		engine   = flag.String("engine", "fish", "routing engine: "+strings.Join(planner.EngineNames(), " | "))
		batch    = flag.Int("batch", 0, "batch size: route this many permutations through the compiled plan pipeline")
		workers  = flag.Int("workers", 0, "batch worker goroutines (0 = GOMAXPROCS)")
		shards   = flag.Int("shards", 0, "sharded routing comparison for -batch: 0 = auto (engaged at n >= 65536), else a power of two in [2, n/2]")
		serveArg = flag.String("serve", "", "replay a workload file through the streaming routing service ('rand' generates -batch random permutes)")
		queue    = flag.Int("queue", 0, "streaming service admission queue depth (0 = max(4x workers, 64))")
		chaos    = flag.Bool("chaos", false, "fault drill: wedge stuck-at faults into the live service mid-stream and report time-to-recovery")
		listen   = flag.String("listen", "", "serve the multi-tenant front door over TCP on this address")
		loadgen  = flag.String("loadgen", "", "drive a front-door server at this address with a mixed verified workload")
		tenants  = flag.Int("tenants", 4, "loadgen: tenant plan sets to register")
		conns    = flag.Int("conns", 16, "loadgen: concurrent connections")
		reqs     = flag.Int("reqs", 200, "loadgen: requests per connection")
		out      = flag.String("out", "BENCH_frontdoor.json", "loadgen: benchmark trajectory file")
	)
	flag.Parse()
	if conflict := conflictingModes(*serveArg, *chaos, *listen, *loadgen); len(conflict) > 1 {
		fmt.Fprintf(os.Stderr, "permroute: %s are mutually exclusive; pick one mode\n",
			strings.Join(conflict, ", "))
		os.Exit(2)
	}
	if *n < 2 || !core.IsPow2(*n) {
		fmt.Fprintf(os.Stderr, "permroute: -n %d must be a power of two >= 2\n", *n)
		os.Exit(1)
	}
	if *shards != 0 && (*shards < 2 || *shards > *n/2 || !core.IsPow2(*shards)) {
		fmt.Fprintf(os.Stderr, "permroute: -shards %d must be 0 (auto) or a power of two in [2, n/2 = %d]\n",
			*shards, *n/2)
		os.Exit(1)
	}
	eng, ok := engineByName(*engine)
	if !ok {
		fmt.Fprintf(os.Stderr, "permroute: unknown engine %q (registered: %s)\n",
			*engine, strings.Join(planner.EngineNames(), ", "))
		os.Exit(1)
	}
	if err := permnet.CheckLevelWidths(eng, *n); err != nil {
		fmt.Fprintln(os.Stderr, "permroute:", err)
		os.Exit(1)
	}
	kind := analysis.RadixMuxMerger
	if eng == concentrator.Fish {
		kind = analysis.RadixFish
	}

	rng := rand.New(rand.NewSource(*seed))
	if *chaos {
		runChaos(*n, eng, rng, *batch, *workers, *queue)
		return
	}
	if *serveArg != "" {
		runServe(*n, eng, rng, *serveArg, *batch, *workers, *queue)
		return
	}
	if *listen != "" {
		runListen(*listen, *workers, *queue)
		return
	}
	if *loadgen != "" {
		runLoadgen(*loadgen, *n, eng, *seed, *tenants, *conns, *reqs, *out)
		return
	}
	rp := permnet.NewRadixPermuter(*n, eng, 0)
	fmt.Printf("radix permuter (Fig. 10), n=%d, engine=%s\n", *n, eng)
	fmt.Printf("  bit-level cost (model): %d   permutation time (model): %d\n",
		analysis.RadixPermuterCost(*n, kind), analysis.RadixPermuterTime(*n, kind))
	fmt.Printf("Beneš baseline: %d switches, %d stages\n",
		permnet.BenesCost(*n), permnet.BenesDepth(*n))

	if *batch > 0 {
		w := *shards
		if w == 0 {
			plan, err := rp.Plan()
			if err != nil {
				fmt.Fprintln(os.Stderr, "permroute:", err)
				os.Exit(1)
			}
			w = plan.Shards() // 0 when the permuter routes flat
		}
		runBatch(rp, rng, *batch, *workers, w)
		runConcentrateBatch(*n, eng, rng, *batch, *workers)
		return
	}

	for t := 0; t < *trials; t++ {
		dest := rng.Perm(*n)
		p, err := rp.Route(dest)
		if err != nil {
			fmt.Fprintln(os.Stderr, "permroute:", err)
			os.Exit(1)
		}
		okRadix := permnet.VerifyRouting(dest, p)

		cfg, steps, err := permnet.RouteBenes(dest)
		if err != nil {
			fmt.Fprintln(os.Stderr, "permroute:", err)
			os.Exit(1)
		}
		in := make([]int, *n)
		for i := range in {
			in[i] = i
		}
		out := permnet.ApplyBenes(cfg, in)
		okBenes := true
		for i := range in {
			if out[dest[i]] != i {
				okBenes = false
			}
		}
		fmt.Printf("trial %d: radix delivered=%v   Beneš delivered=%v (looping steps %d)\n",
			t+1, okRadix, okBenes, steps)
	}
}

// runBatch drives the compiled routing pipeline: planned single-route vs
// planned-parallel batch routing vs the SWAR packed engine, with the
// compiled Beneš replay as the rearrangeable baseline in both its
// planned and packed forms. With shards > 0 the batch is additionally
// routed through the w-way sharded hierarchical plan and cross-checked
// bit-for-bit against the planned result.
func runBatch(rp *permnet.RadixPermuter, rng *rand.Rand, batch, workers, shards int) {
	n := rp.N()
	dests := make([][]int, batch)
	for i := range dests {
		dests[i] = rng.Perm(n)
	}
	plan := rp.Compile()
	fmt.Printf("batch pipeline: %d permutations, %d levels/plan, workers=%d (GOMAXPROCS %d)\n",
		batch, plan.NumLevels(), workers, runtime.GOMAXPROCS(0))

	out := make([]int, n)
	t0 := time.Now()
	for _, dest := range dests {
		if err := plan.RouteInto(out, dest); err != nil {
			fmt.Fprintln(os.Stderr, "permroute:", err)
			os.Exit(1)
		}
	}
	planned := time.Since(t0)

	t0 = time.Now()
	routedPlanned, err := plan.RouteBatchPlanned(dests, workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "permroute:", err)
		os.Exit(1)
	}
	parallel := time.Since(t0)

	t0 = time.Now()
	routed, err := plan.RouteBatch(dests, workers) // ≥ 64: packed lane groups
	if err != nil {
		fmt.Fprintln(os.Stderr, "permroute:", err)
		os.Exit(1)
	}
	packed := time.Since(t0)

	var sharded time.Duration
	var routedSharded [][]int
	var shardShape string // "w×m shards, mode" of the route-sharded row
	if shards > 0 {
		sp, err := rp.Sharded(shards)
		if err != nil {
			fmt.Fprintln(os.Stderr, "permroute:", err)
			os.Exit(1)
		}
		t0 = time.Now()
		routedSharded, err = sp.RouteBatch(dests, workers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "permroute:", err)
			os.Exit(1)
		}
		sharded = time.Since(t0)
		mode := "scalar sub-replay"
		if sp.Packed() {
			mode = "packed sub-replay"
		}
		shardShape = fmt.Sprintf("%d×%d shards, %s", sp.Shards(), sp.ShardWidth(), mode)
	}

	bp, err := permnet.CompileBenes(n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "permroute:", err)
		os.Exit(1)
	}
	t0 = time.Now()
	routedBenes, err := bp.RouteBatchPlanned(dests, workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "permroute:", err)
		os.Exit(1)
	}
	benes := time.Since(t0)

	t0 = time.Now()
	routedBenesPacked, err := bp.RouteBatch(dests, workers) // ≥ 64: packed lane groups
	if err != nil {
		fmt.Fprintln(os.Stderr, "permroute:", err)
		os.Exit(1)
	}
	benesPacked := time.Since(t0)

	for i, dest := range dests {
		if !permnet.VerifyRouting(dest, routed[i]) {
			fmt.Fprintf(os.Stderr, "permroute: batch request %d not delivered\n", i)
			os.Exit(1)
		}
		if !permnet.VerifyRouting(dest, routedBenes[i]) {
			fmt.Fprintf(os.Stderr, "permroute: Beneš batch request %d not delivered\n", i)
			os.Exit(1)
		}
		for j := range routed[i] {
			if routed[i][j] != routedPlanned[i][j] {
				fmt.Fprintf(os.Stderr, "permroute: request %d: planned and packed permutations differ\n", i)
				os.Exit(1)
			}
			if routedBenesPacked[i][j] != routedBenes[i][j] {
				fmt.Fprintf(os.Stderr, "permroute: request %d: Beneš planned and packed permutations differ\n", i)
				os.Exit(1)
			}
			if routedSharded != nil && routedSharded[i][j] != routedPlanned[i][j] {
				fmt.Fprintf(os.Stderr, "permroute: request %d: planned and sharded permutations differ\n", i)
				os.Exit(1)
			}
		}
	}
	rate := func(d time.Duration) float64 {
		return float64(batch) / d.Seconds()
	}
	perRoute := func(d time.Duration) time.Duration {
		return d / time.Duration(batch)
	}
	fmt.Printf("  planned          %12v/route   %10.0f routes/sec\n", perRoute(planned), rate(planned))
	fmt.Printf("  planned-parallel %12v/route   %10.0f routes/sec   (%.1f× planned)\n",
		perRoute(parallel), rate(parallel), planned.Seconds()/parallel.Seconds())
	if batch >= permnet.PackedLanes {
		fmt.Printf("  packed (SWAR)    %12v/route   %10.0f routes/sec   (%.1f× planned-parallel)\n",
			perRoute(packed), rate(packed), parallel.Seconds()/packed.Seconds())
	} else {
		fmt.Printf("  packed engine needs a batch ≥ %d assignments; RouteBatch stayed on the planned path\n",
			permnet.PackedLanes)
	}
	if routedSharded != nil {
		fmt.Printf("  route-sharded    %12v/route   %10.0f routes/sec   (%.1f× planned-parallel, %s)\n",
			perRoute(sharded), rate(sharded), parallel.Seconds()/sharded.Seconds(), shardShape)
	}
	fmt.Printf("  benes-planned    %12v/route   %10.0f routes/sec   (%d switches/route)\n",
		perRoute(benes), rate(benes), bp.NumSwitches())
	if batch >= permnet.PackedLanes {
		fmt.Printf("  benes-packed     %12v/route   %10.0f routes/sec   (%.1f× benes-planned)\n",
			perRoute(benesPacked), rate(benesPacked), benes.Seconds()/benesPacked.Seconds())
	}
	fmt.Printf("  all %d batch routings delivered on both networks\n", batch)
}

// runConcentrateBatch drives the concentrate batch pipeline over the
// same request count: per-pattern planned routing vs the SWAR lane-packed
// engine, with a full bit-for-bit cross-check between the two paths.
func runConcentrateBatch(n int, eng concentrator.Engine, rng *rand.Rand, batch, workers int) {
	c := concentrator.New(n, n, eng, 0)
	c.Compile()
	marked := make([][]bool, batch)
	for i := range marked {
		m := make([]bool, n)
		for j := range m {
			m[j] = rng.Intn(2) == 0
		}
		marked[i] = m
	}
	fmt.Printf("concentrate pipeline: %d patterns, n=%d, engine=%s, workers=%d\n",
		batch, n, eng, workers)

	t0 := time.Now()
	plannedP, plannedR, err := c.ConcentrateBatchPlanned(marked, workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "permroute:", err)
		os.Exit(1)
	}
	planned := time.Since(t0)

	t0 = time.Now()
	packedP, packedR, err := c.ConcentrateBatch(marked, workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "permroute:", err)
		os.Exit(1)
	}
	packed := time.Since(t0)

	for i := range marked {
		if plannedR[i] != packedR[i] {
			fmt.Fprintf(os.Stderr, "permroute: pattern %d: planned count %d, packed count %d\n",
				i, plannedR[i], packedR[i])
			os.Exit(1)
		}
		for j := range plannedP[i] {
			if plannedP[i][j] != packedP[i][j] {
				fmt.Fprintf(os.Stderr, "permroute: pattern %d: planned and packed permutations differ\n", i)
				os.Exit(1)
			}
		}
	}
	rate := func(d time.Duration) float64 { return float64(batch) / d.Seconds() }
	fmt.Printf("  planned          %12v/pattern  %10.0f patterns/sec\n",
		planned/time.Duration(batch), rate(planned))
	if batch >= concentrator.PackedLanes {
		fmt.Printf("  packed (SWAR)    %12v/pattern  %10.0f patterns/sec   (%.1f× planned)\n",
			packed/time.Duration(batch), rate(packed), planned.Seconds()/packed.Seconds())
	} else {
		fmt.Printf("  packed engine needs a batch ≥ %d patterns; ConcentrateBatch stayed on the planned path\n",
			concentrator.PackedLanes)
	}
	fmt.Printf("  both paths agree on all %d patterns\n", batch)
}

// runServe replays a workload through the streaming routing service and
// reports throughput and the service's latency histogram.
func runServe(n int, eng concentrator.Engine, rng *rand.Rand, src string, batch, workers, queue int) {
	reqs, err := loadWorkload(n, rng, src, batch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "permroute:", err)
		os.Exit(1)
	}
	svc, err := serve.New(serve.Config{
		N: n, Engine: eng, Workers: workers, QueueDepth: queue,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "permroute:", err)
		os.Exit(1)
	}
	fmt.Printf("streaming service: %d requests, n=%d, engine=%s, workers=%d, queue=%d\n",
		len(reqs), n, eng, svc.Workers(), svc.QueueDepth())

	ctx := context.Background()
	futs := make([]*serve.Future, 0, len(reqs))
	t0 := time.Now()
	for i, req := range reqs {
		fut, err := svc.Submit(ctx, req) // blocks on backpressure
		if err != nil {
			fmt.Fprintf(os.Stderr, "permroute: request %d: %v\n", i, err)
			os.Exit(1)
		}
		futs = append(futs, fut)
	}
	for i, fut := range futs {
		res, err := fut.Wait(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "permroute: request %d: %v\n", i, err)
			os.Exit(1)
		}
		if reqs[i].Kind == serve.Permute && !permnet.VerifyRouting(reqs[i].Dest, res.Perm) {
			fmt.Fprintf(os.Stderr, "permroute: request %d not delivered\n", i)
			os.Exit(1)
		}
	}
	elapsed := time.Since(t0)
	svc.Close()

	st := svc.Stats()
	fmt.Printf("  %d submitted, %d completed, %d failed, %d rejected\n",
		st.Submitted, st.Completed, st.Failed, st.Rejected)
	fmt.Printf("  wall time %v   %.0f requests/sec\n",
		elapsed, float64(len(reqs))/elapsed.Seconds())
	fmt.Printf("  latency: mean %v   p50 ≤ %v   p99 ≤ %v\n",
		st.MeanLatency(), st.ApproxQuantile(0.50), st.ApproxQuantile(0.99))
	fmt.Printf("  all %d requests resolved\n", len(reqs))
}

// runChaos drives the fault drill: a stream of mixed requests through
// the streaming service with every response verified, a stuck-at fault
// wedged into the live permute plan a quarter of the way through and
// into the live concentrate plan halfway through, and time-to-recovery
// measured from each injection to the recompile that cleared it.
func runChaos(n int, eng concentrator.Engine, rng *rand.Rand, batch, workers, queue int) {
	if batch <= 0 {
		batch = 256
	}
	svc, err := serve.New(serve.Config{
		N: n, Engine: eng, Workers: workers, QueueDepth: queue,
		CheckFraction: 1, // drill mode: verify every response
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "permroute:", err)
		os.Exit(1)
	}
	defer svc.Close()
	fmt.Printf("chaos drill: %d requests, n=%d, engine=%s, workers=%d, every response checked\n",
		batch, n, eng, svc.Workers())

	type injection struct {
		at    int
		fault serve.WireFault
		label string
	}
	injections := []injection{
		{batch / 4, serve.WireFault{Kind: serve.Permute, Pos: 1, Bit: core.Lg(n) - 1, Stuck: 1},
			"permute dest-bit stuck-at-1"},
		{batch / 2, serve.WireFault{Kind: serve.Concentrate, Pos: 0, Stuck: 0},
			"concentrate tag stuck-at-0"},
	}
	ctx := context.Background()
	var injected time.Time
	var pendingLabel string
	lastRecompiled := int64(0)
	t0 := time.Now()
	for i := 0; i < batch; i++ {
		for _, inj := range injections {
			if i == inj.at {
				if err := svc.InjectFault(inj.fault); err != nil {
					fmt.Fprintln(os.Stderr, "permroute:", err)
					os.Exit(1)
				}
				injected, pendingLabel = time.Now(), inj.label
				fmt.Printf("  request %4d: injected %s\n", i, inj.label)
			}
		}
		var req serve.Request
		switch i % 2 {
		case 0:
			req = serve.Request{Kind: serve.Permute, Dest: rng.Perm(n)}
		default:
			marked := make([]bool, n)
			for j := range marked {
				marked[j] = rng.Intn(2) == 0
			}
			req = serve.Request{Kind: serve.Concentrate, Marked: marked}
		}
		fut, err := svc.Submit(ctx, req)
		if err != nil {
			fmt.Fprintf(os.Stderr, "permroute: request %d: %v\n", i, err)
			os.Exit(1)
		}
		res, err := fut.Wait(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "permroute: request %d: %v\n", i, err)
			os.Exit(1)
		}
		if req.Kind == serve.Permute && !permnet.VerifyRouting(req.Dest, res.Perm) {
			fmt.Fprintf(os.Stderr, "permroute: request %d: wrong result escaped the service\n", i)
			os.Exit(1)
		}
		if fs := svc.FaultStats(); fs.Recompiled > lastRecompiled {
			lastRecompiled = fs.Recompiled
			if pendingLabel != "" {
				fmt.Printf("  request %4d: recovered from %s in %v (recompile #%d)\n",
					i, pendingLabel, time.Since(injected), fs.Recompiled)
				pendingLabel = ""
			}
		}
	}
	elapsed := time.Since(t0)

	fs := svc.FaultStats()
	eng2, _ := svc.ActiveEngine(serve.Permute)
	fmt.Printf("  fault stats: %d checked, %d detected, %d recompiled, %d replayed, %d degraded\n",
		fs.Checked, fs.Detected, fs.Recompiled, fs.Replayed, fs.Degraded)
	fmt.Printf("  active permute engine after drill: %s   degraded concentrate: %v\n", eng2, svc.Degraded())
	fmt.Printf("  wall time %v   %.0f requests/sec   all %d requests resolved correctly\n",
		elapsed, float64(batch)/elapsed.Seconds(), batch)
	if fs.Detected == 0 || fs.Recompiled == 0 {
		fmt.Fprintln(os.Stderr, "permroute: chaos drill never exercised recovery")
		os.Exit(1)
	}
}

// loadWorkload parses the workload source: "rand" generates count random
// permutation requests, anything else is read as a workload file.
func loadWorkload(n int, rng *rand.Rand, src string, count int) ([]serve.Request, error) {
	if src == "rand" {
		if count <= 0 {
			count = 256
		}
		reqs := make([]serve.Request, count)
		for i := range reqs {
			reqs[i] = serve.Request{Kind: serve.Permute, Dest: rng.Perm(n)}
		}
		return reqs, nil
	}
	f, err := os.Open(src)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var reqs []serve.Request
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		req, err := parseRequest(fields)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", src, line, err)
		}
		reqs = append(reqs, req)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("%s: empty workload", src)
	}
	return reqs, nil
}

// parseRequest parses one workload line already split into fields.
func parseRequest(fields []string) (serve.Request, error) {
	switch fields[0] {
	case "permute":
		dest := make([]int, 0, len(fields)-1)
		for _, f := range fields[1:] {
			d, err := strconv.Atoi(f)
			if err != nil {
				return serve.Request{}, fmt.Errorf("bad destination %q", f)
			}
			dest = append(dest, d)
		}
		return serve.Request{Kind: serve.Permute, Dest: dest}, nil
	case "concentrate":
		if len(fields) != 2 {
			return serve.Request{}, fmt.Errorf("concentrate wants one 0/1 pattern")
		}
		marked := make([]bool, 0, len(fields[1]))
		for _, c := range fields[1] {
			switch c {
			case '0':
				marked = append(marked, false)
			case '1':
				marked = append(marked, true)
			default:
				return serve.Request{}, fmt.Errorf("bad mark %q", string(c))
			}
		}
		return serve.Request{Kind: serve.Concentrate, Marked: marked}, nil
	case "sortwords":
		keys := make([]uint64, 0, len(fields)-1)
		for _, f := range fields[1:] {
			k, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return serve.Request{}, fmt.Errorf("bad key %q", f)
			}
			keys = append(keys, k)
		}
		return serve.Request{Kind: serve.SortWords, Keys: keys}, nil
	}
	return serve.Request{}, fmt.Errorf("unknown request kind %q", fields[0])
}
