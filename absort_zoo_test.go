package absort_test

// End-to-end acceptance of the open engine registry (the network zoo):
// a comparator network handed in purely as an edge list — no builder,
// no netlist, just (i, j) pairs — registers as a routing engine and
// rides the entire compiled stack bit-for-bit equal to a direct
// cmpnet.Apply replay: scalar routing, the planned-parallel batch
// pipeline, the 64-lane packed SWAR path, the radix permuter and word
// sorter, and the fault-tolerant serving layer with a live stuck-at
// fault detected, recompiled around, and replayed.

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"absort"
	"absort/internal/bitvec"
	"absort/internal/cmpnet"
	"absort/internal/concentrator"
)

// brickPairs is the odd-even transposition ("brick") sorting network as
// a bare edge list: n rounds of alternating neighbor comparators — the
// minimal engine definition, deliberately supplied without any cmpnet
// builder involvement.
func brickPairs(n int) [][2]int {
	var pairs [][2]int
	for r := 0; r < n; r++ {
		for i := r % 2; i+1 < n; i += 2 {
			pairs = append(pairs, [2]int{i, i + 1})
		}
	}
	return pairs
}

var brickOnce struct {
	sync.Once
	engine absort.Engine
	err    error
}

// brickEngine registers the brick network once per test process and
// returns its registry handle.
func brickEngine(t *testing.T) absort.Engine {
	t.Helper()
	brickOnce.Do(func() {
		brickOnce.engine, brickOnce.err = absort.RegisterEdgeListEngine("brick-e2e", 0, 0, brickPairs)
	})
	if brickOnce.err != nil {
		t.Fatalf("RegisterEdgeListEngine: %v", brickOnce.err)
	}
	return brickOnce.engine
}

func TestEdgeListEngineRegistration(t *testing.T) {
	eng := brickEngine(t)
	if got, ok := absort.EngineByName("brick-e2e"); !ok || got != eng {
		t.Fatalf("EngineByName(brick-e2e) = %v, %v; want %v, true", got, ok, eng)
	}
	found := false
	for _, name := range absort.EngineNames() {
		if name == "brick-e2e" {
			found = true
		}
	}
	if !found {
		t.Fatalf("EngineNames() %v does not list brick-e2e", absort.EngineNames())
	}
	if eng.String() != "brick-e2e" {
		t.Fatalf("String() = %q", eng.String())
	}
	// Misuse is rejected, not registered.
	if _, err := absort.RegisterEdgeListEngine("nil-network", 0, 0, nil); err == nil {
		t.Fatal("RegisterEdgeListEngine(nil) succeeded")
	}
	if _, err := absort.RegisterEdgeListEngine("brick-e2e", 0, 0, brickPairs); err == nil {
		t.Fatal("duplicate registration succeeded")
	}
}

// TestFacadeWidthLockErrors pins the facade's error contract for
// width-locked registry engines: the error-returning constructors must
// reject a kernel engine outside its width window with a validated
// error (matching serve/frontdoor), never a panic from deep in the
// stack — and still accept it at its native width. RadixPermuter.Route
// and RadixPermuter.Sharded (permnet.ShardedPlanFor) return the same
// rejection as an error.
func TestFacadeWidthLockErrors(t *testing.T) {
	gvv, ok := absort.EngineByName("gvv16")
	if !ok {
		t.Fatal("gvv16 not registered")
	}
	if _, err := absort.NewBatchConcentrator(64, 64, gvv, 0); err == nil {
		t.Fatal("NewBatchConcentrator(64, 64, gvv16) accepted a width-locked engine at the wrong width")
	}
	if _, err := absort.NewBatchPermuter(16, gvv); err == nil {
		t.Fatal("NewBatchPermuter(16, gvv16) accepted an engine that cannot route level widths 2..8")
	}
	ident := make([]int, 16)
	for i := range ident {
		ident[i] = i
	}
	if _, err := absort.NewRadixPermuter(16, gvv).Route(ident); err == nil {
		t.Fatal("NewRadixPermuter(16, gvv16).Route routed with an engine that cannot route level widths 2..8")
	}
	for _, w := range []int{0, 2, 8} {
		if _, err := absort.NewRadixPermuter(16, gvv).Sharded(w); err == nil {
			t.Fatalf("NewRadixPermuter(16, gvv16).Sharded(%d) planned shards its engine cannot route", w)
		}
	}
	if _, err := absort.NewWordSorter(16, 8, gvv); err == nil {
		t.Fatal("NewWordSorter(16, 8, gvv16) accepted an engine that cannot route level widths 2..8")
	}
	if _, err := absort.NewRoutingService(absort.ServeConfig{N: 16, Engine: gvv, Workers: 1, QueueDepth: 4}); err == nil {
		t.Fatal("NewRoutingService accepted a width-locked engine")
	}
	bc, err := absort.NewBatchConcentrator(16, 16, gvv, 0)
	if err != nil {
		t.Fatalf("NewBatchConcentrator(16, 16, gvv16) at the kernel's native width: %v", err)
	}
	marked := make([]bool, 16)
	for j := 0; j < 16; j += 3 {
		marked[j] = true
	}
	p, count, err := bc.Concentrate(marked)
	if err != nil {
		t.Fatal(err)
	}
	if count != 6 {
		t.Fatalf("count = %d, want 6", count)
	}
	for j := 0; j < count; j++ {
		if !marked[p[j]] {
			t.Fatalf("output %d holds unmarked input %d", j, p[j])
		}
	}
}

// TestEdgeListEngineDifferential pins the edge-list engine against the
// direct network replay across every batch width class: 1 lane
// (scalar), 7 lanes (planned-parallel), and 64 lanes (packed SWAR).
func TestEdgeListEngineDifferential(t *testing.T) {
	eng := brickEngine(t)
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{4, 16, 64} {
		nw, err := cmpnet.FromComparators(n, "brick-ref", brickPairs(n))
		if err != nil {
			t.Fatal(err)
		}
		conc := absort.NewConcentrator(n, n, eng, 0)
		for _, lanes := range []int{1, 7, 64} {
			markedBatch := make([][]bool, lanes)
			want := make([][]int, lanes)
			for i := range markedBatch {
				tags := make(bitvec.Vector, n)
				marked := make([]bool, n)
				for j := range tags {
					if rng.Intn(2) == 0 {
						marked[j] = true
					} else {
						tags[j] = 1
					}
				}
				markedBatch[i] = marked
				want[i] = concentrator.RouteComparatorNetwork(nw, tags)
			}
			var perms [][]int
			if lanes == 1 {
				p, _, err := conc.Concentrate(markedBatch[0])
				if err != nil {
					t.Fatal(err)
				}
				perms = [][]int{p}
			} else {
				var err error
				perms, _, err = conc.ConcentrateBatch(markedBatch, 0)
				if err != nil {
					t.Fatal(err)
				}
			}
			for i := range perms {
				for j := range perms[i] {
					if perms[i][j] != want[i][j] {
						t.Fatalf("n=%d, %d lanes, pattern %d: output %d holds %d, cmpnet.Apply says %d",
							n, lanes, i, j, perms[i][j], want[i][j])
					}
				}
			}
		}
	}
}

// TestEdgeListEngineWordSort runs the edge-list engine under the word
// sorter — every radix pass routed through a permuter whose levels all
// lower the brick network — and checks a stable full-word sort.
func TestEdgeListEngineWordSort(t *testing.T) {
	eng := brickEngine(t)
	const n = 32
	ws, err := absort.NewWordSorter(n, 16, eng)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	type rec struct {
		key uint64
		seq int
	}
	items := make([]rec, n)
	for i := range items {
		items[i] = rec{key: uint64(rng.Intn(8)), seq: i}
	}
	sorted, err := absort.SortRecordsBy(ws, items, func(r rec) uint64 { return r.key })
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if sorted[i-1].key > sorted[i].key ||
			(sorted[i-1].key == sorted[i].key && sorted[i-1].seq > sorted[i].seq) {
			t.Fatalf("unstable or unsorted at %d: %v", i, sorted)
		}
	}
}

// TestEdgeListEngineServe runs the edge-list engine through the
// fault-tolerant serving layer with every response checked: verified
// permute, concentrate, and word-sort traffic, then a stuck-at-0 tag
// wire wedged into the live concentrator instance — the service must
// detect the misroutes, recompile around the fault, replay, and keep
// resolving every Future with a correct result.
func TestEdgeListEngineServe(t *testing.T) {
	eng := brickEngine(t)
	const n = 16
	s, err := absort.NewRoutingService(absort.ServeConfig{
		N: n, Engine: eng, Workers: 1, QueueDepth: 4, WordBits: 8,
		CheckFraction: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(17))
	submit := func(req absort.ServeRequest) absort.ServeResult {
		t.Helper()
		fut, err := s.Submit(ctx, req)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		res, err := fut.Wait(ctx)
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
		return res
	}
	// Healthy traffic across all three request kinds.
	dest := rng.Perm(n)
	res := submit(absort.PermuteRequest(dest))
	for j, i := range res.Perm {
		if dest[i] != j {
			t.Fatalf("permute: output %d holds input %d destined for %d", j, i, dest[i])
		}
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64() & 0xff // the service sorts 8-bit keys (WordBits)
	}
	res = submit(absort.SortWordsRequest(keys))
	for i := 1; i < n; i++ {
		if res.Keys[i-1] > res.Keys[i] {
			t.Fatalf("sortwords: unsorted at %d", i)
		}
	}
	// Wedge the concentrator's input-0 tag wire stuck-at-0 ("marked"):
	// every pattern below keeps input 0 unmarked, so each response
	// misroutes until recovery recompiles around the fault.
	if err := s.InjectFault(absort.ServeWireFault{Kind: absort.ServeConcentrate, Pos: 0, Stuck: 0}); err != nil {
		t.Fatalf("InjectFault: %v", err)
	}
	for trial := 0; trial < 8; trial++ {
		marked := make([]bool, n)
		count := 0
		for j := 1; j < n; j++ {
			if rng.Intn(2) == 0 {
				marked[j] = true
				count++
			}
		}
		res := submit(absort.ConcentrateRequest(marked))
		if res.Count != count {
			t.Fatalf("trial %d: count %d, want %d", trial, res.Count, count)
		}
		for j := 0; j < res.Count; j++ {
			if !marked[res.Perm[j]] {
				t.Fatalf("trial %d: output %d holds unmarked input %d", trial, j, res.Perm[j])
			}
		}
	}
	fs := s.FaultStats()
	if fs.Detected < 1 || fs.Recompiled < 1 || fs.Replayed < 1 {
		t.Fatalf("fault stats after recovery: %+v", fs)
	}
}
