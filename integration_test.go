// Integration tests exercising full cross-module pipelines: sorters
// feeding concentrators feeding permuters, the clocked machine against the
// combinational networks, and the verification toolkit certifying the
// public API's constructions end to end.
package absort_test

import (
	"math/rand"
	"testing"

	"absort"
	"absort/internal/bitvec"
	"absort/internal/fault"
	"absort/internal/verify"
)

// TestIntegrationAllSortersCertified certifies every public sorter
// (including the clocked machine) through the parallel verification
// toolkit at n = 16, exhaustively.
func TestIntegrationAllSortersCertified(t *testing.T) {
	machine, err := absort.NewFishMachine(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	sorters := map[string]verify.BitSorter{
		"prefix":     absort.NewPrefixSorter(16).Sort,
		"mux-merger": absort.NewMuxMergerSorter(16).Sort,
		"fish":       absort.NewFishSorter(16, 4).Sort,
		"machine": func(v bitvec.Vector) bitvec.Vector {
			out, _, err := machine.Sort(v)
			if err != nil {
				t.Fatal(err)
			}
			return out
		},
	}
	for name, s := range sorters {
		if res := verify.SortsAllBinary(16, s, verify.Options{}); !res.OK {
			t.Errorf("%s failed certification on %s", name, res.Counterexample)
		}
	}
}

// TestIntegrationSwitchFabricPipeline runs a two-stage interconnect: a
// concentrator compacts the active flows, then a permuter delivers them to
// their destinations; payload integrity is checked end to end.
func TestIntegrationSwitchFabricPipeline(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(229))
	conc := absort.NewConcentrator(n, n, absort.EngineFish, absort.FishK(n))
	perm := absort.NewRadixPermuter(n, absort.EngineFish)

	for trial := 0; trial < 25; trial++ {
		// Stage 1: sparse arrivals concentrate onto the leading ports.
		marked := make([]bool, n)
		var active []int
		for i := range marked {
			if rng.Intn(3) == 0 {
				marked[i] = true
				active = append(active, i)
			}
		}
		p1, r, err := conc.Concentrate(marked)
		if err != nil {
			t.Fatal(err)
		}
		if r != len(active) {
			t.Fatalf("r = %d, want %d", r, len(active))
		}
		// Stage 2: the compacted frame is permuted to random destinations.
		dest := rng.Perm(n)
		p2, err := perm.Route(dest)
		if err != nil {
			t.Fatal(err)
		}
		// End-to-end: input i → concentrator output j1 → permuter output
		// dest[j1]. Verify every active payload arrives exactly once.
		arrived := map[int]int{}
		for j2, j1 := range p2 {
			src := p1[j1]
			if j1 < r && marked[src] {
				arrived[src] = j2
			}
		}
		if len(arrived) != len(active) {
			t.Fatalf("%d/%d payloads arrived", len(arrived), len(active))
		}
		for _, src := range active {
			j1 := indexOf(p1, src)
			if want := dest[j1]; arrived[src] != want {
				t.Fatalf("payload %d at output %d, want %d", src, arrived[src], want)
			}
		}
	}
}

func indexOf(p []int, x int) int {
	for j, v := range p {
		if v == x {
			return j
		}
	}
	return -1
}

// TestIntegrationWordSortMatchesBitSorters: sorting 1-bit keys through the
// word sorter must agree with the binary sorters exactly (up to stability,
// which only refines ties).
func TestIntegrationWordSortMatchesBitSorters(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(233))
	ws, err := absort.NewWordSorter(n, 1, absort.EngineMuxMerger)
	if err != nil {
		t.Fatal(err)
	}
	mm := absort.NewMuxMergerSorter(n)
	for trial := 0; trial < 30; trial++ {
		v := bitvec.Random(rng, n)
		keys := make([]uint64, n)
		for i, b := range v {
			keys[i] = uint64(b)
		}
		sorted, _, err := ws.Sort(keys)
		if err != nil {
			t.Fatal(err)
		}
		bits := mm.Sort(v)
		for i := range bits {
			if uint64(bits[i]) != sorted[i] {
				t.Fatalf("word sort %v != bit sort %s", sorted, bits)
			}
		}
	}
}

// TestIntegrationFaultToleranceSummary ties the fault module to the public
// networks: the mux-merger netlist reaches full stuck-at coverage with a
// modest random test set.
func TestIntegrationFaultToleranceSummary(t *testing.T) {
	c := absort.NewMuxMergerSorter(16).Circuit()
	tests := fault.RandomTestSet(16, 64, 9)
	covered, total := fault.StuckAtCoverage(c, tests)
	if covered < total*95/100 {
		t.Errorf("stuck-at coverage %d/%d below 95%%", covered, total)
	}
}

// TestIntegrationBenesVsRadixAgreement: both permutation networks realize
// identical assignments across many random permutations at n = 128.
func TestIntegrationBenesVsRadixAgreement(t *testing.T) {
	const n = 128
	rng := rand.New(rand.NewSource(239))
	rp := absort.NewRadixPermuter(n, absort.EngineMuxMerger)
	for trial := 0; trial < 10; trial++ {
		dest := rng.Perm(n)
		p, err := rp.Route(dest)
		if err != nil {
			t.Fatal(err)
		}
		cfg, _, err := absort.RouteBenes(dest)
		if err != nil {
			t.Fatal(err)
		}
		in := make([]int, n)
		for i := range in {
			in[i] = i
		}
		out := absort.Permute(cfg, in)
		for j := range out {
			if out[j] != p[j] {
				t.Fatalf("Beneš output %d = %d, radix %d", j, out[j], p[j])
			}
		}
	}
}
