package permnet

import (
	"math/rand"
	"testing"

	"absort/internal/concentrator"
	"absort/internal/planner"
)

var faultEngines = []concentrator.Engine{
	concentrator.MuxMerger,
	concentrator.PrefixAdder,
	concentrator.Fish,
	concentrator.Ranking,
}

func TestRouteIntoStuckNilMatchesClean(t *testing.T) {
	const n = 16
	rng := rand.New(rand.NewSource(8))
	for _, eng := range faultEngines {
		p := NewRadixPermuter(n, eng, 0).Compile()
		dest := rng.Perm(n)
		clean := make([]int, n)
		faulty := make([]int, n)
		if err := p.RouteInto(clean, dest); err != nil {
			t.Fatalf("%v: RouteInto: %v", eng, err)
		}
		if err := p.RouteIntoStuck(faulty, dest, nil); err != nil {
			t.Fatalf("%v: RouteIntoStuck: %v", eng, err)
		}
		for j := range clean {
			if clean[j] != faulty[j] {
				t.Fatalf("%v: RouteIntoStuck(nil) diverges at %d: %v vs %v", eng, j, faulty, clean)
			}
		}
		if !permEqual(faulty, inverse(dest)) {
			t.Fatalf("%v: RouteIntoStuck(nil) %v is not dest⁻¹", eng, faulty)
		}
	}
}

// TestRouteIntoStuckMisroutes pins that a wedged destination-address wire
// misroutes (the realized permutation stops matching dest) without
// corrupting the payload: the output stays a valid permutation of origin
// indices. The fault sits at position 1, not 0: the Ranking engine's
// stable partitions displace a packet forced at a window's FIRST position
// only to the zeros/ones boundary — still the correct sub-window — so a
// position-0 top-bit fault is provably harmless there, while a mid-window
// position pulls ones ahead of the forced packet and misroutes it.
func TestRouteIntoStuckMisroutes(t *testing.T) {
	const n = 16
	for _, eng := range faultEngines {
		rng := rand.New(rand.NewSource(13))
		p := NewRadixPermuter(n, eng, 0).Compile()
		faults := []planner.StuckFault{DestBitFault(1, p.NumLevels()-1, 1)}
		out := make([]int, n)
		misroutes := 0
		for trial := 0; trial < 24; trial++ {
			dest := rng.Perm(n)
			if err := p.RouteIntoStuck(out, dest, faults); err != nil {
				t.Fatalf("%v: RouteIntoStuck: %v", eng, err)
			}
			seen := make([]bool, n)
			realized := true
			for j, i := range out {
				if i < 0 || i >= n || seen[i] {
					t.Fatalf("%v: wedged dest wire corrupted payload: out=%v", eng, out)
				}
				seen[i] = true
				if dest[i] != j {
					realized = false
				}
			}
			if !realized {
				misroutes++
			}
		}
		if misroutes == 0 {
			t.Fatalf("%v: stuck-at-1 top destination bit never misrouted in 24 trials", eng)
		}
	}
}

func TestRouteIntoStuckValidation(t *testing.T) {
	p := NewRadixPermuter(8, concentrator.MuxMerger, 0).Compile()
	out := make([]int, 8)
	if err := p.RouteIntoStuck(out, []int{0, 1, 2}, nil); err == nil {
		t.Fatal("accepted short dest")
	}
	if err := p.RouteIntoStuck(out[:3], []int{0, 1, 2, 3, 4, 5, 6, 7}, nil); err == nil {
		t.Fatal("accepted short out")
	}
	if err := p.RouteIntoStuck(out, []int{0, 0, 2, 3, 4, 5, 6, 7}, nil); err == nil {
		t.Fatal("accepted non-permutation dest")
	}
	if err := p.RouteIntoStuck(out, []int{0, 1, 2, 3, 4, 5, 6, 7},
		[]planner.StuckFault{{Pos: 99}}); err == nil {
		t.Fatal("accepted out-of-range fault position")
	}
}
