package concentrator

// Tests for the multi-word wide packing on the concentrator side: lane
// groups wider than one 64-lane plane word through ConcentratePacked,
// plus the multi-word zero-allocation steady-state pin.

import (
	"math/rand"
	"testing"

	"absort/internal/planner"
	"absort/internal/race"
)

// wideLaneCounts straddles every word boundary the multi-word engine
// cares about: one lane short of a word, exact words, one lane over,
// and a three-word group.
var wideLaneCounts = []int{63, 64, 65, 127, 128, 129, 192}

// TestConcentrateWideDifferential checks multi-word packed
// concentration against the scalar plan on every registered engine that
// routes the width, at lane counts that straddle the 64-lane word
// boundaries.
func TestConcentrateWideDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	n := 64
	for _, engine := range planner.EnginesFor(n) {
		c := New(n, n/2, engine, 4)
		for _, lanes := range wideLaneCounts {
			batch := make([][]bool, lanes)
			for l := range batch {
				marked := make([]bool, n)
				r := rng.Intn(n/2 + 1)
				for _, i := range rng.Perm(n)[:r] {
					marked[i] = true
				}
				batch[l] = marked
			}
			perms, counts := makeBatchResults(lanes, n)
			if err := c.ConcentratePacked(perms, counts, batch); err != nil {
				t.Fatalf("%v lanes=%d: %v", engine, lanes, err)
			}
			wantP := make([]int, n)
			for l, marked := range batch {
				wantR, err := c.ConcentrateInto(wantP, marked)
				if err != nil {
					t.Fatal(err)
				}
				if counts[l] != wantR || !equalPerm(perms[l], wantP) {
					t.Fatalf("%v lanes=%d lane %d: packed (%v, %d) != scalar (%v, %d)",
						engine, lanes, l, perms[l], counts[l], wantP, wantR)
				}
			}
		}
	}
}

// TestConcentratePackedWidths concentrates one batch in
// ConcentratePacked calls of 64, 128, 256 and 1024 patterns (the last
// call of each width ragged): every width must concentrate bit-for-bit
// identically to the planned pipeline.
func TestConcentratePackedWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	n := 64
	c := New(n, n, Fish, 4)
	batch := make([][]bool, 1100) // ragged at every width
	for i := range batch {
		marked := make([]bool, n)
		for j := range marked {
			marked[j] = rng.Intn(2) == 0
		}
		batch[i] = marked
	}
	wantP, wantR, err := c.ConcentrateBatchPlanned(batch, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{64, 128, 256, MaxPackedLanes} {
		gotP, gotR := makeBatchResults(len(batch), n)
		for lo := 0; lo < len(batch); lo += width {
			hi := min(lo+width, len(batch))
			if err := c.ConcentratePacked(gotP[lo:hi], gotR[lo:hi], batch[lo:hi]); err != nil {
				t.Fatalf("width %d: %v", width, err)
			}
		}
		for i := range batch {
			if gotR[i] != wantR[i] || !equalPerm(gotP[i], wantP[i]) {
				t.Fatalf("width %d pattern %d: packed (%v, %d) != planned (%v, %d)",
					width, i, gotP[i], gotR[i], wantP[i], wantR[i])
			}
		}
	}
}

// TestConcentrateWideAllocFree pins the zero steady-state heap
// allocation guarantee for multi-word lane groups: a 192-lane (three
// plane words) packed concentration must not allocate once the scratch
// pool is warm.
func TestConcentrateWideAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation pin skipped under the race detector: sync.Pool drops a fraction of Puts when instrumented")
	}
	rng := rand.New(rand.NewSource(72))
	n := 256
	lanes := 3 * PackedLanes
	c := New(n, n, Fish, 4)
	batch := make([][]bool, lanes)
	for l := range batch {
		marked := make([]bool, n)
		for j := range marked {
			marked[j] = rng.Intn(2) == 0
		}
		batch[l] = marked
	}
	perms, counts := makeBatchResults(lanes, n)
	if err := c.ConcentratePacked(perms, counts, batch); err != nil { // warm the pool
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if err := c.ConcentratePacked(perms, counts, batch); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("wide ConcentratePacked allocates %.1f per run, want 0", avg)
	}
}
