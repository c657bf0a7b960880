package concentrator

// Tests for packed concentration in calls of 1..64 patterns and in
// batches many lane words wide, plus the zero-allocation steady-state
// pin of a full lane word.

import (
	"math/rand"
	"testing"

	"absort/internal/planner"
	"absort/internal/race"
)

// wideLaneCounts spans one packed call: a single lane, a ragged word
// below and at the batch remainder threshold (MinPackedLanes), one lane
// short of a word, and a full word.
var wideLaneCounts = []int{1, 7, MinPackedLanes, 63, PackedLanes}

// wideBatch is the batch-path pattern count of the wide differential:
// sixteen lane words, one packed replay each.
const wideBatch = 1024

// randomBatch draws count patterns over n inputs with at most `most` marked
// inputs each.
func randomBatch(rng *rand.Rand, count, n, most int) [][]bool {
	batch := make([][]bool, count)
	for l := range batch {
		marked := make([]bool, n)
		for _, i := range rng.Perm(n)[:rng.Intn(most+1)] {
			marked[i] = true
		}
		batch[l] = marked
	}
	return batch
}

// TestConcentrateWideDifferential checks packed concentration against
// the scalar plan on every registered engine that routes the width, in
// ConcentratePacked calls of 1..64 patterns and in a 1024-pattern
// ConcentrateBatch.
func TestConcentrateWideDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	n := 64
	for _, engine := range planner.EnginesFor(n) {
		c := New(n, n/2, engine, 4)
		for _, lanes := range wideLaneCounts {
			batch := randomBatch(rng, lanes, n, n/2)
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
		batch := randomBatch(rng, wideBatch, n, n/2)
		perms, counts, err := c.ConcentrateBatch(batch, 2)
		if err != nil {
			t.Fatalf("%v batch: %v", engine, err)
		}
		wantP := make([]int, n)
		for l, marked := range batch {
			wantR, err := c.ConcentrateInto(wantP, marked)
			if err != nil {
				t.Fatal(err)
			}
			if counts[l] != wantR || !equalPerm(perms[l], wantP) {
				t.Fatalf("%v batch pattern %d: packed (%v, %d) != scalar (%v, %d)",
					engine, l, perms[l], counts[l], wantP, wantR)
			}
		}
	}
}

// TestConcentratePackedWidths concentrates one batch in
// ConcentratePacked calls of 1, 7, 24, 63 and 64 patterns (the last call
// of each width ragged): every width must concentrate bit-for-bit
// identically to the planned pipeline.
func TestConcentratePackedWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	n := 64
	c := New(n, n, Fish, 4)
	batch := make([][]bool, 1100) // ragged at every width above 1
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
	for _, width := range wideLaneCounts {
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
// allocation guarantee for a full lane word: a 64-lane packed
// concentration must not allocate once the scratch pool is warm.
func TestConcentrateWideAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation pin skipped under the race detector: sync.Pool drops a fraction of Puts when instrumented")
	}
	rng := rand.New(rand.NewSource(72))
	n := 256
	lanes := PackedLanes
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
