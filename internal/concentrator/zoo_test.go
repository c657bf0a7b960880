package concentrator

// Certification and differential validation of the network zoo: every
// comparator-network engine registered by internal/cmpnet must route
// bit-for-bit like a direct replay of its network (cmpnet.Apply), on
// the scalar planned path, the planned-parallel batch pipeline, and
// the 64-lane packed SWAR engine — and the periodic and fish-gvv16
// engines, whose lowering is structurally novel (direct comparator-stage
// ops, kernel-based recursion), are additionally certified against the
// zero-one principle through the registry-lowered programs themselves.

import (
	"fmt"
	"math/rand"
	"testing"

	"absort/internal/bitvec"
	"absort/internal/cmpnet"
	"absort/internal/core"
)

// zooLess is the packet ordering every routing plan realizes: tag-0
// (marked) packets ahead of tag-1, ties kept stable by network position.
func zooLess(a, b item) bool { return a.tag < b.tag }

// refApply routes tags through reps sequential replays of the network —
// the direct cmpnet.Apply reference the compiled plans must match.
func refApply(nw *cmpnet.Network, tags bitvec.Vector, reps int) []int {
	items := itemsOf(tags)
	for r := 0; r < reps; r++ {
		items = cmpnet.Apply(nw, items, zooLess)
	}
	return permOf(items)
}

// randTags fills a tag vector from rng.
func randTags(rng *rand.Rand, n int) bitvec.Vector {
	tags := make(bitvec.Vector, n)
	for i := range tags {
		tags[i] = bitvec.Bit(rng.Intn(2))
	}
	return tags
}

// checkConcentrated verifies perm is a permutation routing the tag-0
// packets of tags to the leading outputs in stable order.
func checkConcentrated(t *testing.T, tags bitvec.Vector, perm []int) {
	t.Helper()
	n := len(tags)
	if len(perm) != n {
		t.Fatalf("perm has %d outputs for %d inputs", len(perm), n)
	}
	seen := make([]bool, n)
	for j, i := range perm {
		if i < 0 || i >= n || seen[i] {
			t.Fatalf("output %d: invalid or duplicated input %d (perm %v)", j, i, perm)
		}
		seen[i] = true
	}
	for j := 1; j < n; j++ {
		if tags[perm[j-1]] > tags[perm[j]] {
			t.Fatalf("outputs not tag-sorted at %d: tags %v, perm %v", j, tags, perm)
		}
	}
}

// zooCase pairs a registry engine with the cmpnet construction it was
// lowered from (the differential reference). reps > 1 marks a periodic
// engine whose reference replays the same block that many times.
type zooCase struct {
	engine Engine
	build  func(n int) *cmpnet.Network
	reps   func(n int) int
	widths []int
}

func zooCases() []zooCase {
	once := func(int) int { return 1 }
	return []zooCase{
		{cmpnet.EngineOEM, cmpnet.OddEvenMergeSort, once, []int{2, 4, 16, 64}},
		{cmpnet.EngineBitonic, cmpnet.BitonicSort, once, []int{2, 4, 16, 64}},
		{cmpnet.EngineBalanced, cmpnet.AlternativeOEMSort, once, []int{2, 4, 16, 64}},
		{cmpnet.EnginePeriodic, cmpnet.BalancedMergingBlock, core.Lg, []int{2, 4, 16, 64}},
		{cmpnet.EngineGvV16, func(int) *cmpnet.Network { return cmpnet.GreenVanVoorhis16() },
			once, []int{16}},
	}
}

// TestZooDifferentialVsApply pins the acceptance criterion of the
// generic Network→IR lowering: for every zoo engine, the compiled
// registry plan routes bit-for-bit identically to a direct replay of
// the source network, across the scalar planned path (one lane), the
// planned-parallel batch pipeline (7 patterns — below the packed
// threshold), the auto-packed SWAR batch path (64 patterns and up), and
// the same patterns through ConcentratePacked calls of up to 64.
func TestZooDifferentialVsApply(t *testing.T) {
	rng := rand.New(rand.NewSource(1992))
	for _, tc := range zooCases() {
		for _, n := range tc.widths {
			t.Run(fmt.Sprintf("%v/n=%d", tc.engine, n), func(t *testing.T) {
				nw := tc.build(n)
				reps := tc.reps(n)
				plan := PlanFor(n, tc.engine, 0)

				// Scalar planned path, one pattern per replay.
				for trial := 0; trial < 32; trial++ {
					tags := randTags(rng, n)
					want := refApply(nw, tags, reps)
					planned, err := plan.Route(tags)
					if err != nil {
						t.Fatalf("Plan.Route: %v", err)
					}
					for j := range want {
						if planned[j] != want[j] {
							t.Fatalf("plan route diverges at output %d: got %v, want %v", j, planned, want)
						}
					}
				}

				// Batch pipelines: 7 lanes planned-parallel, 64 lanes and up
				// packed; every count also runs through ConcentratePacked,
				// one call per lane word.
				conc := New(n, n, tc.engine, 0)
				for _, lanes := range []int{7, PackedLanes, 65, 129, 256} {
					tagsBatch := make([]bitvec.Vector, lanes)
					markedBatch := make([][]bool, lanes)
					for i := range tagsBatch {
						tags := randTags(rng, n)
						marked := make([]bool, n)
						for j, tag := range tags {
							marked[j] = tag == 0
						}
						tagsBatch[i], markedBatch[i] = tags, marked
					}
					perms, counts, err := conc.ConcentrateBatch(markedBatch, 0)
					if err != nil {
						t.Fatalf("ConcentrateBatch(%d lanes): %v", lanes, err)
					}
					checkBatch := func(path string) {
						t.Helper()
						for i, tags := range tagsBatch {
							want := refApply(nw, tags, reps)
							wantCount := 0
							for _, m := range markedBatch[i] {
								if m {
									wantCount++
								}
							}
							if counts[i] != wantCount {
								t.Fatalf("%s, %d lanes, pattern %d: count %d, want %d", path, lanes, i, counts[i], wantCount)
							}
							for j := range want {
								if perms[i][j] != want[j] {
									t.Fatalf("%s, %d lanes, pattern %d: route diverges from cmpnet.Apply at output %d: got %v, want %v",
										path, lanes, i, j, perms[i], want)
								}
							}
						}
					}
					checkBatch("batch")
					for i := range perms {
						perms[i], counts[i] = make([]int, n), -1
					}
					for lo := 0; lo < lanes; lo += PackedLanes {
						hi := min(lo+PackedLanes, lanes)
						if err := conc.ConcentratePacked(perms[lo:hi], counts[lo:hi], markedBatch[lo:hi]); err != nil {
							t.Fatalf("ConcentratePacked(lanes %d..%d): %v", lo, hi, err)
						}
					}
					checkBatch("packed")
				}
			})
		}
	}
}

// TestZooPeriodicCertified certifies the constant-periodic engine by
// the zero-one principle through the registry-lowered program itself:
// lg n balanced merging blocks lowered as comparator-stage ops must sort
// all 2^n binary tag vectors for n ≤ 16, and a randomized sweep covers
// n = 32.
func TestZooPeriodicCertified(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		plan := PlanFor(n, cmpnet.EnginePeriodic, 0)
		out := make([]int, n)
		ok := bitvec.All(n, func(tags bitvec.Vector) bool {
			if err := plan.RouteInto(out, tags); err != nil {
				t.Fatalf("n=%d: RouteInto: %v", n, err)
			}
			for j := 1; j < n; j++ {
				if tags[out[j-1]] > tags[out[j]] {
					return false
				}
			}
			return true
		})
		if !ok {
			t.Fatalf("periodic engine fails to sort some binary vector at n=%d", n)
		}
	}
	rng := rand.New(rand.NewSource(8))
	plan := PlanFor(32, cmpnet.EnginePeriodic, 0)
	for trial := 0; trial < 2000; trial++ {
		tags := randTags(rng, 32)
		out, err := plan.Route(tags)
		if err != nil {
			t.Fatal(err)
		}
		checkConcentrated(t, tags, out)
	}
}

// TestZooGvV16Certified certifies the Green/van Voorhis kernel and the
// fish-gvv16 engine built on it through the registry-lowered programs:
// exhaustively over all 2^16 binary vectors at the kernel width, and on
// a randomized sweep at n = 64 where fish-gvv16's recursion actually
// reaches its 16-wide GvV base cases.
func TestZooGvV16Certified(t *testing.T) {
	for _, engine := range []Engine{cmpnet.EngineGvV16, cmpnet.EngineFishGvV} {
		plan := PlanFor(16, engine, 0)
		out := make([]int, 16)
		ok := bitvec.All(16, func(tags bitvec.Vector) bool {
			if err := plan.RouteInto(out, tags); err != nil {
				t.Fatalf("%v: RouteInto: %v", engine, err)
			}
			for j := 1; j < 16; j++ {
				if tags[out[j-1]] > tags[out[j]] {
					return false
				}
			}
			return true
		})
		if !ok {
			t.Fatalf("engine %v fails to sort some 16-bit binary vector", engine)
		}
	}
	rng := rand.New(rand.NewSource(13))
	plan := PlanFor(64, cmpnet.EngineFishGvV, 0)
	for trial := 0; trial < 2000; trial++ {
		tags := randTags(rng, 64)
		out, err := plan.Route(tags)
		if err != nil {
			t.Fatal(err)
		}
		checkConcentrated(t, tags, out)
	}
}

// TestZooWidthLock pins the registry's width capability surface: the
// width-locked gvv16 kernel routes only at its exact width, and every
// construction entry point reports the violation instead of lowering a
// wrong-width program.
func TestZooWidthLock(t *testing.T) {
	c := &Concentrator{n: 8, m: 8, engine: cmpnet.EngineGvV16}
	const want = "concentrator: engine gvv16 cannot route width 8"
	if _, err := c.ConcentrateInto(make([]int, 8), make([]bool, 8)); err == nil || err.Error() != want {
		t.Fatalf("ConcentrateInto(gvv16, n=8) error %v, want %q", err, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewPlan(32, gvv16) did not panic")
		}
	}()
	NewPlan(32, cmpnet.EngineGvV16, 0)
}
