package permnet

// Contract tests for the flat plan's packed validation, which the
// network now performs itself (DESIGN §13): a range check as the
// destinations load and the identity check after the replay stand in for
// the per-lane seen-array pass, and a failing lane still gets the error
// and global index RouteInto's validator gives it.

import (
	"math/rand"
	"strings"
	"testing"

	"absort/internal/cmpnet"
	"absort/internal/concentrator"
)

// TestRoutePackedVerdictErrors breaks one entry of a valid permutation —
// raised by n (it loads the same planes as the original), −1, 65536 + j,
// a duplicate — or shortens the list, in lane 0, 17 and 63 of a 64-lane
// group and in lanes 0, 17 and 23 of a 24-lane group, at a global offset.
// Each must return the validator's error for that request (RouteInto's
// for a short list) and its global index, and write no output; the same
// bad lane behind an earlier invalid lane must lose to the earlier one.
func TestRoutePackedVerdictErrors(t *testing.T) {
	const base = 640
	rng := rand.New(rand.NewSource(28))
	for _, tc := range []struct {
		n      int
		engine concentrator.Engine
	}{{16, concentrator.Fish}, {1024, concentrator.Fish}, {1024, cmpnet.EnginePeriodic}} {
		n := tc.n
		plan := NewRadixPermuter(n, tc.engine, 0).Compile()
		breaks := []struct {
			name  string
			apply func(d []int) []int
		}{
			{"raised by n", func(d []int) []int { d[5] += n; return d }},
			{"-1", func(d []int) []int { d[n-1] = -1; return d }},
			{"65536+j", func(d []int) []int { d[3] = 65536 + 3; return d }},
			{"duplicate", func(d []int) []int { d[7] = d[2]; return d }},
			{"short", func(d []int) []int { return d[:n-1] }},
		}
		for _, lanes := range []int{64, 24} {
			for _, bad := range []int{0, 17, lanes - 1} {
				for _, br := range breaks {
					dests := make([][]int, lanes)
					out := make([][]int, lanes)
					for l := range dests {
						dests[l] = rng.Perm(n)
						out[l] = make([]int, n)
						out[l][0] = -1
					}
					dests[bad] = br.apply(dests[bad])
					want := plan.RouteInto(make([]int, n), dests[bad])
					if want == nil {
						t.Fatalf("n=%d %s: RouteInto accepted the broken list", n, br.name)
					}
					i, err := plan.routePackedAt(out, dests, base)
					if err == nil || err.Error() != want.Error() || i != base+bad {
						t.Fatalf("n=%d %d lanes, %s in lane %d: error %v at %d, want %q at %d",
							n, lanes, br.name, bad, err, i, want, base+bad)
					}
					for l := range out {
						if out[l][0] != -1 {
							t.Fatalf("n=%d %s: lane %d written by a rejected group", n, br.name, l)
						}
					}
					if bad == 0 {
						continue
					}
					// An invalid earlier lane is the first offender.
					dests[0] = append([]int(nil), dests[0]...)
					dests[0][1] = dests[0][0]
					first := plan.validate(dests[0])
					if i, err := plan.routePackedAt(out, dests, base); err == nil || err.Error() != first.Error() || i != base {
						t.Fatalf("n=%d %s in lane %d behind a duplicate in lane 0: error %v at %d, want %q at %d",
							n, br.name, bad, err, i, first, base)
					}
				}
			}
		}
	}
}

// TestRoutePackedMisdelivery corrupts one occupied lane's front plane
// after the replay, as a fault inside the network would. The identity
// check must catch it and report a misdelivery for that request — its
// destinations are a valid permutation, so this is no input error — and
// deliver nothing; an unoccupied lane's planes are not checked.
func TestRoutePackedMisdelivery(t *testing.T) {
	const n, lanes, base = 256, 40, 128
	plan := NewRadixPermuter(n, concentrator.Fish, 0).Compile()
	pp, err := plan.prog.Packed()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(28))
	dests := make([][]int, lanes)
	out := make([][]int, lanes)
	for l := range dests {
		dests[l] = rng.Perm(n)
		out[l] = make([]int, n)
		out[l][0] = -1
	}
	for _, tc := range []struct {
		lane, pos, plane int
		wantErr          bool
	}{{0, 0, 0, true}, {29, 77, 3, true}, {lanes - 1, n - 1, 7, true}, {lanes, 9, 1, false}} {
		sc := pp.Get()
		if !pp.LoadDestLanes(sc.Val, dests) {
			t.Fatal("valid destinations failed the range check")
		}
		pp.Run(sc)
		sc.Val[tc.pos*pp.P+tc.plane] ^= 1 << tc.lane
		i, err := plan.deliverPacked(pp, sc.Val, out, dests, base, true)
		pp.Put(sc)
		if !tc.wantErr {
			if err != nil {
				t.Fatalf("flipping unoccupied lane %d: %v", tc.lane, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "misdelivered") || i != base+tc.lane {
			t.Fatalf("flipped lane %d position %d plane %d: error %v at %d, want a misdelivery at %d",
				tc.lane, tc.pos, tc.plane, err, i, base+tc.lane)
		}
		for l := range out {
			if out[l][0] != -1 {
				t.Fatalf("misdelivered group wrote lane %d", l)
			}
		}
	}
}
