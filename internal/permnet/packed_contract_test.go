package permnet

import (
	"testing"

	"absort/internal/concentrator"
)

// errString normalizes an error for contract comparison.
func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestRoutePackedErrorContract pins that the sharded and Beneš plans'
// RoutePacked honor the flat plan's validation contract byte-for-byte:
// the same malformed group produces the same error message, in the same
// validation order, and nothing routes before validation completes. The
// sharded path used to skip the lane-count bounds (a 0-assignment group
// silently succeeded, an over-wide one silently chunked) and to route
// early requests before validating later ones on the scalar fallback.
func TestRoutePackedErrorContract(t *testing.T) {
	const n = 1024
	flat := NewRadixPermuter(n, concentrator.MuxMerger, 0).Compile()
	sharded, err := ShardedPlanFor(n, concentrator.MuxMerger, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !sharded.Packed() {
		t.Fatalf("sharded plan at w=32 not packed; contract test needs the packed path")
	}
	// A scalar-fallback sharded plan (w below the packed break-even) must
	// honor the same contract on its per-request path.
	scalar, err := ShardedPlanFor(n, concentrator.MuxMerger, 2)
	if err != nil {
		t.Fatal(err)
	}
	if scalar.Packed() {
		t.Fatalf("sharded plan at w=2 unexpectedly packed")
	}
	benes, err := CompileBenes(n)
	if err != nil {
		t.Fatal(err)
	}
	plans := []struct {
		name string
		plan interface {
			RoutePacked(out [][]int, dests [][]int) error
		}
	}{{"sharded", sharded}, {"scalar-fallback sharded", scalar}, {"Beneš", benes}}

	ident := make([]int, n)
	for i := range ident {
		ident[i] = i
	}
	short := make([]int, n-1)
	dup := make([]int, n)
	outs := func(k int) [][]int {
		o := make([][]int, k)
		for i := range o {
			o[i] = make([]int, n)
		}
		return o
	}

	cases := []struct {
		name  string
		out   [][]int
		dests [][]int
	}{
		{"empty group", nil, nil},
		{"over-wide group", outs(PackedLanes + 1), make([][]int, PackedLanes+1)},
		{"output count mismatch", outs(1), [][]int{ident, ident}},
		{"short dest", outs(2), [][]int{ident, short}},
		{"short out", [][]int{make([]int, n), make([]int, n-1)}, [][]int{ident, ident}},
		{"non-permutation dest", outs(2), [][]int{ident, dup}},
	}
	for _, tc := range cases {
		want := errString(flat.RoutePacked(tc.out, tc.dests))
		if want == "<nil>" {
			t.Fatalf("%s: flat plan accepted the malformed group", tc.name)
		}
		for _, p := range plans {
			got := errString(p.plan.RoutePacked(tc.out, tc.dests))
			if got != want {
				t.Errorf("%s: %s error %q, flat error %q", tc.name, p.name, got, want)
			}
		}
	}

	// Validation precedes routing: the first assignment is well-formed
	// but the group is rejected, so no output may be written.
	out := outs(2)
	dests := [][]int{ident, short}
	out[0][0] = -1
	for _, p := range plans {
		if err := p.plan.RoutePacked(out, dests); err == nil {
			t.Fatalf("%s plan accepted a short dest", p.name)
		}
		if out[0][0] != -1 {
			t.Fatalf("%s RoutePacked routed request 0 before validating request 1", p.name)
		}
	}
}
