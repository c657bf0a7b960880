package planner

import "testing"

// TestDefaultFishK pins the paper's k = lg n group count rounded down to
// a power of two and capped at n.
func TestDefaultFishK(t *testing.T) {
	for _, tc := range []struct{ s, want int }{
		{4, 2}, {8, 2}, {16, 4}, {256, 8}, {1024, 8}, {65536, 16},
	} {
		if got := DefaultFishK(tc.s); got != tc.want {
			t.Errorf("DefaultFishK(%d) = %d, want %d", tc.s, got, tc.want)
		}
	}
}

// TestResolveK pins the engine-shape check every constructor shares: the
// resolved k, and the unprefixed error texts callers prefix.
func TestResolveK(t *testing.T) {
	for _, tc := range []struct {
		e       Engine
		n, k    int
		want    int
		wantErr string
	}{
		{Fish, 64, 0, DefaultFishK(64), ""},
		{Fish, 64, 4, 4, ""},
		{MuxMerger, 64, 7, 0, ""},
		{Fish, 64, 3, 0, "fish group count k=3 must be a power of two with 2 ≤ k ≤ n=64"},
		{Engine(-1), 64, 0, 0, "unknown engine Engine(-1)"},
	} {
		got, err := ResolveK(tc.e, tc.n, tc.k)
		if tc.wantErr != "" {
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("ResolveK(%v, %d, %d) error %v, want %q", tc.e, tc.n, tc.k, err, tc.wantErr)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ResolveK(%v, %d, %d) = %d, %v; want %d", tc.e, tc.n, tc.k, got, err, tc.want)
		}
	}
	// A width-locked engine, registered once per test binary (the
	// registry is process-wide and rejects a duplicate name).
	locked, ok := EngineByName("test-width-locked-16")
	if !ok {
		locked = MustRegister(EngineSpec{
			Name: "test-width-locked-16",
			Sort: func(b *Builder, lo, hi int32, _ int) { b.MMSort(lo, hi) },
			MinN: 16,
			MaxN: 16,
		})
	}
	const want = "engine test-width-locked-16 cannot route width 8"
	if _, err := ResolveK(locked, 8, 0); err == nil || err.Error() != want {
		t.Errorf("ResolveK on a width-locked engine at n=8: error %v, want %q", err, want)
	}
}
