package serve

import (
	"testing"
	"time"
)

// TestObserveBuckets pins the histogram bucket semantics: bucket 0 holds
// exactly-0ns completions, bucket i ≥ 1 holds [2^(i-1), 2^i) ns, and
// out-of-range observations saturate at the ends.
func TestObserveBuckets(t *testing.T) {
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{0, 0},
		{-time.Second, 0}, // clock went backwards: clamped to 0
		{1, 1},            // [1,2)
		{2, 2},            // [2,4)
		{3, 2},
		{4, 3},
		{1023, 10},
		{1024, 11},
		{1 << 60, histBuckets - 1}, // beyond the top bucket: saturates
	}
	for _, tc := range cases {
		var c statsCounters
		c.observe(tc.d)
		for i := 0; i < histBuckets; i++ {
			want := int64(0)
			if i == tc.bucket {
				want = 1
			}
			if got := c.latency[i].Load(); got != want {
				t.Errorf("observe(%v): bucket %d = %d, want %d", tc.d, i, got, want)
			}
		}
		if tc.d < 0 && c.latSumNs.Load() != 0 {
			t.Errorf("observe(%v): sum %d, want clamped 0", tc.d, c.latSumNs.Load())
		}
	}
}

// TestObserveMax checks the observed-latency high-water mark is a max,
// not a last-write.
func TestObserveMax(t *testing.T) {
	var c statsCounters
	for _, d := range []time.Duration{5, 90, 17, 0, 90, 33} {
		c.observe(d)
	}
	if got := c.latMaxNs.Load(); got != 90 {
		t.Fatalf("latMaxNs = %d, want 90", got)
	}
}

// TestApproxQuantileClamp is the histogram-reporting bugfix: the bucket
// upper bound can sit up to 2× above the largest latency ever observed,
// so every quantile is clamped to the observed maximum.
func TestApproxQuantileClamp(t *testing.T) {
	var st Stats
	st.Latency[5] = 10 // ten completions in [16,32) ns
	st.LatencyMaxNs = 17
	if got := st.ApproxQuantile(1); got != 17 {
		t.Fatalf("ApproxQuantile(1) = %v, want clamp to observed max 17ns (unclamped bound 32ns)", got)
	}
	if got := st.ApproxQuantile(0); got != 17 {
		t.Fatalf("ApproxQuantile(0) = %v, want 17ns", got)
	}

	// When the max sits above the selected bucket's bound, the bound wins.
	st = Stats{}
	st.Latency[1] = 9 // nine completions of 1 ns
	st.Latency[8] = 1 // one slow completion in [128,256)
	st.LatencyMaxNs = 200
	if got := st.ApproxQuantile(0.5); got != 2 {
		t.Fatalf("ApproxQuantile(0.5) = %v, want bucket bound 2ns", got)
	}
	if got := st.ApproxQuantile(1); got != 200 {
		t.Fatalf("ApproxQuantile(1) = %v, want 200ns", got)
	}

	// All completions in bucket 0 resolve to exactly 0.
	st = Stats{}
	st.Latency[0] = 4
	if got := st.ApproxQuantile(0.99); got != 0 {
		t.Fatalf("ApproxQuantile over bucket 0 = %v, want 0", got)
	}

	// Out-of-range q values are clamped, empty histogram reports 0.
	st = Stats{}
	if got := st.ApproxQuantile(0.5); got != 0 {
		t.Fatalf("empty ApproxQuantile = %v, want 0", got)
	}
	st.Latency[3] = 1
	st.LatencyMaxNs = 5
	if lo, hi := st.ApproxQuantile(-1), st.ApproxQuantile(2); lo != 5 || hi != 5 {
		t.Fatalf("clamped-q quantiles = %v, %v, want 5ns", lo, hi)
	}
}

// TestStatsInFlightClamp checks the derived in-flight count: Submitted −
// Completed, clamped so counters with Completed ahead of Submitted never
// surface as a negative value.
func TestStatsInFlightClamp(t *testing.T) {
	s := &Service{}
	s.stats.submitted.Store(2)
	s.stats.completed.Store(4)
	if got := s.Stats().InFlight; got != 0 {
		t.Fatalf("InFlight = %d, want clamped 0", got)
	}
	s.stats.submitted.Store(5)
	s.stats.completed.Store(2)
	if got := s.Stats().InFlight; got != 3 {
		t.Fatalf("InFlight = %d, want 3", got)
	}
}
