package absort_test

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// pairedRatio is the timing floors' measurement. It alternates short
// timed samples of two sides in one process — A B, B A, A B, … — so a
// slow or fast phase of a shared machine lands on both sides of a pair,
// and summarizes the per-pair ratios of B's time per op to A's. The
// median of those ratios stays readable while single pairs spread
// widely; keeping the best of several unpaired attempts instead only
// measures how lucky the luckiest attempt was. Many short pairs beat a
// few long ones: on a shared 2-vCPU box, two identical serving sides
// read 0.93–1.05 over 15 pairs of 100 ms and 0.99–1.02 over 61 pairs of
// 25 ms. An odd pair count makes the median one pair's ratio.
func pairedRatio(pairs int, sample time.Duration, a, b func()) pairedStats {
	a() // warm both sides' plans and pools
	b()
	r := make([]float64, pairs)
	for i := range r {
		var ta, tb float64
		if i%2 == 0 {
			ta, tb = nsPerOp(a, sample), nsPerOp(b, sample)
		} else {
			tb, ta = nsPerOp(b, sample), nsPerOp(a, sample)
		}
		r[i] = tb / ta
	}
	slices.Sort(r)
	q := func(f float64) float64 { return r[int(f*float64(pairs-1)+0.5)] }
	st := pairedStats{Median: q(0.5), Q1: q(0.25), Q3: q(0.75), Pairs: pairs}
	for _, v := range r {
		if v < 1 {
			st.Below++
		}
	}
	return st
}

// pairedStats summarizes pairedRatio's per-pair B/A time ratios.
type pairedStats struct {
	Median, Q1, Q3 float64 // median and quartiles of the ratios
	Below, Pairs   int     // pairs whose ratio is below 1 (B faster)
}

func (s pairedStats) String() string {
	return fmt.Sprintf("median of %d pairs %.3f (IQR %.3f–%.3f), below 1 in %d",
		s.Pairs, s.Median, s.Q1, s.Q3, s.Below)
}

// nsPerOp runs f back to back for at least d and returns its mean time
// per call. It collects garbage first, so a sample does not pay for the
// other side's allocations.
func nsPerOp(f func(), d time.Duration) float64 {
	runtime.GC()
	start := time.Now()
	for ops := 1; ; ops++ {
		f()
		if el := time.Since(start); el >= d {
			return float64(el.Nanoseconds()) / float64(ops)
		}
	}
}
