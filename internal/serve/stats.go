// Plan-set counters and the completion-latency histogram. Everything is
// lock-free: plain atomic counters plus a fixed array of power-of-two
// latency buckets, so recording a completion costs two atomic adds and
// Stats() is a consistent-enough snapshot for monitoring.
package serve

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two latency buckets: bucket 0
// counts completions of exactly 0 ns (a clock that did not tick between
// submit and resolve), and bucket i ≥ 1 counts completions with latency
// in [2^(i-1), 2^i) nanoseconds, so 48 buckets span beyond three days.
const histBuckets = 48

// statsCounters is the plan set's internal mutable state. There is no
// in-flight counter: InFlight is derived in Stats from the two monotone
// counters submitted and completed, because a third independently
// updated counter can tear against them in a snapshot (the historical
// Submitted < Completed + InFlight bug).
type statsCounters struct {
	submitted atomic.Int64
	completed atomic.Int64
	rejected  atomic.Int64
	failed    atomic.Int64

	// Fault-tolerance counters (see fault.go).
	checked         atomic.Int64
	faultDetected   atomic.Int64
	faultRecompiled atomic.Int64
	faultReplayed   atomic.Int64
	faultDegraded   atomic.Int64

	// Per-kind routing-path counters (see PathStats).
	paths [numKinds]pathCounters

	latency  [histBuckets]atomic.Int64
	latSumNs atomic.Int64
	latMaxNs atomic.Int64
}

// pathCounters counts how one request kind's completions were routed.
type pathCounters struct {
	packed, perRequest, carried atomic.Int64
}

// observe records one completion latency.
func (c *statsCounters) observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	c.latency[b].Add(1)
	c.latSumNs.Add(ns)
	// CAS-maximise the observed-latency high-water mark; quantile upper
	// bounds are clamped to it so a single slow request cannot make the
	// histogram report a latency 2× above anything actually seen.
	for {
		cur := c.latMaxNs.Load()
		if ns <= cur || c.latMaxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Stats is a point-in-time snapshot of a PlanSet's (or Service's) counters.
type Stats struct {
	// Submitted counts admitted requests; Completed counts resolved
	// requests (including those resolved with an error); Rejected counts
	// Submit/TrySubmit calls that returned an error (malformed request,
	// queue full, cancelled, closed) and Exec calls refused as malformed;
	// Failed counts requests resolved with an error; InFlight is the
	// number of admitted, not-yet-resolved requests. Every snapshot satisfies
	//
	//	Submitted ≥ Completed + InFlight   and   InFlight ≥ 0
	//
	// even when taken mid-resolve under concurrent load.
	Submitted, Completed, Rejected, Failed, InFlight int64
	// Latency[0] counts completions that resolved within the clock's
	// resolution (exactly 0 ns); Latency[i] for i ≥ 1 counts completions
	// with submit-to-resolve latency (from Exec's start argument, for
	// requests run through Exec) in [2^(i-1), 2^i) ns.
	Latency [histBuckets]int64
	// LatencySumNs is the sum of all completion latencies in nanoseconds.
	LatencySumNs int64
	// LatencyMaxNs is the largest single completion latency observed, in
	// nanoseconds. Quantile upper bounds are clamped to it.
	LatencyMaxNs int64
	// Paths breaks the completions down by request kind (indexed by
	// Kind) and routing path. Summed over kinds, Packed + PerRequest is
	// Completed once the plan set is quiescent.
	Paths [numKinds]PathStats
}

// PathStats is one request kind's routing-path breakdown.
type PathStats struct {
	// Packed counts completions resolved from a packed burst replay
	// (Service workers only); PerRequest counts every other completion —
	// routed alone, including the burst fallbacks, or resolved with an
	// error before routing. Carried counts drain tails of this kind a
	// Service worker carried into its next drain instead of routing them
	// ahead of the burst.
	Packed, PerRequest, Carried int64
	// BreakEven is the current plan instance's burst break-even width k*:
	// a Service worker packs a burst of this kind once k* requests are on
	// hand (see planInstance.breakEven). It is 0 when the instance can
	// never ride the packed replay (SortWords, a packed-unprofitable or
	// faulted instance, degraded service).
	BreakEven int
}

// Stats snapshots the plan-set counters. Each field is atomically read,
// but the snapshot as a whole is not a single atomic cut: a completion
// landing mid-snapshot can make loose cross-field identities (for
// example LatencyCount = Completed) off by the number of in-progress
// updates. The documented invariant Submitted ≥ Completed + InFlight,
// however, holds in EVERY snapshot, torn or not: Completed (monotone)
// is loaded first and Submitted (monotone, and incremented at admission,
// before the matching queue send or Exec's routing — see submit) last, so any resolution landing
// mid-snapshot can only raise Submitted relative to the Completed
// already read; InFlight is then derived from those same two loads
// instead of being a third counter that could tear against them, and
// clamped against the one transient that remains (a rolled-back
// admission between the two loads).
func (p *PlanSet) Stats() Stats {
	st := Stats{
		Completed:    p.stats.completed.Load(),
		Rejected:     p.stats.rejected.Load(),
		Failed:       p.stats.failed.Load(),
		LatencySumNs: p.stats.latSumNs.Load(),
		LatencyMaxNs: p.stats.latMaxNs.Load(),
	}
	for i := range st.Latency {
		st.Latency[i] = p.stats.latency[i].Load()
	}
	for kind := range st.Paths {
		c := &p.stats.paths[kind]
		st.Paths[kind] = PathStats{
			Packed:     c.packed.Load(),
			PerRequest: c.perRequest.Load(),
			Carried:    c.carried.Load(),
		}
		if inst := p.loadInst(Kind(kind)); inst != nil && inst.packable(Kind(kind)) {
			st.Paths[kind].BreakEven = inst.breakEven()
		}
	}
	st.Submitted = p.stats.submitted.Load()
	st.InFlight = st.Submitted - st.Completed
	if st.InFlight < 0 {
		st.InFlight = 0
	}
	return st
}

// FaultStats is a point-in-time snapshot of the plan set's
// fault-tolerance counters (see fault.go for the detection and recovery
// machinery).
type FaultStats struct {
	// Checked counts responses run through the lanewise checker
	// (including replays re-verified during recovery); Detected counts
	// responses that failed verification; Recompiled counts plan-instance
	// swaps performed by recovery; Replayed counts requests re-executed
	// on a replacement instance; Degraded counts Concentrate requests
	// served through the permuter after every concentrator engine was
	// quarantined.
	Checked, Detected, Recompiled, Replayed, Degraded int64
}

// FaultStats snapshots the fault-tolerance counters. Like Stats, each
// field is atomically read but the snapshot is not a single atomic cut.
func (p *PlanSet) FaultStats() FaultStats {
	return FaultStats{
		Checked:    p.stats.checked.Load(),
		Detected:   p.stats.faultDetected.Load(),
		Recompiled: p.stats.faultRecompiled.Load(),
		Replayed:   p.stats.faultReplayed.Load(),
		Degraded:   p.stats.faultDegraded.Load(),
	}
}

// LatencyCount returns the number of recorded completions.
func (st *Stats) LatencyCount() int64 {
	var n int64
	for _, c := range st.Latency {
		n += c
	}
	return n
}

// MeanLatency returns the average completion latency.
func (st *Stats) MeanLatency() time.Duration {
	n := st.LatencyCount()
	if n == 0 {
		return 0
	}
	return time.Duration(st.LatencySumNs / n)
}

// ApproxQuantile returns the upper bound of the histogram bucket holding
// the q-quantile completion latency (q in [0,1]); 0 when nothing has
// completed. Power-of-two buckets make this exact to within 2×, and the
// bound is additionally clamped to the largest latency actually
// observed, so ApproxQuantile(1) never reports a value above the true
// maximum (an unclamped bucket upper bound can sit up to 2× above it).
func (st *Stats) ApproxQuantile(q float64) time.Duration {
	n := st.LatencyCount()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(n-1))
	var seen int64
	bound := time.Duration(uint64(1) << (histBuckets - 1))
	for i, c := range st.Latency {
		seen += c
		if seen > rank {
			if i == 0 {
				return 0 // bucket 0 holds exactly-0ns completions
			}
			bound = time.Duration(uint64(1) << uint(i))
			break
		}
	}
	if mx := time.Duration(st.LatencyMaxNs); mx < bound {
		return mx
	}
	return bound
}
