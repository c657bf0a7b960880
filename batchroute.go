package absort

import (
	"fmt"

	"absort/internal/concentrator"
	"absort/internal/core"
	"absort/internal/permnet"
	"absort/internal/planner"
)

// BatchPermuter routes many permutation requests through one compiled
// route plan of the Fig. 10 radix permuter — the routing counterpart of
// BatchSorter. All lg n radix levels are lowered once into a single
// fused stage-ordered step program (see internal/planner); Route then
// replays it allocation-free on pooled scratch, and RouteBatch streams
// requests across cores on an atomic work cursor, switching wide batches
// onto the 64-lane SWAR packed engine automatically.
type BatchPermuter struct {
	rp   *permnet.RadixPermuter
	plan permnet.Plan // flat or sharded, as RadixPermuter.Plan chose
}

// NewBatchPermuter returns a batch permuter for n-input assignments (n a
// power of two) whose distribution stages use the given engine
// (EngineFish gives the O(n lg n) bit-level cost configuration). It
// routes through the plan RadixPermuter.Plan chooses: at huge n the
// sharded plan — w independent n/w sub-programs behind a cross-shard
// exchange — instead of the flat fused program, which is then never
// compiled unless RouteBatchPlanned asks for it.
func NewBatchPermuter(n int, engine Engine) (*BatchPermuter, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("absort: NewBatchPermuter(%d): n must be a power of two ≥ 2", n)
	}
	if _, ok := planner.Lookup(engine); !ok {
		return nil, fmt.Errorf("absort: NewBatchPermuter(%d): unknown engine %v", n, engine)
	}
	rp := permnet.NewRadixPermuter(n, engine, 0)
	plan, err := rp.Plan()
	if err != nil {
		return nil, fmt.Errorf("absort: NewBatchPermuter(%d): %w", n, err)
	}
	return &BatchPermuter{rp: rp, plan: plan}, nil
}

// N returns the network width.
func (b *BatchPermuter) N() int { return b.rp.N() }

// Engine returns the distribution engine.
func (b *BatchPermuter) Engine() Engine { return b.rp.Engine() }

// Permuter exposes the underlying radix permuter (for its Route, which
// replays the same compiled plans, and the cost/time models).
func (b *BatchPermuter) Permuter() *RadixPermuter { return b.rp }

// Route computes, through the compiled plan, the permutation p
// realizing "input i goes to output dest[i]" (receives-from form:
// out[j] = in[p[j]]).
func (b *BatchPermuter) Route(dest []int) ([]int, error) {
	return b.plan.Route(dest)
}

// RouteInto is Route writing into a caller-provided slice — zero
// steady-state heap allocations.
func (b *BatchPermuter) RouteInto(out []int, dest []int) error {
	return b.plan.RouteInto(out, dest)
}

// Sharded reports whether requests route through the sharded plan.
func (b *BatchPermuter) Sharded() bool { return b.plan.Shards() > 0 }

// Shards returns the engaged shard count, 0 when routing flat.
func (b *BatchPermuter) Shards() int { return b.plan.Shards() }

// RouteBatch routes every assignment concurrently using workers
// goroutines (≤ 0 means GOMAXPROCS). Results preserve input order.
// Batches at least PackedLanes wide automatically route whole lane
// groups of PackedLanes assignments per plan replay through the SWAR
// lane-packed engine, spread over the workers; results are bit-for-bit
// identical to the per-assignment path.
func (b *BatchPermuter) RouteBatch(dests [][]int, workers int) ([][]int, error) {
	return b.plan.RouteBatch(dests, workers)
}

// RouteBatchPlanned is RouteBatch pinned to the per-assignment replay of
// the flat fused plan — the baseline the packed engine's throughput is
// measured against. It compiles the flat plan on first use, sharded
// width or not. Results are identical to RouteBatch.
func (b *BatchPermuter) RouteBatchPlanned(dests [][]int, workers int) ([][]int, error) {
	return b.rp.Compile().RouteBatchPlanned(dests, workers)
}

// RoutePacked routes up to PackedLanes destination assignments
// through one SWAR plan replay, writing the realized permutations into
// out (one length-n slice per assignment). It is the explicit
// single-lane-group form of RouteBatch's packed fast path.
func (b *BatchPermuter) RoutePacked(out [][]int, dests [][]int) error {
	return b.plan.RoutePacked(out, dests)
}

// BatchConcentrator routes many concentration requests through one
// compiled routing plan of an (n,m)-concentrator (Section IV). Like
// BatchPermuter, single requests run allocation-free on pooled scratch
// and batches stream across cores on an atomic work cursor.
type BatchConcentrator struct {
	c *concentrator.Concentrator
}

// NewBatchConcentrator returns a batch (n,m)-concentrator over the given
// engine; k is the fish group count (≤ 0 selects the paper's k = lg n
// choice; other engines ignore it). The accepted domain matches
// concentrator.New exactly: n any positive power of two — n = 1 (the
// trivial single-wire concentrator) included — and 0 < m ≤ n.
func NewBatchConcentrator(n, m int, engine Engine, k int) (*BatchConcentrator, error) {
	if !core.IsPow2(n) {
		return nil, fmt.Errorf("absort: NewBatchConcentrator(%d, %d): n must be a positive power of two", n, m)
	}
	if m <= 0 || m > n {
		return nil, fmt.Errorf("absort: NewBatchConcentrator(%d, %d): need 0 < m ≤ n", n, m)
	}
	if engine == EngineFish && k > 0 && (!core.IsPow2(k) || k > n || (n > 1 && k < 2)) {
		return nil, fmt.Errorf("absort: NewBatchConcentrator(%d, %d): fish group count k=%d must be a power of two with 2 ≤ k ≤ n", n, m, k)
	}
	if _, ok := planner.Lookup(engine); !ok {
		return nil, fmt.Errorf("absort: NewBatchConcentrator(%d, %d): unknown engine %v", n, m, engine)
	}
	if !planner.CanRoute(engine, n) {
		return nil, fmt.Errorf("absort: NewBatchConcentrator(%d, %d): engine %v cannot route width %d", n, m, engine, n)
	}
	c := concentrator.New(n, m, engine, k)
	c.Compile()
	return &BatchConcentrator{c: c}, nil
}

// N returns the input count; M the output capacity.
func (b *BatchConcentrator) N() int { return b.c.N() }

// M returns the output capacity.
func (b *BatchConcentrator) M() int { return b.c.M() }

// Engine returns the routing engine.
func (b *BatchConcentrator) Engine() Engine { return b.c.Engine() }

// Concentrator exposes the underlying concentrator, whose Concentrate
// replays the same compiled plan.
func (b *BatchConcentrator) Concentrator() *Concentrator { return b.c }

// Concentrate computes the routing for one request pattern through the
// compiled plan: it returns the permutation p (out[j] = in[p[j]]) under
// which the r marked inputs occupy outputs 0..r-1, and r.
func (b *BatchConcentrator) Concentrate(marked []bool) ([]int, int, error) {
	return b.c.Concentrate(marked)
}

// ConcentrateInto is Concentrate writing into a caller-provided slice —
// zero steady-state heap allocations.
func (b *BatchConcentrator) ConcentrateInto(p []int, marked []bool) (int, error) {
	return b.c.ConcentrateInto(p, marked)
}

// ConcentrateBatch routes every request pattern concurrently using
// workers goroutines (≤ 0 means GOMAXPROCS), returning the permutations
// and request counts in input order. Batches at least PackedLanes wide
// automatically route whole lane groups of PackedLanes patterns per plan
// replay through the SWAR lane-packed engine, spread over the workers
// (except on EngineRanking, whose stable partition gains nothing from
// packing); results are bit-for-bit identical to the per-pattern path.
func (b *BatchConcentrator) ConcentrateBatch(marked [][]bool, workers int) ([][]int, []int, error) {
	return b.c.ConcentrateBatch(marked, workers)
}

// Packed lane-group widths of the SWAR batch engine (see
// internal/concentrator): one replay carries one plane word of
// PackedLanes patterns, and groups narrower than MinPackedLanes route
// per-pattern.
const (
	PackedLanes    = concentrator.PackedLanes
	MinPackedLanes = concentrator.MinPackedLanes
)

// ShardedAutoThreshold is the network width at or above which a radix
// permuter's plan — and with it BatchPermuter, RoutingService and
// WordSorter — routes through the sharded decomposition instead of
// compiling a flat fused plan; see permnet.ShardedAutoThreshold.
const ShardedAutoThreshold = permnet.ShardedAutoThreshold

// DefaultShards returns the shard count the sharded plan uses for an
// n-input network.
func DefaultShards(n int) int { return permnet.DefaultShards(n) }

// PlanCacheStats is a snapshot of the process-wide compiled-plan cache's
// traffic counters (hits, misses, evictions) — the signal a serving
// layer watches to size SharedCacheCap against its plan working set.
type PlanCacheStats = planner.CacheStats

// SharedPlanCacheStats snapshots the process-wide plan cache counters.
func SharedPlanCacheStats() PlanCacheStats { return planner.Shared.Stats() }

// ConcentratePacked routes up to PackedLanes request patterns through
// one SWAR plan replay, writing the permutations into perms and the
// request counts into counts (all length n, one per pattern). It is the
// explicit single-lane-group form of ConcentrateBatch's packed fast
// path — exactly the results len(marked) ConcentrateInto calls would
// produce, at a fraction of the data movement.
func (b *BatchConcentrator) ConcentratePacked(perms [][]int, counts []int, marked [][]bool) error {
	return b.c.ConcentratePacked(perms, counts, marked)
}

// SortWordsBatch sorts many independent key sets through one WordSorter's
// compiled route plan, workers goroutines wide (≤ 0 means GOMAXPROCS):
// the batch front door to the Section I word-sorting decomposition. It
// returns, in input order, the sorted keys and the receives-from
// permutations.
func SortWordsBatch(s *WordSorter, keySets [][]uint64, workers int) ([][]uint64, [][]int, error) {
	return s.SortBatch(keySets, workers)
}
