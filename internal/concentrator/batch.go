// Batch routing pipeline: many independent requests streamed through one
// compiled routing plan, distributed across a worker pool by a lock-free
// atomic cursor — the same architecture as netlist's EvalBatch. Every
// request executes on pooled per-plan scratch (at most one scratch state
// live per worker at a time), so a batch performs no per-request
// allocation beyond the returned permutations, which are carved out of one
// flat backing array.
package concentrator

import "absort/internal/planner"

// batchGrain is the number of requests a worker claims per cursor bump:
// coarse enough to amortize the atomic, fine enough to balance skewed
// request costs.
const batchGrain = 8

// ConcentrateBatch routes every request pattern through the
// concentrator's compiled plan concurrently using workers goroutines
// (≤ 0 means GOMAXPROCS). It returns, in input order, the permutations
// and the per-pattern request counts. A poisoned batch fails fast: as
// soon as any worker observes a malformed or over-capacity pattern the
// remaining work is abandoned, and err reports the earliest offending
// pattern among those attempted.
//
// The batch driver of internal/planner (planner.Batch) decides the path:
// batches at least one lane group wide (≥ 64 patterns) route full lane
// groups through one SWAR plan replay each, and the rest per pattern.
// Engines the registry marks packed-unprofitable (the Ranking baseline:
// its single stable partition gains nothing from lane packing) always
// take the planned path, and a plan whose step stream has no packed form
// (planner.ErrNotPackable) falls back to planned cleanly. Results are
// bit-for-bit identical either way.
func (c *Concentrator) ConcentrateBatch(markedBatch [][]bool, workers int) ([][]int, []int, error) {
	return c.concentrateBatch(markedBatch, workers, true)
}

// ConcentrateBatchPlanned is ConcentrateBatch with packing off: every
// pattern replays the compiled plan on pooled scalar scratch, one packet
// word per input. It is the baseline the packed engine's throughput
// floor is measured against.
func (c *Concentrator) ConcentrateBatchPlanned(markedBatch [][]bool, workers int) ([][]int, []int, error) {
	return c.concentrateBatch(markedBatch, workers, false)
}

// concentrateBatch runs a batch through the planner's batch driver, with
// packed lane groups when packed is set.
func (c *Concentrator) concentrateBatch(markedBatch [][]bool, workers int, packed bool) ([][]int, []int, error) {
	if len(markedBatch) == 0 {
		return nil, nil, nil
	}
	r := &batchPatterns{c: c, packed: packed, marked: markedBatch}
	r.out = planner.Rows[int](len(markedBatch), c.n)
	r.counts = make([]int, len(markedBatch))
	b := planner.Batch{
		Workers:      workers,
		Grain:        batchGrain,
		Noun:         "concentrator: batch pattern",
		Unprofitable: !planner.PackedProfitable(c.engine),
	}
	if err := b.Run(len(markedBatch), r); err != nil {
		return nil, nil, err
	}
	return r.out, r.counts, nil
}

// batchPatterns is one batch of request patterns handed to the planner's
// batch driver.
type batchPatterns struct {
	c      *Concentrator
	packed bool  // packed lane groups allowed
	plan   *Plan // compiled plan, set by Packed
	marked [][]bool
	out    [][]int
	counts []int
}

func (r *batchPatterns) One(i int) (err error) {
	r.counts[i], err = r.c.ConcentrateInto(r.out[i], r.marked[i])
	return err
}

func (r *batchPatterns) Group(lo, hi int) (int, error) {
	l, err := r.c.concentrateGroup(r.plan, r.out[lo:hi], r.counts[lo:hi], r.marked[lo:hi])
	return lo + max(l, 0), err
}

func (r *batchPatterns) Packed() (*planner.Program, error) {
	if !r.packed {
		return nil, nil
	}
	plan, err := r.c.compileChecked()
	if err != nil {
		return nil, err
	}
	r.plan = plan
	return plan.prog, nil
}
