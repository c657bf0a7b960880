// The batch driver: many independent requests routed through one plan,
// distributed across a worker pool by a lock-free atomic cursor. Every
// batch entry point (the permuter, Beneš and sharded route plans, the
// concentrator, the word sorter) hands its per-request route and packed
// group route to Batch.Run as Requests, so the packing policy, the
// result carving and the fail-fast error contract live here once.
package planner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Batch is one batch entry point's packing constraints, run by Run.
type Batch struct {
	Workers int    // goroutines; ≤ 0 means GOMAXPROCS
	Grain   int    // requests a worker claims per cursor bump on the per-request path
	Noun    string // error prefix naming a request, e.g. "permnet: batch request"

	// Unprofitable routes the whole batch through One: the plan's engine
	// is one the registry marks PackedUnprofitable (see PackedProfitable).
	Unprofitable bool

	// Width, when positive, fixes the group width in requests and sends
	// every group — a short last one included — through Group, without
	// consulting Packed. It serves plans whose every request fills many
	// lanes of its own (the sharded route plan's w shard windows).
	Width int
}

// Requests is one batch's routes, driven by Batch.Run.
type Requests interface {
	// One routes request i on its own.
	One(i int) error
	// Group routes requests lo..hi-1 through one packed replay and
	// returns the index of the offending request alongside an error.
	Group(lo, hi int) (int, error)
	// Packed returns the program Group replays. It is called only for a
	// batch wide enough to pack: an error fails the batch unwrapped, and
	// a nil program or one without a packed form (ErrNotPackable) routes
	// the whole batch through One.
	Packed() (*Program, error)
}

// packing is the batch driver's one packing decision for a batch of n
// requests: the group width in requests (0 routes every request through
// One) and the narrowest group that still packs (narrower groups route
// through One request by request).
//
// The two thresholds are asymmetric: a batch enters packing only at
// PackedLanes (64) requests, but once in, a remainder group packs from
// MinPackedLanes (24) up, so a 24..63-request batch routes per request
// while the same requests would pack as a remainder. Both are pinned by
// TestBatchPackingDecisions; changing either needs its own measurement.
func (b *Batch) packing(n int, rq Requests) (width, minLanes int, err error) {
	switch {
	case b.Width > 0:
		return b.Width, 1, nil
	case n < PackedLanes || b.Unprofitable:
		return 0, 0, nil
	}
	prog, err := rq.Packed()
	if err != nil {
		return 0, 0, err
	}
	if prog == nil {
		return 0, 0, nil
	}
	if _, err := prog.Packed(); err != nil {
		return 0, 0, nil
	}
	return PackedLanes, MinPackedLanes, nil
}

// Run routes requests 0..n-1 of rq: lane groups through Group and the
// rest through One, as packing decides, spread across the worker pool.
// The first failure stops every worker from claiming more work, and the
// error names the earliest failing request among those attempted,
// wrapped once as "<Noun> <i>: <err>".
func (b *Batch) Run(n int, rq Requests) error {
	width, minLanes, err := b.packing(n, rq)
	if err != nil {
		return err
	}
	var first atomic.Pointer[batchErr]
	if width == 0 {
		runBatch(n, b.Workers, b.Grain, func(i int) bool {
			if first.Load() != nil {
				return false // poisoned batch: abort instead of burning workers
			}
			if err := rq.One(i); err != nil {
				recordBatchErr(&first, i, err)
				return false
			}
			return true
		})
	} else {
		runBatch((n+width-1)/width, b.Workers, 1, func(g int) bool {
			if first.Load() != nil {
				return false
			}
			lo := g * width
			hi := min(lo+width, n)
			if hi-lo < minLanes {
				for i := lo; i < hi; i++ {
					if err := rq.One(i); err != nil {
						recordBatchErr(&first, i, err)
						return false
					}
				}
				return true
			}
			if i, err := rq.Group(lo, hi); err != nil {
				recordBatchErr(&first, i, err)
				return false
			}
			return true
		})
	}
	if e := first.Load(); e != nil {
		return fmt.Errorf("%s %d: %w", b.Noun, e.i, e.err)
	}
	return nil
}

// Rows carves batch result rows of n values each out of one flat
// backing array.
func Rows[T any](batch, n int) [][]T {
	out := make([][]T, batch)
	flat := make([]T, batch*n)
	for i := range out {
		out[i] = flat[i*n : (i+1)*n]
	}
	return out
}

// runBatch executes fn(0..n-1) across workers goroutines (≤ 0 means
// GOMAXPROCS) with an atomic work cursor claiming grain items at a time:
// coarse enough to amortize the atomic, fine enough to balance skewed
// request costs. fn returning false aborts the batch: every worker stops
// claiming new items as soon as the shared stop flag is raised (items
// already claimed in the same grain are also skipped), so a poisoned
// batch fails fast.
func runBatch(n, workers, grain int, fn func(i int) bool) {
	if grain < 1 {
		grain = 1
	}
	// Copy into a never-reassigned local: the worker closures then capture
	// it by value, so the sequential fast path stays allocation-free (a
	// mutated parameter captured by a closure is moved to the heap at
	// function entry, on every call).
	g := grain
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > (n+g-1)/g {
		workers = (n + g - 1) / g
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if !fn(i) {
				return
			}
		}
		return
	}
	var stop atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				lo := int(next.Add(int64(g))) - g
				if lo >= n {
					return
				}
				hi := min(lo+g, n)
				for i := lo; i < hi; i++ {
					if stop.Load() {
						return
					}
					if !fn(i) {
						stop.Store(true)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// batchErr records the earliest failing request of a batch.
type batchErr struct {
	i   int
	err error
}

// recordBatchErr CAS-publishes err for request i unless an earlier
// request already failed.
func recordBatchErr(first *atomic.Pointer[batchErr], i int, err error) {
	e := &batchErr{i: i, err: err}
	for {
		cur := first.Load()
		if cur != nil && cur.i <= i {
			return
		}
		if first.CompareAndSwap(cur, e) {
			return
		}
	}
}
