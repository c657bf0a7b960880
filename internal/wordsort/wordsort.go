// Package wordsort realizes the paper's Section I claim that "the
// permutation and sorting problems can be broken into a sequence of
// sorting steps on binary sequences": a least-significant-digit radix sort
// of w-bit keys in which every pass is a stable binary split whose
// destination ranks come from a ones-counting prefix ladder (the ranking
// machinery of Network 1 / the ranking-tree concentrators of [11], [13])
// and whose physical data movement goes through the paper's Fig. 10 radix
// permutation network — itself built from adaptive binary sorters.
//
// The resulting sorter is stable, handles duplicate keys, and has
// bit-level cost w × O(n lg n) with the fish-based permuter — the
// composition the paper's interconnection results exist to enable.
//
// All w radix passes of every Sort go through the permuter's compiled
// route plan (see internal/permnet/plan.go), with per-pass working state
// drawn from a pool: a Sort allocates only its two result slices, and
// SortBatch streams many key sets through the same plan concurrently on
// an atomic work cursor.
package wordsort

import (
	"fmt"
	"sync"

	"absort/internal/bitvec"
	"absort/internal/concentrator"
	"absort/internal/core"
	"absort/internal/permnet"
	"absort/internal/planner"
)

// Engine selects the network that physically routes each pass.
type Engine = concentrator.Engine

// Sorter sorts w-bit keys over an n-wide network.
type Sorter struct {
	n, w    int
	permute *permnet.RadixPermuter
	sharded *permnet.ShardedRoutePlan // non-nil at n ≥ permnet.ShardedAutoThreshold
	pool    sync.Pool                 // *sortScratch
}

// sortScratch is the pooled per-Sort working state: one set for all w
// passes.
type sortScratch struct {
	tags bitvec.Vector
	dest []int
	p    []int
	keys []uint64
	perm []int
}

// New returns a word sorter for n records (a power of two) with w-bit
// keys (1 ≤ w ≤ 64), routing each radix pass through a radix permuter
// over the given engine.
func New(n, w int, engine Engine) (*Sorter, error) {
	if !core.IsPow2(n) {
		return nil, fmt.Errorf("wordsort: n=%d is not a power of two", n)
	}
	if w < 1 || w > 64 {
		return nil, fmt.Errorf("wordsort: key width %d out of range [1,64]", w)
	}
	if _, ok := planner.Lookup(engine); !ok {
		return nil, fmt.Errorf("wordsort: unknown engine %v", engine)
	}
	if n >= 2 && (!planner.CanRoute(engine, n) || !planner.CanRoute(engine, 2)) {
		// Every radix pass routes through permuter levels of width
		// n, n/2, …, 2; a width-locked kernel engine cannot back them.
		return nil, fmt.Errorf("wordsort: engine %v cannot route the permuter's level widths 2..%d", engine, n)
	}
	s := &Sorter{n: n, w: w, permute: permnet.NewRadixPermuter(n, engine, 0)}
	if n >= permnet.ShardedAutoThreshold {
		// Huge networks route every pass through the sharded plan: the
		// flat fused program's Θ(n lg n) step stream is never compiled,
		// and each pass replays w SWAR shard lanes instead of one
		// sequential pass (see internal/permnet/sharded.go).
		sp, err := s.permute.Sharded(0)
		if err != nil {
			return nil, fmt.Errorf("wordsort: %w", err)
		}
		s.sharded = sp
	}
	s.pool.New = func() any {
		return &sortScratch{
			tags: make(bitvec.Vector, n),
			dest: make([]int, n),
			p:    make([]int, n),
			keys: make([]uint64, n),
			perm: make([]int, n),
		}
	}
	return s, nil
}

// N returns the record count; W the key width.
func (s *Sorter) N() int { return s.n }

// W returns the key width in bits.
func (s *Sorter) W() int { return s.w }

// Passes returns the number of binary sorting steps a Sort performs.
func (s *Sorter) Passes() int { return s.w }

// stableSplitDestInto computes, for one radix pass, the stable destination
// of each record: 0-tagged records keep order in the leading positions,
// 1-tagged in the trailing ones. This is the ranking step — in hardware a
// parallel-prefix ones counter (internal/prefixadd) per position.
func stableSplitDestInto(dest []int, tags bitvec.Vector) {
	zeros := tags.Zeros()
	z, o := 0, zeros
	for i, t := range tags {
		if t == 0 {
			dest[i] = z
			z++
		} else {
			dest[i] = o
			o++
		}
	}
}

// stableSplitDest is stableSplitDestInto with a fresh result (kept for
// direct use and tests).
func stableSplitDest(tags bitvec.Vector) []int {
	dest := make([]int, len(tags))
	stableSplitDestInto(dest, tags)
	return dest
}

// Sort sorts keys ascending and returns (sortedKeys, perm) where perm is
// in receives-from form: sortedKeys[j] == keys[perm[j]]. The sort is
// stable: equal keys keep their input order. Every pass's data movement is
// routed through the radix permutation network's compiled plan; the only
// allocations are the two result slices.
func (s *Sorter) Sort(keys []uint64) ([]uint64, []int, error) {
	out := make([]uint64, s.n)
	perm := make([]int, s.n)
	if err := s.SortInto(out, perm, keys); err != nil {
		return nil, nil, err
	}
	return out, perm, nil
}

// SortInto is Sort writing the sorted keys and the receives-from
// permutation into caller-provided slices — zero steady-state heap
// allocations. keys may alias out.
func (s *Sorter) SortInto(out []uint64, perm []int, keys []uint64) error {
	if len(keys) != s.n {
		return fmt.Errorf("wordsort: %d keys for width-%d sorter", len(keys), s.n)
	}
	if len(out) != s.n || len(perm) != s.n {
		return fmt.Errorf("wordsort: result buffers of %d/%d for width-%d sorter",
			len(out), len(perm), s.n)
	}
	sc := s.pool.Get().(*sortScratch)
	defer s.pool.Put(sc)
	copy(out, keys)
	for i := range perm {
		perm[i] = i
	}
	for b := 0; b < s.w; b++ {
		for i, k := range out {
			sc.tags[i] = bitvec.Bit((k >> uint(b)) & 1)
		}
		stableSplitDestInto(sc.dest, sc.tags)
		if err := s.routePass(sc.p, sc.dest); err != nil {
			return fmt.Errorf("wordsort: pass %d: %w", b, err)
		}
		for j, i := range sc.p {
			sc.keys[j] = out[i]
			sc.perm[j] = perm[i]
		}
		copy(out, sc.keys)
		copy(perm, sc.perm)
	}
	return nil
}

// routePass routes one radix pass's stable-split destinations: through
// the sharded plan on huge networks, the flat compiled plan otherwise.
func (s *Sorter) routePass(p []int, dest []int) error {
	if s.sharded != nil {
		return s.sharded.RouteInto(p, dest)
	}
	return s.permute.Compile().RouteInto(p, dest)
}

// sortBatchGrain is the number of key sets a batch worker claims per
// cursor bump.
const sortBatchGrain = 2

// SortBatch sorts many independent key sets through one compiled route
// plan, distributed across workers goroutines (≤ 0 means GOMAXPROCS) by
// the batch driver of internal/planner (planner.Batch). Results preserve
// input order and are identical to per-set Sort; result slices are
// carved out of flat backing arrays.
//
// Batches at least one lane group wide (≥ 64 key sets) run full lane
// groups through the packed composition pipeline (sortGroupWide): each
// group runs all w radix passes inside the permuter's SWAR engine
// without ever leaving bit-plane form, and the rest sort per set. A plan
// whose step stream has no packed form (planner.ErrNotPackable) falls
// back to the per-set planned path. Results are bit-for-bit identical
// either way.
func (s *Sorter) SortBatch(keySets [][]uint64, workers int) ([][]uint64, [][]int, error) {
	if len(keySets) == 0 {
		return nil, nil, nil
	}
	for i, keys := range keySets {
		if len(keys) != s.n {
			return nil, nil, fmt.Errorf("wordsort: key set %d has %d keys for width-%d sorter",
				i, len(keys), s.n)
		}
	}
	r := &batchSets{s: s, keySets: keySets}
	r.outs = planner.Rows[uint64](len(keySets), s.n)
	r.perms = planner.Rows[int](len(keySets), s.n)
	b := planner.Batch{Workers: workers, Grain: sortBatchGrain, Noun: "wordsort: batch set"}
	if err := b.Run(len(keySets), r); err != nil {
		return nil, nil, err
	}
	return r.outs, r.perms, nil
}

// batchSets is one batch of key sets handed to the planner's batch
// driver.
type batchSets struct {
	s       *Sorter
	prog    *planner.Program // flat route plan program, set by Packed
	keySets [][]uint64
	outs    [][]uint64
	perms   [][]int
}

func (r *batchSets) One(i int) error { return r.s.SortInto(r.outs[i], r.perms[i], r.keySets[i]) }

func (r *batchSets) Group(lo, hi int) (int, error) {
	pp, err := r.prog.Packed()
	if err != nil {
		return lo, err // unreachable: the driver probed the program
	}
	r.s.sortGroupWide(pp, r.outs[lo:hi], r.perms[lo:hi], r.keySets[lo:hi])
	return 0, nil
}

func (r *batchSets) Packed() (*planner.Program, error) {
	// Huge networks never pack whole-n key sets: that would compile the
	// flat fused program sharding exists to avoid, and each sharded
	// SortInto already replays packed shard lanes internally.
	if r.s.sharded != nil || r.s.n < 2 {
		return nil, nil
	}
	r.prog = r.s.permute.Compile().Program()
	return r.prog, nil
}

// sortGroupWide sorts one lane group of key sets entirely inside the
// packed engine. The composed permutation of the passes so far rides the
// engine's index planes from start to finish:
//
//   - per pass b, the current key of position j in lane l is
//     keySets[l][perm_l[j]] — a scalar gather through the extracted
//     composed permutation — and its bit b becomes the lane's tag word;
//   - SplitFront bit-slices the stable-split rank of all lanes at once
//     (the ones-counting prefix ladder, 64 lanes per word operation) and
//     writes each position's destination into the front planes, leaving
//     the index planes untouched;
//   - one packed replay routes the destinations, composing the pass's
//     permutation onto the index planes (pass 0 starts from the
//     identity);
//   - Extract reads the composed permutation back for the next pass's
//     gather.
//
// After the last pass the index planes are the full receives-from
// permutation and the keys gather once. One tag buffer per group is the
// only allocation, so batch allocations do not scale with the key width.
func (s *Sorter) sortGroupWide(pp *planner.Packed, outs [][]uint64, perms [][]int, keySets [][]uint64) {
	n := s.n
	tags := make([]uint64, n)
	sc := pp.Get()
	pp.LoadIndexPlanes(sc.Val)
	for _, pm := range perms {
		for j := range pm {
			pm[j] = j
		}
	}
	for b := 0; b < s.w; b++ {
		for i := range tags {
			tags[i] = 0
		}
		for l, keys := range keySets {
			for j, src := range perms[l] {
				tags[j] |= (keys[src] >> uint(b) & 1) << uint(l)
			}
		}
		pp.SplitFront(sc, tags)
		pp.Run(sc)
		pp.Extract(perms, sc.Val)
	}
	pp.Put(sc)
	for l, keys := range keySets {
		o := outs[l]
		for j, src := range perms[l] {
			o[j] = keys[src]
		}
	}
}

// SortBy sorts arbitrary records by a uint64 key, stably, routing through
// the sorter's network. It returns the reordered records.
func SortBy[T any](s *Sorter, items []T, key func(T) uint64) ([]T, error) {
	if len(items) != s.n {
		return nil, fmt.Errorf("wordsort: %d items for width-%d sorter", len(items), s.n)
	}
	keys := make([]uint64, len(items))
	for i, it := range items {
		keys[i] = key(it)
	}
	_, perm, err := s.Sort(keys)
	if err != nil {
		return nil, err
	}
	out := make([]T, len(items))
	for j, i := range perm {
		out[j] = items[i]
	}
	return out, nil
}

// CostModel returns the bit-level switching cost of the word sorter:
// w passes × (ranking ladder + permutation network). The ranking ladder is
// a parallel-prefix ones counter per pass, O(n) gates; the permuter cost
// comes from analysis of the chosen engine, so with the fish engine the
// total is w·O(n lg n).
func (s *Sorter) CostModel(permCost int) int {
	rank := 10 * s.n // prefix ones-counting ladder, linear with constant ≈10
	return s.w * (rank + permCost)
}
