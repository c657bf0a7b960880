// Radix-permuter route plans: the Fig. 10 network's level structure is
// fixed by (n, engine, k), so the whole network — every window of every
// distribution level — is lowered once into ONE flat program on the
// shared routing-plan IR of internal/planner and replayed allocation-free
// for every routed permutation.
//
// The lowering fuses the per-level tag/strip/rebase passes the previous
// per-level plans paid into nothing at all: at level d, a packet's
// routing tag is simply bit (lg n − 1 − d) of its ORIGINAL destination
// address (the window-local destination is dest mod s, and rebasing
// merely cleared the bit the level just consumed), so an OpSetTag
// meta-instruction retargets the runner's tag read between levels and no
// pass over the packet words happens outside the sorters themselves. The
// packed packet word carries the full destination address above
// localShift and the origin index below it; both ride unchanged through
// every switch.
//
// RouteBatch streams many independent permutations through one plan on
// the batch driver of internal/planner; batches one lane group or wider
// additionally switch to the 64-lane SWAR replay (see packed.go).
package permnet

import (
	"fmt"
	"sync"
	"sync/atomic"

	"absort/internal/concentrator"
	"absort/internal/core"
	"absort/internal/planner"
)

// RoutePlan is the compiled routing program of a RadixPermuter: the
// entire level structure lowered into one flat planner-IR program,
// shared process-wide through the bounded plan cache of
// internal/planner. It is immutable and safe for concurrent use; every
// route draws its working state from the program's scratch pool.
type RoutePlan struct {
	n       int
	nlevels int
	prog    *planner.Program
	vpool   sync.Pool // *validScratch
}

// Packed packet-word layout for plan execution: the packet index occupies
// the low 31 bits and the destination address the bits above localShift,
// so every data movement inside the fused program is a single-word move
// and no tagging, stripping, or rebasing pass runs between levels — the
// level-d routing tag is read in place at bit localShift + lg n − 1 − d.
const (
	localShift = 31
	idxMask    = uint64(1)<<localShift - 1
)

// validScratch is the pooled permutation-validation state of a RoutePlan.
type validScratch struct {
	seen  []int32 // permutation-validation stamps
	epoch int32   // current validation stamp
}

// Compile returns the permuter's route plan, lowering the fused program
// on first use and caching the result behind an atomic pointer
// (RadixPermuter is immutable, so the plan is shared safely). Plans are
// drawn from the process-wide bounded plan cache of internal/planner, so
// permuters over the same (n, engine, k) share one program.
//
// Compile requires an engine that can route every level width 2..n
// (planner.CanRoute at both ends) and panics otherwise; Plan and Sharded
// check that and return an error instead.
func (r *RadixPermuter) Compile() *RoutePlan {
	if p := r.plan.Load(); p != nil {
		return p
	}
	p := planFor(r.n, r.engine, r.k)
	if !r.plan.CompareAndSwap(nil, p) {
		return r.plan.Load()
	}
	return p
}

// planFor returns the shared fused route plan for (n, engine, k),
// lowering it on first use. Parameterless engines and the k ≤ 0
// "engine default" normalize k to 0 so equivalent requests share one
// entry. The backing store is the process-wide bounded LRU of
// internal/planner.
func planFor(n int, engine concentrator.Engine, k int) *RoutePlan {
	if spec, ok := planner.Lookup(engine); !ok || spec.CheckK == nil || k <= 0 {
		k = 0
	}
	key := planner.PlanKey{Kind: planner.KindPermuter, N: n, Engine: int8(engine), K: k}
	if p, ok := planner.Shared.Get(key); ok {
		return p.(*RoutePlan)
	}
	// Compile outside the cache lock: lowering large fused programs is
	// slow and must not serialize unrelated lookups. A concurrent
	// duplicate compilation is harmless — Add resolves the race
	// LoadOrStore-style.
	return planner.Shared.Add(key, newRoutePlan(n, engine, k)).(*RoutePlan)
}

// newRoutePlan lowers the whole n-input radix permuter over the given
// engine into one fused program: the registered Sort lowering runs over
// every window of every level, with the configured k applied only at the
// top level (deeper levels pass k = 0, which each parameterized engine
// resolves to its own per-level default — the fish family's paper
// k = lg s choice). Before each level below the top an OpSetTag
// retargets the tag read to the destination bit that level consumes —
// the only inter-level "work" in the program.
func newRoutePlan(n int, engine concentrator.Engine, k int) *RoutePlan {
	if !core.IsPow2(n) {
		panic(fmt.Sprintf("permnet: newRoutePlan(%d)", n))
	}
	spec, ok := planner.Lookup(engine)
	if !ok {
		panic(fmt.Sprintf("permnet: unknown engine %v", engine))
	}
	lgn := core.Lg(n)
	var b planner.Builder
	d := 0
	for s := n; s >= 2; s /= 2 {
		if !planner.CanRoute(engine, s) {
			panic(fmt.Sprintf("permnet: engine %v cannot route level width %d of a %d-input permuter",
				engine, s, n))
		}
		bit := lgn - 1 - d // destination bit this level consumes
		if d > 0 {
			b.SetTag(uint(localShift+bit), int32(bit))
		}
		for lo := 0; lo < n; lo += s {
			kk := 0
			if s == n {
				kk = k
			}
			spec.Sort(&b, int32(lo), int32(lo+s), kk)
		}
		d++
	}
	front := lgn
	if front < 1 {
		front = 1 // n = 1: empty program, single placeholder plane
	}
	prog := b.Compile(planner.Layout{
		N:           n,
		FrontPlanes: front,
		TagShift:    uint(localShift + lgn - 1),
		TagPlane:    lgn - 1,
	})
	p := &RoutePlan{n: n, nlevels: lgn, prog: prog}
	p.vpool.New = func() any {
		return &validScratch{seen: make([]int32, n)}
	}
	return p
}

// N returns the network width of the plan.
func (p *RoutePlan) N() int { return p.n }

// Shards returns 0: a flat plan routes each request on one lane.
func (p *RoutePlan) Shards() int { return 0 }

// NumLevels returns the number of distribution levels (lg n).
func (p *RoutePlan) NumLevels() int { return p.nlevels }

// NumSteps returns the length of the fused step program.
func (p *RoutePlan) NumSteps() int { return p.prog.NumSteps() }

// Program returns the underlying planner-IR program (shared, immutable).
func (p *RoutePlan) Program() *planner.Program { return p.prog }

// RouteInto computes, allocation-free, the permutation the network
// realizes for the assignment "input i goes to output dest[i]", writing
// it into out (out[j] = in[p[j]], exactly as Route).
func (p *RoutePlan) RouteInto(out []int, dest []int) error {
	if len(dest) != p.n {
		return fmt.Errorf("permnet: RouteInto with %d destinations, want %d",
			len(dest), p.n)
	}
	if len(out) != p.n {
		return fmt.Errorf("permnet: RouteInto into %d outputs, want %d",
			len(out), p.n)
	}
	if err := p.validate(dest); err != nil {
		return err
	}
	sc := p.prog.Get()
	for i, d := range dest {
		sc.Val[i] = uint64(d)<<localShift | uint64(i)
	}
	p.prog.RunScratch(sc)
	for j, v := range sc.Val {
		out[j] = int(v & idxMask)
	}
	p.prog.Put(sc)
	return nil
}

// Route is RouteInto with a freshly allocated result.
func (p *RoutePlan) Route(dest []int) ([]int, error) {
	out := make([]int, p.n)
	if err := p.RouteInto(out, dest); err != nil {
		return nil, err
	}
	return out, nil
}

// validate checks dest as a permutation without allocating, using the
// pooled epoch-stamped validation scratch.
func (p *RoutePlan) validate(dest []int) error {
	vs := p.vpool.Get().(*validScratch)
	ok := vs.checkPerm(dest)
	p.vpool.Put(vs)
	if !ok {
		return fmt.Errorf("permnet: %v is not a permutation", dest)
	}
	return nil
}

// checkPerm validates dest as a permutation against the scratch's
// epoch-stamped seen array.
func (vs *validScratch) checkPerm(dest []int) bool {
	vs.epoch++
	if vs.epoch == 0 { // wrapped: reset stamps
		for i := range vs.seen {
			vs.seen[i] = 0
		}
		vs.epoch = 1
	}
	for _, d := range dest {
		if d < 0 || d >= len(vs.seen) || vs.seen[d] == vs.epoch {
			return false
		}
		vs.seen[d] = vs.epoch
	}
	return true
}

// routePlanPtr is the lazily-populated compiled plan of a RadixPermuter.
// Declared as its own type so the zero RadixPermuter literal stays usable.
type routePlanPtr = atomic.Pointer[RoutePlan]
