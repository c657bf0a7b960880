package permnet

import (
	"fmt"

	"absort/internal/cmpnet"
	"absort/internal/concentrator"
	"absort/internal/core"
	"absort/internal/planner"
)

// RadixPermuter is the permutation network of Fig. 10: at each level, a
// binary sorter distributes the inputs to the upper and lower half-size
// permuters by sorting the leading bits of the destination addresses, and
// the construction recurses. Replacing the distributor and concentrators
// of the radix permuter of [11] with the paper's binary sorters yields
// O(n lg n) bit-level cost with the fish sorter (packet-switched) or
// O(n lg² n) with the mux-merger sorter (circuit-switched), both with
// O(lg³ n) bit-level permutation time (equations (26)–(27)).
type RadixPermuter struct {
	n      int
	engine concentrator.Engine
	k      int          // fish group count at the top level
	plan   routePlanPtr // lazily compiled route plan (see plan.go)
}

// NewRadixPermuter returns an n-input radix permuter whose distribution
// stages use the given sorting engine. For the Fish engine, k is the
// top-level group count; deeper levels scale k down as lg of the level
// size. n must be a power of two.
func NewRadixPermuter(n int, engine concentrator.Engine, k int) *RadixPermuter {
	if !core.IsPow2(n) {
		panic(fmt.Sprintf("permnet: NewRadixPermuter(%d)", n))
	}
	return &RadixPermuter{n: n, engine: engine, k: k}
}

// N returns the network width.
func (r *RadixPermuter) N() int { return r.n }

// Engine returns the distribution engine.
func (r *RadixPermuter) Engine() concentrator.Engine { return r.engine }

// Plan is a compiled route plan of a radix permuter, flat or sharded:
// the one surface its callers route through. Both *RoutePlan and
// *ShardedRoutePlan satisfy it, with bit-identical results.
type Plan interface {
	// N returns the network width.
	N() int
	// Shards returns the shard count of a sharded plan — the lanes of a
	// packed replay one request spans — and 0 for a flat plan.
	Shards() int
	Route(dest []int) ([]int, error)
	RouteInto(out, dest []int) error
	RoutePacked(out, dests [][]int) error
	RouteBatch(dests [][]int, workers int) ([][]int, error)
}

// Plan returns the permuter's route plan, the one place the flat-or-
// sharded choice is made: the flat fused program (Compile) below
// ShardedAutoThreshold, the DefaultShards sharded plan at or above it,
// so a huge permuter never compiles the flat program. An engine that
// cannot route every level width 2..n (a width-locked kernel) is an
// error, not a panic in the lowering.
func (r *RadixPermuter) Plan() (Plan, error) {
	if err := CheckLevelWidths(r.engine, r.n); err != nil {
		return nil, fmt.Errorf("permnet: %w", err)
	}
	if r.n < ShardedAutoThreshold {
		return r.Compile(), nil
	}
	sp, err := r.Sharded(0)
	if err != nil {
		return nil, err
	}
	return sp, nil
}

// Route computes the permutation realized by the network for the
// assignment "input i goes to output dest[i]": it returns p with
// out[j] = in[p[j]], so p is the inverse assignment. The routing is
// self-routing: every switching decision is derived from destination
// address bits flowing with the packets. Route replays the plan that
// Plan chooses.
func (r *RadixPermuter) Route(dest []int) ([]int, error) {
	p, err := r.Plan()
	if err != nil {
		return nil, err
	}
	return p.Route(dest)
}

// CheckLevelWidths reports an error unless engine can route every level
// width 2..n of an n-input radix permuter — the precondition of lowering
// its fused program (Compile) or a sharded plan over n-input shards, and
// so of every layer built on the permuter; they validate a shape with it
// before compiling anything. A permuter narrower than 2 has no levels.
// Registered widths are intervals, so the two ends decide it.
func CheckLevelWidths(engine concentrator.Engine, n int) error {
	if n >= 2 && (!planner.CanRoute(engine, n) || !planner.CanRoute(engine, 2)) {
		return fmt.Errorf("engine %v cannot route the level widths 2..%d of a %d-input permuter",
			engine, n, n)
	}
	return nil
}

// RouteBatcher routes a permutation by sorting destination addresses
// word-level through Batcher's odd-even merge sorting network — the
// O(n lg³ n) bit-level cost baseline of Table II. It returns p with
// out[j] = in[p[j]].
func RouteBatcher(dest []int) ([]int, error) {
	n := len(dest)
	if !core.IsPow2(n) {
		return nil, fmt.Errorf("permnet: Batcher width %d not a power of two", n)
	}
	if err := checkPerm(dest); err != nil {
		return nil, err
	}
	type pkt struct{ d, idx int }
	in := make([]pkt, n)
	for i, d := range dest {
		in[i] = pkt{d: d, idx: i}
	}
	nw := cmpnet.OddEvenMergeSort(n)
	out := cmpnet.Apply(nw, in, func(a, b pkt) bool { return a.d < b.d })
	p := make([]int, n)
	for j, x := range out {
		p[j] = x.idx
	}
	return p, nil
}

// VerifyRouting checks that permutation p (out[j] = in[p[j]]) realizes the
// assignment dest: for every input i, out[dest[i]] == in[i].
func VerifyRouting(dest, p []int) bool {
	if len(dest) != len(p) {
		return false
	}
	for j, i := range p {
		if dest[i] != j {
			return false
		}
	}
	return true
}
