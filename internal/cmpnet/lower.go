// Generic comparator-network → planner-IR lowering: any Network — even
// one handed in as a bare edge list — compiles to the same replayable
// step programs the paper's adaptive engines lower to, and from there
// rides every execution path the repository has built on the IR: scalar
// replay, the 64-lane packed SWAR engine, batch pipelines, stuck-at
// fault injection, and the serving layer.
//
// The lowering first folds the network's interleaved wiring connections
// away (comparators are rewritten into the physical positions their
// lines currently occupy; the residual output permutation becomes one
// trailing OpPermute), then re-packs the flattened comparator list into
// maximal parallel stages by earliest-fit — a comparator lands in the
// first stage after the last one touching either of its lines — which
// preserves the relative order of every conflicting pair and therefore
// the network's function.
package cmpnet

import (
	"fmt"

	"absort/internal/planner"
	"absort/internal/wiring"
)

// flatten folds every wiring connection into the comparator list: the
// returned comparators act on physical positions, in an order
// functionally equivalent to the network, and final is the residual
// receives-from output permutation (nil when it is the identity).
func (nw *Network) flatten() (cmps []Comparator, final wiring.Perm) {
	// phys[j] = the physical position currently holding the value network
	// position j sees: comparator stages act through it, wirings update it
	// instead of moving data.
	phys := wiring.Identity(nw.n)
	for _, o := range nw.ops {
		if o.wire != nil {
			phys = wiring.Compose(phys, o.wire)
			continue
		}
		for _, c := range o.cmps {
			cmps = append(cmps, Comparator{I: phys[c.I], J: phys[c.J]})
		}
	}
	for j, src := range phys {
		if j != src {
			return cmps, phys
		}
	}
	return cmps, nil
}

// parallelizeCmps packs a flat comparator list into maximal parallel
// stages by earliest fit: each comparator joins the first stage after
// the last stage touching either of its lines, preserving the relative
// order of conflicting comparators.
func parallelizeCmps(n int, cmps []Comparator) [][]Comparator {
	last := make([]int, n) // last[l] = 1 + index of the last stage touching l
	var stages [][]Comparator
	for _, c := range cmps {
		s := max(last[c.I], last[c.J])
		if s == len(stages) {
			stages = append(stages, nil)
		}
		stages[s] = append(stages[s], c)
		last[c.I], last[c.J] = s+1, s+1
	}
	return stages
}

// LowerTo emits the network as planner-IR steps over the window
// [lo, lo+n): one OpCmpPair per comparator in stage-parallel order, and
// one trailing OpPermute when the network's wirings leave a residual
// output permutation. The builder's ambient tag layout applies — the
// comparators order by whatever tag bit the surrounding program has
// selected — so a network lowers as one window of a larger engine
// lowering.
func (nw *Network) LowerTo(b *planner.Builder, lo int32) {
	cmps, final := nw.flatten()
	for _, stage := range parallelizeCmps(nw.n, cmps) {
		for _, c := range stage {
			b.CmpPair(lo+int32(c.I), lo+int32(c.J))
		}
	}
	if final != nil {
		perm := make([]int32, nw.n)
		for j, src := range final {
			perm[j] = int32(src)
		}
		b.Permute(lo, lo+int32(nw.n), perm)
	}
}

// FromComparators builds a single-comparator-per-op network from a bare
// edge list — the minimal engine definition — returning the typed
// *LineError (instead of panicking) on an invalid pair, since edge
// lists typically arrive as data rather than code. Stage structure is
// recovered at lowering time by the earliest-fit parallelizer.
func FromComparators(n int, name string, pairs [][2]int) (nw *Network, err error) {
	if n <= 0 {
		return nil, fmt.Errorf("cmpnet: FromComparators(%d, %q): need n > 0", n, name)
	}
	defer func() {
		if r := recover(); r != nil {
			le, ok := r.(*LineError)
			if !ok {
				panic(r)
			}
			nw, err = nil, le
		}
	}()
	nw = New(n, name)
	for _, pr := range pairs {
		nw.AddStage(Comparator{I: pr[0], J: pr[1]})
	}
	return nw, nil
}
