// The network zoo: comparator networks registered as routing engines.
// Registration happens at package init, and internal/concentrator
// imports this package, so every layer that resolves engines through
// the planner registry — concentrator plans, the radix permuter, the
// word sorter, serve's recompile-around rotation, the front door, the
// absort facade, permroute's -engine flag — sees the zoo without
// knowing it exists. Each entry lowers through the generic
// Network→IR path (LowerTo), so all of them ride the scalar, packed,
// wide, batch, fault-injection, and serving machinery for free.
package cmpnet

import (
	"absort/internal/core"
	"absort/internal/planner"
)

// Zoo engines, registered in init order after the paper's four.
var (
	// EngineOEM sorts with Batcher's odd-even merge network (Fig. 4(a)).
	EngineOEM planner.Engine
	// EngineBitonic sorts with Batcher's bitonic network.
	EngineBitonic planner.Engine
	// EngineBalanced sorts with the Fig. 4(b) alternative odd-even merge
	// (shuffle wirings + balanced merging blocks) — its lowering
	// exercises the wiring-flattening OpPermute path.
	EngineBalanced planner.Engine
	// EnginePeriodic sorts with the periodic balanced network [8]: lg n
	// balanced merging blocks in cascade, each lowered straight to its
	// lg n comparator stages (see periodicSort).
	EnginePeriodic planner.Engine
	// EngineFishGvV is the paper's fish sorter with the Green/van
	// Voorhis 60-comparator kernel replacing the mux-merger at 16-wide
	// recursion base cases.
	EngineFishGvV planner.Engine
	// EngineGvV16 is the bare 16-input Green/van Voorhis kernel as a
	// width-locked engine (MinN = MaxN = 16).
	EngineGvV16 planner.Engine
)

func lowerNetwork(build func(n int) *Network) func(b *planner.Builder, lo, hi int32, k int) {
	return func(b *planner.Builder, lo, hi int32, _ int) {
		if hi-lo == 1 {
			return
		}
		build(int(hi-lo)).LowerTo(b, lo)
	}
}

// periodicSort lowers PeriodicBalancedSort(hi−lo) over [lo, hi) without
// building the Network: each of the lg s balanced merging blocks is
// lg s stage ops, the stage of block size bs ends-swapping every
// bs-block of the window — (lg s)² steps where the generic LowerTo path
// emits (s/2)·(lg s)² comparators for Compile to fold back.
func periodicSort(b *planner.Builder, lo, hi int32, _ int) {
	s := hi - lo
	for range core.Lg(int(s)) {
		for bs := s; bs >= 2; bs /= 2 {
			b.EndsStage(lo, hi, bs)
		}
	}
}

// gvvBase lowers the fish-gvv16 engine's base sorter: the GvV kernel at
// exactly 16 lines, the mux-merger below it, and a merge-sort recursion
// down to 16-wide leaves above it.
func gvvBase(b *planner.Builder, lo, hi int32) {
	s := hi - lo
	switch {
	case s < 16:
		b.MMSort(lo, hi)
	case s == 16:
		GreenVanVoorhis16().LowerTo(b, lo)
	default:
		gvvBase(b, lo, lo+s/2)
		gvvBase(b, lo+s/2, hi)
		b.MMMerge(lo, hi)
	}
}

func init() {
	EngineOEM = planner.MustRegister(planner.EngineSpec{
		Name: "oem",
		Sort: lowerNetwork(OddEvenMergeSort),
	})
	EngineBitonic = planner.MustRegister(planner.EngineSpec{
		Name: "bitonic",
		Sort: lowerNetwork(BitonicSort),
	})
	EngineBalanced = planner.MustRegister(planner.EngineSpec{
		Name: "balanced",
		Sort: lowerNetwork(AlternativeOEMSort),
	})
	EnginePeriodic = planner.MustRegister(planner.EngineSpec{
		Name: "periodic",
		Sort: periodicSort,
	})
	EngineFishGvV = planner.MustRegister(planner.EngineSpec{
		Name: "fish-gvv16",
		Sort: func(b *planner.Builder, lo, hi int32, k int) {
			s := hi - lo
			if s == 1 {
				return
			}
			if s == 2 {
				b.MMSort(lo, hi)
				return
			}
			if k <= 0 {
				k = planner.DefaultFishK(int(s))
			}
			b.FishSortBase(lo, hi, int32(k), gvvBase)
		},
		CheckK: planner.CheckFishK,
	})
	EngineGvV16 = planner.MustRegister(planner.EngineSpec{
		Name: "gvv16",
		Sort: func(b *planner.Builder, lo, hi int32, _ int) {
			GreenVanVoorhis16().LowerTo(b, lo)
		},
		MinN: 16,
		MaxN: 16,
	})
}
