// Package absort is the public API of this reproduction of
// M. V. Chien and A. Y. Oruç, "Adaptive Binary Sorting Schemes and
// Associated Interconnection Networks" (ICPP 1992 / IEEE TPDS 5(6), 1994).
//
// It exposes the paper's three adaptive binary sorting networks and the
// interconnection networks derived from them:
//
//   - NewPrefixSorter — Network 1 (Fig. 5): O(n lg n) cost, O(lg² n) depth,
//     steered by a prefix adder.
//   - NewMuxMergerSorter — Network 2 (Fig. 6 / Table I): O(n lg n) cost,
//     O(lg² n) depth, adder-free.
//   - NewFishSorter — Network 3 (Fig. 7): time-multiplexed, O(n) cost,
//     O(lg³ n) sorting time unpipelined or O(lg² n) pipelined.
//   - NewConcentrator — (n,m)-concentrators over any of the sorters
//     (Section IV).
//   - NewRadixPermuter — the Fig. 10 permutation network: O(n lg n)
//     bit-level cost with fish distribution stages.
//
// Combinational sorters additionally expose exact gate-level netlists via
// their Circuit methods (see internal/netlist for the cost/depth
// accounting conventions), and the fish sorter exposes its cost
// itemization and sorting-time model.
//
// All sequence lengths must be powers of two, matching the paper's
// "power of 2 inputs" assumption.
package absort

import (
	"fmt"

	"absort/internal/bitvec"
	"absort/internal/cmpnet"
	"absort/internal/concentrator"
	"absort/internal/core"
	"absort/internal/fishhw"
	"absort/internal/permnet"
	"absort/internal/planner"
	"absort/internal/prefixadd"
	"absort/internal/wordsort"
)

// Bit is a binary element (0 or 1).
type Bit = bitvec.Bit

// Vector is a binary sequence.
type Vector = bitvec.Vector

// ParseBits parses a vector from a string of '0'/'1' characters; '/', '_'
// and spaces are ignored, so "1111/0001" parses directly.
func ParseBits(s string) (Vector, error) { return bitvec.FromString(s) }

// Sorter is an n-input adaptive binary sorting network.
type Sorter = core.BinarySorter

// PrefixSorter is the paper's Network 1; see core.PrefixSorter.
type PrefixSorter = core.PrefixSorter

// MuxMergerSorter is the paper's Network 2; see core.MuxMergerSorter.
type MuxMergerSorter = core.MuxMergerSorter

// FishSorter is the paper's Network 3; see core.FishSorter.
type FishSorter = core.FishSorter

// NewPrefixSorter returns an n-input prefix binary sorter (Network 1)
// using the parallel-prefix ones counter. n must be a power of two.
func NewPrefixSorter(n int) *PrefixSorter {
	return core.NewPrefixSorter(n, prefixadd.Prefix)
}

// NewMuxMergerSorter returns an n-input mux-merger binary sorter
// (Network 2). n must be a power of two.
func NewMuxMergerSorter(n int) *MuxMergerSorter {
	return core.NewMuxMergerSorter(n)
}

// NewFishSorter returns an n-input time-multiplexed fish sorter
// (Network 3) with k groups. Use k = Lg(n) for the paper's O(n)-cost
// configuration. n and k must be powers of two with 2 ≤ k ≤ n.
func NewFishSorter(n, k int) *FishSorter {
	return core.NewFishSorter(n, k)
}

// Lg returns lg n for powers of two.
func Lg(n int) int { return core.Lg(n) }

// FishK returns the fish-sorter group count realizing the paper's
// k = lg n choice under the model's power-of-two requirement: the largest
// power of two ≤ max(2, lg n), capped at n.
func FishK(n int) int { return planner.DefaultFishK(n) }

// Engine selects the sorting network that routes a concentrator or
// permuter. Engines live in an open registry (internal/planner): the
// paper's four below, the comparator-network zoo of internal/cmpnet
// (Batcher's odd-even merge and bitonic sorters, the balanced and
// constant-periodic networks, the Green/van Voorhis 16-input kernel and
// the fish sorter built on it), and any network registered at runtime
// through RegisterEdgeListEngine.
type Engine = concentrator.Engine

// Routing engines.
const (
	// EngineMuxMerger routes through Network 2 (circuit-switched).
	EngineMuxMerger = concentrator.MuxMerger
	// EnginePrefix routes through Network 1 (circuit-switched).
	EnginePrefix = concentrator.PrefixAdder
	// EngineFish routes through Network 3 (packet-switched, O(n) cost).
	EngineFish = concentrator.Fish
	// EngineRanking is the stable ranking-tree baseline of [11], [13].
	EngineRanking = concentrator.Ranking
)

// EngineByName resolves a registered engine by its registry name
// ("fish", "oem", "periodic", …); EngineNames lists them all.
func EngineByName(name string) (Engine, bool) { return planner.EngineByName(name) }

// EngineNames returns every registered engine name, sorted.
func EngineNames() []string { return planner.EngineNames() }

// RegisterEdgeListEngine registers a comparator network given purely as
// an edge list — network(n) returns the comparator pairs for width n, in
// sequence order — as a routing engine under the given name. The network
// is lowered through the generic comparator-network→IR path
// (internal/cmpnet), with comparators stage-parallelized by earliest
// fit, so the new engine immediately rides the entire compiled stack:
// scalar and 64-lane packed replay, batch pipelines, stuck-at
// fault injection, the serving layer's recompile-around rotation, and
// the bench matrix. minN and maxN bound the widths the engine accepts
// (0 = unbounded); a width-locked kernel sets both to its size. The
// returned Engine value is accepted everywhere an Engine is.
func RegisterEdgeListEngine(name string, minN, maxN int, network func(n int) [][2]int) (Engine, error) {
	if network == nil {
		return 0, fmt.Errorf("absort: RegisterEdgeListEngine %q: nil network", name)
	}
	return planner.Register(planner.EngineSpec{
		Name: name,
		Sort: func(b *planner.Builder, lo, hi int32, _ int) {
			n := int(hi - lo)
			if n == 1 {
				return
			}
			nw, err := cmpnet.FromComparators(n, name, network(n))
			if err != nil {
				panic(fmt.Sprintf("absort: edge-list engine %q: %v", name, err))
			}
			nw.LowerTo(b, lo)
		},
		MinN: minN,
		MaxN: maxN,
	})
}

// Concentrator is an (n,m)-concentrator; see Section IV.
type Concentrator = concentrator.Concentrator

// NewConcentrator returns an (n,m)-concentrator over the given engine.
// k is the fish group count (ignored by other engines).
func NewConcentrator(n, m int, engine Engine, k int) *Concentrator {
	return concentrator.New(n, m, engine, k)
}

// RadixPermuter is the Fig. 10 permutation network.
type RadixPermuter = permnet.RadixPermuter

// NewRadixPermuter returns an n-input radix permuter whose distribution
// stages use the given engine (EngineFish gives the O(n lg n) bit-level
// cost configuration of Section IV).
func NewRadixPermuter(n int, engine Engine) *RadixPermuter {
	return permnet.NewRadixPermuter(n, engine, 0)
}

// RouteBenes computes Beneš switch settings realizing dest via the looping
// algorithm (the Table II baseline); see permnet.RouteBenes.
func RouteBenes(dest []int) (*permnet.BenesConfig, int, error) {
	return permnet.RouteBenes(dest)
}

// Permute routes values through a configured Beneš network.
func Permute[T any](cfg *permnet.BenesConfig, in []T) []T {
	return permnet.ApplyBenes(cfg, in)
}

// WordSorter sorts w-bit keys as a sequence of binary sorting steps routed
// through the radix permutation network (the Section I decomposition);
// see internal/wordsort.
type WordSorter = wordsort.Sorter

// NewWordSorter returns a stable word sorter for n records with w-bit
// keys, routing every radix pass through a radix permuter over the given
// engine.
func NewWordSorter(n, w int, engine Engine) (*WordSorter, error) {
	return wordsort.New(n, w, engine)
}

// SortRecordsBy stably sorts records by a uint64 key through a WordSorter.
func SortRecordsBy[T any](s *WordSorter, items []T, key func(T) uint64) ([]T, error) {
	return wordsort.SortBy(s, items, key)
}

// FishMachine is the clocked gate-level realization of Network Model B:
// every data movement of the fish sorter evaluated through real netlists;
// see internal/fishhw.
type FishMachine = fishhw.Machine

// NewFishMachine constructs the clocked fish-sorter datapath for n inputs
// and k groups (2 ≤ k ≤ n/2, powers of two).
func NewFishMachine(n, k int) (*FishMachine, error) { return fishhw.New(n, k) }
