// Package analysis collects the paper's closed-form complexity expressions
// (equations (1)–(27)), evaluates the comparison rows of Table II, and
// models the AKS crossover argument from the abstract. Measured values for
// the constructions built in this module come from the actual netlists;
// rows for networks the paper cites but does not construct (Beneš routing
// processors, the Jan–Oruç radix permuter, AKS) are evaluated analytically
// with the constants the respective papers report.
package analysis

import (
	"math"

	"absort/internal/core"
	"absort/internal/planner"
)

// Lg returns lg n as a float for arbitrary positive n.
func Lg(n int) float64 { return math.Log2(float64(n)) }

// LgInt returns ceil-free lg n for powers of two.
func LgInt(n int) int { return core.Lg(n) }

// PrefixSorterCostFormula returns the paper's Network 1 cost expression,
// 3n lg n + O(lg² n) — the leading term only.
func PrefixSorterCostFormula(n int) float64 {
	return 3 * float64(n) * Lg(n)
}

// PrefixSorterDepthFormula returns 3 lg² n + 2 lg n lg lg n, Network 1's
// stated depth.
func PrefixSorterDepthFormula(n int) float64 {
	lg := Lg(n)
	return 3*lg*lg + 2*lg*math.Log2(lg)
}

// MuxMergerCostFormula returns 4n lg n, Network 2's stated cost.
func MuxMergerCostFormula(n int) float64 { return 4 * float64(n) * Lg(n) }

// MuxMergerDepthFormula returns lg² n, the solution of the Section III-B
// depth recurrence D(n) = D(n/2) + 2 lg n − 1 with D(2) = 1 (the text's
// "2 lg n" line is a typo; the abstract says O(lg² n)).
func MuxMergerDepthFormula(n int) float64 {
	lg := Lg(n)
	return lg * lg
}

// FishCostFormula returns equation (19): C(n, lg n) ≤ 17n +
// 5 lg² n lg lg n + 4 lg n lg lg n.
func FishCostFormula(n int) float64 {
	lg := Lg(n)
	lglg := math.Log2(lg)
	return 17*float64(n) + 5*lg*lg*lglg + 4*lg*lglg
}

// FishDepthFormula returns equation (20)/(21): D(n, lg n) ≤ 2 lg n +
// 2 lg²(n/lg n) + lg n + 2 lg² lg n = O(lg² n); we return the simplified
// dominant form 2 lg² n + 3 lg n.
func FishDepthFormula(n int) float64 {
	lg := Lg(n)
	return 2*lg*lg + 3*lg
}

// FishTimeUnpipelinedFormula returns equation (24): T(n, lg n) = O(lg³ n);
// dominant form lg³ n.
func FishTimeUnpipelinedFormula(n int) float64 {
	lg := Lg(n)
	return lg * lg * lg
}

// FishTimePipelinedFormula returns equation (26): T_pip(n, lg n) =
// O(lg² n); dominant form 2 lg² n.
func FishTimePipelinedFormula(n int) float64 {
	lg := Lg(n)
	return 2 * lg * lg
}

// RadixPermuterKind selects the distribution sorter for the Fig. 10 cost
// model.
type RadixPermuterKind int

// Radix permuter variants the paper derives in Section IV.
const (
	// RadixFish: fish binary sorters — O(n lg n) cost, packet-switched.
	RadixFish RadixPermuterKind = iota
	// RadixMuxMerger: mux-merger sorters — O(n lg² n) cost,
	// circuit-switched, "much simpler design".
	RadixMuxMerger
)

// KForSize returns the fish group count used at a distribution level of
// size s: the largest power of two ≤ max(2, lg s), capped at s.
func KForSize(s int) int { return planner.DefaultFishK(s) }

// fishSorterCost returns the exact fish-sorter switching cost at size s
// with the KForSize group count (s ≥ 4); for s = 2 a single comparator.
func fishSorterCost(s int) int {
	if s <= 2 {
		return 1
	}
	f := core.NewFishSorter(s, KForSize(s))
	return f.Cost().Total()
}

// fishSorterTime returns the pipelined fish sorting time at size s: the
// radix permuter built on fish sorters is packet-switched (Section IV), so
// each distribution stage runs with its groups pipelined — O(lg² s) per
// level, giving the O(lg³ n) total of equation (27).
func fishSorterTime(s int) int {
	if s <= 2 {
		return 1
	}
	f := core.NewFishSorter(s, KForSize(s))
	return f.SortingTime(true).Total()
}

// RadixPermuterCost returns the exact unit cost of the Fig. 10 permuter at
// width n: equation (26)'s recurrence Crp(n) = Csorter(n) + 2 Crp(n/2)
// summed explicitly over levels.
func RadixPermuterCost(n int, kind RadixPermuterKind) int {
	total := 0
	for s, mult := n, 1; s >= 2; s, mult = s/2, mult*2 {
		var c int
		switch kind {
		case RadixFish:
			c = fishSorterCost(s)
		case RadixMuxMerger:
			c = core.MuxMergerSortCost(s)
		}
		total += mult * c
	}
	return total
}

// RadixPermuterTime returns the permutation time of the Fig. 10 permuter:
// the levels run sequentially, so it is the sum of per-level sorter times
// (equation (27): O(lg² n) per level × lg n levels = O(lg³ n)).
func RadixPermuterTime(n int, kind RadixPermuterKind) int {
	total := 0
	for s := n; s >= 2; s /= 2 {
		switch kind {
		case RadixFish:
			total += fishSorterTime(s)
		case RadixMuxMerger:
			total += core.MuxMergerSortDepth(s)
		}
	}
	return total
}

// Table2Row is one comparison row of Table II, evaluated at a width n.
type Table2Row struct {
	Construction string
	// CostExpr, DepthExpr, TimeExpr are the asymptotic expressions as the
	// table prints them.
	CostExpr, DepthExpr, TimeExpr string
	// Cost, Depth, Time are representative numeric evaluations at n
	// (measured for the constructions we build, analytic otherwise).
	Cost, Depth, Time float64
	// Measured marks rows whose numbers come from constructed networks.
	Measured bool
}

// Table2 evaluates all rows of Table II at width n (a power of two).
func Table2(n int) []Table2Row {
	lg := Lg(n)
	lglg := math.Log2(lg)
	rows := []Table2Row{
		{
			Construction: "Beneš network [4] + parallel looping [18]",
			CostExpr:     "O(n lg² n)", DepthExpr: "O(lg n)", TimeExpr: "O(lg⁴ n / lg lg n)",
			Cost:  float64(n) * lg * lg,
			Depth: 2*lg - 1,
			Time:  lg * lg * lg * lg / lglg,
		},
		{
			Construction: "Batcher sorting network [3]",
			CostExpr:     "O(n lg³ n)", DepthExpr: "O(lg³ n)", TimeExpr: "O(lg³ n)",
			Cost:  float64(n) / 4 * lg * (lg + 1) * lg, // word comparators × lg n bit cost
			Depth: lg * (lg + 1) / 2 * lg,
			Time:  lg * (lg + 1) / 2 * lg,
		},
		{
			Construction: "Self-routing permuter (Koppelman–Oruç [13])",
			CostExpr:     "O(n lg³ n)", DepthExpr: "O(lg³ n)", TimeExpr: "O(lg³ n)",
			Cost:  float64(n) * lg * lg * lg,
			Depth: lg * lg * lg,
			Time:  lg * lg * lg,
		},
		{
			Construction: "Radix permuter (Jan–Oruç [11])",
			CostExpr:     "O(n lg² n)", DepthExpr: "O(lg² n)", TimeExpr: "O(lg² n lg lg n)",
			Cost:  float64(n) * lg * lg,
			Depth: lg * lg,
			Time:  lg * lg * lglg,
		},
		{
			Construction: "This paper: radix permuter + mux-merger sorters",
			CostExpr:     "O(n lg² n)", DepthExpr: "O(lg³ n)", TimeExpr: "O(lg³ n)",
			Cost:     float64(RadixPermuterCost(n, RadixMuxMerger)),
			Depth:    float64(RadixPermuterTime(n, RadixMuxMerger)),
			Time:     float64(RadixPermuterTime(n, RadixMuxMerger)),
			Measured: true,
		},
		{
			Construction: "This paper: radix permuter + fish sorters",
			CostExpr:     "O(n lg n)", DepthExpr: "O(lg³ n)", TimeExpr: "O(lg³ n)",
			Cost:     float64(RadixPermuterCost(n, RadixFish)),
			Depth:    float64(RadixPermuterTime(n, RadixFish)),
			Time:     float64(RadixPermuterTime(n, RadixFish)),
			Measured: true,
		},
	}
	return rows
}

// AKSModel captures the crossover comparison from the abstract: the AKS
// network's complexities hide constants so large that the paper's networks
// win until n is extreme. Paterson's simplified AKS variant [20] has depth
// about c·lg n with c ≈ 6100; earlier published constants are far larger.
type AKSModel struct {
	// DepthConstant is the per-lg-n depth factor (Paterson's ≈ 6100).
	DepthConstant float64
	// CostConstant multiplies n lg n (comparators ≈ DepthConstant·n/2
	// per level aggregated: ~3050 n lg n).
	CostConstant float64
}

// DefaultAKS returns the Paterson-constant model.
func DefaultAKS() AKSModel { return AKSModel{DepthConstant: 6100, CostConstant: 3050} }

// CrossoverDepthLg returns the lg n beyond which AKS depth (c·lg n) beats
// the mux-merger sorter's lg² n: lg n > c.
func (m AKSModel) CrossoverDepthLg() float64 { return m.DepthConstant }

// CrossoverCostLgFish returns the lg n beyond which AKS cost (c·n lg n)
// beats the fish sorter's ≈17n: never for cost (17n < c·n lg n for all
// n ≥ 2 when c ≥ 9), so this reports the factor by which AKS is more
// expensive at width n.
func (m AKSModel) CostFactorAt(n int) float64 {
	return m.CostConstant * float64(n) * Lg(n) / FishCostFormula(n)
}
