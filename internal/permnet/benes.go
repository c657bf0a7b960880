// Package permnet implements the permutation networks of Section IV and
// Table II: the Beneš rearrangeable network with its looping routing
// algorithm [4], [18] (the classical baseline), a Batcher-sorter
// permutation router [3], and the paper's contribution — the radix
// permuter of Fig. 10, which distributes packets on their leading
// destination bit with an adaptive binary sorter and recurses on both
// halves.
//
// The radix permuter routes only through its compiled plans: the flat
// fused program (plan.go), its SWAR lane-packed replay (packed.go) and,
// at or above ShardedAutoThreshold, the sharded plan (sharded.go).
// RadixPermuter.Plan alone chooses between the flat and the sharded
// plan; every caller routes through the Plan it returns.
// Whichever binary sorter distributes the packets, the network realizes
// out[j] = in[dest⁻¹(j)], so tests check every route against the
// inverse assignment (VerifyRouting) rather than against a second
// router.
package permnet

import (
	"fmt"

	"absort/internal/core"
)

// BenesConfig holds the switch settings of an n-input Beneš network for
// one routed permutation.
type BenesConfig struct {
	n            int
	cross        bool         // n == 2: the single switch's state
	inSet        []bool       // n/2 input-stage switches: true = cross
	outSet       []bool       // n/2 output-stage switches: true = cross
	upper, lower *BenesConfig // the two n/2-input subnetworks
}

// N returns the network width.
func (c *BenesConfig) N() int { return c.n }

// NumSwitches returns the number of 2×2 switches in the configured
// network: (n/2)(2 lg n − 1).
func (c *BenesConfig) NumSwitches() int {
	if c.n == 2 {
		return 1
	}
	return c.n + c.upper.NumSwitches() + c.lower.NumSwitches()
}

// BenesCost returns the switch count of an n-input Beneš network,
// (n/2)(2 lg n − 1).
func BenesCost(n int) int { return n / 2 * (2*core.Lg(n) - 1) }

// BenesDepth returns the stage count 2 lg n − 1.
func BenesDepth(n int) int { return 2*core.Lg(n) - 1 }

// checkPerm validates that dest is a permutation of 0..n-1.
func checkPerm(dest []int) error {
	seen := make([]bool, len(dest))
	for _, d := range dest {
		if d < 0 || d >= len(dest) || seen[d] {
			return fmt.Errorf("permnet: %v is not a permutation", dest)
		}
		seen[d] = true
	}
	return nil
}

// RouteBenes computes Beneš switch settings realizing the assignment
// "input i goes to output dest[i]" using the looping algorithm. It also
// returns the number of looping steps taken (one step per input colored),
// the sequential routing-work measure.
func RouteBenes(dest []int) (*BenesConfig, int, error) {
	if !core.IsPow2(len(dest)) || len(dest) < 2 {
		return nil, 0, fmt.Errorf("permnet: Beneš width %d not a power of two ≥ 2", len(dest))
	}
	if err := checkPerm(dest); err != nil {
		return nil, 0, err
	}
	cfg, steps := routeBenes(dest)
	return cfg, steps, nil
}

func routeBenes(dest []int) (*BenesConfig, int) {
	n := len(dest)
	if n == 2 {
		return &BenesConfig{n: 2, cross: dest[0] == 1}, 1
	}
	inv := make([]int, n)
	for i, d := range dest {
		inv[d] = i
	}
	// Looping 2-coloring: color 0 routes through the upper subnetwork.
	// Inputs sharing an input switch get opposite colors; inputs destined
	// to the same output switch get opposite colors.
	color := make([]int, n)
	for i := range color {
		color[i] = -1
	}
	steps := 0
	for s := 0; s < n; s++ {
		if color[s] != -1 {
			continue
		}
		i, c := s, 0
		for {
			color[i] = c
			steps++
			p := inv[dest[i]^1] // input sharing my output switch
			if color[p] != -1 {
				break
			}
			color[p] = 1 - c
			steps++
			q := p ^ 1 // p's input-switch partner
			if color[q] != -1 {
				break
			}
			i = q // gets color 1 − color[p] = c
		}
	}
	cfg := &BenesConfig{
		n:      n,
		inSet:  make([]bool, n/2),
		outSet: make([]bool, n/2),
	}
	upDest := make([]int, n/2)
	loDest := make([]int, n/2)
	for i := 0; i < n/2; i++ {
		cfg.inSet[i] = color[2*i] == 1
		var upIn, loIn int
		if cfg.inSet[i] {
			upIn, loIn = 2*i+1, 2*i
		} else {
			upIn, loIn = 2*i, 2*i+1
		}
		upDest[i] = dest[upIn] / 2
		loDest[i] = dest[loIn] / 2
		// Output switch j receives the upper subnetwork's port j on its
		// even output: cross when the upper packet wants the odd output.
		cfg.outSet[dest[upIn]/2] = dest[upIn]%2 == 1
	}
	var s1, s2 int
	cfg.upper, s1 = routeBenes(upDest)
	cfg.lower, s2 = routeBenes(loDest)
	return cfg, steps + s1 + s2
}

// ApplyBenes routes a value slice through the configured network.
func ApplyBenes[T any](c *BenesConfig, in []T) []T {
	if len(in) != c.n {
		panic(fmt.Sprintf("permnet: ApplyBenes with %d inputs, want %d", len(in), c.n))
	}
	if c.n == 2 {
		if c.cross {
			return []T{in[1], in[0]}
		}
		return []T{in[0], in[1]}
	}
	up := make([]T, c.n/2)
	lo := make([]T, c.n/2)
	for i := 0; i < c.n/2; i++ {
		if c.inSet[i] {
			up[i], lo[i] = in[2*i+1], in[2*i]
		} else {
			up[i], lo[i] = in[2*i], in[2*i+1]
		}
	}
	uo := ApplyBenes(c.upper, up)
	lout := ApplyBenes(c.lower, lo)
	out := make([]T, c.n)
	for j := 0; j < c.n/2; j++ {
		if c.outSet[j] {
			out[2*j], out[2*j+1] = lout[j], uo[j]
		} else {
			out[2*j], out[2*j+1] = uo[j], lout[j]
		}
	}
	return out
}
