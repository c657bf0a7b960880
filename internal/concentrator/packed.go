// SWAR lane-packed routing: evaluate up to PackedLanes independent tag
// patterns through one compiled routing plan in a single pass. The
// bit-plane engine itself — position-major packed planes, masked-XOR
// swaps under per-lane select masks, carry-save counters, and the
// two-stage transpose extraction — is the shared packed runner of internal/planner;
// this file contributes only the concentrator-specific surface: tag-lane
// packing, the request-count/capacity validation, and the error messages
// of the batch contract.
//
// Throughput: one packed pass costs roughly P = 1 + lg n plane-word
// operations per data movement where the scalar plan costs 64
// packet-word moves, so a 64-wide batch routes ≥ 3× faster than the
// planned pipeline on the same core (see TestPackedSpeedupFloor). A
// batch wider than one lane word runs one replay per 64 patterns,
// spread over the batch driver's workers.
package concentrator

import (
	"fmt"
	"math/bits"

	"absort/internal/planner"
)

// PackedLanes is the number of request patterns one plane word carries —
// one bit lane of every plane word per pattern — and so the widest group
// one packed pass evaluates.
const PackedLanes = planner.PackedLanes

// MinPackedLanes is the batch-width threshold at which the packed engine
// overtakes per-request planned routing: a packed pass costs about
// lg n + 1 plane-word operations per data movement regardless of how
// many lanes are occupied, while the scalar plan pays one packet-word
// move per request, so the crossover sits near (lg n + 1) lanes with the
// masked-swap constant folded in. Measured on the fish engine the packed
// pass beats k scalar passes from roughly k = 24 upward across
// n ∈ {64 .. 4096}; ConcentrateBatch falls back to the planned path for
// narrower remainders.
const MinPackedLanes = planner.MinPackedLanes

// ConcentratePacked routes up to PackedLanes request patterns through
// the concentrator's compiled plan in one SWAR pass: pattern l's tags
// occupy bit lane l of the plane words. It writes, pattern by pattern,
// the realized permutations into perms and the request counts into
// counts — exactly the results len(markedBatch) ConcentrateInto calls
// would produce, at a fraction of the data movement. A malformed or
// over-capacity pattern returns a validated error naming the earliest
// offending pattern (the same message ConcentrateBatch reports) before
// any routing starts; it never panics.
func (c *Concentrator) ConcentratePacked(perms [][]int, counts []int, markedBatch [][]bool) error {
	lanes := len(markedBatch)
	if lanes == 0 || lanes > PackedLanes {
		return fmt.Errorf("concentrator: ConcentratePacked: %d patterns, want 1..%d",
			lanes, PackedLanes)
	}
	if len(perms) != lanes || len(counts) != lanes {
		return fmt.Errorf("concentrator: ConcentratePacked: %d permutations and %d counts for %d patterns",
			len(perms), len(counts), lanes)
	}
	plan, err := c.compileChecked()
	if err != nil {
		return err
	}
	if l, err := c.concentrateGroup(plan, perms, counts, markedBatch); err != nil {
		if l < 0 {
			return err
		}
		return fmt.Errorf("concentrator: batch pattern %d: %w", l, err)
	}
	return nil
}

// concentrateGroup is ConcentratePacked's validation and replay over
// length-checked arguments and the compiled plan. An error about one
// pattern comes back with that pattern's index and ConcentrateInto's
// message; an error about the plan comes back with index -1.
func (c *Concentrator) concentrateGroup(plan *Plan, perms [][]int, counts []int, markedBatch [][]bool) (int, error) {
	for l, marked := range markedBatch {
		if len(marked) != c.n {
			return l, fmt.Errorf("concentrator: %d requests for %d inputs", len(marked), c.n)
		}
		if len(perms[l]) != c.n {
			return l, fmt.Errorf("concentrator: permutation buffer of %d for %d inputs", len(perms[l]), c.n)
		}
	}
	eng, err := plan.prog.Packed()
	if err != nil {
		return -1, err
	}
	// Unmarked inputs are tagged 1 (exactly as ConcentrateInto); the
	// request counts double as the capacity check, validated before any
	// routing is spent on a poisoned batch.
	sc := eng.Get()
	tw := sc.Tmp[:c.n] // borrow copy scratch for the packed tag words
	packTags(tw, counts, markedBatch, c.n)
	for l, r := range counts[:len(markedBatch)] {
		if r > c.m {
			eng.Put(sc)
			return l, fmt.Errorf("concentrator: %d requests exceed capacity %d", r, c.m)
		}
	}
	eng.LoadTagWords(sc.Val, tw)
	eng.Run(sc)
	eng.Extract(perms, sc.Val)
	eng.Put(sc)
	return 0, nil
}

// packTags writes the packed tag words of up to PackedLanes patterns
// into tw — position i at tw[i], lane l set when pattern l leaves input
// i unmarked — and each pattern's request count into counts. It works in
// 64×64 bit blocks: per lane, 64 positions' tag bits gather into one
// register word (markBits), and one Transpose64 turns the 64 lane words
// into 64 position words, so no tag word is read back and rewritten once
// per lane.
func packTags(tw []uint64, counts []int, markedBatch [][]bool, n int) {
	var blk [PackedLanes]uint64
	clear(counts[:len(markedBatch)])
	for base := 0; base < n; base += 64 {
		end := min(base+64, n)
		valid := ^uint64(0) >> (64 - uint(end-base)) // the block's live positions
		for l, marked := range markedBatch {
			m := markBits(marked[base:end])
			counts[l] += bits.OnesCount64(m)
			blk[l] = ^m & valid
		}
		clear(blk[len(markedBatch):])
		planner.Transpose64(&blk)
		copy(tw[base:end], blk[:end-base])
	}
}

// markBits packs up to 64 request flags into a word, bit j set when
// seg[j] is marked. The conversion is branchless — request patterns are
// adversarial, and a predicted branch per input would cost more than
// the whole routing pass — and kept out of packTags' loop nest
// (noinline) so the accumulator stays in a register: inlined, the
// nest's live variables spill it to the stack on every input.
//
//go:noinline
func markBits(seg []bool) uint64 {
	var m uint64
	for j, mk := range seg {
		u := uint64(0)
		if mk {
			u = 1
		}
		m |= u << (uint(j) & 63)
	}
	return m
}
