package planner

import (
	"fmt"
	"strings"
	"testing"
)

// TestCompileRejectsMalformedSteps emits each malformed step shape raw,
// past the Builder helpers' own checks, into a builder with two select
// slots and a four-entry permutation table, and expects Compile (two
// front planes) to panic on it: the runners, the comparator stage's
// assembly kernel among them, trust every window to lie in [0, N),
// every adjacent-pair swap to span one pair, every stage's blocks to
// tile its window, every quarter and half swap to split its window and
// name an allocated select slot, every fish op to cut its window into
// equal blocks, every tag retarget to name a front plane and every
// permutation to lie in the table. Well-formed raw steps, and OpSetTag
// whose Lo is a bit shift rather than a position, compile.
func TestCompileRejectsMalformedSteps(t *testing.T) {
	const n = 16
	compile := func(steps ...Step) {
		b := Builder{nsel: 2, perms: []int32{1, 0, 3, 2}}
		for _, st := range steps {
			b.Emit(st.Op, st.Lo, st.Hi, st.Aux)
		}
		b.Compile(Layout{N: n, FrontPlanes: 2, TagShift: 63})
	}
	for _, st := range []Step{
		{OpCmpSwap, 15, 17, 0},  // window past N
		{OpShuffle, -2, 2, 0},   // window below 0
		{OpRank, 8, 4, 0},       // inverted window
		{OpCmpPair, 3, 16, 0},   // pair past N
		{OpCmpPair, -1, 3, 0},   // pair below 0
		{OpEndsStage, 8, 24, 8}, // stage past N
		{OpEndsStage, 0, 12, 8}, // block size not dividing the window
		{OpEndsStage, 0, 16, 3}, // block size not a power of two
		{OpEndsStage, 0, 16, 1}, // block size below 2
		{OpEndsStage, 0, 16, 0},
		{OpEndsStage, 0, 4, 8},  // block wider than the window
		{OpFourIn, 0, 6, 0},     // window not four quarters
		{OpFourOut, 4, 4, 0},    // empty window
		{OpFourIn, 0, 16, 2},    // select slot past NumSel
		{OpFourOut, 0, 16, -1},  // negative select slot
		{OpCondIn, 0, 12, 0},    // window not a power of two
		{OpCondOut, 3, 4, 0},    // window below 2
		{OpCondOut, 0, 16, 2},   // select slot past NumSel
		{OpCondIn, 0, 16, -1},   // negative select slot
		{OpFishSplit, 0, 16, 0}, // no blocks
		{OpFishClean, 0, 16, 3}, // blocks not equal
		{OpFishSplit, 0, 12, 4}, // blocks of odd size
		{OpFishClean, 4, 4, 1},  // empty window
		{OpSelSwap, 0, 2, 2},    // select slot past NumSel
		{OpSelSwap, 0, 2, -1},   // negative select slot
		{OpSelSwap, 16, 16, 0},  // pair past N in an empty window
		{OpSelSwap, 0, 4, 0},    // window wider than one pair
		{OpCmpSwap, 15, 15, 0},  // pair past N in an empty window
		{OpCmpSwap, 4, 8, 0},    // window wider than one pair
		{OpSetTag, 40, 0, 2},    // plane past the front planes
		{OpSetTag, 40, 0, -1},   // negative plane
		{OpPermute, 0, 4, 1},    // table slice past the table
		{OpPermute, 0, 8, 0},    // window wider than the table
		{OpPermute, 0, 4, -1},   // table slice before the table
	} {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			compile(st)
			return "<no panic>"
		}()
		if !strings.HasPrefix(msg, "planner: Compile: step 0: ") {
			t.Errorf("Compile of %+v: panic %q, want a lowering-bug panic naming step 0", st, msg)
		}
	}
	compile(
		Step{OpEndsStage, 0, 16, 4},
		Step{OpSetTag, 40, 0, 1},
		Step{OpCmpPair, 15, 0, 0},
		Step{OpShuffle, 0, 16, 0},
		Step{OpFourIn, 0, 16, 1},
		Step{OpFourOut, 4, 8, 1},
		Step{OpCondIn, 0, 16, 0},
		Step{OpCondOut, 6, 8, 0},
		Step{OpFishSplit, 0, 16, 4},
		Step{OpFishClean, 0, 8, 8}, // blocks of one, as fish emits at s = 2k
		Step{OpSelSwap, 14, 16, 1},
		Step{OpCmpSwap, 6, 8, 0},
		Step{OpPermute, 12, 16, 0},
	)
}
