package planner

import (
	"fmt"
	"strings"
	"testing"
)

// TestCompileRejectsMalformedSteps emits each malformed step shape raw,
// past the Builder helpers' own checks, and expects Compile to panic on
// it: the runners, the comparator stage's assembly kernel among them,
// trust every window to lie in [0, N) and every stage's blocks to tile
// its window. Well-formed raw steps, and OpSetTag whose Lo is a bit
// shift rather than a position, compile.
func TestCompileRejectsMalformedSteps(t *testing.T) {
	const n = 16
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
		{OpEndsStage, 0, 4, 8}, // block wider than the window
	} {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			var b Builder
			b.Emit(st.Op, st.Lo, st.Hi, st.Aux)
			b.Compile(Layout{N: n, FrontPlanes: 1, TagShift: 63})
			return "<no panic>"
		}()
		if !strings.HasPrefix(msg, "planner: Compile: step 0: ") {
			t.Errorf("Compile of %+v: panic %q, want a lowering-bug panic naming step 0", st, msg)
		}
	}
	var b Builder
	b.Emit(OpEndsStage, 0, 16, 4)
	b.Emit(OpSetTag, 40, 0, 0)
	b.Emit(OpCmpPair, 15, 0, 0)
	b.Emit(OpShuffle, 0, 16, 0)
	b.Compile(Layout{N: n, FrontPlanes: 1, TagShift: 63})
}
