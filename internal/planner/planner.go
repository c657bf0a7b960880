// Package planner is the routing-plan intermediate representation shared
// by every compiled routing path in the repository: the (n,n)-concentrator
// plans of internal/concentrator, the Fig. 10 radix permuter's fused
// whole-network route plans of internal/permnet, the Beneš baseline's
// replayable switch programs, and — through the permuter — the word
// sorter's radix passes.
//
// The IR is a flat, stage-ordered step program: every adaptive binary
// sorter of the paper has data-independent control flow (only the switch
// settings depend on the routing tags), so the recursion of
// mmSort / prefixSort / fishKMerge — and the radix permuter's recursion of
// those sorters — lowers once per configuration into a linear instruction
// stream that replays branch-locally over packed packet words. One scalar
// runner and one 64-lane SWAR bit-plane runner execute every program, so
// improvements to either engine reach all clients at once; the per-package
// layers contain only IR compilation.
//
// Packet words are laid out by the client through a Layout: the routing
// tag of the current stage sits at a client-chosen bit (bit 63 for
// concentrator tag words, a destination-address bit for the radix
// permuter), and the OpSetTag meta-instruction retargets it mid-program —
// this is what fuses the permuter's per-level tag/strip/rebase passes away
// entirely: the tag of level d is bit lg(s)−1 of the window-local
// destination, which equals bit lg(n)−1−d of the original destination
// riding unchanged in the packet word, so no pass ever needs to write
// tags, strip them, or rebase local destinations.
package planner

import (
	"fmt"
	"slices"
	"sync"

	"absort/internal/core"
)

// Op is one lowered routing operation over a window of the working array.
type Op uint8

const (
	// OpCmpSwap compare-swaps the adjacent pair at lo (size-2 merge):
	// the pair exchanges exactly when the tag order is (1, 0).
	OpCmpSwap Op = iota
	// OpFourIn samples the two select tags at lo+q and lo+3q, records the
	// select value in the replay buffer at aux, and applies the IN-SWAP
	// quarter permutation to [lo,hi).
	OpFourIn
	// OpFourOut replays the select value recorded at aux and applies the
	// OUT-SWAP quarter permutation to [lo,hi).
	OpFourOut
	// OpShuffleCount perfect-shuffles [lo,hi) and loads the running ones
	// count m for the patch-up chain that follows.
	OpShuffleCount
	// OpEndsStage compare-swaps opposite ends of every Aux-block of
	// [lo,hi): (blo+i, blo+Aux−1−i) for every block start blo = lo,
	// lo+Aux, … and i < Aux/2 — one comparator stage of a balanced
	// merging block (one block: the prefix patch-up's ends stage). The
	// pairs are disjoint, so their order does not matter.
	OpEndsStage
	// OpCondIn evaluates the patch-up select m ≥ s/2, records it at aux,
	// and on select swaps the halves of [lo,hi) and reduces m by s/2.
	OpCondIn
	// OpCondOut replays the select recorded at aux: on select, swaps the
	// halves of [lo,hi).
	OpCondOut
	// OpFishSplit performs the fish sorter's middle-bit block split over
	// [lo,hi) with aux blocks: each block contributes its clean half to the
	// upper half-window and its dirty half to the lower half-window.
	OpFishSplit
	// OpFishClean stably partitions the aux clean blocks of [lo,hi) by
	// their (common) tag: all-0 blocks first, all-1 blocks last.
	OpFishClean
	// OpRank stably partitions [lo,hi) element-wise: 0-tagged entries keep
	// order in the leading positions, 1-tagged in the trailing ones.
	OpRank
	// OpSetTag retargets the running tag position: lo is the new scalar
	// tag shift, aux the new packed tag plane. It moves no data — emitted
	// once per radix-permuter level, it is how the per-level tag passes
	// fuse into the level's plan.
	OpSetTag
	// OpShuffle perfect-shuffles [lo,hi) without counting: position lo+i
	// of the first half goes to lo+2i, position lo+h+i to lo+2i+1.
	OpShuffle
	// OpUnshuffle inverts OpShuffle over [lo,hi): even positions gather
	// into the first half, odd into the second (the Beneš input fan-out).
	OpUnshuffle
	// OpSelSwap conditionally swaps the adjacent pair at lo when the
	// preset select byte at aux is nonzero — a Beneš 2×2 switch whose
	// setting was computed by the looping algorithm, not by tag data.
	OpSelSwap
	// OpCmpPair compare-swaps the arbitrary position pair (Lo, Hi): the
	// pair exchanges exactly when the tag order is (1, 0), leaving the
	// smaller tag at Lo. Unlike every other op, Hi names a position, not a
	// window bound — this is the generic comparator-network lowering's
	// primitive, one step per stage-parallel comparator.
	OpCmpPair
	// OpPermute applies a fixed receives-from permutation to [lo,hi):
	// vals'[lo+j] = vals[lo+π[j]], where π is the program's permutation
	// table slice [Aux, Aux+s) — the lowered form of a comparator
	// network's inter-stage wirings, composed into one final scatter.
	OpPermute
)

// Step is one lowered routing operation: an opcode, the window [Lo,Hi) it
// operates on, and an auxiliary operand (select-replay slot, fish block
// count, ends-stage block size, or OpSetTag's packed tag plane).
type Step struct {
	Op     Op
	Lo, Hi int32
	Aux    int32
}

// Layout fixes how a program's packet words and bit planes are organized.
type Layout struct {
	// N is the network width (a power of two).
	N int
	// FrontPlanes is the number of leading bit planes in the packed
	// engine that carry tag data: 1 for single-tag programs
	// (concentrator), lg n destination-bit planes for the fused radix
	// permuter. The origin-index planes follow at offset FrontPlanes.
	FrontPlanes int
	// TagShift is the packet-word bit of the routing tag before the first
	// OpSetTag (63 for concentrator tag words).
	TagShift uint
	// TagPlane is the packed bit plane of the routing tag before the
	// first OpSetTag (0 for single-tag programs).
	TagPlane int
}

// Program is a compiled routing program. It is immutable after
// construction and safe for concurrent use: every execution draws its
// scratch state from an internal pool.
type Program struct {
	layout Layout
	steps  []Step
	nsel   int
	perms  []int32   // flat OpPermute table storage, indexed by Step.Aux
	pool   sync.Pool // *Scratch

	packOnce sync.Once // builds packed (or packErr) on first Packed call
	packed   *Packed
	packErr  error
}

// Scratch is the per-execution state of a Program: the packed-word
// working array Val, copy scratch used by shuffles / quarter permutations
// / fish block moves, and the select-replay buffer. Clients that load
// packet words themselves (concentrators packing tag bits, permuters
// packing destinations) borrow Val between Get and Put.
type Scratch struct {
	Val []uint64
	tmp []uint64
	sel []uint8
}

// Sel returns the scratch's select buffer (len ≥ NumSel): preset-select
// clients (the Beneš replay) fill it between Get and RunScratch;
// tag-driven programs record into and replay from it internally.
func (sc *Scratch) Sel() []uint8 { return sc.sel }

// Builder accumulates a step program during lowering. The zero Builder is
// ready to use.
type Builder struct {
	steps []Step
	nsel  int
	perms []int32 // flat OpPermute table storage
}

// Emit appends one raw step.
func (b *Builder) Emit(op Op, lo, hi, aux int32) {
	b.steps = append(b.steps, Step{Op: op, Lo: lo, Hi: hi, Aux: aux})
}

// NewSel allocates a select-replay slot and returns its id.
func (b *Builder) NewSel() int32 {
	id := int32(b.nsel)
	b.nsel++
	return id
}

// NumSel returns the number of select-replay slots allocated so far.
func (b *Builder) NumSel() int { return b.nsel }

// SetTag emits the tag-retarget meta-instruction: subsequent steps read
// the routing tag at packet-word bit shift (scalar) and bit plane plane
// (packed).
func (b *Builder) SetTag(shift uint, plane int32) {
	b.Emit(OpSetTag, int32(shift), 0, plane)
}

// MMSort lowers the mux-merger binary sorter over [lo,hi): sort both
// halves, then merge (post-order, exactly the recursion of mmSort).
func (b *Builder) MMSort(lo, hi int32) {
	s := hi - lo
	if s == 1 {
		return
	}
	b.MMSort(lo, lo+s/2)
	b.MMSort(lo+s/2, hi)
	b.MMMerge(lo, hi)
}

// MMMerge lowers one mux-merger merge over [lo,hi): a four-way IN-SWAP,
// the recursive middle-half merge, and the matching four-way OUT-SWAP
// replaying the same select value.
func (b *Builder) MMMerge(lo, hi int32) {
	s := hi - lo
	if s == 2 {
		b.Emit(OpCmpSwap, lo, hi, 0)
		return
	}
	id := b.NewSel()
	b.Emit(OpFourIn, lo, hi, id)
	b.MMMerge(lo+s/4, lo+3*s/4)
	b.Emit(OpFourOut, lo, hi, id)
}

// PrefixSort lowers the prefix binary sorter over [lo,hi): sort both
// halves, shuffle and count ones, then run the patch-up chain.
func (b *Builder) PrefixSort(lo, hi int32) {
	s := hi - lo
	if s == 1 {
		return
	}
	b.PrefixSort(lo, lo+s/2)
	b.PrefixSort(lo+s/2, hi)
	b.Emit(OpShuffleCount, lo, hi, 0)
	b.patchUp(lo, hi)
}

// patchUp lowers one patch-up level over [lo,hi): opposite-ends
// compare-swaps, then (for s > 2) the conditional half-exchange steered by
// the running ones count, the recursive patch-up of the lower half, and
// the replayed conditional half-exchange on the way out.
func (b *Builder) patchUp(lo, hi int32) {
	s := hi - lo
	if s == 1 {
		return
	}
	b.EndsStage(lo, hi, s)
	if s == 2 {
		return
	}
	id := b.NewSel()
	b.Emit(OpCondIn, lo, hi, id)
	b.patchUp(lo+s/2, hi)
	b.Emit(OpCondOut, lo, hi, id)
}

// FishKMergeBase lowers the time-multiplexed fish merge over [lo,hi)
// with k groups: middle-bit block split, clean-block sort of the upper
// half, the recursive merge of the lower half, and a final mux-merge of
// the window. When the recursion bottoms out at a k-wide window, base
// lowers the final sort — the mux-merger for the paper's fish sorter, or
// an optimal small-n kernel slotted into the fish recursion.
func (b *Builder) FishKMergeBase(lo, hi, k int32, base func(*Builder, int32, int32)) {
	s := hi - lo
	if s == k {
		base(b, lo, hi)
		return
	}
	b.Emit(OpFishSplit, lo, hi, k)
	b.Emit(OpFishClean, lo, lo+s/2, k)
	b.FishKMergeBase(lo+s/2, hi, k, base)
	b.MMMerge(lo, hi)
}

// FishSort lowers the full fish binary sorter over [lo,hi): k group
// mux-merger sorts followed by the time-multiplexed k-group merge.
func (b *Builder) FishSort(lo, hi, k int32) {
	b.FishSortBase(lo, hi, k, (*Builder).MMSort)
}

// FishSortBase is FishSort with a pluggable group sorter: base lowers
// each of the k initial group sorts and the merge's base case.
func (b *Builder) FishSortBase(lo, hi, k int32, base func(*Builder, int32, int32)) {
	g := (hi - lo) / k
	for t := int32(0); t < k; t++ {
		base(b, lo+t*g, lo+(t+1)*g)
	}
	b.FishKMergeBase(lo, hi, k, base)
}

// Rank lowers the ranking engine's single stable partition over [lo,hi).
func (b *Builder) Rank(lo, hi int32) {
	b.Emit(OpRank, lo, hi, 0)
}

// SelSwap emits one preset 2×2 switch over the adjacent pair at lo,
// reading its setting from select slot sel at replay time.
func (b *Builder) SelSwap(lo, sel int32) {
	b.Emit(OpSelSwap, lo, lo+2, sel)
}

// Shuffle emits the perfect shuffle of [lo,hi); Unshuffle its inverse.
func (b *Builder) Shuffle(lo, hi int32)   { b.Emit(OpShuffle, lo, hi, 0) }
func (b *Builder) Unshuffle(lo, hi int32) { b.Emit(OpUnshuffle, lo, hi, 0) }

// EndsStage emits one comparator stage: opposite ends compare-swapped
// in every bs-block of [lo,hi). A malformed stage — bs not a power of
// two, bs < 2, or bs not dividing hi−lo — is a lowering bug and panics.
func (b *Builder) EndsStage(lo, hi, bs int32) {
	if !endsShapeOK(lo, hi, bs) {
		panic(fmt.Sprintf("planner: EndsStage over [%d,%d) with block size %d", lo, hi, bs))
	}
	b.Emit(OpEndsStage, lo, hi, bs)
}

// endsShapeOK reports whether bs-blocks tile [lo,hi) as one comparator
// stage: bs a power of two ≥ 2 dividing hi−lo.
func endsShapeOK(lo, hi, bs int32) bool {
	return bs >= 2 && bs&(bs-1) == 0 && hi-lo >= bs && (hi-lo)%bs == 0
}

// CmpPair emits one tag-driven compare-exchange of the arbitrary
// position pair (i, j): the smaller tag lands at i.
func (b *Builder) CmpPair(i, j int32) {
	if i == j {
		panic(fmt.Sprintf("planner: CmpPair: self-comparison at position %d", i))
	}
	b.Emit(OpCmpPair, i, j, 0)
}

// Permute emits the fixed receives-from permutation π of [lo,hi):
// vals'[lo+j] = vals[lo+π[j]]. Identity permutations are elided; an
// invalid π (wrong length, out-of-range or duplicate entries) is a
// lowering bug and panics.
func (b *Builder) Permute(lo, hi int32, perm []int32) {
	s := hi - lo
	if int32(len(perm)) != s {
		panic(fmt.Sprintf("planner: Permute over [%d,%d) with %d entries", lo, hi, len(perm)))
	}
	identity := true
	seen := make([]bool, s)
	for j, src := range perm {
		if src < 0 || src >= s || seen[src] {
			panic(fmt.Sprintf("planner: Permute over [%d,%d): invalid source %d at %d", lo, hi, src, j))
		}
		seen[src] = true
		if int32(j) != src {
			identity = false
		}
	}
	if identity {
		return
	}
	aux := int32(len(b.perms))
	b.perms = append(b.perms, perm...)
	b.Emit(OpPermute, lo, hi, aux)
}

// Compile freezes the builder's step stream into an executable Program
// with the given layout, folding comparator stages into OpEndsStage steps
// (see foldEnds). The builder must not be reused afterwards. Emit checks
// nothing, so Compile panics, as on any lowering bug, on a step whose
// shape the runners — the stage's assembly kernel among them — would
// trust blindly (see malformed).
func (b *Builder) Compile(layout Layout) *Program {
	if !core.IsPow2(layout.N) {
		panic(fmt.Sprintf("planner: Compile: n=%d not a power of two", layout.N))
	}
	n := int32(layout.N)
	if layout.FrontPlanes < 1 {
		layout.FrontPlanes = 1
	}
	for i, st := range b.steps {
		if msg := b.malformed(st, n, int32(layout.FrontPlanes)); msg != "" {
			panic(fmt.Sprintf("planner: Compile: step %d: %s", i, msg))
		}
	}
	p := &Program{layout: layout, steps: foldEnds(b.steps), nsel: b.nsel, perms: b.perms}
	p.pool.New = func() any {
		return &Scratch{
			Val: make([]uint64, n),
			tmp: make([]uint64, n),
			sel: make([]uint8, max(p.nsel, 1)),
		}
	}
	return p
}

// malformed describes how st breaks a shape the runners trust, or
// returns "" for a well-formed step: every window lies in [0, n) (both
// positions of an OpCmpPair), OpCmpSwap and OpSelSwap span exactly the
// adjacent pair at lo, an OpEndsStage's blocks tile its window,
// a quarter swap's window splits into four quarters and a conditional
// half swap's is a power of two, both with a select slot below NumSel
// (as OpSelSwap's), the fish ops' k ≥ 1 blocks cut the window equally
// (and evenly for OpFishSplit, which halves each one), OpSetTag selects
// one of the front planes, and an OpPermute table slice lies inside
// the program's table storage.
func (b *Builder) malformed(st Step, n, front int32) string {
	lo, hi, aux := st.Lo, st.Hi, st.Aux
	s := hi - lo
	switch {
	case st.Op == OpSetTag: // Lo is a bit shift, Hi carries nothing
		if aux < 0 || aux >= front {
			return fmt.Sprintf("SetTag to plane %d of %d front planes", aux, front)
		}
		return ""
	case st.Op == OpCmpPair:
		if lo < 0 || lo >= n || hi < 0 || hi >= n {
			return fmt.Sprintf("CmpPair (%d, %d) leaves [0,%d)", lo, hi, n)
		}
		return ""
	case lo < 0 || lo > hi || hi > n:
		return fmt.Sprintf("op %d over [%d,%d) leaves [0,%d)", st.Op, lo, hi, n)
	}
	slot := aux >= 0 && aux < int32(b.nsel)
	switch st.Op {
	case OpEndsStage:
		if !endsShapeOK(lo, hi, aux) {
			return fmt.Sprintf("EndsStage over [%d,%d) with block size %d", lo, hi, aux)
		}
	case OpFourIn, OpFourOut:
		if s < 4 || s%4 != 0 || !slot {
			return fmt.Sprintf("quarter swap over [%d,%d) with select slot %d of %d", lo, hi, aux, b.nsel)
		}
	case OpCondIn, OpCondOut:
		if s < 2 || s&(s-1) != 0 || !slot {
			return fmt.Sprintf("half swap over [%d,%d) with select slot %d of %d", lo, hi, aux, b.nsel)
		}
	case OpFishSplit, OpFishClean:
		if aux < 1 || s < aux || s%aux != 0 || (st.Op == OpFishSplit && s/aux%2 != 0) {
			return fmt.Sprintf("fish op %d over [%d,%d) with %d blocks", st.Op, lo, hi, aux)
		}
	case OpCmpSwap:
		if s != 2 {
			return fmt.Sprintf("CmpSwap over [%d,%d) is not one adjacent pair", lo, hi)
		}
	case OpSelSwap:
		if s != 2 || !slot {
			return fmt.Sprintf("SelSwap over [%d,%d) with select slot %d of %d", lo, hi, aux, b.nsel)
		}
	case OpPermute:
		if aux < 0 || int(aux)+int(s) > len(b.perms) {
			return fmt.Sprintf("Permute over [%d,%d) with table slice [%d,%d) of %d", lo, hi, aux, aux+s, len(b.perms))
		}
	}
	return ""
}

// foldEnds rewrites every run of OpCmpPair steps that forms one
// comparator stage of equal blocks — adjacent bs-blocks, each
// compare-swapping its opposite ends (blo+i, blo+bs−1−i), bs a power of
// two, bs = 2 being a run of adjacent pairs (i, i+1) — into one
// OpEndsStage, which both runners replay with the same semantics. This
// is how a generic comparator network lowered through cmpnet's LowerTo
// (a balanced merging block, say) reaches the stage op; a lone
// comparator stays an OpCmpPair. The run's comparators touch disjoint
// positions, so RunStuck's faults applied once after the folded step
// leave the same state as faults applied after each comparator. steps is
// rewritten in place; when a run folded, the result is a fresh slice
// sized to the folded stream, so the unfolded array is released.
func foldEnds(steps []Step) []Step {
	out := steps[:0] // the write index never passes the read index
	for i := 0; i < len(steps); {
		st := steps[i]
		bs := endsBlock(steps[i:])
		used, hi := 0, st.Lo // the stage so far: used comparators over [st.Lo, hi)
		for bs > 0 && i+used < len(steps) && steps[i+used].Lo == hi && endsBlock(steps[i+used:]) == bs {
			used += int(bs / 2)
			hi += bs
		}
		if used >= 2 {
			out = append(out, Step{Op: OpEndsStage, Lo: st.Lo, Hi: hi, Aux: bs})
			i += used
			continue
		}
		out = append(out, st)
		i++
	}
	if len(out) == len(steps) {
		return steps // nothing folded; allocate nothing
	}
	return slices.Clone(out)
}

// endsBlock returns the size bs of the opposite-ends comparator block
// that opens steps — OpCmpPair (lo+i, lo+bs−1−i) for i = 0..bs/2−1, bs a
// power of two ≥ 2 — or 0 when steps does not open with one.
func endsBlock(steps []Step) int32 {
	st := steps[0]
	bs := st.Hi - st.Lo + 1
	if st.Op != OpCmpPair || bs < 2 || bs&(bs-1) != 0 || int(bs/2) > len(steps) {
		return 0
	}
	for i, c := range steps[1 : bs/2] {
		if c.Op != OpCmpPair || c.Lo != st.Lo+int32(i+1) || c.Hi != st.Hi-int32(i+1) {
			return 0
		}
	}
	return bs
}

// N returns the network width of the program.
func (p *Program) N() int { return p.layout.N }

// NumSteps returns the length of the step stream.
func (p *Program) NumSteps() int { return len(p.steps) }

// NumSel returns the number of select-replay slots one execution needs.
func (p *Program) NumSel() int { return p.nsel }

// Layout returns the program's packet-word / bit-plane layout.
func (p *Program) Layout() Layout { return p.layout }

// Get borrows a pooled Scratch (Val is n packet words, contents
// unspecified); Put returns it.
func (p *Program) Get() *Scratch   { return p.pool.Get().(*Scratch) }
func (p *Program) Put(sc *Scratch) { p.pool.Put(sc) }
