// SWAR lane-packed execution of routing-plan programs: up to 64
// independent request patterns replay one compiled program, one uint64
// bit lane per pattern — the shared engine behind the concentrator's
// ConcentratePacked, the radix permuter's packed RouteBatch path, the
// compiled Beneš replay's packed settings playback, and the word
// sorter's end-to-end packed wide path.
//
//   - The working state is position-major bit-plane packed: each of the
//     n network positions owns P = F + I consecutive plane words, so
//     plane b of position i is val[i·P + b]. The F front planes carry tag data (one plane
//     of request tags for concentrator programs; the lg n
//     destination-address bits for the fused radix permuter, whose
//     per-level tag is just one of those planes, selected by OpSetTag).
//     The I = lg n index planes carry the bits of the packet's origin
//     index riding through the switches. Bit l of every plane word
//     belongs to request lane l.
//   - Every select decision becomes a per-lane mask word: a compare-swap
//     moves exactly the lanes whose tags order as (1, 0), a four-way
//     swapper blends its four quarters in one pass under the three
//     non-identity select masks, the prefix patch-up's running ones
//     count lives in bit-sliced counter planes updated with carry-save
//     adds, and preset-select programs (Beneš) read per-step lane masks
//     flattened from the per-lane switch settings at load time
//     (LoadSelBits) — no branches depend on tag data.
//   - A packet moves whole: every data movement carries all P planes of
//     each position it moves, as a switch carries the whole packet and
//     the scalar runner the whole packet word. The tag plane is a
//     runner register, retargeted by OpSetTag, as the scalar runner's
//     tag shift is.
//   - A replay carries one lane word: its 64 lanes are the whole of its
//     parallelism. Wider batches run more replays, which the batch
//     driver (Batch.Run) spreads over its workers.
//   - Every data movement bottoms out in four plane-run kernels
//     (swapWords, blendIn, blendOut, blendRange), each over one
//     contiguous run of plane words: P words for a single position, q·P
//     for a q-position range. On amd64 CPUs with AVX2 they move four
//     plane words per instruction (kernels_amd64.s), chosen once at
//     package init; the Go loops are the reference and run the 0–3-word
//     tails, or everything elsewhere. A comparator stage (OpEndsStage)
//     runs whole in one kernel call, tag tests included, and the bit-block
//     transposes of the lane load and extract have AVX2 forms too.
//
// A Packed engine performs zero steady-state heap allocations: plane
// array, copy scratch, select-mask replay buffer, preset select masks,
// and counter planes all live in a sync.Pool of per-execution scratch.
package planner

import (
	"fmt"
	"sync"

	"absort/internal/core"
)

// PackedLanes is the number of request patterns one plane word carries:
// one bit lane of every plane word per pattern.
const PackedLanes = 64

// MinPackedLanes is the batch-width threshold at which packed replay
// overtakes per-request scalar replay: a packed pass costs about P plane
// word operations per data movement regardless of how many lanes are
// occupied, while the scalar program pays one packet-word move per
// request, so the crossover sits near the plane count with the
// masked-swap constant folded in. Batch paths fall back to per-request
// replay for narrower remainders.
const MinPackedLanes = 24

// ErrNotPackable reports a program whose step stream contains an
// operation the packed engine cannot replay. Program.Packed returns it
// from the compile-time packability scan — callers fall back to planned
// per-request replay instead of ever reaching a mid-replay panic.
type ErrNotPackable struct {
	Op Op // the first offending operation
}

func (e *ErrNotPackable) Error() string {
	return fmt.Sprintf("planner: program not packable: op %d has no packed form", e.Op)
}

// Packed is the 64-lane SWAR evaluation engine of a compiled Program.
// It is immutable after construction and safe for concurrent use: every
// execution draws its working state from an internal pool.
type Packed struct {
	prog   *Program
	P      int  // planes per position: F front planes + I index planes
	F      int  // front (tag-data) plane count
	I      int  // index plane count (lg n)
	hasRec bool // program records/replays tag-driven selects
	hasPre bool // program reads preset selects (OpSelSwap)
	pool   sync.Pool
}

// PackedScratch is the per-execution state of a Packed engine. Val holds
// the n × P position-major plane words; Tmp is copy scratch of
// max(n·P, 2F+2) words that clients may borrow between Get and Put
// (e.g. to stage n packed tag words).
type PackedScratch struct {
	Val  []uint64
	Tmp  []uint64
	sel  []uint64 // select-mask record/replay buffer, 2 words per slot
	psel []uint64 // preset select lane masks, one word per slot
	cnt  []uint64 // bit-sliced per-lane ones counters, one word per bit
}

// Packed returns the program's 64-lane SWAR engine, building it on first
// use and caching it (Programs are immutable, so the engine is shared
// safely). It returns a typed *ErrNotPackable — never a panic — when the
// step stream contains an operation without a packed form; callers fall
// back to planned per-request replay on error.
func (p *Program) Packed() (*Packed, error) {
	p.packOnce.Do(func() {
		if p.packErr = p.packable(); p.packErr == nil {
			p.packed = newPacked(p)
		}
	})
	return p.packed, p.packErr
}

// packable is the compile-time packability scan: every operation of the
// step stream must have a packed form. All current ops do, so this only
// rejects step streams carrying opcodes this engine predates — the
// typed-error contract that keeps the replay loop panic-free.
func (p *Program) packable() error {
	for _, st := range p.steps {
		switch st.Op {
		case OpCmpSwap, OpFourIn, OpFourOut, OpShuffleCount, OpEndsStage,
			OpCondIn, OpCondOut, OpFishSplit, OpFishClean, OpRank,
			OpSetTag, OpShuffle, OpUnshuffle, OpSelSwap, OpCmpPair,
			OpPermute:
		default:
			return &ErrNotPackable{Op: st.Op}
		}
	}
	return nil
}

// newPacked builds the packed engine of a compiled program.
func newPacked(p *Program) *Packed {
	n := p.layout.N
	F := p.layout.FrontPlanes
	I := core.Lg(n)
	pp := &Packed{prog: p, P: F + I, F: F, I: I}
	for _, st := range p.steps {
		switch st.Op {
		case OpFourIn, OpFourOut, OpCondIn, OpCondOut:
			pp.hasRec = true
		case OpSelSwap:
			pp.hasPre = true
		}
	}
	P := pp.P
	nsel := max(p.nsel, 1)
	hasRec, hasPre := pp.hasRec, pp.hasPre
	// Copy scratch serves three borrowers, one at a time: a replay's
	// shuffle copies the plane array (n·P), the concentrator stages n
	// packed tag words, and SplitFront's two counters take 2F+2.
	tmp := max(n*P, 2*F+2)
	pp.pool.New = func() any {
		sc := &PackedScratch{
			Val: make([]uint64, n*P),
			Tmp: make([]uint64, tmp),
			cnt: make([]uint64, I+2),
		}
		if hasRec {
			sc.sel = make([]uint64, 2*nsel)
		}
		if hasPre {
			sc.psel = make([]uint64, nsel)
		}
		return sc
	}
	return pp
}

// N returns the input width of the packed engine.
func (pp *Packed) N() int { return pp.prog.layout.N }

// Program returns the scalar program the packed engine replays.
func (pp *Packed) Program() *Program { return pp.prog }

// Get borrows a pooled PackedScratch; Put returns it.
func (pp *Packed) Get() *PackedScratch   { return pp.pool.Get().(*PackedScratch) }
func (pp *Packed) Put(sc *PackedScratch) { pp.pool.Put(sc) }

// LoadTagWords initializes the plane array for a single-tag program
// (F = 1): position i starts with the packed tag lanes tags[i] in plane 0
// and the lane-broadcast bits of index i in the index planes.
func (pp *Packed) LoadTagWords(val, tags []uint64) {
	P := pp.P
	for i, t := range tags[:pp.prog.layout.N] {
		val[i*P] = t
	}
	pp.loadIndexBroadcast(val)
}

// LoadIndexPlanes initializes the plane array to the identity carrier:
// every front plane zero, the index planes broadcasting position i at
// position i. Preset-select replay (Beneš) and composition-mode clients
// (the word sorter's wide path) start from this state and supply routing
// decisions through LoadSelBits or per-pass front-plane writes.
func (pp *Packed) LoadIndexPlanes(val []uint64) {
	P, F := pp.P, pp.F
	for i := 0; i < pp.prog.layout.N; i++ {
		clear(val[i*P : i*P+F])
	}
	pp.loadIndexBroadcast(val)
}

// loadIndexBroadcast fills the index planes: plane F+b of position i
// broadcasts bit b of i to all lanes.
func (pp *Packed) loadIndexBroadcast(val []uint64) {
	P, F := pp.P, pp.F
	for i := 0; i < pp.prog.layout.N; i++ {
		for b := F; b < P; b++ {
			val[i*P+b] = -uint64(i >> uint(b-F) & 1) // 0 or all-ones broadcast
		}
	}
}

// LoadDestLanes initializes the plane array for a destination-riding
// program (F = lg n front planes): front plane b of position i carries,
// in lane l, bit b of dests[l][i]; the index planes broadcast i. Lanes
// beyond len(dests) (at most PackedLanes) are zeroed. Positions are
// packed in 64-wide chunks through the same two transpose stages Extract
// uses in reverse — about five word operations per packed destination.
// It reports whether every destination lies in [0, n): one OR per
// value, since n is a power of two. An out-of-range destination loads
// only its low F bits, so d and d+n would load the same planes.
func (pp *Packed) LoadDestLanes(val []uint64, dests [][]int) bool {
	P, F := pp.P, pp.F
	n := pp.prog.layout.N
	if n < 64 || F > 16 {
		return pp.loadDestSlow(val, dests)
	}
	var lanePl [16][64]uint64 // lanePl[b][l]: lane l's plane-b bits
	var or int
	for base := 0; base < n; base += 64 {
		// Stage 1 (inverse of Extract's stage 2): per lane, pack 64
		// destination values into 16 words — word i holds positions
		// 4i..4i+3, one per quarter — and flip every lane's words into
		// front-plane rows with the 16×16×4 block transpose.
		for l, d := range dests {
			dd := d[base : base+64]
			for i := range lanePl {
				d0, d1, d2, d3 := dd[4*i], dd[4*i+1], dd[4*i+2], dd[4*i+3]
				or |= d0 | d1 | d2 | d3
				lanePl[i][l] = uint64(uint16(d0)) | uint64(uint16(d1))<<16 |
					uint64(uint16(d2))<<32 | uint64(uint16(d3))<<48
			}
		}
		transpose16x4Cols(&lanePl)
		// Stage 2 (inverse of Extract's stage 1): one 64×64 transpose per
		// front plane turns 64 lane-words into 64 position-words, row
		// 16g+i holding position 4i+g.
		for b := 0; b < F; b++ {
			bp := &lanePl[b]
			Transpose64(bp)
			for j := 0; j < 64; j++ {
				val[(base+j)*P+b] = bp[16*(j&3)+j>>2]
			}
			clear(bp[len(dests):]) // re-zero the empty lanes for the next chunk
		}
	}
	pp.loadIndexBroadcast(val)
	return uint(or) < uint(n)
}

// loadDestSlow is the bit-scatter fallback of LoadDestLanes for programs
// too narrow (or too wide) for the block-transpose fast path.
func (pp *Packed) loadDestSlow(val []uint64, dests [][]int) bool {
	P, F := pp.P, pp.F
	n := pp.prog.layout.N
	var or int
	for i := 0; i < n; i++ {
		for b := 0; b < F; b++ {
			wd := uint64(0)
			for l, d := range dests {
				wd |= uint64(d[i]>>uint(b)&1) << uint(l)
			}
			val[i*P+b] = wd
		}
	}
	for _, d := range dests {
		for _, v := range d[:n] {
			or |= v
		}
	}
	pp.loadIndexBroadcast(val)
	return uint(or) < uint(n)
}

// LoadSelBits flattens per-lane preset switch settings into per-step
// lane masks: selBits[l] is lane l's switch-setting bitmap in select-slot
// order (bit s of word s/64 is slot s's setting), at most PackedLanes
// lanes, and after the load the preset mask of slot s carries, in lane l,
// the setting lane l chose. The flattening runs one 64×64 bit-block
// transpose per 64 slots — about one word operation per eight settings —
// which is what turns the Beneš replay's per-request select buffers into
// pure masked-XOR arithmetic.
func (pp *Packed) LoadSelBits(sc *PackedScratch, selBits [][]uint64) {
	if !pp.hasPre {
		return // no OpSelSwap reads a preset mask
	}
	nsel := pp.prog.nsel
	for c := 0; c*64 < nsel; c++ {
		var a [64]uint64
		for r, sb := range selBits {
			if c < len(sb) {
				a[r] = sb[c]
			}
		}
		Transpose64(&a)
		copy(sc.psel[c*64:min(nsel, (c+1)*64)], a[:])
	}
}

// SplitFront bit-slices the word sorter's per-pass ranking across all
// lanes: given the pass's tag lanes (tags[i] bit l is the tag of lane l
// at position i), it writes each position's stable-split
// destination — zeros keep order up front, ones behind — into the F
// front planes, per lane, in two carry-save counting sweeps over the
// positions (the ones-counting prefix ladder of the paper's ranking
// step, evaluated 64 lanes per word operation). The index planes are
// untouched, so a composed permutation riding there survives the write.
func (pp *Packed) SplitFront(sc *PackedScratch, tags []uint64) {
	P, F := pp.P, pp.F
	n := pp.prog.layout.N
	val := sc.Val
	// Counters borrow the head of the copy scratch: z counts zeros routed
	// so far, s starts at the total zero count Z and counts Z + ones so
	// far; both need F+1 bits to stay unambiguous through the final
	// increment. Tmp is otherwise dead between passes.
	z := sc.Tmp[:F+1]
	s := sc.Tmp[F+1 : 2*F+2]
	clear(z)
	clear(s)
	t := tags[:n]
	for _, tw := range t { // sweep 1: s ← Z, the per-lane zero count
		addCounter(s, ^tw)
	}
	for i, tw := range t { // sweep 2: dest = tag ? s : z, then count
		for b := 0; b < F; b++ {
			val[i*P+b] = (z[b] &^ tw) | (s[b] & tw)
		}
		addCounter(z, ^tw)
		addCounter(s, tw)
	}
}

// addCounter carry-save increments the bit-sliced counter c on exactly
// the lanes in m.
func addCounter(c []uint64, m uint64) {
	for b := 0; m != 0 && b < len(c); b++ {
		carry := c[b] & m
		c[b] ^= m
		m = carry
	}
}

// Extract reads the per-lane permutations back out of the index planes:
// out[l][j] is the origin index whose bits lane l carries at position j,
// for at most PackedLanes lanes. Positions are processed in 64-wide
// chunks through two transpose stages: one 64×64 bit-block transpose per
// index plane turns 64 position-words into 64 lane-words, then per lane
// a four-wide 16×16 SWAR transpose turns up to 16 plane rows into 64
// ready permutation values — about five word operations per extracted
// index, instead of one shift-mask-or per (lane, position, plane). Stage
// one gathers position 4i+g into row 16g+i, so each word stage two
// produces holds four consecutive positions.
func (pp *Packed) Extract(out [][]int, val []uint64) {
	P, F, I := pp.P, pp.F, pp.I
	n := pp.prog.layout.N
	if n < 64 || I == 0 || I > 16 {
		// Ragged width (n < 64), the trivial 1-input program, or more
		// index bits than the 16-row stage-two transpose carries
		// (n > 65536): gather bit-by-bit.
		pp.extractSlow(out, val)
		return
	}
	var lanePl [16][64]uint64
	for base := 0; base < n; base += 64 {
		// Stage 1: one transpose per index plane; lanePl[b][l] bit 16g+i
		// is lane l's plane-b bit at position base+4i+g.
		for b := 0; b < I; b++ {
			bp := &lanePl[b]
			for j := 0; j < 64; j++ {
				bp[16*(j&3)+j>>2] = val[(base+j)*P+F+b]
			}
			Transpose64(bp)
		}
		// Stage 2: per lane, rows 0..I-1 hold index bit b across 64
		// positions; the 16×16 block transpose flips every lane's rows
		// into 16-bit index values, row i holding positions 4i..4i+3.
		// Rows I..15 must enter it zero.
		clear(lanePl[I:])
		transpose16x4Cols(&lanePl)
		for l, ol := range out {
			o := ol[base : base+64]
			for i := range lanePl {
				ai := lanePl[i][l]
				o[4*i] = int(ai & 0xFFFF)
				o[4*i+1] = int(ai >> 16 & 0xFFFF)
				o[4*i+2] = int(ai >> 32 & 0xFFFF)
				o[4*i+3] = int(ai >> 48)
			}
		}
	}
}

// extractSlow is the bit-gather fallback of Extract.
func (pp *Packed) extractSlow(out [][]int, val []uint64) {
	P, F := pp.P, pp.F
	n := pp.prog.layout.N
	for l, o := range out {
		for j := 0; j < n; j++ {
			v := 0
			for b := F; b < P; b++ {
				v |= int(val[j*P+b]>>uint(l)&1) << uint(b-F)
			}
			o[j] = v
		}
	}
}

// MisplacedLanes returns the lanes among the first `lanes` whose front
// planes, after a destination-riding replay, differ anywhere from the
// identity: position j must carry destination j. Packets move whole, so
// the replay only rearranges each lane's destinations, and a lane that
// loaded in-range destinations passes exactly when they were a
// permutation and the network delivered every packet — the radix
// permuter's own validation, n·F word operations for all lanes at once.
func (pp *Packed) MisplacedLanes(val []uint64, lanes int) uint64 {
	P, F := pp.P, pp.F
	var bad uint64
	for j := 0; j < pp.prog.layout.N; j++ {
		for b, w := range val[j*P : j*P+F] {
			bad |= w ^ -uint64(j>>uint(b)&1)
		}
	}
	if lanes < PackedLanes {
		bad &= 1<<uint(lanes) - 1
	}
	return bad
}

// Run executes the step program over the packed plane array in sc.
// Every data movement carries all P planes of the positions it moves, so
// the result depends only on the plane array Run starts from: clients
// may preload any front and index planes, and the word sorter's wide
// path runs it again over the permutation its previous pass composed.
// The tag plane tp is a register of the replay: it starts at
// Layout.TagPlane and OpSetTag retargets it, as the scalar runner
// retargets its tag shift. The packability scan behind Program.Packed
// guarantees every opcode has a case here, so the switch needs no
// failure arm.
func (pp *Packed) Run(sc *PackedScratch) {
	P := pp.P
	bval := sc.Val
	btmp := sc.Tmp[:len(bval)]
	cnt := sc.cnt
	tp := pp.prog.layout.TagPlane
	for _, st := range pp.prog.steps {
		lo, hi := int(st.Lo), int(st.Hi)
		s := hi - lo
		switch st.Op {
		case OpCmpSwap:
			// Cmp-swaps are the most frequent step by far (every merge
			// bottoms out in one): test the tags here and call the swap
			// only for a pair some lane exchanges.
			xo := lo * P
			if m := bval[xo+tp] &^ bval[xo+P+tp]; m != 0 {
				swapWords(bval[xo:xo+P], bval[xo+P:xo+2*P], m)
			}
		case OpEndsStage:
			// One comparator stage: the periodic engine's stages, the
			// prefix patch-up's ends stage, and every folded stage of a
			// generic comparator network (see foldEnds).
			endsStage(bval[lo*P:hi*P], int(st.Aux)*P, P, tp)
		case OpFourIn:
			q := s / 4
			h1 := bval[(lo+q)*P+tp]
			h2 := bval[(lo+3*q)*P+tp]
			sb := 2 * int(st.Aux)
			sc.sel[sb], sc.sel[sb+1] = h1, h2
			pp.fourIn(bval, lo, q, ^h1&^h2, h1&^h2, h1&h2)
		case OpFourOut:
			q := s / 4
			sb := 2 * int(st.Aux)
			h1, h2 := sc.sel[sb], sc.sel[sb+1]
			pp.fourOut(bval, lo, q, ^h1&^h2, h1&h2)
		case OpShuffleCount, OpShuffle:
			pp.shuffle(bval, btmp, lo, hi)
			if st.Op == OpShuffle {
				break
			}
			// Reset the bit-sliced ones counters and carry-save add every
			// tag word of the window: amortized O(1) plane updates per
			// word, exactly a 64-lane binary counter increment per word.
			clear(cnt)
			for i := lo; i < hi; i++ {
				addCounter(cnt, bval[i*P+tp])
			}
		case OpUnshuffle:
			pp.unshuffle(bval, btmp, lo, hi)
		case OpCondIn:
			pw := core.Lg(s)
			// Per-lane m ≥ s/2 ⇔ counter bit pw-1 or pw set (m ≤ s).
			d := cnt[pw-1] | cnt[pw]
			sc.sel[2*int(st.Aux)] = d
			// m -= s/2 on the selected lanes: bit pw-1 becomes bit pw
			// (1 only in the m = s case), bit pw clears.
			cnt[pw-1] = (cnt[pw-1] &^ d) | (cnt[pw] & d)
			cnt[pw] &^= d
			pp.maskedSwap(bval, lo, lo+s/2, s/2, d)
		case OpCondOut:
			pp.maskedSwap(bval, lo, lo+s/2, s/2, sc.sel[2*int(st.Aux)])
		case OpFishSplit:
			k := int(st.Aux)
			bs := s / k
			half := bs / 2
			copy(btmp[:s*P], bval[lo*P:hi*P])
			up, dn := lo, lo+s/2
			for j := 0; j < k; j++ {
				blo := j * bs // block offset within btmp
				d := btmp[(blo+half)*P+tp]
				// Lanes in d send the upper (clean) half of the block up
				// and the lower half down; the rest the reverse.
				blendRange(bval[up*P:(up+half)*P], btmp[blo*P:], btmp[(blo+half)*P:], d)
				blendRange(bval[dn*P:(dn+half)*P], btmp[(blo+half)*P:], btmp[blo*P:], d)
				up += half
				dn += half
			}
		case OpFishClean:
			k := int(st.Aux)
			bs := s / k
			// Stable per-lane partition of the k clean blocks by their
			// common tag: k rounds of odd-even transposition with masked
			// block swaps. Equal tags never swap, so the partition is
			// stable, matching the scalar fishCleanSort exactly.
			for round := 0; round < k; round++ {
				for j := round & 1; j+1 < k; j += 2 {
					a, b := lo+j*bs, lo+(j+1)*bs
					pp.maskedSwap(bval, a, b, bs, bval[a*P+tp]&^bval[b*P+tp])
				}
			}
		case OpRank:
			// Element-wise stable partition: inherently per-lane (each
			// lane's packet order differs), so gather/scatter lane by
			// lane. Only the Ranking baseline engine emits this op.
			pp.rankLanes(bval, btmp, lo, hi, tp)
		case OpSetTag:
			tp = int(st.Aux)
		case OpSelSwap:
			// Preset 2×2 switch: the per-step lane mask was flattened from
			// the per-lane settings by LoadSelBits, so the replay is the
			// same masked-XOR swap every tag-driven op uses.
			pp.maskedSwap(bval, lo, lo+1, 1, sc.psel[st.Aux])
		case OpCmpPair:
			// Arbitrary-pair compare-exchange: lo and hi are both
			// positions. Same masked single-position swap as OpCmpSwap.
			xo, yo := lo*P, hi*P
			if m := bval[xo+tp] &^ bval[yo+tp]; m != 0 {
				swapWords(bval[xo:xo+P], bval[yo:yo+P], m)
			}
		case OpPermute:
			pp.permute(bval, btmp, lo, hi, pp.prog.perms[st.Aux:int(st.Aux)+s])
		}
	}
}

// permute applies a fixed receives-from permutation to [lo,hi): position
// lo+j receives position lo+π[j].
func (pp *Packed) permute(bval, btmp []uint64, lo, hi int, pm []int32) {
	P := pp.P
	copy(btmp[:(hi-lo)*P], bval[lo*P:hi*P])
	for j, src := range pm {
		copy(bval[(lo+j)*P:(lo+j+1)*P], btmp[int(src)*P:(int(src)+1)*P])
	}
}

// The plane-run kernels below — swapWords, blendIn, blendOut and
// blendRange — are where every data-moving op spends its time. Each
// covers one contiguous run of plane words, as long as its first
// operand, and its operands never overlap. The other operands are
// resliced to that length first, so a short one panics in Go. Where the
// CPU has AVX2 (useAVX2), each then hands the leading len&^3 words to
// its assembly form in kernels_amd64.s; the Go loop, the semantic
// reference, does the 0–3-word tail, or everything.

// useAVX2 selects the AVX2 kernels. It is fixed at package init from the
// CPU's capability; only tests change it, to run both paths.
var useAVX2 = cpuHasAVX2()

// swapWords exchanges x and y on exactly the lanes in m.
func swapWords(x, y []uint64, m uint64) {
	y = y[:len(x)]
	if k := len(x) &^ 3; useAVX2 && k > 0 {
		swapWordsAVX2(&x[0], &y[0], k, m)
		x, y = x[k:], y[k:]
	}
	for p, xv := range x {
		t := (xv ^ y[p]) & m
		x[p] = xv ^ t
		y[p] ^= t
	}
}

// endsStage is OpEndsStage's kernel over the stage's window v, cut into
// blocks of bw = bs·P words: in every block, packet i and packet bs−1−i
// exchange on the lanes whose tag words (plane tp) order as (1, 0).
// Compile guarantees that bs ≥ 2 divides the non-empty window; the tag
// plane is checked here, once per stage, before the assembly form trusts
// it.
func endsStage(v []uint64, bw, P, tp int) {
	if useAVX2 && uint(tp) < uint(P) {
		endsStageAVX2(&v[0], len(v), bw, P, tp)
		return
	}
	for blo := 0; blo < len(v); blo += bw {
		for xo, yo := blo, blo+bw-P; xo < yo; xo, yo = xo+P, yo-P {
			if m := v[xo+tp] &^ v[yo+tp]; m != 0 {
				swapWords(v[xo:xo+P], v[yo:yo+P], m)
			}
		}
	}
}

// maskedSwap exchanges the q-position ranges at a and b on exactly the
// lanes in m — three XOR passes per plane word, no branches on tag data —
// as one run of q·P words.
func (pp *Packed) maskedSwap(bval []uint64, a, b, q int, m uint64) {
	if m == 0 {
		return
	}
	P := pp.P
	swapWords(bval[a*P:(a+q)*P], bval[b*P:(b+q)*P], m)
}

// fourIn applies the IN-SWAP quarter permutation (see swapper.INSwap) to
// the window of quarter size q at lo in one pass over its quarters a, b,
// c, d. The disjoint select masks name the lanes of select 0 (m0: rotate
// b, c, d right), 2 (m2: swap the halves) and 3 (m3: swap a and b);
// select 1 is the identity. Each output word is a masked blend of the
// four input words, so each quarter position costs 4 loads and 4 stores
// per plane, where the same permutation as masked block swaps (a
// rotation is two) cost 10 of each (OUT-SWAP: 8).
func (pp *Packed) fourIn(bval []uint64, lo, q int, m0, m2, m3 uint64) {
	if m0|m2|m3 == 0 {
		return
	}
	qw := q * pp.P
	o := lo * pp.P
	blendIn(bval[o:o+qw], bval[o+qw:], bval[o+2*qw:], bval[o+3*qw:], m0, m2, m3)
}

// fourOut applies the OUT-SWAP quarter permutation (see swapper.OUTSwap)
// the way fourIn applies IN-SWAP: select 0 (m0) rotates b, c, d right,
// select 3 (m3) rotates a, b, c left, selects 1 and 2 are identities.
func (pp *Packed) fourOut(bval []uint64, lo, q int, m0, m3 uint64) {
	if m0|m3 == 0 {
		return
	}
	qw := q * pp.P
	o := lo * pp.P
	blendOut(bval[o:o+qw], bval[o+qw:], bval[o+2*qw:], bval[o+3*qw:], m0, m3)
}

// blendIn is fourIn's kernel: a, b, c, d are the four quarters' runs.
func blendIn(a, b, c, d []uint64, m0, m2, m3 uint64) {
	n := len(a)
	b, c, d = b[:n], c[:n], d[:n]
	if k := n &^ 3; useAVX2 && k > 0 {
		blendInAVX2(&a[0], &b[0], &c[0], &d[0], k, m0, m2, m3)
		a, b, c, d = a[k:], b[k:], c[k:], d[k:]
	}
	m02 := m0 | m2
	for p, av := range a {
		bv, cv, dv := b[p], c[p], d[p]
		a[p] = av ^ (av^cv)&m2 ^ (av^bv)&m3
		b[p] = bv ^ (bv^dv)&m02 ^ (bv^av)&m3
		c[p] = cv ^ (cv^bv)&m0 ^ (cv^av)&m2
		d[p] = dv ^ (dv^cv)&m0 ^ (dv^bv)&m2
	}
}

// blendOut is fourOut's kernel, over its quarters' runs as blendIn.
func blendOut(a, b, c, d []uint64, m0, m3 uint64) {
	n := len(a)
	b, c, d = b[:n], c[:n], d[:n]
	if k := n &^ 3; useAVX2 && k > 0 {
		blendOutAVX2(&a[0], &b[0], &c[0], &d[0], k, m0, m3)
		a, b, c, d = a[k:], b[k:], c[k:], d[k:]
	}
	for p, av := range a {
		bv, cv, dv := b[p], c[p], d[p]
		a[p] = av ^ (av^bv)&m3
		b[p] = bv ^ (bv^dv)&m0 ^ (bv^cv)&m3
		c[p] = cv ^ (cv^bv)&m0 ^ (cv^av)&m3
		d[p] = dv ^ (dv^cv)&m0
	}
}

// shuffle perfect-shuffles [lo,hi): position lo+i goes to lo+2i, lo+h+i
// to lo+2i+1.
func (pp *Packed) shuffle(bval, btmp []uint64, lo, hi int) {
	P := pp.P
	h := (hi - lo) / 2
	copy(btmp[:(hi-lo)*P], bval[lo*P:hi*P])
	for i := 0; i < h; i++ {
		copy(bval[(lo+2*i)*P:(lo+2*i+1)*P], btmp[i*P:(i+1)*P])
		copy(bval[(lo+2*i+1)*P:(lo+2*i+2)*P], btmp[(h+i)*P:(h+i+1)*P])
	}
}

// unshuffle inverts shuffle over [lo,hi): even positions gather into the
// first half, odd into the second.
func (pp *Packed) unshuffle(bval, btmp []uint64, lo, hi int) {
	P := pp.P
	h := (hi - lo) / 2
	copy(btmp[:(hi-lo)*P], bval[lo*P:hi*P])
	for i := 0; i < h; i++ {
		copy(bval[(lo+i)*P:(lo+i+1)*P], btmp[2*i*P:(2*i+1)*P])
		copy(bval[(lo+h+i)*P:(lo+h+i+1)*P], btmp[(2*i+1)*P:(2*i+2)*P])
	}
}

// rankLanes applies OpRank — the stable 0s-before-1s partition — to every
// lane of [lo,hi) independently: lane l's bits are gathered from the copy
// scratch in partition order and rewritten bit by bit. tp is the tag
// plane.
func (pp *Packed) rankLanes(bval, btmp []uint64, lo, hi, tp int) {
	P := pp.P
	copy(btmp[lo*P:hi*P], bval[lo*P:hi*P])
	clear(bval[lo*P : hi*P])
	for l := uint(0); l < PackedLanes; l++ {
		bit := uint64(1) << l
		z := lo
		for i := lo; i < hi; i++ { // 0-tagged packets keep order up front
			if btmp[i*P+tp]&bit == 0 {
				copyLane(bval[z*P:(z+1)*P], btmp[i*P:(i+1)*P], bit)
				z++
			}
		}
		for i := lo; i < hi; i++ { // 1-tagged packets keep order behind
			if btmp[i*P+tp]&bit != 0 {
				copyLane(bval[z*P:(z+1)*P], btmp[i*P:(i+1)*P], bit)
				z++
			}
		}
	}
}

// copyLane ORs the single lane selected by bit from src into dst across
// all planes (dst's lane bits start zeroed).
func copyLane(dst, src []uint64, bit uint64) {
	for o := range dst {
		dst[o] |= src[o] & bit
	}
}

// blendRange writes dst as a per-lane select between two sources: lanes
// in d read from src1, the rest from src0.
func blendRange(dst, src0, src1 []uint64, d uint64) {
	n := len(dst)
	src0, src1 = src0[:n], src1[:n]
	if k := n &^ 3; useAVX2 && k > 0 {
		blendRangeAVX2(&dst[0], &src0[0], &src1[0], k, d)
		dst, src0, src1 = dst[k:], src0[k:], src1[k:]
	}
	for p, a := range src0 {
		dst[p] = a ^ ((a ^ src1[p]) & d)
	}
}

// Transpose64 transposes a 64×64 bit matrix in place (row r bit c ↔
// row c bit r) by recursive block swaps — the classic Hacker's Delight
// construction, three XOR passes per halving level: at block size j, the
// high-j bits of row k exchange with the low-j bits of row k+j within
// every 2j×2j diagonal block. Where the CPU has AVX2 the levels run on
// 4-row vectors in assembly; the Go loop is the reference.
func Transpose64(a *[64]uint64) {
	if useAVX2 {
		transpose64AVX2(a)
		return
	}
	// Each level: j is the block size, the mask selects the low j bits of
	// every 2j bit group. Levels are unrolled so shifts and masks are
	// compile-time constants.
	for k := 0; k < 32; k++ {
		t := ((a[k] >> 32) ^ a[k+32]) & 0x00000000FFFFFFFF
		a[k] ^= t << 32
		a[k+32] ^= t
	}
	for k0 := 0; k0 < 64; k0 += 32 {
		for k := k0; k < k0+16; k++ {
			t := ((a[k] >> 16) ^ a[k+16]) & 0x0000FFFF0000FFFF
			a[k] ^= t << 16
			a[k+16] ^= t
		}
	}
	for k0 := 0; k0 < 64; k0 += 16 {
		for k := k0; k < k0+8; k++ {
			t := ((a[k] >> 8) ^ a[k+8]) & 0x00FF00FF00FF00FF
			a[k] ^= t << 8
			a[k+8] ^= t
		}
	}
	for k0 := 0; k0 < 64; k0 += 8 {
		for k := k0; k < k0+4; k++ {
			t := ((a[k] >> 4) ^ a[k+4]) & 0x0F0F0F0F0F0F0F0F
			a[k] ^= t << 4
			a[k+4] ^= t
		}
	}
	for k0 := 0; k0 < 64; k0 += 4 {
		for k := k0; k < k0+2; k++ {
			t := ((a[k] >> 2) ^ a[k+2]) & 0x3333333333333333
			a[k] ^= t << 2
			a[k+2] ^= t
		}
	}
	for k := 0; k < 64; k += 2 {
		t := ((a[k] >> 1) ^ a[k+1]) & 0x5555555555555555
		a[k] ^= t << 1
		a[k+1] ^= t
	}
}

// transpose16x4Cols applies Transpose16x4 to each of the 64 columns of
// a: column l is the 16-word matrix a[0][l], …, a[15][l]. Extract and
// LoadDestLanes flip all 64 lanes' matrices in one call this way, the
// butterflies running between rows. Where the CPU has AVX2 it runs in
// assembly, four columns per instruction.
func transpose16x4Cols(a *[16][64]uint64) {
	if useAVX2 {
		transpose16x4ColsAVX2(a)
		return
	}
	for j, m := uint(8), uint64(0x00FF00FF00FF00FF); j != 0; j, m = j>>1, m^(m<<(j>>1)) {
		for k := uint(0); k < 16; k = (k + j + 1) &^ j {
			x, y := &a[k], &a[k+j]
			for l, xv := range x {
				t := ((xv >> j) ^ y[l]) & m
				x[l] = xv ^ t<<j
				y[l] ^= t
			}
		}
	}
}

// Transpose16x4 transposes four 16×16 bit matrices at once: each 16-bit
// quarter of the 16 words is one matrix, and the butterfly masks repeat
// per quarter so all four flip in the same three passes per level. It is
// the per-lane step of Extract's stage two, where bit 16g+i of row b is
// index bit b of position 4i+g, so the transposed row i holds the four
// finished 16-bit index values of positions 4i..4i+3 (and of
// LoadDestLanes' inverse packing — bit-matrix transposition is an
// involution). Both run it on all 64 lanes at once through
// transpose16x4Cols, which tests check against this definition.
func Transpose16x4(a *[16]uint64) {
	for j, m := uint(8), uint64(0x00FF00FF00FF00FF); j != 0; j, m = j>>1, m^(m<<(j>>1)) {
		for k := uint(0); k < 16; k = (k + j + 1) &^ j {
			t := ((a[k] >> j) ^ a[k+j]) & m
			a[k] ^= t << j
			a[k+j] ^= t
		}
	}
}
