// Scalar execution of routing-plan programs: one packed packet word per
// network position, every data movement a single-word move. The runner
// keeps two registers across the step stream — the current tag shift
// (retargeted by OpSetTag) and the running ones count of the active
// patch-up chain — and performs zero steady-state heap allocations: copy
// scratch and the select-replay buffer come from the program's pool.
package planner

import "fmt"

// Run executes the program in place over vals, drawing copy scratch and
// the select-replay buffer from the program's pool. len(vals) must equal
// N: this hot-loop entry treats a mismatch as a caller bug and panics
// (clients validate at their public boundaries).
func (p *Program) Run(vals []uint64) {
	if len(vals) != p.layout.N {
		panic(fmt.Sprintf("planner: Program(%d).Run over %d values", p.layout.N, len(vals)))
	}
	sc := p.pool.Get().(*Scratch)
	p.run(vals, sc.tmp, sc.sel, nil)
	p.pool.Put(sc)
}

// RunScratch executes the program in place over sc.Val using sc's own
// copy scratch and select buffer — the entry for clients that packed
// their request into a borrowed Scratch.
func (p *Program) RunScratch(sc *Scratch) {
	p.run(sc.Val, sc.tmp, sc.sel, nil)
}

// run walks the step stream over the packed working array vals, using tmp
// for copy scratch and sel for select record/replay. A non-empty faults
// list wedges packet-word bits at fixed network positions — applied to the
// input load and again after every step, mirroring the netlist engine's
// stuck-at force masks (a stuck wire overrides whatever the step drove
// onto it). The clean path pays one slice-length test per step.
func (p *Program) run(vals []uint64, tmp []uint64, sel []uint8, faults []StuckFault) {
	if len(faults) != 0 {
		applyStuck(vals, faults)
	}
	sh := p.layout.TagShift
	m := int32(0) // running ones count for the active patch-up chain
	for _, st := range p.steps {
		lo, hi := st.Lo, st.Hi
		s := hi - lo
		switch st.Op {
		case OpCmpSwap:
			if a, b := vals[lo], vals[lo+1]; a>>sh&1 > b>>sh&1 {
				vals[lo], vals[lo+1] = b, a
			}
		case OpFourIn:
			q := s / 4
			v := uint8(2*(vals[lo+q]>>sh&1) + vals[lo+3*q]>>sh&1)
			sel[st.Aux] = v
			// INSwap specialized per select: {0,3,1,2}, id, {2,3,0,1},
			// {1,0,2,3} (see swapper.INSwap).
			switch v {
			case 0:
				rotRightQuarters(vals, tmp, lo+q, q) // new(q1,q2,q3) = old(q3,q1,q2)
			case 2:
				swapRanges(vals, lo, lo+2*q, 2*q) // swap halves
			case 3:
				swapRanges(vals, lo, lo+q, q) // swap q0, q1
			}
		case OpFourOut:
			q := s / 4
			// OUTSwap specialized per select: {0,3,1,2}, id, id,
			// {1,2,0,3} (see swapper.OUTSwap).
			switch sel[st.Aux] {
			case 0:
				rotRightQuarters(vals, tmp, lo+q, q) // new(q1,q2,q3) = old(q3,q1,q2)
			case 3:
				rotLeftQuarters(vals, tmp, lo, q) // new(q0,q1,q2) = old(q1,q2,q0)
			}
		case OpShuffleCount:
			h := s / 2
			copy(tmp[lo:hi], vals[lo:hi])
			m = 0
			for i := int32(0); i < h; i++ {
				a, b := tmp[lo+i], tmp[lo+h+i]
				vals[lo+2*i] = a
				vals[lo+2*i+1] = b
				m += int32(a>>sh&1) + int32(b>>sh&1)
			}
		case OpEndsStage:
			for blo := lo; blo < hi; blo += st.Aux {
				for a, b := blo, blo+st.Aux-1; a < b; a, b = a+1, b-1 {
					if va, vb := vals[a], vals[b]; va>>sh&1 > vb>>sh&1 {
						vals[a], vals[b] = vb, va
					}
				}
			}
		case OpCondIn:
			if m >= s/2 {
				m -= s / 2
				sel[st.Aux] = 1
				swapHalves(vals, lo, hi)
			} else {
				sel[st.Aux] = 0
			}
		case OpCondOut:
			if sel[st.Aux] == 1 {
				swapHalves(vals, lo, hi)
			}
		case OpFishSplit:
			k := st.Aux
			bs := s / k
			half := bs / 2
			copy(tmp[lo:hi], vals[lo:hi])
			up, dn := lo, lo+s/2
			for j := int32(0); j < k; j++ {
				blo := lo + j*bs
				a, b := blo, blo+half // clean half, dirty half
				if tmp[blo+half]>>sh&1 == 1 {
					a, b = blo+half, blo
				}
				copy(vals[up:up+half], tmp[a:a+half])
				copy(vals[dn:dn+half], tmp[b:b+half])
				up += half
				dn += half
			}
		case OpFishClean:
			k := st.Aux
			bs := s / k
			copy(tmp[lo:hi], vals[lo:hi])
			zeros := int32(0)
			for j := int32(0); j < k; j++ {
				if tmp[lo+j*bs]>>sh&1 == 0 {
					zeros++
				}
			}
			nextZero, nextOne := int32(0), zeros
			for j := int32(0); j < k; j++ {
				blo := lo + j*bs
				pos := nextOne
				if tmp[blo]>>sh&1 == 0 {
					pos = nextZero
					nextZero++
				} else {
					nextOne++
				}
				dst := lo + pos*bs
				copy(vals[dst:dst+bs], tmp[blo:blo+bs])
			}
		case OpRank:
			copy(tmp[lo:hi], vals[lo:hi])
			zeros := int32(0)
			for i := lo; i < hi; i++ {
				zeros += int32(1 - tmp[i]>>sh&1)
			}
			z, o := lo, lo+zeros
			for i := lo; i < hi; i++ {
				v := tmp[i]
				if v>>sh&1 == 0 {
					vals[z] = v
					z++
				} else {
					vals[o] = v
					o++
				}
			}
		case OpSetTag:
			sh = uint(st.Lo)
		case OpShuffle:
			h := s / 2
			copy(tmp[lo:hi], vals[lo:hi])
			for i := int32(0); i < h; i++ {
				vals[lo+2*i] = tmp[lo+i]
				vals[lo+2*i+1] = tmp[lo+h+i]
			}
		case OpUnshuffle:
			h := s / 2
			copy(tmp[lo:hi], vals[lo:hi])
			for i := int32(0); i < h; i++ {
				vals[lo+i] = tmp[lo+2*i]
				vals[lo+h+i] = tmp[lo+2*i+1]
			}
		case OpSelSwap:
			if sel[st.Aux] != 0 {
				vals[lo], vals[lo+1] = vals[lo+1], vals[lo]
			}
		case OpCmpPair:
			// lo and hi are both positions here (hi not a window bound).
			if a, b := vals[lo], vals[hi]; a>>sh&1 > b>>sh&1 {
				vals[lo], vals[hi] = b, a
			}
		case OpPermute:
			pm := p.perms[st.Aux : st.Aux+s]
			copy(tmp[lo:hi], vals[lo:hi])
			for j := int32(0); j < s; j++ {
				vals[lo+j] = tmp[lo+pm[j]]
			}
		default:
			panic(fmt.Sprintf("planner: run: unknown op %d", st.Op))
		}
		if len(faults) != 0 {
			applyStuck(vals, faults)
		}
	}
}

// rotRightQuarters rotates the three consecutive quarters A, B, C at
// base right by one: new(A, B, C) = old(C, A, B), using one quarter of
// copy scratch.
func rotRightQuarters(vals, tmp []uint64, base, q int32) {
	a, b, c := base, base+q, base+2*q
	copy(tmp[:q], vals[b:b+q])     // save old B
	copy(vals[b:b+q], vals[a:a+q]) // B ← old A
	copy(vals[a:a+q], vals[c:c+q]) // A ← old C
	copy(vals[c:c+q], tmp[:q])     // C ← old B
}

// rotLeftQuarters rotates the three consecutive quarters A, B, C at base
// left by one: new(A, B, C) = old(B, C, A), using one quarter of copy
// scratch.
func rotLeftQuarters(vals, tmp []uint64, base, q int32) {
	a, b, c := base, base+q, base+2*q
	copy(tmp[:q], vals[a:a+q])     // save old A
	copy(vals[a:a+q], vals[b:b+q]) // A ← old B
	copy(vals[b:b+q], vals[c:c+q]) // B ← old C
	copy(vals[c:c+q], tmp[:q])     // C ← old A
}

// swapRanges exchanges vals[a:a+q] and vals[b:b+q] element-wise.
func swapRanges(vals []uint64, a, b, q int32) {
	for i := int32(0); i < q; i++ {
		vals[a+i], vals[b+i] = vals[b+i], vals[a+i]
	}
}

// swapHalves exchanges the two halves of [lo,hi) element-wise.
func swapHalves(vals []uint64, lo, hi int32) {
	h := (hi - lo) / 2
	for i := int32(0); i < h; i++ {
		a, b := lo+i, lo+h+i
		vals[a], vals[b] = vals[b], vals[a]
	}
}
