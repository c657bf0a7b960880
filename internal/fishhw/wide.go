package fishhw

// Wide (64-lane) clocked stepping. The machine's schedule — which block
// traverses which netlist on which clock step — is input-independent;
// only the data words and a handful of select bits depend on the input.
// That means up to 64 independent sorts can ride the same schedule
// simultaneously, one per bit lane, with every datapath traversal a
// single packed pass through the compiled netlist:
//
//   - Uniform control (the group counter of phase A, the dispatch-mux
//     group selects) becomes all-0/all-1 select words shared by every
//     lane.
//   - Data-dependent control stays per-lane: the k-SWAP controls are
//     plain copies of data words (each block's middle bit), and the clean
//     sorter's destination selects are assembled per lane from the lead
//     bits, exactly as the hardware's select registers would latch them.
//   - The clean sorter's position writes become OR-accumulation: the
//     dispatch demultiplexer zeroes every non-selected block, and within
//     a lane each source block lands on a distinct destination, so the
//     unions never collide.
//
// The stats of a wide run equal the scalar run's: the clock issues the
// same macro steps regardless of how many lanes are occupied — which is
// precisely the throughput argument for time-multiplexed hardware.

import (
	"fmt"

	"absort/internal/bitvec"
	"absort/internal/muxnet"
	"absort/internal/netlist"
)

// laneWords converts uniform select bits into packed words (bit b of the
// select is all-0 or all-1 across lanes).
func laneWords(bits []bitvec.Bit) []uint64 {
	out := make([]uint64, len(bits))
	for i, b := range bits {
		if b&1 != 0 {
			out[i] = ^uint64(0)
		}
	}
	return out
}

// traverseWide runs one clocked packed traversal: one macro step moves all
// lanes through the netlist at once.
func (m *run) traverseWide(p *netlist.Compiled, in []uint64) []uint64 {
	out := p.EvalPacked(in)
	m.macroSteps++
	return out
}

func catWords(parts ...[]uint64) []uint64 {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]uint64, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// SortWide sorts up to 64 vectors in one clocked run of the machine: the
// schedule is issued once and every datapath traversal evaluates all
// lanes. Returns the sorted outputs in order plus the run statistics
// (identical to a scalar Sort's — the clock does the same work for 1 lane
// or 64).
func (m *Machine) SortWide(vs []bitvec.Vector) ([]bitvec.Vector, Stats, error) {
	if len(vs) == 0 {
		return nil, Stats{}, nil
	}
	if len(vs) > 64 {
		return nil, Stats{}, fmt.Errorf("fishhw: SortWide with %d vectors (max 64)", len(vs))
	}
	for i, v := range vs {
		if len(v) != m.n {
			return nil, Stats{}, fmt.Errorf("fishhw: SortWide vector %d has %d inputs, want %d", i, len(v), m.n)
		}
	}
	r := &run{Machine: m}
	unitDelays := 0
	g := m.n / m.k

	// Pack: data[i] bit l = vs[l][i].
	data := make([]uint64, m.n)
	for l, v := range vs {
		bit := uint64(1) << uint(l)
		for i, b := range v {
			if b&1 != 0 {
				data[i] |= bit
			}
		}
	}

	// Phase A: funnel each group through the shared sorter; the group
	// counter is uniform across lanes.
	bank := make([]uint64, m.n)
	copy(bank, data)
	passDepth := m.inputMux.Stats().UnitDepth +
		m.groupSorter.Stats().UnitDepth +
		m.outputDemux.Stats().UnitDepth
	for t := 0; t < m.k; t++ {
		sel := laneWords(muxnet.SelectBits(t, m.k))
		grp := r.traverseWide(m.inputMux.Compile(), catWords(sel, data))
		sorted := r.traverseWide(m.groupSorter.Compile(), grp)
		routed := r.traverseWide(m.outputDemux.Compile(), catWords(sel, sorted))
		copy(bank[t*g:(t+1)*g], routed[t*g:(t+1)*g])
		unitDelays += passDepth
	}

	out, delay := r.mergeLevelWide(0, bank, len(vs))
	unitDelays += delay

	st := Stats{
		MacroSteps:   r.macroSteps,
		UnitDelays:   unitDelays,
		SwitchCost:   m.SwitchCost(),
		RegisterBits: m.RegisterBits(),
	}
	// Unpack lanes.
	res := make([]bitvec.Vector, len(vs))
	for l := range vs {
		v := make(bitvec.Vector, m.n)
		for i, w := range out {
			v[i] = bitvec.Bit((w >> uint(l)) & 1)
		}
		res[l] = v
	}
	return res, st, nil
}

// mergeLevelWide is mergeLevel on packed lanes.
func (m *run) mergeLevelWide(idx int, data []uint64, lanes int) ([]uint64, int) {
	if idx == len(m.levels) {
		out := m.traverseWide(m.kSorter.Compile(), data)
		return out, m.kSorter.Stats().UnitDepth
	}
	lv := m.levels[idx]
	s := lv.s
	bs := s / m.k

	// k-SWAP controls: each block's middle bit — in packed form simply a
	// copy of the corresponding data word per block.
	ctrl := make([]uint64, m.k)
	for j := 0; j < m.k; j++ {
		ctrl[j] = data[j*bs+bs/2]
	}
	swapped := m.traverseWide(lv.kswap.Compile(), catWords(ctrl, data))
	delay := lv.kswap.Stats().UnitDepth
	upper := append([]uint64{}, swapped[:s/2]...)
	lower := append([]uint64{}, swapped[s/2:]...)

	upperSorted, dUp := m.cleanSortWide(idx, upper, lanes)
	lowerSorted, dLo := m.mergeLevelWide(idx+1, lower, lanes)
	if dLo > dUp {
		delay += dLo
	} else {
		delay += dUp
	}

	out := m.traverseWide(lv.twoMerge.Compile(), catWords(upperSorted, lowerSorted))
	delay += lv.twoMerge.Stats().UnitDepth
	return out, delay
}

// cleanSortWide is cleanSort on packed lanes: the k-input sorter pass and
// the per-block dispatch schedule are uniform; only the destination
// select words differ per lane.
func (m *run) cleanSortWide(idx int, u []uint64, lanes int) ([]uint64, int) {
	lv := m.levels[idx]
	h := len(u)
	bs := h / m.k
	w := 0
	for 1<<uint(w) < m.k {
		w++
	}

	leads := make([]uint64, m.k)
	for j := 0; j < m.k; j++ {
		leads[j] = u[j*bs]
	}
	m.traverseWide(m.kSorter.Compile(), leads) // hardware sorts the leads; ranks re-derived below
	delay := m.kSorter.Stats().UnitDepth

	// Per-lane destination ranks: zeros go to the front in arrival order,
	// ones after them — same bookkeeping as the scalar path, once per lane.
	pos := make([][]int, m.k) // pos[j][lane]
	for j := range pos {
		pos[j] = make([]int, lanes)
	}
	for l := 0; l < lanes; l++ {
		zeros := 0
		for j := 0; j < m.k; j++ {
			if (leads[j]>>uint(l))&1 == 0 {
				zeros++
			}
		}
		nextZero, nextOne := 0, zeros
		for j := 0; j < m.k; j++ {
			if (leads[j]>>uint(l))&1 == 0 {
				pos[j][l] = nextZero
				nextZero++
			} else {
				pos[j][l] = nextOne
				nextOne++
			}
		}
	}

	out := make([]uint64, h)
	for j := 0; j < m.k; j++ {
		// Source select is uniform; destination select is assembled per
		// lane from the rank of block j in that lane.
		srcSel := laneWords(muxnet.SelectBits(j, m.k))
		dstSel := make([]uint64, w)
		for l := 0; l < lanes; l++ {
			pj := pos[j][l]
			for b := 0; b < w; b++ {
				if (pj>>uint(w-1-b))&1 != 0 {
					dstSel[b] |= uint64(1) << uint(l)
				}
			}
		}
		blk := m.traverseWide(lv.dispMux.Compile(), catWords(srcSel, u))
		routed := m.traverseWide(lv.dispDmx.Compile(), catWords(dstSel, blk))
		// The demux zeroes every non-selected block; per lane the ranks
		// are a permutation of the blocks, so OR-accumulation composes the
		// position writes without collisions.
		for i := range out {
			out[i] |= routed[i]
		}
		delay += lv.dispMux.Stats().UnitDepth + lv.dispDmx.Stats().UnitDepth
	}
	return out, delay
}
