package netlist

// This file is the compiled, bit-parallel evaluation engine. A Circuit is
// lowered once into a flat struct-of-arrays instruction stream (Compiled)
// whose every operation is a branch-free bitwise expression on machine
// words. Because the paper's networks sort *binary* sequences, each of the
// twelve primitive kinds has an exact SWAR (SIMD-within-a-register)
// realization, so one pass over the stream evaluates 64 independent input
// vectors at once — one per bit lane of a uint64:
//
//	Kind        lowering (per 64-lane word)
//	----        ---------------------------
//	Not         ^a                      (lanes are independent bits)
//	And/Or/Xor  a&b, a|b, a^b
//	Comparator  min = a&b, max = a|b
//	Switch2x2   d := (a^b)&ctrl;  lo, hi = a^d, b^d
//	Mux21       a0 ^ ((a0^a1)&sel)
//	Demux12     a&^sel, a&sel
//	Switch4x4   dedicated 4-lane op: one-hot select masks
//	            m3=s1&s0, m2=s1&^s0, m1=s0&^s1, m0=^(s1|s0);
//	            out_i = OR over sel of data[perm[sel][i]] & m_sel
//	Const0/1    preloaded words 0 / ^0
//	Input       preloaded from the packed input block
//
// Input and constant components carry no logic, so compilation hoists them
// out of the stream entirely: an evaluation loads the input/constant wires
// and then runs only real operations, with no per-component interface
// dispatch, no switch-miss cost, and no per-call allocation (wire scratch
// comes from a sync.Pool).
//
// Single-vector evaluation reuses the same kernel with one live lane:
// every lowering above is lane-wise, so lane 0 computes exactly the scalar
// semantics of Circuit.Eval.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"absort/internal/bitvec"
)

// Opcodes of the compiled stream. KindInput, KindConst0 and KindConst1 are
// hoisted into preload tables and never appear as ops.
const (
	opNot uint8 = iota
	opAnd
	opOr
	opXor
	opCmp
	opSwitch
	opMux
	opDemux
	opSw4
)

// sw4op is the side table entry of a Switch4x4 op: the main stream stores
// only an index into this table (keeping the hot arrays dense).
type sw4op struct {
	s1, s0 int32
	data   [4]int32
	out    [4]int32
	perms  [4]Perm4
}

// constLoad preloads a constant wire with an all-lanes 0 or all-lanes 1
// word before the stream runs.
type constLoad struct {
	wire int32
	val  uint64
}

// Compiled is a Circuit lowered to a flat SWAR instruction stream. It is
// immutable after Compile and safe for concurrent use; per-evaluation wire
// scratch is recycled through an internal pool, so steady-state evaluation
// does not allocate.
type Compiled struct {
	name   string
	nwires int

	inputWires []int32 // wire of input terminal i, in input order
	outWires   []int32 // wire of output j
	consts     []constLoad

	// The instruction stream, struct-of-arrays. For op i:
	//	opNot:    o0 = ^a
	//	opAnd:    o0 = a & b
	//	opOr:     o0 = a | b
	//	opXor:    o0 = a ^ b
	//	opCmp:    o0 = a & b, o1 = a | b
	//	opSwitch: s = ctrl; o0, o1 = swap(a, b) where s
	//	opMux:    s = sel;  o0 = a ^ ((a^b) & s)   (a = a0, b = a1)
	//	opDemux:  s = sel;  o0 = a &^ s, o1 = a & s
	//	opSw4:    a = index into sw4
	opcode []uint8
	a, b   []int32
	s      []int32
	o0, o1 []int32
	sw4    []sw4op

	scratch sync.Pool // *[]uint64, len nwires
}

// Compile lowers the circuit into its SWAR instruction stream. Use
// Circuit.Compile for the cached per-circuit instance.
func Compile(c *Circuit) *Compiled {
	p := &Compiled{
		name:       c.name,
		nwires:     c.nwires,
		inputWires: make([]int32, 0, len(c.inputs)),
		outWires:   make([]int32, len(c.outs)),
	}
	for i, w := range c.outs {
		p.outWires[i] = int32(w)
	}
	push := func(op uint8, a, b, s, o0, o1 int32) {
		p.opcode = append(p.opcode, op)
		p.a = append(p.a, a)
		p.b = append(p.b, b)
		p.s = append(p.s, s)
		p.o0 = append(p.o0, o0)
		p.o1 = append(p.o1, o1)
	}
	for _, comp := range c.comps {
		in, out := comp.in, comp.out
		switch comp.kind {
		case KindInput:
			p.inputWires = append(p.inputWires, int32(out[0]))
		case KindConst0:
			p.consts = append(p.consts, constLoad{int32(out[0]), 0})
		case KindConst1:
			p.consts = append(p.consts, constLoad{int32(out[0]), ^uint64(0)})
		case KindNot:
			push(opNot, int32(in[0]), 0, 0, int32(out[0]), 0)
		case KindAnd:
			push(opAnd, int32(in[0]), int32(in[1]), 0, int32(out[0]), 0)
		case KindOr:
			push(opOr, int32(in[0]), int32(in[1]), 0, int32(out[0]), 0)
		case KindXor:
			push(opXor, int32(in[0]), int32(in[1]), 0, int32(out[0]), 0)
		case KindComparator:
			push(opCmp, int32(in[0]), int32(in[1]), 0, int32(out[0]), int32(out[1]))
		case KindSwitch2x2:
			push(opSwitch, int32(in[1]), int32(in[2]), int32(in[0]), int32(out[0]), int32(out[1]))
		case KindMux21:
			push(opMux, int32(in[1]), int32(in[2]), int32(in[0]), int32(out[0]), 0)
		case KindDemux12:
			push(opDemux, int32(in[1]), 0, int32(in[0]), int32(out[0]), int32(out[1]))
		case KindSwitch4x4:
			t := sw4op{
				s1:    int32(in[0]),
				s0:    int32(in[1]),
				data:  [4]int32{int32(in[2]), int32(in[3]), int32(in[4]), int32(in[5])},
				out:   [4]int32{int32(out[0]), int32(out[1]), int32(out[2]), int32(out[3])},
				perms: *comp.perms,
			}
			push(opSw4, int32(len(p.sw4)), 0, 0, 0, 0)
			p.sw4 = append(p.sw4, t)
		default:
			panic(fmt.Sprintf("netlist: compile: unknown kind %v", comp.kind))
		}
	}
	p.scratch.New = func() any {
		buf := make([]uint64, p.nwires)
		return &buf
	}
	return p
}

// Compile returns the circuit's compiled SWAR program, lowering it on
// first use and caching the result (Circuit is immutable, so the program
// is shared safely).
func (c *Circuit) Compile() *Compiled {
	if p := c.compiled.Load(); p != nil {
		return p
	}
	p := Compile(c)
	if !c.compiled.CompareAndSwap(nil, p) {
		return c.compiled.Load()
	}
	return p
}

// compiledCache is the lazily-populated compiled program of a Circuit.
// Declared as its own type so Circuit's zero value stays usable.
type compiledCache = atomic.Pointer[Compiled]

// Name returns the name of the compiled circuit.
func (p *Compiled) Name() string { return p.name }

// NumInputs returns the number of input terminals.
func (p *Compiled) NumInputs() int { return len(p.inputWires) }

// NumOutputs returns the number of output wires.
func (p *Compiled) NumOutputs() int { return len(p.outWires) }

func (p *Compiled) getScratch() *[]uint64  { return p.scratch.Get().(*[]uint64) }
func (p *Compiled) putScratch(v *[]uint64) { p.scratch.Put(v) }

// run executes the instruction stream over the wire words in val. Every op
// is branch-free on all 64 lanes.
func (p *Compiled) run(val []uint64) {
	opcode, aw, bw, sw, o0w, o1w := p.opcode, p.a, p.b, p.s, p.o0, p.o1
	for i, op := range opcode {
		switch op {
		case opNot:
			val[o0w[i]] = ^val[aw[i]]
		case opAnd:
			val[o0w[i]] = val[aw[i]] & val[bw[i]]
		case opOr:
			val[o0w[i]] = val[aw[i]] | val[bw[i]]
		case opXor:
			val[o0w[i]] = val[aw[i]] ^ val[bw[i]]
		case opCmp:
			a, b := val[aw[i]], val[bw[i]]
			val[o0w[i]] = a & b
			val[o1w[i]] = a | b
		case opSwitch:
			a, b := val[aw[i]], val[bw[i]]
			d := (a ^ b) & val[sw[i]]
			val[o0w[i]] = a ^ d
			val[o1w[i]] = b ^ d
		case opMux:
			a0, a1 := val[aw[i]], val[bw[i]]
			val[o0w[i]] = a0 ^ ((a0 ^ a1) & val[sw[i]])
		case opDemux:
			a, sel := val[aw[i]], val[sw[i]]
			val[o0w[i]] = a &^ sel
			val[o1w[i]] = a & sel
		case opSw4:
			t := &p.sw4[aw[i]]
			s1, s0 := val[t.s1], val[t.s0]
			m3 := s1 & s0
			m2 := s1 &^ s0
			m1 := s0 &^ s1
			m0 := ^(s1 | s0)
			d := [4]uint64{val[t.data[0]], val[t.data[1]], val[t.data[2]], val[t.data[3]]}
			for k := 0; k < 4; k++ {
				val[t.out[k]] = d[t.perms[0][k]]&m0 | d[t.perms[1][k]]&m1 |
					d[t.perms[2][k]]&m2 | d[t.perms[3][k]]&m3
			}
		}
	}
}

// load preloads input and constant wires into val. in holds one word per
// input terminal (64 lanes each).
func (p *Compiled) load(val []uint64, in []uint64) {
	for i, w := range p.inputWires {
		val[w] = in[i]
	}
	for _, cl := range p.consts {
		val[cl.wire] = cl.val
	}
}

// EvalPackedInto evaluates 64 lane-packed input vectors: in holds one
// uint64 per input terminal whose bit j is input vector j's value on that
// terminal; dst (one uint64 per output) receives the packed outputs. dst
// is returned. The call does not allocate.
func (p *Compiled) EvalPackedInto(dst, in []uint64) []uint64 {
	if len(in) != len(p.inputWires) {
		panic(fmt.Sprintf("netlist %q: EvalPacked with %d input words, want %d",
			p.name, len(in), len(p.inputWires)))
	}
	if len(dst) != len(p.outWires) {
		panic(fmt.Sprintf("netlist %q: EvalPacked with %d output words, want %d",
			p.name, len(dst), len(p.outWires)))
	}
	buf := p.getScratch()
	val := *buf
	p.load(val, in)
	p.run(val)
	for j, w := range p.outWires {
		dst[j] = val[w]
	}
	p.putScratch(buf)
	return dst
}

// EvalPacked is EvalPackedInto with a freshly allocated output slice.
func (p *Compiled) EvalPacked(in []uint64) []uint64 {
	return p.EvalPackedInto(make([]uint64, len(p.outWires)), in)
}

// PackInputs packs up to 64 equal-length input vectors into lane-packed
// words: word i's bit j is inputs[j][i]. dst must have one word per input
// terminal; unused lanes are zero.
func (p *Compiled) PackInputs(dst []uint64, inputs []bitvec.Vector) {
	n := len(p.inputWires)
	if len(inputs) > 64 {
		panic(fmt.Sprintf("netlist %q: PackInputs with %d vectors (max 64)", p.name, len(inputs)))
	}
	for i := 0; i < n; i++ {
		dst[i] = 0
	}
	for j, v := range inputs {
		if len(v) != n {
			panic(fmt.Sprintf("netlist %q: PackInputs vector %d has %d bits, want %d",
				p.name, j, len(v), n))
		}
		bit := uint64(1) << uint(j)
		for i, b := range v {
			if b&1 != 0 {
				dst[i] |= bit
			}
		}
	}
}

// UnpackOutputs is the inverse of PackInputs on the output side: it
// extracts `count` output vectors from the packed output words.
func (p *Compiled) UnpackOutputs(words []uint64, count int) []bitvec.Vector {
	out := make([]bitvec.Vector, count)
	flat := make(bitvec.Vector, count*len(p.outWires))
	for j := 0; j < count; j++ {
		v := flat[j*len(p.outWires) : (j+1)*len(p.outWires)]
		for i, w := range words {
			v[i] = bitvec.Bit((w >> uint(j)) & 1)
		}
		out[j] = v
	}
	return out
}

// EvalWide evaluates up to 64 input vectors in a single packed pass and
// returns their outputs in order. It is the one-block building brick of
// EvalBatch.
func (p *Compiled) EvalWide(inputs []bitvec.Vector) []bitvec.Vector {
	if len(inputs) == 0 {
		return nil
	}
	in := make([]uint64, len(p.inputWires))
	out := make([]uint64, len(p.outWires))
	p.PackInputs(in, inputs)
	p.EvalPackedInto(out, in)
	return p.UnpackOutputs(out, len(inputs))
}

// EvalInto evaluates a single input vector through the compiled stream,
// writing the output bits into dst (len NumOutputs) and returning it. Only
// lane 0 is live; the SWAR lowerings are lane-wise, so this reproduces
// Circuit.Eval exactly while sharing the compiled kernel. The call does
// not allocate.
func (p *Compiled) EvalInto(dst bitvec.Vector, in bitvec.Vector) bitvec.Vector {
	if len(in) != len(p.inputWires) {
		panic(fmt.Sprintf("netlist %q: Eval with %d inputs, want %d",
			p.name, len(in), len(p.inputWires)))
	}
	if len(dst) != len(p.outWires) {
		panic(fmt.Sprintf("netlist %q: EvalInto with %d outputs, want %d",
			p.name, len(dst), len(p.outWires)))
	}
	buf := p.getScratch()
	val := *buf
	for i, w := range p.inputWires {
		val[w] = uint64(in[i] & 1)
	}
	for _, cl := range p.consts {
		val[cl.wire] = cl.val
	}
	p.run(val)
	for j, w := range p.outWires {
		dst[j] = bitvec.Bit(val[w] & 1)
	}
	p.putScratch(buf)
	return dst
}

// Eval is EvalInto with a freshly allocated output vector; it is the
// drop-in compiled replacement for Circuit.Eval.
func (p *Compiled) Eval(in bitvec.Vector) bitvec.Vector {
	return p.EvalInto(make(bitvec.Vector, len(p.outWires)), in)
}
