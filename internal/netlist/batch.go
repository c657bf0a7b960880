package netlist

import (
	"runtime"
	"sync"
	"sync/atomic"

	"absort/internal/bitvec"
)

// EvalBatch evaluates the circuit on many inputs concurrently. Inputs are
// packed into 64-lane blocks and run through the compiled SWAR engine
// (see compile.go), with blocks distributed across workers goroutines
// (GOMAXPROCS when workers ≤ 0) by a lock-free atomic cursor. Each worker
// reuses its own pack/unpack scratch, so the sweep does not allocate per
// input beyond the returned vectors.
func (c *Circuit) EvalBatch(inputs []bitvec.Vector, workers int) []bitvec.Vector {
	return c.Compile().EvalBatch(inputs, workers)
}

// EvalBatch evaluates many inputs through the packed wide engine: inputs
// are packed 64 to a block, each block is evaluated in one branch-free
// pass, and the results are unpacked in order. Blocks are distributed
// across workers goroutines (GOMAXPROCS when workers ≤ 0) with an atomic
// cursor; each worker keeps its own pack/unpack word scratch.
func (p *Compiled) EvalBatch(inputs []bitvec.Vector, workers int) []bitvec.Vector {
	nin, nout := len(p.inputWires), len(p.outWires)
	if len(inputs) == 0 {
		return nil
	}
	out := make([]bitvec.Vector, len(inputs))
	flat := make(bitvec.Vector, len(inputs)*nout)
	for i := range out {
		out[i] = flat[i*nout : (i+1)*nout]
	}
	blocks := (len(inputs) + 63) / 64
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > blocks {
		workers = blocks
	}
	sweep := func(inW, outW []uint64, cursor *atomic.Int64) {
		for {
			blk := int(cursor.Add(1)) - 1
			if blk >= blocks {
				return
			}
			lo := blk * 64
			hi := lo + 64
			if hi > len(inputs) {
				hi = len(inputs)
			}
			p.PackInputs(inW, inputs[lo:hi])
			p.EvalPackedInto(outW, inW)
			for j := lo; j < hi; j++ {
				lane := uint(j - lo)
				v := out[j]
				for i, w := range outW {
					v[i] = bitvec.Bit((w >> lane) & 1)
				}
			}
		}
	}
	var cursor atomic.Int64
	if workers <= 1 {
		sweep(make([]uint64, nin), make([]uint64, nout), &cursor)
		return out
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sweep(make([]uint64, nin), make([]uint64, nout), &cursor)
		}()
	}
	wg.Wait()
	return out
}
