// Compiled routing plans: each routing engine's recursive replay
// (mmSort / prefixSort / fishKMerge / ranking) lowers once per
// (n, engine, k) into a flat step program on the shared routing-plan IR
// of internal/planner — this package contributes only the lowering
// (engine → builder calls) and the concentrator-specific packet-word
// packing; the step walk itself, the scratch pooling, and the 64-lane
// SWAR replay all live in the planner.
//
// Execution runs over packed packet words: bit 63 carries the routing tag
// and the low 63 bits ride along as opaque payload (the packet index), so
// every data movement is a single-word move. A Plan performs zero
// steady-state heap allocations per route: all per-route state lives in
// the program's scratch pool.
package concentrator

import (
	"fmt"
	"sync/atomic"

	"absort/internal/bitvec"
	"absort/internal/core"
	"absort/internal/planner"
)

// TagBit is the packed-word bit that carries a packet's routing tag
// through plan execution; the low 63 bits are opaque payload.
const TagBit = uint64(1) << 63

// tagShift is the packet-word bit position of TagBit.
const tagShift = 63

// Plan is a compiled routing program for one (n, engine, k)
// configuration. It is immutable after construction and safe for
// concurrent use: every execution draws its scratch state from the
// underlying program's pool.
type Plan struct {
	n      int
	engine Engine
	k      int
	prog   *planner.Program
}

// NewPlan compiles the routing plan for an n-input concentrating sort
// over any registered engine: the engine's Sort lowering runs over the
// whole width. For engines with a tuning parameter, k ≤ 0 selects the
// engine's default; parameterless engines ignore it.
// Malformed arguments panic, matching the scalar Route* functions.
func NewPlan(n int, engine Engine, k int) *Plan {
	if !core.IsPow2(n) {
		panic(fmt.Sprintf("concentrator: NewPlan(%d): n not a power of two", n))
	}
	kk, err := planner.ResolveK(engine, n, k)
	if err != nil {
		panic(fmt.Sprintf("concentrator: NewPlan(%d, %v, k=%d): %v", n, engine, k, err))
	}
	k = kk
	spec, _ := planner.Lookup(engine)
	var b planner.Builder
	spec.Sort(&b, 0, int32(n), k)
	prog := b.Compile(planner.Layout{N: n, FrontPlanes: 1, TagShift: tagShift})
	return &Plan{n: n, engine: engine, k: k, prog: prog}
}

// N returns the input width of the plan.
func (p *Plan) N() int { return p.n }

// Engine returns the routing engine the plan was lowered from.
func (p *Plan) Engine() Engine { return p.engine }

// K returns the fish group count (meaningless for non-fish engines).
func (p *Plan) K() int { return p.k }

// NumSteps returns the length of the lowered step program.
func (p *Plan) NumSteps() int { return p.prog.NumSteps() }

// Program returns the underlying planner-IR program (shared, immutable).
func (p *Plan) Program() *planner.Program { return p.prog }

// RouteInto computes the permutation (receives-from form, as the scalar
// Route* functions) realized by the plan's network on the given tags,
// writing it into out. It performs no steady-state heap allocations and
// returns a validated error — never a panic — on a malformed tag vector
// or output buffer, so one bad request cannot take down a serving
// process (the same contract as RouteBatch).
func (p *Plan) RouteInto(out []int, tags bitvec.Vector) error {
	if len(tags) != p.n {
		return fmt.Errorf("concentrator: Plan(%d).RouteInto: vector has %d tags",
			p.n, len(tags))
	}
	if len(out) != p.n {
		return fmt.Errorf("concentrator: Plan(%d).RouteInto: output buffer has %d slots",
			p.n, len(out))
	}
	sc := p.prog.Get()
	for i, t := range tags {
		sc.Val[i] = uint64(t&1)<<tagShift | uint64(i)
	}
	p.prog.RunScratch(sc)
	for j, v := range sc.Val {
		out[j] = int(v &^ TagBit)
	}
	p.prog.Put(sc)
	return nil
}

// Route is RouteInto with a freshly allocated result.
func (p *Plan) Route(tags bitvec.Vector) ([]int, error) {
	out := make([]int, p.n)
	if err := p.RouteInto(out, tags); err != nil {
		return nil, err
	}
	return out, nil
}

// PlanFor returns the shared compiled plan for (n, engine, k), lowering it
// on first use. Parameterless engines normalize k to 0 so equivalent
// requests share one entry. The backing store is the process-wide bounded
// LRU of internal/planner: a cold (n, engine, k) beyond the capacity
// recompiles rather than growing memory, and evicted plans stay valid for
// existing holders (plans are immutable).
func PlanFor(n int, engine Engine, k int) *Plan {
	if spec, ok := planner.Lookup(engine); !ok || spec.CheckK == nil {
		k = 0
	}
	key := planner.PlanKey{Kind: planner.KindConcentrator, N: n, Engine: int8(engine), K: k}
	if p, ok := planner.Shared.Get(key); ok {
		return p.(*Plan)
	}
	// Compile outside the cache lock: lowering large plans is slow and
	// must not serialize unrelated lookups. A concurrent duplicate
	// compilation is harmless — Add resolves the race LoadOrStore-style.
	return planner.Shared.Add(key, NewPlan(n, engine, k)).(*Plan)
}

// Compile returns the concentrator's routing plan, lowering it on first
// use and caching it behind an atomic pointer (mirroring
// netlist.Circuit.Compile; Concentrator is immutable, so the plan is
// shared safely). It panics only on a concentrator that could not have
// come out of New (unknown engine, malformed fish group count); the
// validated routing entry points (ConcentrateInto, ConcentratePacked)
// reach the plan through compileChecked and return errors instead.
func (c *Concentrator) Compile() *Plan {
	p, err := c.compileChecked()
	if err != nil {
		panic(fmt.Sprintf("concentrator: Compile: %v", err))
	}
	return p
}

// compileChecked is Compile with validated error returns: an unknown
// engine or a malformed fish group count — states only reachable by
// constructing a Concentrator literal around New — yields an error with
// the same message the other routing entry points use, never a panic.
func (c *Concentrator) compileChecked() (*Plan, error) {
	if p := c.plan.Load(); p != nil {
		return p, nil
	}
	if !core.IsPow2(c.n) {
		return nil, fmt.Errorf("concentrator: n=%d is not a positive power of two", c.n)
	}
	if _, err := planner.ResolveK(c.engine, c.n, c.k); err != nil {
		return nil, fmt.Errorf("concentrator: %w", err)
	}
	p := PlanFor(c.n, c.engine, c.k)
	if !c.plan.CompareAndSwap(nil, p) {
		return c.plan.Load(), nil
	}
	return p, nil
}

// ConcentrateInto computes, allocation-free through the compiled plan,
// the routing for a request pattern — marked[i] set means input i wants
// to be concentrated — into p (out[j] = in[p[j]]) and returns the number
// of concentrated inputs r. The r marked inputs occupy outputs 0..r-1;
// more than m marked inputs is an error. Malformed input — wrong
// lengths, over-capacity patterns, or a concentrator configuration that
// cannot route — always returns a validated error, never a panic.
func (c *Concentrator) ConcentrateInto(p []int, marked []bool) (int, error) {
	if len(marked) != c.n {
		return 0, fmt.Errorf("concentrator: %d requests for %d inputs", len(marked), c.n)
	}
	if len(p) != c.n {
		return 0, fmt.Errorf("concentrator: permutation buffer of %d for %d inputs", len(p), c.n)
	}
	plan, err := c.compileChecked()
	if err != nil {
		return 0, err
	}
	sc := plan.prog.Get()
	r := 0
	for i, m := range marked {
		if m {
			r++
			sc.Val[i] = uint64(i)
		} else {
			sc.Val[i] = TagBit | uint64(i)
		}
	}
	if r > c.m {
		plan.prog.Put(sc)
		return 0, fmt.Errorf("concentrator: %d requests exceed capacity %d", r, c.m)
	}
	plan.prog.RunScratch(sc)
	for j, v := range sc.Val {
		p[j] = int(v &^ TagBit)
	}
	plan.prog.Put(sc)
	return r, nil
}

// Concentrate is ConcentrateInto with a freshly allocated permutation.
func (c *Concentrator) Concentrate(marked []bool) ([]int, int, error) {
	p := make([]int, c.n)
	r, err := c.ConcentrateInto(p, marked)
	if err != nil {
		return nil, 0, err
	}
	return p, r, nil
}

// planPtr is the lazily-populated compiled plan of a Concentrator.
// Declared as its own type so the zero Concentrator literal stays usable.
type planPtr = atomic.Pointer[Plan]
