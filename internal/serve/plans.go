// The plan set: the goroutine-free half of the serving stack. A PlanSet
// owns one compiled plan per request kind, the sampled lanewise checker,
// fault recovery (fault.go) and the stats counters (stats.go), and runs
// requests synchronously through Exec on the caller's goroutine. A
// Service is a PlanSet plus an admission queue, a worker pool and the
// packed-run rule; the multi-tenant front door runs each tenant on a bare
// PlanSet from its own dispatchers.
package serve

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"absort/internal/core"
	"absort/internal/planner"
	"absort/internal/verify"
)

// PlanSet is one compiled plan set — the Fig. 10 radix permuter's route
// plan, an (n,m)-concentrator plan and a word sorter for a fixed
// (n, engine, k) — together with its response checker, fault recovery
// and counters. It starts no goroutines and holds nothing that needs
// releasing: dropping the last reference frees it. It is safe for
// concurrent use.
type PlanSet struct {
	cfg Config

	// inst holds the plan instance currently serving each request kind
	// (indexed by Kind). An instance is one "hardware copy" of the
	// compiled plan: fault injection wedges wires of the current
	// instance, and recovery swaps in a replacement — the quarantined
	// copy (with its faults) is simply never routed through again. For
	// Permute at n ≥ permnet.ShardedAutoThreshold the instance carries
	// the sharded decomposition and the flat fused program — Θ(n lg n)
	// steps at those widths — is never compiled.
	inst [numKinds]atomic.Pointer[planInstance]

	// checker verifies sampled responses; checkStride is the sampling
	// stride derived from Config.CheckFraction (0 disabled, 1 every
	// response, k one in k via checkCtr).
	checker     *verify.LaneChecker
	checkStride uint64
	checkCtr    atomic.Uint64

	// faultMu serializes recovery (instance replacement); recov tracks
	// per-kind spare usage and quarantined engines; spares is the
	// resolved Config.Spares; rotation is the per-kind engine fallback
	// order, derived from the planner registry at construction
	// (capability-filtered, registration order — see rotationFor).
	faultMu  sync.Mutex
	recov    [numKinds]recoveryState
	spares   int
	rotation [numKinds][]Engine

	stats statsCounters
}

// Resolve validates c and returns it with every default filled in (M,
// WordBits, Workers, QueueDepth). It is the check New and NewPlanSet
// apply, so an admission layer can reject a bad shape before compiling
// anything.
func (c Config) Resolve() (Config, error) {
	if !core.IsPow2(c.N) {
		return c, fmt.Errorf("serve: n=%d is not a positive power of two", c.N)
	}
	if _, err := planner.ResolveK(c.Engine, c.N, c.K); err != nil {
		return c, fmt.Errorf("serve: %w", err)
	}
	if c.N >= 2 && !planner.CanRoute(c.Engine, 2) {
		// The permuter and word-sorter plans recurse through every level
		// width n, n/2, …, 2, so a width-locked kernel cannot back them.
		return c, fmt.Errorf("serve: engine %v cannot route the permuter's level widths 2..%d",
			c.Engine, c.N)
	}
	if c.M <= 0 {
		c.M = c.N
	}
	if c.M > c.N {
		return c, fmt.Errorf("serve: concentrator capacity m=%d exceeds n=%d", c.M, c.N)
	}
	if c.WordBits <= 0 {
		c.WordBits = 64
	}
	if c.WordBits > 64 {
		return c, fmt.Errorf("serve: key width %d out of range [1,64]", c.WordBits)
	}
	if math.IsNaN(c.CheckFraction) {
		// NaN fails every comparison in strideFor and would sample one
		// response in 2^63: the checker, and recovery with it, off.
		return c, fmt.Errorf("serve: check fraction %v is not a number", c.CheckFraction)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	return c, nil
}

// CheckRequest rejects a request that is malformed for c's width — an
// unknown kind or a payload whose length is not N — so a bad request
// never reaches (let alone crashes) a plan.
func (c Config) CheckRequest(req Request) error {
	switch req.Kind {
	case Permute:
		if len(req.Dest) != c.N {
			return fmt.Errorf("serve: permute request with %d destinations, want %d", len(req.Dest), c.N)
		}
	case Concentrate:
		if len(req.Marked) != c.N {
			return fmt.Errorf("serve: concentrate request with %d marks, want %d", len(req.Marked), c.N)
		}
	case SortWords:
		if len(req.Keys) != c.N {
			return fmt.Errorf("serve: sortwords request with %d keys, want %d", len(req.Keys), c.N)
		}
	default:
		return fmt.Errorf("serve: unknown request kind %v", req.Kind)
	}
	return nil
}

// NewPlanSet validates cfg and compiles its plan set. Workers and
// QueueDepth are resolved but unused: a PlanSet runs requests on its
// callers' goroutines.
func NewPlanSet(cfg Config) (*PlanSet, error) {
	p := &PlanSet{}
	if err := p.init(cfg); err != nil {
		return nil, err
	}
	return p, nil
}

// init validates cfg and compiles the plan set into p in place.
func (p *PlanSet) init(cfg Config) error {
	cfg, err := cfg.Resolve()
	if err != nil {
		return err
	}
	p.cfg = cfg
	for kind := range p.inst {
		inst, err := p.newInstanceLocked(Kind(kind), cfg.Engine)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		p.inst[kind].Store(inst)
	}
	p.checker = verify.NewLaneChecker(cfg.N)
	p.checkStride = strideFor(cfg.CheckFraction)
	switch {
	case cfg.Spares == 0:
		p.spares = 1
	case cfg.Spares > 0:
		p.spares = cfg.Spares
	}
	for kind := range p.rotation {
		p.rotation[kind] = rotationFor(Kind(kind), cfg.N)
	}
	return nil
}

// N returns the network width; Engine the configured engine.
func (p *PlanSet) N() int         { return p.cfg.N }
func (p *PlanSet) Engine() Engine { return p.cfg.Engine }

// Exec runs one request to completion on the calling goroutine: the
// request is validated (CheckRequest), ctx and req.Deadline are honoured
// before any routing work is spent on it, and it is routed through the
// current plan instance of its kind, with the sampled lanewise check
// and, on a detected misroute, recovery and replay. start is when the
// caller's own admission layer took the request; Stats measures
// completion latency from it. A malformed request counts as Rejected,
// everything else as Submitted and then Completed.
func (p *PlanSet) Exec(ctx context.Context, req Request, start time.Time) (Result, error) {
	if err := p.cfg.CheckRequest(req); err != nil {
		p.stats.rejected.Add(1)
		return Result{}, err
	}
	p.stats.submitted.Add(1)
	res, err := p.exec(ctx, req)
	p.record(start, req.Kind, false, err)
	return res, err
}

// exec runs an admitted request: the expiry checks, then one route on
// the current plan instance of its kind with the sampled lanewise
// response check. (A Service worker's per-request path, routeOne, is the
// same route plus the cost sample that feeds the burst break-even.)
func (p *PlanSet) exec(ctx context.Context, req Request) (Result, error) {
	if err := expired(ctx, req); err != nil {
		return Result{}, err
	}
	inst := p.loadInst(req.Kind)
	res, err := p.routeOn(inst, req)
	return p.checkSampled(req, inst, res, err)
}

// expired reports why an admitted request must not be routed: its
// context is done or its deadline has passed.
func expired(ctx context.Context, req Request) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !req.Deadline.IsZero() && !time.Now().Before(req.Deadline) {
		return ErrDeadlineExceeded
	}
	return nil
}

// record counts one completion of kind, on the packed or the
// per-request path, and its latency since start.
func (p *PlanSet) record(start time.Time, kind Kind, packed bool, err error) {
	p.stats.completed.Add(1)
	if packed {
		p.stats.paths[kind].packed.Add(1)
	} else {
		p.stats.paths[kind].perRequest.Add(1)
	}
	if err != nil {
		p.stats.failed.Add(1)
	}
	p.stats.observe(time.Since(start))
}

// overCapacity reports whether a concentrate pattern requests more than
// the capacity m. For the (n,n)-concentrator (m = n) no pattern can
// exceed capacity, so the scan is skipped.
func (p *PlanSet) overCapacity(marked []bool) bool {
	if p.cfg.M >= p.cfg.N {
		return false
	}
	r := 0
	for _, mk := range marked {
		if mk {
			r++
		}
	}
	return r > p.cfg.M
}

// routeOn replays the request through one plan instance. Lengths were
// validated at admission; the plans re-validate semantic properties
// (permutation validity, concentrator capacity) and return errors — no
// routing path here can panic on malformed input. An instance with
// injected faults routes through the scalar faulty replay (the wedged
// wires apply); a degraded concentrator instance routes through the
// permuter instead.
func (p *PlanSet) routeOn(inst *planInstance, req Request) (Result, error) {
	switch req.Kind {
	case Permute:
		out := make([]int, p.cfg.N)
		if inst.sharded != nil {
			if err := inst.sharded.RouteInto(out, req.Dest); err != nil {
				return Result{}, err
			}
			return Result{Perm: out}, nil
		}
		if f := inst.faultList(); f != nil {
			if err := inst.perm.RouteIntoStuck(out, req.Dest, f); err != nil {
				return Result{}, err
			}
			return Result{Perm: out}, nil
		}
		if err := inst.perm.RouteInto(out, req.Dest); err != nil {
			return Result{}, err
		}
		return Result{Perm: out}, nil
	case Concentrate:
		if inst.degraded {
			return p.concentrateDegraded(req.Marked)
		}
		out := make([]int, p.cfg.N)
		var r int
		var err error
		if f := inst.faultList(); f != nil {
			r, err = inst.conc.ConcentrateIntoStuck(out, req.Marked, f)
		} else {
			r, err = inst.conc.ConcentrateInto(out, req.Marked)
		}
		if err != nil {
			return Result{}, err
		}
		return Result{Perm: out, Count: r}, nil
	case SortWords:
		keys := make([]uint64, p.cfg.N)
		perm := make([]int, p.cfg.N)
		if err := inst.word.SortInto(keys, perm, req.Keys); err != nil {
			return Result{}, err
		}
		return Result{Perm: perm, Keys: keys}, nil
	}
	return Result{}, fmt.Errorf("serve: unknown request kind %v", req.Kind)
}
