// Runtime fault model of the serving stack: injection → detection →
// recompile-around.
//
//   - Injection. Each request kind routes through a swappable plan
//     INSTANCE — one "hardware copy" of the compiled plan. InjectFault
//     wedges a wire of the current instance (a destination-address bit
//     for the permuter, the routing-tag wire for the concentrator) as a
//     stuck-at force mask, the same lowering the netlist engine uses;
//     requests keep flowing through the wedged copy via the scalar
//     faulty replay.
//   - Detection. A sampled lanewise checker (internal/verify.LaneChecker)
//     verifies responses against the routing invariants; after a first
//     failure every response of the suspect instance is checked until
//     recovery replaces it.
//   - Recovery. A detected misroute quarantines the instance and
//     recompiles around the fault through the shared plan cache
//     (planner.Shared): first onto same-engine spare capacity, then
//     across engines, and — when every concentrator engine is
//     quarantined — by degrading the permuter to concentrator service
//     (the stable-split destination assignment routes the marked inputs
//     into the leading block). The request that failed verification is
//     replayed on the replacement and re-verified, so an admitted Future
//     never resolves with a silently wrong result.
package serve

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"absort/internal/concentrator"
	"absort/internal/core"
	"absort/internal/permnet"
	"absort/internal/planner"
	"absort/internal/wordsort"
)

// ErrFaultUnrecovered resolves a Future whose response kept failing
// verification after exhausting the recovery attempts — every spare,
// every engine, and (for Concentrate) degraded service misrouted, which
// takes simultaneous faults in every replacement instance.
var ErrFaultUnrecovered = errors.New("serve: response failed verification after recovery")

// defaultCheckStride is the sampling stride selected by
// Config.CheckFraction = 0: one response in 64 is verified.
const defaultCheckStride = 64

// maxRecoverAttempts bounds the detect → recover → replay loop of a
// single request: enough for a full spare + engine rotation and the
// degraded fallback, so ErrFaultUnrecovered is reachable only when every
// replacement misroutes too.
const maxRecoverAttempts = 6

// rotationFor computes the engine rotation recovery walks for one
// request kind when an engine is quarantined: every registered engine
// capable of the kind's plan shape at width n, in registration order
// (planner.EnginesFor), so engines registered after the paper's four —
// the comparator-network zoo, or a client's edge-list engine — rotate in
// automatically. Concentrate needs only width n itself; Permute and
// SortWords recurse through every level width n, n/2, …, 2, so a
// width-locked small-n kernel (MinN = MaxN) never rotates into them.
func rotationFor(kind Kind, n int) []Engine {
	es := planner.EnginesFor(n)
	if kind == Concentrate {
		return es
	}
	rot := es[:0]
	for _, e := range es {
		if permnet.CheckLevelWidths(e, n) == nil {
			rot = append(rot, e)
		}
	}
	return rot
}

// planInstance is one hardware copy of a request kind's compiled plan.
// The plans themselves are immutable and shared (planner.Shared); the
// instance adds the mutable runtime state of the copy — injected faults,
// the suspect flag and the measured path costs — so quarantining a copy
// is one pointer swap. A Permute copy holds the one plan
// permnet.RadixPermuter.Plan chose for its width, flat or sharded. The
// plan's shard count says which: a sharded request spans shard lanes
// (spansLanes), and InjectFault wedges only a flat plan.
type planInstance struct {
	engine Engine

	perm permnet.Plan               // Permute, flat or sharded as permnet chose
	conc *concentrator.Concentrator // Concentrate
	word *wordsort.Sorter           // SortWords

	// degraded marks the concentrator's last-resort mode: no concentrator
	// plan at all — requests route through the Permute instance on the
	// stable-split destination assignment.
	degraded bool

	// faults holds the wires wedged into this copy (copy-on-write).
	faults atomic.Pointer[[]planner.StuckFault]

	// suspect is set on the first failed response check: every later
	// response routed by this copy is verified regardless of the
	// sampling stride, until recovery swaps the copy out.
	suspect atomic.Bool

	// scalarNs and packedWordNs are the copy's two cost cells (0 =
	// unobserved): the minimum observed wall time of one per-request
	// route, and of one packed burst replay (one lane word). A Service's
	// workers feed them from the routes they already run; breakEven
	// turns them into the burst packing threshold and serveNowNs into
	// the bound of a timed hold. A replacement copy swapped in by
	// recovery starts unobserved and re-learns them.
	scalarNs     atomic.Int64
	packedWordNs atomic.Int64
}

// minBreakEven and maxBreakEven clamp the measured break-even width: a
// packed replay never serves fewer than two requests, and one lane word
// holds PackedLanes of them.
const (
	minBreakEven = 2
	maxBreakEven = concentrator.PackedLanes
)

// breakEven returns k* — the burst width from which one packed replay
// costs less wall time than routing the burst's requests one by one on
// this copy: ⌈packedWordNs ÷ scalarNs⌉ clamped to [minBreakEven,
// maxBreakEven], or planner.MinPackedLanes until both cost cells hold a
// sample. Minima, not averages, feed it: a minimum is the copy's
// uncontended cost, where an average under CPU contention swings k*
// across the whole clamp range.
func (pi *planInstance) breakEven() int {
	scalar, packed := pi.scalarNs.Load(), pi.packedWordNs.Load()
	if scalar <= 0 || packed <= 0 {
		return planner.MinPackedLanes
	}
	k := (packed + scalar - 1) / scalar
	return int(min(max(k, minBreakEven), maxBreakEven))
}

// serveNowNs returns what serving a run of r requests on this copy
// costs now: min(packedWordNs, r·scalarNs) — one packed replay, or r
// per-request routes below k* — which is 0 while either cell is
// unobserved. It bounds how long a Service holds a partial run with no
// packed replay in flight.
func (pi *planInstance) serveNowNs(r int) int64 {
	return min(pi.packedWordNs.Load(), int64(r)*pi.scalarNs.Load())
}

// observeScalar feeds one per-request route's wall time into the
// scalar cost cell.
func (pi *planInstance) observeScalar(d time.Duration) { storeMin(&pi.scalarNs, d) }

// observePacked feeds one packed replay's wall time into the packed
// cost cell: a replay costs the same however many of its lanes are live.
func (pi *planInstance) observePacked(d time.Duration) { storeMin(&pi.packedWordNs, d) }

// storeMin lowers cell to d's nanoseconds when d is a new minimum (or
// the cell is unobserved). The common no-new-minimum case is one load.
func storeMin(cell *atomic.Int64, d time.Duration) {
	ns := max(d.Nanoseconds(), 1)
	for {
		cur := cell.Load()
		if (cur > 0 && ns >= cur) || cell.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// spansLanes reports whether each request on this copy spans several
// lanes of a packed replay — the sharded permuter's shard lanes. Such a
// run is never held for a fuller lane word, and its replays, which
// route groups of requests rather than one per lane, feed no packed
// cost cell.
func (pi *planInstance) spansLanes() bool { return pi.perm != nil && pi.perm.Shards() > 0 }

// routePermute routes dest on the copy's permuter plan into out: through
// the scalar faulty replay while wires are wedged into it (InjectFault
// wedges only flat plans), through the plan itself otherwise.
func (pi *planInstance) routePermute(out, dest []int) error {
	if f := pi.faultList(); f != nil {
		return pi.perm.(*permnet.RoutePlan).RouteIntoStuck(out, dest, f)
	}
	return pi.perm.RouteInto(out, dest)
}

// faultList returns the instance's injected faults (nil when clean).
func (pi *planInstance) faultList() []planner.StuckFault {
	if f := pi.faults.Load(); f != nil {
		return *f
	}
	return nil
}

// addFault wedges one more wire into the instance, copy-on-write.
func (pi *planInstance) addFault(f planner.StuckFault) {
	for {
		old := pi.faults.Load()
		var nf []planner.StuckFault
		if old != nil {
			nf = append(nf, *old...)
		}
		nf = append(nf, f)
		if pi.faults.CompareAndSwap(old, &nf) {
			return
		}
	}
}

// packable reports whether a burst may ride the packed replay on this
// instance: injected faults force the scalar faulty path, a degraded
// concentrator has no plan, and engines the registry marks
// packed-unprofitable (the Ranking baseline's single stable partition
// gains nothing from lane packing) take the per-request path — the same
// exclusion ConcentrateBatch applies.
func (pi *planInstance) packable(kind Kind) bool {
	if pi.faults.Load() != nil {
		return false
	}
	switch kind {
	case Concentrate:
		return pi.conc != nil && planner.PackedProfitable(pi.engine)
	case Permute:
		return pi.perm != nil
	}
	return false
}

// recoveryState is the per-kind bookkeeping of recovery decisions,
// guarded by PlanSet.faultMu. The quarantine set is a map because the
// registry is open-world: engines registered at runtime must be
// quarantinable too.
type recoveryState struct {
	sparesUsed  int
	quarantined map[Engine]bool
}

// quarantine marks e quarantined, lazily allocating the set.
func (rc *recoveryState) quarantine(e Engine) {
	if rc.quarantined == nil {
		rc.quarantined = make(map[Engine]bool)
	}
	rc.quarantined[e] = true
}

// WireFault describes one wire to wedge into a live plan set's current
// plan instance — the serving-layer mirror of the netlist engine's
// stuck-at fault model.
type WireFault struct {
	// Kind selects the plan to fault: Permute or Concentrate (SortWords
	// routes through the permuter plan shape internally but exposes no
	// single wedgeable control wire, so injection targets the two
	// routing kinds).
	Kind Kind
	// Pos is the network position whose packet word the fault wedges.
	Pos int
	// Bit is the destination-address bit to wedge (Permute only; 0 is
	// the least significant, lg n − 1 the bit the top level consumes).
	// Concentrate ignores it and wedges the routing-tag wire.
	Bit int
	// Stuck is the forced wire value: 0 or 1.
	Stuck uint8
}

// loadInst returns the plan instance currently serving kind.
func (p *PlanSet) loadInst(kind Kind) *planInstance {
	return p.inst[kind].Load()
}

// ActiveEngine returns the engine of the plan instance currently serving
// kind — the configured engine until recovery fails over to another one.
func (p *PlanSet) ActiveEngine(kind Kind) (Engine, error) {
	if int(kind) >= len(p.inst) {
		return 0, fmt.Errorf("serve: unknown request kind %v", kind)
	}
	return p.loadInst(kind).engine, nil
}

// Degraded reports whether Concentrate requests are currently served in
// degraded mode (routed through the permuter).
func (p *PlanSet) Degraded() bool {
	return p.loadInst(Concentrate).degraded
}

// InjectFault wedges a wire of the CURRENT plan instance serving f.Kind,
// under live traffic. The fault stays with that hardware copy: once the
// checker detects a misroute and recovery swaps the copy out, the wedged
// wire goes with it. Faults accumulate until ClearFaults or recovery.
func (p *PlanSet) InjectFault(f WireFault) error {
	if f.Stuck > 1 {
		return fmt.Errorf("serve: InjectFault: stuck value %d, want 0 or 1", f.Stuck)
	}
	if f.Pos < 0 || f.Pos >= p.cfg.N {
		return fmt.Errorf("serve: InjectFault: position %d, want 0..%d", f.Pos, p.cfg.N-1)
	}
	switch f.Kind {
	case Permute:
		lg := core.Lg(p.cfg.N)
		if f.Bit < 0 || f.Bit >= lg {
			return fmt.Errorf("serve: InjectFault: destination bit %d, want 0..%d", f.Bit, lg-1)
		}
		inst := p.loadInst(Permute)
		if w := inst.perm.Shards(); w > 0 {
			return fmt.Errorf("serve: InjectFault: sharded permute plans (%d shards) do not support injection", w)
		}
		inst.addFault(permnet.DestBitFault(f.Pos, f.Bit, f.Stuck))
	case Concentrate:
		inst := p.loadInst(Concentrate)
		if inst.degraded {
			return fmt.Errorf("serve: InjectFault: concentrate service is degraded (permuter-backed), no plan to fault")
		}
		inst.addFault(concentrator.TagFault(f.Pos, f.Stuck))
	default:
		return fmt.Errorf("serve: InjectFault: kind %v does not support injection", f.Kind)
	}
	return nil
}

// ClearFaults removes every injected fault from the current plan
// instance of kind (a repaired wire); already-quarantined copies are
// unaffected.
func (p *PlanSet) ClearFaults(kind Kind) {
	if int(kind) < len(p.inst) {
		if inst := p.loadInst(kind); inst != nil {
			inst.faults.Store(nil)
		}
	}
}

// strideFor maps Config.CheckFraction to the sampling stride.
func strideFor(f float64) uint64 {
	switch {
	case f < 0:
		return 0 // checking disabled
	case f == 0:
		return defaultCheckStride
	case f >= 1:
		return 1
	default:
		st := uint64(1.0/f + 0.5)
		if st < 1 {
			st = 1
		}
		return st
	}
}

// shouldCheck reports whether the next response routed by inst gets
// verified: every response of a suspect instance, one in checkStride
// otherwise. The clean-path cost is one atomic add on the sampled
// counter (none at all when checking is disabled).
func (p *PlanSet) shouldCheck(inst *planInstance) bool {
	if inst.suspect.Load() {
		return true
	}
	switch p.checkStride {
	case 0:
		return false
	case 1:
		return true
	}
	return p.checkCtr.Add(1)%p.checkStride == 0
}

// checkResult verifies one successful response against its kind's
// lanewise invariant.
func (p *PlanSet) checkResult(req Request, res Result) error {
	switch req.Kind {
	case Permute:
		return p.checker.CheckPermute(req.Dest, res.Perm)
	case Concentrate:
		return p.checker.CheckConcentrate(req.Marked, res.Perm, res.Count)
	case SortWords:
		return p.checker.CheckSortWords(req.Keys, res.Keys, res.Perm)
	}
	return nil
}

// checkSampled runs the sampled response check on a successfully routed
// request; a failed check enters the recover-and-replay path. inst must
// be the instance that produced res.
func (p *PlanSet) checkSampled(req Request, inst *planInstance, res Result, err error) (Result, error) {
	if err == nil && p.shouldCheck(inst) {
		return p.checkAndRecover(req, inst, res)
	}
	return res, err
}

// checkAndRecover verifies one response and, on a detected misroute,
// quarantines the instance, recompiles around the fault, and replays the
// request on the replacement until it verifies — the no-wrong-answer
// guarantee: a request either resolves with a verified result or with an
// explicit error, never with a silent misroute.
func (p *PlanSet) checkAndRecover(req Request, inst *planInstance, res Result) (Result, error) {
	p.stats.checked.Add(1)
	verr := p.checkResult(req, res)
	if verr == nil {
		return res, nil
	}
	p.stats.faultDetected.Add(1)
	inst.suspect.Store(true)
	cur := inst
	for attempt := 0; attempt < maxRecoverAttempts; attempt++ {
		p.recoverFrom(req.Kind, cur)
		cur = p.loadInst(req.Kind)
		p.stats.faultReplayed.Add(1)
		res2, err := p.routeOn(cur, req)
		if err != nil {
			return Result{}, err
		}
		p.stats.checked.Add(1)
		if verr = p.checkResult(req, res2); verr == nil {
			return res2, nil
		}
		p.stats.faultDetected.Add(1)
		cur.suspect.Store(true)
	}
	return Result{}, fmt.Errorf("%w: %v", ErrFaultUnrecovered, verr)
}

// recoverFrom swaps the faulty instance out for a replacement, exactly
// once per quarantined copy: concurrent detections of the same instance
// serialize on faultMu and only the first one swaps.
func (p *PlanSet) recoverFrom(kind Kind, bad *planInstance) {
	p.faultMu.Lock()
	defer p.faultMu.Unlock()
	if p.loadInst(kind) != bad {
		return // another goroutine already recovered this copy
	}
	p.inst[kind].Store(p.replacementLocked(kind, bad))
	p.stats.faultRecompiled.Add(1)
}

// replacementLocked picks the recovery target for a quarantined copy:
// same-engine spare capacity while spares remain, then the kind's
// capability-filtered registry rotation (see rotationFor), then — for
// Concentrate — degraded permuter-backed service. Permute and SortWords cannot degrade, so an exhausted
// rotation resets the quarantine set and starts over on the configured
// engine (the pathological every-engine-faulty case). Caller holds
// faultMu.
func (p *PlanSet) replacementLocked(kind Kind, bad *planInstance) *planInstance {
	rc := &p.recov[kind]
	if rc.sparesUsed < p.spares {
		if inst, err := p.newInstanceLocked(kind, bad.engine); err == nil {
			rc.sparesUsed++
			return inst
		}
	}
	rc.quarantine(bad.engine)
	for _, e := range p.rotation[kind] {
		if rc.quarantined[e] {
			continue
		}
		inst, err := p.newInstanceLocked(kind, e)
		if err != nil {
			rc.quarantine(e)
			continue
		}
		rc.sparesUsed = 0
		return inst
	}
	if kind == Concentrate {
		return &planInstance{engine: bad.engine, degraded: true}
	}
	rc.quarantined = nil
	rc.sparesUsed = 0
	inst, err := p.newInstanceLocked(kind, p.cfg.Engine)
	if err != nil {
		return bad // unreachable: the configured engine compiled at construction
	}
	return inst
}

// newInstanceLocked builds a fresh, fault-free hardware copy of kind's
// plan on the given engine, through the shared plan cache. The
// configured fish group count only applies to the configured engine;
// a fish FALLBACK uses the paper's default so an unrelated K can never
// make recovery panic.
func (p *PlanSet) newInstanceLocked(kind Kind, e Engine) (*planInstance, error) {
	k := 0
	if e == p.cfg.Engine {
		k = p.cfg.K
	}
	switch kind {
	case Permute:
		perm, err := permnet.NewRadixPermuter(p.cfg.N, e, k).Plan()
		if err != nil {
			return nil, err
		}
		return &planInstance{engine: e, perm: perm}, nil
	case Concentrate:
		conc := concentrator.New(p.cfg.N, p.cfg.M, e, k)
		conc.Compile()
		return &planInstance{engine: e, conc: conc}, nil
	case SortWords:
		w, err := wordsort.New(p.cfg.N, p.cfg.WordBits, e)
		if err != nil {
			return nil, err
		}
		return &planInstance{engine: e, word: w}, nil
	}
	return nil, fmt.Errorf("serve: unknown request kind %v", kind)
}

// concentrateDegraded serves a Concentrate request through the Permute
// instance: the stable-split destination assignment (marked inputs to
// the leading ranks in input order, unmarked to the trailing ones) is a
// permutation, and any permuter realizes it — the paper's observation
// that a binary sorter forms an (n,n)-concentrator, run in reverse: a
// permutation network provides concentrator service at permuter cost.
func (p *PlanSet) concentrateDegraded(marked []bool) (Result, error) {
	n := p.cfg.N
	r := 0
	for _, m := range marked {
		if m {
			r++
		}
	}
	if r > p.cfg.M {
		return Result{}, fmt.Errorf("concentrator: %d requests exceed capacity %d", r, p.cfg.M)
	}
	dest := make([]int, n)
	z, o := 0, r
	for i, m := range marked {
		if m {
			dest[i] = z
			z++
		} else {
			dest[i] = o
			o++
		}
	}
	out := make([]int, n)
	if err := p.loadInst(Permute).routePermute(out, dest); err != nil {
		return Result{}, err
	}
	p.stats.faultDegraded.Add(1)
	return Result{Perm: out, Count: r}, nil
}
