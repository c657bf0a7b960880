// SWAR lane-packed permutation routing and the batch pipeline riding it:
// up to PackedLanes independent destination assignments evaluate
// through one fused route plan in a single pass. The bit-plane engine —
// lg n destination front planes whose per-level tag plane OpSetTag
// selects, masked-XOR swaps under per-lane select masks, and the
// two-stage transpose load/extract — is the shared packed runner of internal/planner; this
// file contributes only the permuter-specific surface: per-lane
// permutation validation and the error messages of the batch contract;
// the batch policy is planner.Batch's.
//
// Throughput: one packed pass costs roughly P = 2 lg n plane-word
// operations per data movement where the planned path pays 64 packet
// moves, so wide batches route ≥ 2× faster than the planned-parallel
// pipeline (see BENCH_route.json and TestPermPackedSpeedupFloor). A
// batch wider than one lane word runs one replay per 64 assignments,
// spread over the batch driver's workers.
package permnet

import (
	"fmt"
	"math/bits"

	"absort/internal/planner"
)

// PackedLanes is the number of destination assignments one plane word
// carries, and so the widest group one packed pass evaluates.
const PackedLanes = planner.PackedLanes

// MinPackedLanes is the batch-width threshold at which the packed engine
// overtakes per-request planned routing; narrower batch remainders fall
// back to the planned path.
const MinPackedLanes = planner.MinPackedLanes

// routeGrain is the number of permutations a batch worker claims per
// cursor bump.
const routeGrain = 4

// RouteBatch routes every destination assignment through the compiled
// plan concurrently, using workers goroutines (≤ 0 means GOMAXPROCS)
// coordinated by an atomic work cursor. Results preserve input order and
// are identical to per-request Route. A malformed assignment fails the
// whole batch fast — workers stop claiming new requests as soon as an
// error is reported — and err names the earliest offending request among
// those attempted.
//
// The batch driver of internal/planner (planner.Batch) decides the path:
// batches at least one lane group wide (≥ 64 assignments) route full
// lane groups through one fused-plan SWAR replay each, and the rest per
// request. Plans whose step stream has no packed form
// (planner.ErrNotPackable) take the planned path for the whole batch.
// Results are bit-for-bit identical either way.
func (p *RoutePlan) RouteBatch(dests [][]int, workers int) ([][]int, error) {
	return routeBatch(p, p.prog, 0, dests, workers)
}

// RouteBatchPlanned is RouteBatch with packing off: every assignment
// replays the fused program on pooled scalar scratch, one packet word per
// input. It is the baseline the packed engine's throughput floor is
// measured against.
func (p *RoutePlan) RouteBatchPlanned(dests [][]int, workers int) ([][]int, error) {
	return routeBatch(p, nil, 0, dests, workers)
}

// batchPlan is a route plan the batch driver can run: per request, and
// in packed groups whose errors carry the offending request's global
// index.
type batchPlan interface {
	N() int
	RouteInto(out, dest []int) error
	routePackedAt(out, dests [][]int, base int) (int, error)
}

// batchRoutes is one batch of assignments handed to the planner's batch
// driver.
type batchRoutes struct {
	plan       batchPlan
	prog       *planner.Program // replayed by packed groups; nil routes per request
	out, dests [][]int
}

func (r *batchRoutes) One(i int) error { return r.plan.RouteInto(r.out[i], r.dests[i]) }

func (r *batchRoutes) Group(lo, hi int) (int, error) {
	return r.plan.routePackedAt(r.out[lo:hi], r.dests[lo:hi], lo)
}

func (r *batchRoutes) Packed() (*planner.Program, error) { return r.prog, nil }

// routeBatch runs a batch of assignments through the planner's batch
// driver: packed lane groups replay prog (none when prog is nil), or,
// with width > 0, every group of width requests routes packed.
func routeBatch(plan batchPlan, prog *planner.Program, width int, dests [][]int, workers int) ([][]int, error) {
	if len(dests) == 0 {
		return nil, nil
	}
	r := &batchRoutes{plan: plan, prog: prog, dests: dests}
	r.out = planner.Rows[int](len(dests), plan.N())
	b := planner.Batch{Workers: workers, Grain: routeGrain, Noun: "permnet: batch request", Width: width}
	if err := b.Run(len(dests), r); err != nil {
		return nil, err
	}
	return r.out, nil
}

// RoutePacked routes up to PackedLanes destination assignments
// through the fused plan in one SWAR pass: assignment l's destination
// bits ride bit lane l of the plane words. It writes, assignment by
// assignment, the realized permutations into out — exactly the results
// len(dests) RouteInto calls would produce, at a fraction of the data
// movement. A malformed assignment returns a validated error naming the
// earliest offending request before any routing starts; it never panics.
func (p *RoutePlan) RoutePacked(out [][]int, dests [][]int) error {
	_, err := p.routePackedAt(out, dests, 0)
	return err
}

// routePackedAt is RoutePacked with the assignments' global batch offset
// (for error messages of grouped batch execution); it returns the global
// index of the offending request alongside the error.
//
// The group's shapes are checked first; the permutation check is the
// network's own (DESIGN §13). LoadDestLanes checks every destination's
// range as it packs, and after the replay MisplacedLanes finds every
// lane whose destinations did not land on the identity. Only when some
// lane fails does the per-lane validator run, for the canonical error.
func (p *RoutePlan) routePackedAt(out [][]int, dests [][]int, base int) (int, error) {
	if _, err := checkPackedGroup(p.n, out, dests, base, nil); err != nil {
		// The first offender may be an earlier lane's permutation error.
		return checkPackedGroup(p.n, out, dests, base, p.validate)
	}
	pp, err := p.prog.Packed()
	if err != nil {
		return base, err
	}
	sc := pp.Get()
	defer pp.Put(sc)
	inRange := pp.LoadDestLanes(sc.Val, dests)
	if inRange {
		pp.Run(sc)
	}
	return p.deliverPacked(pp, sc.Val, out, dests, base, inRange)
}

// deliverPacked extracts a replayed group into out once the network's
// verdict clears every lane. Otherwise it writes nothing and returns the
// first failing lane's error: a lane that fails the validator gets the
// validator's error, as RouteInto would; a lane that passes it but
// missed the identity was misdelivered by the replay, which is an error
// too, never a silent re-route. With inRange false the replay never ran
// and every lane is suspect.
func (p *RoutePlan) deliverPacked(pp *planner.Packed, val []uint64, out, dests [][]int, base int, inRange bool) (int, error) {
	bad := ^uint64(0)
	if inRange {
		bad = pp.MisplacedLanes(val, len(dests))
	}
	if bad == 0 {
		pp.Extract(out, val)
		return 0, nil
	}
	for l, dest := range dests {
		if bad>>uint(l)&1 == 0 {
			continue
		}
		if err := p.validate(dest); err != nil {
			return base + l, err
		}
	}
	l := bits.TrailingZeros64(bad)
	return base + l, fmt.Errorf("permnet: RoutePacked: packed replay misdelivered request %d, a valid permutation", base+l)
}

// checkPackedGroup is the one validation contract of every plan's packed
// group (DESIGN §13), checked in this order before anything routes: the
// group holds 1..PackedLanes assignments, one output per assignment,
// and each assignment l has n destinations, an n-slot output and passes
// valid (the permutation check; nil checks the shapes alone). It returns
// the global index of the offending request (base + l, or base for a
// group-shape error) alongside the error.
func checkPackedGroup(n int, out, dests [][]int, base int, valid func([]int) error) (int, error) {
	lanes := len(dests)
	if lanes == 0 || lanes > PackedLanes {
		return base, fmt.Errorf("permnet: RoutePacked: %d assignments, want 1..%d",
			lanes, PackedLanes)
	}
	if len(out) != lanes {
		return base, fmt.Errorf("permnet: RoutePacked: %d outputs for %d assignments",
			len(out), lanes)
	}
	for l, dest := range dests {
		if len(dest) != n {
			return base + l, fmt.Errorf("permnet: RouteInto with %d destinations, want %d",
				len(dest), n)
		}
		if len(out[l]) != n {
			return base + l, fmt.Errorf("permnet: RouteInto into %d outputs, want %d",
				len(out[l]), n)
		}
		if valid == nil {
			continue
		}
		if err := valid(dest); err != nil {
			return base + l, err
		}
	}
	return base, nil
}
