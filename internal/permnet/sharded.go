// Sharded route plans: the paper's recursion applied at the system level
// for huge n. A flat fused plan replays the whole network sequentially,
// so planned ≈ planned-parallel once one replay saturates a core
// (BENCH_route.json, n=4096) — and at n = 1M the flat program itself is
// too large to want in memory. A ShardedRoutePlan splits the problem the
// way Fig. 10 splits the network:
//
//   - The first lg w distribution levels — the ones that decide which of
//     the w shard windows a packet belongs to — become the CROSS-SHARD
//     EXCHANGE, lowered once as a compiled program of OpRank stable
//     partitions (one per window per level, O(n lg w) total work) and
//     replayed scalar over the full packet array. Rank is used regardless
//     of the configured engine: the network's final output is the inverse
//     assignment out[j] = dest⁻¹(j) no matter which binary sorter routes
//     it, so the exchange is engine-independent and every engine's
//     sharded plan shares one cross program (cache kind KindShardCross).
//
//   - The remaining levels are exactly the flat fused plan of an
//     (n/w)-input permuter over the configured engine: after the
//     exchange, window s holds precisely the packets destined for outputs
//     [s·m, (s+1)·m), and level lg w of the flat plan reads destination
//     bit lg m − 1 — the top bit of the destination's low lg m bits,
//     which are the window-local destination. The w sub-replays therefore
//     share ONE compiled sub-program, resolved through the ordinary
//     KindPermuter cache entry at n/w.
//
// Because the w windows replay the SAME program, a single huge request
// routes shard-parallel on the SWAR engine: shard s's window-local
// destinations ride bit lane s of one packed replay of the sub-program —
// w lanes of data-parallelism from one request, where the flat plan had
// none; a plan with more than 64 shards spans several replays per
// request. Batches of narrower requests fill the lane word further:
// groups of g requests route g·w ≤ 64 lanes per replay. Below
// the packed break-even the plan falls back to the scalar
// planner.ShardedProgram composition, whose per-window replays distribute
// across workers with per-shard pooled scratch.
package permnet

import (
	"fmt"
	"sync"

	"absort/internal/concentrator"
	"absort/internal/core"
	"absort/internal/planner"
)

// ShardedAutoThreshold is the network width at or above which
// RadixPermuter.Plan returns the sharded plan instead of the flat one:
// the flat fused program's replay is purely sequential and its step
// stream grows Θ(n lg n), so beyond 64K inputs the sharded
// decomposition is both faster and far smaller.
const ShardedAutoThreshold = 1 << 16

// shardGroupBudget caps the per-group scratch of the wide batch path:
// groups are sized so that group×n stays within this many packet slots
// (three int arrays of this length live in one pooled group scratch).
const shardGroupBudget = 1 << 20

// DefaultShards returns the default shard count for an n-input sharded
// plan: n/1024 clamped to [2, 64] (and to n/2 so sub-windows keep at
// least two inputs) — 64 shards fill a full packed lane word, and
// 1024-input sub-programs sit at the fused plan's measured
// steps-per-byte sweet spot. Returns 1 when n < 4 (sharding
// inapplicable).
func DefaultShards(n int) int {
	if n < 4 {
		return 1
	}
	w := n / 1024
	if w < 2 {
		w = 2
	}
	if w > 64 {
		w = 64
	}
	if w > n/2 {
		w = n / 2
	}
	return w
}

// ShardedRoutePlan is the compiled sharded routing program for an
// n-input radix permuter: a cross-shard exchange program over the full
// packet array plus one shared (n/w)-input fused sub-program replayed
// per shard window — scalar across workers, or as w SWAR lanes of one
// packed replay. It is immutable and safe for concurrent use.
type ShardedRoutePlan struct {
	n, m, w int // network width, shard width, shard count
	engine  concentrator.Engine
	cross   *planner.Program        // n-input OpRank exchange (top lg w levels)
	sub     *RoutePlan              // flat fused plan at n/w (shared, KindPermuter)
	sp      *planner.ShardedProgram // scalar composition of the two
	packed  bool                    // sub-program packs
	gbMax   int                     // requests per wide batch group (≥ 1)
	pool    sync.Pool               // *shardScratch, w lanes (single request)
	gpool   sync.Pool               // *shardScratch, gbMax·w lanes (batch groups)
	vpool   sync.Pool               // *validScratch
}

// shardScratch is the pooled lane state of a packed sharded route: the
// window-local destination lanes fed to the packed sub-replay, the
// window-local routed outputs it extracts, and the packet origins used
// to compose the global result.
type shardScratch struct {
	dests [][]int // lane → m window-local destinations
	out   [][]int // lane → m window-local routed origins
	orig  []int   // lane·m + i → global origin of the window packet
}

func newShardScratch(lanes, m int) *shardScratch {
	flatD := make([]int, lanes*m)
	flatO := make([]int, lanes*m)
	sc := &shardScratch{
		dests: make([][]int, lanes),
		out:   make([][]int, lanes),
		orig:  make([]int, lanes*m),
	}
	for l := 0; l < lanes; l++ {
		sc.dests[l] = flatD[l*m : (l+1)*m]
		sc.out[l] = flatO[l*m : (l+1)*m]
	}
	return sc
}

// crossFor returns the shared (n, w) cross-exchange program, lowering it
// on first use: the top lg w radix levels, each window partitioned
// stably by its destination bit with OpRank, with OpSetTag retargeting
// the tag read between levels exactly as the flat fused plan does.
func crossFor(n, w int) *planner.Program {
	key := planner.PlanKey{Kind: planner.KindShardCross, N: n, Shards: w}
	if p, ok := planner.Shared.Get(key); ok {
		return p.(*planner.Program)
	}
	lgn := core.Lg(n)
	lgw := core.Lg(w)
	var b planner.Builder
	for d := 0; d < lgw; d++ {
		bit := lgn - 1 - d // destination bit this level consumes
		if d > 0 {
			b.SetTag(uint(localShift+bit), int32(bit))
		}
		s := n >> d
		for lo := 0; lo < n; lo += s {
			b.Rank(int32(lo), int32(lo+s))
		}
	}
	prog := b.Compile(planner.Layout{
		N:           n,
		FrontPlanes: lgn,
		TagShift:    uint(localShift + lgn - 1),
		TagPlane:    lgn - 1,
	})
	return planner.Shared.Add(key, prog).(*planner.Program)
}

// ShardedPlanFor returns the shared sharded route plan for (n, engine,
// w), lowering it on first use. w ≤ 0 selects DefaultShards(n);
// otherwise w must be a power of two with 2 ≤ w ≤ n/2. The fish group
// count plays no role in a sharded plan — the levels it would steer are
// exactly the ones the rank-lowered exchange replaces, and sub-windows
// always use the paper's k = lg s default — so every k shares one entry
// per (n, engine, w). An engine that cannot route the sub-programs'
// level widths 2..n/w is an error.
func ShardedPlanFor(n int, engine concentrator.Engine, w int) (*ShardedRoutePlan, error) {
	if !core.IsPow2(n) || n < 4 {
		return nil, fmt.Errorf("permnet: ShardedPlanFor(%d): n must be a power of two ≥ 4", n)
	}
	if w <= 0 {
		w = DefaultShards(n)
	}
	if !core.IsPow2(w) || w < 2 || w > n/2 {
		return nil, fmt.Errorf("permnet: ShardedPlanFor(%d): shard count %d must be a power of two with 2 ≤ shards ≤ n/2",
			n, w)
	}
	key := planner.PlanKey{Kind: planner.KindSharded, N: n, Engine: int8(engine), Shards: w}
	if p, ok := planner.Shared.Get(key); ok {
		return p.(*ShardedRoutePlan), nil
	}
	if err := CheckLevelWidths(engine, n/w); err != nil {
		return nil, fmt.Errorf("permnet: ShardedPlanFor(%d, %d shards): %w", n, w, err)
	}
	// Compile outside the cache lock (see planFor); a racing duplicate is
	// resolved LoadOrStore-style by Add.
	p, err := newShardedRoutePlan(n, engine, w)
	if err != nil {
		return nil, err
	}
	return planner.Shared.Add(key, p).(*ShardedRoutePlan), nil
}

// newShardedRoutePlan composes the cross exchange with the flat fused
// sub-plan at n/w and sizes the packed lane budget.
func newShardedRoutePlan(n int, engine concentrator.Engine, w int) (*ShardedRoutePlan, error) {
	m := n / w
	cross := crossFor(n, w)
	sub := planFor(m, engine, 0)
	sp, err := planner.NewShardedProgram(cross, sub.prog, w)
	if err != nil {
		return nil, err
	}
	p := &ShardedRoutePlan{n: n, m: m, w: w, engine: engine, cross: cross, sub: sub, sp: sp}
	_, perr := sub.prog.Packed()
	p.packed = perr == nil
	p.gbMax = max(1, min(PackedLanes/w, shardGroupBudget/n))
	p.pool.New = func() any { return newShardScratch(w, m) }
	p.gpool.New = func() any { return newShardScratch(p.gbMax*w, m) }
	p.vpool.New = func() any { return &validScratch{seen: make([]int32, n)} }
	return p, nil
}

// Sharded returns the permuter's sharded route plan for w shards (w ≤ 0
// selects DefaultShards), drawn from the process-wide plan cache. The
// flat plan is NOT compiled — at n = 1M its Θ(n lg n) step stream is
// exactly what sharding avoids.
func (r *RadixPermuter) Sharded(w int) (*ShardedRoutePlan, error) {
	return ShardedPlanFor(r.n, r.engine, w)
}

// N returns the network width of the plan.
func (p *ShardedRoutePlan) N() int { return p.n }

// Shards returns the shard count w.
func (p *ShardedRoutePlan) Shards() int { return p.w }

// ShardWidth returns the per-shard window width n/w.
func (p *ShardedRoutePlan) ShardWidth() int { return p.m }

// Engine returns the distribution engine of the sub-programs.
func (p *ShardedRoutePlan) Engine() concentrator.Engine { return p.engine }

// Program returns the scalar sharded composition (shared, immutable).
func (p *ShardedRoutePlan) Program() *planner.ShardedProgram { return p.sp }

// SubPlan returns the shared flat route plan of one shard window.
func (p *ShardedRoutePlan) SubPlan() *RoutePlan { return p.sub }

// Packed reports whether requests route through the SWAR lane-packed
// sub-replay (w lanes per request) rather than the scalar per-shard
// composition.
func (p *ShardedRoutePlan) Packed() bool { return p.packed && p.w >= MinPackedLanes }

// validate checks dest as a permutation without allocating.
func (p *ShardedRoutePlan) validate(dest []int) error {
	vs := p.vpool.Get().(*validScratch)
	ok := vs.checkPerm(dest)
	p.vpool.Put(vs)
	if !ok {
		return fmt.Errorf("permnet: %v is not a permutation", dest)
	}
	return nil
}

// RouteInto computes, through the sharded plan, the permutation the
// network realizes for the assignment "input i goes to output dest[i]",
// writing it into out (out[j] = in[p[j]]) — bit-for-bit the result the
// flat plan's RouteInto produces, without ever compiling the flat plan.
func (p *ShardedRoutePlan) RouteInto(out []int, dest []int) error {
	if len(dest) != p.n {
		return fmt.Errorf("permnet: RouteInto with %d destinations, want %d",
			len(dest), p.n)
	}
	if len(out) != p.n {
		return fmt.Errorf("permnet: RouteInto into %d outputs, want %d",
			len(out), p.n)
	}
	if err := p.validate(dest); err != nil {
		return err
	}
	if p.Packed() {
		sc := p.pool.Get().(*shardScratch)
		err := p.routeGroup([][]int{out}, [][]int{dest}, sc)
		p.pool.Put(sc)
		return err
	}
	return p.routeScalar(out, dest)
}

// Route is RouteInto with a freshly allocated result.
func (p *ShardedRoutePlan) Route(dest []int) ([]int, error) {
	out := make([]int, p.n)
	if err := p.RouteInto(out, dest); err != nil {
		return nil, err
	}
	return out, nil
}

// routeScalar runs the scalar sharded composition: the cross exchange
// over the full packet array, then the sub-program over every shard
// window on the batch executor (per-window pooled scratch, workers =
// GOMAXPROCS).
func (p *ShardedRoutePlan) routeScalar(out []int, dest []int) error {
	sc := p.cross.Get()
	for i, d := range dest {
		sc.Val[i] = uint64(d)<<localShift | uint64(i)
	}
	p.sp.Run(sc.Val, 0)
	for j, v := range sc.Val {
		out[j] = int(v & idxMask)
	}
	p.cross.Put(sc)
	return nil
}

// routeGroup routes g = len(dests) pre-validated assignments through
// packed sub-replays of their g·w lanes: per request, the scalar cross
// exchange fans packets into shard windows and the window-local
// destinations and origins peel off into lane scratch; one
// LoadDestLanes/Run/Extract pass per lane word (64 windows) then routes
// them, and the origins compose the global permutations. sc must hold
// at least g·w lanes.
func (p *ShardedRoutePlan) routeGroup(out [][]int, dests [][]int, sc *shardScratch) error {
	g := len(dests)
	m, w := p.m, p.w
	lanes := g * w
	csc := p.cross.Get()
	for r := 0; r < g; r++ {
		for i, d := range dests[r] {
			csc.Val[i] = uint64(d)<<localShift | uint64(i)
		}
		p.cross.RunScratch(csc)
		for s := 0; s < w; s++ {
			lane := r*w + s
			ld := sc.dests[lane]
			lorig := sc.orig[lane*m : (lane+1)*m]
			win := csc.Val[s*m : (s+1)*m]
			for i, v := range win {
				ld[i] = int(v>>localShift) & (m - 1)
				lorig[i] = int(v & idxMask)
			}
		}
	}
	p.cross.Put(csc)

	pp, err := p.sub.prog.Packed()
	if err != nil {
		return err // unreachable after the construction-time probe
	}
	psc := pp.Get()
	for lo := 0; lo < lanes; lo += PackedLanes {
		hi := min(lo+PackedLanes, lanes)
		pp.LoadDestLanes(psc.Val, sc.dests[lo:hi])
		pp.Run(psc)
		pp.Extract(sc.out[lo:hi], psc.Val)
	}
	pp.Put(psc)

	for r := 0; r < g; r++ {
		o := out[r]
		for s := 0; s < w; s++ {
			lane := r*w + s
			lorig := sc.orig[lane*m : (lane+1)*m]
			lout := sc.out[lane]
			ow := o[s*m : (s+1)*m]
			for j, x := range lout {
				ow[j] = lorig[x]
			}
		}
	}
	return nil
}

// routePackedAt routes a group of assignments with the group's global
// batch offset (for error messages); it returns the global index of the
// offending request alongside the error.
func (p *ShardedRoutePlan) routePackedAt(out [][]int, dests [][]int, base int) (int, error) {
	if i, err := checkPackedGroup(p.n, out, dests, base, p.validate); err != nil {
		return i, err
	}
	return base, p.routeGroups(out, dests)
}

// routeGroups routes pre-validated assignments in groups of up to gbMax
// requests, one routeGroup each.
func (p *ShardedRoutePlan) routeGroups(out [][]int, dests [][]int) error {
	sc := p.gpool.Get().(*shardScratch)
	defer p.gpool.Put(sc)
	for lo := 0; lo < len(dests); lo += p.gbMax {
		hi := min(lo+p.gbMax, len(dests))
		if err := p.routeGroup(out[lo:hi], dests[lo:hi], sc); err != nil {
			return err
		}
	}
	return nil
}

// RoutePacked routes up to PackedLanes destination assignments
// through the sharded plan on the caller's goroutine — the sharded
// counterpart of RoutePlan.RoutePacked, used by serve's packed runs that
// already own a worker. Groups wider than one packed replay (gbMax
// requests) chunk sequentially; below the packed break-even every
// request routes on the scalar composition. The validation contract
// matches the flat plan's RoutePacked exactly (same checks, order, and
// messages; see DESIGN §13): a malformed assignment returns a validated
// error naming the earliest offending request before any routing starts.
func (p *ShardedRoutePlan) RoutePacked(out [][]int, dests [][]int) error {
	if _, err := checkPackedGroup(p.n, out, dests, 0, p.validate); err != nil {
		return err
	}
	if !p.Packed() {
		for i := range dests {
			if err := p.routeScalar(out[i], dests[i]); err != nil {
				return err
			}
		}
		return nil
	}
	return p.routeGroups(out, dests)
}

// RouteBatch routes every destination assignment through the sharded
// plan, workers goroutines wide (≤ 0 means GOMAXPROCS). When the packed
// sub-replay is available, requests route in groups of up to gbMax —
// g·w SWAR lanes each, one replay per lane word — and
// otherwise per request on the scalar composition. Results preserve
// input order and match the flat plan bit-for-bit; a malformed
// assignment fails the batch fast with err naming the earliest offending
// request among those attempted.
func (p *ShardedRoutePlan) RouteBatch(dests [][]int, workers int) ([][]int, error) {
	if !p.Packed() {
		return routeBatch(p, nil, 0, dests, workers)
	}
	return routeBatch(p, nil, p.gbMax, dests, workers)
}
