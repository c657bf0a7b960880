// Package frontdoor is the multi-tenant admission layer in front of the
// serving layer's plan sets: one FrontDoor owns many serve.PlanSets —
// one per registered tenant, each its own (n, engine, k, m) network
// shape — behind per-tenant bounded ingress queues and a
// deficit-round-robin dispatcher pool, so many independent workloads
// share the compiled-plan machinery without one hot tenant starving the
// rest. The dispatchers run each request inline through its tenant's
// PlanSet.Exec: a request passes one queue and one scheduler, and a
// tenant costs no goroutines.
//
// The pieces:
//
//   - Register declares a tenant's network shape (TenantSpec), validated
//     by serve's own Config.Resolve. The tenant's plan set is NOT
//     compiled at registration: it is instantiated lazily on first
//     dispatch, and every plan it compiles flows through the
//     process-wide planner.Shared LRU, so instantiation after the first
//     is a cache hit.
//   - Submit fails fast: a tenant ingress queue at its (adaptive) depth
//     bound returns ErrTenantQueueFull instead of blocking, keeping the
//     front door's latency independent of any one tenant's backlog.
//   - Dispatchers pick queued requests by deficit round-robin: each
//     tenant accumulates quantum·weight deficit per scheduler visit and
//     pays spec.N words per dispatch, so tenants with equal weights get
//     equal word throughput under contention regardless of request rate
//     or network width, and a weight-w tenant gets w shares.
//   - An idle tenant's plan set is evicted: after IdleTTL with nothing
//     queued, running, or recently finished, the janitor drops it. The
//     next request re-instantiates it through planner.Shared.
//   - An adaptive controller resizes each tenant's ingress depth and
//     dispatcher share from the latency histogram its plan set already
//     keeps: rejections while p99 is within target grow the queue,
//     p99 over target grows the dispatcher share and then sheds queue
//     depth, and idle tenants decay back toward the configured
//     defaults.
//
// Per-tenant Stats/FaultStats surface both the front door's admission
// counters and the live plan set's serve.Stats snapshot; TenantStats of
// an evicted tenant reports the cumulative front-door counters with a
// zero plan-set snapshot.
package frontdoor

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"absort/internal/concentrator"
	"absort/internal/serve"
)

// Engine selects the routing engine backing a tenant's plan set.
type Engine = concentrator.Engine

// Front-door errors.
var (
	// ErrClosed is returned by Register and Submit after Close has started.
	ErrClosed = errors.New("frontdoor: front door closed")
	// ErrUnknownTenant is returned by Submit and TenantStats for an
	// unregistered tenant id.
	ErrUnknownTenant = errors.New("frontdoor: unknown tenant")
	// ErrTenantExists is returned by Register when the id is taken.
	ErrTenantExists = errors.New("frontdoor: tenant already registered")
	// ErrTooManyTenants is returned by Register at the MaxTenants bound.
	ErrTooManyTenants = errors.New("frontdoor: tenant limit reached")
	// ErrTenantQueueFull is returned by Submit when the tenant's ingress
	// queue is at its adaptive depth bound. Unlike serve.Submit, the front
	// door never blocks the caller on a full queue.
	ErrTenantQueueFull = errors.New("frontdoor: tenant queue full")
)

// Config configures a FrontDoor.
type Config struct {
	// Workers is the dispatcher pool size (≤ 0 means GOMAXPROCS). Each
	// dispatcher executes one tenant request at a time on the tenant's
	// plan set.
	Workers int
	// QueueDepth is the default per-tenant ingress queue bound (≤ 0
	// means 64). The adaptive controller moves each tenant's live bound
	// within [max(1, QueueDepth/4), MaxQueueDepth].
	QueueDepth int
	// MaxQueueDepth caps the adaptive queue growth (≤ 0 means
	// 16 × QueueDepth).
	MaxQueueDepth int
	// MaxTenants bounds Register (≤ 0 means 64).
	MaxTenants int
	// IdleTTL is how long a tenant's plan set may sit idle — nothing
	// queued, running, or completed — before the janitor evicts it
	// (≤ 0 means 30s).
	IdleTTL time.Duration
	// TargetP99 is the adaptive controller's per-tenant latency target,
	// compared against the p99 of the plan set's completion-latency
	// histogram over the last controller window (≤ 0 means 5ms).
	TargetP99 time.Duration
	// AdaptEvery is the controller/janitor period (≤ 0 means 100ms).
	AdaptEvery time.Duration
	// CheckFraction and Spares are forwarded to every tenant's plan set
	// (see serve.Config).
	CheckFraction float64
	Spares        int
}

// TenantSpec declares a tenant's network shape and scheduling weight.
type TenantSpec struct {
	// N is the tenant's network width (a power of two).
	N int
	// Engine selects the routing engine for the tenant's plan set.
	Engine Engine
	// K, M, WordBits configure the fish group count, concentrator
	// capacity, and word-sort key width exactly as serve.Config.
	K, M, WordBits int
	// Weight is the deficit-round-robin weight (≤ 0 means 1): under
	// contention a weight-w tenant receives w× the word throughput of a
	// weight-1 tenant.
	Weight int
}

// Future is the handle of an admitted front-door request, resolved
// exactly once — never dropped, even across Close. It is serve's Future.
type Future = serve.Future

// job is the ingress-queue envelope of an admitted request. Its sink
// receives the outcome exactly once, on the dispatcher that ran it:
// Submit's sink resolves a Future, the server's encodes the response
// straight onto the connection.
type job struct {
	req  serve.Request
	ctx  context.Context
	sink func(serve.Result, error)
}

// tenant is one registered workload: its spec, its bounded ingress
// queue, its DRR scheduling state, and its lazily instantiated plan set.
// All fields except plans are guarded by FrontDoor.mu; plans is an
// atomic pointer (nil while evicted) whose instantiation is serialized
// by plansMu.
type tenant struct {
	id     string
	spec   TenantSpec
	cfg    serve.Config // the resolved plan-set config of spec
	weight int64

	queue   []*job
	depth   int   // adaptive ingress bound
	share   int   // adaptive max concurrent dispatches
	deficit int64 // DRR deficit, in words
	running int   // dispatches currently executing
	inRing  bool
	lastUse time.Time

	// Cumulative front-door counters (survive eviction).
	submitted, rejected, completed, failed, evictions int64

	// Controller window snapshots.
	ctrlRejected  int64
	ctrlCompleted int64
	ctrlLat       serve.Stats

	plansMu sync.Mutex
	plans   atomic.Pointer[serve.PlanSet]
}

// cost is the tenant's DRR charge per dispatch: its network width in
// words, so equal-weight tenants get equal word throughput, not equal
// request counts.
func (t *tenant) cost() int64 { return int64(t.spec.N) }

// FrontDoor multiplexes many tenant plan sets behind one admission
// layer. It is safe for concurrent use.
type FrontDoor struct {
	cfg      Config
	maxShare int
	defShare int
	minDepth int
	maxDepth int
	target   time.Duration

	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenant
	ring    []*tenant // tenants with queued jobs, in DRR visit order
	rr      int
	quantum int64 // DRR top-up: the max tenant cost seen
	queued  int   // total queued jobs across tenants
	closed  bool

	quit    chan struct{}
	workers sync.WaitGroup
	janitor sync.WaitGroup

	// testOnDispatch, when set (tests only), runs under mu immediately
	// after the scheduler pops a job, in dispatch order; it lets tests
	// pin the DRR interleaving deterministically.
	testOnDispatch func(tenantID string)
	// testBeforeRun, when set (tests only), runs in the dispatcher once
	// per popped job before execution; it lets tests hold dispatchers.
	testBeforeRun func()
}

// New validates cfg and starts the dispatcher pool and the
// controller/janitor goroutine.
func New(cfg Config) *FrontDoor {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxQueueDepth <= 0 {
		cfg.MaxQueueDepth = 16 * cfg.QueueDepth
	}
	if cfg.MaxQueueDepth < cfg.QueueDepth {
		cfg.MaxQueueDepth = cfg.QueueDepth
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = 64
	}
	if cfg.IdleTTL <= 0 {
		cfg.IdleTTL = 30 * time.Second
	}
	if cfg.TargetP99 <= 0 {
		cfg.TargetP99 = 5 * time.Millisecond
	}
	if cfg.AdaptEvery <= 0 {
		cfg.AdaptEvery = 100 * time.Millisecond
	}
	fd := &FrontDoor{
		cfg:      cfg,
		maxShare: cfg.Workers,
		defShare: (cfg.Workers + 1) / 2,
		minDepth: max(1, cfg.QueueDepth/4),
		maxDepth: cfg.MaxQueueDepth,
		target:   cfg.TargetP99,
		tenants:  make(map[string]*tenant),
		quantum:  1,
		quit:     make(chan struct{}),
	}
	fd.cond = sync.NewCond(&fd.mu)
	fd.workers.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go fd.dispatcher()
	}
	fd.janitor.Add(1)
	go fd.janitorLoop()
	return fd
}

// Register declares a tenant. The tenant's plan set is not compiled
// here: the first dispatched request instantiates it (through the
// planner.Shared plan cache), and idle eviction may drop and later
// re-instantiate it. The spec is validated eagerly by serve's
// Config.Resolve, so a bad shape fails at registration, not at first
// traffic.
func (fd *FrontDoor) Register(id string, spec TenantSpec) error {
	if id == "" {
		return errors.New("frontdoor: Register: empty tenant id")
	}
	cfg, err := serve.Config{
		N:             spec.N,
		Engine:        spec.Engine,
		K:             spec.K,
		M:             spec.M,
		WordBits:      spec.WordBits,
		CheckFraction: fd.cfg.CheckFraction,
		Spares:        fd.cfg.Spares,
	}.Resolve()
	if err != nil {
		return fmt.Errorf("frontdoor: Register: %w", err)
	}
	spec.M, spec.WordBits = cfg.M, cfg.WordBits
	if spec.Weight <= 0 {
		spec.Weight = 1
	}
	fd.mu.Lock()
	defer fd.mu.Unlock()
	if fd.closed {
		return ErrClosed
	}
	if _, ok := fd.tenants[id]; ok {
		return fmt.Errorf("%w: %q", ErrTenantExists, id)
	}
	if len(fd.tenants) >= fd.cfg.MaxTenants {
		return fmt.Errorf("%w (%d)", ErrTooManyTenants, fd.cfg.MaxTenants)
	}
	t := &tenant{
		id:      id,
		spec:    spec,
		cfg:     cfg,
		weight:  int64(spec.Weight),
		depth:   fd.cfg.QueueDepth,
		share:   fd.defShare,
		lastUse: time.Now(),
	}
	fd.tenants[id] = t
	if c := t.cost(); c > fd.quantum {
		fd.quantum = c
	}
	return nil
}

// Submit admits one request for a tenant, failing fast: a queue at the
// tenant's adaptive depth bound returns ErrTenantQueueFull instead of
// blocking. The returned Future is always resolved.
func (fd *FrontDoor) Submit(ctx context.Context, tenantID string, req serve.Request) (*Future, error) {
	fut := serve.NewFuture()
	if err := fd.submit(ctx, tenantID, req, fut.Resolve); err != nil {
		return nil, err
	}
	return fut, nil
}

// submit is Submit with the completion handed to sink instead of a
// Future: an admitted request's sink runs exactly once, on the
// dispatcher, after Exec returns; a refused one's never runs.
func (fd *FrontDoor) submit(ctx context.Context, tenantID string, req serve.Request, sink func(serve.Result, error)) error {
	fd.mu.Lock()
	t, ok := fd.tenants[tenantID]
	if !ok {
		fd.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownTenant, tenantID)
	}
	if fd.closed {
		t.rejected++
		fd.mu.Unlock()
		return ErrClosed
	}
	if err := t.cfg.CheckRequest(req); err != nil {
		t.rejected++
		fd.mu.Unlock()
		return err
	}
	if err := ctx.Err(); err != nil {
		t.rejected++
		fd.mu.Unlock()
		return err
	}
	if depth := t.depth; len(t.queue) >= depth {
		t.rejected++
		fd.mu.Unlock()
		return fmt.Errorf("%w: %q at depth %d", ErrTenantQueueFull, tenantID, depth)
	}
	j := &job{req: req, ctx: ctx, sink: sink}
	t.queue = append(t.queue, j)
	t.submitted++
	fd.queued++
	if !t.inRing {
		t.inRing = true
		fd.ring = append(fd.ring, t)
	}
	fd.mu.Unlock()
	fd.cond.Signal()
	return nil
}

// Close stops admission, drains every admitted request (each Future
// resolves), and stops the dispatchers and the janitor. Plan sets hold
// no goroutines, so there is nothing else to release. Idempotent and
// safe to call concurrently.
func (fd *FrontDoor) Close() {
	fd.mu.Lock()
	first := !fd.closed
	fd.closed = true
	fd.mu.Unlock()
	if first {
		close(fd.quit)
	}
	fd.cond.Broadcast()
	fd.workers.Wait()
	fd.janitor.Wait()
}

// dispatcher executes scheduler picks until the front door is closed and
// fully drained.
func (fd *FrontDoor) dispatcher() {
	defer fd.workers.Done()
	for {
		j, t := fd.next()
		if j == nil {
			return
		}
		if fd.testBeforeRun != nil {
			fd.testBeforeRun()
		}
		fd.run(t, j)
	}
}

// next blocks until the DRR scheduler yields a job, returning (nil, nil)
// once the front door is closed and every queue has drained.
func (fd *FrontDoor) next() (*job, *tenant) {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	for {
		if j, t := fd.pickLocked(); j != nil {
			return j, t
		}
		if fd.closed && fd.queued == 0 {
			return nil, nil
		}
		fd.cond.Wait()
	}
}

// pickLocked is one deficit-round-robin scheduling decision: visit
// tenants in ring order, topping an under-deficit tenant up by
// quantum·weight and moving on; dispatch from the first tenant whose
// deficit covers its cost and whose running dispatches are below its
// share. Tenants whose queues have emptied leave the ring with their
// deficit zeroed (a returning tenant starts fresh — idleness banks no
// credit). Two full passes suffice: quantum ≥ every tenant's cost, so
// one top-up always covers one dispatch.
func (fd *FrontDoor) pickLocked() (*job, *tenant) {
	for scanned := 0; len(fd.ring) > 0 && scanned < 2*len(fd.ring); {
		if fd.rr >= len(fd.ring) {
			fd.rr = 0
		}
		t := fd.ring[fd.rr]
		if len(t.queue) == 0 {
			t.deficit, t.inRing = 0, false
			fd.ring = append(fd.ring[:fd.rr], fd.ring[fd.rr+1:]...)
			continue
		}
		if t.running >= t.share {
			fd.rr++
			scanned++
			continue
		}
		if t.deficit < t.cost() {
			t.deficit += fd.quantum * t.weight
			fd.rr++
			scanned++
			continue
		}
		t.deficit -= t.cost()
		j := t.queue[0]
		t.queue = t.queue[1:]
		fd.queued--
		t.running++
		if fd.testOnDispatch != nil {
			fd.testOnDispatch(t.id)
		}
		return j, t
	}
	return nil, nil
}

// run executes one popped job end to end on the dispatcher's goroutine:
// lazily instantiate the tenant's plan set, run the request through
// Exec (which honours ctx and Deadline before routing), release the
// tenant's dispatch slot, and hand the outcome to the job's sink. Exec's start is the
// dispatch time, taken once the plan set is live, so the latency
// histogram the controller reads covers execution only — ingress wait
// is the controller's depth signal, and a one-off instantiation is not
// load.
func (fd *FrontDoor) run(t *tenant, j *job) {
	var res serve.Result
	plans, err := fd.planSet(t)
	if err == nil {
		res, err = plans.Exec(j.ctx, j.req, time.Now())
	}
	fd.mu.Lock()
	t.running--
	t.completed++
	if err != nil {
		t.failed++
	}
	t.lastUse = time.Now()
	drained := fd.closed && fd.queued == 0
	fd.mu.Unlock()
	// Count before completing: a caller that has seen its Future resolve
	// also sees it in Stats.
	j.sink(res, err)
	// The dispatch slot this run frees can make at most one queued job
	// pickable, and this dispatcher goes straight back to next() to take
	// it, so no other dispatcher needs waking — except on the
	// closed-and-drained exit, which every waiting dispatcher must see.
	if drained {
		fd.cond.Broadcast()
	}
}

// planSet returns the tenant's plan set, instantiating it on first use
// (and after eviction). Creation is serialized per tenant; the compiled
// plans come out of planner.Shared, so re-instantiation after eviction
// recompiles nothing that is still cached.
func (fd *FrontDoor) planSet(t *tenant) (*serve.PlanSet, error) {
	if p := t.plans.Load(); p != nil {
		return p, nil
	}
	t.plansMu.Lock()
	defer t.plansMu.Unlock()
	if p := t.plans.Load(); p != nil {
		return p, nil
	}
	p, err := serve.NewPlanSet(t.cfg)
	if err != nil {
		return nil, fmt.Errorf("frontdoor: tenant %q: %w", t.id, err)
	}
	t.plans.Store(p)
	return p, nil
}

// janitorLoop runs the adaptive controller and the idle-eviction sweep
// every AdaptEvery until Close.
func (fd *FrontDoor) janitorLoop() {
	defer fd.janitor.Done()
	ticker := time.NewTicker(fd.cfg.AdaptEvery)
	defer ticker.Stop()
	for {
		select {
		case <-fd.quit:
			return
		case now := <-ticker.C:
			fd.adaptOnce(now)
		}
	}
}

// adaptOnce runs one controller tick: per tenant, resize the ingress
// depth and dispatcher share from the last window's admission counters
// and the latency histogram the tenant's plan set already keeps, then
// evict plan sets idle past IdleTTL. The policy:
//
//   - rejections in the window while windowed p99 ≤ TargetP99: the
//     tenant is bursty but its plan set keeps up — double the ingress
//     depth (to MaxQueueDepth) so the front door absorbs the burst.
//   - windowed p99 > TargetP99 with share headroom: grow the tenant's
//     dispatcher share by one — more parallelism on its plan set.
//   - windowed p99 > TargetP99 at max share: the tenant is overloaded —
//     halve the ingress depth (to the floor) so excess load is shed at
//     admission instead of queueing past its deadline.
//   - a fully idle window: decay depth and share one step back toward
//     the configured defaults.
func (fd *FrontDoor) adaptOnce(now time.Time) {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	grown := false // a grown share can make queued jobs pickable
	for _, t := range fd.tenants {
		var cur serve.Stats
		if p := t.plans.Load(); p != nil {
			cur = p.Stats()
		}
		rejDelta := t.rejected - t.ctrlRejected
		compDelta := t.completed - t.ctrlCompleted
		p99 := windowP99(&cur, &t.ctrlLat)
		switch {
		case rejDelta > 0 && p99 <= fd.target:
			t.depth = min(2*t.depth, fd.maxDepth)
		case p99 > fd.target && t.share < fd.maxShare:
			t.share++
			grown = true
		case p99 > fd.target:
			t.depth = max(t.depth/2, fd.minDepth)
		case rejDelta == 0 && compDelta == 0 && len(t.queue) == 0 && t.running == 0:
			switch {
			case t.depth > fd.cfg.QueueDepth:
				t.depth = max(t.depth/2, fd.cfg.QueueDepth)
			case t.depth < fd.cfg.QueueDepth:
				t.depth = min(2*t.depth, fd.cfg.QueueDepth)
			}
			switch {
			case t.share > fd.defShare:
				t.share--
			case t.share < fd.defShare:
				t.share++
			}
		}
		t.ctrlRejected = t.rejected
		t.ctrlCompleted = t.completed
		t.ctrlLat = cur
		if len(t.queue) == 0 && t.running == 0 && now.Sub(t.lastUse) > fd.cfg.IdleTTL {
			if t.plans.Swap(nil) != nil {
				t.evictions++
			}
		}
	}
	if grown {
		fd.cond.Broadcast()
	}
}

// windowP99 is the 99th-percentile completion latency over the window
// between two cumulative histogram snapshots — bucket-delta quantile,
// clamped to the current observed maximum, exactly the semantics of
// serve.Stats.ApproxQuantile but windowed.
func windowP99(cur, prev *serve.Stats) time.Duration {
	w := *cur
	var n int64
	for i := range w.Latency {
		w.Latency[i] -= prev.Latency[i]
		n += w.Latency[i]
	}
	if n == 0 {
		return 0
	}
	return w.ApproxQuantile(0.99)
}
