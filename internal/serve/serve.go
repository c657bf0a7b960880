// Package serve is the streaming routing service in front of the compiled
// routing plans. It has two layers:
//
//   - A PlanSet (plans.go) owns one compiled plan per request kind — the
//     Fig. 10 radix permuter's route plan, an (n,m)-concentrator plan
//     (Section IV), and a word sorter (the Section I radix
//     decomposition) — plus the sampled response checker, fault
//     recovery and the stats counters. It starts no goroutines: Exec
//     runs one request to completion on the caller's goroutine.
//   - A Service is a PlanSet behind a bounded admission queue and a
//     long-lived worker pool, replayed over an unbounded request stream.
//
// This is the serving regime of a fixed small network: the same compiled
// structure is reused across many inputs, exactly the periodic operation
// studied for constant-periodic merging networks. Where the batch
// pipelines (concentrator.ConcentrateBatch, permnet.RouteBatch) fan a
// one-shot slice of requests across cores and return, a Service accepts
// requests asynchronously:
//
//   - Submit blocks while the bounded queue is full (backpressure),
//     honouring context cancellation; TrySubmit fails fast with
//     ErrQueueFull.
//   - Every admitted request gets a Future that is always resolved —
//     with a result, a routing error, or a cancellation error — never
//     dropped, even across Close.
//   - Close rejects new admissions, drains everything already admitted,
//     and returns only after the workers have exited.
//   - Stats exposes admission/completion counters and a power-of-two
//     latency histogram.
//
// Workers execute on the plans' pooled scratch, so steady-state service
// throughput matches the batch pipelines: the only per-request
// allocations are the task envelope and the result slices handed to the
// caller.
//
// Under a request burst the service additionally matches the packed
// batch pipelines. The queue is a FIFO a worker can look into, and a
// worker always takes a prefix of it: the queue's leading run of
// same-kind requests when that kind can ride a packed replay on its
// current plan instance and the run is at least k* long (up to one lane
// word, PackedLanes requests), otherwise the head alone. A run routes
// through one SWAR plan replay (ConcentratePacked / RoutePacked), one
// request per bit lane; a shorter run leaves its requests to be routed
// one by one, spread over the workers. k* is the break-even width
// measured on the kind's current plan instance:
// ⌈one packed replay ÷ one per-request route⌉, both the
// minimum wall time the workers have observed, clamped to [2, 64]; it
// is MinPackedLanes until both costs have a sample, and a replacement
// instance swapped in by fault recovery re-learns it. Because every
// claim is a prefix, requests are claimed in admission order: none is
// ever taken ahead of one admitted before it.
//
// A flat-plan replay costs a whole lane word however few lanes it
// fills, so a worker holds a packable leading run shorter than one lane
// word (64) on a flat plan instead of claiming it, in one of two ways.
// While another worker has a packed replay in flight the hold is
// Nagle's rule for lane words: the completions of the replay in flight
// are about to refill the queue, and the hold ends when the run fills a
// word, when the service's last packed replay in flight returns, or at
// Close. The held worker sits idle meanwhile, and every later request,
// of any kind, queues behind the held run: a SortWords, or a Permute
// behind a short Concentrate run, waits up to one replay time that a
// free worker would have spared it, and a request whose deadline passes
// in that wait resolves with its deadline error, since context and
// deadline are checked when its run executes. With no replay in flight
// the hold is timed, by the ski-rental rule: wait at most what acting
// now would cost. Acting now on a run of r costs min(packed word,
// r × per-request route), both from the plan instance's cost cells. A
// timed hold waits for the echo of the kind's last claim: it holds only
// a run at the queue's tail that is still shorter than the last run of
// its kind the service claimed, since the completions of that claim are
// what refill the queue, and only when that width reaches k* times the
// worker count — below it, one replay on one worker is slower than the
// same requests routed one by one on every worker. It ends when the run
// fills a word or reaches that width, when its head has waited that
// cost since admission, when a request of another kind lands behind it
// (then it cannot grow), or at Close. A lone request is never held
// after a lone claim of its kind, so a client with one request in
// flight is never delayed, and a closed loop of c clients waits only
// until its c requests are back. Nothing is held while either cell is
// unobserved. A deadline in the run (Request.Deadline or a context's)
// ends the hold that same cost before the earliest one, so waiting
// never turns a success into ErrDeadlineExceeded. One timer per service
// wakes the held workers when a timed hold ends, and Close stops it.
// When a hold ends the rule above applies, and a worker that claims a
// run with tasks left behind it wakes another for them. Per-request
// routes never count as in flight, so a run below k* still spreads over
// the workers once its hold ends. The sharded permuter (n ≥ 65536) is
// never held: each request of its run spans w shard lanes of its own (a
// whole lane word at n = 65536), so waiting for 64 fills no lane.
//
// Stats reports per kind how many requests were packed and routed per
// request, how many packed replays ran, and the current k*. Results are
// bit-for-bit identical to the per-request path, and every task of a run
// still honours its own context, deadline, and (for Concentrate)
// capacity check individually; a malformed permutation in a Permute run
// resolves alone with its own error and never poisons its neighbours.
// The Ranking engine's Concentrate requests always take the per-request
// path, exactly as ConcentrateBatch does.
//
// The plan set additionally carries the paper's hardware fault model into
// the serving regime (see fault.go): each request kind routes through a
// swappable plan INSTANCE (one "hardware copy" of the compiled plan),
// InjectFault wedges wires of an instance under live traffic, a sampled
// lanewise checker verifies responses against the routing invariants, and
// a detected misroute quarantines the instance and recompiles around the
// fault — onto spare capacity, across engines, or (for the concentrator)
// degrading onto the permuter — replaying the failed requests so no
// admitted Future ever resolves with a wrong result.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"absort/internal/concentrator"
	"absort/internal/planner"
)

// Engine selects the routing engine backing a plan set.
type Engine = concentrator.Engine

// Service errors.
var (
	// ErrQueueFull is returned by TrySubmit when the admission queue is at
	// QueueDepth.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrClosed is returned by Submit/TrySubmit after Close has started.
	ErrClosed = errors.New("serve: service closed")
	// ErrDeadlineExceeded resolves a request whose deadline passed before
	// its routing started.
	ErrDeadlineExceeded = errors.New("serve: request deadline exceeded before execution")
)

// Config configures a Service.
type Config struct {
	// N is the network width (a power of two).
	N int
	// Engine selects the routing engine for the whole plan set.
	Engine Engine
	// K is the fish group count (≤ 0 selects the paper's k = lg n choice;
	// other engines ignore it).
	K int
	// M is the concentrator output capacity (≤ 0 means N: the
	// (n,n)-concentrator every binary sorter forms).
	M int
	// WordBits is the word-sort key width (≤ 0 means 64).
	WordBits int
	// Workers is the worker pool size (≤ 0 means GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue (≤ 0 means 4 × Workers).
	QueueDepth int
	// CheckFraction is the fraction of successful responses verified by
	// the lanewise misroute checker (permutation realization for Permute,
	// ones-conservation for Concentrate, sortedness for SortWords). 0
	// selects the default 1/64 sampling; values ≥ 1 check every response;
	// negative disables checking (and with it fault detection and
	// recovery); NaN is rejected. Independent of the sampling rate, every
	// response routed by a plan instance that has already failed one
	// check is verified until recovery replaces the instance.
	CheckFraction float64
	// Spares is the number of same-engine spare plan instances recovery
	// may allocate per request kind before quarantining the engine and
	// falling back to the next one. 0 selects the default (1); negative
	// means no spares — the first detected fault on a kind fails over to
	// another engine immediately.
	Spares int
}

// Kind selects what a Request asks the plan set to route.
type Kind uint8

// Request kinds.
const (
	// Permute routes Dest (a permutation in "input i goes to output
	// dest[i]" form) through the radix permuter's compiled plan.
	Permute Kind = iota
	// Concentrate routes Marked through the concentrator's compiled plan.
	Concentrate
	// SortWords sorts Keys through the word sorter's compiled plan.
	SortWords

	numKinds = iota // number of request kinds
)

func (k Kind) String() string {
	switch k {
	case Permute:
		return "permute"
	case Concentrate:
		return "concentrate"
	case SortWords:
		return "sortwords"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Request is one unit of work submitted to a Service. Exactly the field
// matching Kind must be populated with length N.
type Request struct {
	Kind   Kind
	Dest   []int    // Permute: destination assignment (a permutation)
	Marked []bool   // Concentrate: request pattern
	Keys   []uint64 // SortWords: keys to sort

	// Deadline, when nonzero, drops the request (resolving it with
	// ErrDeadlineExceeded) if its routing has not started by then.
	Deadline time.Time
}

// Result is the outcome of a successfully routed Request.
type Result struct {
	// Perm is the realized permutation in receives-from form
	// (out[j] = in[Perm[j]]); set for every kind.
	Perm []int
	// Count is the number of concentrated inputs (Concentrate only).
	Count int
	// Keys are the sorted keys (SortWords only).
	Keys []uint64
}

// Future is the handle of an admitted request. It is resolved exactly
// once — the service never drops an admitted Future, even across Close.
type Future struct {
	done chan struct{}
	res  Result
	err  error
}

// Done is closed when the Future has been resolved.
func (f *Future) Done() <-chan struct{} { return f.done }

// Wait blocks until the Future resolves or ctx is done, returning the
// result or the first error (routing error, cancellation, or ctx error).
// Resolution wins every race with cancellation: a ctx that is canceled
// after (or concurrently with) the resolution still returns the result,
// so concurrent Wait callers on a resolved Future all observe the same
// (Result, error) pair regardless of their contexts.
func (f *Future) Wait(ctx context.Context) (Result, error) {
	select {
	case <-f.done:
		return f.res, f.err
	default:
	}
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		// Both channels may have been ready and select picks arbitrarily:
		// re-check so an already-resolved Future never reports ctx.Err().
		select {
		case <-f.done:
			return f.res, f.err
		default:
		}
		return Result{}, ctx.Err()
	}
}

// Result returns the resolved outcome. It must only be called after Done
// is closed (Wait does this for you).
func (f *Future) Result() (Result, error) { return f.res, f.err }

// NewFuture returns an unresolved Future, for an admission layer that
// queues requests itself and runs them through PlanSet.Exec.
func NewFuture() *Future { return &Future{done: make(chan struct{})} }

// Resolve publishes the outcome and wakes every waiter. It must be
// called exactly once, by whoever created the Future with NewFuture:
// Futures returned by Service.Submit are resolved by the service.
func (f *Future) Resolve(res Result, err error) {
	f.res, f.err = res, err
	close(f.done)
}

// task is the queue envelope of an admitted request.
type task struct {
	req       Request
	ctx       context.Context
	fut       *Future
	submitted time.Time
}

// deadline returns the earlier of the task's Request.Deadline and its
// context's deadline, and whether it has either.
func (t *task) deadline() (time.Time, bool) {
	dl, ok := t.ctx.Deadline()
	if r := t.req.Deadline; !r.IsZero() && (!ok || r.Before(dl)) {
		dl, ok = r, true
	}
	return dl, ok
}

// Service is a streaming routing service: a bounded admission queue and
// a long-lived worker pool in front of one PlanSet. The embedded plan
// set supplies the routing, checking, fault and stats methods (its Exec
// routes a request inline on the caller's goroutine, bypassing the
// queue). It is safe for concurrent use.
type Service struct {
	PlanSet

	// slots holds one token per admitted task still in the queue (or
	// between admission and append), so at most QueueDepth are ever
	// queued: Submit blocks on it, TrySubmit fails fast.
	slots chan struct{}
	quit  chan struct{} // closed by Close: wakes blocked submitters

	mu      sync.Mutex    // guards queue, replays, closed and the hold timer
	ready   sync.Cond     // on mu: a task queued or left behind a claim, the last packed replay returned, a timed hold ended, or Close
	queue   []*task       // admitted tasks in admission order
	replays int           // packed runs claimed and not yet resolved
	lastRun [numKinds]int // width of the last run claimed, per kind: how wide a timed hold lets a run grow
	closed  bool
	workers sync.WaitGroup

	// holdTimer wakes the held workers when a timed hold ends (see
	// runLen); it is made on the first timed hold and stopped by Close.
	// holdWake is when it fires, zero while it is not armed.
	holdTimer *time.Timer
	holdWake  time.Time

	// testBeforeExec, when set (tests only), runs in the worker once per
	// task taken off the queue (including every task of a packed run)
	// before the task executes; it lets tests hold workers busy
	// deterministically.
	testBeforeExec func()
	// testOnBurst, when set (tests only), runs in the worker before a
	// taken run's replay, reporting the run's kind and width; it lets
	// tests pin the run rule deterministically.
	testOnBurst func(kind Kind, size int)
}

// New validates cfg, compiles the plan set, and starts the worker pool.
func New(cfg Config) (*Service, error) {
	s := &Service{}
	if err := s.init(cfg); err != nil {
		return nil, err
	}
	s.slots = make(chan struct{}, s.cfg.QueueDepth)
	s.quit = make(chan struct{})
	s.ready.L = &s.mu
	s.queue = make([]*task, 0, s.cfg.QueueDepth)
	s.workers.Add(s.cfg.Workers)
	for w := 0; w < s.cfg.Workers; w++ {
		go s.worker()
	}
	return s, nil
}

// Workers and QueueDepth return the resolved configuration; QueueLen the
// current admission queue occupancy.
func (s *Service) Workers() int    { return s.cfg.Workers }
func (s *Service) QueueDepth() int { return s.cfg.QueueDepth }
func (s *Service) QueueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Submit admits req, blocking while the queue is full. It returns a
// Future that is always resolved, or an error when the request is
// malformed, ctx is done before admission, or the service is closed.
func (s *Service) Submit(ctx context.Context, req Request) (*Future, error) {
	return s.submit(ctx, req, true)
}

// TrySubmit is Submit without blocking: a full queue returns ErrQueueFull
// immediately.
func (s *Service) TrySubmit(ctx context.Context, req Request) (*Future, error) {
	return s.submit(ctx, req, false)
}

func (s *Service) submit(ctx context.Context, req Request, block bool) (*Future, error) {
	t, err := s.admit(ctx, req, block)
	if err != nil {
		s.stats.rejected.Add(1)
		return nil, err
	}
	return t.fut, nil
}

// admit validates req, takes a queue slot and appends the task. Submitted
// is counted under the queue mutex before the append: no worker can
// resolve the task (incrementing Completed) before it is counted, so
// every Stats snapshot keeps Submitted ≥ Completed + InFlight.
func (s *Service) admit(ctx context.Context, req Request, block bool) (*task, error) {
	if err := s.cfg.CheckRequest(req); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if block {
		select {
		case s.slots <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-s.quit:
			return nil, ErrClosed
		}
	} else {
		select {
		case s.slots <- struct{}{}:
		case <-s.quit:
			return nil, ErrClosed
		default:
			return nil, ErrQueueFull
		}
	}
	t := &task{req: req, ctx: ctx, fut: NewFuture(), submitted: time.Now()}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.slots
		return nil, ErrClosed
	}
	s.stats.submitted.Add(1)
	s.queue = append(s.queue, t)
	s.mu.Unlock()
	s.ready.Signal()
	return t, nil
}

// Close stops admission, drains every admitted request (each Future
// resolves), and returns once all workers have exited. It is idempotent
// and safe to call concurrently.
func (s *Service) Close() {
	s.mu.Lock()
	first := !s.closed
	s.closed = true
	if s.holdTimer != nil {
		s.holdTimer.Stop()
	}
	s.mu.Unlock()
	if first {
		close(s.quit)       // wake submitters blocked on a full queue
		s.ready.Broadcast() // idle workers see closed and exit once drained
	}
	s.workers.Wait()
}

// worker takes runs off the queue until it is closed and empty. A run of
// one routes per request; a longer run (see runLen) rides one packed
// plan replay.
func (s *Service) worker() {
	defer s.workers.Done()
	claimed := make([]*task, 0, planner.PackedLanes)
	marked := make([][]bool, 0, planner.PackedLanes)
	dests := make([][]int, 0, planner.PackedLanes)
	for {
		if claimed = s.take(claimed); len(claimed) == 0 {
			return
		}
		if s.testBeforeExec != nil {
			for range claimed {
				s.testBeforeExec()
			}
		}
		if len(claimed) == 1 {
			s.run(claimed[0])
			continue
		}
		kind := claimed[0].req.Kind
		if s.testOnBurst != nil {
			s.testOnBurst(kind, len(claimed))
		}
		s.execBurst(kind, claimed, marked, dests)
		s.mu.Lock()
		if s.replays--; s.replays == 0 {
			s.ready.Broadcast() // release the partial runs held behind it
		}
		s.mu.Unlock()
	}
}

// take blocks until the queue holds a run to claim, then moves it
// (runLen tasks off its front) into buf and frees their queue slots. A
// run longer than one counts as a packed replay in flight until the
// worker has resolved it. When tasks remain behind the run, take wakes
// one more worker to read them: admit's one wake-up may have been spent
// on this claim while the others sleep through a hold that has ended.
// take returns an empty run once the service is closed and the queue
// drained.
func (s *Service) take(buf []*task) []*task {
	s.mu.Lock()
	var n int
	for {
		if len(s.queue) > 0 {
			if n = s.runLen(); n > 0 {
				break
			}
		} else if s.closed {
			s.mu.Unlock()
			return buf[:0]
		}
		s.ready.Wait()
	}
	if n > 1 {
		s.replays++
	}
	s.lastRun[s.queue[0].req.Kind] = n
	buf = append(buf[:0], s.queue[:n]...)
	rest := copy(s.queue, s.queue[n:])
	clear(s.queue[rest:])
	s.queue = s.queue[:rest]
	s.mu.Unlock()
	if rest > 0 {
		s.ready.Signal()
	}
	for range n {
		<-s.slots
	}
	return buf
}

// runLen is the length of the next run, with s.mu held and the queue
// non-empty: the queue's leading same-kind run, up to PackedLanes, when
// the head's kind can ride a packed replay on its current plan instance
// and the run reaches the instance's break-even width k*; otherwise 1,
// the head alone. A run shorter than k* is left to route per request,
// one task per take, so it spreads over the workers instead of
// serializing on one. While the service is open, a packable run on a
// flat plan shorter than one lane word is held instead — behind a packed
// replay in flight, or, while it is shorter than a wide enough last run
// of its kind claimed, for at most what serving it now would cost (see
// held) — and runLen returns 0 (see the package comment).
func (s *Service) runLen() int {
	kind := s.queue[0].req.Kind
	inst := s.loadInst(kind)
	if s.cfg.N < 2 || !inst.packable(kind) {
		return 1
	}
	n := 1
	for n < len(s.queue) && n < planner.PackedLanes && s.queue[n].req.Kind == kind {
		n++
	}
	if n < planner.PackedLanes && !s.closed && inst.sharded == nil && s.held(inst, n) {
		return 0
	}
	if n < inst.breakEven() {
		return 1
	}
	return n
}

// held reports whether the queue's leading run of r tasks, packable on
// inst, stays held, with s.mu held. Behind a packed replay in flight it
// does. Otherwise only a run that reaches the queue's tail can grow, and
// only one shorter than the last run of its kind claimed (lastRun) is
// still waiting for that claim's completions to come back; it is held
// only when lastRun reaches k* × Workers, from where one replay of that
// width beats spreading its requests over every worker. Serving it now
// costs c = inst.serveNowNs(r): it is held until its head has waited c
// since admission, or until c before the earliest deadline among its
// tasks, whichever comes first, and held arms the service's hold timer
// for that instant. While a cost cell is unobserved c is 0, and nothing
// is held.
func (s *Service) held(inst *planInstance, r int) bool {
	if s.replays > 0 {
		return true
	}
	last := s.lastRun[s.queue[0].req.Kind]
	if r < len(s.queue) || r >= last || last < s.cfg.Workers*inst.breakEven() {
		return false
	}
	c := time.Duration(inst.serveNowNs(r))
	now := time.Now()
	until := s.queue[0].submitted.Add(c)
	if !now.Before(until) {
		return false
	}
	for _, t := range s.queue[:r] {
		if dl, ok := t.deadline(); ok && dl.Add(-c).Before(until) {
			until = dl.Add(-c)
		}
	}
	if !now.Before(until) {
		return false
	}
	if s.holdWake.IsZero() || until.Before(s.holdWake) {
		s.holdWake = until
		if s.holdTimer == nil {
			s.holdTimer = time.AfterFunc(until.Sub(now), s.endHold)
		} else {
			s.holdTimer.Reset(until.Sub(now))
		}
	}
	return true
}

// endHold is the hold timer's callback: it disarms the timer and wakes
// every held worker, which re-reads the queue under s.mu.
func (s *Service) endHold() {
	s.mu.Lock()
	s.holdWake = time.Time{}
	s.mu.Unlock()
	s.ready.Broadcast()
}

// execBurst resolves a run of same-kind tasks taken off the queue. A
// run at least k* wide (the current plan instance's break-even width)
// routes through one packed plan replay (ConcentratePacked /
// RoutePacked). It takes the per-request path instead when recovery has
// swapped in an instance since the take that cannot ride the packed
// replay or has a wider k* — injected faults force the scalar faulty
// path, a Concentrate fallback onto the Ranking engine gains nothing
// from lane packing, and degraded (permuter-backed) service has no
// concentrator plan at all. Each task is still pre-checked individually
// — cancellation, deadline, and concentrator capacity — so one dead or
// over-capacity request resolves alone with its own error and never
// poisons its neighbours. The packed fallback is reachable for Permute:
// admission validates only lengths, so a non-permutation destination
// assignment surfaces inside RoutePacked — the run then re-routes per
// request so each task gets its own canonical result or error. A
// successful flat-plan replay feeds the instance's packed cost cell; the
// sharded plan's replays do not (its requests span shard lanes, not one
// lane each), so its k* stays at MinPackedLanes.
func (s *Service) execBurst(kind Kind, burst []*task, marked [][]bool, dests [][]int) {
	inst := s.loadInst(kind)
	k := inst.breakEven()
	if len(burst) < k || !inst.packable(kind) {
		for _, t := range burst {
			s.run(t)
		}
		return
	}
	live := burst[:0] // compact forward: reads stay ahead of writes
	for _, t := range burst {
		switch err := expired(t.ctx, t.req); {
		case err != nil:
			s.resolve(t, Result{}, err, false)
		case kind == Concentrate && s.overCapacity(t.req.Marked):
			res, err := s.routeOn(inst, t.req) // canonical capacity error text
			s.resolve(t, res, err, false)
		default:
			live = append(live, t)
		}
	}
	if len(live) < k {
		s.routeEach(live)
		return
	}
	n := s.cfg.N
	flat := make([]int, len(live)*n)
	perms := make([][]int, len(live))
	for i := range live {
		perms[i] = flat[i*n : (i+1)*n]
	}
	var counts []int
	var err error
	start := time.Now()
	if kind == Concentrate {
		counts = make([]int, len(live))
		marked = marked[:0]
		for _, t := range live {
			marked = append(marked, t.req.Marked)
		}
		err = inst.conc.ConcentratePacked(perms, counts, marked)
	} else {
		dests = dests[:0]
		for _, t := range live {
			dests = append(dests, t.req.Dest)
		}
		if inst.sharded != nil {
			// Shard-parallel replay: the run routes in groups of requests
			// per wide replay, each request spanning its w shard lanes.
			err = inst.sharded.RoutePacked(perms, dests)
		} else {
			err = inst.perm.RoutePacked(perms, dests)
		}
	}
	if err != nil {
		s.routeEach(live)
		return
	}
	s.stats.paths[kind].replays.Add(1)
	if inst.sharded == nil {
		inst.observePacked(time.Since(start))
	}
	for i, t := range live {
		res := Result{Perm: perms[i]}
		if counts != nil {
			res.Count = counts[i]
		}
		res, err := s.checkSampled(t.req, inst, res, nil)
		s.resolve(t, res, err, true)
	}
}

// run resolves one task on the per-request path: the expiry checks,
// then routeOne.
func (s *Service) run(t *task) {
	if err := expired(t.ctx, t.req); err != nil {
		s.resolve(t, Result{}, err, false)
		return
	}
	s.routeOne(t)
}

// routeOne routes one live task alone on its kind's current plan
// instance, with the sampled response check. A successful route on a
// packable instance feeds the instance's scalar cost cell.
func (s *Service) routeOne(t *task) {
	inst := s.loadInst(t.req.Kind)
	start := time.Now()
	res, err := s.routeOn(inst, t.req)
	if err == nil && inst.packable(t.req.Kind) {
		inst.observeScalar(time.Since(start))
	}
	res, err = s.checkSampled(t.req, inst, res, err)
	s.resolve(t, res, err, false)
}

// routeEach resolves pre-checked tasks one by one on the per-request
// path — the fallback of a run that cannot ride the packed replay.
func (s *Service) routeEach(ts []*task) {
	for _, t := range ts {
		s.routeOne(t)
	}
}

// resolve records a task's outcome — and whether a packed replay routed
// it — in the counters and latency histogram, then publishes it exactly
// once: a caller that has seen its Future resolve also sees it in Stats.
func (s *Service) resolve(t *task, res Result, err error, packed bool) {
	s.record(t.submitted, t.req.Kind, packed, err)
	t.fut.Resolve(res, err)
}
