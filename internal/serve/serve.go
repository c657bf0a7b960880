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
// batch pipelines: when at least MinPackedLanes requests are on hand, a
// worker that picks up a Concentrate or Permute request greedily drains
// further queued requests of the same kind (never blocking) and, when
// the drained group is at least MinPackedLanes wide, routes the whole
// group through one SWAR plan replay (ConcentratePacked / RoutePacked) —
// up to burstLanes requests per replay, riding the packed engine's
// multi-word lane planes. With fewer on hand each request routes on its
// own, so a narrow group never serializes on one worker. The drain is
// fair across kinds: an other-kind request that ends a drain executes
// before the burst's wide replay, and a sustained single-kind stream has
// its burst width capped after maxConsecBursts consecutive full-width
// bursts, so no kind is starved past its deadline by another kind's
// packing. Results are bit-for-bit identical to the per-request path,
// and every drained task still honours its own context, deadline, and
// (for Concentrate) capacity check individually; a malformed permutation
// in a Permute burst resolves alone with its own error and never poisons
// its burst neighbours. The Ranking engine's Concentrate requests always
// take the per-request path, exactly as ConcentrateBatch does.
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

// burstLanes caps a worker's greedy same-kind drain: WideWords lane
// words of requests ride one multi-word packed replay — the widest group
// the auto-tuned batch pipelines use — while staying far below the
// packed engines' MaxPackedLanes hard limit.
const burstLanes = planner.WideWords * concentrator.PackedLanes

// maxConsecBursts bounds how many consecutive FULL-WIDTH same-kind
// bursts one worker may run before its drain is capped at a single lane
// word (concentrator.PackedLanes): under a sustained single-kind stream
// the greedy drain would otherwise claim burstLanes-deep stretches of
// the queue back to back, and a request of another kind — claimed as the
// drain's tail or waiting right behind the claimed stretch — would keep
// paying a full wide-replay latency per cycle, long enough to blow its
// deadline. Capped bursts still ride the packed replay (PackedLanes ≥
// MinPackedLanes), so the fairness bound costs only the widening, not
// the packing. The streak resets whenever another kind actually runs or
// the queue goes idle.
const maxConsecBursts = 4

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
	// recovery). Independent of the sampling rate, every response routed
	// by a plan instance that has already failed one check is verified
	// until recovery replaces the instance.
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

// Service is a streaming routing service: a bounded admission queue and
// a long-lived worker pool in front of one PlanSet. The embedded plan
// set supplies the routing, checking, fault and stats methods (its Exec
// routes a request inline on the caller's goroutine, bypassing the
// queue). It is safe for concurrent use.
type Service struct {
	PlanSet

	// packed enables the concentrate burst fast path: drained groups of
	// queued Concentrate requests ride one SWAR plan replay. Disabled for
	// the Ranking engine (its single stable partition gains nothing from
	// lane packing) and for the trivial n = 1 wire.
	packed bool
	// packedPerm enables the permute burst fast path: drained groups of
	// queued Permute requests ride one packed fused-plan replay
	// (permnet.RoutePacked). Unlike the concentrator, the permuter packs
	// every engine — each radix level's rank runs lane-parallel — so only
	// the trivial n = 1 wire disables it.
	packedPerm bool

	queue chan *task
	quit  chan struct{} // closed by Close: wakes blocked submitters

	mu         sync.Mutex // guards closed + submitters.Add
	closed     bool
	submitters sync.WaitGroup // Submits between admission check and send
	workers    sync.WaitGroup

	// testBeforeExec, when set (tests only), runs in the worker once per
	// task taken off the queue (including tasks drained into a packed
	// burst) before the task executes; it lets tests hold workers busy
	// deterministically.
	testBeforeExec func()
	// testOnBurst, when set (tests only), runs in the worker after a
	// drained group's tail (if any) has executed and before the group's
	// replay, reporting the burst kind and width; it lets tests pin the
	// drain-fairness behaviour deterministically.
	testOnBurst func(kind Kind, size int)
}

// New validates cfg, compiles the plan set, and starts the worker pool.
func New(cfg Config) (*Service, error) {
	s := &Service{}
	if err := s.init(cfg); err != nil {
		return nil, err
	}
	cfg = s.cfg
	s.packed = planner.PackedProfitable(cfg.Engine) && cfg.N > 1
	s.packedPerm = cfg.N > 1
	s.queue = make(chan *task, cfg.QueueDepth)
	s.quit = make(chan struct{})
	s.workers.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go s.worker()
	}
	return s, nil
}

// Workers and QueueDepth return the resolved configuration; QueueLen the
// current admission queue occupancy.
func (s *Service) Workers() int    { return s.cfg.Workers }
func (s *Service) QueueDepth() int { return s.cfg.QueueDepth }
func (s *Service) QueueLen() int   { return len(s.queue) }

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
	if err := s.cfg.CheckRequest(req); err != nil {
		s.stats.rejected.Add(1)
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		s.stats.rejected.Add(1)
		return nil, err
	}
	// Enter the submitter gate: Close waits for everyone inside it before
	// closing the queue channel, so a send can never hit a closed channel.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.stats.rejected.Add(1)
		return nil, ErrClosed
	}
	s.submitters.Add(1)
	s.mu.Unlock()
	defer s.submitters.Done()

	t := &task{
		req:       req,
		ctx:       ctx,
		fut:       NewFuture(),
		submitted: time.Now(),
	}
	// Count the admission BEFORE the queue send: a worker can take the
	// task and resolve it (incrementing Completed) the instant it lands
	// on the channel, so Submitted must already cover it or a torn Stats
	// snapshot can observe Submitted < Completed + InFlight. A send that
	// fails rolls the count back — the transient in between is a phantom
	// admission (Submitted one high), which the invariant tolerates,
	// never a missing one, which it would not.
	s.stats.submitted.Add(1)
	if block {
		select {
		case s.queue <- t:
		case <-ctx.Done():
			s.stats.submitted.Add(-1)
			s.stats.rejected.Add(1)
			return nil, ctx.Err()
		case <-s.quit:
			s.stats.submitted.Add(-1)
			s.stats.rejected.Add(1)
			return nil, ErrClosed
		}
	} else {
		select {
		case s.queue <- t:
		default:
			s.stats.submitted.Add(-1)
			s.stats.rejected.Add(1)
			return nil, ErrQueueFull
		}
	}
	return t.fut, nil
}

// Close stops admission, drains every admitted request (each Future
// resolves), and returns once all workers have exited. It is idempotent
// and safe to call concurrently.
func (s *Service) Close() {
	s.mu.Lock()
	first := !s.closed
	s.closed = true
	s.mu.Unlock()
	if first {
		close(s.quit)       // wake submitters blocked on a full queue
		s.submitters.Wait() // no Submit is mid-send any more
		close(s.queue)      // workers drain the remainder and exit
	}
	s.workers.Wait()
}

// worker drains the admission queue until it is closed and empty. With
// the matching packed fast path enabled and at least MinPackedLanes
// tasks on hand (the picked one plus the queue), a Concentrate or
// Permute task triggers a greedy non-blocking drain of further queued
// tasks of the same kind so the group rides one SWAR plan replay; with
// fewer the task runs per request, leaving the rest of the queue to the
// other workers instead of serializing a group too narrow to pack. Two
// fairness rules keep a sustained single-kind stream from starving the
// other kinds: the drain's other-kind tail executes BEFORE the burst's
// packed replay (one scalar route delays the burst; a wide replay could
// expire the tail's deadline), and after maxConsecBursts consecutive
// full-width same-kind bursts the drain is capped at one lane word so
// other-kind arrivals surface within PackedLanes tasks instead of
// burstLanes.
func (s *Service) worker() {
	defer s.workers.Done()
	var burst []*task
	var marked [][]bool
	var dests [][]int
	if s.packed || s.packedPerm {
		burst = make([]*task, 0, burstLanes)
	}
	if s.packed {
		marked = make([][]bool, 0, burstLanes)
	}
	if s.packedPerm {
		dests = make([][]int, 0, burstLanes)
	}
	lastKind := Kind(255) // kind of the previous burst; 255 = no streak
	consec := 0           // consecutive same-kind bursts, full width or capped
	for t := range s.queue {
		if s.testBeforeExec != nil {
			s.testBeforeExec()
		}
		var kind Kind
		wide := len(s.queue)+1 >= planner.MinPackedLanes // enough on hand to pack
		switch {
		case wide && s.packed && t.req.Kind == Concentrate:
			kind = Concentrate
		case wide && s.packedPerm && t.req.Kind == Permute:
			kind = Permute
		default:
			// Another kind, or too few tasks to pack: route this one alone
			// and leave the rest of the queue to the other workers.
			s.run(t)
			lastKind, consec = Kind(255), 0 // streak over
			continue
		}
		limit := burstLanes
		if kind == lastKind && consec >= maxConsecBursts {
			limit = concentrator.PackedLanes
		}
		burst = append(burst[:0], t)
		tail := s.drainKind(kind, &burst, limit)
		if tail != nil {
			// Age/deadline protection: the tail is the lone other-kind
			// request this worker claimed — run it before the wide replay
			// it is not part of, not after.
			s.run(tail)
		}
		if s.testOnBurst != nil {
			s.testOnBurst(kind, len(burst))
		}
		s.execBurst(kind, burst, marked, dests)
		switch {
		case tail != nil || len(burst) < limit:
			// Another kind ran, or the queue went idle mid-drain: no
			// sustained single-kind pressure, reset the streak.
			lastKind, consec = Kind(255), 0
		case kind == lastKind:
			consec++
		default:
			lastKind, consec = kind, 1
		}
	}
}

// drainKind greedily claims further queued tasks of the same kind up to
// limit, never blocking: under a request burst the queue is hot and the
// claimed group rides one packed plan replay; if the queue empties
// under a racing worker the group may come out narrow and route on the
// per-request path. Claim order matches queue order, so burst tasks
// execute in FIFO order. The first other-kind task claimed, if any, ends
// the drain and is returned — the worker executes it BEFORE the burst's
// packed replay (see worker), the one deliberate FIFO inversion.
func (s *Service) drainKind(kind Kind, burst *[]*task, limit int) *task {
	for len(*burst) < limit {
		select {
		case nt, ok := <-s.queue:
			if !ok {
				return nil
			}
			if s.testBeforeExec != nil {
				s.testBeforeExec()
			}
			if nt.req.Kind != kind {
				return nt
			}
			*burst = append(*burst, nt)
		default:
			return nil
		}
	}
	return nil
}

// execBurst resolves a drained group of same-kind tasks. Groups at
// least MinPackedLanes wide route through one packed plan replay
// (ConcentratePacked / RoutePacked); narrower groups take the
// per-request path (the packing overhead would not pay for itself), as
// does any group whose current plan instance cannot ride the packed
// replay — injected faults force the scalar faulty path, a Concentrate
// fallback onto the Ranking engine gains nothing from lane packing, and
// degraded (permuter-backed) service has no concentrator plan at all.
// Each task is still pre-checked individually — cancellation, deadline,
// and concentrator capacity — so one dead or over-capacity request
// resolves alone with its own error and never poisons its burst
// neighbours. The packed-group fallback is reachable for Permute:
// admission validates only lengths, so a non-permutation destination
// assignment surfaces inside RoutePacked — the group then re-routes
// per request so each task gets its own canonical result or error.
func (s *Service) execBurst(kind Kind, burst []*task, marked [][]bool, dests [][]int) {
	inst := s.loadInst(kind)
	if len(burst) < planner.MinPackedLanes || !inst.packable(kind) {
		for _, t := range burst {
			s.run(t)
		}
		return
	}
	live := burst[:0] // compact forward: reads stay ahead of writes
	for _, t := range burst {
		switch err := expired(t.ctx, t.req); {
		case err != nil:
			s.resolve(t, Result{}, err)
		case kind == Concentrate && s.overCapacity(t.req.Marked):
			res, err := s.routeOn(inst, t.req) // canonical capacity error text
			s.resolve(t, res, err)
		default:
			live = append(live, t)
		}
	}
	if len(live) < planner.MinPackedLanes {
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
			// Shard-parallel drain: the burst routes in groups of requests
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
	for i, t := range live {
		res := Result{Perm: perms[i]}
		if counts != nil {
			res.Count = counts[i]
		}
		res, err := s.checkSampled(t.req, inst, res, nil)
		s.resolve(t, res, err)
	}
}

// run resolves one task through the plan set's per-request path.
func (s *Service) run(t *task) {
	res, err := s.exec(t.ctx, t.req)
	s.resolve(t, res, err)
}

// routeEach resolves pre-checked tasks one by one on the per-request
// path — the fallback of a burst that cannot ride the packed replay.
func (s *Service) routeEach(ts []*task) {
	for _, t := range ts {
		res, err := s.routeChecked(t.req)
		s.resolve(t, res, err)
	}
}

// resolve records a task's outcome in the counters and latency
// histogram, then publishes it exactly once: a caller that has seen its
// Future resolve also sees it in Stats.
func (s *Service) resolve(t *task, res Result, err error) {
	s.record(t.submitted, err)
	t.fut.Resolve(res, err)
}
