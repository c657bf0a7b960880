package absort

import (
	"context"
	"time"

	"absort/internal/serve"
)

// RoutingService is the streaming front door to the compiled routing
// plans: a long-lived worker pool behind a bounded admission queue, on
// top of one plan set (radix permuter + (n,m)-concentrator + word
// sorter) for a fixed (n, engine, k), replayed over a request stream —
// the serving-style counterpart of the one-shot Batch* APIs. See
// internal/serve for the admission, backpressure, and drain semantics.
type RoutingService = serve.Service

// ServeConfig configures a RoutingService; zero values select defaults
// (M = N, WordBits = 64, Workers = GOMAXPROCS, QueueDepth = 4×Workers).
type ServeConfig = serve.Config

// ServeRequest is one unit of work for a RoutingService.
type ServeRequest = serve.Request

// ServeResult is the outcome of a routed ServeRequest.
type ServeResult = serve.Result

// ServeFuture is the always-resolved handle of an admitted request.
type ServeFuture = serve.Future

// ServeStats is a snapshot of a RoutingService's counters and latency
// histogram.
type ServeStats = serve.Stats

// Request kinds for a RoutingService.
const (
	// ServePermute routes a destination assignment through the permuter
	// plan.
	ServePermute = serve.Permute
	// ServeConcentrate routes a request pattern through the concentrator
	// plan.
	ServeConcentrate = serve.Concentrate
	// ServeSortWords sorts a key set through the word sorter.
	ServeSortWords = serve.SortWords
)

// Streaming-service errors.
var (
	// ErrServeQueueFull reports TrySubmit backpressure.
	ErrServeQueueFull = serve.ErrQueueFull
	// ErrServeClosed reports submission after Close.
	ErrServeClosed = serve.ErrClosed
	// ErrServeDeadline reports a request whose deadline expired while
	// queued.
	ErrServeDeadline = serve.ErrDeadlineExceeded
)

// NewRoutingService compiles the plan set for cfg and starts the worker
// pool. Callers must Close the service to release the workers.
func NewRoutingService(cfg ServeConfig) (*RoutingService, error) {
	return serve.New(cfg)
}

// PermuteRequest builds a ServeRequest routing the assignment "input i
// goes to output dest[i]" through the service's permuter plan.
func PermuteRequest(dest []int) ServeRequest {
	return ServeRequest{Kind: ServePermute, Dest: dest}
}

// ConcentrateRequest builds a ServeRequest concentrating the marked
// inputs onto the leading outputs.
func ConcentrateRequest(marked []bool) ServeRequest {
	return ServeRequest{Kind: ServeConcentrate, Marked: marked}
}

// SortWordsRequest builds a ServeRequest sorting keys through the
// service's word sorter.
func SortWordsRequest(keys []uint64) ServeRequest {
	return ServeRequest{Kind: ServeSortWords, Keys: keys}
}

// SubmitWithDeadline is a convenience wrapper stamping a per-request
// deadline before submitting: the Future resolves with ErrServeDeadline
// if no worker starts the request by then.
func SubmitWithDeadline(ctx context.Context, s *RoutingService, req ServeRequest, deadline time.Time) (*ServeFuture, error) {
	req.Deadline = deadline
	return s.Submit(ctx, req)
}

// ServeWireFault describes one wire to wedge (stuck-at-0/1) into a
// running RoutingService's current plan instance — the fault-injection
// knob of the fault-tolerant serving layer. Inject it with
// (*RoutingService).InjectFault; the service's sampled lanewise checker
// detects the resulting misroutes, recompiles around the fault
// (same-engine spares, then the engine fallback rotation, then degraded
// permuter-backed concentration), and replays the affected requests, so
// admitted Futures still resolve with verified results. See
// internal/serve's fault machinery and (*RoutingService).FaultStats.
type ServeWireFault = serve.WireFault

// ServeFaultStats is a snapshot of a RoutingService's fault-tolerance
// counters (responses checked, misroutes detected, plans recompiled,
// requests replayed, degraded concentrations served).
type ServeFaultStats = serve.FaultStats

// ErrServeFaultUnrecovered resolves a Future whose response failed
// verification on every recovery attempt.
var ErrServeFaultUnrecovered = serve.ErrFaultUnrecovered
