package absort

import (
	"absort/internal/frontdoor"
)

// FrontDoor is the multi-tenant routing front door: one shared
// dispatcher pool serving many per-tenant plan sets, each lazily
// instantiated through the shared plan cache on first traffic and
// evicted when idle. The dispatchers run requests inline on the plan
// sets, so a tenant costs no goroutines. Tenants get bounded ingress
// queues scheduled by word-fair deficit round-robin, per-tenant stats,
// and an adaptive controller that resizes queue depth and worker share
// from each plan set's latency histogram. See internal/frontdoor for
// the scheduling, adaptation, and eviction semantics.
type FrontDoor = frontdoor.FrontDoor

// FrontDoorConfig configures a FrontDoor; zero values select defaults
// (Workers = GOMAXPROCS, QueueDepth = 64, MaxQueueDepth = 16×,
// MaxTenants = 64, IdleTTL = 30s, TargetP99 = 5ms).
type FrontDoorConfig = frontdoor.Config

// TenantSpec declares one tenant's plan-set shape: sorting-network
// width, engine, and scheduling weight.
type TenantSpec = frontdoor.TenantSpec

// FrontDoorFuture is the always-resolved handle of a request admitted
// to a tenant queue; it is the same type as ServeFuture.
type FrontDoorFuture = frontdoor.Future

// FrontDoorStats is an aggregate snapshot across all tenants.
type FrontDoorStats = frontdoor.Stats

// TenantStats is one tenant's snapshot: scheduling state, cumulative
// counters, and (when the plan set is live) the plan set's own serve
// and fault stats.
type TenantStats = frontdoor.TenantStats

// FrontDoorServer serves a FrontDoor over TCP with the length-prefixed
// binary wire protocol.
type FrontDoorServer = frontdoor.Server

// FrontDoorClient is a pipelined client connection to a
// FrontDoorServer; concurrent calls share the connection.
type FrontDoorClient = frontdoor.Client

// FrontDoorRemoteError is a refused request reported by the server
// (unknown tenant, malformed payload, routing error). Busy responses
// surface as ErrTenantQueueFull instead.
type FrontDoorRemoteError = frontdoor.RemoteError

// Front-door errors.
var (
	// ErrFrontDoorClosed reports submission after Close.
	ErrFrontDoorClosed = frontdoor.ErrClosed
	// ErrUnknownTenant reports a submission for an unregistered tenant.
	ErrUnknownTenant = frontdoor.ErrUnknownTenant
	// ErrTenantExists reports a duplicate Register.
	ErrTenantExists = frontdoor.ErrTenantExists
	// ErrTooManyTenants reports registration past MaxTenants.
	ErrTooManyTenants = frontdoor.ErrTooManyTenants
	// ErrTenantQueueFull reports fail-fast admission on a full tenant
	// queue; retryable.
	ErrTenantQueueFull = frontdoor.ErrTenantQueueFull
)

// NewFrontDoor starts the dispatcher pool and idle-eviction janitor.
// Callers must Close the front door to release them.
func NewFrontDoor(cfg FrontDoorConfig) *FrontDoor {
	return frontdoor.New(cfg)
}

// NewFrontDoorServer listens on addr and serves fd over the wire
// protocol until Close.
func NewFrontDoorServer(fd *FrontDoor, addr string) (*FrontDoorServer, error) {
	return frontdoor.NewServer(fd, addr)
}

// DialFrontDoor connects a pipelined client to a FrontDoorServer.
func DialFrontDoor(addr string) (*FrontDoorClient, error) {
	return frontdoor.Dial(addr)
}
