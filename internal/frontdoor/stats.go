// Front-door observability: per-tenant and aggregate counter snapshots.
package frontdoor

import (
	"fmt"
	"sort"

	"absort/internal/serve"
)

// TenantStats is a point-in-time snapshot of one tenant's front-door
// state and, when the tenant's plan set is live, the plan set's own
// counters.
type TenantStats struct {
	// ID and Spec identify the tenant as registered.
	ID   string
	Spec TenantSpec

	// Queued and Running are the current ingress-queue occupancy and
	// in-dispatch count; Depth and Share are the adaptive controller's
	// current ingress bound and dispatcher-share bound.
	Queued, Running, Depth, Share int

	// Submitted counts admitted requests; Rejected counts Submit calls
	// refused (unknown kind, bad length, full queue, closed); Completed
	// counts resolved front-door Futures; Failed counts Futures resolved
	// with an error; Evictions counts idle plan-set evictions. All are
	// cumulative across evictions.
	Submitted, Rejected, Completed, Failed, Evictions int64

	// Live reports whether the tenant's plan set is currently
	// instantiated; Serve and Fault are its serve.PlanSet snapshots (zero
	// while evicted — the plan set's counters do not survive eviction,
	// the front-door counters above do). Serve counts requests from
	// dispatch: Completed covers every request a dispatcher ran on the
	// plan set, and its latency histogram covers execution only.
	Live  bool
	Serve serve.Stats
	Fault serve.FaultStats
}

// Stats is an aggregate snapshot across all tenants.
type Stats struct {
	// Tenants counts registrations; Live counts currently instantiated
	// plan sets; Queued is the total ingress occupancy.
	Tenants, Live, Queued int
	// Submitted, Rejected, Completed, Failed, Evictions are the sums of
	// the per-tenant cumulative counters.
	Submitted, Rejected, Completed, Failed, Evictions int64
}

// Tenants returns the registered tenant ids, sorted.
func (fd *FrontDoor) Tenants() []string {
	fd.mu.Lock()
	ids := make([]string, 0, len(fd.tenants))
	for id := range fd.tenants {
		ids = append(ids, id)
	}
	fd.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// TenantStats snapshots one tenant.
func (fd *FrontDoor) TenantStats(id string) (TenantStats, error) {
	fd.mu.Lock()
	t, ok := fd.tenants[id]
	if !ok {
		fd.mu.Unlock()
		return TenantStats{}, fmt.Errorf("%w: %q", ErrUnknownTenant, id)
	}
	st := TenantStats{
		ID:        t.id,
		Spec:      t.spec,
		Queued:    len(t.queue),
		Running:   t.running,
		Depth:     t.depth,
		Share:     t.share,
		Submitted: t.submitted,
		Rejected:  t.rejected,
		Completed: t.completed,
		Failed:    t.failed,
		Evictions: t.evictions,
	}
	plans := t.plans.Load()
	fd.mu.Unlock()
	if plans != nil {
		st.Live = true
		st.Serve = plans.Stats()
		st.Fault = plans.FaultStats()
	}
	return st, nil
}

// Stats snapshots the aggregate front-door counters. Like serve.Stats,
// each tenant is read consistently under the scheduler lock but the
// aggregate is not a single atomic cut across tenants.
func (fd *FrontDoor) Stats() Stats {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	st := Stats{Tenants: len(fd.tenants), Queued: fd.queued}
	for _, t := range fd.tenants {
		if t.plans.Load() != nil {
			st.Live++
		}
		st.Submitted += t.submitted
		st.Rejected += t.rejected
		st.Completed += t.completed
		st.Failed += t.failed
		st.Evictions += t.evictions
	}
	return st
}
