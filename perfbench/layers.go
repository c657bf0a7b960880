package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"absort"
	"absort/internal/serve"
)

// callFn issues one request through a layer's entry point and verifies
// the response. c is the caller's index; chk is the caller's checker.
type callFn func(c int, it *item, chk *checker) error

// perTenant is the number of requests each tenant has in flight.
func (w *workload) perTenant() int {
	return (w.inFlight + len(w.tenants) - 1) / len(w.tenants)
}

// frontDoor is the front door served over TCP on loopback, with every
// tenant registered through every connection.
type frontDoor struct {
	fd      *absort.FrontDoor
	srv     *absort.FrontDoorServer
	clients []*absort.FrontDoorClient
}

func startFrontDoor(w *workload) (*frontDoor, error) {
	var cfg absort.FrontDoorConfig
	// The adaptive controller may shrink a tenant queue to a quarter of
	// its configured depth; keep that floor above the tenant's in-flight
	// count so no closed-loop caller is ever refused. Below that, keep
	// the default depth of 64.
	if d := 4 * w.perTenant(); d > 64 {
		cfg.QueueDepth = d
	}
	fd := absort.NewFrontDoor(cfg)
	srv, err := absort.NewFrontDoorServer(fd, "127.0.0.1:0")
	if err != nil {
		fd.Close()
		return nil, err
	}
	f := &frontDoor{fd: fd, srv: srv}
	for range w.conns {
		cl, err := absort.DialFrontDoor(srv.Addr().String())
		if err != nil {
			f.close()
			return nil, err
		}
		f.clients = append(f.clients, cl)
		for _, t := range w.tenants {
			if err := cl.Register(t.id, absort.TenantSpec{N: t.n, Engine: t.engine}); err != nil {
				f.close()
				return nil, fmt.Errorf("register %s: %w", t.id, err)
			}
		}
	}
	return f, nil
}

func (f *frontDoor) close() {
	for _, cl := range f.clients {
		cl.Close()
	}
	f.srv.Close()
	f.fd.Close()
}

// wireCall drives the front door through its TCP clients. Caller c uses
// connection (c / tenants) mod conns, so every tenant's callers spread
// over every connection.
func (f *frontDoor) wireCall(w *workload) callFn {
	return func(c int, it *item, chk *checker) error {
		cl := f.clients[(c/len(w.tenants))%len(f.clients)]
		id := w.tenants[it.tenant].id
		switch it.req.Kind {
		case serve.Permute:
			perm, err := cl.Permute(id, it.req.Dest)
			if err != nil {
				return err
			}
			return chk.check(it, perm, 0, nil)
		case serve.Concentrate:
			perm, count, err := cl.Concentrate(id, it.req.Marked)
			if err != nil {
				return err
			}
			return chk.check(it, perm, count, nil)
		default:
			keys, err := cl.SortWords(id, it.req.Keys)
			if err != nil {
				return err
			}
			return chk.check(it, nil, 0, keys)
		}
	}
}

// admitCall drives the same front door in process: Submit then Wait.
func (f *frontDoor) admitCall(w *workload) callFn {
	ctx := context.Background()
	return func(_ int, it *item, chk *checker) error {
		fut, err := f.fd.Submit(ctx, w.tenants[it.tenant].id, it.req)
		if err != nil {
			return err
		}
		res, err := fut.Wait(ctx)
		if err != nil {
			return err
		}
		return chk.check(it, res.Perm, res.Count, res.Keys)
	}
}

// queued is the front door's total ingress-queue occupancy.
func (f *frontDoor) queued() float64 { return float64(f.fd.Stats().Queued) }

// checked returns the front door's responses checked by the lanewise
// checker and its tenants' serve completions.
func (f *frontDoor) checked() (checked, completed int64, err error) {
	for _, id := range f.fd.Tenants() {
		st, err := f.fd.TenantStats(id)
		if err != nil {
			return 0, 0, err
		}
		checked += st.Fault.Checked
		completed += st.Serve.Completed
	}
	return checked, completed, nil
}

// startServices starts one streaming service per tenant. The queue holds
// every request the tenant has in flight, so Submit never blocks a
// closed-loop caller.
func startServices(w *workload) ([]*absort.RoutingService, error) {
	var svcs []*absort.RoutingService
	for _, t := range w.tenants {
		svc, err := absort.NewRoutingService(absort.ServeConfig{N: t.n, Engine: t.engine, QueueDepth: w.perTenant()})
		if err != nil {
			closeServices(svcs)
			return nil, fmt.Errorf("service %s: %w", t.id, err)
		}
		svcs = append(svcs, svc)
	}
	return svcs, nil
}

func closeServices(svcs []*absort.RoutingService) {
	for _, svc := range svcs {
		svc.Close()
	}
}

func serveCall(svcs []*absort.RoutingService) callFn {
	ctx := context.Background()
	return func(_ int, it *item, chk *checker) error {
		fut, err := svcs[it.tenant].Submit(ctx, it.req)
		if err != nil {
			return err
		}
		res, err := fut.Wait(ctx)
		if err != nil {
			return err
		}
		return chk.check(it, res.Perm, res.Count, res.Keys)
	}
}

func queueLen(svcs []*absort.RoutingService) func() float64 {
	return func() float64 {
		n := 0
		for _, svc := range svcs {
			n += svc.QueueLen()
		}
		return float64(n)
	}
}

func servicesChecked(svcs []*absort.RoutingService) (checked, completed int64) {
	for _, svc := range svcs {
		checked += svc.FaultStats().Checked
		completed += svc.Stats().Completed
	}
	return checked, completed
}

// plans is one tenant's compiled plan set, called directly.
type plans struct {
	perm  *absort.BatchPermuter
	conc  *absort.BatchConcentrator
	words *absort.WordSorter
}

func newPlans(w *workload) ([]plans, error) {
	ps := make([]plans, len(w.tenants))
	for i, t := range w.tenants {
		var err error
		for _, k := range t.kinds {
			switch k {
			case serve.Permute:
				ps[i].perm, err = absort.NewBatchPermuter(t.n, t.engine)
			case serve.Concentrate:
				ps[i].conc, err = absort.NewBatchConcentrator(t.n, t.n, t.engine, 0)
			case serve.SortWords:
				ps[i].words, err = absort.NewWordSorter(t.n, 64, t.engine)
			}
			if err != nil {
				return nil, fmt.Errorf("plans %s: %w", t.id, err)
			}
		}
	}
	return ps, nil
}

// planCall calls the plans' single-request entry points, writing into
// per-caller buffers.
func planCall(w *workload, ps []plans, callers int) callFn {
	n := 0
	for _, t := range w.tenants {
		n = max(n, t.n)
	}
	perms := make([][]int, callers)
	keys := make([][]uint64, callers)
	for c := range perms {
		perms[c] = make([]int, n)
		keys[c] = make([]uint64, n)
	}
	return func(c int, it *item, chk *checker) error {
		p := ps[it.tenant]
		n := w.tenants[it.tenant].n
		perm := perms[c][:n]
		switch it.req.Kind {
		case serve.Permute:
			if err := p.perm.RouteInto(perm, it.req.Dest); err != nil {
				return err
			}
			return chk.check(it, perm, 0, nil)
		case serve.Concentrate:
			count, err := p.conc.ConcentrateInto(perm, it.req.Marked)
			if err != nil {
				return err
			}
			return chk.check(it, perm, count, nil)
		default:
			out := keys[c][:n]
			if err := p.words.SortInto(out, perm, it.req.Keys); err != nil {
				return err
			}
			return chk.check(it, perm, 0, out)
		}
	}
}

// runCallers runs one goroutine per in-flight request, each in a closed
// loop over its request sequence, and measures them.
func runCallers(m *meter, callers int, in inputs, call callFn, warm, measure time.Duration, gauge func() float64) layerStats {
	var wg sync.WaitGroup
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seq := in.sequence(c, 1)
			var chk checker
			for k := 0; m.running(); k++ {
				it := seq[k%len(seq)]
				t0 := time.Now()
				err := call(c, it, &chk)
				m.done(c, it, t0, time.Now(), err)
			}
		}()
	}
	ms := m.control(warm, measure, gauge)
	wg.Wait()
	return m.summarize(ms)
}

// runSubmitters runs one submitter per service. Each keeps depth
// requests in flight: as soon as any of its requests resolves, it
// verifies the response and submits the next request in its place. A
// submitter sends each kind in runs of bulkLanes requests, as a bulk
// client streaming batches would, so the service's same-kind drain sees
// runs it can pack.
func runSubmitters(m *meter, svcs []*absort.RoutingService, in inputs, depth int, warm, measure time.Duration, gauge func() float64) layerStats {
	ctx := context.Background()
	type resolved struct {
		it  *item
		t0  time.Time
		res absort.ServeResult
		err error
	}
	var wg sync.WaitGroup
	for s, svc := range svcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seq := in.sequence(s, bulkLanes)
			// Sized to the in-flight bound, so no send ever blocks.
			done := make(chan resolved, depth)
			k := 0
			submit := func() {
				it := seq[k%len(seq)]
				k++
				t0 := time.Now()
				fut, err := svc.Submit(ctx, it.req)
				if err != nil {
					done <- resolved{it: it, t0: t0, err: err}
					return
				}
				go func() {
					res, err := fut.Wait(ctx)
					done <- resolved{it: it, t0: t0, res: res, err: err}
				}()
			}
			for range depth {
				submit()
			}
			var chk checker
			for inFlight := depth; inFlight > 0; inFlight-- {
				r := <-done
				err := r.err
				if err == nil {
					err = chk.check(r.it, r.res.Perm, r.res.Count, r.res.Keys)
				}
				m.done(s, r.it, r.t0, time.Now(), err)
				if m.running() {
					submit()
					inFlight++
				}
			}
		}()
	}
	ms := m.control(warm, measure, gauge)
	wg.Wait()
	return m.summarize(ms)
}

// bulkLanes is the request group one batch call routes: one 64-lane
// word of the packed engines.
const bulkLanes = 64

// bulkGroup is one tenant × kind group of bulkLanes requests and the
// batch call that routes it.
type bulkGroup struct {
	items []*item
	run   func(chk *checker) []error
}

func bulkGroups(in inputs, ps []plans) []bulkGroup {
	var gs []bulkGroup
	for ti := range in {
		p := ps[ti]
		for _, kind := range in[ti] {
			for lo := 0; lo+bulkLanes <= len(kind); lo += bulkLanes {
				items := kind[lo : lo+bulkLanes]
				gs = append(gs, bulkGroup{items: items, run: bulkRun(p, items)})
			}
		}
	}
	return gs
}

// bulkRun returns the batch call for one group, single-threaded so the
// callers alone set the parallelism. Each request gets its own verdict.
func bulkRun(p plans, items []*item) func(chk *checker) []error {
	verdicts := func(chk *checker, err error, perms [][]int, counts []int, keys [][]uint64) []error {
		errs := make([]error, len(items))
		for i, it := range items {
			switch {
			case err != nil:
				errs[i] = err
			case it.req.Kind == serve.Permute:
				errs[i] = chk.check(it, perms[i], 0, nil)
			case it.req.Kind == serve.Concentrate:
				errs[i] = chk.check(it, perms[i], counts[i], nil)
			default:
				errs[i] = chk.check(it, perms[i], 0, keys[i])
			}
		}
		return errs
	}
	switch items[0].req.Kind {
	case serve.Permute:
		dests := make([][]int, len(items))
		for i, it := range items {
			dests[i] = it.req.Dest
		}
		return func(chk *checker) []error {
			perms, err := p.perm.RouteBatch(dests, 1)
			return verdicts(chk, err, perms, nil, nil)
		}
	case serve.Concentrate:
		marked := make([][]bool, len(items))
		for i, it := range items {
			marked[i] = it.req.Marked
		}
		return func(chk *checker) []error {
			perms, counts, err := p.conc.ConcentrateBatch(marked, 1)
			return verdicts(chk, err, perms, counts, nil)
		}
	default:
		keySets := make([][]uint64, len(items))
		for i, it := range items {
			keySets[i] = it.req.Keys
		}
		return func(chk *checker) []error {
			keys, perms, err := absort.SortWordsBatch(p.words, keySets, 1)
			return verdicts(chk, err, perms, nil, keys)
		}
	}
}

// runBulk routes the groups on GOMAXPROCS callers. Every request of a
// group completes when its batch call returns.
func runBulk(m *meter, gs []bulkGroup, warm, measure time.Duration) layerStats {
	callers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var chk checker
			for j := c; m.running(); j += callers {
				g := gs[j%len(gs)]
				t0 := time.Now()
				errs := g.run(&chk)
				t1 := time.Now()
				for i, it := range g.items {
					m.done(c, it, t0, t1, errs[i])
				}
			}
		}()
	}
	ms := m.control(warm, measure, nil)
	wg.Wait()
	return m.summarize(ms)
}
