package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"absort"
)

// Each layer below the workload's own entry point is measured for
// ladderMeasure after ladderWarm.
const (
	ladderWarm    = 500 * time.Millisecond
	ladderMeasure = 2 * time.Second
)

// layers is the traced run. It measures the workload through its entry
// point twice, untraced then traced (their throughput ratio is the
// tracing overhead), replays the same requests at the same in-flight
// depth through every other layer's entry point, and ends with the
// fixed per-engine probes.
func layers(o options, w *workload) (*record, error) {
	in := generate(w, o.seed)
	e, err := startEntry(w, in)
	if err != nil {
		return nil, err
	}
	cacheSetup := absort.SharedPlanCacheStats()
	half := time.Duration(o.seconds) * time.Second / 2
	plain := e.run(false, warmFor, half)
	cacheSteady := absort.SharedPlanCacheStats()
	top := e.run(true, ladderWarm, half)
	checked, completed, err := e.checked()

	rec := &record{Samples: top.completed}
	rec.count(plain)
	rec.count(top)
	if err != nil {
		e.close()
		return rec, err
	}

	var wire, admit, srv layerStats
	var queued, queueLength float64
	if w.wire {
		wire, queued = top, top.gaugeMean
		admit = runCallers(newMeter("frontdoor.admit", w.inFlight, true), w.inFlight, in,
			e.fd.admitCall(w), ladderWarm, ladderMeasure, nil)
		e.close()
		svcs, err := startServices(w)
		if err != nil {
			return rec, err
		}
		srv = runCallers(newMeter("serve", w.inFlight, true), w.inFlight, in,
			serveCall(svcs), ladderWarm, ladderMeasure, queueLen(svcs))
		closeServices(svcs)
		queueLength = srv.gaugeMean
		rec.count(admit)
		rec.count(srv)
	} else {
		srv, queueLength = top, top.gaugeMean
		e.close()
		fd, err := startFrontDoor(w)
		if err != nil {
			return rec, err
		}
		wire = runCallers(newMeter("frontdoor.wire", w.inFlight, true), w.inFlight, in,
			fd.wireCall(w), ladderWarm, ladderMeasure, fd.queued)
		admit = runCallers(newMeter("frontdoor.admit", w.inFlight, true), w.inFlight, in,
			fd.admitCall(w), ladderWarm, ladderMeasure, nil)
		fd.close()
		queued = wire.gaugeMean
		rec.count(wire)
		rec.count(admit)
	}

	ps, err := newPlans(w)
	if err != nil {
		return rec, err
	}
	plan := runCallers(newMeter("plan", w.inFlight, true), w.inFlight, in,
		planCall(w, ps, w.inFlight), ladderWarm, ladderMeasure, nil)
	bulk := runBulk(newMeter("bulk", runtime.GOMAXPROCS(0), true), bulkGroups(in, ps), ladderWarm, ladderMeasure)
	rec.count(plan)
	rec.count(bulk)

	// A layer's self cost is its rung's process CPU per request less the
	// rung below's. Latency would not do: the callers of the wire, admit
	// and serve rungs block, so their latency also holds the wait for one
	// of GOMAXPROCS CPUs, which the plan rung's never-blocking callers do
	// not see. The plan rung's own figure holds the response check, as
	// every rung's does.
	rec.put("frontdoor.wire.self_cpu_us", wire.cpuUsPerReq-admit.cpuUsPerReq, "us")
	rec.put("frontdoor.admit.self_cpu_us", admit.cpuUsPerReq-srv.cpuUsPerReq, "us")
	rec.put("serve.self_cpu_us", srv.cpuUsPerReq-plan.cpuUsPerReq, "us")
	rec.put("plan.self_cpu_us", plan.cpuUsPerReq, "us")
	rec.put("bulk.us_per_req", 1e6/bulk.reqsPerSec, "us")
	rec.put("frontdoor.queued_mean", queued, "count")
	rec.put("serve.queue_len_mean", queueLength, "count")
	rec.put("serve.checked_frac", float64(checked)/float64(completed), "fraction")
	rec.put("planner.cache.misses_setup", float64(cacheSetup.Misses), "count")
	rec.put("planner.cache.misses_steady", float64(cacheSteady.Misses-cacheSetup.Misses), "count")
	rec.put("planner.cache.evictions", float64(cacheSteady.Evictions), "count")
	for _, st := range []layerStats{wire, admit, srv, plan, bulk} {
		rec.put(st.layer+".alloc_bytes_per_req", st.allocPerReq, "B")
	}
	rec.put("gc.cycles_per_kreq", plain.gcPerKReq, "count")
	rec.put("trace.overhead_frac", 1-top.reqsPerSec/plain.reqsPerSec, "fraction")
	rec.Extra = map[string]float64{}
	for _, st := range []layerStats{wire, admit, srv, plan} {
		rec.Extra[st.layer+".cpu_us_per_req"] = st.cpuUsPerReq
		rec.Extra[st.layer+".median_us"] = st.medianUs
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: per layer at %d in flight, CPU µs/req "+
		"wire %.1f, admit %.1f, serve %.1f, plan %.1f (self: wire %.1f, admit %.1f, serve %.1f, plan %.1f); "+
		"median latency wire %.1f, admit %.1f, serve %.1f, plan %.1f µs; bulk %.2f µs/req\n",
		w.name, o.seed, w.inFlight, wire.cpuUsPerReq, admit.cpuUsPerReq, srv.cpuUsPerReq, plan.cpuUsPerReq,
		wire.cpuUsPerReq-admit.cpuUsPerReq, admit.cpuUsPerReq-srv.cpuUsPerReq, srv.cpuUsPerReq-plan.cpuUsPerReq,
		plan.cpuUsPerReq, wire.medianUs, admit.medianUs, srv.medianUs, plan.medianUs, 1e6/bulk.reqsPerSec)

	if err := probe(rec, o.seed); err != nil {
		return rec, err
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}
