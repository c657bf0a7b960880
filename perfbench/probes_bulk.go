package main

import (
	"context"
	"fmt"
	"time"

	"absort"
)

// probeBulk measures the n=4096 engines of serve-bulk-4096: the packed
// and planned paths on one 64-request group, called single-threaded;
// the streaming service against the batch call on the same 128 requests;
// and the 16-in-flight shape TestServeThroughputFloor gates.
func probeBulk(rec *record, seed int64) error {
	bulk := workloads()["serve-bulk-4096"]
	bulk.pool = 2 * bulkLanes
	in := generate(bulk, seed)
	for ti, t := range bulk.tenants {
		bp, err := absort.NewBatchPermuter(t.n, t.engine)
		if err != nil {
			return err
		}
		bc, err := absort.NewBatchConcentrator(t.n, t.n, t.engine, 0)
		if err != nil {
			return err
		}
		permItems, concItems := in[ti][0], in[ti][1]
		dests := make([][]int, len(permItems))
		for i, it := range permItems {
			dests[i] = it.req.Dest
		}
		marked := make([][]bool, len(concItems))
		for i, it := range concItems {
			marked[i] = it.req.Marked
		}
		out := make([][]int, bulkLanes)
		for i := range out {
			out[i] = make([]int, t.n)
		}
		counts := make([]int, bulkLanes)
		paths := []struct {
			name string
			run  func() error
		}{
			{"planner.packed.permute_ns", func() error {
				if err := bp.RoutePacked(out, dests[:bulkLanes]); err != nil {
					return err
				}
				return checkGroup(permItems, out, nil)
			}},
			{"planner.planned.permute_ns", func() error {
				perms, err := bp.RouteBatchPlanned(dests[:bulkLanes], 1)
				if err != nil {
					return err
				}
				return checkGroup(permItems, perms, nil)
			}},
			{"planner.packed.concentrate_ns", func() error {
				if err := bc.ConcentratePacked(out, counts, marked[:bulkLanes]); err != nil {
					return err
				}
				return checkGroup(concItems, out, counts)
			}},
			{"planner.planned.concentrate_ns", func() error {
				perms, cs, err := bc.Concentrator().ConcentrateBatchPlanned(marked[:bulkLanes], 1)
				if err != nil {
					return err
				}
				return checkGroup(concItems, perms, cs)
			}},
		}
		for _, p := range paths {
			d, err := perCall(func(int) error { return p.run() })
			if err != nil {
				return fmt.Errorf("%s %s: %w", t.id, p.name, err)
			}
			rec.put(p.name+"."+t.engine.String(), float64(d.Nanoseconds())/bulkLanes, "ns")
		}

		ratio, err := serveVsBatch(rec, t, in[ti], dests, marked, bp, bc)
		if err != nil {
			return fmt.Errorf("%s serve vs batch: %w", t.id, err)
		}
		rec.put("serve.bulk_vs_batch."+t.engine.String(), ratio, "x")
		if ti == 0 {
			ratio, err := serve16VsPlanned(t, permItems[:16], dests[:16], bp)
			if err != nil {
				return fmt.Errorf("%s 16 in flight: %w", t.id, err)
			}
			rec.put("serve.w16_vs_planned", ratio, "x")
		}
	}
	return nil
}

// checkGroup verifies the responses to the leading len(perms) items;
// counts is nil for permutations.
func checkGroup(items []*item, perms [][]int, counts []int) error {
	var chk checker
	for i, perm := range perms {
		count := 0
		if counts != nil {
			count = counts[i]
		}
		if err := chk.check(items[i], perm, count, nil); err != nil {
			return err
		}
	}
	return nil
}

// serveVsBatch is the streaming service's throughput over the batch
// call's on the same requests: a service with one submitter keeping all
// of them in flight, against RouteBatch and ConcentrateBatch on the whole
// set across GOMAXPROCS workers.
func serveVsBatch(rec *record, t tenant, kinds [][]*item, dests [][]int, marked [][]bool,
	bp *absort.BatchPermuter, bc *absort.BatchConcentrator) (float64, error) {
	depth := len(dests)
	svc, err := absort.NewRoutingService(absort.ServeConfig{N: t.n, Engine: t.engine, QueueDepth: depth})
	if err != nil {
		return 0, err
	}
	st := runSubmitters(newMeter("serve", 1, false), []*absort.RoutingService{svc}, inputs{kinds},
		depth, 300*time.Millisecond, time.Second, nil)
	svc.Close()
	rec.count(st)
	if st.firstErr != nil {
		return 0, st.firstErr
	}
	d, err := perCall(func(int) error {
		perms, err := bp.RouteBatch(dests, 0)
		if err != nil {
			return err
		}
		if err := checkGroup(kinds[0], perms, nil); err != nil {
			return err
		}
		perms, counts, err := bc.ConcentrateBatch(marked, 0)
		if err != nil {
			return err
		}
		return checkGroup(kinds[1], perms, counts)
	})
	if err != nil {
		return 0, err
	}
	batchPerSec := float64(len(dests)+len(marked)) / d.Seconds()
	return st.reqsPerSec / batchPerSec, nil
}

// serve16VsPlanned is TestServeThroughputFloor's ratio: planned-parallel
// RouteBatch time per request over the service's, 16 permutations in
// flight at once.
func serve16VsPlanned(t tenant, items []*item, dests [][]int, bp *absort.BatchPermuter) (float64, error) {
	svc, err := absort.NewRoutingService(absort.ServeConfig{N: t.n, Engine: t.engine, QueueDepth: len(dests)})
	if err != nil {
		return 0, err
	}
	defer svc.Close()
	ctx := context.Background()
	futs := make([]*absort.ServeFuture, len(items))
	perms := make([][]int, len(items))
	served, err := perCall(func(int) error {
		for i, it := range items {
			fut, err := svc.Submit(ctx, it.req)
			if err != nil {
				return err
			}
			futs[i] = fut
		}
		for i, fut := range futs {
			res, err := fut.Wait(ctx)
			if err != nil {
				return err
			}
			perms[i] = res.Perm
		}
		return checkGroup(items, perms, nil)
	})
	if err != nil {
		return 0, err
	}
	batch, err := perCall(func(int) error {
		perms, err := bp.RouteBatch(dests, 0)
		if err != nil {
			return err
		}
		return checkGroup(items, perms, nil)
	})
	if err != nil {
		return 0, err
	}
	return batch.Seconds() / served.Seconds(), nil
}
