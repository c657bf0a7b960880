package main

import (
	"fmt"
	"time"

	"absort"
)

// probeFor is how long each fixed probe repeats its call.
const probeFor = 200 * time.Millisecond

// perCall calls fn once to warm up, then repeatedly for at least probeFor
// (and at least twice), and returns the mean time per call.
func perCall(fn func(i int) error) (time.Duration, error) {
	if err := fn(0); err != nil {
		return 0, err
	}
	t0 := time.Now()
	i := 1
	for ; i < 3 || time.Since(t0) < probeFor; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return time.Since(t0) / time.Duration(i-1), nil
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// probe measures the per-engine layer metrics. They run identically in
// every traced run, on inputs generated from the run's seed, one call
// at a time, and every response is checked.
func probe(rec *record, seed int64) error {
	if err := probeSmall(rec, seed); err != nil {
		return fmt.Errorf("small-n probe: %w", err)
	}
	if err := probeBulk(rec, seed); err != nil {
		return fmt.Errorf("n=4096 probe: %w", err)
	}
	return nil
}

// probeSmall times single plan calls at the front-door widths: a route
// and a concentration per engine × n of wire-route-small, a word sort per
// engine of wire-sortwords.
func probeSmall(rec *record, seed int64) error {
	var chk checker
	routes := workloads()["wire-route-small"]
	routes.pool = 16
	in := generate(routes, seed)
	for ti, t := range routes.tenants {
		bp, err := absort.NewBatchPermuter(t.n, t.engine)
		if err != nil {
			return err
		}
		bc, err := absort.NewBatchConcentrator(t.n, t.n, t.engine, 0)
		if err != nil {
			return err
		}
		perm := make([]int, t.n)
		perms, concs := in[ti][0], in[ti][1]
		d, err := perCall(func(i int) error {
			it := perms[i%len(perms)]
			if err := bp.RouteInto(perm, it.req.Dest); err != nil {
				return err
			}
			return chk.check(it, perm, 0, nil)
		})
		if err != nil {
			return fmt.Errorf("%s route: %w", t.id, err)
		}
		rec.put(fmt.Sprintf("permnet.route_us.%s.n%d", t.engine, t.n), micros(d), "us")
		d, err = perCall(func(i int) error {
			it := concs[i%len(concs)]
			count, err := bc.ConcentrateInto(perm, it.req.Marked)
			if err != nil {
				return err
			}
			return chk.check(it, perm, count, nil)
		})
		if err != nil {
			return fmt.Errorf("%s concentrate: %w", t.id, err)
		}
		rec.put(fmt.Sprintf("concentrator.concentrate_us.%s.n%d", t.engine, t.n), micros(d), "us")
	}

	words := workloads()["wire-sortwords"]
	words.pool = 16
	in = generate(words, seed)
	for ti, t := range words.tenants {
		ws, err := absort.NewWordSorter(t.n, 64, t.engine)
		if err != nil {
			return err
		}
		out, perm := make([]uint64, t.n), make([]int, t.n)
		sets := in[ti][0]
		d, err := perCall(func(i int) error {
			it := sets[i%len(sets)]
			if err := ws.SortInto(out, perm, it.req.Keys); err != nil {
				return err
			}
			return chk.check(it, perm, 0, out)
		})
		if err != nil {
			return fmt.Errorf("%s sort: %w", t.id, err)
		}
		rec.put("wordsort.sort_us."+t.engine.String(), micros(d), "us")
	}
	return nil
}
