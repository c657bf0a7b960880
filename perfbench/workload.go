package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"absort"
	"absort/internal/serve"
)

// tenant is one front-door tenant or one streaming service of a
// workload: a plan-set shape and the request kinds it receives, cycled
// 1:1.
type tenant struct {
	id     string
	n      int
	engine absort.Engine
	kinds  []serve.Kind
}

// workload is one traffic mix. Every caller waits for its reply (closed
// loop), so inFlight is also the number of callers.
type workload struct {
	name string
	// wire selects the entry point the end-to-end metrics drive: the
	// front door over TCP (one goroutine per in-flight request, spread
	// over conns connections), or in-process streaming services (one
	// submitter per service keeping inFlight/len(tenants) requests in
	// flight).
	wire     bool
	tenants  []tenant
	conns    int
	inFlight int
	// pool is the number of generated requests per tenant × kind; callers
	// cycle through them.
	pool int
}

// workloads lists the benchmark's traffic mixes. Each one makes a
// different layer dominate (see BENCHMARK.json for the reasons; the
// package comment says why wire-sortwords is not listed there).
func workloads() map[string]*workload {
	routeSmall := &workload{name: "wire-route-small", wire: true, conns: 2, inFlight: 16, pool: 128}
	for _, n := range []int{32, 128} {
		for _, e := range []string{"mux-merger", "prefix-adder", "fish", "ranking"} {
			routeSmall.tenants = append(routeSmall.tenants,
				newTenant(e, n, serve.Permute, serve.Concentrate))
		}
	}
	sortWords := &workload{name: "wire-sortwords", wire: true, conns: 2, inFlight: 4, pool: 256,
		tenants: []tenant{
			newTenant("fish", 64, serve.SortWords),
			newTenant("mux-merger", 64, serve.SortWords),
		}}
	bulk := &workload{name: "serve-bulk-4096", wire: false, conns: 2, inFlight: 256, pool: 192,
		tenants: []tenant{
			newTenant("fish", 4096, serve.Permute, serve.Concentrate),
			newTenant("periodic", 4096, serve.Permute, serve.Concentrate),
		}}
	return map[string]*workload{routeSmall.name: routeSmall, sortWords.name: sortWords, bulk.name: bulk}
}

func newTenant(engine string, n int, kinds ...serve.Kind) tenant {
	e, ok := absort.EngineByName(engine)
	if !ok {
		panic("perfbench: unknown engine " + engine)
	}
	return tenant{id: fmt.Sprintf("%s-n%d", engine, n), n: n, engine: e, kinds: kinds}
}

// item is one generated request with what its response must contain.
type item struct {
	id     int // shared by every span of this request
	tenant int
	req    absort.ServeRequest
	marked int      // Concentrate: number of marked inputs
	sorted []uint64 // SortWords: the keys in ascending order
}

// inputs holds a workload's generated requests, [tenant][kind][i].
type inputs [][][]*item

// generate builds every request of the workload from seed, before any
// timing starts. The program under test only ever sees these inputs.
func generate(w *workload, seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	in := make(inputs, len(w.tenants))
	id := 0
	for ti, t := range w.tenants {
		in[ti] = make([][]*item, len(t.kinds))
		for ki, kind := range t.kinds {
			for range w.pool {
				it := &item{id: id, tenant: ti, req: absort.ServeRequest{Kind: kind}}
				id++
				switch kind {
				case absort.ServePermute:
					it.req.Dest = rng.Perm(t.n)
				case absort.ServeConcentrate:
					it.req.Marked = make([]bool, t.n)
					for j := range it.req.Marked {
						if rng.Intn(2) == 0 {
							it.req.Marked[j] = true
							it.marked++
						}
					}
				case absort.ServeSortWords:
					// Every other key set draws from 256 values, so equal
					// keys (the stability case) occur.
					mask := ^uint64(0)
					if id%2 == 0 {
						mask = 0xff
					}
					it.req.Keys = make([]uint64, t.n)
					for j := range it.req.Keys {
						it.req.Keys[j] = rng.Uint64() & mask
					}
					it.sorted = slices.Clone(it.req.Keys)
					slices.Sort(it.sorted)
				}
				in[ti][ki] = append(in[ti][ki], it)
			}
		}
	}
	return in
}

// sequence is caller g's request order: it serves tenant g mod T and
// alternates that tenant's kinds every run requests, starting at a
// caller-specific offset so concurrent callers of one tenant send
// different requests.
func (in inputs) sequence(g, run int) []*item {
	t := in[g%len(in)]
	round := g / len(in)
	var seq []*item
	for j := 0; j < len(t[0]); j += run {
		for k := range t {
			kind := t[(k+round)%len(t)]
			for r := range run {
				seq = append(seq, kind[(j+r+round*7)%len(kind)])
			}
		}
	}
	return seq
}

// checker verifies responses in full. Its scratch is reused, so one
// checker belongs to one goroutine.
type checker struct {
	seen  []uint32
	epoch uint32
}

// isPermutation reports whether p is a permutation of 0..len(p)-1.
func (c *checker) isPermutation(p []int) bool {
	if len(c.seen) < len(p) {
		c.seen = make([]uint32, len(p))
		c.epoch = 0
	}
	c.epoch++
	for _, v := range p {
		if v < 0 || v >= len(p) || c.seen[v] == c.epoch {
			return false
		}
		c.seen[v] = c.epoch
	}
	return true
}

// errWrong reports a response that arrived but is not the right answer.
var errWrong = errors.New("wrong response")

// check verifies one response: a Permute response must realize dest, a
// Concentrate response must be a permutation whose first count entries
// are exactly the marked inputs, and a SortWords response must equal the
// reference-sorted keys (and, where the permutation is returned, gather
// them from the input).
func (c *checker) check(it *item, perm []int, count int, keys []uint64) error {
	switch it.req.Kind {
	case absort.ServePermute:
		if len(perm) != len(it.req.Dest) {
			return errWrong
		}
		for i, d := range it.req.Dest {
			if perm[d] != i {
				return errWrong
			}
		}
	case absort.ServeConcentrate:
		if len(perm) != len(it.req.Marked) || count != it.marked || !c.isPermutation(perm) {
			return errWrong
		}
		for _, src := range perm[:count] {
			if !it.req.Marked[src] {
				return errWrong
			}
		}
	case absort.ServeSortWords:
		if !slices.Equal(keys, it.sorted) {
			return errWrong
		}
		if perm != nil {
			if len(perm) != len(keys) || !c.isPermutation(perm) {
				return errWrong
			}
			for j, src := range perm {
				if it.req.Keys[src] != keys[j] {
					return errWrong
				}
			}
		}
	}
	return nil
}
