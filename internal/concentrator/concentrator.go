// Package concentrator implements the (n,m)-concentrators of Section IV:
// networks that map any r ≤ m tagged inputs onto the first r outputs.
// As the paper observes, "a binary sorter does form an (n,n)-concentrator.
// All that is needed is to tag the inputs to be concentrated with 0's and
// tag the remaining inputs with 1's."
//
// Every production route runs a compiled plan (plan.go): each engine's
// data movements lowered once into the step-program IR of
// internal/planner, replayed per request or 64 lanes per word
// (packed.go), with the tag bits driving every decision. The returned
// packet permutation lets arbitrary payloads ride through the same
// switches (bit-level control, word-level data). A ranking-based stable
// concentrator is included as the O(n lg² n)-cost baseline the paper
// cites ([11], [13]).
//
// RouteMuxMerger, RoutePrefix, RouteFish and RouteRanking replay the
// paper's four sorters item by item. They route nothing in production:
// they are the reference oracles the compiled plans, the fish hardware
// model and the verifiers are tested against.
package concentrator

import (
	"fmt"

	"absort/internal/bitvec"
	"absort/internal/core"
	"absort/internal/planner"
	"absort/internal/swapper"
)

// item is a tagged packet index flowing through a replayed network.
type item struct {
	tag bitvec.Bit
	idx int
}

func itemsOf(tags bitvec.Vector) []item {
	it := make([]item, len(tags))
	for i, t := range tags {
		it[i] = item{tag: t & 1, idx: i}
	}
	return it
}

func permOf(it []item) []int {
	p := make([]int, len(it))
	for j, x := range it {
		p[j] = x.idx
	}
	return p
}

// Engine selects which registered sorting network routes the packets. It
// is the planner registry's engine handle: the paper's four networks are
// registered by the planner itself, the comparator-network zoo by
// internal/cmpnet (imported below for its routing entry points, which
// also triggers those registrations), and clients may register more
// through planner.Register.
type Engine = planner.Engine

// The paper's engines, re-exported from the registry under their
// historical names and values.
const (
	// MuxMerger routes through Network 2: O(n lg n) cost, circuit-switched.
	MuxMerger = planner.MuxMerger
	// PrefixAdder routes through Network 1: O(n lg n) cost, circuit-switched.
	PrefixAdder = planner.PrefixAdder
	// Fish routes through Network 3: O(n) cost, time-multiplexed
	// (packet-switched); requires a group count k.
	Fish = planner.Fish
	// Ranking is the stable ranking-tree baseline of [11], [13]:
	// O(n lg² n) bit-level cost, order-preserving.
	Ranking = planner.Ranking
)

// RouteMuxMerger returns the permutation (receives-from form: out[j] =
// in[p[j]]) realized by the mux-merger binary sorter on the given tags.
// It is a reference oracle for tests; production routes run the
// compiled plan.
func RouteMuxMerger(tags bitvec.Vector) []int {
	if !core.IsPow2(len(tags)) {
		panic(fmt.Sprintf("concentrator: RouteMuxMerger on %d tags", len(tags)))
	}
	return permOf(mmSort(itemsOf(tags)))
}

func mmSort(v []item) []item {
	n := len(v)
	if n == 1 {
		return v
	}
	u := mmSort(v[:n/2])
	l := mmSort(v[n/2:])
	return mmMerge(append(append([]item{}, u...), l...))
}

func mmMerge(v []item) []item {
	n := len(v)
	if n == 2 {
		if v[0].tag > v[1].tag {
			v[0], v[1] = v[1], v[0]
		}
		return v
	}
	sel := int(2*v[n/4].tag + v[3*n/4].tag)
	w := fourWay(v, swapper.INSwap, sel)
	mid := mmMerge(w[n/4 : 3*n/4])
	x := append(append(append([]item{}, w[:n/4]...), mid...), w[3*n/4:]...)
	return fourWay(x, swapper.OUTSwap, sel)
}

func fourWay(v []item, perms swapper.QuarterPerms, sel int) []item {
	n := len(v)
	q := n / 4
	p := perms[sel]
	out := make([]item, 0, n)
	for i := 0; i < 4; i++ {
		out = append(out, v[int(p[i])*q:(int(p[i])+1)*q]...)
	}
	return out
}

// RoutePrefix returns the permutation realized by the prefix binary sorter
// (Network 1) on the given tags. It is a reference oracle for tests;
// production routes run the compiled plan.
func RoutePrefix(tags bitvec.Vector) []int {
	if !core.IsPow2(len(tags)) {
		panic(fmt.Sprintf("concentrator: RoutePrefix on %d tags", len(tags)))
	}
	return permOf(prefixSort(itemsOf(tags)))
}

func prefixSort(v []item) []item {
	n := len(v)
	if n == 1 {
		return v
	}
	u := prefixSort(v[:n/2])
	l := prefixSort(v[n/2:])
	x := shuffleItems(append(append([]item{}, u...), l...))
	m := 0
	for _, t := range x {
		m += int(t.tag)
	}
	return patchUpItems(x, m)
}

func shuffleItems(v []item) []item {
	n := len(v)
	out := make([]item, n)
	for i := 0; i < n/2; i++ {
		out[2*i] = v[i]
		out[2*i+1] = v[n/2+i]
	}
	return out
}

func patchUpItems(x []item, m int) []item {
	n := len(x)
	if n == 1 {
		return x
	}
	y := append([]item{}, x...)
	for i := 0; i < n/2; i++ {
		if y[i].tag > y[n-1-i].tag {
			y[i], y[n-1-i] = y[n-1-i], y[i]
		}
	}
	if n == 2 {
		return y
	}
	sel := m >= n/2
	mRec := m
	if sel {
		mRec = m - n/2
		y = append(append([]item{}, y[n/2:]...), y[:n/2]...)
	}
	rec := patchUpItems(y[n/2:], mRec)
	combined := append(append([]item{}, y[:n/2]...), rec...)
	if sel {
		combined = append(append([]item{}, combined[n/2:]...), combined[:n/2]...)
	}
	return combined
}

// RouteFish returns the permutation realized by the time-multiplexed fish
// sorter with k groups on the given tags. It is a reference oracle for
// tests; production routes run the compiled plan.
func RouteFish(tags bitvec.Vector, k int) []int {
	n := len(tags)
	if n == 1 {
		return []int{0} // a 1-input network is a wire
	}
	if !core.IsPow2(n) || !core.IsPow2(k) || k < 2 || k > n {
		panic(fmt.Sprintf("concentrator: RouteFish(%d tags, k=%d)", n, k))
	}
	v := itemsOf(tags)
	g := n / k
	bank := make([]item, 0, n)
	for t := 0; t < k; t++ {
		bank = append(bank, mmSort(append([]item{}, v[t*g:(t+1)*g]...))...)
	}
	return permOf(fishKMerge(bank, k))
}

func fishKMerge(v []item, k int) []item {
	s := len(v)
	if s == k {
		return mmSort(v)
	}
	bs := s / k
	half := bs / 2
	upper := make([]item, 0, s/2)
	lower := make([]item, 0, s/2)
	for j := 0; j < k; j++ {
		blk := v[j*bs : (j+1)*bs]
		if blk[half].tag == 1 { // middle bit: swap clean lower half up
			upper = append(upper, blk[half:]...)
			lower = append(lower, blk[:half]...)
		} else {
			upper = append(upper, blk[:half]...)
			lower = append(lower, blk[half:]...)
		}
	}
	upperSorted := fishCleanSort(upper, k)
	lowerSorted := fishKMerge(lower, k)
	return mmMerge(append(upperSorted, lowerSorted...))
}

func fishCleanSort(u []item, k int) []item {
	bs := len(u) / k
	out := make([]item, len(u))
	zeros := 0
	for j := 0; j < k; j++ {
		if u[j*bs].tag == 0 {
			zeros++
		}
	}
	nextZero, nextOne := 0, zeros
	for j := 0; j < k; j++ {
		blk := u[j*bs : (j+1)*bs]
		pos := nextOne
		if blk[0].tag == 0 {
			pos = nextZero
			nextZero++
		} else {
			nextOne++
		}
		copy(out[pos*bs:(pos+1)*bs], blk)
	}
	return out
}

// RouteRanking returns the stable baseline permutation: marked (tag-0)
// packets keep their relative order, as a ranking-tree concentrator
// ([11], [13]) would route them. It is a reference oracle for tests;
// production routes run the compiled plan.
func RouteRanking(tags bitvec.Vector) []int {
	p := make([]int, 0, len(tags))
	for i, t := range tags {
		if t == 0 {
			p = append(p, i)
		}
	}
	for i, t := range tags {
		if t == 1 {
			p = append(p, i)
		}
	}
	return p
}

// Concentrator is an (n,m)-concentrator over a chosen routing engine.
type Concentrator struct {
	n, m   int
	engine Engine
	k      int     // fish group count
	plan   planPtr // lazily compiled routing plan (see plan.go)
}

// New returns an (n,m)-concentrator using the given engine. For engines
// with a tuning parameter (the fish family's group count), k ≤ 0 selects
// the engine's default (the paper's k = lg n choice rounded to the
// model's power-of-two requirement); parameterless engines ignore k. New
// panics on malformed constructor arguments (the usual constructor
// contract); every routing method on the returned Concentrator reports
// malformed requests through validated error returns instead.
func New(n, m int, engine Engine, k int) *Concentrator {
	if !core.IsPow2(n) || m <= 0 || m > n {
		panic(fmt.Sprintf("concentrator: New(%d, %d)", n, m))
	}
	kk, err := planner.ResolveK(engine, n, k)
	if err != nil {
		panic(fmt.Sprintf("concentrator: New(%d, %d, %v, k=%d): %v", n, m, engine, k, err))
	}
	return &Concentrator{n: n, m: m, engine: engine, k: kk}
}

// N returns the input count; M the output capacity.
func (c *Concentrator) N() int { return c.n }

// M returns the output capacity.
func (c *Concentrator) M() int { return c.m }

// Engine returns the routing engine.
func (c *Concentrator) Engine() Engine { return c.engine }
