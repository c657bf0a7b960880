// Pluggable routing-engine registry: the open-world replacement for the
// closed engine enum the first nine PRs switch-cased over. An Engine is
// now an index into a process-wide table of EngineSpecs — name, lowering
// function, capability bounds — registered at init (the paper's four
// adaptive sorters here; the comparator-network zoo in internal/cmpnet)
// or at runtime through Register. Every layer that used to switch on the
// enum (concentrator and permnet lowerings, the word sorter, serve's
// fault-recovery rotation, the front door's plan sets, the absort facade,
// permroute's -engine flag) now looks the engine up here, so a new engine
// — even one defined only as a comparator edge list — rides the entire
// compiled stack the moment it is registered: scalar replay, 64-lane
// packed replay, wide and batch paths, stuck-at fault injection, serve
// bursts, and the bench matrix.
package planner

import (
	"fmt"
	"sort"
	"sync"

	"absort/internal/core"
)

// Engine identifies a registered routing engine. The four engines of the
// paper occupy the first four slots in their historical order, so their
// values (and every persisted PlanKey and wire encoding built on them)
// are unchanged from the enum days.
type Engine int

// The paper's engines, registered by this package's init in this order.
const (
	// MuxMerger routes through Network 2: O(n lg n) cost, circuit-switched.
	MuxMerger Engine = iota
	// PrefixAdder routes through Network 1: O(n lg n) cost, circuit-switched.
	PrefixAdder
	// Fish routes through Network 3: O(n) cost, time-multiplexed
	// (packet-switched); takes a group count k.
	Fish
	// Ranking is the stable ranking-tree baseline of [11], [13]:
	// O(n lg² n) bit-level cost, order-preserving.
	Ranking
)

// EngineSpec describes one routing engine: its name, its lowering onto
// the planner IR, and its capability envelope.
type EngineSpec struct {
	// Name is the engine's registry key (flag values, bench columns,
	// String). Must be unique and non-empty.
	Name string

	// Sort lowers one full sort of the window [lo, hi) — hi−lo a power of
	// two — into b. k is the engine's tuning parameter (the fish group
	// count); k ≤ 0 selects the engine's default. Engines without a
	// parameter ignore k.
	Sort func(b *Builder, lo, hi int32, k int)

	// CheckK validates and normalizes the tuning parameter for width n:
	// it returns the k to compile with (resolving k ≤ 0 to the engine's
	// default) or a validation error. Engines without a parameter leave
	// it nil, and k normalizes to 0.
	CheckK func(n, k int) (int, error)

	// Stable marks engines whose routing preserves the relative order of
	// equal-tagged packets.
	Stable bool

	// PackedUnprofitable excludes the engine from the packed auto-switch
	// of the batch and serve paths: its programs replay packed correctly
	// but gain nothing over scalar (the Ranking engine's single stable
	// partition is the archetype).
	PackedUnprofitable bool

	// MinN and MaxN bound the widths the engine can route (0 = unbounded):
	// optimal small-n kernels registered for a single size set both.
	// Widths are additionally power-of-two by the planner's layout rule.
	MinN, MaxN int
}

var (
	regMu   sync.RWMutex
	regs    []EngineSpec
	regByNm = map[string]Engine{}
)

// Register adds an engine to the registry and returns its Engine value,
// or an error on a malformed spec (empty or duplicate name, no lowering).
// Registration order is stable and determines rotation order in the
// serving layer's recompile-around fallback.
func Register(spec EngineSpec) (Engine, error) {
	if spec.Name == "" {
		return 0, fmt.Errorf("planner: Register: empty engine name")
	}
	if spec.Sort == nil {
		return 0, fmt.Errorf("planner: Register %q: no Sort lowering", spec.Name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := regByNm[spec.Name]; dup {
		return 0, fmt.Errorf("planner: Register: engine %q already registered", spec.Name)
	}
	e := Engine(len(regs))
	regs = append(regs, spec)
	regByNm[spec.Name] = e
	return e, nil
}

// MustRegister is Register for init-time use: a malformed spec is a
// programming error and panics.
func MustRegister(spec EngineSpec) Engine {
	e, err := Register(spec)
	if err != nil {
		panic(err)
	}
	return e
}

// Lookup returns the spec registered for e.
func Lookup(e Engine) (EngineSpec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	if e < 0 || int(e) >= len(regs) {
		return EngineSpec{}, false
	}
	return regs[e], true
}

// EngineByName returns the engine registered under name.
func EngineByName(name string) (Engine, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := regByNm[name]
	return e, ok
}

// Engines returns every registered engine in registration order.
func Engines() []Engine {
	regMu.RLock()
	defer regMu.RUnlock()
	es := make([]Engine, len(regs))
	for i := range es {
		es[i] = Engine(i)
	}
	return es
}

// EnginesFor returns, in registration order, every engine capable of
// routing width n — the capability filter behind the serving layer's
// recompile-around rotation, so small-n kernels only rotate in at the
// width they sort.
func EnginesFor(n int) []Engine {
	regMu.RLock()
	defer regMu.RUnlock()
	var es []Engine
	for i := range regs {
		if canRouteLocked(Engine(i), n) {
			es = append(es, Engine(i))
		}
	}
	return es
}

// EngineNames returns every registered engine name, sorted.
func EngineNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	ns := make([]string, 0, len(regByNm))
	for n := range regByNm {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// NumEngines returns the number of registered engines.
func NumEngines() int {
	regMu.RLock()
	defer regMu.RUnlock()
	return len(regs)
}

// CanRoute reports whether e is registered and its capability bounds
// admit width n.
func CanRoute(e Engine, n int) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	return canRouteLocked(e, n)
}

func canRouteLocked(e Engine, n int) bool {
	if e < 0 || int(e) >= len(regs) {
		return false
	}
	spec := &regs[e]
	return n >= spec.MinN && (spec.MaxN == 0 || n <= spec.MaxN)
}

// PackedProfitable reports whether the packed auto-switch should engage
// for e's programs (registered and not marked PackedUnprofitable).
func PackedProfitable(e Engine) bool {
	spec, ok := Lookup(e)
	return ok && !spec.PackedUnprofitable
}

// String returns the engine's registered name.
func (e Engine) String() string {
	if spec, ok := Lookup(e); ok {
		return spec.Name
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// DefaultFishK is the paper's k = lg n group-count choice rounded down to
// the model's power-of-two requirement and capped at n — the default both
// the concentrator and the radix permuter apply (per level, at the
// level's window size).
func DefaultFishK(n int) int {
	lg := core.Lg(n)
	k := 2
	for k*2 <= lg {
		k *= 2
	}
	if k > n {
		k = n
	}
	return k
}

// CheckFishK is the fish engines' CheckK: k ≤ 0 resolves to DefaultFishK,
// and an explicit k must be a power of two with 2 ≤ k ≤ n (any k is a
// wire at n = 1).
func CheckFishK(n, k int) (int, error) {
	if k <= 0 {
		return DefaultFishK(n), nil
	}
	if n > 1 && (!core.IsPow2(k) || k < 2 || k > n) {
		return 0, fmt.Errorf("fish group count k=%d must be a power of two with 2 ≤ k ≤ n=%d", k, n)
	}
	return k, nil
}

// ResolveK is the one engine-shape check: e must be registered and able
// to route width n, and k must pass e's CheckK. It returns the resolved
// tuning parameter — the engine default for k ≤ 0, always 0 for
// parameterless engines. The errors carry no package prefix; each caller
// adds its own (or panics, for constructors).
func ResolveK(e Engine, n, k int) (int, error) {
	spec, ok := Lookup(e)
	if !ok {
		return 0, fmt.Errorf("unknown engine %v", e)
	}
	if !CanRoute(e, n) {
		return 0, fmt.Errorf("engine %v cannot route width %d", e, n)
	}
	if spec.CheckK == nil {
		return 0, nil
	}
	return spec.CheckK(n, k)
}

// init registers the paper's four engines in their historical enum order,
// pinning MuxMerger..Ranking to values 0..3.
func init() {
	MustRegister(EngineSpec{
		Name: "mux-merger",
		Sort: func(b *Builder, lo, hi int32, _ int) { b.MMSort(lo, hi) },
	})
	MustRegister(EngineSpec{
		Name: "prefix-adder",
		Sort: func(b *Builder, lo, hi int32, _ int) { b.PrefixSort(lo, hi) },
	})
	MustRegister(EngineSpec{
		Name: "fish",
		Sort: func(b *Builder, lo, hi int32, k int) {
			s := hi - lo
			if s == 1 {
				return // a 1-input network is a wire
			}
			if s == 2 {
				b.MMSort(lo, hi) // the k-group structure degenerates to one pair
				return
			}
			if k <= 0 {
				k = DefaultFishK(int(s))
			}
			b.FishSort(lo, hi, int32(k))
		},
		CheckK: CheckFishK,
	})
	MustRegister(EngineSpec{
		Name:               "ranking",
		Sort:               func(b *Builder, lo, hi int32, _ int) { b.Rank(lo, hi) },
		Stable:             true,
		PackedUnprofitable: true,
	})
}
