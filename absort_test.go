package absort

import (
	"math/rand"
	"testing"

	"absort/internal/bitvec"
)

// TestPublicAPISorters exercises the facade constructors end to end.
func TestPublicAPISorters(t *testing.T) {
	v, err := ParseBits("1011/0100/0010/1110")
	if err != nil {
		t.Fatal(err)
	}
	want := v.Sorted()
	sorters := []Sorter{
		NewPrefixSorter(16),
		NewMuxMergerSorter(16),
		NewFishSorter(16, 4),
	}
	for _, s := range sorters {
		if s.N() != 16 {
			t.Errorf("%s: N = %d", s.Name(), s.N())
		}
		if got := s.Sort(v); !got.Equal(want) {
			t.Errorf("%s: Sort = %s, want %s", s.Name(), got, want)
		}
	}
}

// TestPublicAPIConcentrator checks the concentration path through the
// facade.
func TestPublicAPIConcentrator(t *testing.T) {
	c := NewConcentrator(16, 8, EngineFish, 4)
	marked := make([]bool, 16)
	marked[3], marked[7], marked[12] = true, true, true
	p, r, err := c.Concentrate(marked)
	if err != nil || r != 3 {
		t.Fatalf("Concentrate: r=%d err=%v", r, err)
	}
	for j := 0; j < r; j++ {
		if !marked[p[j]] {
			t.Fatalf("output %d fed from unmarked input %d", j, p[j])
		}
	}
}

// TestPublicAPIPermuter checks radix permuter and Beneš through the
// facade.
func TestPublicAPIPermuter(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	n := 32
	dest := make([]int, n)
	for i := range dest {
		dest[i] = i
	}
	rng.Shuffle(n, func(i, j int) { dest[i], dest[j] = dest[j], dest[i] })

	rp := NewRadixPermuter(n, EngineMuxMerger)
	p, err := rp.Route(dest)
	if err != nil {
		t.Fatal(err)
	}
	for j, i := range p {
		if dest[i] != j {
			t.Fatalf("radix permuter misrouted")
		}
	}

	cfg, steps, err := RouteBenes(dest)
	if err != nil || steps <= 0 {
		t.Fatalf("RouteBenes: %v", err)
	}
	in := make([]int, n)
	for i := range in {
		in[i] = i
	}
	out := Permute(cfg, in)
	for i := range in {
		if out[dest[i]] != i {
			t.Fatalf("Beneš misrouted")
		}
	}
}

// TestLgAndBitAliases keeps the tiny helpers honest.
func TestLgAndBitAliases(t *testing.T) {
	if Lg(64) != 6 {
		t.Error("Lg(64) != 6")
	}
	var b Bit = 1
	var v Vector = bitvec.MustFromString("01")
	if v[1] != b {
		t.Error("alias types broken")
	}
}

// TestPublicAPIWordSorter covers the word-sorting facade.
func TestPublicAPIWordSorter(t *testing.T) {
	s, err := NewWordSorter(16, 4, EngineFish)
	if err != nil {
		t.Fatal(err)
	}
	keys := []uint64{5, 3, 3, 9, 0, 15, 7, 7, 1, 2, 4, 6, 8, 10, 12, 14}
	sorted, _, err := s.Sort(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] > sorted[i] {
			t.Fatalf("not sorted: %v", sorted)
		}
	}
	type rec struct {
		k uint64
		v string
	}
	items := make([]rec, 16)
	for i := range items {
		items[i] = rec{k: keys[i], v: string(rune('a' + i))}
	}
	out, err := SortRecordsBy(s, items, func(r rec) uint64 { return r.k })
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].k > out[i].k {
			t.Fatalf("records not sorted")
		}
	}
}

// TestPublicAPIFishMachine covers the clocked-machine facade.
func TestPublicAPIFishMachine(t *testing.T) {
	m, err := NewFishMachine(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(307))
	v := Vector(bitvec.Random(rng, 32))
	out, st, err := m.Sort(v)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(v.Sorted()) || st.MacroSteps == 0 {
		t.Fatal("machine facade misbehaved")
	}
	p, _, err := m.Route(v)
	if err != nil {
		t.Fatal(err)
	}
	tags := make(Vector, len(p))
	for j, i := range p {
		tags[j] = v[i]
	}
	if !tags.IsSorted() {
		t.Fatal("machine route facade misbehaved")
	}
	if m.PipelinedMakespan() <= 0 {
		t.Fatal("pipelined makespan missing")
	}
	if _, err := NewFishMachine(32, 32); err == nil {
		t.Fatal("accepted k = n")
	}
}

// TestPublicAPIFishK pins the k = lg n rounding.
func TestPublicAPIFishK(t *testing.T) {
	for n, want := range map[int]int{4: 2, 16: 4, 64: 4, 256: 8, 65536: 16} {
		if got := FishK(n); got != want {
			t.Errorf("FishK(%d) = %d, want %d", n, got, want)
		}
	}
	if FishK(2) != 2 {
		t.Error("FishK(2) must cap at n")
	}
}

// TestPublicAPIRankingEngine: the stable engine through the facade.
func TestPublicAPIRankingEngine(t *testing.T) {
	c := NewConcentrator(8, 8, EngineRanking, 0)
	marked := []bool{true, false, true, false, false, true, false, false}
	p, r, err := c.Concentrate(marked)
	if err != nil || r != 3 {
		t.Fatalf("r=%d err=%v", r, err)
	}
	want := []int{0, 2, 5}
	for j := 0; j < r; j++ {
		if p[j] != want[j] {
			t.Fatalf("ranking engine not stable: %v", p[:r])
		}
	}
}
