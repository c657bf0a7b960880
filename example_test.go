package absort_test

import (
	"fmt"

	"absort"
)

func ExampleParseBits() {
	v, _ := absort.ParseBits("1111/0001/0011/0111")
	fmt.Println(v)
	fmt.Println(v.Ones(), "ones")
	// Output:
	// 1111000100110111
	// 10 ones
}

func ExampleNewMuxMergerSorter() {
	s := absort.NewMuxMergerSorter(16)
	v, _ := absort.ParseBits("1011010000101110")
	fmt.Println(s.Sort(v))
	st := s.Circuit().Stats()
	fmt.Println("cost:", st.UnitCost, "depth:", st.UnitDepth)
	// Output:
	// 0000000011111111
	// cost: 151 depth: 16
}

func ExampleNewPrefixSorter() {
	s := absort.NewPrefixSorter(8)
	v, _ := absort.ParseBits("10110100")
	fmt.Println(s.Sort(v))
	// Output:
	// 00001111
}

func ExampleNewFishSorter() {
	f := absort.NewFishSorter(256, absort.FishK(256))
	fmt.Println("k =", f.K(), "cost =", f.Cost().Total(), "≤ 17n =", 17*256)
	fmt.Println("time:", f.SortingTime(false).Total(), "unpipelined,",
		f.SortingTime(true).Total(), "pipelined")
	// Output:
	// k = 8 cost = 3886 ≤ 17n = 4352
	// time: 373 unpipelined, 121 pipelined
}

func ExampleNewConcentrator() {
	c := absort.NewConcentrator(8, 4, absort.EngineMuxMerger, 0)
	marked := []bool{false, true, false, false, true, false, true, false}
	p, r, _ := c.Concentrate(marked)
	// The sorter-based concentrator is not order-preserving (use
	// EngineRanking for a stable route).
	fmt.Println("concentrated", r, "requests; first outputs fed from inputs", p[:r])
	// Output:
	// concentrated 3 requests; first outputs fed from inputs [4 6 1]
}

func ExampleNewRadixPermuter() {
	rp := absort.NewRadixPermuter(8, absort.EngineFish)
	dest := []int{3, 1, 4, 0, 7, 5, 2, 6} // input i goes to output dest[i]
	p, _ := rp.Route(dest)
	delivered := true
	for j, i := range p {
		if dest[i] != j {
			delivered = false
		}
	}
	fmt.Println("all packets delivered:", delivered)
	// Output:
	// all packets delivered: true
}

func ExampleNewWordSorter() {
	s, _ := absort.NewWordSorter(8, 4, absort.EngineMuxMerger)
	keys := []uint64{9, 3, 7, 3, 1, 15, 0, 7}
	sorted, _, _ := s.Sort(keys)
	fmt.Println(sorted)
	// Output:
	// [0 1 3 3 7 7 9 15]
}

func ExampleNewFishMachine() {
	m, _ := absort.NewFishMachine(16, 4)
	v, _ := absort.ParseBits("1010110001110010")
	out, st, _ := m.Sort(v)
	fmt.Println(out)
	fmt.Println("macro steps:", st.MacroSteps)
	// Output:
	// 0000000011111111
	// macro steps: 35
}
