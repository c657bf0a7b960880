package planner

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// testPrograms returns a packable program and one whose step stream has
// an opcode without a packed form.
func testPrograms(t *testing.T) (packable, notPackable *Program) {
	t.Helper()
	layout := Layout{N: 4, FrontPlanes: 1, TagShift: 63, TagPlane: 0}
	var b Builder
	b.Rank(0, 4)
	packable = b.Compile(layout)
	var nb Builder
	nb.Emit(Op(255), 0, 4, 0)
	notPackable = nb.Compile(layout)
	if _, err := packable.Packed(); err != nil {
		t.Fatal(err)
	}
	var np *ErrNotPackable
	if _, err := notPackable.Packed(); !errors.As(err, &np) {
		t.Fatalf("Packed on an unknown opcode = %v, want *ErrNotPackable", err)
	}
	return packable, notPackable
}

// batchTrace is a fake batch that records how the driver routed each
// request.
type batchTrace struct {
	mu     sync.Mutex
	one    []bool   // request routed through One
	groups [][2]int // [lo, hi) spans routed through Group
	progs  atomic.Int32
	prog   *Program

	oneErr   func(i int) error             // nil: One succeeds
	groupErr func(lo, hi int) (int, error) // nil: Group succeeds
	progErr  error
}

func newTrace(n int, prog *Program) *batchTrace {
	return &batchTrace{one: make([]bool, n), prog: prog}
}

func (tr *batchTrace) One(i int) error {
	tr.mu.Lock()
	tr.one[i] = true
	tr.mu.Unlock()
	if tr.oneErr != nil {
		return tr.oneErr(i)
	}
	return nil
}

func (tr *batchTrace) Group(lo, hi int) (int, error) {
	tr.mu.Lock()
	tr.groups = append(tr.groups, [2]int{lo, hi})
	tr.mu.Unlock()
	if tr.groupErr != nil {
		return tr.groupErr(lo, hi)
	}
	return 0, nil
}

func (tr *batchTrace) Packed() (*Program, error) {
	tr.progs.Add(1)
	return tr.prog, tr.progErr
}

// TestBatchPackingDecisions pins the batch driver's packing decision at
// every threshold: batches enter packing at 64 requests, every group is
// one 64-lane word whatever the worker count, a remainder packs from 24
// requests up (so 87 routes its last 23 one by one and 88
// packs its last 24, while a 24..63-request batch never packs), and
// engines marked packed-unprofitable or programs without a packed form
// route every request through One.
func TestBatchPackingDecisions(t *testing.T) {
	packable, notPackable := testPrograms(t)
	// width[w] is the packed group width at workers {1, 2, 8}[w]; 0 means
	// the batch routes per request.
	table := []struct {
		n     int
		width [3]int
	}{
		{0, [3]int{}}, {1, [3]int{}}, {23, [3]int{}}, {24, [3]int{}}, {63, [3]int{}},
		{64, [3]int{64, 64, 64}},
		{65, [3]int{64, 64, 64}},
		{87, [3]int{64, 64, 64}},
		{88, [3]int{64, 64, 64}},
		{257, [3]int{64, 64, 64}},
		{1024, [3]int{64, 64, 64}},
	}
	for _, mode := range []string{"packable", "unprofitable", "not-packable"} {
		for _, tc := range table {
			for w, workers := range []int{1, 2, 8} {
				prog, unprofitable := packable, false
				width := tc.width[w]
				switch mode {
				case "unprofitable":
					unprofitable, width = true, 0
				case "not-packable":
					prog, width = notPackable, 0
				}
				tr := newTrace(tc.n, prog)
				b := Batch{Workers: workers, Grain: 3, Noun: "test: request", Unprofitable: unprofitable}
				if err := b.Run(tc.n, tr); err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s n=%d workers=%d", mode, tc.n, workers)
				wantProgs := int32(0)
				if tc.n >= 64 && !unprofitable {
					wantProgs = 1
				}
				if got := tr.progs.Load(); got != wantProgs {
					t.Errorf("%s: Packed called %d times, want %d", name, got, wantProgs)
				}
				wantOne := make([]bool, tc.n)
				var wantGroups [][2]int
				if width == 0 {
					for i := range wantOne {
						wantOne[i] = true
					}
				}
				for lo := 0; width > 0 && lo < tc.n; lo += width {
					hi := min(lo+width, tc.n)
					if hi-lo >= 24 {
						wantGroups = append(wantGroups, [2]int{lo, hi})
						continue
					}
					for i := lo; i < hi; i++ {
						wantOne[i] = true
					}
				}
				if fmt.Sprint(tr.one) != fmt.Sprint(wantOne) {
					t.Errorf("%s: per-request routes %v, want %v", name, tr.one, wantOne)
				}
				if !sameSpans(tr.groups, wantGroups) {
					t.Errorf("%s: packed groups %v, want %v", name, tr.groups, wantGroups)
				}
			}
		}
	}
}

// sameSpans compares group spans regardless of the order workers ran
// them in.
func sameSpans(got, want [][2]int) bool {
	if len(got) != len(want) {
		return false
	}
	seen := make(map[[2]int]int)
	for _, s := range got {
		seen[s]++
	}
	for _, s := range want {
		if seen[s] == 0 {
			return false
		}
		seen[s]--
	}
	return true
}

// TestBatchFixedWidth pins the fixed-width mode the sharded plan uses:
// every group, the short last one included, routes through Group, and
// Packed is never consulted.
func TestBatchFixedWidth(t *testing.T) {
	for _, workers := range []int{1, 4} {
		tr := newTrace(12, nil)
		b := Batch{Workers: workers, Grain: 3, Noun: "test: request", Width: 5}
		if err := b.Run(12, tr); err != nil {
			t.Fatal(err)
		}
		if want := [][2]int{{0, 5}, {5, 10}, {10, 12}}; !sameSpans(tr.groups, want) {
			t.Errorf("workers=%d: groups %v, want %v", workers, tr.groups, want)
		}
		if tr.progs.Load() != 0 {
			t.Errorf("workers=%d: fixed-width batch consulted Packed", workers)
		}
	}
}

// TestBatchErrors pins the fail-fast error contract: the earliest failing
// request is named once as "<Noun> <i>: <err>", whether it failed on its
// own or inside a packed group, and a Packed error comes back unwrapped.
func TestBatchErrors(t *testing.T) {
	packable, _ := testPrograms(t)
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		b := Batch{Workers: workers, Grain: 3, Noun: "test: request"}
		// 74 requests: one packed 64-request group and a 10-request
		// remainder routed one by one.
		tr := newTrace(74, packable)
		tr.oneErr = func(i int) error {
			if i == 70 || i == 72 {
				return boom
			}
			return nil
		}
		err := b.Run(74, tr)
		if err == nil || err.Error() != "test: request 70: boom" || !errors.Is(err, boom) {
			t.Errorf("workers=%d: remainder error = %v", workers, err)
		}
		tr = newTrace(74, packable)
		tr.groupErr = func(lo, hi int) (int, error) { return lo + 5, boom }
		if err := b.Run(74, tr); err == nil || err.Error() != "test: request 5: boom" {
			t.Errorf("workers=%d: group error = %v", workers, err)
		}
		tr = newTrace(74, packable)
		tr.progErr = boom
		if err := b.Run(74, tr); err != boom {
			t.Errorf("workers=%d: Packed error = %v, want it unwrapped", workers, err)
		}
	}
}

// TestRunBatchAborts pins the fail-fast contract: once fn returns false,
// workers stop claiming items instead of burning through the batch.
func TestRunBatchAborts(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 10_000
		var executed atomic.Int64
		runBatch(n, workers, 8, func(i int) bool {
			if i == 0 {
				return false // poison the very first item
			}
			executed.Add(1)
			return true
		})
		// Workers claim grain items per cursor bump; an aborted batch may
		// finish grains already in flight, but the bulk of the batch must
		// be skipped. The n/2 bound is loose enough to be robust to
		// scheduling while still proving the abort.
		if got := executed.Load(); got > int64(n/2) {
			t.Errorf("workers=%d: %d of %d items executed after poison, want early abort",
				workers, got, n)
		}
	}
}
