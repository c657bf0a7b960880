package absort_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"absort"
	"absort/internal/permnet"
	"absort/internal/planner"
)

// TestRoutingServicePublic drives the public streaming front door: mixed
// request kinds through one service, each result checked for delivery.
func TestRoutingServicePublic(t *testing.T) {
	n := 64
	rng := rand.New(rand.NewSource(51))
	svc, err := absort.NewRoutingService(absort.ServeConfig{
		N: n, Engine: absort.EngineFish, Workers: 4, QueueDepth: 16, WordBits: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()

	var permFuts []*absort.ServeFuture
	var dests [][]int
	for i := 0; i < 20; i++ {
		dest := rng.Perm(n)
		fut, err := svc.Submit(ctx, absort.PermuteRequest(dest))
		if err != nil {
			t.Fatal(err)
		}
		permFuts = append(permFuts, fut)
		dests = append(dests, dest)
	}
	marked := make([]bool, n)
	for i := 0; i < n/4; i++ {
		marked[rng.Intn(n)] = true
	}
	concFut, err := svc.Submit(ctx, absort.ConcentrateRequest(marked))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(rng.Intn(1 << 16))
	}
	sortFut, err := svc.Submit(ctx, absort.SortWordsRequest(keys))
	if err != nil {
		t.Fatal(err)
	}

	for i, fut := range permFuts {
		res, err := fut.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !permnet.VerifyRouting(dests[i], res.Perm) {
			t.Fatalf("permute request %d not delivered", i)
		}
	}
	res, err := concFut.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, m := range marked {
		if m {
			want++
		}
	}
	if res.Count != want {
		t.Fatalf("concentrated %d, want %d", res.Count, want)
	}
	for j := 0; j < res.Count; j++ {
		if !marked[res.Perm[j]] {
			t.Fatalf("output %d receives unmarked input %d", j, res.Perm[j])
		}
	}
	res, err = sortFut.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < n; j++ {
		if res.Keys[j-1] > res.Keys[j] {
			t.Fatalf("sorted keys out of order at %d", j)
		}
	}

	st := svc.Stats()
	if st.Submitted != int64(len(permFuts)+2) || st.InFlight != 0 || st.Failed != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestRoutingServiceMalformedNoPanic is the acceptance gate: malformed
// input returns an error — never a panic — from every public serve entry
// point, and a deadline-stamped request resolves with ErrServeDeadline.
func TestRoutingServiceMalformedNoPanic(t *testing.T) {
	if _, err := absort.NewRoutingService(absort.ServeConfig{N: 12}); err == nil {
		t.Error("NewRoutingService accepted non-power-of-two n")
	}
	svc, err := absort.NewRoutingService(absort.ServeConfig{
		N: 16, Engine: absort.EngineMuxMerger, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	for i, req := range []absort.ServeRequest{
		absort.PermuteRequest([]int{0, 1, 2}),
		absort.ConcentrateRequest(make([]bool, 15)),
		absort.SortWordsRequest(nil),
		{Kind: 42},
	} {
		if _, err := svc.Submit(ctx, req); err == nil {
			t.Errorf("request %d: malformed input admitted", i)
		}
		if _, err := svc.TrySubmit(ctx, req); err == nil {
			t.Errorf("request %d: malformed input admitted by TrySubmit", i)
		}
	}
	fut, err := absort.SubmitWithDeadline(ctx, svc, absort.PermuteRequest(rand.Perm(16)),
		time.Now().Add(-time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(ctx); !errors.Is(err, absort.ErrServeDeadline) {
		t.Errorf("expired deadline resolved with %v, want ErrServeDeadline", err)
	}
}

// TestRoutingServiceFaultPublic drives the public fault-injection knob:
// a wire wedged into the live permuter misroutes, the checker catches
// it, and every submitted request still resolves correctly.
func TestRoutingServiceFaultPublic(t *testing.T) {
	const n = 16
	svc, err := absort.NewRoutingService(absort.ServeConfig{
		N: n, Engine: absort.EngineMuxMerger, Workers: 2, WordBits: 8,
		CheckFraction: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	if err := svc.InjectFault(absort.ServeWireFault{
		Kind: absort.ServePermute, Pos: 1, Bit: 3, Stuck: 1,
	}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 8; trial++ {
		dest := rng.Perm(n)
		fut, err := svc.Submit(ctx, absort.PermuteRequest(dest))
		if err != nil {
			t.Fatal(err)
		}
		res, err := fut.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for j, i := range res.Perm {
			if dest[i] != j {
				t.Fatalf("trial %d: output %d holds input %d destined for %d", trial, j, i, dest[i])
			}
		}
	}
	var fs absort.ServeFaultStats = svc.FaultStats()
	if fs.Detected < 1 || fs.Recompiled < 1 {
		t.Fatalf("fault stats after injected fault: %+v", fs)
	}
}

// TestFrontDoorMatchesRoutingService pins the two ways of running a
// plan set to bit-identical results: the same seeded Permute, Concentrate and
// SortWords stream goes through a front-door tenant (dispatchers calling
// the plan set inline) and through a RoutingService of the same spec,
// for every registry engine that can back a tenant, at n ∈ {16, 64}.
func TestFrontDoorMatchesRoutingService(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{16, 64} {
		for _, engine := range planner.EnginesFor(n) {
			cfg := absort.ServeConfig{N: n, Engine: engine, Workers: 2}
			if _, err := cfg.Resolve(); err != nil {
				continue // a width-locked kernel cannot back the permuter's level widths
			}
			t.Run(fmt.Sprintf("%v/n=%d", engine, n), func(t *testing.T) {
				svc, err := absort.NewRoutingService(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer svc.Close()
				fd := absort.NewFrontDoor(absort.FrontDoorConfig{Workers: 2})
				defer fd.Close()
				if err := fd.Register("t", absort.TenantSpec{N: n, Engine: engine}); err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(n) + 13))
				for i := 0; i < 24; i++ {
					var req absort.ServeRequest
					switch i % 3 {
					case 0:
						req = absort.PermuteRequest(rng.Perm(n))
					case 1:
						marked := make([]bool, n)
						for j := range marked {
							marked[j] = rng.Intn(2) == 0
						}
						req = absort.ConcentrateRequest(marked)
					default:
						keys := make([]uint64, n)
						for j := range keys {
							keys[j] = rng.Uint64() >> rng.Intn(64)
						}
						req = absort.SortWordsRequest(keys)
					}
					fdFut, err := fd.Submit(ctx, "t", req)
					if err != nil {
						t.Fatal(err)
					}
					svcFut, err := svc.Submit(ctx, req)
					if err != nil {
						t.Fatal(err)
					}
					got, gotErr := fdFut.Wait(ctx)
					want, wantErr := svcFut.Wait(ctx)
					if gotErr != nil || wantErr != nil {
						t.Fatalf("request %d (%v): front door %v, service %v", i, req.Kind, gotErr, wantErr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("request %d (%v): front door %+v, service %+v", i, req.Kind, got, want)
					}
				}
			})
		}
	}
}
