package planner

// Pins for the bit-block transposes the packed runner's load/extract
// stages depend on. Both transposes are involutions, which is what lets
// LoadDestLanes and Extract share them in opposite directions.

import (
	"math/rand"
	"testing"
)

// TestTranspose64 pins the 64×64 bit-block transpose convention: after
// transpose, row r bit c equals the original row c bit r.
func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	var a, orig [64]uint64
	for i := range a {
		a[i] = rng.Uint64()
		orig[i] = a[i]
	}
	Transpose64(&a)
	for r := 0; r < 64; r++ {
		for c := 0; c < 64; c++ {
			if a[r]>>uint(c)&1 != orig[c]>>uint(r)&1 {
				t.Fatalf("Transpose64: row %d bit %d = %d, want original row %d bit %d = %d",
					r, c, a[r]>>uint(c)&1, c, r, orig[c]>>uint(r)&1)
			}
		}
	}
	Transpose64(&a)
	if a != orig {
		t.Fatal("Transpose64 is not an involution")
	}
}

// TestTranspose16x4 pins the lane-packing fast path's transpose: four
// parallel 16×16 bit transposes, one per 16-bit field of the 16 rows —
// row r bit (16q + c) swaps with row c bit (16q + r) for every field q.
func TestTranspose16x4(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var a, orig [16]uint64
	for i := range a {
		a[i] = rng.Uint64()
		orig[i] = a[i]
	}
	Transpose16x4(&a)
	for q := 0; q < 4; q++ {
		for r := 0; r < 16; r++ {
			for c := 0; c < 16; c++ {
				got := a[r] >> uint(16*q+c) & 1
				want := orig[c] >> uint(16*q+r) & 1
				if got != want {
					t.Fatalf("Transpose16x4: field %d row %d bit %d = %d, want original row %d bit %d = %d",
						q, r, c, got, c, r, want)
				}
			}
		}
	}
	Transpose16x4(&a)
	if a != orig {
		t.Fatal("Transpose16x4 is not an involution")
	}
}

// TestPackedTmpSize pins the copy scratch at what its borrowers touch,
// max(n·max(P, W), 2F+2) words: a replay's shuffle copies one lane word's
// n·P block and the concentrator stages W·n tag words, so a wide
// permuter engine is sized by its planes and a wide concentrator engine
// by its lane words — not n·P·W for either.
func TestPackedTmpSize(t *testing.T) {
	for _, tc := range []struct {
		name          string
		n, front, w   int
		wantP, wantTm int
	}{
		// Permuter layout at n=4096: lg n front planes, P = 24.
		{"permuter n=4096 W=4", 4096, 12, 4, 24, 4096 * 24},
		// Concentrator layout at n=16: one tag plane, P = 5 < W.
		{"concentrator n=16 W=16", 16, 1, 16, 5, 16 * 16},
	} {
		var b Builder
		b.MMSort(0, int32(tc.n))
		prog := b.Compile(Layout{
			N:           tc.n,
			FrontPlanes: tc.front,
			TagShift:    uint(31 + tc.front - 1),
			TagPlane:    tc.front - 1,
		})
		pp, err := prog.Packed(tc.w)
		if err != nil {
			t.Fatal(err)
		}
		if pp.P != tc.wantP {
			t.Fatalf("%s: P = %d, want %d", tc.name, pp.P, tc.wantP)
		}
		sc := pp.Get()
		if len(sc.Tmp) != tc.wantTm {
			t.Errorf("%s: len(Tmp) = %d words, want %d", tc.name, len(sc.Tmp), tc.wantTm)
		}
		if len(sc.Val) != tc.n*tc.wantP*tc.w {
			t.Errorf("%s: len(Val) = %d words, want n·P·W = %d", tc.name, len(sc.Val), tc.n*tc.wantP*tc.w)
		}
		pp.Put(sc)
	}
}
