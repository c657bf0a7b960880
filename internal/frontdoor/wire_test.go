package frontdoor

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

func roundTrip(t *testing.T, in *frame) *frame {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, in); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	var out frame
	if err := readFrame(bufio.NewReader(&buf), &out); err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	return &out
}

// TestFrameRoundTrip pins the frame encoding for every kind and status.
func TestFrameRoundTrip(t *testing.T) {
	cases := []*frame{
		{reqID: 1, kind: kindPermute, tenant: "alpha", n: 4, words: []uint64{3, 2, 1, 0}},
		{reqID: 1 << 60, kind: kindConcentrate, tenant: "β-tenant", n: 128, words: []uint64{^uint64(0), 5}},
		{reqID: 7, kind: kindSortWords, tenant: "s", n: 2, words: []uint64{9, 3}},
		{reqID: 8, kind: kindRegister, tenant: "r", n: 64, words: []uint64{1, 0, 64, 64, 2}},
		{reqID: 9, kind: kindPermute, tenant: "e", n: 4, status: statusError, errMsg: "no such thing"},
		{reqID: 10, kind: kindSortWords, tenant: "b", n: 4, status: statusBusy, errMsg: "queue full"},
		{reqID: 11, kind: kindRegister, tenant: "", n: 1, words: []uint64{}}, // empty tenant + payload
	}
	for _, in := range cases {
		out := roundTrip(t, in)
		if out.reqID != in.reqID || out.kind != in.kind || out.status != in.status ||
			out.tenant != in.tenant || out.n != in.n || out.errMsg != in.errMsg {
			t.Errorf("round trip header: got %+v, want %+v", out, in)
		}
		if len(out.words) != len(in.words) {
			t.Errorf("kind %d: %d words, want %d", in.kind, len(out.words), len(in.words))
			continue
		}
		for i := range in.words {
			if out.words[i] != in.words[i] {
				t.Errorf("kind %d word %d: %d, want %d", in.kind, i, out.words[i], in.words[i])
			}
		}
		if out.words != nil {
			putWords(out.words)
		}
	}
}

// TestFrameRejectsMalformed pins the decoder's bounds checks: an
// oversized or undersized length prefix, a tenant length overrunning
// the body, a non-word-aligned payload, and a truncated body all fail
// without allocating the claimed size.
func TestFrameRejectsMalformed(t *testing.T) {
	mk := func(bodyLen uint32, body []byte) *bufio.Reader {
		var buf bytes.Buffer
		var lp [4]byte
		binary.LittleEndian.PutUint32(lp[:], bodyLen)
		buf.Write(lp[:])
		buf.Write(body)
		return bufio.NewReader(&buf)
	}
	var f frame
	if err := readFrame(mk(MaxFrameBytes+1, nil), &f); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("oversized body: %v", err)
	}
	if err := readFrame(mk(4, make([]byte, 4)), &f); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("undersized body: %v", err)
	}
	// tenantLen = 100 in a 16-byte body.
	body := make([]byte, bodyHeaderBytes)
	binary.LittleEndian.PutUint16(body[10:12], 100)
	if err := readFrame(mk(uint32(len(body)), body), &f); err == nil || !strings.Contains(err.Error(), "overruns") {
		t.Errorf("tenant overrun: %v", err)
	}
	// 3 payload bytes: not word-aligned.
	body = make([]byte, bodyHeaderBytes+3)
	if err := readFrame(mk(uint32(len(body)), body), &f); err == nil || !strings.Contains(err.Error(), "word-aligned") {
		t.Errorf("unaligned payload: %v", err)
	}
	// Claimed 32 bytes, only 20 present.
	if err := readFrame(mk(32, make([]byte, 20)), &f); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("truncated body: %v", err)
	}
}

// TestWriteFrameRejectsOversized pins the encoder-side caps.
func TestWriteFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	f := frame{kind: kindSortWords, tenant: "t", n: 1, words: make([]uint64, MaxFrameBytes/8+1)}
	if err := writeFrame(&buf, &f); err == nil {
		t.Error("oversized payload accepted")
	}
	f = frame{kind: kindRegister, tenant: strings.Repeat("x", 0x10000), n: 1}
	if err := writeFrame(&buf, &f); err == nil {
		t.Error("oversized tenant id accepted")
	}
}

// addFrameSeeds seeds a frame fuzzer with a valid frame of every kind
// and status, and each one truncated inside the body, truncated inside
// the length prefix, and with an oversize length prefix.
func addFrameSeeds(f *testing.F) {
	for _, fr := range []*frame{
		{reqID: 1, kind: kindPermute, tenant: "alpha", n: 4, words: []uint64{3, 2, 1, 0}},
		{reqID: 2, kind: kindConcentrate, tenant: "β", n: 70, words: []uint64{^uint64(0), 5}},
		{reqID: 3, kind: kindSortWords, tenant: "s", n: 2, words: []uint64{9, 3}},
		{reqID: 4, kind: kindRegister, tenant: "r", n: 64, words: []uint64{1, 0, 64, 64, 2}},
		{reqID: 5, kind: kindPermute, tenant: "e", n: 4, status: statusError, errMsg: "no such thing"},
		{reqID: 6, kind: kindSortWords, tenant: "b", n: 4, status: statusBusy, errMsg: "queue full"},
		{reqID: 7, kind: kindRegister, n: 1},
	} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		seed := buf.Bytes()
		f.Add(seed)
		f.Add(seed[:len(seed)-1])                                                          // truncated body
		f.Add(seed[:3])                                                                    // truncated length prefix
		f.Add(append(binary.LittleEndian.AppendUint32(nil, MaxFrameBytes+1), seed[4:]...)) // oversize
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame decoder. It must
// never panic, and a frame it accepts must re-encode to exactly the
// bytes it consumed — the decoder keeps nothing it cannot write back.
func FuzzReadFrame(f *testing.F) {
	addFrameSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		r := bufio.NewReader(src)
		var fr frame
		if err := readFrame(r, &fr); err != nil {
			return
		}
		consumed := len(data) - src.Len() - r.Buffered()
		var buf bytes.Buffer
		if err := writeFrame(&buf, &fr); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:consumed]) {
			t.Fatalf("re-encoded frame %x, consumed %x", buf.Bytes(), data[:consumed])
		}
		if fr.words != nil {
			putWords(fr.words)
		}
	})
}

// FuzzRequestFromFrame decodes arbitrary frames and converts them into
// serve requests. Neither step may panic; an accepted request must
// carry exactly n entries of its kind, decoded word for word (or bit
// for bit) from the payload.
func FuzzRequestFromFrame(f *testing.F) {
	addFrameSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr frame
		if err := readFrame(bufio.NewReader(bytes.NewReader(data)), &fr); err != nil {
			return
		}
		req, err := requestFromFrame(&fr)
		if err != nil {
			return
		}
		n := int(fr.n)
		switch fr.kind {
		case kindPermute:
			if len(req.Dest) != n {
				t.Fatalf("permute request with %d destinations for n=%d", len(req.Dest), n)
			}
			for i, d := range req.Dest {
				if d != int(int64(fr.words[i])) {
					t.Fatalf("destination %d = %d, payload word %d", i, d, fr.words[i])
				}
			}
		case kindConcentrate:
			if len(req.Marked) != n {
				t.Fatalf("concentrate request with %d marks for n=%d", len(req.Marked), n)
			}
			for i, m := range req.Marked {
				if m != (fr.words[i/64]>>(i%64)&1 == 1) {
					t.Fatalf("mark %d = %v, payload bit differs", i, m)
				}
			}
		case kindSortWords:
			if len(req.Keys) != n || (n > 0 && req.Keys[n-1] != fr.words[n-1]) {
				t.Fatalf("sortwords request with %d keys for n=%d", len(req.Keys), n)
			}
		default:
			t.Fatalf("frame kind %d accepted as a routing request", fr.kind)
		}
	})
}

// TestRequestFromFrameWidthCap pins the width cap: a Concentrate bitmask
// sized for a width beyond any Permute frame (maxWireN inputs) is
// rejected before the n-entry mark slice is allocated — without the cap
// a 32 MiB frame could claim 2^31 inputs.
func TestRequestFromFrameWidthCap(t *testing.T) {
	for _, n := range []int{maxWireN, maxWireN + 64} {
		f := &frame{kind: kindConcentrate, n: uint32(n), words: make([]uint64, maskWords(n))}
		_, err := requestFromFrame(f)
		if over := n > maxWireN; over != (err != nil) {
			t.Errorf("n=%d: err=%v, want rejection %v", n, err, over)
		}
	}
}
