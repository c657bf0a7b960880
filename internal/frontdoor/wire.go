// The front door's wire protocol: a stdlib-only length-prefixed binary
// framing over TCP. Every message — request or response — is one frame:
//
//	u32  bodyLen                  // bytes after this field, ≤ MaxFrameBytes
//	u64  reqID                    // echoed verbatim in the response
//	u8   kind                     // kindPermute..kindRegister
//	u8   status                   // request: statusOK; response: ok/error/busy
//	u16  tenantLen                // tenant id byte length
//	u32  n                        // network width (register: the spec's N)
//	[tenantLen]byte  tenant       // tenant id, UTF-8
//	[...]u64         payload      // kind-dependent words (see below)
//
// everything little-endian. Request payloads: Permute carries n
// destination words; Concentrate carries ceil(n/64) bitmask words (bit
// i of word i/64 marks input i); SortWords carries n key words;
// Register carries 5 spec words (engine, k, m, wordbits, weight).
// Response payloads: Permute and SortWords carry n result words;
// Concentrate carries 1 + n words (count, then the realized
// permutation); Register carries none. An error response (statusError,
// or statusBusy for a fail-fast full tenant queue) carries the error
// message as raw bytes instead of words.
//
// Responses may arrive out of request order — the reqID matches them
// up — which is what lets one connection pipeline many in-flight
// requests. Decode parses payloads into pooled []uint64 word slices
// through pooled []byte scratch; encode appends whole frames to a
// caller-owned byte buffer (appendFrame), so a steady request stream
// allocates no per-frame buffers and many frames leave in one write.
package frontdoor

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"
)

// MaxFrameBytes caps one frame's body (a 1M-input permute response is
// 8 MiB of payload; 32 MiB leaves headroom without letting one bad
// length prefix allocate unboundedly).
const MaxFrameBytes = 32 << 20

// bodyHeaderBytes is the fixed body prefix: reqID(8) + kind(1) +
// status(1) + tenantLen(2) + n(4).
const bodyHeaderBytes = 16

// Frame kinds (requests and their responses share the kind).
const (
	kindPermute     = 1
	kindConcentrate = 2
	kindSortWords   = 3
	kindRegister    = 4
)

// Response statuses.
const (
	statusOK    = 0
	statusError = 1
	// statusBusy is a fail-fast ErrTenantQueueFull: the request was not
	// admitted and may be retried.
	statusBusy = 2
)

// registerWords is the Register payload width: engine, k, m, wordbits,
// weight.
const registerWords = 5

// frame is one decoded wire message.
type frame struct {
	reqID  uint64
	kind   uint8
	status uint8
	tenant string
	n      uint32
	words  []uint64 // pooled; release with putWords
	errMsg string   // statusError/statusBusy responses only
}

// maskWords is the Concentrate bitmask payload width for an n-input
// pattern.
func maskWords(n int) int { return (n + 63) / 64 }

// slicePool recycles slices of one element type. It holds pointers to
// slices (one boxed pointer per Put instead of re-boxing the slice
// header every time).
type slicePool[T any] struct{ p sync.Pool }

// get returns a pooled slice of length n; its contents are arbitrary.
func (sp *slicePool[T]) get(n int) []T {
	if p, _ := sp.p.Get().(*[]T); p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]T, n)
}

// put recycles s. Callers must not touch s afterwards.
func (sp *slicePool[T]) put(s []T) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	sp.p.Put(&s)
}

// Pooled buffers: frame word payloads, decode byte scratch, and the
// server's request slices (see requestFromFrame).
var (
	wordPool slicePool[uint64]
	bytePool slicePool[byte]
	intPool  slicePool[int]
	boolPool slicePool[bool]
)

// getWords returns a pooled word slice of length n.
func getWords(n int) []uint64 { return wordPool.get(n) }

// putWords recycles a slice obtained from getWords (nil is a no-op).
// Callers must not touch the slice afterwards.
func putWords(s []uint64) { wordPool.put(s) }

// readFrame decodes one frame from r into f, parsing the payload into a
// pooled word slice (f.words) or an error message (f.errMsg) depending
// on status. The previous contents of f are overwritten; its old words
// slice is NOT released (callers own release via putWords).
func readFrame(r *bufio.Reader, f *frame) error {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return err // io.EOF between frames is a clean close
	}
	bodyLen := int(binary.LittleEndian.Uint32(lenBuf[:]))
	if bodyLen < bodyHeaderBytes || bodyLen > MaxFrameBytes {
		return fmt.Errorf("frontdoor: frame body %d bytes out of range [%d, %d]",
			bodyLen, bodyHeaderBytes, MaxFrameBytes)
	}
	body := bytePool.get(bodyLen)
	defer bytePool.put(body)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("frontdoor: truncated frame: %w", err)
	}
	f.reqID = binary.LittleEndian.Uint64(body[0:8])
	f.kind = body[8]
	f.status = body[9]
	tenantLen := int(binary.LittleEndian.Uint16(body[10:12]))
	f.n = binary.LittleEndian.Uint32(body[12:16])
	if bodyHeaderBytes+tenantLen > bodyLen {
		return fmt.Errorf("frontdoor: frame tenant length %d overruns %d-byte body", tenantLen, bodyLen)
	}
	f.tenant = string(body[bodyHeaderBytes : bodyHeaderBytes+tenantLen])
	payload := body[bodyHeaderBytes+tenantLen:]
	f.words, f.errMsg = nil, ""
	if f.status == statusError || f.status == statusBusy {
		f.errMsg = string(payload)
		return nil
	}
	if len(payload)%8 != 0 {
		return fmt.Errorf("frontdoor: frame payload %d bytes is not word-aligned", len(payload))
	}
	f.words = getWords(len(payload) / 8)
	for i := range f.words {
		f.words[i] = binary.LittleEndian.Uint64(payload[8*i:])
	}
	return nil
}

// appendFrame appends f, encoded as one contiguous frame, to buf. An
// error frame (statusError/statusBusy) serializes f.errMsg; any other
// frame serializes f.words. A frame the wire cannot carry (tenant id
// over 65535 bytes, body over MaxFrameBytes) is an error, and buf comes
// back unchanged.
func appendFrame(buf []byte, f *frame) ([]byte, error) {
	payloadLen := 8 * len(f.words)
	isErr := f.status == statusError || f.status == statusBusy
	if isErr {
		payloadLen = len(f.errMsg)
	}
	bodyLen := bodyHeaderBytes + len(f.tenant) + payloadLen
	if len(f.tenant) > 0xFFFF {
		return buf, fmt.Errorf("frontdoor: tenant id %d bytes exceeds 65535", len(f.tenant))
	}
	if bodyLen > MaxFrameBytes {
		return buf, fmt.Errorf("frontdoor: frame body %d bytes exceeds %d", bodyLen, MaxFrameBytes)
	}
	buf = slices.Grow(buf, 4+bodyLen)
	le := binary.LittleEndian
	buf = le.AppendUint32(buf, uint32(bodyLen))
	buf = le.AppendUint64(buf, f.reqID)
	buf = append(buf, f.kind, f.status)
	buf = le.AppendUint16(buf, uint16(len(f.tenant)))
	buf = le.AppendUint32(buf, f.n)
	buf = append(buf, f.tenant...)
	if isErr {
		return append(buf, f.errMsg...), nil
	}
	for _, w := range f.words {
		buf = le.AppendUint64(buf, w)
	}
	return buf, nil
}
