// Package wire is the only code that turns a float panel into JSON text or
// back. A panel is the body of /spmv and /spmm on both tiers: a request
//
//	{"x":[[…],[…]],"progress":0.5}
//
// or a reply
//
//	{"y":[[…],[…]],"k":4,"format":"csr","served_by":["…"]}
//
// Three operations cover every hop:
//
//   - encode (AppendRequest, AppendReply) prints floats with encoding/json's
//     exact number text (floattext.AppendJSON), so the bytes on the wire are
//     what json.Marshal of
//     server.PanelRequest and of Reply (the reply document, declared here)
//     produces, and reports a NaN or ±Inf as a *NonFiniteError instead of
//     dropping the body;
//   - decode (DecodeVector, Layout.Progress) parses the numbers of a scanned
//     body in place, straight into the caller's pooled operands, with
//     floattext.ReadJSON: one pass checks each number's grammar and
//     converts it, and every value has the bits of strconv.ParseFloat, the
//     conversion encoding/json itself uses (what the fast paths cannot
//     certify is handed to strconv.ParseFloat); Floats gives a float array
//     inside an encoding/json document (a matrix's values) the same reader;
//   - scan (ScanRequest, ScanReply) locates each vector's byte span and entry
//     count without converting a number, and Splice builds a reply out of
//     such spans: the router forwards and gathers panels as bytes.
//
// A vector is located by its closing bracket and sized by its commas (no
// valid vector interior contains a ']'), so scan is a memchr-speed pass and
// never validates the numbers inside "x" or "y"; decode does. A body that scans but does not
// decode is rejected by the shard that decodes it.
//
// # Differences from encoding/json
//
// Scanning a request and decoding all of it accepts what json.Decoder with
// DisallowUnknownFields accepts into server.PanelRequest, and rejects what it
// rejects (unknown fields, wrong types, malformed or out-of-range numbers,
// truncated bodies; bytes after the closing brace are ignored, as the
// streaming decoder ignores them), except that three things encoding/json
// lets through leniently are rejected:
//
//   - a key that matches a field only case-insensitively ("X", "Progress");
//   - a key that appears twice;
//   - null in place of a vector or of a number inside "x"/"y" (encoding/json
//     leaves the element untouched, i.e. a silent zero).
//
// A reply is read the way its readers always read it, json.Unmarshal into the
// reply struct: only "y" is scanned by hand (the last two rejections apply to
// it), everything else in the object goes through encoding/json into Tail,
// and a key Tail does not have is ignored.
//
// Nothing encoding/json rejects is accepted, and no accepted input decodes
// to a different value. The fuzz targets FuzzWireDecodePanel and
// FuzzWireEncodeVector in internal/check hold both directions to that with
// encoding/json as the oracle.
package wire

import (
	"io"
	"math/bits"
	"sync"
)

// sizedPool recycles slices in capacity classes, four to each power of two
// (bounds 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, …): class c holds capacities
// from its bound up to the next. One handler mixes sizes that differ by the
// panel width k (a /spmv vector, a /spmm panel, a body, half a reply), and a
// single sync.Pool hands any of them to any request: the request too big for
// what it got throws it away and allocates, every round. With classes a get
// is only ever served a buffer that fits, at no more than a quarter over the
// size asked for. The pools store pointers to slices rather than slices so
// get/put themselves stay allocation-free (a slice header in an interface
// escapes; a pointer to one does not).
type sizedPool[T any] struct {
	classes [4 * bits.UintSize]sync.Pool
}

// classOf returns the class with the largest bound that is at most n ≥ 4.
func classOf(n int) int {
	e := bits.Len(uint(n)) - 1
	return 4*e + (n>>(e-2))&3
}

func classBound(c int) int { return (4 + c&3) << (c>>2 - 2) }

// get returns an empty slice with room for at least n elements.
func (sp *sizedPool[T]) get(n int) *[]T {
	c := classOf(max(n, 4))
	if classBound(c) < n {
		c++
	}
	if p, _ := sp.classes[c].Get().(*[]T); p != nil {
		*p = (*p)[:0]
		return p
	}
	b := make([]T, 0, classBound(c))
	return &b
}

func (sp *sizedPool[T]) put(p *[]T) {
	if p != nil && cap(*p) >= 4 {
		sp.classes[classOf(cap(*p))].Put(p)
	}
}

var (
	// vecPool recycles float64 work vectors: decoded request vectors, the
	// product vectors the handlers compute into, SpMM panels and default
	// right-hand sides. At thousands of requests per second those
	// make([]float64, n) calls are pure garbage-collector load.
	vecPool sizedPool[float64]
	// bufPool recycles request and reply bodies.
	bufPool sizedPool[byte]
)

// GetVec returns a length-n float64 slice from the pool, allocating only
// when the pool has none that large. The contents are NOT zeroed: every
// caller fully overwrites the slice.
func GetVec(n int) *[]float64 {
	p := vecPool.get(n)
	*p = (*p)[:n]
	return p
}

// PutVec returns a vector to the pool. The caller must not touch the slice
// afterwards.
func PutVec(p *[]float64) { vecPool.put(p) }

// GetBuf returns an empty byte buffer with room for at least n bytes.
func GetBuf(n int) *[]byte { return bufPool.get(n) }

// PutBuf returns a buffer to the pool; nil is ignored. Nothing that aliases
// the buffer (a Layout's spans index it, they do not alias it) may be used
// afterwards.
func PutBuf(p *[]byte) { bufPool.put(p) }

// Recycle empties a buffer whose contents are dead so that the next thing can
// be built in it — a handler's reply over its request — and trades it for a
// pooled one when it has no room for n bytes, so that an append never grows
// a pooled buffer out of its class.
func Recycle(p *[]byte, n int) *[]byte {
	if cap(*p) >= n {
		*p = (*p)[:0]
		return p
	}
	PutBuf(p)
	return GetBuf(n)
}

// maxSizeHint caps how much ReadBody allocates on the word of a
// Content-Length header alone; a longer body grows the buffer as its bytes
// actually arrive.
const maxSizeHint = 16 << 20

// ReadBody reads r to EOF into a pooled buffer. size is the expected length
// (a Content-Length; ≤ 0 when unknown): with it a warm pool serves the read
// without allocating or copying. On error the buffer is already back in the
// pool.
func ReadBody(r io.Reader, size int64) (*[]byte, error) {
	size = min(max(size, 511), maxSizeHint)
	p := GetBuf(int(size) + 1) // one spare byte: EOF is seen without growing
	b := *p
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			*p = b
			if err == io.EOF {
				return p, nil
			}
			PutBuf(p)
			return nil, err
		}
	}
}
