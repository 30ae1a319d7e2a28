package wire

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/floattext"
)

// NonFiniteError reports a NaN or ±Inf where JSON needs a number: entry
// Index of vector Vector, or the progress indicator (Vector < 0).
type NonFiniteError struct {
	Vector, Index int
}

func (e *NonFiniteError) Error() string {
	if e.Vector < 0 {
		return "progress is not finite"
	}
	return fmt.Sprintf("value [%d][%d] is not finite", e.Vector, e.Index)
}

// MaxFloatLen is the longest text one panel entry takes, comma included
// (-0.0000012345678901234567, 17 digits at the smallest %f magnitude): what
// to reserve per float64 so that encoding never grows its buffer.
const MaxFloatLen = 26

// appendFloat appends f exactly as encoding/json prints a float64 (shortest
// text that round-trips, %e form outside [1e-6, 1e21)): floattext's writer,
// the same bytes as strconv's search at about half its cost. ok is false for
// NaN and ±Inf.
func appendFloat(b []byte, f float64) (_ []byte, ok bool) {
	return floattext.AppendJSON(b, f)
}

// appendEntries appends v[0], v[stride], v[2*stride], … separated by commas,
// and returns the position (in entries) of the first NaN or ±Inf, -1 when
// there is none.
func appendEntries(dst []byte, v []float64, stride int) (_ []byte, bad int) {
	for i := 0; i < len(v); i += stride {
		if i > 0 {
			dst = append(dst, ',')
		}
		var ok bool
		if dst, ok = appendFloat(dst, v[i]); !ok {
			return dst, i / stride
		}
	}
	return dst, -1
}

// appendVectors appends [[…],[…]]: vector i is the entries vs[i][0],
// vs[i][stride], vs[i][2*stride], …
func appendVectors(dst []byte, vs [][]float64, stride int) ([]byte, error) {
	dst = append(dst, '[')
	for vi, v := range vs {
		if vi > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		var bad int
		if dst, bad = appendEntries(dst, v, stride); bad >= 0 {
			return dst, &NonFiniteError{Vector: vi, Index: bad}
		}
		dst = append(dst, ']')
	}
	return append(dst, ']'), nil
}

// AppendRequest appends the panel request body: the bytes json.Marshal
// produces for server.PanelRequest{X: xs, Progress: progress}.
func AppendRequest(dst []byte, xs [][]float64, progress *float64) ([]byte, error) {
	dst = append(dst, `{"x":`...)
	dst, err := appendVectors(dst, xs, 1)
	if err != nil {
		return dst, err
	}
	if progress != nil {
		var ok bool
		if dst, ok = appendFloat(append(dst, `,"progress":`...), *progress); !ok {
			return dst, &NonFiniteError{Vector: -1}
		}
	}
	return append(dst, '}'), nil
}

// AppendRequestParallel appends what AppendRequest appends for the
// one-vector request {x, progress} (the same bytes, or the same error), with x
// cut into parts contiguous pieces encoded concurrently, the first on the
// caller's goroutine and each other on one of its own. It is for a caller that
// encodes one long vector while the CPUs it would share it with wait for the
// text: the router's distributed operator, once per SpMV for all its row
// blocks.
func AppendRequestParallel(dst []byte, x []float64, parts int, progress *float64) ([]byte, error) {
	parts = min(parts, len(x))
	if parts <= 1 {
		return AppendRequest(dst, [][]float64{x}, progress)
	}
	cut := func(p int) int { return p * len(x) / parts }
	pieces := make([]*[]byte, parts)
	bad := make([]int, parts)
	var wg sync.WaitGroup
	for p := 1; p < parts; p++ {
		pieces[p] = GetBuf((cut(p+1) - cut(p)) * MaxFloatLen)
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			*pieces[p], bad[p] = appendEntries(*pieces[p], x[cut(p):cut(p+1)], 1)
		}(p)
	}
	dst = append(dst, `{"x":[[`...)
	dst, bad[0] = appendEntries(dst, x[:cut(1)], 1)
	wg.Wait()
	defer func() {
		for _, piece := range pieces {
			PutBuf(piece)
		}
	}()
	for p, piece := range pieces {
		if bad[p] >= 0 {
			return dst, &NonFiniteError{Vector: 0, Index: cut(p) + bad[p]}
		}
		if p > 0 {
			dst = append(append(dst, ','), *piece...)
		}
	}
	dst = append(dst, "]]"...)
	if progress != nil {
		var ok bool
		if dst, ok = appendFloat(append(dst, `,"progress":`...), *progress); !ok {
			return dst, &NonFiniteError{Vector: -1}
		}
	}
	return append(dst, '}'), nil
}

// Reply is the panel reply document, the /spmv and /spmm body of both tiers
// (server.PanelResponse and cluster.PanelResponse are this type): y = A*x for
// each input vector, in order, then the Tail. The handlers never build one —
// they append and splice text — but a client or a test that marshals or
// unmarshals it with encoding/json reads and writes the same bytes.
type Reply struct {
	Y [][]float64 `json:"y"`
	Tail
}

// Tail is everything in a panel reply after "y", and the one declaration of
// those fields: none of it is a float, so encoding/json both prints it
// (appendTail) and reads it back (ScanReply).
type Tail struct {
	// K is the panel width, reported by /spmm only.
	K      int    `json:"k,omitempty"`
	Format string `json:"format"`
	// ServedBy names the shards that computed the product; router replies only.
	ServedBy []string `json:"served_by,omitempty"`
}

// appendTail closes a reply whose "y" value has just been written.
func appendTail(dst []byte, t Tail) []byte {
	rest, err := json.Marshal(t)
	if err != nil {
		panic(err) // a struct of an int and strings always marshals
	}
	dst = append(dst, ',')
	dst = append(dst, rest[1:]...)
	return append(dst, '\n')
}

// AppendReply appends the panel reply body, newline included: the bytes
// json.Encoder writes for a Reply. Product vector i is the
// entries ys[i][0], ys[i][stride], …, so a row-major SpMM panel is encoded
// in place (column i of k starts at offset i and strides by k).
func AppendReply(dst []byte, ys [][]float64, stride int, t Tail) ([]byte, error) {
	dst = append(dst, `{"y":`...)
	dst, err := appendVectors(dst, ys, stride)
	if err != nil {
		return dst, err
	}
	return appendTail(dst, t), nil
}

// Window appends a panel request whose vector v holds entries [lo, hi) of
// vector v of a scanned request (body and its ScanRequest layout; every
// vector must hold at least hi entries), each entry's text as the body has
// it, and whose progress is the body's progress text, carried over unread.
// The router sends each row block of a handle the window of x its entries
// read. The cut is found by a comma walk (Span.Cut); no number is converted
// or checked, which is the business of the shard that decodes the window.
func Window(dst, body []byte, lay Layout, lo, hi int) []byte {
	dst = append(dst, `{"x":[`...)
	for v, sp := range lay.Vectors {
		if v > 0 {
			dst = append(dst, ',')
		}
		w := sp.Cut(body, lo, hi)
		dst = append(dst, '[')
		dst = append(dst, body[w.Lo:w.Hi]...)
		dst = append(dst, ']')
	}
	dst = append(dst, ']')
	if p := lay.progress; p.Hi > p.Lo {
		dst = append(dst, `,"progress":`...)
		dst = append(dst, body[p.Lo:p.Hi]...)
	}
	return append(dst, '}')
}

// Splice appends a panel reply whose vector v is the concatenation, block by
// block, of vector v of each scanned reply: bodies[b] is a reply body and
// lays[b] its ScanReply layout, all holding the same number of vectors. One
// block re-emits a whole-handle shard's reply under a new tail; several
// gather the row blocks of a partitioned handle. Only bytes are copied.
func Splice(dst []byte, bodies [][]byte, lays []Layout, t Tail) []byte {
	dst = append(dst, `{"y":[`...)
	for v := range lays[0].Vectors {
		if v > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		first := true
		for b, body := range bodies {
			sp := lays[b].Vectors[v]
			if sp.N == 0 {
				continue
			}
			if !first {
				dst = append(dst, ',')
			}
			first = false
			dst = append(dst, body[sp.Lo:sp.Hi]...)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, ']')
	return appendTail(dst, t)
}
