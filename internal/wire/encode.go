package wire

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
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
// (-2.2250738585072014e-308): what to reserve per float64 so that encoding
// never grows its buffer.
const MaxFloatLen = 25

// appendFloat appends f exactly as encoding/json prints a float64: shortest
// text that round-trips, %e form outside [1e-6, 1e21) with a two-digit
// negative exponent trimmed to one. ok is false for NaN and ±Inf.
func appendFloat(b []byte, f float64) (_ []byte, ok bool) {
	if f-f != 0 {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json (and ES6) print it.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
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
		for i := 0; i < len(v); i += stride {
			if i > 0 {
				dst = append(dst, ',')
			}
			var ok bool
			if dst, ok = appendFloat(dst, v[i]); !ok {
				return dst, &NonFiniteError{Vector: vi, Index: i / stride}
			}
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
